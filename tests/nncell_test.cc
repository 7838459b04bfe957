#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/distance.h"
#include "common/rng.h"
#include "data/generators.h"
#include "nncell/nncell_index.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"

namespace nncell {
namespace {

struct IndexFixture {
  IndexFixture(size_t dim, NNCellOptions opts, size_t page_size = 2048,
               size_t pool_pages = 16384)
      : file(page_size), pool(&file, pool_pages) {
    index = std::make_unique<NNCellIndex>(&pool, dim, opts);
  }
  PageFile file;
  BufferPool pool;
  std::unique_ptr<NNCellIndex> index;
};

// Brute-force NN oracle.
size_t BruteForceNN(const PointSet& pts, const double* q) {
  size_t best = 0;
  double best_d = 1e300;
  for (size_t i = 0; i < pts.size(); ++i) {
    double d = L2DistSq(pts[i], q, pts.dim());
    if (d < best_d) {
      best_d = d;
      best = i;
    }
  }
  return best;
}

void ExpectQueriesMatchBruteForce(const IndexFixture& fx, const PointSet& pts,
                                  const PointSet& queries,
                                  size_t* fallbacks = nullptr) {
  for (size_t i = 0; i < queries.size(); ++i) {
    auto result = fx.index->Query(queries[i]);
    ASSERT_TRUE(result.ok());
    size_t expected = BruteForceNN(pts, queries[i]);
    double expected_dist = L2Dist(pts[expected], queries[i], pts.dim());
    // Ties allowed: compare by distance, not id.
    EXPECT_NEAR(result->dist, expected_dist, 1e-9) << "query " << i;
    if (fallbacks != nullptr && result->used_fallback) ++(*fallbacks);
  }
}

TEST(NNCellIndexTest, EmptyIndexQueryFails) {
  IndexFixture fx(2, NNCellOptions{});
  auto r = fx.index->Query({0.5, 0.5});
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST(NNCellIndexTest, SinglePointOwnsWholeSpace) {
  IndexFixture fx(3, NNCellOptions{});
  ASSERT_TRUE(fx.index->Insert({0.3, 0.6, 0.9}).ok());
  const auto& rects = fx.index->CellRects(0);
  ASSERT_EQ(rects.size(), 1u);
  EXPECT_EQ(rects[0], HyperRect::UnitCube(3));
  auto r = fx.index->Query({0.99, 0.01, 0.5});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->id, 0u);
  EXPECT_EQ(r->candidates, 1u);
}

TEST(NNCellIndexTest, RejectsDuplicatesAndBadInput) {
  IndexFixture fx(2, NNCellOptions{});
  ASSERT_TRUE(fx.index->Insert({0.5, 0.5}).ok());
  ASSERT_TRUE(fx.index->Insert({0.25, 0.75}).ok());
  const NNCellBuildStats before = fx.index->build_stats();
  auto dup = fx.index->Insert({0.5, 0.5});
  EXPECT_EQ(dup.status().code(), StatusCode::kAlreadyExists);
  auto wrong_dim = fx.index->Insert({0.5});
  EXPECT_EQ(wrong_dim.status().code(), StatusCode::kInvalidArgument);
  auto outside = fx.index->Insert({1.5, 0.5});
  EXPECT_EQ(outside.status().code(), StatusCode::kOutOfRange);
  auto not_a_number = fx.index->Insert({std::nan(""), 0.5});
  EXPECT_EQ(not_a_number.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(fx.index->size(), 2u);
  // Rejected before any work: no cell computed, recomputed or indexed.
  const NNCellBuildStats& after = fx.index->build_stats();
  EXPECT_EQ(after.approx.lp_runs, before.approx.lp_runs);
  EXPECT_EQ(after.approx.lp_iterations, before.approx.lp_iterations);
  EXPECT_EQ(after.cells_recomputed, before.cells_recomputed);
  EXPECT_EQ(after.entries_inserted, before.entries_inserted);
}

struct StrategyCase {
  ApproxAlgorithm algorithm;
  bool use_xtree;
  size_t decomposition;
};

class NNCellStrategyTest : public ::testing::TestWithParam<StrategyCase> {};

// The headline correctness property (Lemma 2): for every strategy,
// decomposition setting and underlying tree, the NN-cell query returns the
// exact nearest neighbor.
TEST_P(NNCellStrategyTest, ExactNNOnUniformData) {
  const StrategyCase& c = GetParam();
  NNCellOptions opts;
  opts.algorithm = c.algorithm;
  opts.use_xtree = c.use_xtree;
  opts.decomposition.max_partitions = c.decomposition;
  for (size_t dim : {2u, 5u}) {
    IndexFixture fx(dim, opts);
    PointSet pts = GenerateUniform(120, dim, 42 + dim);
    ASSERT_TRUE(fx.index->BulkBuild(pts).ok());
    EXPECT_EQ(fx.index->ValidateTree(), "");
    PointSet queries = GenerateQueries(150, dim, 7);
    ExpectQueriesMatchBruteForce(fx, pts, queries);
  }
}

TEST_P(NNCellStrategyTest, ExactNNOnClusteredData) {
  const StrategyCase& c = GetParam();
  NNCellOptions opts;
  opts.algorithm = c.algorithm;
  opts.use_xtree = c.use_xtree;
  opts.decomposition.max_partitions = c.decomposition;
  IndexFixture fx(4, opts);
  PointSet pts = GenerateClusters(100, 4, 4, 0.05, 17);
  // Clustered generation can rarely duplicate; BulkBuild skips those.
  ASSERT_TRUE(fx.index->BulkBuild(pts).ok());
  PointSet queries = GenerateQueries(120, 4, 3);
  // Rebuild the oracle set from the actually inserted points.
  ExpectQueriesMatchBruteForce(fx, fx.index->points(), queries);
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, NNCellStrategyTest,
    ::testing::Values(
        StrategyCase{ApproxAlgorithm::kCorrect, true, 1},
        StrategyCase{ApproxAlgorithm::kCorrect, false, 1},
        StrategyCase{ApproxAlgorithm::kCorrect, true, 6},
        StrategyCase{ApproxAlgorithm::kPoint, true, 1},
        StrategyCase{ApproxAlgorithm::kPoint, true, 4},
        StrategyCase{ApproxAlgorithm::kSphere, true, 1},
        StrategyCase{ApproxAlgorithm::kSphere, false, 1},
        StrategyCase{ApproxAlgorithm::kSphere, true, 8},
        StrategyCase{ApproxAlgorithm::kNNDirection, true, 1},
        StrategyCase{ApproxAlgorithm::kNNDirection, true, 4}),
    [](const ::testing::TestParamInfo<StrategyCase>& info) {
      std::string name = ApproxAlgorithmName(info.param.algorithm);
      name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
      name += info.param.use_xtree ? "_X" : "_R";
      name += "_k" + std::to_string(info.param.decomposition);
      return name;
    });

TEST(NNCellIndexTest, GridDataIsPerfectlyApproximated) {
  // Fig. 2c/d: regular grid => MBRs == cells, exactly one candidate per
  // query, ExpectedCandidates == 1.
  NNCellOptions opts;
  opts.algorithm = ApproxAlgorithm::kCorrect;
  IndexFixture fx(2, opts);
  PointSet pts = GenerateGrid(4, 2, 0.0, 1);
  ASSERT_TRUE(fx.index->BulkBuild(pts).ok());
  EXPECT_NEAR(fx.index->ExpectedCandidates(), 1.0, 1e-6);
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    std::vector<double> q = {rng.NextDouble(), rng.NextDouble()};
    auto r = fx.index->Query(q);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->candidates, 1u);
    EXPECT_EQ(r->id, BruteForceNN(pts, q.data()));
  }
}

TEST(NNCellIndexTest, Lemma1OptimizedApproxContainsCorrect) {
  // Build the same data with Correct and with each optimized algorithm;
  // every optimized cell MBR must contain the correct one.
  PointSet pts = GenerateUniform(80, 4, 99);
  NNCellOptions correct_opts;
  correct_opts.algorithm = ApproxAlgorithm::kCorrect;
  IndexFixture correct_fx(4, correct_opts);
  ASSERT_TRUE(correct_fx.index->BulkBuild(pts).ok());

  for (ApproxAlgorithm alg : {ApproxAlgorithm::kPoint, ApproxAlgorithm::kSphere,
                              ApproxAlgorithm::kNNDirection}) {
    NNCellOptions opts;
    opts.algorithm = alg;
    IndexFixture fx(4, opts);
    ASSERT_TRUE(fx.index->BulkBuild(pts).ok());
    for (uint64_t id = 0; id < pts.size(); ++id) {
      const auto& correct = correct_fx.index->CellRects(id);
      const auto& optimized = fx.index->CellRects(id);
      ASSERT_EQ(correct.size(), 1u);
      ASSERT_EQ(optimized.size(), 1u);
      for (size_t k = 0; k < 4; ++k) {
        EXPECT_LE(optimized[0].lo(k), correct[0].lo(k) + 1e-7)
            << ApproxAlgorithmName(alg) << " cell " << id;
        EXPECT_GE(optimized[0].hi(k), correct[0].hi(k) - 1e-7)
            << ApproxAlgorithmName(alg) << " cell " << id;
      }
    }
    // Consequently the optimized index has at least as much overlap.
    EXPECT_GE(fx.index->ExpectedCandidates(),
              correct_fx.index->ExpectedCandidates() - 1e-6);
  }
}

TEST(NNCellIndexTest, DynamicInsertKeepsQueriesExact) {
  // Interleave inserts and queries; maintenance shrinks stale cells.
  NNCellOptions opts;
  opts.algorithm = ApproxAlgorithm::kSphere;
  IndexFixture fx(3, opts);
  PointSet pts = GenerateUniform(150, 3, 1234);
  PointSet inserted(3);
  Rng rng(4321);
  for (size_t i = 0; i < pts.size(); ++i) {
    ASSERT_TRUE(fx.index->Insert(pts.Get(i)).ok());
    inserted.Add(pts.Get(i));
    if (i % 10 == 9) {
      for (int t = 0; t < 5; ++t) {
        std::vector<double> q = {rng.NextDouble(), rng.NextDouble(),
                                 rng.NextDouble()};
        auto r = fx.index->Query(q);
        ASSERT_TRUE(r.ok());
        size_t expected = BruteForceNN(inserted, q.data());
        EXPECT_NEAR(r->dist, L2Dist(inserted[expected], q.data(), 3), 1e-9);
      }
    }
  }
  EXPECT_EQ(fx.index->ValidateTree(), "");
  EXPECT_GT(fx.index->build_stats().cells_recomputed, 0u);
}

TEST(NNCellIndexTest, MaintenanceModesAllCorrectButDifferQuality) {
  PointSet pts = GenerateUniform(120, 2, 5);
  PointSet queries = GenerateQueries(200, 2, 6);
  double overlap_none = 0.0, overlap_exact = 0.0;
  for (MaintenanceMode mode :
       {MaintenanceMode::kNone, MaintenanceMode::kSphere,
        MaintenanceMode::kExact}) {
    NNCellOptions opts;
    opts.algorithm = ApproxAlgorithm::kCorrect;
    opts.maintenance = mode;
    IndexFixture fx(2, opts);
    for (size_t i = 0; i < pts.size(); ++i) {
      ASSERT_TRUE(fx.index->Insert(pts.Get(i)).ok());  // dynamic path
    }
    ExpectQueriesMatchBruteForce(fx, pts, queries);
    if (mode == MaintenanceMode::kNone) {
      overlap_none = fx.index->ExpectedCandidates();
    }
    if (mode == MaintenanceMode::kExact) {
      overlap_exact = fx.index->ExpectedCandidates();
    }
  }
  // Without maintenance the stale cells overlap far more. With exact
  // maintenance the MBRs still overlap a bit (Voronoi polygons are not
  // boxes), but stay close to a tiling in 2-D.
  EXPECT_GT(overlap_none, overlap_exact);
  EXPECT_GE(overlap_exact, 1.0 - 1e-9);
  EXPECT_LT(overlap_exact, 2.5);
}

TEST(NNCellIndexTest, IncrementalExactMaintenanceEqualsStaticBuild) {
  // After an incremental build with exact maintenance and the Correct
  // algorithm, every cell MBR must equal the one a static build computes:
  // maintenance fully repairs the stale approximations.
  PointSet pts = GenerateUniform(60, 3, 77);
  NNCellOptions opts;
  opts.algorithm = ApproxAlgorithm::kCorrect;
  opts.maintenance = MaintenanceMode::kExact;
  IndexFixture incremental(3, opts);
  for (size_t i = 0; i < pts.size(); ++i) {
    ASSERT_TRUE(incremental.index->Insert(pts.Get(i)).ok());
  }

  IndexFixture statically(3, opts);
  ASSERT_TRUE(statically.index->BulkBuild(pts).ok());

  for (size_t i = 0; i < pts.size(); ++i) {
    const auto& a = incremental.index->CellRects(i);
    const auto& b = statically.index->CellRects(i);
    ASSERT_EQ(a.size(), 1u);
    ASSERT_EQ(b.size(), 1u);
    for (size_t k = 0; k < 3; ++k) {
      EXPECT_NEAR(a[0].lo(k), b[0].lo(k), 1e-7) << "cell " << i;
      EXPECT_NEAR(a[0].hi(k), b[0].hi(k), 1e-7) << "cell " << i;
    }
  }
}

TEST(NNCellIndexTest, CellsUnionCoversSpace) {
  // The approximations must cover the whole data space (they are supersets
  // of the NN-cells, which tile it).
  NNCellOptions opts;
  opts.algorithm = ApproxAlgorithm::kNNDirection;
  IndexFixture fx(2, opts);
  PointSet pts = GenerateUniform(50, 2, 31);
  ASSERT_TRUE(fx.index->BulkBuild(pts).ok());
  Rng rng(32);
  for (int t = 0; t < 500; ++t) {
    std::vector<double> q = {rng.NextDouble(), rng.NextDouble()};
    bool covered = false;
    for (uint64_t id = 0; id < pts.size() && !covered; ++id) {
      for (const auto& rect : fx.index->CellRects(id)) {
        if (rect.ContainsPoint(q)) {
          covered = true;
          break;
        }
      }
    }
    EXPECT_TRUE(covered);
  }
}

TEST(NNCellIndexTest, QueryPointQueryUsesFewPages) {
  // The paper's claim: a NN query on the NN-cell index is a point query
  // costing O(height + candidates) pages, not a full NN traversal.
  NNCellOptions opts;
  opts.algorithm = ApproxAlgorithm::kSphere;
  IndexFixture fx(4, opts, /*page_size=*/2048, /*pool_pages=*/65536);
  PointSet pts = GenerateUniform(800, 4, 8);
  ASSERT_TRUE(fx.index->BulkBuild(pts).ok());
  auto info = fx.index->TreeInfo();
  fx.pool.DropCache();
  fx.pool.ResetStats();
  auto r = fx.index->Query({0.4, 0.6, 0.3, 0.8});
  ASSERT_TRUE(r.ok());
  EXPECT_LT(fx.pool.stats().physical_reads, info.total_pages / 2);
}

TEST(NNCellIndexTest, FourierDataExactness) {
  NNCellOptions opts;
  opts.algorithm = ApproxAlgorithm::kNNDirection;
  IndexFixture fx(6, opts);
  PointSet pts = GenerateFourier(150, 6, 55);
  ASSERT_TRUE(fx.index->BulkBuild(pts).ok());
  PointSet queries = GenerateQueries(100, 6, 56);
  ExpectQueriesMatchBruteForce(fx, fx.index->points(), queries);
}

TEST(NNCellIndexTest, SparseWorstCaseStillExact) {
  NNCellOptions opts;
  opts.algorithm = ApproxAlgorithm::kCorrect;
  IndexFixture fx(8, opts);
  PointSet pts = GenerateSparse(12, 8, 21);
  ASSERT_TRUE(fx.index->BulkBuild(pts).ok());
  // Sparse high-d: approximations nearly cover the space -> candidates
  // approach N, but results stay exact (Fig. 2e/f discussion).
  EXPECT_GT(fx.index->ExpectedCandidates(), 2.0);
  PointSet queries = GenerateQueries(80, 8, 22);
  ExpectQueriesMatchBruteForce(fx, pts, queries);
}

TEST(NNCellIndexTest, DecompositionReducesOverlap) {
  // Fig. 13: decomposed approximations overlap less than exact one-piece
  // approximations on irregular data.
  PointSet pts = GenerateClusters(80, 6, 3, 0.08, 13);
  NNCellOptions exact;
  exact.algorithm = ApproxAlgorithm::kCorrect;
  IndexFixture fx_exact(6, exact);
  ASSERT_TRUE(fx_exact.index->BulkBuild(pts).ok());

  NNCellOptions decomposed = exact;
  decomposed.decomposition.max_partitions = 8;
  decomposed.decomposition.max_split_dims = 3;
  IndexFixture fx_dec(6, decomposed);
  ASSERT_TRUE(fx_dec.index->BulkBuild(pts).ok());

  EXPECT_LT(fx_dec.index->ExpectedCandidates(),
            fx_exact.index->ExpectedCandidates());
  // And stays exact.
  PointSet queries = GenerateQueries(80, 6, 14);
  ExpectQueriesMatchBruteForce(fx_dec, fx_dec.index->points(), queries);
}

TEST(NNCellIndexTest, QueriesAtDataPointsReturnThemselves) {
  NNCellOptions opts;
  IndexFixture fx(3, opts);
  PointSet pts = GenerateUniform(60, 3, 61);
  ASSERT_TRUE(fx.index->BulkBuild(pts).ok());
  for (size_t i = 0; i < pts.size(); ++i) {
    auto r = fx.index->Query(pts[i]);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->id, i);
    EXPECT_NEAR(r->dist, 0.0, 1e-12);
  }
}

TEST(NNCellIndexTest, CheckInvariantsOnEveryLifecyclePhase) {
  NNCellOptions opts;
  opts.algorithm = ApproxAlgorithm::kSphere;
  IndexFixture fx(3, opts);
  // Empty index: trivially consistent.
  ASSERT_TRUE(fx.index->CheckInvariants(10).ok());
  // Static build.
  PointSet pts = GenerateUniform(80, 3, 123);
  ASSERT_TRUE(fx.index->BulkBuild(pts).ok());
  ASSERT_TRUE(fx.index->CheckInvariants(50).ok());
  // Dynamic inserts.
  Rng rng(456);
  for (int i = 0; i < 15; ++i) {
    std::vector<double> p = {rng.NextDouble(), rng.NextDouble(),
                             rng.NextDouble()};
    ASSERT_TRUE(fx.index->Insert(p).ok());
  }
  ASSERT_TRUE(fx.index->CheckInvariants(50).ok());
  // Deletions.
  for (uint64_t id = 0; id < 20; id += 2) {
    ASSERT_TRUE(fx.index->Delete(id).ok());
  }
  Status st = fx.index->CheckInvariants(50);
  ASSERT_TRUE(st.ok()) << st.ToString();
}

TEST(NNCellIndexTest, CheckInvariantsWithDecompositionAndWeights) {
  NNCellOptions opts;
  opts.algorithm = ApproxAlgorithm::kCorrect;
  opts.decomposition.max_partitions = 6;
  opts.weights = {2.0, 0.5, 1.0, 3.0};
  IndexFixture fx(4, opts);
  ASSERT_TRUE(fx.index->BulkBuild(GenerateUniform(60, 4, 321)).ok());
  Status st = fx.index->CheckInvariants(50);
  ASSERT_TRUE(st.ok()) << st.ToString();
}

TEST(NNCellIndexTest, BuildStatsArepopulated) {
  NNCellOptions opts;
  opts.algorithm = ApproxAlgorithm::kCorrect;
  IndexFixture fx(3, opts);
  PointSet pts = GenerateUniform(40, 3, 91);
  ASSERT_TRUE(fx.index->BulkBuild(pts).ok());
  const auto& stats = fx.index->build_stats();
  // 2d LPs per computed cell, at least one per point.
  EXPECT_GE(stats.approx.lp_runs, 2 * 3 * pts.size());
  EXPECT_GT(stats.approx.lp_iterations, stats.approx.lp_runs);
  EXPECT_GE(stats.entries_inserted, pts.size());
  EXPECT_EQ(stats.approx.lp_failures, 0u);
}

}  // namespace
}  // namespace nncell
