// Concurrency suite: the thread pool itself, the determinism contract of
// the parallel build and of parallel cell maintenance (serial and
// multi-threaded runs must produce the same bytes), and reader-parallel
// query traffic over a shared buffer pool.
// Run under the `tsan` preset this is the data-race detector's workload;
// under the plain presets it is a functional regression test.

#include <atomic>
#include <barrier>
#include <cstdint>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "data/generators.h"
#include "nncell/nncell_index.h"
#include "shard/sharded_index.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"

namespace nncell {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool unit tests

TEST(ThreadPoolTest, DefaultThreadsIsPositive) {
  EXPECT_GE(ThreadPool::DefaultThreads(), 1u);
}

TEST(ThreadPoolTest, DrainsEverySubmittedTaskBeforeJoining) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    EXPECT_EQ(pool.num_threads(), 4u);
    for (int i = 0; i < 500; ++i) {
      pool.Submit(
          [&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
    }
    // The destructor drains all queued work before joining the workers.
  }
  EXPECT_EQ(counter.load(), 500);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h.store(0);
  pool.ParallelFor(0, kN, [&](size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForHandlesEmptyAndTinyRanges) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  pool.ParallelFor(5, 5, [&](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 0);
  pool.ParallelFor(7, 9, [&](size_t i) {
    EXPECT_TRUE(i == 7 || i == 8);
    count.fetch_add(1);
  });
  EXPECT_EQ(count.load(), 2);
}

TEST(ThreadPoolTest, ParallelForFromConcurrentExternalThreads) {
  // The documented contract: ParallelFor may be called from any number of
  // external (non-pool) threads at once. Each caller must see exactly its
  // own range completed before ParallelFor returns.
  ThreadPool pool(4);
  constexpr size_t kCallers = 6;
  constexpr size_t kN = 2000;
  std::vector<std::vector<std::atomic<int>>> hits(kCallers);
  for (auto& v : hits) {
    std::vector<std::atomic<int>> fresh(kN);
    for (auto& h : fresh) h.store(0);
    v.swap(fresh);
  }
  std::vector<std::thread> callers;
  for (size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      pool.ParallelFor(0, kN, [&, c](size_t i) {
        hits[c][i].fetch_add(1, std::memory_order_relaxed);
      });
      for (size_t i = 0; i < kN; ++i) {
        ASSERT_EQ(hits[c][i].load(), 1) << "caller " << c << " index " << i;
      }
    });
  }
  for (auto& t : callers) t.join();
}

TEST(ThreadPoolTest, NestedParallelForRunsInline) {
  // A task running on the pool may call ParallelFor on the same pool: the
  // nested range runs inline on the calling worker instead of waiting for
  // workers that are all busy in the outer call.
  ThreadPool pool(4);
  constexpr size_t kOuter = 16;
  constexpr size_t kInner = 500;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  for (auto& h : hits) h.store(0);
  pool.ParallelFor(0, kOuter, [&](size_t o) {
    pool.ParallelFor(0, kInner, [&](size_t i) {
      hits[o * kInner + i].fetch_add(1, std::memory_order_relaxed);
    });
  });
  for (size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

// ---------------------------------------------------------------------------
// Build determinism: the tentpole contract. A parallel build fans the
// per-point LP solves across workers but commits results in point order,
// so the persisted image must be byte-identical to a serial build.

std::string BuildAndSerialize(const PointSet& pts, size_t num_threads,
                              bool use_xtree, size_t max_partitions) {
  PageFile file(2048);
  BufferPool pool(&file, 512);
  NNCellOptions options;
  options.algorithm = ApproxAlgorithm::kSphere;
  options.use_xtree = use_xtree;
  options.decomposition.max_partitions = max_partitions;
  options.parallel.num_threads = num_threads;
  NNCellIndex index(&pool, pts.dim(), options);
  Status built = index.BulkBuild(pts);
  EXPECT_TRUE(built.ok()) << built.ToString();
  std::ostringstream out;
  Status saved = index.Save(out);
  EXPECT_TRUE(saved.ok()) << saved.ToString();
  return out.str();
}

TEST(BuildDeterminismTest, ParallelBuildIsByteIdenticalToSerial) {
  PointSet pts = GenerateUniform(300, 8, 42);
  const std::string serial = BuildAndSerialize(pts, 1, true, 1);
  for (size_t threads : {2u, 8u}) {
    const std::string parallel = BuildAndSerialize(pts, threads, true, 1);
    EXPECT_EQ(serial, parallel) << threads << "-thread build diverged";
  }
}

TEST(BuildDeterminismTest, HoldsForRStarAndDecomposedVariants) {
  PointSet pts = GenerateUniform(200, 6, 77);
  // R*-tree backend (no supernodes) and Section-3 decomposition both go
  // through the same phase-2 fan-out; neither may perturb the image.
  EXPECT_EQ(BuildAndSerialize(pts, 1, false, 1),
            BuildAndSerialize(pts, 8, false, 1));
  EXPECT_EQ(BuildAndSerialize(pts, 1, true, 4),
            BuildAndSerialize(pts, 8, true, 4));
}

TEST(BuildDeterminismTest, LpHotPathOptimizationsAreThreadCountInvariant) {
  // The optimized LP pipeline (ray-shoot warm starts) keeps all of its
  // state per cell, so it must not perturb the byte-identity contract; the
  // cold configuration is pinned alongside it so a regression is
  // attributable to one pipeline. kCorrect at d = 16
  // maximizes both the skipped-face rate and the constraint-row count.
  PointSet pts = GenerateUniform(160, 16, 29);
  for (bool optimized : {true, false}) {
    NNCellOptions options;
    options.algorithm = ApproxAlgorithm::kCorrect;
    options.approx.warm_start = optimized;
    std::string serial;
    for (size_t threads : {1u, 2u, 8u}) {
      PageFile f(2048);
      BufferPool p(&f, 512);
      options.parallel.num_threads = threads;
      NNCellIndex index(&p, pts.dim(), options);
      Status built = index.BulkBuild(pts);
      ASSERT_TRUE(built.ok()) << built.ToString();
      std::ostringstream out;
      Status saved = index.Save(out);
      ASSERT_TRUE(saved.ok()) << saved.ToString();
      if (threads == 1) {
        serial = out.str();
      } else {
        EXPECT_EQ(serial, out.str())
            << threads << "-thread " << (optimized ? "optimized" : "cold")
            << " build diverged";
      }
    }
  }
}

TEST(BuildDeterminismTest, HoldsInSupernodeDimensionality) {
  // d = 16 drives the X-tree into supernode territory (high-dimensional
  // MBR overlap), covering multi-page nodes in the parallel build.
  PointSet pts = GenerateUniform(220, 16, 3);
  EXPECT_EQ(BuildAndSerialize(pts, 1, true, 1),
            BuildAndSerialize(pts, 8, true, 1));
}

// ---------------------------------------------------------------------------
// Reader-parallel query traffic

struct SharedIndex {
  std::unique_ptr<PageFile> file;
  std::unique_ptr<BufferPool> pool;
  std::unique_ptr<NNCellIndex> index;
};

SharedIndex MakeSharedIndex(size_t n, size_t dim, size_t pool_capacity) {
  SharedIndex s;
  s.file = std::make_unique<PageFile>(2048);
  // A deliberately small pool forces eviction pressure: concurrent readers
  // continually fault pages in and out of the shared shards.
  s.pool = std::make_unique<BufferPool>(s.file.get(), pool_capacity);
  NNCellOptions options;
  options.algorithm = ApproxAlgorithm::kSphere;
  s.index = std::make_unique<NNCellIndex>(s.pool.get(), dim, options);
  PointSet pts = GenerateUniform(n, dim, 11);
  Status built = s.index->BulkBuild(pts);
  EXPECT_TRUE(built.ok()) << built.ToString();
  return s;
}

TEST(ConcurrencyTest, ConcurrentReadersAgreeWithSerialAnswers) {
  SharedIndex s = MakeSharedIndex(400, 8, 96);
  constexpr size_t kThreads = 8;
  constexpr size_t kRounds = 5;
  constexpr size_t kQueriesPerRound = 10;

  PointSet queries =
      GenerateQueries(kThreads * kRounds * kQueriesPerRound, 8, 21);
  // Serial ground truth, computed up front.
  std::vector<uint64_t> want_id(queries.size());
  std::vector<double> want_dist(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    auto r = s.index->Query(queries[i]);
    ASSERT_TRUE(r.ok());
    want_id[i] = r->id;
    want_dist[i] = r->dist;
  }

  // All threads sit between rounds when the barrier completion step runs,
  // so no page guard is live: the strict no-pin-leak audit must pass at
  // every round boundary, not just at the end.
  std::atomic<int> audit_failures{0};
  std::barrier round_barrier(
      static_cast<std::ptrdiff_t>(kThreads), [&]() noexcept {
        if (!s.pool->AuditPins().ok()) audit_failures.fetch_add(1);
      });

  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (size_t t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      for (size_t round = 0; round < kRounds; ++round) {
        for (size_t k = 0; k < kQueriesPerRound; ++k) {
          size_t i = (round * kThreads + t) * kQueriesPerRound + k;
          auto r = s.index->Query(queries[i]);
          if (!r.ok() || r->id != want_id[i] || r->dist != want_dist[i]) {
            mismatches.fetch_add(1);
          }
        }
        round_barrier.arrive_and_wait();
      }
    });
  }
  for (auto& t : readers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(audit_failures.load(), 0);
  Status audit = s.pool->AuditPins();
  EXPECT_TRUE(audit.ok()) << audit.ToString();
}

TEST(ConcurrencyTest, ConcurrentKnnAndRangeReaders) {
  // Mixed read traffic: NN point queries, k-NN (branch-and-bound) and
  // range search all traverse the tree concurrently through VisitNode.
  SharedIndex s = MakeSharedIndex(300, 6, 64);
  PointSet queries = GenerateQueries(24, 6, 33);
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (size_t t = 0; t < 6; ++t) {
    readers.emplace_back([&, t] {
      for (size_t i = 0; i < queries.size(); ++i) {
        const double* q = queries[i];
        switch ((t + i) % 3) {
          case 0: {
            if (!s.index->Query(q).ok()) failures.fetch_add(1);
            break;
          }
          case 1: {
            auto r = s.index->KnnQuery(q, 5);
            if (!r.ok() || r->size() != 5) failures.fetch_add(1);
            break;
          }
          default: {
            if (!s.index->RangeSearch(q, 0.3).ok()) failures.fetch_add(1);
            break;
          }
        }
      }
    });
  }
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
  Status audit = s.pool->AuditPins();
  EXPECT_TRUE(audit.ok()) << audit.ToString();
}

TEST(ConcurrencyTest, QueryBatchMatchesSerialUnderSharedPool) {
  SharedIndex s = MakeSharedIndex(350, 8, 96);
  s.index->SetNumThreads(8);
  PointSet queries = GenerateQueries(120, 8, 55);
  auto batch = s.index->QueryBatch(queries);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->size(), queries.size());
  s.index->SetNumThreads(1);
  for (size_t i = 0; i < queries.size(); ++i) {
    auto serial = s.index->Query(queries[i]);
    ASSERT_TRUE(serial.ok());
    EXPECT_EQ((*batch)[i].id, serial->id);
    EXPECT_EQ((*batch)[i].dist, serial->dist);
  }
  Status audit = s.pool->AuditPins();
  EXPECT_TRUE(audit.ok()) << audit.ToString();
}

TEST(ConcurrencyTest, ConcurrentQueryBatchCallers) {
  // QueryBatch itself is documented as callable from several threads at
  // once: external callers share one ThreadPool's ParallelFor.
  SharedIndex s = MakeSharedIndex(300, 8, 96);
  s.index->SetNumThreads(4);
  PointSet queries = GenerateQueries(60, 8, 91);
  auto want = s.index->QueryBatch(queries);
  ASSERT_TRUE(want.ok());

  std::atomic<int> mismatches{0};
  std::vector<std::thread> callers;
  for (size_t c = 0; c < 4; ++c) {
    callers.emplace_back([&] {
      auto got = s.index->QueryBatch(queries);
      if (!got.ok() || got->size() != want->size()) {
        mismatches.fetch_add(1);
        return;
      }
      for (size_t i = 0; i < got->size(); ++i) {
        if ((*got)[i].id != (*want)[i].id ||
            (*got)[i].dist != (*want)[i].dist) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  Status audit = s.pool->AuditPins();
  EXPECT_TRUE(audit.ok()) << audit.ToString();
}

TEST(ConcurrencyTest, SupernodeReadersInHighDimensions) {
  // d = 16 exercises supernode assembly (multi-page nodes through the
  // thread-local scratch buffer) under concurrent eviction pressure.
  SharedIndex s = MakeSharedIndex(220, 16, 64);
  PointSet queries = GenerateQueries(16, 16, 13);
  std::vector<uint64_t> want(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    auto r = s.index->Query(queries[i]);
    ASSERT_TRUE(r.ok());
    want[i] = r->id;
  }
  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (size_t t = 0; t < 8; ++t) {
    readers.emplace_back([&] {
      for (size_t i = 0; i < queries.size(); ++i) {
        auto r = s.index->Query(queries[i]);
        if (!r.ok() || r->id != want[i]) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& t : readers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  Status audit = s.pool->AuditPins();
  EXPECT_TRUE(audit.ok()) << audit.ToString();
}

// ---------------------------------------------------------------------------
// Maintenance determinism: Insert and Delete recompute the affected cells
// on the thread pool and commit them serially in id order, rewriting only
// the cells whose rectangles changed. The image must not depend on the
// thread count, and the rectangles and LP effort must equal those of the
// one-cell-at-a-time maintenance this replaced.

struct MaintenanceVariant {
  const char* name;
  ApproxAlgorithm algorithm;
  size_t max_partitions;
};

struct MaintenanceOutcome {
  std::string image;        // Save() bytes
  uint64_t rect_hash = 0;   // FNV-1a over every live cell's rectangles
  size_t lp_iterations = 0;
  size_t cells_recomputed = 0;
  size_t entries_written = 0;  // tree entries inserted by the sequence
};

NNCellOptions MaintenanceOptions(const MaintenanceVariant& v,
                                 size_t num_threads) {
  NNCellOptions options;
  options.algorithm = v.algorithm;
  options.decomposition.max_partitions = v.max_partitions;
  options.parallel.num_threads = num_threads;
  return options;
}

// The fixed sequence: 12 inserts, with a delete of a bulk-built point
// after every second one. Calls `insert(point)` / `del(id)`.
template <typename InsertFn, typename DeleteFn>
void RunMaintenanceSequence(const PointSet& extra, InsertFn insert,
                            DeleteFn del) {
  for (size_t i = 0; i < extra.size(); ++i) {
    insert(extra.Get(i));
    if (i % 2 == 1) del(static_cast<uint64_t>((i * 37) % 300));
  }
}

uint64_t HashCellRects(const NNCellIndex& index) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](const void* data, size_t n) {
    const auto* b = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 0x100000001b3ULL;
    }
  };
  for (uint64_t id = 0; id < index.points().size(); ++id) {
    if (!index.IsAlive(id)) continue;
    const std::vector<HyperRect>& rects = index.CellRects(id);
    const uint64_t count = rects.size();
    mix(&id, sizeof(id));
    mix(&count, sizeof(count));
    for (const HyperRect& r : rects) {
      mix(r.lo().data(), r.lo().size() * sizeof(double));
      mix(r.hi().data(), r.hi().size() * sizeof(double));
    }
  }
  return h;
}

MaintenanceOutcome RunMaintenance(const MaintenanceVariant& v,
                                  size_t num_threads) {
  PointSet pts = GenerateUniform(300, 4, 17);
  PointSet extra = GenerateUniform(12, 4, 18);
  PageFile file(2048);
  BufferPool pool(&file, 512);
  NNCellIndex index(&pool, 4, MaintenanceOptions(v, num_threads));
  Status built = index.BulkBuild(pts);
  EXPECT_TRUE(built.ok()) << built.ToString();
  const size_t entries_before = index.build_stats().entries_inserted;
  RunMaintenanceSequence(
      extra,
      [&](const std::vector<double>& p) {
        EXPECT_TRUE(index.Insert(p).ok());
      },
      [&](uint64_t id) { EXPECT_TRUE(index.Delete(id).ok()); });
  Status inv = index.CheckInvariants(50);
  EXPECT_TRUE(inv.ok()) << inv.ToString();

  MaintenanceOutcome out;
  std::ostringstream image;
  Status saved = index.Save(image);
  EXPECT_TRUE(saved.ok()) << saved.ToString();
  out.image = image.str();
  out.rect_hash = HashCellRects(index);
  out.lp_iterations = index.build_stats().approx.lp_iterations;
  out.cells_recomputed = index.build_stats().cells_recomputed;
  out.entries_written = index.build_stats().entries_inserted - entries_before;
  return out;
}

struct PinnedMaintenance {
  MaintenanceVariant variant;
  uint64_t rect_hash;
  size_t lp_iterations;
  size_t cells_recomputed;
};

// Pinned by running this sequence on the one-cell-at-a-time maintenance
// (delete, recompute and reinsert every affected cell serially) that the
// batch step replaced, before the change: the affected sets, the
// rectangles and the LP effort must not move.
const PinnedMaintenance kPinnedMaintenance[] = {
    {{"Sphere", ApproxAlgorithm::kSphere, 1}, 0xac8595f98c9d1eacULL, 65003,
     1790},
    {{"Correct", ApproxAlgorithm::kCorrect, 1}, 0x20028fb8e72a02a6ULL, 63810,
     1738},
    {{"SphereDecomposed", ApproxAlgorithm::kSphere, 4}, 0xdecd7f2ca5128f30ULL,
     590360, 1369},
};

TEST(MaintenanceDeterminismTest, ParallelMatchesSerialAndPinnedValues) {
  for (const PinnedMaintenance& pin : kPinnedMaintenance) {
    SCOPED_TRACE(pin.variant.name);
    const MaintenanceOutcome serial = RunMaintenance(pin.variant, 1);
    const MaintenanceOutcome parallel = RunMaintenance(pin.variant, 4);
    EXPECT_EQ(serial.image, parallel.image);
    EXPECT_EQ(serial.entries_written, parallel.entries_written);
    for (const MaintenanceOutcome* out : {&serial, &parallel}) {
      EXPECT_EQ(out->rect_hash, pin.rect_hash) << std::hex << out->rect_hash;
      EXPECT_EQ(out->lp_iterations, pin.lp_iterations);
      EXPECT_EQ(out->cells_recomputed, pin.cells_recomputed);
    }
    // Most recomputes give back the old rectangles, and those cells are
    // not rewritten. Rewriting every recomputed cell (max_partitions
    // entries each in this sequence) wrote more entries than this bound,
    // new cells included; skipping the unchanged ones writes fewer.
    EXPECT_LT(parallel.entries_written,
              parallel.cells_recomputed * pin.variant.max_partitions);
  }
}

TEST(MaintenanceDeterminismTest, ShardedWritesAreThreadCountInvariant) {
  // Shards run their maintenance on the router's pool; the answers and
  // candidate counts must not depend on its size.
  PointSet pts = GenerateUniform(300, 4, 17);
  PointSet extra = GenerateUniform(12, 4, 18);
  PointSet queries = GenerateQueries(64, 4, 19);
  const MaintenanceVariant v = kPinnedMaintenance[0].variant;
  std::vector<std::vector<NNCellIndex::QueryResult>> answers;
  for (size_t threads : {4u, 1u}) {
    SCOPED_TRACE(threads);
    ShardedOptions sopts;
    sopts.num_shards = 2;
    auto sharded = ShardedIndex::Create(4, MaintenanceOptions(v, 1), sopts);
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
    ShardedIndex& index = **sharded;
    index.SetNumThreads(threads);
    ASSERT_TRUE(index.BulkBuild(pts).ok());
    RunMaintenanceSequence(
        extra,
        [&](const std::vector<double>& p) {
          EXPECT_TRUE(index.Insert(p).ok());
        },
        [&](uint64_t id) { EXPECT_TRUE(index.Delete(id).ok()); });
    Status inv = index.CheckInvariants(50);
    EXPECT_TRUE(inv.ok()) << inv.ToString();
    std::vector<NNCellIndex::QueryResult> got;
    for (size_t i = 0; i < queries.size(); ++i) {
      auto r = index.Query(queries[i]);
      ASSERT_TRUE(r.ok());
      got.push_back(std::move(*r));
    }
    answers.push_back(std::move(got));
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(answers[0][i].id, answers[1][i].id) << "query " << i;
    EXPECT_EQ(answers[0][i].dist, answers[1][i].dist) << "query " << i;
    EXPECT_EQ(answers[0][i].candidates, answers[1][i].candidates)
        << "query " << i;
  }
}

TEST(ConcurrencyTest, ShardedPoolKeepsCapacityBudget) {
  PageFile file(2048);
  BufferPool pool(&file, 256);
  EXPECT_GE(pool.num_shards(), 2u);  // capacity 256 shards the pool
  // Small pools must stay single-shard so the classic LRU semantics the
  // storage tests assert are preserved exactly.
  BufferPool tiny(&file, 8);
  EXPECT_EQ(tiny.num_shards(), 1u);
}

}  // namespace
}  // namespace nncell
