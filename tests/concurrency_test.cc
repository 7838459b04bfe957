// Concurrency suite: the thread pool itself, the determinism contract of
// the parallel build (serial and 8-thread builds must produce the same
// bytes), and reader-parallel query traffic over a shared buffer pool.
// Run under the `tsan` preset this is the data-race detector's workload;
// under the plain presets it is a functional regression test.

#include <atomic>
#include <barrier>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "data/generators.h"
#include "nncell/nncell_index.h"
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
