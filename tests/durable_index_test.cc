// Durable-mode index tests: NNCellIndex::Open / Checkpoint round trips,
// WAL replay after unclean shutdown, recovery bookkeeping, and differential
// equivalence against an in-memory oracle.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/generators.h"
#include "nncell/nncell_index.h"
#include "storage/buffer_pool.h"
#include "storage/fs_util.h"
#include "storage/page_file.h"

namespace nncell {
namespace {

NNCellOptions SmallOptions() {
  NNCellOptions opts;
  opts.algorithm = ApproxAlgorithm::kSphere;
  return opts;
}

NNCellIndex::DurableOptions SmallDurable() {
  NNCellIndex::DurableOptions d;
  d.page_size = 1024;
  d.pool_pages = 512;
  return d;
}

std::vector<double> Vec(const PointSet& pts, size_t i) {
  return {pts[i], pts[i] + pts.dim()};
}

class DurableIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "durable_index_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  StatusOr<std::unique_ptr<NNCellIndex>> Open(
      size_t dim, NNCellIndex::RecoveryInfo* info = nullptr) {
    return NNCellIndex::Open(dir_, dim, SmallOptions(), SmallDurable(), info);
  }

  std::string dir_;
};

// Two indexes agree when they hold the same live points and answer a
// deterministic query battery identically.
void ExpectEquivalent(const NNCellIndex& a, const NNCellIndex& b,
                      size_t n_queries = 60) {
  ASSERT_EQ(a.dim(), b.dim());
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.points().size(), b.points().size());
  for (uint64_t id = 0; id < a.points().size(); ++id) {
    ASSERT_EQ(a.IsAlive(id), b.IsAlive(id)) << "id " << id;
    if (a.IsAlive(id)) {
      for (size_t k = 0; k < a.dim(); ++k) {
        ASSERT_DOUBLE_EQ(a.points()[id][k], b.points()[id][k])
            << "id " << id << " dim " << k;
      }
    }
  }
  if (a.size() == 0) return;
  PointSet queries = GenerateQueries(n_queries, a.dim(), 99);
  for (size_t t = 0; t < queries.size(); ++t) {
    auto ra = a.Query(queries[t]);
    auto rb = b.Query(queries[t]);
    ASSERT_TRUE(ra.ok() && rb.ok());
    ASSERT_EQ(ra->id, rb->id) << "query " << t;
    ASSERT_DOUBLE_EQ(ra->dist, rb->dist) << "query " << t;
  }
}

TEST_F(DurableIndexTest, CreateInsertReopenRecovers) {
  PointSet pts = GenerateUniform(30, 3, 11);
  {
    NNCellIndex::RecoveryInfo info;
    auto idx = Open(3, &info);
    ASSERT_TRUE(idx.ok()) << idx.status().ToString();
    EXPECT_TRUE(info.created);
    EXPECT_FALSE(info.snapshot_loaded);
    EXPECT_TRUE((*idx)->durable());
    for (size_t i = 0; i < pts.size(); ++i) {
      auto id = (*idx)->Insert(Vec(pts, i));
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      EXPECT_EQ(*id, i);
    }
    ASSERT_TRUE((*idx)->Delete(4).ok());
    ASSERT_TRUE((*idx)->Delete(17).ok());
    // No Checkpoint, no clean shutdown: recovery must come from the WAL.
  }
  NNCellIndex::RecoveryInfo info;
  auto reopened = Open(3, &info);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_FALSE(info.created);
  EXPECT_FALSE(info.snapshot_loaded);  // never checkpointed
  EXPECT_EQ(info.wal_records_replayed, 32u);
  EXPECT_EQ(info.wal_records_skipped, 0u);
  EXPECT_EQ((*reopened)->size(), 28u);
  EXPECT_FALSE((*reopened)->IsAlive(4));
  EXPECT_TRUE((*reopened)->IsAlive(5));
  EXPECT_EQ((*reopened)->ValidateTree(), "");

  // Differential check against an in-memory oracle built the same way.
  PageFile file(1024);
  BufferPool pool(&file, 512);
  NNCellIndex oracle(&pool, 3, SmallOptions());
  for (size_t i = 0; i < pts.size(); ++i) {
    ASSERT_TRUE(oracle.Insert(Vec(pts, i)).ok());
  }
  ASSERT_TRUE(oracle.Delete(4).ok());
  ASSERT_TRUE(oracle.Delete(17).ok());
  ExpectEquivalent(**reopened, oracle);
}

TEST_F(DurableIndexTest, CheckpointFoldsWalIntoSnapshot) {
  PointSet pts = GenerateUniform(25, 2, 21);
  {
    auto idx = Open(2);
    ASSERT_TRUE(idx.ok());
    for (size_t i = 0; i < pts.size(); ++i) {
      ASSERT_TRUE((*idx)->Insert(Vec(pts, i)).ok());
    }
    ASSERT_TRUE((*idx)->Checkpoint().ok());
  }
  NNCellIndex::RecoveryInfo info;
  auto reopened = Open(2, &info);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_TRUE(info.snapshot_loaded);
  EXPECT_EQ(info.snapshot_wal_lsn, 25u);
  EXPECT_EQ(info.wal_records_replayed, 0u);  // log was truncated
  EXPECT_EQ((*reopened)->size(), 25u);
}

TEST_F(DurableIndexTest, SnapshotPlusWalTail) {
  PointSet pts = GenerateUniform(30, 3, 31);
  {
    auto idx = Open(3);
    ASSERT_TRUE(idx.ok());
    for (size_t i = 0; i < 20; ++i) {
      ASSERT_TRUE((*idx)->Insert(Vec(pts, i)).ok());
    }
    ASSERT_TRUE((*idx)->Checkpoint().ok());
    // Tail after the checkpoint: recovered from the WAL only.
    for (size_t i = 20; i < 30; ++i) {
      ASSERT_TRUE((*idx)->Insert(Vec(pts, i)).ok());
    }
    ASSERT_TRUE((*idx)->Delete(2).ok());
  }
  NNCellIndex::RecoveryInfo info;
  auto reopened = Open(3, &info);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_TRUE(info.snapshot_loaded);
  EXPECT_EQ(info.snapshot_wal_lsn, 20u);
  EXPECT_EQ(info.wal_records_replayed, 11u);
  EXPECT_EQ((*reopened)->size(), 29u);
  ASSERT_TRUE((*reopened)->CheckInvariants(50).ok());

  PageFile file(1024);
  BufferPool pool(&file, 512);
  NNCellIndex oracle(&pool, 3, SmallOptions());
  for (size_t i = 0; i < 30; ++i) {
    ASSERT_TRUE(oracle.Insert(Vec(pts, i)).ok());
  }
  ASSERT_TRUE(oracle.Delete(2).ok());
  ExpectEquivalent(**reopened, oracle);
}

TEST_F(DurableIndexTest, BulkBuildCheckpointsAutomatically) {
  PointSet pts = GenerateUniform(40, 2, 41);
  {
    auto idx = Open(2);
    ASSERT_TRUE(idx.ok());
    ASSERT_TRUE((*idx)->BulkBuild(pts).ok());
  }
  NNCellIndex::RecoveryInfo info;
  auto reopened = Open(2, &info);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  // A durable BulkBuild writes a snapshot, not 40 insert records.
  EXPECT_TRUE(info.snapshot_loaded);
  EXPECT_EQ(info.wal_records_replayed, 0u);
  EXPECT_EQ((*reopened)->size(), 40u);
}

TEST_F(DurableIndexTest, RejectedOperationsLeaveNoWalRecord) {
  {
    auto idx = Open(2);
    ASSERT_TRUE(idx.ok());
    ASSERT_TRUE((*idx)->Insert({0.5, 0.5}).ok());
    // Each of these must fail without logging anything.
    EXPECT_FALSE((*idx)->Insert({0.5, 0.5}).ok());       // duplicate
    EXPECT_FALSE((*idx)->Insert({0.5, 0.5, 0.5}).ok());  // dim mismatch
    EXPECT_FALSE((*idx)->Insert({1.5, 0.5}).ok());       // outside space
    EXPECT_FALSE((*idx)->Insert({std::nan(""), 0.5}).ok());  // NaN
    EXPECT_FALSE((*idx)->Delete(123).ok());              // no such id
  }
  NNCellIndex::RecoveryInfo info;
  auto reopened = Open(2, &info);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(info.wal_records_replayed, 1u);
  EXPECT_EQ((*reopened)->size(), 1u);
}

TEST_F(DurableIndexTest, DimensionMismatchRejected) {
  {
    auto idx = Open(3);
    ASSERT_TRUE(idx.ok());
    ASSERT_TRUE((*idx)->Insert({0.1, 0.2, 0.3}).ok());
    ASSERT_TRUE((*idx)->Checkpoint().ok());
  }
  auto wrong = Open(5);
  ASSERT_FALSE(wrong.ok());
  EXPECT_NE(wrong.status().message().find("dimension mismatch"),
            std::string::npos)
      << wrong.status().ToString();
  // dim = 0 means "whatever the snapshot says".
  auto any = Open(0);
  ASSERT_TRUE(any.ok()) << any.status().ToString();
  EXPECT_EQ((*any)->dim(), 3u);
}

TEST_F(DurableIndexTest, EmptyDirNeedsDimension) {
  auto idx = Open(0);
  ASSERT_FALSE(idx.ok());
  EXPECT_NE(idx.status().message().find("no snapshot"), std::string::npos);
}

TEST_F(DurableIndexTest, CheckpointRequiresDurableMode) {
  PageFile file(1024);
  BufferPool pool(&file, 512);
  NNCellIndex in_memory(&pool, 2, SmallOptions());
  Status s = in_memory.Checkpoint();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(in_memory.durable());
}

TEST_F(DurableIndexTest, GroupSyncStillRecoversSyncedPrefix) {
  NNCellIndex::DurableOptions dopts = SmallDurable();
  dopts.wal_group_sync = 8;
  PointSet pts = GenerateUniform(20, 2, 51);
  {
    NNCellIndex::RecoveryInfo info;
    auto idx = NNCellIndex::Open(dir_, 2, SmallOptions(), dopts, &info);
    ASSERT_TRUE(idx.ok());
    for (size_t i = 0; i < pts.size(); ++i) {
      ASSERT_TRUE((*idx)->Insert(Vec(pts, i)).ok());
    }
    // Destructor runs without an explicit sync; the process does not
    // crash, so the page cache still lands on "disk" (tmpfs). Recovery
    // must replay everything that reached the file.
  }
  NNCellIndex::RecoveryInfo info;
  auto reopened = NNCellIndex::Open(dir_, 2, SmallOptions(), dopts, &info);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->size(), 20u);
}

TEST_F(DurableIndexTest, ManyGenerationsStayConsistent) {
  // Several open -> mutate -> close cycles, checkpointing on some of them;
  // an oracle applies the same operations in one process.
  PageFile file(1024);
  BufferPool pool(&file, 512);
  NNCellIndex oracle(&pool, 2, SmallOptions());

  Rng rng(61);
  uint64_t next_delete = 0;
  for (int gen = 0; gen < 4; ++gen) {
    auto idx = Open(2);
    ASSERT_TRUE(idx.ok()) << "gen " << gen << ": " << idx.status().ToString();
    for (int i = 0; i < 8; ++i) {
      std::vector<double> p = {rng.NextDouble(), rng.NextDouble()};
      ASSERT_TRUE((*idx)->Insert(p).ok());
      ASSERT_TRUE(oracle.Insert(p).ok());
    }
    if (gen >= 1) {
      ASSERT_TRUE((*idx)->Delete(next_delete).ok());
      ASSERT_TRUE(oracle.Delete(next_delete).ok());
      ++next_delete;
    }
    if (gen % 2 == 1) {
      ASSERT_TRUE((*idx)->Checkpoint().ok());
    }
    ExpectEquivalent(**idx, oracle, 30);
  }
  auto final_idx = Open(2);
  ASSERT_TRUE(final_idx.ok());
  ExpectEquivalent(**final_idx, oracle);
  ASSERT_TRUE((*final_idx)->CheckInvariants(50).ok());
}

TEST_F(DurableIndexTest, RecoveredIndexKeepsItsDurability) {
  {
    auto idx = Open(2);
    ASSERT_TRUE(idx.ok());
    ASSERT_TRUE((*idx)->Insert({0.3, 0.7}).ok());
  }
  {
    auto idx = Open(2);
    ASSERT_TRUE(idx.ok());
    EXPECT_TRUE((*idx)->durable());
    // Mutations after recovery are themselves logged...
    ASSERT_TRUE((*idx)->Insert({0.6, 0.1}).ok());
  }
  // ...and survive the next reopen.
  auto idx = Open(2);
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ((*idx)->size(), 2u);
}

TEST_F(DurableIndexTest, WalAheadOfSnapshotRejected) {
  PointSet pts = GenerateUniform(10, 2, 71);
  {
    auto idx = Open(2);
    ASSERT_TRUE(idx.ok());
    for (size_t i = 0; i < pts.size(); ++i) {
      ASSERT_TRUE((*idx)->Insert(Vec(pts, i)).ok());
    }
    ASSERT_TRUE((*idx)->Checkpoint().ok());
    ASSERT_TRUE((*idx)->Insert({0.111, 0.222}).ok());
    ASSERT_TRUE((*idx)->Checkpoint().ok());
  }
  // Roll the snapshot back to a stale generation while the WAL base has
  // moved past it: acknowledged operations would be missing.
  auto stale = fs::ReadFileToString(dir_ + "/snapshot.nncell");
  ASSERT_TRUE(stale.ok());
  {
    auto idx = Open(2);
    ASSERT_TRUE(idx.ok());
    ASSERT_TRUE((*idx)->Insert({0.333, 0.444}).ok());
    ASSERT_TRUE((*idx)->Checkpoint().ok());
  }
  ASSERT_TRUE(fs::WriteFileAtomic(dir_ + "/snapshot.nncell", *stale).ok());
  auto reopened = Open(0);
  ASSERT_FALSE(reopened.ok());
  EXPECT_NE(reopened.status().message().find("acknowledged operations"),
            std::string::npos)
      << reopened.status().ToString();
}

}  // namespace
}  // namespace nncell
