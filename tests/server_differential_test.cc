// Differential oracle for the query service: the same seeded workload is
// driven twice -- through a live server over its wire protocol, and
// directly against an index of the same kind built with identical options
// -- and every response must match, exact and at epsilon = 0.1. Covers all
// four approximation algorithms at d = 2, 8, 16, for the server fronting a
// plain NNCellIndex and an in-memory 3-shard ShardedIndex (whose exact
// neighbors must also equal the plain index's), and (separately) a durable
// server that is SIGTERM-drained, checkpointed and restarted mid-workload:
// the reopened server must keep answering exactly like the never-restarted
// oracle.

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "nncell/nncell_index.h"
#include "server/client.h"
#include "server/server.h"
#include "shard/sharded_index.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"

namespace nncell {
namespace server {
namespace {

NNCellOptions Options(ApproxAlgorithm alg) {
  NNCellOptions opts;
  opts.algorithm = alg;
  return opts;
}

enum class IndexKind { kPlain, kSharded };

// One index of either kind; both are served and driven through
// SearchIndex.
struct Oracle {
  std::unique_ptr<PageFile> file;
  std::unique_ptr<BufferPool> pool;
  std::unique_ptr<SearchIndex> index;

  Oracle(size_t dim, ApproxAlgorithm alg,
         IndexKind kind = IndexKind::kPlain) {
    if (kind == IndexKind::kSharded) {
      ShardedOptions sopts;
      sopts.num_shards = 3;
      auto idx = ShardedIndex::Create(dim, Options(alg), sopts);
      EXPECT_TRUE(idx.ok()) << idx.status().ToString();
      if (idx.ok()) index = std::move(*idx);
      return;
    }
    file = std::make_unique<PageFile>(4096);
    pool = std::make_unique<BufferPool>(file.get(), 2048);
    index = std::make_unique<NNCellIndex>(pool.get(), dim, Options(alg));
  }
};

// Bit-identity of one served answer with the directly computed one. The
// certificate travels only when the request carried an approx block.
::testing::AssertionResult SameAnswer(const WireQueryResult& w,
                                      const SearchIndex::QueryResult& r,
                                      bool with_certificate) {
  if (w.id != r.id || w.dist != r.dist || w.candidates != r.candidates ||
      w.used_fallback != (r.used_fallback ? 1 : 0) || w.point != r.point) {
    return ::testing::AssertionFailure()
           << "served id=" << w.id << " dist=" << w.dist
           << " candidates=" << w.candidates << ", direct id=" << r.id
           << " dist=" << r.dist << " candidates=" << r.candidates;
  }
  if (w.has_certificate != with_certificate) {
    return ::testing::AssertionFailure() << "certificate presence differs";
  }
  if (with_certificate &&
      (w.certificate.approximate != (r.approx.approximate ? 1 : 0) ||
       w.certificate.terminated_early != (r.approx.terminated_early ? 1 : 0) ||
       w.certificate.truncated != (r.approx.truncated ? 1 : 0) ||
       w.certificate.leaf_visits != r.approx.leaf_visits ||
       w.certificate.bound != r.approx.bound)) {
    return ::testing::AssertionFailure() << "certificates differ";
  }
  return ::testing::AssertionSuccess();
}

// A sharded answer equals the plain index's in id, distance and point
// (its candidate count and certificate aggregate the probed shards'). For
// exact answers that is the shard layer's contract; at epsilon = 0.1 it
// holds for this workload, whose small shards and index agree on every
// neighbor (certificate soundness in general: approx_test).
::testing::AssertionResult SameNeighbor(const WireQueryResult& w,
                                        const SearchIndex::QueryResult& r) {
  if (w.id == r.id && w.dist == r.dist && w.point == r.point) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "served id=" << w.id << " dist=" << w.dist << ", plain id="
         << r.id << " dist=" << r.dist
         << " (at epsilon > 0 equal neighbors are not a contract; the "
            "certificate bound is checked in approx_test)";
}

// One deterministic mixed workload: preload inserts, then interleaved
// queries / inserts / deletes. Every response from the server is compared
// against the directly-driven oracle as it happens, exact and at
// epsilon = 0.1. When `plain` is non-null (the oracle is sharded) it
// receives the same writes and every answer's neighbor must match it.
void RunDifferentialWorkload(Client& client, SearchIndex& oracle,
                             NNCellIndex* plain, size_t dim, uint64_t seed) {
  Rng rng(seed);
  auto random_point = [&] {
    std::vector<double> p(dim);
    for (double& v : p) v = rng.NextDouble();
    return p;
  };
  auto insert = [&](const std::vector<double>& p) -> StatusOr<uint64_t> {
    auto sid = client.Insert(p);
    if (!sid.ok()) return sid.status();
    auto oid = oracle.Insert(p);
    if (!oid.ok()) return oid.status();
    if (*sid != *oid) return Status::Internal("served and direct ids differ");
    if (plain != nullptr) {
      auto pid = plain->Insert(p);
      if (!pid.ok()) return pid.status();
      if (*pid != *sid) return Status::Internal("sharded and plain ids differ");
    }
    return *sid;
  };
  ApproxOptions approx;
  approx.epsilon = 0.1;

  std::vector<uint64_t> live;
  for (int i = 0; i < 30; ++i) {
    auto id = insert(random_point());
    ASSERT_TRUE(id.ok()) << "insert " << i << ": " << id.status().ToString();
    live.push_back(*id);
  }

  for (int op = 0; op < 40; ++op) {
    const uint64_t pick = rng.NextIndex(10);
    if (pick < 6) {
      // query
      auto q = random_point();
      auto sr = client.Query(q);
      ASSERT_TRUE(sr.ok()) << sr.status().ToString();
      auto orr = oracle.Query(q.data());
      ASSERT_TRUE(orr.ok());
      ASSERT_TRUE(SameAnswer(*sr, *orr, false)) << "op " << op;
      ASSERT_EQ(sr->point.size(), dim);
      if (plain != nullptr) {
        auto pr = plain->Query(q.data());
        ASSERT_TRUE(pr.ok());
        ASSERT_TRUE(SameNeighbor(*sr, *pr)) << "op " << op;
      }
      auto sa = client.Query(q, approx);
      ASSERT_TRUE(sa.ok()) << sa.status().ToString();
      auto oa = oracle.Query(q.data(), approx);
      ASSERT_TRUE(oa.ok());
      ASSERT_TRUE(SameAnswer(*sa, *oa, true)) << "approx op " << op;
      if (plain != nullptr) {
        auto pa = plain->Query(q.data(), approx);
        ASSERT_TRUE(pa.ok());
        ASSERT_TRUE(SameNeighbor(*sa, *pa)) << "approx op " << op;
      }
    } else if (pick < 8) {
      // batch of 3 queries
      std::vector<std::vector<double>> qs = {random_point(), random_point(),
                                             random_point()};
      for (bool with_approx : {false, true}) {
        auto srs = with_approx ? client.QueryBatch(qs, approx)
                               : client.QueryBatch(qs);
        ASSERT_TRUE(srs.ok()) << srs.status().ToString();
        ASSERT_EQ(srs->size(), qs.size());
        for (size_t i = 0; i < qs.size(); ++i) {
          auto orr = oracle.Query(qs[i].data(),
                                  with_approx ? approx : ApproxOptions{});
          ASSERT_TRUE(orr.ok());
          ASSERT_TRUE(SameAnswer((*srs)[i], *orr, with_approx))
              << "op " << op << " q " << i << " approx " << with_approx;
          if (plain != nullptr) {
            auto pr = plain->Query(qs[i].data(),
                                   with_approx ? approx : ApproxOptions{});
            ASSERT_TRUE(pr.ok());
            ASSERT_TRUE(SameNeighbor((*srs)[i], *pr))
                << "op " << op << " q " << i;
          }
        }
      }
    } else if (pick == 8) {
      // insert
      auto id = insert(random_point());
      ASSERT_TRUE(id.ok()) << "op " << op << ": " << id.status().ToString();
      live.push_back(*id);
    } else if (!live.empty()) {
      // delete
      const size_t victim = rng.NextIndex(live.size());
      const uint64_t id = live[victim];
      live.erase(live.begin() + victim);
      ASSERT_TRUE(client.Delete(id).ok()) << "op " << op;
      ASSERT_TRUE(oracle.Delete(id).ok());
      // The id is no longer live: deleting it again is NOT_FOUND.
      ASSERT_EQ(oracle.Delete(id).code(), StatusCode::kNotFound);
      if (plain != nullptr) {
        ASSERT_TRUE(plain->Delete(id).ok());
        ASSERT_FALSE(plain->IsAlive(id));
      }
    }
  }
}

class ServerDifferentialTest
    : public ::testing::TestWithParam<
          std::tuple<ApproxAlgorithm, size_t, IndexKind>> {};

TEST_P(ServerDifferentialTest, ServerMatchesDirectIndex) {
  const auto [alg, dim, kind] = GetParam();
  const std::string socket_path =
      ::testing::TempDir() + "server_diff_" + std::to_string(static_cast<int>(alg)) +
      "_" + std::to_string(dim) + "_" + std::to_string(static_cast<int>(kind)) +
      ".sock";
  std::filesystem::remove(socket_path);

  Oracle served(dim, alg, kind);
  Oracle oracle(dim, alg, kind);
  ASSERT_NE(served.index, nullptr);
  ASSERT_NE(oracle.index, nullptr);
  // A sharded oracle is also checked against the plain index.
  std::unique_ptr<Oracle> plain;
  if (kind == IndexKind::kSharded) plain = std::make_unique<Oracle>(dim, alg);
  ServerOptions sopt;
  sopt.socket_path = socket_path;
  NNCellServer server(served.index.get(), sopt);
  ASSERT_TRUE(server.Start().ok());

  {
    auto client = Client::ConnectUnix(socket_path);
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    RunDifferentialWorkload(
        *client, *oracle.index,
        plain ? static_cast<NNCellIndex*>(plain->index.get()) : nullptr, dim,
        0xd1ff + dim * 131 + static_cast<int>(alg));
  }
  ASSERT_TRUE(server.Stop().ok());
  EXPECT_EQ(server.accepted(), server.completed() + server.rejected());
  std::filesystem::remove(socket_path);
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithmsAndDims, ServerDifferentialTest,
    ::testing::Combine(::testing::Values(ApproxAlgorithm::kCorrect,
                                         ApproxAlgorithm::kPoint,
                                         ApproxAlgorithm::kSphere,
                                         ApproxAlgorithm::kNNDirection),
                       ::testing::Values(size_t{2}, size_t{8}, size_t{16}),
                       ::testing::Values(IndexKind::kPlain,
                                         IndexKind::kSharded)),
    [](const auto& info) {
      std::string name = ApproxAlgorithmName(std::get<0>(info.param));
      std::erase_if(name, [](char c) { return !std::isalnum(
                                           static_cast<unsigned char>(c)); });
      name += "_d" + std::to_string(std::get<1>(info.param));
      if (std::get<2>(info.param) == IndexKind::kSharded) name += "_sharded";
      return name;
    });

// --- SIGTERM-checkpoint-restart mid-workload ------------------------------

// Child body: serve the durable index at `dir` until SIGTERM, then drain
// (which checkpoints) and exit 0. Exit codes 3..5 mark setup failures.
[[noreturn]] void RunServerChild(const std::string& dir,
                                 const std::string& socket_path) {
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGTERM);
  if (pthread_sigmask(SIG_BLOCK, &sigs, nullptr) != 0) ::_exit(3);
  NNCellIndex::DurableOptions dur;
  dur.page_size = 1024;
  dur.pool_pages = 512;
  auto idx = NNCellIndex::Open(dir, 2, Options(ApproxAlgorithm::kSphere), dur,
                               nullptr);
  if (!idx.ok()) ::_exit(4);
  ServerOptions sopt;
  sopt.socket_path = socket_path;
  NNCellServer server((*idx).get(), sopt);
  if (!server.Start().ok()) ::_exit(5);
  int sig = 0;
  (void)sigwait(&sigs, &sig);
  Status st = server.Stop();
  ::_exit(st.ok() ? 0 : 6);
}

pid_t ForkServer(const std::string& dir, const std::string& socket_path) {
  pid_t pid = ::fork();
  if (pid == 0) RunServerChild(dir, socket_path);
  return pid;
}

StatusOr<Client> ConnectWithRetry(const std::string& socket_path) {
  for (int i = 0; i < 200; ++i) {
    auto client = Client::ConnectUnix(socket_path);
    if (client.ok() && client->Ping().ok()) return client;
    ::usleep(20 * 1000);
  }
  return Status::Internal("server never became reachable at " + socket_path);
}

TEST(ServerRestartTest, SigtermCheckpointRestartKeepsAnswersIdentical) {
  const std::string base = ::testing::TempDir() + "server_restart_test";
  const std::string dir = base + "/index";
  const std::string socket_path = base + "/serve.sock";
  std::filesystem::remove_all(base);
  std::filesystem::create_directories(base);

  Oracle oracle(2, ApproxAlgorithm::kSphere);
  Rng rng(0x7e57);
  auto random_point = [&] {
    return std::vector<double>{rng.NextDouble(), rng.NextDouble()};
  };
  auto expect_query_match = [&](Client& client, int tag) {
    auto q = random_point();
    auto sr = client.Query(q);
    ASSERT_TRUE(sr.ok()) << "tag " << tag << ": " << sr.status().ToString();
    auto orr = oracle.index->Query(q.data());
    ASSERT_TRUE(orr.ok());
    ASSERT_EQ(sr->id, orr->id) << "tag " << tag;
    ASSERT_EQ(sr->dist, orr->dist) << "tag " << tag;
  };

  // Phase 1: fresh server, build up state over the wire.
  pid_t pid = ForkServer(dir, socket_path);
  ASSERT_GT(pid, 0);
  {
    auto client = ConnectWithRetry(socket_path);
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    for (int i = 0; i < 25; ++i) {
      auto p = random_point();
      auto sid = client->Insert(p);
      ASSERT_TRUE(sid.ok()) << sid.status().ToString();
      auto oid = oracle.index->Insert(p);
      ASSERT_TRUE(oid.ok());
      ASSERT_EQ(*sid, *oid);
    }
    ASSERT_TRUE(client->Delete(3).ok());
    ASSERT_TRUE(oracle.index->Delete(3).ok());
    ASSERT_TRUE(client->Delete(11).ok());
    ASSERT_TRUE(oracle.index->Delete(11).ok());
    for (int i = 0; i < 10; ++i) expect_query_match(*client, 100 + i);
  }

  // Mid-workload SIGTERM: graceful drain + checkpoint, clean exit.
  ASSERT_EQ(::kill(pid, SIGTERM), 0);
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus));
  ASSERT_EQ(WEXITSTATUS(wstatus), 0);

  // Phase 2: restart on the same directory; recovery must reproduce the
  // exact pre-restart state (the oracle never restarted).
  pid = ForkServer(dir, socket_path);
  ASSERT_GT(pid, 0);
  {
    auto client = ConnectWithRetry(socket_path);
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    for (int i = 0; i < 10; ++i) expect_query_match(*client, 200 + i);
    // The id sequence also survived the restart.
    for (int i = 0; i < 8; ++i) {
      auto p = random_point();
      auto sid = client->Insert(p);
      ASSERT_TRUE(sid.ok()) << sid.status().ToString();
      auto oid = oracle.index->Insert(p);
      ASSERT_TRUE(oid.ok());
      ASSERT_EQ(*sid, *oid) << "post-restart insert " << i;
    }
    ASSERT_TRUE(client->Delete(20).ok());
    ASSERT_TRUE(oracle.index->Delete(20).ok());
    for (int i = 0; i < 15; ++i) expect_query_match(*client, 300 + i);
  }
  ASSERT_EQ(::kill(pid, SIGTERM), 0);
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus));
  ASSERT_EQ(WEXITSTATUS(wstatus), 0);
  std::filesystem::remove_all(base);
}

}  // namespace
}  // namespace server
}  // namespace nncell
