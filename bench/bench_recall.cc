// Recall-vs-latency bench for the approximate query tier
// (docs/APPROXIMATE.md): sweeps the certified-epsilon knob and the
// bounded-effort leaf-visit budget at d = {2, 8, 16} against a
// sequential-scan oracle, and emits one JSON document that
// `tools/bench_gate.py run recall` gates against the committed
// BENCH_recall.json.
//
// Gated fields are deterministic integers only: the recall@1 / recall@10
// hit counts of every sweep point, the exact-mode bit-identity counter
// (Query(q) vs Query(q, ApproxOptions{}) must agree on id and distance
// bits for every query) and a bit-fold checksum of the exact answers.
// Under the FP-determinism contract (docs/KERNELS.md) and the seeded
// serial build these are a pure function of the flags, so the gate is
// machine-independent. us_per_query is recorded for the human reader and
// never gated. --quick reduces only the timing reps; the counted passes
// are identical, so quick runs gate against the full baseline.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/approx.h"
#include "data/generators.h"

namespace nncell {
namespace bench {
namespace {

constexpr size_t kPoints = 2000;
constexpr size_t kQueries = 200;
constexpr size_t kRecallK = 10;
const size_t kDims[] = {2, 8, 16};
const double kEpsilons[] = {0.0, 0.01, 0.05, 0.1, 0.2, 0.5};
const uint64_t kBudgets[] = {1, 2, 4, 8, 16};

// Same order-insensitive bit-fold as bench_simd: any single-ulp drift in
// any gated double flips the fold.
uint64_t FoldBits(uint64_t acc, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  acc ^= bits + 0x9e3779b97f4a7c15ULL + (acc << 6) + (acc >> 2);
  return acc;
}

// Oracle: ids of the k nearest points by sequential scan, nearest first
// (ties by smaller id, matching the index's deterministic tie-break).
std::vector<std::vector<uint64_t>> OracleTopK(const PointSet& pts,
                                              const PointSet& queries,
                                              size_t k) {
  std::vector<std::vector<uint64_t>> oracle(queries.size());
  std::vector<std::pair<double, uint64_t>> scored(pts.size());
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const double* q = queries[qi];
    for (size_t i = 0; i < pts.size(); ++i) {
      double d2 = 0;
      const double* p = pts[i];
      for (size_t d = 0; d < pts.dim(); ++d) {
        const double diff = p[d] - q[d];
        d2 += diff * diff;
      }
      scored[i] = {d2, static_cast<uint64_t>(i)};
    }
    std::partial_sort(scored.begin(), scored.begin() + k, scored.end());
    oracle[qi].reserve(k);
    for (size_t i = 0; i < k; ++i) oracle[qi].push_back(scored[i].second);
  }
  return oracle;
}

struct SweepPoint {
  uint64_t recall1_hits = 0;   // returned top-1 id == oracle top-1 id
  uint64_t recall10_hits = 0;  // |returned top-10 ids ∩ oracle top-10 ids|
  uint64_t approximate = 0;    // queries whose certificate flagged approx
  uint64_t leaf_visits = 0;    // summed over all queries
  double us_per_query = 0.0;   // best-of-reps wall time, never gated
};

SweepPoint RunSweepPoint(const NNCellIndex& index, const PointSet& queries,
                         const std::vector<std::vector<uint64_t>>& oracle,
                         const ApproxOptions& approx, int reps) {
  SweepPoint out;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    auto r = index.KnnQuery(queries[qi], kRecallK, approx);
    NNCELL_CHECK(r.ok());
    NNCELL_CHECK(!r->empty());
    if (r->front().id == oracle[qi][0]) ++out.recall1_hits;
    for (const auto& hit : *r) {
      if (std::find(oracle[qi].begin(), oracle[qi].end(), hit.id) !=
          oracle[qi].end()) {
        ++out.recall10_hits;
      }
    }
    // The certificate is shared by the k results of one query; count it
    // once.
    out.approximate += r->front().approx.approximate ? 1 : 0;
    out.leaf_visits += r->front().approx.leaf_visits;
  }

  // Timed pass: the single-NN query path, the one a serving tier tunes.
  out.us_per_query = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < reps; ++rep) {
    auto t0 = std::chrono::steady_clock::now();
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      auto r = index.Query(queries[qi], approx);
      NNCELL_CHECK(r.ok());
    }
    auto t1 = std::chrono::steady_clock::now();
    const double us =
        std::chrono::duration<double, std::micro>(t1 - t0).count() /
        static_cast<double>(queries.size());
    out.us_per_query = std::min(out.us_per_query, us);
  }
  return out;
}

void PrintSweepPoint(FILE* out, const SweepPoint& p, bool last) {
  std::fprintf(out,
               "\"recall1_hits\": %llu, \"recall10_hits\": %llu, "
               "\"approximate\": %llu, \"leaf_visits\": %llu, "
               "\"us_per_query\": %.3f}%s\n",
               static_cast<unsigned long long>(p.recall1_hits),
               static_cast<unsigned long long>(p.recall10_hits),
               static_cast<unsigned long long>(p.approximate),
               static_cast<unsigned long long>(p.leaf_visits),
               p.us_per_query, last ? "" : ",");
}

int Main(int argc, char** argv) {
  bool quick = false;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--out=FILE]\n", argv[0]);
      return 2;
    }
  }
  const int reps = quick ? 2 : 10;

  FILE* out = stdout;
  if (!out_path.empty()) {
    out = std::fopen(out_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
      return 1;
    }
  }

  BenchConfig config;  // defaults; the build is serial and seeded
  std::fprintf(out, "{\n \"schema\": 1,\n \"seed\": %llu,\n",
               static_cast<unsigned long long>(config.seed));
  std::fprintf(out, " \"mode\": \"%s\",\n", quick ? "quick" : "full");
  std::fprintf(out,
               " \"n\": %zu,\n \"queries\": %zu,\n \"recall_k\": %zu,\n"
               " \"default_epsilon\": %.3f,\n \"configs\": [\n",
               kPoints, kQueries, kRecallK, kDefaultApproxEpsilon);

  bool first_cfg = true;
  for (size_t dim : kDims) {
    PointSet pts = GenerateUniform(kPoints, dim, config.seed + dim);
    PointSet queries = GenerateQueries(kQueries, dim, config.seed ^ dim);
    const auto oracle = OracleTopK(pts, queries, kRecallK);

    NNCellOptions opts;
    opts.algorithm = RecommendedAlgorithm(dim);
    NNCellSetup setup = BuildNNCell(pts, opts, config);
    const NNCellIndex& index = *setup.index;

    // Exact-mode bit-identity: the approximate entry points with
    // default-constructed options must answer bit-identically to the
    // exact tier, query by query.
    uint64_t exact_match = 0;
    uint64_t exact_checksum = 0;
    for (size_t qi = 0; qi < kQueries; ++qi) {
      auto exact = index.Query(queries[qi]);
      auto routed = index.Query(queries[qi], ApproxOptions{});
      NNCELL_CHECK(exact.ok() && routed.ok());
      uint64_t eb, rb;
      std::memcpy(&eb, &exact->dist, sizeof(eb));
      std::memcpy(&rb, &routed->dist, sizeof(rb));
      if (exact->id == routed->id && eb == rb) ++exact_match;
      exact_checksum = FoldBits(exact_checksum, exact->dist);
      exact_checksum ^= (exact->id + 1) * 0x9e3779b97f4a7c15ULL;
    }

    if (!first_cfg) std::fprintf(out, ",\n");
    first_cfg = false;
    std::fprintf(out, "  {\"name\": \"d%zu\", \"dim\": %zu,\n", dim, dim);
    std::fprintf(out,
                 "   \"exact_match\": %llu, \"exact_checksum\": \"%016llx\","
                 "\n   \"epsilon_sweep\": [\n",
                 static_cast<unsigned long long>(exact_match),
                 static_cast<unsigned long long>(exact_checksum));
    for (size_t ei = 0; ei < sizeof(kEpsilons) / sizeof(kEpsilons[0]); ++ei) {
      ApproxOptions approx;
      approx.epsilon = kEpsilons[ei];
      SweepPoint p = RunSweepPoint(index, queries, oracle, approx, reps);
      std::fprintf(out, "    {\"epsilon\": %.3f, ", kEpsilons[ei]);
      PrintSweepPoint(out, p,
                      ei + 1 == sizeof(kEpsilons) / sizeof(kEpsilons[0]));
      std::fprintf(stderr,
                   "d=%-2zu eps=%-5.2f recall@1 %3llu/%zu recall@10 %4llu/%zu"
                   "  %7.1f us/q\n",
                   dim, kEpsilons[ei],
                   static_cast<unsigned long long>(p.recall1_hits), kQueries,
                   static_cast<unsigned long long>(p.recall10_hits),
                   kQueries * kRecallK, p.us_per_query);
    }
    std::fprintf(out, "   ],\n   \"budget_sweep\": [\n");
    for (size_t bi = 0; bi < sizeof(kBudgets) / sizeof(kBudgets[0]); ++bi) {
      ApproxOptions approx;
      approx.max_leaf_visits = kBudgets[bi];
      SweepPoint p = RunSweepPoint(index, queries, oracle, approx, reps);
      std::fprintf(out, "    {\"max_leaf_visits\": %llu, ",
                   static_cast<unsigned long long>(kBudgets[bi]));
      PrintSweepPoint(out, p,
                      bi + 1 == sizeof(kBudgets) / sizeof(kBudgets[0]));
      std::fprintf(stderr,
                   "d=%-2zu budget=%-3llu recall@1 %3llu/%zu recall@10 "
                   "%4llu/%zu  %7.1f us/q\n",
                   dim, static_cast<unsigned long long>(kBudgets[bi]),
                   static_cast<unsigned long long>(p.recall1_hits), kQueries,
                   static_cast<unsigned long long>(p.recall10_hits),
                   kQueries * kRecallK, p.us_per_query);
    }
    std::fprintf(out, "   ]}");
  }
  std::fprintf(out, "\n ]\n}\n");
  if (out != stdout) std::fclose(out);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace nncell

int main(int argc, char** argv) { return nncell::bench::Main(argc, argv); }
