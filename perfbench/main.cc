// Layered benchmark: runs one workload against the public APIs of
// nncell, shard and server, checks every answer it can against an oracle,
// and prints its metrics. `perfbench/run.py` builds this binary and calls it;
// RATIONALE.md explains the workloads and what each metric should move.
//
//   perfbench --workload=read-d4|read-d16|serve-d4 --seed=N
//       --seconds=S --trace=0|1 --workdir=DIR --server-bin=PATH
//       [--open-rate=OPS] [--wal-group-sync=N] [--spans-out=FILE] [--smoke]
//   perfbench --selftest
//
// The last stdout line is one JSON object {"correct", "attempted",
// "failed", "metrics"}; every earlier line is a human-readable report. The
// exit code is 0 only when every answer and check passed.

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_lib.h"
#include "common/kernels/kernels.h"
#include "common/kernels/soa_store.h"
#include "common/metrics.h"
#include "common/metrics_names.h"
#include "nncell/nncell_index.h"
#include "nncell/query_trace.h"
#include "nncell/wal_records.h"
#include "scan/sequential_scan.h"
#include "server/client.h"
#include "server/frame.h"
#include "server/protocol.h"
#include "shard/sharded_index.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"
#include "storage/wal.h"

extern char** environ;

namespace perfbench {
namespace {

using nncell::NNCellIndex;
using nncell::NNCellOptions;
using nncell::PointSet;
using nncell::ShardedIndex;

constexpr size_t kThreads = 4;       // bulk-build fan-out
// QueryBatch and saturation threads. On a shared 4-vCPU host, 4-thread
// phases lost 30-40% of their throughput while other tenants were busy,
// and their spread over ten seeds passed 0.25, while 1-thread phases held
// within 5%; 2 threads leave that margin.
constexpr size_t kPoolThreads = 2;
constexpr size_t kConnections = 4;   // load-generator connections
constexpr size_t kBatchSize = 1024;  // queries per QueryBatch call
constexpr size_t kTailMin = 1100;    // samples for a supported p99 + margin
constexpr size_t kCheckNn = 64;      // oracle-checked answers per phase
constexpr size_t kCheckKnn = 32;

// Each workload's data set -- the indexed points, and serve-d4's inserts --
// is drawn from this fixed seed; --seed draws the queries and the
// operation timing. Tail figures depend on the data: with seeded data,
// read-d4's 10-NN p99 read 0.7 ms on some seeds and 2.3 ms on others (a
// data set where more than 1% of queries take the radius-growth path), and
// serve-d4, with about a dozen inserts a run costing 85 to 250 ms each by
// where the points fall, moved its tail latency and capacity by 20-25%
// between seeds. The constant's value was set without reference to any
// result.
constexpr uint64_t kDataSeed = 0x5eed;

// ---------------------------------------------------------------------------
// Arguments and report.

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir;
  std::string server_bin;
  std::string spans_out;
  double open_rate = 200;
  size_t wal_group_sync = 1;
  bool smoke = false;
  bool selftest = false;
  bool inject_wrong_answer = false;  // self-test hook: corrupt one answer
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    std::string s = argv[i];
    auto val = [&s](const char* name, std::string* out) {
      const std::string p = std::string(name) + "=";
      if (s.rfind(p, 0) != 0) return false;
      *out = s.substr(p.size());
      return true;
    };
    std::string v;
    if (s == "--smoke") {
      a->smoke = true;
    } else if (s == "--inject-wrong-answer") {
      a->inject_wrong_answer = true;
    } else if (s == "--selftest") {
      a->selftest = true;
    } else if (val("--workload", &v)) {
      a->workload = v;
    } else if (val("--seed", &v)) {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (val("--seconds", &v)) {
      a->seconds = std::strtod(v.c_str(), nullptr);
    } else if (val("--trace", &v)) {
      a->trace = v == "1";
    } else if (val("--workdir", &v)) {
      a->workdir = v;
    } else if (val("--server-bin", &v)) {
      a->server_bin = v;
    } else if (val("--spans-out", &v)) {
      a->spans_out = v;
    } else if (val("--open-rate", &v)) {
      a->open_rate = std::strtod(v.c_str(), nullptr);
    } else if (val("--wal-group-sync", &v)) {
      a->wal_group_sync = std::strtoul(v.c_str(), nullptr, 10);
    } else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", argv[i]);
      return false;
    }
  }
  return a->selftest ||
         (!a->workload.empty() && !a->workdir.empty() && a->seconds > 0 &&
          a->open_rate > 0 && a->wal_group_sync >= 1);
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  size_t samples = 0;
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           size_t samples) {
    metrics_.push_back(Metric{name, value, unit, samples});
    std::printf("metric %-34s %16.6f %-9s n=%zu\n", name.c_str(), value,
                unit.c_str(), samples);
  }

  // Percentile p of `samples` under the percentile rule; a sample count
  // that cannot support it fails the run.
  void AddPercentile(const std::string& name, const std::vector<double>& v,
                     double p, const std::string& unit) {
    double x = 0.0;
    if (!Percentile(v, p, &x)) {
      Error(name + ": " + std::to_string(v.size()) +
            " samples cannot support p" + std::to_string(p) +
            " (highest supported: p" +
            std::to_string(HighestSupportedPercentile(v.size())) + ")");
      return;
    }
    Add(name, x, unit, v.size());
  }

  // The shape of a latency distribution, for the reader of the report.
  static void PrintTail(const std::string& name, const std::vector<double>& v) {
    std::printf("tail %-26s", name.c_str());
    for (double p : {50.0, 90.0, 95.0, 99.0, 99.9}) {
      double x = 0.0;
      if (Percentile(v, p, &x)) std::printf(" p%g=%.6g", p, x);
    }
    std::printf(" n=%zu\n", v.size());
  }

  // Percentile p as the median over windows of kTailMin consecutive calls
  // (see WindowedPercentile); for in-process calls, whose tail a host
  // stall would otherwise set.
  void AddWindowed(const std::string& name, const std::vector<double>& v,
                   double p, const std::string& unit) {
    double x = 0.0;
    if (!WindowedPercentile(v, p, kTailMin, &x)) {
      Error(name + ": " + std::to_string(v.size()) +
            " samples fill no window that supports p" + std::to_string(p));
      return;
    }
    Add(name, x, unit, v.size());
  }

  void Attempt(size_t n = 1) { attempted_ += n; }
  void Fail(const std::string& why) {
    ++failed_;
    if (failed_ <= 20) std::printf("FAIL %s\n", why.c_str());
  }
  // A benchmark error: the run cannot report a result it stands behind.
  void Error(const std::string& why) {
    errors_.push_back(why);
    std::printf("ERROR %s\n", why.c_str());
  }
  bool ok() const { return failed_ == 0 && errors_.empty(); }
  size_t attempted() const { return attempted_; }
  size_t failed() const { return failed_; }

  void PrintJson() const {
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                ok() ? "true" : "false", std::max<size_t>(attempted_, 1),
                failed_);
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      const double v = std::isfinite(m.value) ? m.value : -1.0;
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\", "
                  "\"samples\": %zu}",
                  i ? ", " : "", m.name.c_str(), v, m.unit.c_str(),
                  m.samples);
    }
    std::printf("}}\n");
  }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> errors_;
  size_t attempted_ = 0;
  size_t failed_ = 0;
};

constexpr double kFailedLatency = std::numeric_limits<double>::infinity();

double PeakRssMbSelf() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

PointSet ToPointSet(const Points& p) {
  PointSet ps(p.dim);
  ps.Reserve(p.size());
  for (size_t i = 0; i < p.size(); ++i) ps.Add(p[i]);
  return ps;
}

// Four QueryBatch inputs of kBatchSize uniform queries each.
std::vector<PointSet> Batches(uint64_t seed, uint64_t stream, size_t dim) {
  const Points q = UniformPoints(seed, stream, 4 * kBatchSize, dim);
  std::vector<PointSet> out;
  for (size_t b = 0; b < 4; ++b) {
    PointSet s(dim);
    for (size_t i = 0; i < kBatchSize; ++i) s.Add(q[b * kBatchSize + i]);
    out.push_back(std::move(s));
  }
  return out;
}

double L2(const double* a, const double* b, size_t dim) {
  return std::sqrt(nncell::kernels::L2DistSqPair(a, b, dim));
}

// Brute-force oracle over an explicit (id, point) set.
class Oracle {
 public:
  explicit Oracle(size_t dim)
      : file_(4096), pool_(&file_, 1 << 14), scan_(&pool_, dim), dim_(dim) {}
  void Insert(uint64_t id, const double* p) {
    scan_.Insert(p, id);
    points_[id].assign(p, p + dim_);
  }
  std::vector<Answer> Knn(const double* q, size_t k) const {
    std::vector<Answer> out;
    for (const auto& r : scan_.KnnQuery(q, k)) out.push_back({r.id, r.dist});
    return out;
  }
  std::vector<Answer> Nn(const double* q) const {
    const auto r = scan_.NearestNeighbor(q);
    return {Answer{r.id, r.dist}};
  }
  std::function<double(uint64_t)> DistOf(const double* q) const {
    return [this, q](uint64_t id) {
      auto it = points_.find(id);
      return it == points_.end() ? std::nan("")
                                 : L2(q, it->second.data(), dim_);
    };
  }
  const nncell::SequentialScan& scan() const { return scan_; }

 private:
  nncell::PageFile file_;
  nncell::BufferPool pool_;
  nncell::SequentialScan scan_;
  size_t dim_;
  std::map<uint64_t, std::vector<double>> points_;
};

bool g_inject_wrong_answer = false;

void CheckAnswers(Report* rep, const Oracle& oracle, const double* q,
                  std::vector<Answer> got, size_t k, const char* what) {
  const std::vector<Answer> want = k == 1 ? oracle.Nn(q) : oracle.Knn(q, k);
  if (g_inject_wrong_answer && !got.empty()) {
    g_inject_wrong_answer = false;
    got[0].dist = std::nextafter(got[0].dist, 2.0);
  }
  std::string why;
  if (!SameAnswers(got, want, oracle.DistOf(q), &why)) {
    rep->Fail(std::string(what) + ": " + why);
  }
}

std::vector<Answer> ToAnswers(
    const std::vector<NNCellIndex::QueryResult>& rs) {
  std::vector<Answer> out;
  for (const auto& r : rs) out.push_back({r.id, r.dist});
  return out;
}

// Runs `body(i)` back to back until `budget_s` has passed and at least
// `min_samples` calls were made; returns the calls made.
size_t RunFor(double budget_s, size_t min_samples,
              const std::function<void(size_t)>& body) {
  const auto start = Clock::now();
  size_t i = 0;
  while (i < min_samples ||
         SecondsBetween(start, Clock::now()) < budget_s) {
    body(i++);
  }
  return i;
}

// Samples of the 10-NN and QueryBatch phases, gathered over many rounds.
struct KnnBatchSamples {
  std::vector<double> knn_us, batch_qps;
  std::vector<std::vector<Answer>> knn_ans;  // first kCheckKnn, for the oracle
  std::vector<Answer> batch_ans;             // the first call's answers
  size_t knn_calls = 0, batch_calls = 0;
};

// One round on `idx` (an NNCellIndex or a ShardedIndex): exact 10-NN calls
// for `knn_s`, then QueryBatch calls (at least one) for `batch_s`. The span
// names carry the module.
template <typename Index>
void KnnBatchRound(const Index& idx, const char* knn_span,
                   const char* batch_span, const Points& qk,
                   const std::vector<PointSet>& batches, double knn_s,
                   double batch_s, Report* rep, Tracer* tr,
                   KnnBatchSamples* out) {
  RunFor(knn_s, 0, [&](size_t) {
    const size_t i = out->knn_calls++;
    rep->Attempt();
    const int64_t t0 = Tracer::NowNs();
    auto r = idx.KnnQuery(qk[i % qk.size()], 10);
    const int64_t t1 = Tracer::NowNs();
    tr->Add(knn_span, t0, t1, -1, i);
    out->knn_us.push_back(r.ok() ? static_cast<double>(t1 - t0) / 1e3
                                 : kFailedLatency);
    if (!r.ok()) {
      rep->Fail(std::string(knn_span) + " returned an error");
    } else if (out->knn_ans.size() < kCheckKnn) {
      out->knn_ans.push_back(ToAnswers(*r));
    }
  });
  RunFor(batch_s, 1, [&](size_t) {
    const size_t i = out->batch_calls++;
    const PointSet& b = batches[i % batches.size()];
    rep->Attempt(b.size());
    const int64_t t0 = Tracer::NowNs();
    auto r = idx.QueryBatch(b);
    const int64_t t1 = Tracer::NowNs();
    tr->Add(batch_span, t0, t1, -1, i);
    if (!r.ok()) {
      rep->Fail(std::string(batch_span) + " returned an error");
      return;
    }
    out->batch_qps.push_back(static_cast<double>(b.size()) * 1e9 /
                             static_cast<double>(t1 - t0));
    if (i == 0) out->batch_ans = ToAnswers(*r);
  });
}

void ReportKnnBatch(Report* rep, const KnnBatchSamples& kb) {
  Report::PrintTail("knn10_us", kb.knn_us);
  rep->AddPercentile("knn10_p50_us", kb.knn_us, 50, "us");
  rep->AddWindowed("knn10_p95_us", kb.knn_us, 95, "us");
  rep->AddWindowed("knn10_p99_us", kb.knn_us, 99, "us");
  rep->Add("batch_qps", Median(kb.batch_qps), "1/s", kb.batch_qps.size());
}

// Checks the sampled 10-NN answers and the first batch's answers.
void CheckKnnBatch(Report* rep, const Oracle& oracle, const Points& qk,
                   const std::vector<PointSet>& batches,
                   const KnnBatchSamples& kb) {
  for (size_t i = 0; i < kb.knn_ans.size(); ++i) {
    CheckAnswers(rep, oracle, qk[i % qk.size()], kb.knn_ans[i], 10, "10-NN");
  }
  for (size_t i = 0; i < std::min(kCheckNn, kb.batch_ans.size()); ++i) {
    CheckAnswers(rep, oracle, batches[0][i], {kb.batch_ans[i]}, 1, "batch");
  }
}

// Shared per-layer measurements that every workload can take.
void KernelLayer(Report* rep, const Points& pts, const Points& queries) {
  nncell::kernels::SoaBlockStore store(pts.dim);
  store.Reserve(pts.size());
  for (size_t i = 0; i < pts.size(); ++i) store.Append(pts[i]);
  std::vector<double> out(pts.size());
  std::vector<double> per_eval;
  for (size_t i = 0; i < 41; ++i) {
    const auto t0 = Clock::now();
    store.BatchL2DistSq(queries[i % queries.size()], out.data());
    const double s = SecondsBetween(t0, Clock::now());
    per_eval.push_back(s * 1e9 / static_cast<double>(pts.size()));
  }
  rep->Add("kernels.l2_ns_per_eval", Median(per_eval), "ns", per_eval.size());
}

// Append cost on a side log at the workload's insert-record size. The
// serve workload takes fsyncs per write from the server instead.
void WalLayer(Report* rep, const std::string& workdir, size_t dim,
              size_t group_sync, bool report_fsyncs, Tracer* tr) {
  const std::string path = workdir + "/side.wal";
  nncell::WriteAheadLog::RecoverResult rr;
  auto wal = nncell::WriteAheadLog::Open(path, 0, group_sync, false, &rr);
  if (!wal.ok()) {
    rep->Error("side wal: " + wal.status().ToString());
    return;
  }
  auto* fsyncs =
      nncell::metrics::Registry::Global().counter(nncell::metrics::kWalFsyncs);
  const uint64_t f0 = fsyncs->Value();
  const std::string payload =
      nncell::walrec::EncodeInsert(7, std::vector<double>(dim, 0.5));
  std::vector<double> us;
  for (size_t i = 0; i < 60; ++i) {
    const int64_t a = Tracer::NowNs();
    nncell::Status st = (*wal)->Append(payload);
    const int64_t b = Tracer::NowNs();
    tr->Add("storage.WriteAheadLog.Append", a, b, -1, 0);
    if (!st.ok()) {
      rep->Error("side wal append: " + st.ToString());
      return;
    }
    us.push_back(static_cast<double>(b - a) / 1e3);
  }
  rep->Add("storage.wal_append_us", Median(us), "us", us.size());
  if (!report_fsyncs) return;
  rep->Add("storage.wal_fsyncs_per_write",
           static_cast<double>(fsyncs->Value() - f0) / 60.0, "count", 60);
}

void ApproxLayer(Report* rep, const NNCellIndex& idx, size_t sample,
                 uint64_t seed, Tracer* tr) {
  const int64_t a = Tracer::NowNs();
  const nncell::ApproxStats st = idx.MeasureApproxEffort(sample, seed);
  const int64_t b = Tracer::NowNs();
  tr->Add("geom.MeasureApproxEffort", a, b, -1, 0);
  const double faces = static_cast<double>(
      std::max<size_t>(1, st.skipped_faces + st.warm_faces + st.cold_faces));
  rep->Add("geom.cell_us", static_cast<double>(b - a) / 1e3 / sample, "us",
           sample);
  rep->Add("lp.iters_per_face", static_cast<double>(st.lp_iterations) / faces,
           "count", sample);
  rep->Add("lp.lp_free_ratio", static_cast<double>(st.skipped_faces) / faces,
           "ratio", sample);
  rep->Add("lp.failures", static_cast<double>(st.lp_failures), "count",
           sample);
  rep->Add("geom.expected_candidates", idx.ExpectedCandidates(), "count",
           idx.size());
  const auto info = idx.TreeInfo();
  rep->Add("xtree.height", static_cast<double>(info.height), "count", 1);
  rep->Add("xtree.supernodes", static_cast<double>(info.num_supernodes),
           "count", 1);
}

// Traced 1-NN pass: per-query stage timings from QueryTrace, with one span
// per call and one child span per stage.
struct TracedQueries {
  std::vector<double> latency_us, probe_us, scan_us;
  double candidates = 0, evals = 0, logical = 0, physical = 0, fallbacks = 0;
  size_t n = 0;
};

bool TracedQuery(const NNCellIndex& idx, const double* q, uint64_t request,
                 Tracer* tr, TracedQueries* out,
                 NNCellIndex::QueryResult* result) {
  nncell::QueryTrace qt;
  const int64_t a = Tracer::NowNs();
  auto r = idx.Query(q, &qt);
  const int64_t b = Tracer::NowNs();
  if (!r.ok()) return false;
  *result = *r;
  const int64_t span = tr->Add("nncell.Query", a, b, -1, request);
  int64_t t = a;
  for (const auto& st : qt.stages) {
    const int64_t d = static_cast<int64_t>(st.micros * 1e3);
    const char* name = st.name == "index_probe"     ? "xtree.index_probe"
                       : st.name == "distance_scan" ? "nncell.distance_scan"
                                                    : "scan.fallback_scan";
    tr->Add(name, t, t + d, span, request);
    t += d;
    if (st.name == "index_probe") out->probe_us.push_back(st.micros);
    if (st.name == "distance_scan") out->scan_us.push_back(st.micros);
  }
  out->latency_us.push_back(static_cast<double>(b - a) / 1e3);
  out->candidates += static_cast<double>(qt.candidates);
  out->evals += static_cast<double>(qt.distance_computations);
  out->logical += static_cast<double>(qt.logical_reads);
  out->physical += static_cast<double>(qt.physical_reads);
  out->fallbacks += qt.used_fallback ? 1 : 0;
  ++out->n;
  return true;
}

void QueryLayers(Report* rep, const TracedQueries& t) {
  const double n = static_cast<double>(std::max<size_t>(1, t.n));
  rep->AddPercentile("xtree.probe_us", t.probe_us, 50, "us");
  rep->Add("xtree.pages_per_nn", t.logical / n, "pages", t.n);
  rep->Add("nncell.candidates_per_nn", t.candidates / n, "count", t.n);
  rep->AddPercentile("nncell.scan_us", t.scan_us, 50, "us");
  rep->Add("nncell.fallback_ratio", t.fallbacks / n, "ratio", t.n);
  rep->Add("kernels.evals_per_nn", t.evals / n, "count", t.n);
}

double ScanLayer(Report* rep, const Oracle& oracle, const Points& queries,
                 size_t count, Tracer* tr) {
  std::vector<double> us;
  for (size_t i = 0; i < count; ++i) {
    const int64_t a = Tracer::NowNs();
    (void)oracle.scan().NearestNeighbor(queries[i % queries.size()]);
    const int64_t b = Tracer::NowNs();
    tr->Add("scan.NearestNeighbor", a, b, -1, i);
    us.push_back(static_cast<double>(b - a) / 1e3);
  }
  double p50 = 0.0;
  rep->AddPercentile("scan.nn_us", us, 50, "us");
  Percentile(us, 50, &p50);
  return p50;
}

// Layers a workload does not exercise report 0 (RATIONALE.md lists them).
void ZeroLayers(Report* rep, const std::vector<std::pair<const char*,
                                                         const char*>>& ms) {
  for (const auto& [name, unit] : ms) rep->Add(name, 0.0, unit, 0);
}

// ---------------------------------------------------------------------------
// read-d4 / read-d16: plain in-memory index, read-only.

struct ReadConfig {
  size_t dim, n, pool_pages, builds;
};

void RunRead(const Args& a, const ReadConfig& c, Report* rep, Tracer* tr) {
  const Points pts = UniformPoints(kDataSeed, 1, c.n, c.dim);
  // Enough distinct queries that a tail percentile reflects the query
  // distribution rather than a few dozen queries repeated.
  const Points q1 = UniformPoints(a.seed, 2, 32768, c.dim);
  const Points qk = UniformPoints(a.seed, 3, 16384, c.dim);
  const std::vector<PointSet> batches = Batches(a.seed, 4, c.dim);
  const PointSet ps = ToPointSet(pts);

  // Set-up, repeated: bulk build with the 4-thread fan-out.
  std::unique_ptr<nncell::PageFile> file;
  std::unique_ptr<nncell::BufferPool> pool;
  std::unique_ptr<NNCellIndex> idx;
  std::vector<double> setups, builds;
  for (size_t b = 0; b < c.builds; ++b) {
    idx.reset();
    pool.reset();
    file.reset();
    const auto t0 = Clock::now();
    file = std::make_unique<nncell::PageFile>(4096);
    pool = std::make_unique<nncell::BufferPool>(file.get(), c.pool_pages);
    NNCellOptions o;
    o.parallel.num_threads = kThreads;
    idx = std::make_unique<NNCellIndex>(pool.get(), c.dim, o);
    const int64_t s0 = Tracer::NowNs();
    nncell::Status st = idx->BulkBuild(ps);
    const int64_t s1 = Tracer::NowNs();
    tr->Add("nncell.BulkBuild", s0, s1, -1, b);
    setups.push_back(SecondsBetween(t0, Clock::now()));
    builds.push_back(static_cast<double>(s1 - s0) / 1e9);
    if (!st.ok()) {
      rep->Error("BulkBuild: " + st.ToString());
      return;
    }
  }
  rep->Add("setup_s", Median(setups), "s", setups.size());
  std::printf("info index pages=%zu pool_pages=%zu points=%zu dim=%zu\n",
              file->num_pages(), c.pool_pages, idx->size(), c.dim);

  idx->SetNumThreads(kPoolThreads);
  for (size_t i = 0; i < 256; ++i) (void)idx->Query(q1[i]);  // warm the pool

  // The four phases run interleaved, in rounds of about one second, so
  // each metric samples the whole run rather than one stretch of it: the
  // host's speed drifts by up to 30% over seconds, and a phase that ran in
  // one block would report that drift as a difference between runs.
  std::vector<double> nn_us;
  std::vector<std::vector<Answer>> nn_ans;
  KnnBatchSamples kb;
  std::vector<std::pair<size_t, Answer>> cap_ans;
  TracedQueries traced;
  uint64_t logical = 0, misses = 0;
  size_t nn_i = 0, cap_i = 0, cap_done = 0;
  double cap_s = 0.0;
  const double round_s = std::min(1.0, a.seconds / 4);
  const auto run_start = Clock::now();
  while (SecondsBetween(run_start, Clock::now()) < a.seconds ||
         nn_us.size() < kTailMin || kb.knn_us.size() < kTailMin ||
         kb.batch_qps.size() < 11) {
    // Exact 1-NN latency, one caller.
    const nncell::BufferStats ps0 = pool->stats();
    RunFor(0.35 * round_s, 0, [&](size_t) {
      const size_t i = nn_i++;
      const double* q = q1[i % q1.size()];
      rep->Attempt();
      NNCellIndex::QueryResult r;
      bool ok;
      if (tr->enabled()) {
        ok = TracedQuery(*idx, q, i, tr, &traced, &r);
        nn_us.push_back(ok ? traced.latency_us.back() : kFailedLatency);
      } else {
        const auto t0 = Clock::now();
        auto res = idx->Query(q);
        nn_us.push_back(SecondsBetween(t0, Clock::now()) * 1e6);
        ok = res.ok();
        if (ok) r = *res;
      }
      if (!ok) {
        nn_us.back() = kFailedLatency;
        rep->Fail("Query returned an error");
      } else if (nn_ans.size() < kCheckNn) {
        nn_ans.push_back({{r.id, r.dist}});
      }
    });
    const nncell::BufferStats ps1 = pool->stats();
    logical += ps1.logical_reads - ps0.logical_reads;
    misses += ps1.physical_reads - ps0.physical_reads;

    // Exact 10-NN latency, then QueryBatch throughput on the 4-thread
    // pool with a fixed batch size.
    KnnBatchRound(*idx, "nncell.KnnQuery", "nncell.QueryBatch", qk, batches,
                  0.35 * round_s, 0.15 * round_s, rep, tr, &kb);

    // Closed-loop saturation: 4 callers issuing single queries.
    std::atomic<size_t> done{0};
    std::mutex ans_mu;
    const auto cap_start = Clock::now();
    const double cap_budget = 0.15 * round_s;
    std::vector<std::thread> workers;
    for (size_t t = 0; t < kPoolThreads; ++t) {
      workers.emplace_back([&, t] {
        for (size_t i = cap_i + t;; i += kPoolThreads) {
          if (SecondsBetween(cap_start, Clock::now()) >= cap_budget) break;
          const size_t qi = (i * 7 + 3) % q1.size();
          const int64_t t0 = Tracer::NowNs();
          auto r = idx->Query(q1[qi]);
          tr->Add("nncell.Query", t0, Tracer::NowNs(), -1, i);
          if (!r.ok()) continue;
          done.fetch_add(1, std::memory_order_relaxed);
          if (i < kCheckNn) {
            std::lock_guard<std::mutex> lock(ans_mu);
            cap_ans.push_back({qi, {r->id, r->dist}});
          }
        }
      });
    }
    for (auto& w : workers) w.join();
    cap_s += SecondsBetween(cap_start, Clock::now());
    cap_done += done.load();
    cap_i += 1 << 20;
  }
  const size_t nn_calls = nn_us.size();
  Report::PrintTail("nn_us", nn_us);
  rep->AddPercentile("nn_p50_us", nn_us, 50, "us");
  rep->AddWindowed("nn_p95_us", nn_us, 95, "us");
  rep->AddWindowed("nn_p99_us", nn_us, 99, "us");
  ReportKnnBatch(rep, kb);
  rep->Attempt(cap_done);
  rep->Add("capacity_ops_s", static_cast<double>(cap_done) / cap_s, "1/s",
           cap_done);
  rep->Add("peak_rss_mb", PeakRssMbSelf(), "MiB", 1);

  // Answer checks, outside every timed region.
  Oracle oracle(c.dim);
  for (size_t i = 0; i < pts.size(); ++i) oracle.Insert(i, pts[i]);
  for (size_t i = 0; i < nn_ans.size(); ++i) {
    CheckAnswers(rep, oracle, q1[i % q1.size()], nn_ans[i], 1, "1-NN");
  }
  CheckKnnBatch(rep, oracle, qk, batches, kb);
  for (const auto& [qi, ans] : cap_ans) {
    CheckAnswers(rep, oracle, q1[qi], {ans}, 1, "capacity");
  }
  std::printf("info checked answers: %zu 1-NN, %zu 10-NN, %zu batch, "
              "%zu capacity\n",
              nn_ans.size(), kb.knn_ans.size(),
              std::min(kCheckNn, kb.batch_ans.size()), cap_ans.size());

  if (!tr->enabled()) return;

  // Per-layer figures (traced run only).
  rep->Add("nncell.build_s", Median(builds), "s", builds.size());
  ApproxLayer(rep, *idx, a.smoke ? 8 : 64, a.seed, tr);
  QueryLayers(rep, traced);
  rep->Add("storage.miss_ratio",
           logical > 0 ? static_cast<double>(misses) / logical : 0.0, "ratio",
           nn_calls);
  rep->Add("storage.pages_per_nn",
           static_cast<double>(misses) /
               static_cast<double>(std::max<size_t>(1, nn_calls)),
           "pages", nn_calls);
  rep->Add("pool.batch_efficiency",
           Median(kb.batch_qps) * Mean(nn_us) * 1e-6 / kPoolThreads,
           "ratio", kb.batch_qps.size());
  const double scan_p50 = ScanLayer(rep, oracle, q1, 200, tr);
  double nn_p50 = 0.0;
  Percentile(nn_us, 50, &nn_p50);
  rep->Add("nncell.vs_scan", scan_p50 > 0 ? nn_p50 / scan_p50 : 0.0, "ratio",
           nn_us.size());
  KernelLayer(rep, pts, q1);
  WalLayer(rep, a.workdir, c.dim, a.wal_group_sync, true, tr);
  ZeroLayers(rep, {{"nncell.insert_ms", "ms"},
                   {"nncell.delete_ms", "ms"},
                   {"nncell.cells_recomputed_per_insert", "count"},
                   {"storage.recover_s", "s"},
                   {"shard.query_us", "us"},
                   {"shard.probes_per_nn", "count"},
                   {"server.ping_us", "us"},
                   {"server.wire_us", "us"},
                   {"server.open_s", "s"},
                   {"server.latency_query_p99_us", "us"},
                   {"server.batch_size_mean", "count"},
                   {"gen.late_p99_ms", "ms"},
                   {"insert_mean_ms", "ms"},
                   {"delete_mean_ms", "ms"},
                   {"open.nn_p50_us", "us"},
                   {"open.nn_p95_us", "us"},
                   {"open.nn_p99_us", "us"}});
}

// ---------------------------------------------------------------------------
// serve-d4: durable 2-shard index behind nncell_server.

// The server daemon as a child process. Its stdout comes back through a
// pipe (for the READY line), its stderr goes to a log in the work dir. The
// destructor kills and reaps it, so no path leaves a server running.
class ServerProcess {
 public:
  ServerProcess() = default;
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ~ServerProcess() { Kill(); }

  bool Start(const std::string& bin, const std::vector<std::string>& args,
             const std::string& log, std::string* err) {
    int fds[2];
    if (pipe(fds) != 0) {
      *err = "pipe failed";
      return false;
    }
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&fa, fds[0]);
    posix_spawn_file_actions_addclose(&fa, fds[1]);
    posix_spawn_file_actions_addopen(&fa, STDERR_FILENO, log.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(bin.c_str()));
    for (const auto& s : args) argv.push_back(const_cast<char*>(s.c_str()));
    argv.push_back(nullptr);
    const int rc =
        posix_spawn(&pid_, bin.c_str(), &fa, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    close(fds[1]);
    if (rc != 0) {
      close(fds[0]);
      pid_ = -1;
      *err = "posix_spawn " + bin + ": " + std::strerror(rc);
      return false;
    }
    out_fd_ = fds[0];
    return WaitReady(err);
  }

  // Peak resident set of the server (VmHWM), in MiB.
  double PeakRssMb() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("VmHWM:", 0) == 0) {
        return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
      }
    }
    return 0.0;
  }

  void Kill() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      int status = 0;
      waitpid(pid_, &status, 0);
      pid_ = -1;
    }
    if (out_fd_ >= 0) {
      close(out_fd_);
      out_fd_ = -1;
    }
  }

 private:
  bool WaitReady(std::string* err) {
    std::string buf;
    const auto start = Clock::now();
    while (SecondsBetween(start, Clock::now()) < 120) {
      struct pollfd p = {out_fd_, POLLIN, 0};
      if (poll(&p, 1, 200) <= 0) continue;
      char chunk[512];
      const ssize_t r = read(out_fd_, chunk, sizeof(chunk));
      if (r <= 0) {
        *err = "server exited before READY";
        return false;
      }
      buf.append(chunk, static_cast<size_t>(r));
      if (buf.find("READY") != std::string::npos &&
          buf.find('\n', buf.find("READY")) != std::string::npos) {
        return true;
      }
    }
    *err = "server not READY after 120 s";
    return false;
  }

  pid_t pid_ = -1;
  int out_fd_ = -1;
};

// Minimal readers for the STATS_JSON document.
double JsonNumber(const std::string& json, const std::string& key) {
  const std::string k = "\"" + key + "\":";
  const size_t p = json.find(k);
  if (p == std::string::npos) return std::nan("");
  return std::strtod(json.c_str() + p + k.size(), nullptr);
}

std::vector<double> JsonArray(const std::string& json, size_t from,
                              const std::string& key) {
  std::vector<double> out;
  const std::string k = "\"" + key + "\":[";
  const size_t p = json.find(k, from);
  if (p == std::string::npos) return out;
  const char* s = json.c_str() + p + k.size();
  while (*s && *s != ']') {
    char* end = nullptr;
    out.push_back(std::strtod(s, &end));
    s = end;
    if (*s == ',') ++s;
  }
  return out;
}

// Percentile p of a registry histogram, as the upper bound of its bucket
// (the last bound when it falls in the overflow bucket).
double HistogramPercentile(const std::string& json, const std::string& name,
                           double p, double* count) {
  const size_t at = json.find("\"" + name + "\":{");
  if (at == std::string::npos) return std::nan("");
  const std::vector<double> le = JsonArray(json, at, "le");
  const std::vector<double> counts = JsonArray(json, at, "counts");
  double total = 0.0;
  for (double c : counts) total += c;
  *count = total;
  double seen = 0.0;
  for (size_t i = 0; i < counts.size(); ++i) {
    seen += counts[i];
    if (seen >= p / 100.0 * total) return i < le.size() ? le[i] : le.back();
  }
  return le.empty() ? std::nan("") : le.back();
}

enum OpType : uint8_t { kQuery = 0, kInsert = 1, kDelete = 2 };

struct Op {
  OpType type = kQuery;
  std::vector<double> point;
  size_t target = 0;  // kDelete: index of the insert it removes
};

// The request mix: zipf(0.99)-skewed queries around preload points with
// jitter, uniform new points for inserts, and deletes of the generator's
// own earlier inserts. Each block of 100 operations holds one insert and
// one delete (of the previous block's insert) at positions drawn with the
// inserts from the fixed write stream.
class MixGenerator {
 public:
  MixGenerator(const Points& preload, uint64_t seed, uint64_t stream)
      : preload_(preload), rng_(seed, stream),
        write_rng_(kDataSeed, stream), zipf_(preload.size(), 0.99),
        perm_(preload.size()) {
    for (size_t i = 0; i < perm_.size(); ++i) perm_[i] = i;
    Rng prng(seed, 12);  // the same hot set for every stream
    for (size_t i = perm_.size(); i > 1; --i) {
      std::swap(perm_[i - 1], perm_[prng.Below(i)]);
    }
  }

  // Index of the operation the last Next() returned.
  size_t last_index() const { return count_ - 1; }

  Op Next() {
    const size_t pos = count_ % 100;
    if (pos == 0) {
      ins_pos_ = write_rng_.Below(100);
      do del_pos_ = write_rng_.Below(100); while (del_pos_ == ins_pos_);
    }
    Op op;
    const size_t index = count_++;
    if (pos == ins_pos_) {
      op.type = kInsert;
      op.point.resize(preload_.dim);
      for (double& x : op.point) x = write_rng_.Uniform();
      prev_insert_ = last_insert_;
      last_insert_ = index;
      return op;
    }
    if (pos == del_pos_ && index >= 100) {
      op.type = kDelete;
      // The insert of the previous block: the latest insert at a lower
      // block than this one.
      op.target = (last_insert_ / 100 < index / 100) ? last_insert_
                                                     : prev_insert_;
      return op;
    }
    op.type = kQuery;
    op.point = QueryPoint();
    return op;
  }

  std::vector<double> QueryPoint() {
    const double* base = preload_[perm_[zipf_.Sample(rng_)]];
    std::vector<double> q(preload_.dim);
    for (size_t i = 0; i < q.size(); ++i) {
      q[i] = std::clamp(base[i] + 0.01 * rng_.Normal(), 0.0, 1.0);
    }
    return q;
  }

 private:
  const Points& preload_;
  Rng rng_, write_rng_;
  Zipf zipf_;
  std::vector<size_t> perm_;
  size_t count_ = 0, ins_pos_ = 0, del_pos_ = 0;
  size_t last_insert_ = 0, prev_insert_ = 0;
};

struct OpResult {
  int64_t sched_ns = 0, send_ns = 0, done_ns = 0;  // steady clock
  bool sent = false, done = false, ok = false;
  uint64_t id = 0;  // kInsert: the id the server assigned
};

void SetRecvTimeout(int fd, int seconds) {
  struct timeval tv = {seconds, 0};
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

bool DecodeOk(const std::string& payload, std::string_view* body) {
  uint8_t status = 0;
  std::string message;
  return nncell::server::DecodeStatusPayload(payload, &status, body, &message)
             .ok() &&
         status == nncell::server::kStatusOk;
}

// Open loop over operations [begin, end): operation i is due at
// t0 + (i - begin) / rate on connection i % 4. A sender thread per
// connection writes each frame at its due time without waiting for
// replies; a receiver thread per connection matches replies by request id.
// Latency runs from the due time, so a stall charges every request queued
// behind it.
void OpenLoop(std::vector<nncell::server::Client>& clients,
              const std::vector<Op>& ops, size_t begin, size_t end,
              double rate, std::vector<OpResult>* results) {
  std::vector<OpResult>& res = *results;
  std::mutex mu;
  std::condition_variable cv;
  const int64_t t0 = Tracer::NowNs() + 20'000'000;
  for (size_t i = begin; i < end; ++i) {
    res[i].sched_ns =
        t0 + static_cast<int64_t>(static_cast<double>(i - begin) / rate * 1e9);
  }
  struct ConnState {
    size_t sent = 0, received = 0;
    bool sender_done = false;
  };
  std::vector<ConnState> cs(clients.size());
  std::vector<std::thread> threads;
  const size_t nc = clients.size();
  for (size_t c = 0; c < nc; ++c) {
    threads.emplace_back([&, c] {  // sender
      for (size_t i = begin + (c + nc - begin % nc) % nc; i < end; i += nc) {
        // Sleep to just short of the due time, then spin: a timed sleep
        // alone wakes 50-200 us late on a busy host, and that lateness
        // would be charged to the server.
        const auto due = Clock::time_point(std::chrono::duration_cast<
                                           Clock::duration>(
            std::chrono::nanoseconds(res[i].sched_ns)));
        std::this_thread::sleep_until(due - std::chrono::microseconds(300));
        while (Clock::now() < due) {
        }
        std::string payload;
        uint8_t type = nncell::server::kReqQuery;
        if (ops[i].type == kDelete) {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait_for(lock, std::chrono::seconds(60),
                      [&] { return res[ops[i].target].done; });
          if (!res[ops[i].target].done || !res[ops[i].target].ok) {
            res[i].done = true;  // cannot delete what was never inserted
            continue;
          }
          nncell::server::EncodeDeletePayload(res[ops[i].target].id, &payload);
          type = nncell::server::kReqDelete;
        } else {
          nncell::server::EncodePointPayload(ops[i].point, &payload);
          if (ops[i].type == kInsert) type = nncell::server::kReqInsert;
        }
        std::string frame;
        nncell::server::EncodeFrame(type, i + 1, payload, &frame);
        {
          std::lock_guard<std::mutex> lock(mu);
          res[i].send_ns = Tracer::NowNs();
          res[i].sent = true;
          ++cs[c].sent;
        }
        cv.notify_all();
        if (!clients[c].SendRaw(frame).ok()) break;
      }
      std::lock_guard<std::mutex> lock(mu);
      cs[c].sender_done = true;
      cv.notify_all();
    });
    threads.emplace_back([&, c] {  // receiver
      for (;;) {
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] {
            return cs[c].received < cs[c].sent || cs[c].sender_done;
          });
          if (cs[c].received >= cs[c].sent && cs[c].sender_done) return;
        }
        nncell::server::FrameHeader h;
        std::string payload;
        const bool got = clients[c].RecvFrame(&h, &payload).ok();
        const int64_t now = Tracer::NowNs();
        std::lock_guard<std::mutex> lock(mu);
        ++cs[c].received;
        if (!got || h.request_id <= begin || h.request_id > end) {
          cs[c].received = cs[c].sent;  // connection unusable
          if (cs[c].sender_done) {
            cv.notify_all();
            return;
          }
          continue;
        }
        OpResult& r = res[h.request_id - 1];
        std::string_view body;
        r.ok = DecodeOk(payload, &body);
        if (r.ok && ops[h.request_id - 1].type == kInsert) {
          r.ok = nncell::server::DecodeInsertResultBody(body, &r.id).ok();
        } else if (r.ok && ops[h.request_id - 1].type == kQuery) {
          nncell::server::WireQueryResult q;
          r.ok = nncell::server::DecodeQueryResultBody(body, &q).ok();
        }
        r.done_ns = now;
        r.done = true;
        cv.notify_all();
      }
    });
  }
  for (auto& t : threads) t.join();
}

// Closed loop: each connection sends its next operation when the previous
// reply arrives. Its generator and its not-yet-deleted inserts persist
// across the slices of one run.
struct Written {
  uint64_t id = 0;
  std::vector<double> point;
  bool inserted = false, deleted = false;  // acknowledged
};

struct ClosedConn {
  MixGenerator gen;
  std::map<size_t, Written> writes;  // by operation index
  size_t ok = 0, failed = 0;
};

void ClosedLoop(std::vector<nncell::server::Client>& clients,
                std::vector<ClosedConn>& conns, double seconds) {
  const auto start = Clock::now();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < conns.size(); ++c) {
    threads.emplace_back([&, c] {
      ClosedConn& cc = conns[c];
      while (SecondsBetween(start, Clock::now()) < seconds) {
        Op op = cc.gen.Next();
        bool ok = false;
        if (op.type == kQuery) {
          ok = clients[c].Query(op.point).ok();
        } else if (op.type == kInsert) {
          auto r = clients[c].Insert(op.point);
          ok = r.ok();
          cc.writes[cc.gen.last_index()] = {ok ? *r : 0, op.point, ok, false};
        } else {
          auto it = cc.writes.find(op.target);
          if (it != cc.writes.end() && it->second.inserted) {
            ok = clients[c].Delete(it->second.id).ok();
            it->second.deleted = ok;
          }
        }
        ++(ok ? cc.ok : cc.failed);
      }
    });
  }
  for (auto& t : threads) t.join();
}

struct LiveSet {
  std::map<uint64_t, std::vector<double>> inserted;  // acked, not deleted
  std::map<uint64_t, std::vector<double>> deleted;   // acked deletes
};

void RunServe(const Args& a, Report* rep, Tracer* tr) {
  const size_t dim = 4;
  const size_t n = a.smoke ? 400 : 8192;
  const size_t setups_wanted = 3;
  const Points preload = UniformPoints(kDataSeed, 11, n, dim);
  const PointSet ps = ToPointSet(preload);
  const Points checkq = UniformPoints(a.seed, 14, kCheckNn, dim);

  // The open loop runs for 70% of the measured time, and long enough for
  // 1000 queries, so nn_p99_us has 10 samples beyond it.
  MixGenerator open_gen(preload, a.seed, 13);
  const size_t n_open = static_cast<size_t>(
      std::ceil(std::max(0.7 * a.seconds * a.open_rate, 1100.0)));
  std::vector<Op> ops;
  for (size_t i = 0; i < n_open; ++i) ops.push_back(open_gen.Next());
  // The maintenance replay continues the same stream to 24 inserts, enough
  // for a supported median.
  std::vector<Op> replay = ops;
  while (std::count_if(replay.begin(), replay.end(),
                       [](const Op& o) { return o.type == kInsert; }) < 24) {
    replay.push_back(open_gen.Next());
  }

  NNCellIndex::DurableOptions dopts;
  dopts.wal_group_sync = a.wal_group_sync;
  nncell::ShardedOptions sopts;
  sopts.num_shards = 2;

  // Set-up, repeated: sharded bulk build into a fresh durable directory,
  // then launch the server on it and wait for READY. The first set-up's
  // directory is kept for the in-process phases.
  std::unique_ptr<ServerProcess> server;
  std::string dir, sock;
  std::vector<double> setups, builds, opens;
  for (size_t s = 0; s < setups_wanted; ++s) {
    server.reset();
    if (s > 1) std::filesystem::remove_all(dir);
    dir = a.workdir + "/index" + std::to_string(s);
    sock = a.workdir + "/s" + std::to_string(s) + ".sock";
    const auto t0 = Clock::now();
    {
      auto idx = ShardedIndex::Open(dir, dim, NNCellOptions(), dopts, sopts);
      if (!idx.ok()) {
        rep->Error("ShardedIndex::Open: " + idx.status().ToString());
        return;
      }
      (*idx)->SetNumThreads(kThreads);
      const int64_t b0 = Tracer::NowNs();
      nncell::Status st = (*idx)->BulkBuild(ps);
      const int64_t b1 = Tracer::NowNs();
      tr->Add("shard.BulkBuild", b0, b1, -1, s);
      builds.push_back(static_cast<double>(b1 - b0) / 1e9);
      if (!st.ok()) {
        rep->Error("sharded BulkBuild: " + st.ToString());
        return;
      }
    }
    const int64_t l0 = Tracer::NowNs();
    server = std::make_unique<ServerProcess>();
    std::string err;
    if (!server->Start(a.server_bin,
                       {dir, "--socket=" + sock, "--threads=4",
                        std::string("--metrics=") + (a.trace ? "1" : "0")},
                       a.workdir + "/server.log", &err)) {
      rep->Error(err);
      return;
    }
    const int64_t l1 = Tracer::NowNs();
    tr->Add("server.launch_to_ready", l0, l1, -1, s);
    opens.push_back(static_cast<double>(l1 - l0) / 1e9);
    setups.push_back(SecondsBetween(t0, Clock::now()));
  }
  rep->Add("setup_s", Median(setups), "s", setups.size());
  auto local = ShardedIndex::Open(a.workdir + "/index0", dim, NNCellOptions(),
                                  dopts, sopts);
  if (!local.ok()) {
    rep->Error("reopen the first set-up: " + local.status().ToString());
    return;
  }
  (*local)->SetNumThreads(kPoolThreads);

  std::vector<nncell::server::Client> clients;
  for (size_t c = 0; c < kConnections; ++c) {
    auto cl = nncell::server::Client::ConnectUnix(sock);
    if (!cl.ok()) {
      rep->Error("connect: " + cl.status().ToString());
      return;
    }
    SetRecvTimeout(cl->fd(), 60);
    clients.push_back(std::move(*cl));
  }
  std::string stats0;
  if (auto s = clients[0].StatsJson(); s.ok()) stats0 = *s;
  {
    MixGenerator warm(preload, a.seed, 15);
    for (size_t i = 0; i < 200; ++i) {
      (void)clients[i % kConnections].Query(warm.QueryPoint());
    }
  }

  // The phases run interleaved, in five cycles of: an in-process slice of
  // 1-NN and 10-NN queries and QueryBatch calls on the first set-up's copy
  // of the index (while the server idles), a closed-loop slice with 4
  // connections, and an open-loop segment at the fixed aggregate rate.
  // Each metric thus samples the whole run; the host's speed drifts by up
  // to 30% over seconds, which a phase run in one block would report as a
  // difference between runs.
  constexpr size_t kCycles = 5;
  std::vector<OpResult> res(ops.size());
  std::vector<ClosedConn> conns;
  for (size_t c = 0; c < kConnections; ++c) {
    conns.push_back(
        ClosedConn{MixGenerator(preload, a.seed, 20 + c), {}, 0, 0});
  }
  const Points qk = UniformPoints(a.seed, 17, 16384, dim);
  const std::vector<PointSet> batches = Batches(a.seed, 18, dim);
  KnnBatchSamples kb;
  std::vector<std::vector<double>> q1;  // drawn as the open loop draws
  {
    MixGenerator g(preload, a.seed, 19);
    for (size_t i = 0; i < 16384; ++i) q1.push_back(g.QueryPoint());
  }
  std::vector<double> nn_us;
  std::vector<Answer> nn_ans;
  size_t nn_i = 0;
  double closed_s = 0.0;
  for (size_t cycle = 0; cycle < kCycles; ++cycle) {
    const auto i0 = Clock::now();
    while (SecondsBetween(i0, Clock::now()) < 0.45 * a.seconds / kCycles ||
           (cycle + 1 == kCycles &&
            (nn_us.size() < kTailMin || kb.knn_us.size() < kTailMin ||
             kb.batch_qps.size() < 11))) {
      RunFor(0.05, 0, [&](size_t) {
        const size_t i = nn_i++;
        rep->Attempt();
        const int64_t t0 = Tracer::NowNs();
        auto r = (*local)->Query(q1[i % q1.size()]);
        const int64_t t1 = Tracer::NowNs();
        tr->Add("shard.Query", t0, t1, -1, i);
        if (!r.ok()) {
          nn_us.push_back(kFailedLatency);
          rep->Fail("ShardedIndex::Query returned an error");
          return;
        }
        nn_us.push_back(static_cast<double>(t1 - t0) / 1e3);
        if (nn_ans.size() < kCheckNn) nn_ans.push_back({r->id, r->dist});
      });
      KnnBatchRound(**local, "shard.KnnQuery", "shard.QueryBatch", qk,
                    batches, 0.05, 0.05, rep, tr, &kb);
    }
    const auto c0 = Clock::now();
    ClosedLoop(clients, conns, 0.2 * a.seconds / kCycles);
    closed_s += SecondsBetween(c0, Clock::now());
    OpenLoop(clients, ops, cycle * ops.size() / kCycles,
             (cycle + 1) * ops.size() / kCycles, a.open_rate, &res);
  }

  std::vector<double> open_us, ins_ms, del_ms, late_ms;
  LiveSet live;
  size_t writes_acked = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    const OpResult& r = res[i];
    rep->Attempt();
    const double lat_us =
        r.ok ? static_cast<double>(r.done_ns - r.sched_ns) / 1e3
             : kFailedLatency;
    if (!r.ok) rep->Fail("open-loop request " + std::to_string(i) + " failed");
    if (r.sent) {
      late_ms.push_back(static_cast<double>(r.send_ns - r.sched_ns) / 1e6);
    }
    if (r.sent && r.done) {
      // Request span from due time to reply; the generator's lateness is
      // its child, so the client layer's self time is send-to-reply.
      const int64_t span = tr->Add(ops[i].type == kQuery    ? "client.Query"
                                   : ops[i].type == kInsert ? "client.Insert"
                                                            : "client.Delete",
                                   r.sched_ns, r.done_ns, -1, i + 1);
      tr->Add("gen.late", r.sched_ns, r.send_ns, span, i + 1);
    }
    switch (ops[i].type) {
      case kQuery:
        open_us.push_back(lat_us);
        break;
      case kInsert:
        ins_ms.push_back(lat_us / 1e3);
        if (r.ok) live.inserted[r.id] = ops[i].point, ++writes_acked;
        break;
      case kDelete:
        del_ms.push_back(lat_us / 1e3);
        if (r.ok) {
          const uint64_t id = res[ops[i].target].id;
          live.deleted[id] = live.inserted[id];
          live.inserted.erase(id);
          ++writes_acked;
        }
        break;
    }
  }
  // The gated 1-NN figures are in-process, as on read-*. The open loop's
  // are per-layer: its tail sits among queries queued behind writes and
  // moves 2-3 times as much as the write durations do, and a served
  // query's latency is mostly thread wake-ups, which co-tenant load
  // stretches several-fold (RATIONALE.md).
  Report::PrintTail("nn_us", nn_us);
  rep->AddPercentile("nn_p50_us", nn_us, 50, "us");
  rep->AddWindowed("nn_p95_us", nn_us, 95, "us");
  rep->AddWindowed("nn_p99_us", nn_us, 99, "us");
  Report::PrintTail("open.nn_us", open_us);
  rep->AddPercentile("open.nn_p50_us", open_us, 50, "us");
  rep->AddPercentile("open.nn_p95_us", open_us, 95, "us");
  rep->AddPercentile("open.nn_p99_us", open_us, 99, "us");
  ReportKnnBatch(rep, kb);
  size_t closed_ok = 0;
  for (const ClosedConn& cc : conns) {
    closed_ok += cc.ok;
    rep->Attempt(cc.ok + cc.failed);
    for (size_t f = 0; f < cc.failed; ++f) {
      rep->Fail("closed-loop request failed");
    }
    for (const auto& [index, w] : cc.writes) {
      if (w.inserted) {
        (w.deleted ? live.deleted : live.inserted)[w.id] = w.point;
      }
      writes_acked += w.inserted + w.deleted;
    }
  }
  rep->Add("capacity_ops_s", static_cast<double>(closed_ok) / closed_s, "1/s",
           closed_ok);

  // Quiescent: conservation, then the final answer check against brute
  // force over the live set the generator tracked.
  Oracle oracle(dim);
  for (size_t i = 0; i < n; ++i) oracle.Insert(i, preload[i]);
  for (const auto& [id, p] : live.inserted) oracle.Insert(id, p.data());
  std::string stats1;
  if (auto s = clients[0].StatsJson(); s.ok()) {
    stats1 = *s;
  } else {
    rep->Error("STATS_JSON: " + s.status().ToString());
    return;
  }
  std::ofstream(a.workdir + "/server_stats.json") << stats1 << "\n";
  const double accepted = JsonNumber(stats1, "accepted");
  const double completed = JsonNumber(stats1, "completed");
  const double rejected = JsonNumber(stats1, "rejected");
  std::printf("info server accepted=%.0f completed=%.0f rejected=%.0f\n",
              accepted, completed, rejected);
  rep->Attempt();
  if (!(accepted == completed + rejected) || rejected != 0) {
    rep->Fail("server conservation: accepted != completed + rejected or "
              "requests were rejected");
  }
  for (size_t i = 0; i < checkq.size(); ++i) {
    rep->Attempt();
    auto r = clients[0].Query(checkq.Get(i));
    if (!r.ok()) {
      rep->Fail("check query: " + r.status().ToString());
      continue;
    }
    CheckAnswers(rep, oracle, checkq[i], {{r->id, r->dist}}, 1,
                 "served 1-NN vs live set");
  }

  // Idle wire figures and server histograms (traced run only).
  MixGenerator idle_gen(preload, a.seed, 16);
  std::vector<std::vector<double>> idle_q;
  for (size_t i = 0; i < 200; ++i) idle_q.push_back(idle_gen.QueryPoint());
  double client_idle_us = 0.0;
  if (tr->enabled()) {
    std::vector<double> ping, cq;
    for (size_t i = 0; i < 200; ++i) {
      const int64_t t0 = Tracer::NowNs();
      nncell::Status st = clients[0].Ping();
      const int64_t t1 = Tracer::NowNs();
      tr->Add("server.Ping", t0, t1, -1, i);
      if (st.ok()) ping.push_back(static_cast<double>(t1 - t0) / 1e3);
      auto r = clients[0].Query(idle_q[i]);
      const int64_t t2 = Tracer::NowNs();
      tr->Add("client.Query", t1, t2, -1, i);
      if (r.ok()) cq.push_back(static_cast<double>(t2 - t1) / 1e3);
    }
    rep->AddPercentile("server.ping_us", ping, 50, "us");
    Percentile(cq, 50, &client_idle_us);
    double count = 0.0;
    const double p99 = HistogramPercentile(
        stats1, nncell::metrics::kServerLatencyQueryUs, 99, &count);
    rep->Add("server.latency_query_p99_us", p99, "us",
             static_cast<size_t>(count));
    const size_t bat = stats1.find(std::string("\"") +
                                   nncell::metrics::kServerBatchSize + "\":{");
    const double bcount = JsonNumber(stats1.substr(bat), "count");
    const double bsum = JsonNumber(stats1.substr(bat), "sum");
    rep->Add("server.batch_size_mean", bcount > 0 ? bsum / bcount : 0.0,
             "count", static_cast<size_t>(bcount));
    const double f0 = JsonNumber(stats0, nncell::metrics::kWalFsyncs);
    const double f1 = JsonNumber(stats1, nncell::metrics::kWalFsyncs);
    rep->Add("storage.wal_fsyncs_per_write",
             writes_acked ? (f1 - f0) / static_cast<double>(writes_acked) : 0.0,
             "count", writes_acked);
    rep->Add("server.open_s", Median(opens), "s", opens.size());
  }
  rep->Add("peak_rss_mb", server->PeakRssMb(), "MiB", 1);

  // Durability: SIGKILL the server, reopen the directory in-process, and
  // require every acknowledged insert at distance 0 and every acknowledged
  // delete gone.
  clients.clear();
  server->Kill();
  const int64_t r0 = Tracer::NowNs();
  ShardedIndex::RecoveryInfo info;
  auto reopened = ShardedIndex::Open(dir, dim, NNCellOptions(), dopts, sopts,
                                     &info);
  const int64_t r1 = Tracer::NowNs();
  tr->Add("shard.Open", r0, r1, -1, 0);
  if (!reopened.ok() || (*reopened)->degraded()) {
    rep->Attempt();
    rep->Fail("reopen after SIGKILL failed");
    return;
  }
  ShardedIndex& idx = **reopened;
  idx.SetNumThreads(kThreads);
  for (const auto& [id, p] : live.inserted) {
    rep->Attempt();
    auto r = idx.Query(p);
    if (!r.ok() || r->dist != 0.0 || r->id != id) {
      rep->Fail("acknowledged insert " + std::to_string(id) +
                " lost after SIGKILL");
    }
  }
  for (const auto& [id, p] : live.deleted) {
    rep->Attempt();
    auto r = idx.Query(p);
    if (idx.IsAlive(id) || !r.ok() || r->dist == 0.0) {
      rep->Fail("acknowledged delete " + std::to_string(id) +
                " came back after SIGKILL");
    }
  }
  std::printf("info durability: %zu inserts present, %zu deletes gone, "
              "%llu router records replayed\n",
              live.inserted.size(), live.deleted.size(),
              static_cast<unsigned long long>(info.router_records_replayed));

  Oracle pre(dim);  // the first set-up's copy holds just the preload
  for (size_t i = 0; i < n; ++i) pre.Insert(i, preload[i]);
  CheckKnnBatch(rep, pre, qk, batches, kb);
  for (size_t i = 0; i < nn_ans.size(); ++i) {
    CheckAnswers(rep, pre, q1[i].data(), {nn_ans[i]}, 1, "sharded 1-NN");
  }

  if (!tr->enabled()) return;

  // Per-layer figures (traced run only).
  rep->Add("nncell.build_s", Median(builds), "s", builds.size());
  rep->Add("storage.recover_s", static_cast<double>(r1 - r0) / 1e9, "s", 1);
  rep->AddPercentile("gen.late_p99_ms", late_ms, 99, "ms");
  // About one insert and one delete per second: too few for a supported
  // median, so the client-observed write cost is a mean.
  rep->Add("insert_mean_ms", Mean(ins_ms), "ms", ins_ms.size());
  rep->Add("delete_mean_ms", Mean(del_ms), "ms", del_ms.size());
  {
    const auto before = idx.Stats().probes;
    std::vector<double> us;
    for (size_t i = 0; i < idle_q.size(); ++i) {
      const int64_t t0 = Tracer::NowNs();
      auto r = idx.Query(idle_q[i]);
      const int64_t t1 = Tracer::NowNs();
      tr->Add("shard.Query", t0, t1, -1, i);
      if (r.ok()) us.push_back(static_cast<double>(t1 - t0) / 1e3);
    }
    const auto after = idx.Stats().probes;
    double probes = 0.0;
    for (size_t s = 0; s < after.size(); ++s) {
      probes += static_cast<double>(after[s] - before[s]);
    }
    double shard_us = 0.0;
    rep->AddPercentile("shard.query_us", us, 50, "us");
    Percentile(us, 50, &shard_us);
    rep->Add("shard.probes_per_nn", probes / static_cast<double>(us.size()),
             "count", us.size());
    rep->Add("server.wire_us", client_idle_us - shard_us, "us", us.size());
    rep->Add("pool.batch_efficiency",
             Median(kb.batch_qps) * Mean(us) * 1e-6 / kPoolThreads,
             "ratio", kb.batch_qps.size());
  }
  reopened->reset();

  // Maintenance, replayed in process: a plain durable index over the same
  // preload takes the open loop's writes in order.
  const std::string plain_dir = a.workdir + "/plain";
  NNCellOptions po;
  po.parallel.num_threads = kThreads;
  auto plain = NNCellIndex::Open(plain_dir, dim, po, dopts);
  if (!plain.ok() || !(*plain)->BulkBuild(ps).ok()) {
    rep->Error("plain durable index for the maintenance replay");
    return;
  }
  NNCellIndex& pidx = **plain;
  std::vector<double> rins_ms, rdel_ms, recomputed;
  std::map<size_t, uint64_t> plain_ids;
  for (size_t i = 0; i < replay.size(); ++i) {
    if (replay[i].type == kQuery) continue;
    const size_t before = pidx.build_stats().cells_recomputed;
    const int64_t t0 = Tracer::NowNs();
    if (replay[i].type == kInsert) {
      auto r = pidx.Insert(replay[i].point);
      const int64_t t1 = Tracer::NowNs();
      tr->Add("nncell.Insert", t0, t1, -1, i + 1);
      if (!r.ok()) {
        rep->Error("replayed insert: " + r.status().ToString());
        return;
      }
      plain_ids[i] = *r;
      rins_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
      recomputed.push_back(
          static_cast<double>(pidx.build_stats().cells_recomputed - before));
    } else if (plain_ids.count(replay[i].target)) {
      nncell::Status st = pidx.Delete(plain_ids[replay[i].target]);
      const int64_t t1 = Tracer::NowNs();
      tr->Add("nncell.Delete", t0, t1, -1, i + 1);
      if (!st.ok()) {
        rep->Error("replayed delete: " + st.ToString());
        return;
      }
      rdel_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    }
  }
  rep->AddPercentile("nncell.insert_ms", rins_ms, 50, "ms");
  rep->AddPercentile("nncell.delete_ms", rdel_ms, 50, "ms");
  rep->Add("nncell.cells_recomputed_per_insert", Mean(recomputed), "count",
           recomputed.size());
  ApproxLayer(rep, pidx, a.smoke ? 8 : 64, a.seed, tr);
  TracedQueries traced;
  for (size_t i = 0; i < 2000; ++i) {
    NNCellIndex::QueryResult r;
    (void)TracedQuery(pidx, ops[i % ops.size()].type == kQuery
                                ? ops[i % ops.size()].point.data()
                                : idle_q[i % idle_q.size()].data(),
                      i, tr, &traced, &r);
  }
  QueryLayers(rep, traced);
  rep->Add("storage.miss_ratio",
           traced.logical > 0 ? traced.physical / traced.logical : 0.0,
           "ratio", traced.n);
  rep->Add("storage.pages_per_nn",
           traced.physical / static_cast<double>(std::max<size_t>(1, traced.n)),
           "pages", traced.n);
  Points scanq;
  scanq.dim = dim;
  for (const auto& q : idle_q) {
    scanq.data.insert(scanq.data.end(), q.begin(), q.end());
  }
  const double scan_p50 = ScanLayer(rep, pre, scanq, 200, tr);
  double plain_p50 = 0.0;
  Percentile(traced.latency_us, 50, &plain_p50);
  rep->Add("nncell.vs_scan", scan_p50 > 0 ? plain_p50 / scan_p50 : 0.0,
           "ratio", traced.n);
  KernelLayer(rep, preload, scanq);
  WalLayer(rep, a.workdir, dim, a.wal_group_sync, false, tr);
}

// ---------------------------------------------------------------------------
// Self-tests of the benchmark's own logic.

int SelfTest() {
  int failures = 0;
  auto expect = [&failures](bool ok, const char* what) {
    std::printf("%s %s\n", ok ? "PASS" : "FAIL", what);
    if (!ok) ++failures;
  };

  // Percentile rule.
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  double x = 0.0;
  expect(Percentile(v, 99, &x) && x == 990.0, "p99 of 1..1000 is 990");
  expect(Percentile(v, 50, &x) && x == 500.0, "p50 of 1..1000 is 500");
  expect(!Percentile(std::vector<double>(v.begin(), v.begin() + 999), 99, &x),
         "p99 refused with 999 samples (9 beyond)");
  expect(Supports(100, 90) && !Supports(99, 90), "p90 needs 100 samples");
  expect(Supports(20, 50) && !Supports(19, 50), "p50 needs 20 samples");
  expect(HighestSupportedPercentile(1000) == 99.0,
         "highest supported percentile of 1000 samples is p99");
  expect(HighestSupportedPercentile(10000) == 99.9,
         "highest supported percentile of 10000 samples is p99.9");
  expect(HighestSupportedPercentile(20) == 50.0,
         "highest supported percentile of 20 samples is p50");
  expect(HighestSupportedPercentile(19) == 0.0,
         "19 samples support no percentile");
  {
    Report r;
    r.AddPercentile("x_us", std::vector<double>(500, 1.0), 99, "us");
    expect(!r.ok(), "a metric the sample count cannot support fails the run");
  }
  {
    // Five windows of 1..1100; a stall multiplies the second window by 10.
    std::vector<double> w;
    for (int k = 0; k < 5; ++k) {
      for (int i = 1; i <= 1100; ++i) w.push_back(k == 1 ? 10.0 * i : i);
    }
    expect(WindowedPercentile(w, 99, 1100, &x) && x == 1089.0,
           "a stall in one window leaves the windowed p99 unchanged");
    expect(!WindowedPercentile(std::vector<double>(1099, 1.0), 99, 1100, &x),
           "the windowed p99 needs one full window");
  }

  // Oracle: an index answer passes; injected wrong answers trip it.
  {
    const size_t dim = 4;
    const Points pts = UniformPoints(7, 1, 500, dim);
    const Points qs = UniformPoints(7, 2, 20, dim);
    nncell::PageFile file(4096);
    nncell::BufferPool pool(&file, 256);
    NNCellIndex idx(&pool, dim, NNCellOptions());
    expect(idx.BulkBuild(ToPointSet(pts)).ok(), "oracle test index builds");
    Oracle oracle(dim);
    for (size_t i = 0; i < pts.size(); ++i) oracle.Insert(i, pts[i]);
    bool all_pass = true, all_trip_dist = true, all_trip_id = true,
         knn_pass = true, knn_trip = true;
    for (size_t i = 0; i < qs.size(); ++i) {
      auto r = idx.Query(qs[i]);
      auto k = idx.KnnQuery(qs[i], 10);
      if (!r.ok() || !k.ok()) {
        all_pass = false;
        continue;
      }
      std::string why;
      std::vector<Answer> got = {{r->id, r->dist}};
      all_pass &= SameAnswers(got, oracle.Nn(qs[i]), oracle.DistOf(qs[i]),
                              &why);
      std::vector<Answer> bad = got;
      bad[0].dist = std::nextafter(bad[0].dist, 2.0);
      all_trip_dist &= !SameAnswers(bad, oracle.Nn(qs[i]),
                                    oracle.DistOf(qs[i]), &why);
      bad = got;
      bad[0].id = (bad[0].id + 1) % pts.size();
      all_trip_id &= !SameAnswers(bad, oracle.Nn(qs[i]), oracle.DistOf(qs[i]),
                                  &why);
      const std::vector<Answer> kgot = ToAnswers(*k);
      knn_pass &= SameAnswers(kgot, oracle.Knn(qs[i], 10),
                              oracle.DistOf(qs[i]), &why);
      std::vector<Answer> kbad = kgot;
      std::swap(kbad[3], kbad[4]);
      knn_trip &= !SameAnswers(kbad, oracle.Knn(qs[i], 10),
                               oracle.DistOf(qs[i]), &why);
    }
    expect(all_pass, "1-NN answers match the scan oracle");
    expect(knn_pass, "10-NN answers match the scan oracle");
    expect(all_trip_dist, "oracle trips on a distance off by one ulp");
    expect(all_trip_id, "oracle trips on a wrong id at the right distance");
    expect(knn_trip, "oracle trips on two swapped 10-NN ranks");

    // A genuine tie: two points equidistant from the query may swap ids.
    Oracle tie(1);
    const double p0[1] = {0.25}, p1[1] = {0.75}, q[1] = {0.5};
    tie.Insert(0, p0);
    tie.Insert(1, p1);
    std::string why;
    const std::vector<Answer> want = tie.Nn(q);
    const std::vector<Answer> other = {{want[0].id ^ 1u, want[0].dist}};
    expect(SameAnswers(other, want, tie.DistOf(q), &why),
           "oracle accepts the other id of an exact tie");
  }

  // Generator: the seed changes the inputs and nothing else.
  {
    const Points a1 = UniformPoints(1, 1, 100, 4);
    const Points a2 = UniformPoints(1, 1, 100, 4);
    const Points b = UniformPoints(2, 1, 100, 4);
    expect(a1.data == a2.data, "same seed, same points");
    expect(a1.data != b.data, "different seed, different points");
    MixGenerator g1(a1, 1, 13), g2(a1, 2, 13);
    size_t ins1 = 0, del1 = 0, ins2 = 0, del2 = 0;
    bool differ = false, targets_ok = true, same_writes = true;
    std::vector<OpType> types;
    for (size_t i = 0; i < 1000; ++i) {
      const Op o1 = g1.Next(), o2 = g2.Next();
      types.push_back(o1.type);
      ins1 += o1.type == kInsert;
      del1 += o1.type == kDelete;
      ins2 += o2.type == kInsert;
      del2 += o2.type == kDelete;
      if (o1.type == kQuery) differ |= o1.point != o2.point;
      if (o1.type != kQuery) {
        same_writes &= o1.type == o2.type && o1.point == o2.point &&
                       o1.target == o2.target;
      }
      if (o1.type == kDelete) {
        targets_ok &= o1.target / 100 + 1 == i / 100 &&
                      types[o1.target] == kInsert;
      }
    }
    expect(differ, "different seed, different queries");
    expect(same_writes, "the write stream is part of the fixed data set");
    expect(ins1 == 10 && ins2 == 10 && del1 == 9 && del2 == 9,
           "mix holds 1 insert and 1 delete per 100 operations");
    expect(targets_ok, "each delete removes the previous block's insert");
  }
  std::printf("selftest: %d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args a;
  if (!ParseArgs(argc, argv, &a)) {
    std::fprintf(stderr, "usage: see the header of perfbench/main.cc\n");
    return 2;
  }
  if (a.selftest) return SelfTest();
  g_inject_wrong_answer = a.inject_wrong_answer;
  // The untraced run keeps the metrics registry off, as a deployment
  // would; the traced run turns it on for the per-layer counters.
  nncell::metrics::Registry::SetEnabled(a.trace);
  std::error_code ec;
  std::filesystem::remove_all(a.workdir, ec);
  std::filesystem::create_directories(a.workdir, ec);
  Tracer tr(a.trace);
  Report rep;
  std::printf("info workload=%s seed=%llu seconds=%g trace=%d kernels=%s\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace ? 1 : 0, nncell::kernels::ActiveLevelName());
  if (a.workload == "read-d4") {
    RunRead(a, ReadConfig{4, a.smoke ? 1024u : 16384u, 64, 2}, &rep, &tr);
  } else if (a.workload == "read-d16") {
    RunRead(a, ReadConfig{16, a.smoke ? 256u : 4096u, 4096, 2}, &rep, &tr);
  } else if (a.workload == "serve-d4") {
    RunServe(a, &rep, &tr);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 a.workload.c_str());
    return 2;
  }
  if (a.trace) {
    rep.Add("fail_ratio",
            static_cast<double>(rep.failed()) /
                static_cast<double>(std::max<size_t>(1, rep.attempted())),
            "fraction", rep.attempted());
    const std::vector<Span> spans = tr.Snapshot();
    for (const LayerTime& t : SelfTimes(spans)) {
      std::printf("layer %-8s self_ms=%12.3f total_ms=%12.3f spans=%zu\n",
                  t.layer.c_str(), t.self_ms, t.total_ms, t.spans);
    }
    if (!a.spans_out.empty()) {
      std::ofstream out(a.spans_out);
      const size_t limit = std::min<size_t>(spans.size(), 50000);
      out << "{\"spans\": " << spans.size() << ", \"written\": " << limit
          << "}\n";
      for (size_t i = 0; i < limit; ++i) {
        const Span& s = spans[i];
        out << "{\"name\": \"" << s.name << "\", \"start_ns\": " << s.start_ns
            << ", \"end_ns\": " << s.end_ns << ", \"parent\": " << s.parent
            << ", \"request\": " << s.request << "}\n";
      }
    }
  }
  rep.PrintJson();
  return rep.ok() ? 0 : 1;
}
