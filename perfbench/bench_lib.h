// Pieces of the layered benchmark that carry its own logic and are
// self-tested (`perfbench --selftest`): the seeded input generator,
// the percentile rule, the answer oracle comparison and the span tracer.
#ifndef PERFBENCH_BENCH_LIB_H_
#define PERFBENCH_BENCH_LIB_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------------------
// Inputs. Every generated value derives from (seed, stream) only, so the
// same seed gives the same points, queries and operation mix, and the
// program under test never sees anything but the generated coordinates.

class Rng {
 public:
  Rng(uint64_t seed, uint64_t stream) : state_(Mix(seed ^ Mix(stream + 1))) {}

  uint64_t Next() {  // splitmix64
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  // Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  // Uniform in [0, n).
  uint64_t Below(uint64_t n) { return Next() % n; }
  double Normal() {
    double u1 = 0.0;
    while (u1 <= 0.0) u1 = Uniform();
    const double u2 = Uniform();
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  }

 private:
  static uint64_t Mix(uint64_t x) {
    x = (x ^ (x >> 33)) * 0xff51afd7ed558ccdull;
    x = (x ^ (x >> 33)) * 0xc4ceb9fe1a85ec53ull;
    return x ^ (x >> 33);
  }
  uint64_t state_;
};

// Row-major points, `dim` coordinates each.
struct Points {
  size_t dim = 0;
  std::vector<double> data;
  size_t size() const { return dim == 0 ? 0 : data.size() / dim; }
  const double* operator[](size_t i) const { return data.data() + i * dim; }
  std::vector<double> Get(size_t i) const {
    return std::vector<double>((*this)[i], (*this)[i] + dim);
  }
};

inline Points UniformPoints(uint64_t seed, uint64_t stream, size_t n,
                            size_t dim) {
  Rng rng(seed, stream);
  Points p;
  p.dim = dim;
  p.data.resize(n * dim);
  for (double& x : p.data) x = rng.Uniform();
  return p;
}

// Zipf(theta) over ranks [0, n): rank r has weight 1 / (r + 1)^theta.
class Zipf {
 public:
  Zipf(size_t n, double theta) : cdf_(n) {
    double sum = 0.0;
    for (size_t r = 0; r < n; ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r + 1), theta);
      cdf_[r] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  size_t Sample(Rng& rng) const {
    const double u = rng.Uniform();
    const size_t r = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return std::min(r, cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

// ---------------------------------------------------------------------------
// Percentile rule. A percentile p of n samples is the nearest-rank value
// sorted[ceil(p/100 * n) - 1]; it is reported only when at least
// kTailSamples samples lie beyond it, so a tail figure always rests on more
// than a handful of observations.

inline constexpr size_t kTailSamples = 10;

inline size_t NearestRank(size_t n, double p) {
  double r = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return static_cast<size_t>(std::max(1.0, r));
}

inline size_t SamplesBeyond(size_t n, double p) {
  return n == 0 ? 0 : n - NearestRank(n, p);
}

// True when n samples support percentile p.
inline bool Supports(size_t n, double p) {
  return n > 0 && SamplesBeyond(n, p) >= kTailSamples;
}

// The highest of the usual reporting percentiles that n samples support;
// 0 when n cannot support even the median.
inline double HighestSupportedPercentile(size_t n) {
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (Supports(n, p)) return p;
  }
  return 0.0;
}

// Writes percentile p of `samples` to *out, or returns false when the
// sample count cannot support it.
inline bool Percentile(std::vector<double> samples, double p, double* out) {
  if (!Supports(samples.size(), p)) return false;
  const size_t k = NearestRank(samples.size(), p) - 1;
  std::nth_element(samples.begin(), samples.begin() + static_cast<long>(k),
                   samples.end());
  *out = samples[k];
  return true;
}

inline double Median(std::vector<double> v);

// Percentile p over windows of consecutive samples: the samples are cut
// into as many equal windows of at least `window` samples as they fill,
// p is taken in each, and the median over windows is returned. A stall of
// the host then moves one window, not the figure, while a tail the program
// itself produces shows in every window. False when there is no full
// window or a window cannot support p.
inline bool WindowedPercentile(const std::vector<double>& samples, double p,
                               size_t window, double* out) {
  const size_t windows = samples.size() / window;
  if (windows == 0) return false;
  std::vector<double> per_window;
  for (size_t w = 0; w < windows; ++w) {
    const auto lo = samples.begin() +
                    static_cast<long>(w * samples.size() / windows);
    const auto hi = samples.begin() +
                    static_cast<long>((w + 1) * samples.size() / windows);
    double x = 0.0;
    if (!Percentile(std::vector<double>(lo, hi), p, &x)) return false;
    per_window.push_back(x);
  }
  *out = Median(per_window);
  return true;
}

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

// ---------------------------------------------------------------------------
// Answer oracle. Distances must match the oracle bit for bit at every rank.
// An id may differ from the oracle's only in a tie: the answered point must
// itself lie at the reported distance from the query, as `dist_of(id)`
// recomputes it (NaN for an id the oracle does not hold).

struct Answer {
  uint64_t id = 0;
  double dist = 0.0;
};

inline bool SameAnswers(const std::vector<Answer>& got,
                        const std::vector<Answer>& want,
                        const std::function<double(uint64_t)>& dist_of,
                        std::string* why) {
  char buf[256];
  if (got.size() != want.size()) {
    std::snprintf(buf, sizeof(buf), "answer has %zu entries, oracle %zu",
                  got.size(), want.size());
    *why = buf;
    return false;
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (!(got[i].dist == want[i].dist)) {
      std::snprintf(buf, sizeof(buf),
                    "rank %zu: distance %.17g, oracle %.17g (id %llu vs %llu)",
                    i, got[i].dist, want[i].dist,
                    static_cast<unsigned long long>(got[i].id),
                    static_cast<unsigned long long>(want[i].id));
      *why = buf;
      return false;
    }
    if (got[i].id == want[i].id) continue;
    const bool tie = dist_of(got[i].id) == got[i].dist;
    if (!tie) {
      std::snprintf(buf, sizeof(buf), "rank %zu: id %llu, oracle id %llu", i,
                    static_cast<unsigned long long>(got[i].id),
                    static_cast<unsigned long long>(want[i].id));
      *why = buf;
      return false;
    }
  }
  for (size_t i = 0; i < got.size(); ++i) {
    for (size_t j = i + 1; j < got.size(); ++j) {
      if (got[i].id == got[j].id) {
        *why = "answer repeats an id";
        return false;
      }
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Spans. The traced run records one span around each call the benchmark
// makes into a module's public functions: name "<layer>.<call>", start,
// end, parent span and request id. Spans stay in memory and are written
// out when the run ends. A layer's self time is its spans' durations minus
// the part of each interval its child spans cover.

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;
  uint64_t request = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }
  bool enabled() const { return enabled_; }

  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
  }

  // Records a finished span and returns its index (-1 when disabled). A
  // parent is recorded before its children, which name it by this index.
  int64_t Add(const char* name, int64_t start_ns, int64_t end_ns,
              int64_t parent, uint64_t request) {
    if (!enabled_) return -1;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, start_ns, end_ns, parent, request});
    return static_cast<int64_t>(spans_.size()) - 1;
  }

  std::vector<Span> Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// Per-layer totals derived from the spans.
struct LayerTime {
  std::string layer;
  double self_ms = 0.0;
  double total_ms = 0.0;
  size_t spans = 0;
};

inline std::string LayerOf(const char* name) {
  std::string s(name);
  const size_t dot = s.find('.');
  return dot == std::string::npos ? s : s.substr(0, dot);
}

// Self time per layer: each span's duration minus the union of its
// children's intervals (clipped to the span).
inline std::vector<LayerTime> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<size_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t p = spans[i].parent;
    if (p >= 0 && static_cast<size_t>(p) < spans.size()) {
      children[static_cast<size_t>(p)].push_back(i);
    }
  }
  std::vector<LayerTime> out;
  auto slot = [&out](const std::string& layer) -> LayerTime& {
    for (LayerTime& t : out) {
      if (t.layer == layer) return t;
    }
    out.push_back(LayerTime{layer, 0.0, 0.0, 0});
    return out.back();
  };
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::vector<std::pair<int64_t, int64_t>> iv;
    for (size_t c : children[i]) {
      int64_t a = std::max(spans[c].start_ns, s.start_ns);
      int64_t b = std::min(spans[c].end_ns, s.end_ns);
      if (b > a) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0, cur_a = 0, cur_b = -1;
    for (const auto& [a, b] : iv) {
      if (a > cur_b) {
        if (cur_b > cur_a) covered += cur_b - cur_a;
        cur_a = a;
        cur_b = b;
      } else {
        cur_b = std::max(cur_b, b);
      }
    }
    if (cur_b > cur_a) covered += cur_b - cur_a;
    const int64_t dur = s.end_ns - s.start_ns;
    LayerTime& t = slot(LayerOf(s.name));
    t.self_ms += static_cast<double>(dur - covered) / 1e6;
    t.total_ms += static_cast<double>(dur) / 1e6;
    ++t.spans;
  }
  std::sort(out.begin(), out.end(), [](const LayerTime& a, const LayerTime& b) {
    return a.layer < b.layer;
  });
  return out;
}

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_LIB_H_
