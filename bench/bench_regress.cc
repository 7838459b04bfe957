// LP hot-path regression bench: full NN-cell BulkBuild runs comparing the
// cold solver configuration ("baseline": every face solved from the cold
// start) against the optimized pipeline ("optimized": ray-shoot warm
// starts). Emits one JSON document with wall-clock and the deterministic
// LP counters; `tools/bench_gate.py run lp` gates changes on the committed
// BENCH_lp.json baseline.
//
// The counters (lp_runs, lp_iterations, constraint_rows and the face-kind
// breakdown) are a pure function of the config and seed, so
// the regression gate is machine-independent; wall-clock is recorded for
// the human reader and the speedup headline, not for gating.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "data/generators.h"
#include "nncell/nncell_index.h"

namespace nncell {
namespace {

struct RegressConfig {
  const char* name;
  ApproxAlgorithm algorithm;
  size_t dim;
  size_t n;
  bool quick;  // included in --quick (CI smoke) runs
};

// The quick rows double as the CI smoke set; the committed baseline always
// contains the full set, so a quick run can gate against it by name.
const RegressConfig kConfigs[] = {
    {"Correct_d4_n500", ApproxAlgorithm::kCorrect, 4, 500, true},
    {"Correct_d16_n500", ApproxAlgorithm::kCorrect, 16, 500, true},
    {"Sphere_d8_n500", ApproxAlgorithm::kSphere, 8, 500, true},
    {"Correct_d4_n2000", ApproxAlgorithm::kCorrect, 4, 2000, false},
    {"Correct_d8_n2000", ApproxAlgorithm::kCorrect, 8, 2000, false},
    {"Correct_d16_n2000", ApproxAlgorithm::kCorrect, 16, 2000, false},
    {"Sphere_d16_n2000", ApproxAlgorithm::kSphere, 16, 2000, false},
    {"NNDirection_d16_n2000", ApproxAlgorithm::kNNDirection, 16, 2000, false},
};

struct ModeResult {
  double build_seconds = 0.0;
  ApproxStats stats;
};

ModeResult RunBuild(const PointSet& pts, const RegressConfig& cfg,
                    bool optimized) {
  NNCellOptions options;
  options.algorithm = cfg.algorithm;
  options.approx.warm_start = optimized;

  // The LP counters are a pure function of the config; wall-clock is not,
  // so take the best of several builds to damp scheduler/frequency noise.
  constexpr int kReps = 3;
  ModeResult r;
  r.build_seconds = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < kReps; ++rep) {
    bench::BenchConfig bc;
    auto t0 = std::chrono::steady_clock::now();
    bench::NNCellSetup setup = bench::BuildNNCell(pts, options, bc);
    auto t1 = std::chrono::steady_clock::now();
    r.build_seconds = std::min(
        r.build_seconds, std::chrono::duration<double>(t1 - t0).count());
    r.stats = setup.index->build_stats().approx;
  }
  return r;
}

void PrintMode(FILE* out, const char* key, const ModeResult& r) {
  const ApproxStats& s = r.stats;
  std::fprintf(out,
               "      \"%s\": {\"build_seconds\": %.6f, \"lp_runs\": %zu, "
               "\"lp_iterations\": %zu, \"lp_failures\": %zu, "
               "\"constraint_rows\": %zu, \"skipped_faces\": %zu, "
               "\"warm_faces\": %zu, \"cold_faces\": %zu}",
               key, r.build_seconds, s.lp_runs, s.lp_iterations, s.lp_failures,
               s.constraint_rows, s.skipped_faces, s.warm_faces, s.cold_faces);
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

  FILE* out = stdout;
  if (!out_path.empty()) {
    out = std::fopen(out_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
      return 1;
    }
  }

  std::fprintf(out, "{\n  \"schema\": 1,\n  \"seed\": 42,\n");
  std::fprintf(out, "  \"mode\": \"%s\",\n", quick ? "quick" : "full");
  std::fprintf(out, "  \"configs\": [\n");
  bool first = true;
  for (const RegressConfig& cfg : kConfigs) {
    if (quick && !cfg.quick) continue;
    PointSet pts = GenerateUniform(cfg.n, cfg.dim, /*seed=*/42);
    ModeResult base = RunBuild(pts, cfg, /*optimized=*/false);
    ModeResult opt = RunBuild(pts, cfg, /*optimized=*/true);

    double speedup = opt.build_seconds > 0.0
                         ? base.build_seconds / opt.build_seconds
                         : 0.0;
    double iter_reduction =
        opt.stats.lp_iterations > 0
            ? static_cast<double>(base.stats.lp_iterations) /
                  static_cast<double>(opt.stats.lp_iterations)
            : 0.0;

    if (!first) std::fprintf(out, ",\n");
    first = false;
    std::fprintf(out, "    {\n      \"name\": \"%s\",\n", cfg.name);
    std::fprintf(out,
                 "      \"algorithm\": \"%s\", \"dim\": %zu, \"n\": %zu,\n",
                 ApproxAlgorithmName(cfg.algorithm), cfg.dim, cfg.n);
    PrintMode(out, "baseline", base);
    std::fprintf(out, ",\n");
    PrintMode(out, "optimized", opt);
    std::fprintf(out, ",\n");
    std::fprintf(out,
                 "      \"wall_speedup\": %.3f, \"iteration_reduction\": "
                 "%.3f\n    }",
                 speedup, iter_reduction);

    std::fprintf(stderr,
                 "%-24s wall %.3fs -> %.3fs (%.2fx)  iters %zu -> %zu "
                 "(%.2fx)  faces skip/warm/cold %zu/%zu/%zu\n",
                 cfg.name, base.build_seconds, opt.build_seconds, speedup,
                 base.stats.lp_iterations, opt.stats.lp_iterations,
                 iter_reduction, opt.stats.skipped_faces, opt.stats.warm_faces,
                 opt.stats.cold_faces);
  }
  std::fprintf(out, "\n  ]\n}\n");
  if (out != stdout) std::fclose(out);
  return 0;
}

}  // namespace
}  // namespace nncell

int main(int argc, char** argv) { return nncell::Main(argc, argv); }
