// Microbenchmarks of the linear-programming substrate: active-set solves
// of cell-approximation LPs as a function of dimensionality and
// constraint count. These dominate NN-cell index construction.

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "geom/bisector.h"
#include "geom/cell_approximator.h"
#include "lp/active_set_solver.h"

namespace nncell {
namespace {

// One MBR face: maximize x_0 over the NN-cell of a random owner against
// `constraints` random neighbors.
void BM_CellFaceLp(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  const size_t constraints = static_cast<size_t>(state.range(1));
  Rng rng(1234);
  std::vector<double> owner(dim);
  for (auto& v : owner) v = rng.NextDouble();
  std::vector<std::vector<double>> others(constraints,
                                          std::vector<double>(dim));
  std::vector<const double*> ptrs;
  for (auto& o : others) {
    for (auto& v : o) v = rng.NextDouble();
    ptrs.push_back(o.data());
  }
  LpProblem problem =
      BuildCellProblem(owner.data(), ptrs, dim, HyperRect::UnitCube(dim));
  std::vector<double> c(dim, 0.0);
  c[0] = 1.0;
  ActiveSetSolver solver;
  for (auto _ : state) {
    LpResult r = solver.Maximize(problem, c, owner);
    benchmark::DoNotOptimize(r.objective);
  }
}
BENCHMARK(BM_CellFaceLp)
    ->Args({4, 50})
    ->Args({4, 500})
    ->Args({8, 500})
    ->Args({16, 500})
    ->Args({16, 2000});

// The full per-cell pipeline (ray-shoot session + 2d face solves), cold
// vs optimized, cycling through the owners of one point set.
// Beyond wall time the counters report the hot-path health metrics:
//   warm_hit_rate  -- fraction of faces answered without a cold solve
//                     (certified-skip or warm-started),
//   iters_per_face -- LP iterations averaged over all faces (skipped
//                     faces count as 0, which is the point).
void BM_CellMbrPipeline(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  const size_t n = static_cast<size_t>(state.range(1));
  const bool optimized = state.range(2) != 0;
  Rng rng(1234);
  PointSet pts(dim);
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> p(dim);
    for (auto& v : p) v = rng.NextDouble();
    pts.Add(p);
  }
  CellApproxOptions opts;
  opts.warm_start = optimized;
  CellApproximator approx(dim, HyperRect::UnitCube(dim), LpOptions(), opts);
  ApproxStats stats;
  size_t owner = 0;
  std::vector<const double*> others;
  for (auto _ : state) {
    others.clear();
    for (size_t i = 0; i < n; ++i) {
      if (i != owner) others.push_back(pts[i]);
    }
    HyperRect mbr = approx.ApproximateMbr(pts[owner], others, &stats);
    benchmark::DoNotOptimize(mbr);
    owner = (owner + 1) % n;
  }
  const double faces = static_cast<double>(stats.skipped_faces +
                                           stats.warm_faces +
                                           stats.cold_faces);
  state.counters["warm_hit_rate"] =
      faces > 0.0 ? static_cast<double>(stats.skipped_faces +
                                        stats.warm_faces) / faces
                  : 0.0;
  state.counters["iters_per_face"] =
      faces > 0.0 ? static_cast<double>(stats.lp_iterations) / faces : 0.0;
}
BENCHMARK(BM_CellMbrPipeline)
    ->Args({4, 500, 0})
    ->Args({4, 500, 1})
    ->Args({8, 500, 0})
    ->Args({8, 500, 1})
    ->Args({16, 500, 0})
    ->Args({16, 500, 1})
    ->Args({16, 2000, 1});

void BM_PhaseOneFeasibility(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  Rng rng(99);
  LpProblem problem(dim);
  problem.AddBoxConstraints(HyperRect::UnitCube(dim));
  std::vector<double> center(dim, 0.5);
  for (int i = 0; i < 50; ++i) {
    std::vector<double> a(dim);
    for (auto& v : a) v = rng.NextGaussian();
    double b = 0.0;
    for (size_t k = 0; k < dim; ++k) b += a[k] * center[k];
    problem.AddConstraint(a, b + rng.NextDouble(0.01, 0.3));
  }
  std::vector<double> hint(dim, 0.95);
  for (auto _ : state) {
    auto r = FindFeasiblePoint(problem, hint);
    benchmark::DoNotOptimize(r.ok());
  }
}
BENCHMARK(BM_PhaseOneFeasibility)->Arg(4)->Arg(8)->Arg(16);

}  // namespace
}  // namespace nncell

BENCHMARK_MAIN();
