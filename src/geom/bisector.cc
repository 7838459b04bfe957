#include "geom/bisector.h"

#include "common/distance.h"

namespace nncell {

void AddBisectorConstraint(const double* owner, const double* other,
                           size_t dim, LpProblem* problem) {
  double rhs = L2NormSq(other, dim) - L2NormSq(owner, dim);
  double* row = problem->AppendRow(rhs);
  for (size_t i = 0; i < dim; ++i) row[i] = 2.0 * (other[i] - owner[i]);
}

LpProblem BuildCellProblem(const double* owner,
                           const std::vector<const double*>& candidates,
                           size_t dim, const HyperRect& space) {
  LpProblem problem(dim);
  BuildCellProblemInto(owner, candidates, dim, space, &problem);
  return problem;
}

void BuildCellProblemInto(const double* owner,
                          const std::vector<const double*>& candidates,
                          size_t dim, const HyperRect& space,
                          LpProblem* problem) {
  problem->Reserve(candidates.size() + 2 * dim);
  problem->AddBoxConstraints(space);
  for (const double* other : candidates) {
    AddBisectorConstraint(owner, other, dim, problem);
  }
}

bool IsInCell(const double* x, const double* owner,
              const std::vector<const double*>& candidates, size_t dim) {
  double d_own = L2DistSq(x, owner, dim);
  for (const double* other : candidates) {
    if (L2DistSq(x, other, dim) < d_own) return false;
  }
  return true;
}

}  // namespace nncell
