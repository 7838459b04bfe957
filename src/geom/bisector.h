#ifndef NNCELL_GEOM_BISECTOR_H_
#define NNCELL_GEOM_BISECTOR_H_

#include <cstddef>
#include <vector>

#include "common/hyper_rect.h"
#include "lp/lp_problem.h"

namespace nncell {

// The NN-cell of P is the intersection of half-spaces "closer to P than to
// P_j". For the Euclidean metric, d(x,P) <= d(x,P_j) is the linear
// constraint
//     2 (P_j - P) . x  <=  |P_j|^2 - |P|^2 .
// This file turns points into those LP rows.

// Appends the bisector half-space row of (owner, other) to `problem`.
void AddBisectorConstraint(const double* owner, const double* other,
                           size_t dim, LpProblem* problem);

// Builds the full LP system of the NN-cell of `owner`: one bisector row per
// candidate point plus the 2d data-space box rows (the paper bounds all
// cells by the data space DS).
LpProblem BuildCellProblem(const double* owner,
                           const std::vector<const double*>& candidates,
                           size_t dim, const HyperRect& space);

// Same, appending into an existing (Reset) problem instead of allocating.
void BuildCellProblemInto(const double* owner,
                          const std::vector<const double*>& candidates,
                          size_t dim, const HyperRect& space,
                          LpProblem* problem);

// Membership oracle: true when x is at least as close to `owner` as to
// every candidate (i.e. x lies in the cell induced by the candidate set).
bool IsInCell(const double* x, const double* owner,
              const std::vector<const double*>& candidates, size_t dim);

}  // namespace nncell

#endif  // NNCELL_GEOM_BISECTOR_H_
