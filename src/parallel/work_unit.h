// Work units for PIncDect (paper §6.3).
//
// A work unit is a partial solution hup(u0..uk) awaiting expansion: the
// pivot identity (NGD, pattern edge, update index), the partial binding,
// and the ResumePoint it re-enters the shared plan walker at — the
// literal bookkeeping and, for units produced by hybrid splitting, the
// slice of the anchor adjacency list this processor is responsible for
// (its "partial copy v.adj_i").

#ifndef NGD_PARALLEL_WORK_UNIT_H_
#define NGD_PARALLEL_WORK_UNIT_H_

#include <cstdint>
#include <vector>

#include "core/expr.h"
#include "detect/inc_dect.h"
#include "match/homomorphism.h"

namespace ngd {

struct PWorkUnit {
  PivotTask pivot;
  /// Where the unit re-enters the plan walk: the step, the anchor option
  /// and slice it was handed off on, and the literal state of its prefix.
  ResumePoint at;
  Binding binding;
};

/// ||BVio_i|| / avg_t ||BVio_t|| — the skewness measure of paper §6.3.
std::vector<double> ComputeSkewness(const std::vector<size_t>& queue_sizes);

}  // namespace ngd

#endif  // NGD_PARALLEL_WORK_UNIT_H_
