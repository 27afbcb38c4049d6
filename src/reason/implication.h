// Implication analysis Σ |= φ (paper §4, Πᵖ₂-complete).
//
// Σ |= φ iff no graph satisfies Σ while violating φ. The checker searches
// for a WITNESS of non-implication in the canonical-model family: the
// canonical graph of φ's pattern, whose identity match is required to
// violate φ (X true, some Y literal false) while every match of every NGD
// in Σ on that graph must hold. Finding a witness is a proof of
// non-implication (kNo, exact); exhausting the family yields kYes with
// the same family-relative caveat as satisfiability (satisfiability.h):
// a counter-model outside the canonical family is not ruled out.

#ifndef NGD_REASON_IMPLICATION_H_
#define NGD_REASON_IMPLICATION_H_

#include <string>

#include "reason/satisfiability.h"

namespace ngd {

struct ImplicationReport {
  Decision implied = Decision::kUnknown;
  std::string detail;
};

ImplicationReport CheckImplication(const NgdSet& sigma, const Ngd& phi,
                                   const SchemaPtr& schema,
                                   const ReasonOptions& opts = {});

}  // namespace ngd

#endif  // NGD_REASON_IMPLICATION_H_
