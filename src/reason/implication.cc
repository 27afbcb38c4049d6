#include "reason/implication.h"

#include "detect/dect.h"

namespace ngd {

ImplicationReport CheckImplication(const NgdSet& sigma, const Ngd& phi,
                                   const SchemaPtr& schema,
                                   const ReasonOptions& opts) {
  ImplicationReport report;
  Status valid = phi.Validate();
  if (valid.ok()) valid = sigma.Validate();
  if (!valid.ok()) {
    report.implied = Decision::kUnknown;
    report.detail = valid.ToString();
    return report;
  }

  // Candidate witness model: the canonical graph of φ's pattern.
  std::vector<NodeId> offsets;
  std::unique_ptr<Graph> model =
      BuildCanonicalModel({&phi.pattern()}, schema, &offsets);

  std::vector<MatchObligation> obs;
  // The identity match of φ must be a violation.
  Binding identity(phi.pattern().NumNodes());
  for (size_t i = 0; i < identity.size(); ++i) {
    identity[i] = offsets[0] + static_cast<NodeId>(i);
  }
  obs.push_back(MatchObligation{&phi, identity, /*require_violation=*/true});

  // Every match of every NGD in Σ on the model must hold.
  for (size_t f = 0; f < sigma.size(); ++f) {
    const Ngd& ngd = sigma[f];
    SearchConfig cfg;
    cfg.graph = GraphAccessor(*model, GraphView::kNew);
    cfg.pattern = &ngd.pattern();
    cfg.find_violations = false;
    RunBatchSearch(cfg, [&](const Binding& h) {
      obs.push_back(MatchObligation{&ngd, h, false});
      return true;
    });
  }

  VarTable vars;
  ReasonOutcome outcome = SolveObligations(obs, &vars, *model, opts);
  switch (outcome.decision) {
    case Decision::kYes:
      report.implied = Decision::kNo;  // witness found: Σ ̸|= φ
      report.detail = "counterexample " + outcome.detail;
      break;
    case Decision::kNo:
      report.implied = Decision::kYes;
      report.detail = "no counterexample in the canonical-model family";
      break;
    case Decision::kUnknown:
      report.implied = Decision::kUnknown;
      report.detail = "solver budget exhausted";
      break;
  }
  return report;
}

}  // namespace ngd
