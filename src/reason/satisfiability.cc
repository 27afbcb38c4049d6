#include "reason/satisfiability.h"

#include <atomic>
#include <sstream>

#include "detect/dect.h"

namespace ngd {

namespace {

/// Fresh-label counter: canonical models must never reuse a fresh label
/// across calls, or patterns from different rules could accidentally
/// match each other's wildcard stand-ins.
std::atomic<uint64_t> g_fresh_label_counter{0};

class ObligationSolver {
 public:
  ObligationSolver(const std::vector<MatchObligation>& obs, VarTable* vars,
                   const Graph& model, const ReasonOptions& opts)
      : obs_(obs), vars_(vars), model_(model), opts_(opts) {}

  ReasonOutcome Run() {
    ConstraintSystem cs(opts_.solver);
    Decision d = Solve(0, cs, 0);
    ReasonOutcome out;
    out.decision = d;
    if (d == Decision::kYes) out.detail = witness_;
    return out;
  }

 private:
  /// Branches over the ways the encoded literal `enc` holds with every
  /// attribute it reads present: one string fact (`string_fact` is the
  /// truth value it asserts), or each numeric alternative in turn, each
  /// handed to `cont`. kNeverTrue has no way to hold.
  template <typename Cont>
  Decision AssertPresent(const EncodedLiteral& enc, bool string_fact,
                         const ConstraintSystem& cs, const Cont& cont) {
    if (enc.cls == LitClass::kNeverTrue) return Decision::kNo;
    auto require_present = [&](ConstraintSystem* next) {
      for (int v : enc.attr_vars) {
        if (!next->RequirePresent(v)) return false;
      }
      return true;
    };
    if (enc.cls == LitClass::kString) {
      ConstraintSystem next = cs;
      if (!require_present(&next) || !next.AddStringFact(enc, string_fact)) {
        return Decision::kNo;
      }
      return cont(next);
    }
    Decision result = Decision::kNo;
    for (const NumericAlt& alt : enc.alts) {
      ConstraintSystem next = cs;
      if (!require_present(&next)) continue;
      for (const LinConstraint& c : alt.constraints) next.AddNumeric(c);
      Decision d = cont(next);
      if (d == Decision::kYes) return d;
      if (d == Decision::kUnknown) result = Decision::kUnknown;
    }
    return result;
  }

  /// Applies "literal lit must be TRUE under h": encodes it, then
  /// requires its attributes present and branches over its alternatives.
  template <typename Cont>
  Decision AssertTrue(const Literal& lit, const Binding& h,
                      const ConstraintSystem& cs, const Cont& cont) {
    auto enc = EncodeLiteral(lit, /*positive=*/true, h, vars_);
    if (!enc.ok()) return Decision::kUnknown;  // outside encoder fragment
    return AssertPresent(*enc, /*string_fact=*/true, cs, cont);
  }

  /// Applies "literal lit must be FALSE under h": either some attribute
  /// of the literal is absent, or all are present and the negated
  /// comparison holds.
  template <typename Cont>
  Decision AssertFalse(const Literal& lit, const Binding& h,
                       const ConstraintSystem& cs, const Cont& cont) {
    auto enc = EncodeLiteral(lit, /*positive=*/false, h, vars_);
    if (!enc.ok()) return Decision::kUnknown;
    Decision result = Decision::kNo;
    // Option (a): drop one attribute the literal needs.
    for (int v : enc->attr_vars) {
      ConstraintSystem next = cs;
      if (!next.RequireAbsent(v)) continue;
      Decision d = cont(next);
      if (d == Decision::kYes) return d;
      if (d == Decision::kUnknown) result = Decision::kUnknown;
    }
    // Option (b): attributes present, comparison negated.
    const Decision d = AssertPresent(*enc, /*string_fact=*/false, cs, cont);
    return d == Decision::kNo ? result : d;
  }

  /// Asserts every literal in `lits[from..]` true, then calls `done`.
  template <typename Done>
  Decision AssertAllTrue(const std::vector<Literal>& lits, size_t from,
                         const Binding& h, const ConstraintSystem& cs,
                         const Done& done) {
    if (from == lits.size()) return done(cs);
    return AssertTrue(lits[from], h, cs, [&](const ConstraintSystem& next) {
      return AssertAllTrue(lits, from + 1, h, next, done);
    });
  }

  /// `probed_numeric` is the numeric-constraint count at the last
  /// feasibility probe on this path — probing again is only worth the
  /// solver rebuild when an obligation actually added constraints.
  Decision Solve(size_t index, const ConstraintSystem& cs,
                 size_t probed_numeric) {
    if (++branches_ > opts_.max_branches) return Decision::kUnknown;
    // Early refutation: once an obligation has asserted new numeric
    // constraints, a starved feasibility probe (exact on kUnsat) kills
    // doomed branches here instead of at the leaves. Without it,
    // refuting an implied rule re-discovers the same contradiction under
    // every combination of the other obligations' alternatives —
    // exponentially many leaf solver calls for what propagation sees
    // immediately.
    if (index > 0 && index < obs_.size() &&
        cs.NumericCount() > probed_numeric) {
      if (cs.QuickCheck(*vars_) == SolveResult::kUnsat) {
        return Decision::kNo;
      }
      probed_numeric = cs.NumericCount();
    }
    if (index == obs_.size()) {
      SolveResult r = cs.Check(*vars_);
      if (r == SolveResult::kSat) {
        RecordWitness(cs);
        return Decision::kYes;
      }
      return r == SolveResult::kUnsat ? Decision::kNo : Decision::kUnknown;
    }
    const MatchObligation& ob = obs_[index];
    const auto& X = ob.ngd->X();
    const auto& Y = ob.ngd->Y();
    Decision result = Decision::kNo;
    auto merge = [&](Decision d) {
      if (d == Decision::kUnknown && result == Decision::kNo) {
        result = Decision::kUnknown;
      }
    };

    if (!ob.require_violation) {
      // X → Y must hold: (some X literal false) or (all Y literals true).
      for (const Literal& lx : X) {
        Decision d =
            AssertFalse(lx, ob.h, cs, [&](const ConstraintSystem& next) {
              return Solve(index + 1, next, probed_numeric);
            });
        if (d == Decision::kYes) return d;
        merge(d);
      }
      Decision d = AssertAllTrue(Y, 0, ob.h, cs,
                                 [&](const ConstraintSystem& next) {
                                   return Solve(index + 1, next,
                                                probed_numeric);
                                 });
      if (d == Decision::kYes) return d;
      merge(d);
      return result;
    }

    // Violation required: all of X true, some Y literal false.
    Decision d = AssertAllTrue(
        X, 0, ob.h, cs, [&](const ConstraintSystem& after_x) {
          Decision inner = Decision::kNo;
          for (const Literal& ly : Y) {
            Decision dy = AssertFalse(
                ly, ob.h, after_x, [&](const ConstraintSystem& next) {
                  return Solve(index + 1, next, probed_numeric);
                });
            if (dy == Decision::kYes) return dy;
            if (dy == Decision::kUnknown) inner = Decision::kUnknown;
          }
          return inner;
        });
    if (d == Decision::kYes) return d;
    merge(d);
    return result;
  }

  void RecordWitness(const ConstraintSystem& cs) {
    std::ostringstream os;
    auto witness = cs.BuildWitness(*vars_);
    os << "model: " << model_.NumNodes() << " nodes, "
       << model_.NumEdges(GraphView::kNew) << " edges";
    if (witness.has_value()) {
      os << "; attrs:";
      for (const auto& [var, value] : witness->ints) {
        const AttrVar& key = vars_->KeyOf(var);
        os << " n" << key.node << "."
           << model_.schema()->attrs().NameOf(key.attr) << "=" << value;
      }
      for (const auto& [var, value] : witness->strings) {
        const AttrVar& key = vars_->KeyOf(var);
        os << " n" << key.node << "."
           << model_.schema()->attrs().NameOf(key.attr) << "=\"" << value
           << "\"";
      }
    }
    witness_ = os.str();
  }

  const std::vector<MatchObligation>& obs_;
  VarTable* vars_;
  const Graph& model_;
  const ReasonOptions& opts_;
  size_t branches_ = 0;
  std::string witness_;
};

/// All matches of every NGD pattern on the candidate model, as hold-
/// obligations.
std::vector<MatchObligation> CollectObligations(const Graph& model,
                                                const NgdSet& sigma) {
  std::vector<MatchObligation> obs;
  for (size_t f = 0; f < sigma.size(); ++f) {
    const Ngd& ngd = sigma[f];
    SearchConfig cfg;
    cfg.graph = GraphAccessor(model, GraphView::kNew);
    cfg.pattern = &ngd.pattern();
    cfg.find_violations = false;
    RunBatchSearch(cfg, [&](const Binding& h) {
      obs.push_back(MatchObligation{&ngd, h, false});
      return true;
    });
  }
  return obs;
}

}  // namespace

ReasonOutcome SolveObligations(const std::vector<MatchObligation>& obs,
                               VarTable* vars, const Graph& model,
                               const ReasonOptions& opts) {
  if (opts.max_obligations > 0 && obs.size() > opts.max_obligations) {
    ReasonOutcome out;
    out.decision = Decision::kUnknown;
    out.detail = "obligation budget exceeded (" + std::to_string(obs.size()) +
                 " > " + std::to_string(opts.max_obligations) + ")";
    return out;
  }
  ObligationSolver solver(obs, vars, model, opts);
  return solver.Run();
}

std::unique_ptr<Graph> BuildCanonicalModel(
    const std::vector<const Pattern*>& patterns, const SchemaPtr& schema,
    std::vector<NodeId>* origin_offset) {
  auto model = std::make_unique<Graph>(schema);
  if (origin_offset != nullptr) origin_offset->clear();
  for (const Pattern* pattern : patterns) {
    NodeId base = static_cast<NodeId>(model->NumNodes());
    if (origin_offset != nullptr) origin_offset->push_back(base);
    for (const PatternNode& n : pattern->nodes()) {
      LabelId label = n.label;
      if (label == kWildcardLabel) {
        label = schema->InternLabel(
            "~fresh" +
            std::to_string(g_fresh_label_counter.fetch_add(1)));
      }
      model->AddNode(label);
    }
    for (const PatternEdge& e : pattern->edges()) {
      Status s = model->AddEdge(base + e.src, base + e.dst, e.label);
      (void)s;  // duplicate pattern edges are rejected at Pattern level
    }
  }
  return model;
}

namespace {

SatisfiabilityReport CheckOnCandidates(
    const NgdSet& sigma, const SchemaPtr& schema,
    const std::vector<std::vector<const Pattern*>>& candidates,
    const ReasonOptions& opts) {
  SatisfiabilityReport report;
  Status valid = sigma.Validate();
  if (!valid.ok()) {
    report.satisfiable = Decision::kUnknown;
    report.detail = valid.ToString();
    return report;
  }
  bool saw_unknown = false;
  for (const auto& patterns : candidates) {
    std::unique_ptr<Graph> model =
        BuildCanonicalModel(patterns, schema, nullptr);
    std::vector<MatchObligation> obs = CollectObligations(*model, sigma);
    VarTable vars;
    ReasonOutcome outcome = SolveObligations(obs, &vars, *model, opts);
    if (outcome.decision == Decision::kYes) {
      report.satisfiable = Decision::kYes;
      report.detail = outcome.detail;
      return report;
    }
    if (outcome.decision == Decision::kUnknown) saw_unknown = true;
  }
  report.satisfiable = saw_unknown ? Decision::kUnknown : Decision::kNo;
  report.detail = saw_unknown
                      ? "solver budget exhausted on some candidate model"
                      : "no model in the canonical-model family";
  return report;
}

}  // namespace

SatisfiabilityReport CheckSatisfiability(const NgdSet& sigma,
                                         const SchemaPtr& schema,
                                         const ReasonOptions& opts) {
  // One candidate per NGD: its own canonical pattern graph (condition (b):
  // that pattern has a match).
  std::vector<std::vector<const Pattern*>> candidates;
  for (size_t f = 0; f < sigma.size(); ++f) {
    candidates.push_back({&sigma[f].pattern()});
  }
  return CheckOnCandidates(sigma, schema, candidates, opts);
}

SatisfiabilityReport CheckStrongSatisfiability(const NgdSet& sigma,
                                               const SchemaPtr& schema,
                                               const ReasonOptions& opts) {
  // Single candidate: the disjoint union of all patterns (every pattern
  // finds a match).
  std::vector<const Pattern*> all;
  for (size_t f = 0; f < sigma.size(); ++f) {
    all.push_back(&sigma[f].pattern());
  }
  return CheckOnCandidates(sigma, schema, {all}, opts);
}

}  // namespace ngd
