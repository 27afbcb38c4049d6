#include "match/homomorphism.h"

#include <algorithm>
#include <cassert>
#include <cstdint>

namespace ngd {

namespace {

enum class StepOutcome : uint8_t { kContinue, kPrune, kStop };

/// Evaluates the literals that became ready; decides pruning.
StepOutcome EvalReadyLiterals(const SearchConfig& cfg,
                              const std::vector<int>& ready_x,
                              const std::vector<int>& ready_y,
                              const Binding& binding, LiteralState* ls) {
  if (!cfg.find_violations) return StepOutcome::kContinue;
  for (int i : ready_x) {
    Truth t = (*cfg.x)[i].Evaluate(cfg.graph, binding);
    assert(t != Truth::kNotReady);
    if (t == Truth::kFalse) return StepOutcome::kPrune;  // h ̸|= X forever
  }
  for (int i : ready_y) {
    Truth t = (*cfg.y)[i].Evaluate(cfg.graph, binding);
    assert(t != Truth::kNotReady);
    ++ls->y_ready;
    if (t == Truth::kFalse) ls->y_false = true;
  }
  if (!ls->y_false && ls->y_ready == cfg.y->size()) {
    // All Y literals bound and true: every extension satisfies Y.
    return StepOutcome::kPrune;
  }
  return StepOutcome::kContinue;
}

/// Walks the plan from step `step_idx`. `entry` is set only for the
/// first step of a resumed unit: it fixes the anchor option and may
/// restrict the scan to a slice.
bool Expand(const SearchConfig& cfg, const MatchPlan& plan, size_t step_idx,
            Binding* binding, LiteralState ls, const MatchCallback& callback,
            const ResumePoint* entry = nullptr) {
  if (cfg.cancel != nullptr && cfg.cancel->ShouldStop()) return false;
  if (step_idx == plan.steps.size()) {
    // Full match. In violation mode the literal pruning above guarantees
    // X is satisfied and Y is not (y_false), except for the empty-Y
    // degenerate case which can never be violated. With an emitter the
    // binding goes straight into its staging buffer — no std::function
    // dispatch, no per-match allocation.
    if (cfg.emitter != nullptr) return cfg.emitter->Emit(*binding);
    return callback(*binding);
  }
  const ExpansionStep& step = plan.steps[step_idx];
  const Pattern& pattern = *cfg.pattern;
  const GraphAccessor& g = cfg.graph;

  // Candidate generation: scan the cheapest anchor among the step's
  // options, measured by the adjacency range the scan will touch (exact
  // label-range length on a snapshot, total adjacency on the live
  // graph), unless a resumed unit fixes it. The edges not chosen are
  // verified as closure edges below.
  size_t chosen_idx = 0;
  if (entry != nullptr && entry->anchor_option >= 0) {
    chosen_idx = static_cast<size_t>(entry->anchor_option);
  } else if (step.anchor_options.size() > 1) {
    size_t best_cost = SIZE_MAX;
    for (size_t k = 0; k < step.anchor_options.size(); ++k) {
      const AnchorOption& o = step.anchor_options[k];
      const size_t cost =
          g.NeighborSeqLen((*binding)[o.anchor_node], o.anchor_out,
                           pattern.edge(o.edge).label);
      if (cost < best_cost) {
        best_cost = cost;
        chosen_idx = k;
      }
    }
  }
  const AnchorOption& chosen = step.anchor_options[chosen_idx];
  const LabelId anchor_label = pattern.edge(chosen.edge).label;
  const NodeId anchor = (*binding)[chosen.anchor_node];
  const LabelId want_label = pattern.node(step.node).label;
  const bool sliced = entry != nullptr && entry->sliced();
  // The snapshot fast path below scans this CSR label range; fetch it
  // once, before the hand-off hook needs its length.
  const bool fast = g.is_snapshot() && cfg.edge_filter == nullptr &&
                    want_label != kWildcardLabel;
  GraphSnapshot::IdRange range;
  if (fast) {
    range = chosen.anchor_out
                ? g.snapshot()->OutNeighbors(anchor, anchor_label)
                : g.snapshot()->InNeighbors(anchor, anchor_label);
  }
  if (cfg.handoff != nullptr) {
    ResumePoint at = sliced ? *entry : ResumePoint{};
    at.step = static_cast<int32_t>(step_idx);
    at.anchor_option = static_cast<int32_t>(chosen_idx);
    at.literals = ls;
    const size_t seq_len =
        fast ? range.size()
             : g.NeighborSeqLen(anchor, chosen.anchor_out, anchor_label);
    const bool taken = cfg.handoff->Take(at, anchor, seq_len, *binding);
    assert(!(taken && sliced) && "a slice cannot be handed off again");
    if (taken) return true;
  }
  const size_t begin = sliced ? static_cast<size_t>(entry->slice_begin) : 0;
  const size_t end = sliced ? static_cast<size_t>(entry->slice_end) : SIZE_MAX;

  // Everything past the label test for one label-matching candidate:
  // filter admission, closure-edge verification, literal pruning,
  // and the recursive descent. Returns false to abort the whole scan.
  auto visit = [&](NodeId cand) {
    if (cfg.edge_filter != nullptr) {
      const NodeId src = chosen.anchor_out ? anchor : cand;
      const NodeId dst = chosen.anchor_out ? cand : anchor;
      if (!cfg.edge_filter->Admit(chosen.edge, src, dst, anchor_label)) {
        return true;
      }
    }
    // Verify the remaining pattern edges into the matched prefix.
    auto edge_holds = [&](int ce) {
      const PatternEdge& pe = pattern.edge(ce);
      const NodeId s = pe.src == step.node ? cand : (*binding)[pe.src];
      const NodeId d = pe.dst == step.node ? cand : (*binding)[pe.dst];
      return g.HasEdge(s, d, pe.label) &&
             (cfg.edge_filter == nullptr ||
              cfg.edge_filter->Admit(ce, s, d, pe.label));
    };
    bool ok = true;
    for (int ce : step.check_edges) {
      if (ce == chosen.edge) continue;  // promoted to anchor this step
      if (!edge_holds(ce)) {
        ok = false;
        break;
      }
    }
    // A non-default anchor choice demotes the default anchor edge to
    // a closure check.
    if (ok && chosen_idx != 0 && !edge_holds(step.anchor_edge)) {
      ok = false;
    }
    if (!ok) return true;

    (*binding)[step.node] = cand;
    LiteralState child = ls;
    StepOutcome out = EvalReadyLiterals(cfg, step.ready_x, step.ready_y,
                                        *binding, &child);
    bool keep_going = true;
    if (out == StepOutcome::kContinue) {
      keep_going = Expand(cfg, plan, step_idx + 1, binding, child, callback);
    }
    (*binding)[step.node] = kInvalidNode;
    return keep_going;
  };

  // Snapshot fast path: the candidate label filter over a contiguous CSR
  // label range is a gather + compare against the flat node-label array,
  // so run it block-compacted — branch-free `m += (label == want)` keeps
  // the filter auto-vectorizable and the survivors (usually a small
  // minority on selective labels) get the expensive per-candidate body
  // from a dense stack buffer. Filtered searches and wildcard labels
  // fall through to the generic scan, which needs per-candidate calls
  // anyway.
  if (fast) {
    const LabelId* labels = g.snapshot()->node_labels_data();
    const size_t hi = std::min(end, range.size());
    constexpr size_t kBlock = 256;
    NodeId cands[kBlock];
    for (size_t base = begin; base < hi; base += kBlock) {
      // Bounded response even on a hub anchor's long adjacency scan:
      // one cancellation poll per block.
      if (cfg.cancel != nullptr && cfg.cancel->ShouldStop()) return false;
      const size_t n = std::min(kBlock, hi - base);
      size_t m = 0;
      for (size_t i = 0; i < n; ++i) {
        const NodeId w = range.ptr[base + i];
        cands[m] = w;
        m += static_cast<size_t>(labels[w] == want_label);
      }
      for (size_t i = 0; i < m; ++i) {
        if (!visit(cands[i])) return false;
      }
    }
    return true;
  }

  auto scan = [&](NodeId cand) {
    // Bounded response even on a hub anchor's long adjacency scan.
    if (cfg.cancel != nullptr && cfg.cancel->ShouldStop()) return false;
    if (!g.NodeMatchesLabel(cand, want_label)) return true;
    return visit(cand);
  };
  if (sliced) {
    return g.ForEachNeighborSlice(anchor, chosen.anchor_out, anchor_label,
                                  begin, end, scan);
  }
  return g.ForEachNeighbor(anchor, chosen.anchor_out, anchor_label, scan);
}

/// `check_labels` is false for batch seeds drawn from the start label's
/// candidate list, whose label is right by construction.
bool SeededSearchImpl(const SearchConfig& config, const MatchPlan& plan,
                      Binding* binding, const MatchCallback& callback,
                      bool check_labels = true) {
  const GraphAccessor& g = config.graph;
  // Seeds must satisfy labels.
  for (int s : plan.seeds) {
    const NodeId v = (*binding)[s];
    assert(v != kInvalidNode);
    if (check_labels &&
        !g.NodeMatchesLabel(v, config.pattern->node(s).label)) {
      return true;
    }
  }
  // Seed-internal edges.
  for (int ce : plan.seed_check_edges) {
    const PatternEdge& pe = config.pattern->edge(ce);
    const NodeId s = (*binding)[pe.src];
    const NodeId d = (*binding)[pe.dst];
    if (!g.HasEdge(s, d, pe.label)) return true;
    if (config.edge_filter != nullptr &&
        !config.edge_filter->Admit(ce, s, d, pe.label)) {
      return true;
    }
  }
  LiteralState ls;
  StepOutcome out = EvalReadyLiterals(config, plan.seed_ready_x,
                                      plan.seed_ready_y, *binding, &ls);
  if (out == StepOutcome::kPrune) return true;
  return Expand(config, plan, 0, binding, ls, callback);
}

}  // namespace

bool RunSeededSearch(const SearchConfig& config, const MatchPlan& plan,
                     Binding* binding, const MatchCallback& callback) {
  assert(config.graph.valid() && config.pattern != nullptr);
  assert(!config.find_violations ||
         (config.x != nullptr && config.y != nullptr));
  return SeededSearchImpl(config, plan, binding, callback);
}

bool ResumeSearch(const SearchConfig& config, const MatchPlan& plan,
                  const ResumePoint& at, Binding* binding,
                  const MatchCallback& callback) {
  assert(config.graph.valid() && config.pattern != nullptr);
  return Expand(config, plan, static_cast<size_t>(at.step), binding,
                at.literals, callback, &at);
}

bool RunBatchSearchWithPlan(const SearchConfig& config, int start,
                            const MatchPlan& plan,
                            const MatchCallback& callback,
                            const GraphSnapshot::IdRange* candidates) {
  assert(config.graph.valid() && config.pattern != nullptr);
  assert(plan.seeds.size() == 1 && plan.seeds[0] == start);
  Binding binding(config.pattern->NumNodes(), kInvalidNode);
  auto seed = [&](NodeId v) {
    binding[start] = v;
    return SeededSearchImpl(config, plan, &binding, callback,
                            /*check_labels=*/false);
  };
  if (candidates == nullptr) {
    return config.graph.ForEachCandidate(config.pattern->node(start).label,
                                         seed);
  }
  for (NodeId v : *candidates) {
    if (!seed(v)) return false;
  }
  return true;
}

bool RunBatchSearch(const SearchConfig& config,
                    const MatchCallback& callback) {
  assert(config.graph.valid() && config.pattern != nullptr);
  const Pattern& pattern = *config.pattern;
  const int start = ChooseStartNode(pattern, config.graph);
  const MatchPlan plan =
      BuildMatchPlan(pattern, {start}, config.x, config.y);
  return RunBatchSearchWithPlan(config, start, plan, callback);
}

}  // namespace ngd
