#include "detect/inc_dect.h"

#include <utility>

namespace ngd {

UpdateIndex::UpdateIndex(const Graph& g, const UpdateBatch& batch) {
  insert_index_.Reserve(batch.updates.size());
  delete_index_.Reserve(batch.updates.size());
  for (const UnitUpdate& u : batch.updates) {
    EdgeKey key{u.src, u.dst, u.label};
    std::optional<EdgeState> state = g.EdgeStateOf(u.src, u.dst, u.label);
    // Only updates whose effect survives in the overlay count: an insert
    // record must correspond to a kInserted edge, a delete record to a
    // kDeleted edge. Anything else cancelled out within the batch.
    const bool insert = u.kind == UpdateKind::kInsert;
    if (state != (insert ? EdgeState::kInserted : EdgeState::kDeleted)) {
      continue;
    }
    EdgeMap<int>& index = insert ? insert_index_ : delete_index_;
    const int position = static_cast<int>(updates_.size());
    if (!index.Insert(key, position).second) continue;  // duplicate record
    updates_.push_back(EffectiveUpdate{u.kind, key});
  }
}

std::optional<int> UpdateIndex::IndexOf(UpdateKind kind,
                                        const EdgeKey& key) const {
  const EdgeMap<int>& index =
      kind == UpdateKind::kInsert ? insert_index_ : delete_index_;
  const int* position = index.Find(key);
  if (position == nullptr) return std::nullopt;
  return *position;
}

std::vector<PivotTask> EnumeratePivotTasks(const Graph& g,
                                           const NgdSet& sigma,
                                           const UpdateIndex& index) {
  std::vector<PivotTask> tasks;
  const auto& updates = index.updates();
  for (size_t j = 0; j < updates.size(); ++j) {
    const EffectiveUpdate& u = updates[j];
    for (size_t f = 0; f < sigma.size(); ++f) {
      const Pattern& pattern = sigma[f].pattern();
      for (size_t p = 0; p < pattern.NumEdges(); ++p) {
        const PatternEdge& pe = pattern.edge(static_cast<int>(p));
        if (pe.label != u.edge.label) continue;
        if (!NodeMatchesLabel(g, u.edge.src, pattern.node(pe.src).label)) {
          continue;
        }
        if (!NodeMatchesLabel(g, u.edge.dst, pattern.node(pe.dst).label)) {
          continue;
        }
        // A self-loop pattern edge can only match a self-loop graph edge.
        if (pe.src == pe.dst && u.edge.src != u.edge.dst) continue;
        tasks.push_back(PivotTask{static_cast<int>(f), static_cast<int>(p),
                                  static_cast<int>(j)});
      }
    }
  }
  return tasks;
}

bool IsCanonicalPivot(const DeltaView* dv, const Pattern& pattern,
                      const Binding& binding, const UpdateIndex& index,
                      UpdateKind kind, int update_index, int pattern_edge) {
  // DeltaView and UpdateIndex apply the same effectiveness predicate, so
  // the span check is exactly IndexOf(...).has_value() — at the cost of
  // one bitmap byte for the base edges that dominate.
  const bool insert_side = kind == UpdateKind::kInsert;
  int best_update = update_index;
  int best_edge = pattern_edge;
  for (size_t p = 0; p < pattern.NumEdges(); ++p) {
    const PatternEdge& pe = pattern.edge(static_cast<int>(p));
    const NodeId src = binding[pe.src];
    const NodeId dst = binding[pe.dst];
    if (dv != nullptr && !dv->IsDeltaEdge(insert_side, src, dst, pe.label)) {
      continue;
    }
    std::optional<int> idx =
        index.IndexOf(kind, EdgeKey{src, dst, pe.label});
    if (!idx.has_value()) continue;
    if (*idx < best_update ||
        (*idx == best_update && static_cast<int>(p) < best_edge)) {
      best_update = *idx;
      best_edge = static_cast<int>(p);
    }
  }
  return best_update == update_index && best_edge == pattern_edge;
}

Status ValidateForIncremental(const NgdSet& sigma) {
  for (size_t f = 0; f < sigma.size(); ++f) {
    const Pattern& pattern = sigma[f].pattern();
    if (pattern.NumEdges() == 0) {
      return Status::InvalidArgument(
          "incremental detection: NGD '" + sigma[f].name() +
          "' has an edge-less pattern; edge updates cannot pivot it "
          "(use batch Dect for such rules)");
    }
    if (!pattern.IsConnected()) {
      return Status::InvalidArgument(
          "incremental detection: NGD '" + sigma[f].name() +
          "' has a disconnected pattern; split it into connected "
          "components (paper §6, discussion of disconnected patterns)");
    }
  }
  return Status::OK();
}

namespace {

/// Rejects update edges with pivot order below the current pivot, so each
/// match is reached from its minimal update edge only. Ranking only ever
/// concerns *update* edges: with a DeltaView backend (`dv` set) anything
/// outside its delta spans is a base edge and is admitted with one CSR
/// span check — no hash probe — and only genuine delta entries (a
/// |ΔG|-sized minority of everything a search touches) pay the
/// UpdateIndex lookup. `dv == nullptr` means the live graph.
class PivotEdgeFilter : public EdgeFilter {
 public:
  PivotEdgeFilter(const DeltaView* dv, const UpdateIndex* index,
                  UpdateKind kind, int pivot_index)
      : dv_(dv), index_(index), kind_(kind), pivot_index_(pivot_index) {}

  bool Admit(int /*pattern_edge*/, NodeId src, NodeId dst,
             LabelId label) const override {
    if (dv_ != nullptr &&
        !dv_->IsDeltaEdge(kind_ == UpdateKind::kInsert, src, dst, label)) {
      return true;
    }
    auto i = index_->IndexOf(kind_, EdgeKey{src, dst, label});
    return !i.has_value() || *i >= pivot_index_;
  }

 private:
  const DeltaView* dv_;
  const UpdateIndex* index_;
  UpdateKind kind_;
  int pivot_index_;
};

/// The backend decision for SnapshotMode kAuto without a base snapshot:
/// true when the depth-1 frontier the pivot tasks would stream (a lower
/// bound on the live engine's scan volume) already exceeds a small
/// multiple of what the O(|V| + |E|) base-snapshot build streams.
bool WantDeltaView(const Graph& g, const UpdateIndex& index,
                   const std::vector<PivotTask>& tasks) {
  // Every pivot task streams the adjacency of both of its endpoints at
  // least once before any recursion. The base-snapshot build streams
  // |V| + 2|E| entries with a sort-like constant.
  const size_t build_cost = g.NumNodes() + g.NumEdges(GraphView::kOld) +
                            g.NumEdges(GraphView::kNew);
  const size_t threshold = 2 * build_cost;
  size_t frontier = 0;
  for (const PivotTask& t : tasks) {
    const EffectiveUpdate& u = index.updates()[t.update_index];
    frontier += g.AdjSize(u.edge.src) + g.AdjSize(u.edge.dst);
    if (frontier >= threshold) return true;
  }
  return false;
}

}  // namespace

PivotBatch::PivotBatch(const Graph& g, const NgdSet& sigma,
                       const UpdateBatch& batch, SnapshotMode mode,
                       const GraphSnapshot* base_snapshot)
    : g_(g),
      sigma_(sigma),
      index_(g, batch),
      tasks_(EnumeratePivotTasks(g, sigma, index_)) {
  const bool use_delta_view =
      mode == SnapshotMode::kAlways ||
      (mode == SnapshotMode::kAuto &&
       (base_snapshot != nullptr || WantDeltaView(g, index_, tasks_)));
  if (use_delta_view) {
    if (base_snapshot == nullptr) {
      owned_base_.emplace(g, GraphView::kOld);
      base_snapshot = &*owned_base_;
    }
    dv_.emplace(*base_snapshot, g, batch);
  }

  plan_offset_.reserve(sigma.size());
  size_t edges = 0;
  for (size_t f = 0; f < sigma.size(); ++f) {
    plan_offset_.push_back(edges);
    edges += sigma[f].pattern().NumEdges();
  }
  plans_.resize(edges);
  for (const PivotTask& t : tasks_) {
    std::optional<MatchPlan>& plan =
        plans_[plan_offset_[t.ngd_index] + t.pattern_edge];
    if (plan.has_value()) continue;
    const Ngd& ngd = sigma[t.ngd_index];
    const PatternEdge& pe = ngd.pattern().edge(t.pattern_edge);
    std::vector<int> seeds{pe.src};
    if (pe.dst != pe.src) seeds.push_back(pe.dst);
    plan = BuildMatchPlan(ngd.pattern(), std::move(seeds), &ngd.X(),
                          &ngd.Y());
  }
}

const MatchPlan& PivotBatch::Plan(const PivotTask& task) const {
  return *plans_[plan_offset_[task.ngd_index] + task.pattern_edge];
}

Binding PivotBatch::SeedBinding(const PivotTask& task) const {
  const Pattern& pattern = sigma_[task.ngd_index].pattern();
  const PatternEdge& pe = pattern.edge(task.pattern_edge);
  const EffectiveUpdate& u = index_.updates()[task.update_index];
  Binding binding(pattern.NumNodes(), kInvalidNode);
  binding[pe.src] = u.edge.src;
  binding[pe.dst] = u.edge.dst;
  return binding;
}

void PivotBatch::Expand(const PivotTask& task, const ResumePoint& at,
                        Binding* binding, const PivotHooks& hooks,
                        DeltaVio* out) const {
  const Ngd& ngd = sigma_[task.ngd_index];
  const UpdateKind kind = index_.updates()[task.update_index].kind;
  const DeltaView* dv = dv_.has_value() ? &*dv_ : nullptr;
  PivotEdgeFilter filter(dv, &index_, kind, task.update_index);
  const GraphView view =
      kind == UpdateKind::kInsert ? GraphView::kNew : GraphView::kOld;
  SearchConfig cfg;
  cfg.graph =
      dv != nullptr ? GraphAccessor(*dv, view) : GraphAccessor(g_, view);
  cfg.pattern = &ngd.pattern();
  cfg.x = &ngd.X();
  cfg.y = &ngd.Y();
  cfg.edge_filter = &filter;
  cfg.find_violations = true;
  cfg.cancel = hooks.cancel;
  cfg.handoff = hooks.handoff;

  VioSet& target = kind == UpdateKind::kInsert ? out->added : out->removed;
  auto emit = [&](const Binding& match) {
    // Minimal-pivot canonicality already guarantees exactly-once emission
    // per match per update kind (and disjoint slice splits keep that one
    // emission on a single worker); the checked insert's hash probe
    // would only re-prove it.
    if (IsCanonicalPivot(dv, ngd.pattern(), match, index_, kind,
                         task.update_index, task.pattern_edge)) {
      target.AppendUnchecked(task.ngd_index, match.data(), match.size());
    }
    return true;
  };
  // A fresh pivot validates its seeds; split and child units have already
  // passed that check.
  const MatchPlan& plan = Plan(task);
  if (at.step == 0 && !at.sliced()) {
    RunSeededSearch(cfg, plan, binding, emit);
  } else {
    ResumeSearch(cfg, plan, at, binding, emit);
  }
}

namespace {

/// IncDect's engine body on an already validated (and, under
/// RunMinimized, already minimized) Σ.
DeltaVio IncDectRules(const Graph& g, const NgdSet& sigma,
                      const UpdateBatch& batch, const IncDectOptions& opts) {
  const PivotBatch pivots(g, sigma, batch, opts.snapshot_mode,
                          opts.base_snapshot);
  const std::vector<PivotTask>& tasks = pivots.tasks();

  DetectRunInfo local_info;
  DetectRunInfo* info = opts.run_info != nullptr ? opts.run_info : &local_info;
  info->StartFull(sigma.size());
  CancelCheck check(opts.cancel, opts.deadline);
  PivotHooks hooks;
  hooks.cancel = check.active() ? &check : nullptr;

  DeltaVio delta;
  if (opts.spill != nullptr) delta.EnableSpill(*opts.spill);
  // A rule's delta is complete only when all its pivot tasks ran; the
  // interrupted task and everything after it mark their rules.
  auto mark_truncated_from = [&](size_t t) {
    info->truncated = true;
    for (size_t r = t; r < tasks.size(); ++r) {
      info->rule_completed[static_cast<size_t>(tasks[r].ngd_index)] = 0;
    }
  };
  for (size_t t = 0; t < tasks.size(); ++t) {
    if (hooks.cancel != nullptr && hooks.cancel->ShouldStop()) {
      mark_truncated_from(t);
      break;
    }
    Binding binding = pivots.SeedBinding(tasks[t]);
    pivots.Expand(tasks[t], ResumePoint{}, &binding, hooks, &delta);
    if (hooks.cancel != nullptr && hooks.cancel->Stopped()) {
      mark_truncated_from(t);
      break;
    }
  }
  return delta;
}

}  // namespace

StatusOr<DeltaVio> IncDect(const Graph& g, const NgdSet& sigma,
                           const UpdateBatch& batch,
                           const IncDectOptions& opts) {
  // Validate the full Σ before minimizing, so rejection behavior matches
  // the oracle even when the offending rule would have been dropped.
  NGD_RETURN_IF_ERROR(ValidateForIncremental(sigma));
  return RunMinimized(
      sigma, g.schema(), opts,
      [&](const NgdSet& rules, const IncDectOptions& o) {
        return IncDectRules(g, rules, batch, o);
      },
      RemapDelta);
}

}  // namespace ngd
