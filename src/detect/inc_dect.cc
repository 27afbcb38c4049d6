#include "detect/inc_dect.h"

#include <algorithm>
#include <unordered_map>

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

/// Budgeted BFS ball over the union of both views (every adjacency entry,
/// any overlay state — a superset of each view's ball, so it is a sound
/// scope for ΔVio+ and ΔVio- searches alike). Returns false and leaves
/// the ball partial once more than `budget` nodes are visited.
bool BoundedUnionBall(const Graph& g, const std::vector<NodeId>& seeds,
                      int d, size_t budget, NodeSet* ball) {
  std::vector<NodeId> frontier;
  for (NodeId v : seeds) {
    if (ball->Contains(v)) continue;
    ball->Add(v);
    frontier.push_back(v);
    if (ball->size() > budget) return false;
  }
  for (int hop = 0; hop < d && !frontier.empty(); ++hop) {
    std::vector<NodeId> next;
    for (NodeId v : frontier) {
      for (const auto* adj : {&g.OutEdges(v), &g.InEdges(v)}) {
        for (const AdjEntry& e : *adj) {
          if (ball->Contains(e.other)) continue;
          ball->Add(e.other);
          next.push_back(e.other);
          if (ball->size() > budget) return false;
        }
      }
    }
    frontier = std::move(next);
  }
  return true;
}

}  // namespace

AffectedArea::AffectedArea(const Graph& g, const NgdSet& sigma,
                           const UpdateIndex& index) {
  std::vector<NodeId> seeds;
  seeds.reserve(index.updates().size() * 2);
  for (const EffectiveUpdate& u : index.updates()) {
    seeds.push_back(u.edge.src);
    seeds.push_back(u.edge.dst);
  }
  const size_t budget = std::max<size_t>(256, g.NumNodes() / 8);

  // One ball per distinct diameter; each with the set of node labels it
  // contains, for the candidate-array intersection below.
  std::vector<int> diameter_of_ball;
  std::vector<std::vector<uint8_t>> labels_in_ball;
  const size_t num_labels = g.schema()->labels().size();
  ball_of_rule_.resize(sigma.size());
  for (size_t f = 0; f < sigma.size(); ++f) {
    const int d = sigma[f].pattern().Diameter();
    auto it = std::find(diameter_of_ball.begin(), diameter_of_ball.end(), d);
    if (it != diameter_of_ball.end()) {
      ball_of_rule_[f] = static_cast<int>(it - diameter_of_ball.begin());
      continue;
    }
    diameter_of_ball.push_back(d);
    NodeSet ball(g.NumNodes());
    const bool bounded = BoundedUnionBall(g, seeds, d, budget, &ball);
    labels_in_ball.emplace_back();
    if (bounded) {
      labels_in_ball.back().assign(num_labels, 0);
      for (NodeId v : ball.members()) {
        labels_in_ball.back()[g.NodeLabel(v)] = 1;
      }
    }
    balls_.push_back(std::move(ball));
    bounded_.push_back(bounded);
    ball_of_rule_[f] = static_cast<int>(balls_.size()) - 1;
  }

  rule_can_match_.resize(sigma.size());
  for (size_t f = 0; f < sigma.size(); ++f) {
    const Pattern& pattern = sigma[f].pattern();
    const int b = ball_of_rule_[f];
    if (!bounded_[b]) {
      rule_can_match_[f] = true;  // saturated ball: prune nothing
      continue;
    }
    const std::vector<uint8_t>& present = labels_in_ball[b];
    bool ok = !balls_[b].empty();
    for (size_t u = 0; ok && u < pattern.NumNodes(); ++u) {
      const LabelId l = pattern.node(static_cast<int>(u)).label;
      if (l == kWildcardLabel) continue;
      if (l >= present.size() || !present[l]) ok = false;
    }
    rule_can_match_[f] = ok;
  }
}

bool WantDeltaView(const Graph& g, const UpdateIndex& index,
                   const std::vector<PivotTask>& tasks) {
  // Depth-1 frontier: every pivot task streams the adjacency of both of
  // its endpoints at least once before any recursion — a lower bound on
  // what the live engine scans. The base-snapshot build streams
  // |V| + 2|E| entries with a sort-like constant; require the frontier to
  // exceed a small multiple of that before paying the build.
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

bool ResolveDeltaView(const Graph& g, const UpdateIndex& index,
                      const std::vector<PivotTask>& tasks, SnapshotMode mode,
                      bool base_snapshot_provided) {
  switch (mode) {
    case SnapshotMode::kAlways:
      return true;
    case SnapshotMode::kNever:
      return false;
    case SnapshotMode::kAuto:
      break;
  }
  return base_snapshot_provided || WantDeltaView(g, index, tasks);
}

namespace {

/// IncDect's engine body on an already validated (and, under
/// RunMinimized, already minimized) Σ.
DeltaVio IncDectRules(const Graph& g, const NgdSet& sigma,
                      const UpdateBatch& batch, const IncDectOptions& opts) {
  UpdateIndex index(g, batch);
  std::vector<PivotTask> tasks = EnumeratePivotTasks(g, sigma, index);

  std::optional<AffectedArea> area;
  if (opts.affected_area_prefilter) area.emplace(g, sigma, index);

  // Backend: live overlay graph, or DeltaView over the base snapshot
  // (owned when the caller does not maintain one across batches).
  std::optional<GraphSnapshot> owned_base;
  std::optional<DeltaView> dv;
  if (ResolveDeltaView(g, index, tasks, opts.snapshot_mode,
                       opts.base_snapshot != nullptr)) {
    const GraphSnapshot* base = opts.base_snapshot;
    if (base == nullptr) {
      owned_base.emplace(g, GraphView::kOld);
      base = &*owned_base;
    }
    dv.emplace(*base, g, batch);
  }
  const DeltaView* delta_view = dv.has_value() ? &*dv : nullptr;

  // Plan cache: one expansion order per (NGD, pattern edge) seed pair.
  std::unordered_map<int64_t, MatchPlan> plans;
  auto plan_for = [&](int f, int p) -> const MatchPlan& {
    int64_t key = (static_cast<int64_t>(f) << 32) | static_cast<uint32_t>(p);
    auto it = plans.find(key);
    if (it != plans.end()) return it->second;
    const Ngd& ngd = sigma[f];
    const PatternEdge& pe = ngd.pattern().edge(p);
    std::vector<int> seeds{pe.src};
    if (pe.dst != pe.src) seeds.push_back(pe.dst);
    MatchPlan plan =
        BuildMatchPlan(ngd.pattern(), std::move(seeds), &ngd.X(), &ngd.Y());
    return plans.emplace(key, std::move(plan)).first->second;
  };

  DetectRunInfo local_info;
  DetectRunInfo* info = opts.run_info != nullptr ? opts.run_info : &local_info;
  info->StartFull(sigma.size());
  CancelCheck check(opts.cancel, opts.deadline);
  CancelCheck* cancel = check.active() ? &check : nullptr;

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
    const PivotTask& task = tasks[t];
    if (cancel != nullptr && cancel->ShouldStop()) {
      mark_truncated_from(t);
      break;
    }
    if (area.has_value() && !area->RuleCanMatch(task.ngd_index)) continue;
    const Ngd& ngd = sigma[task.ngd_index];
    const EffectiveUpdate& u = index.updates()[task.update_index];
    const PatternEdge& pe = ngd.pattern().edge(task.pattern_edge);

    PivotEdgeFilter filter(delta_view, &index, u.kind, task.update_index);
    SearchConfig cfg;
    cfg.graph = &g;
    cfg.delta_view = delta_view;
    cfg.pattern = &ngd.pattern();
    cfg.x = &ngd.X();
    cfg.y = &ngd.Y();
    cfg.view =
        u.kind == UpdateKind::kInsert ? GraphView::kNew : GraphView::kOld;
    cfg.edge_filter = &filter;
    cfg.node_scope =
        area.has_value() ? area->ScopeOf(task.ngd_index) : nullptr;
    cfg.find_violations = true;
    cfg.cancel = cancel;

    Binding binding(ngd.pattern().NumNodes(), kInvalidNode);
    binding[pe.src] = u.edge.src;
    binding[pe.dst] = u.edge.dst;

    VioSet& target =
        u.kind == UpdateKind::kInsert ? delta.added : delta.removed;
    RunSeededSearch(cfg, plan_for(task.ngd_index, task.pattern_edge),
                    &binding, [&](const Binding& match) {
                      if (IsCanonicalPivot(delta_view, ngd.pattern(), match,
                                           index, u.kind, task.update_index,
                                           task.pattern_edge)) {
                        // Minimal-pivot canonicality already guarantees
                        // exactly-once emission per match per update
                        // kind; the checked insert's hash probe would
                        // only re-prove it.
                        target.AppendUnchecked(task.ngd_index, match.data(),
                                               match.size());
                      }
                      return true;
                    });
    if (cancel != nullptr && cancel->Stopped()) {
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
