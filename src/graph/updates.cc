#include "graph/updates.h"

#include <algorithm>

namespace ngd {

size_t UpdateBatch::NumInsertions() const {
  size_t n = 0;
  for (const auto& u : updates) n += u.kind == UpdateKind::kInsert ? 1 : 0;
  return n;
}

size_t UpdateBatch::NumDeletions() const {
  return updates.size() - NumInsertions();
}

Status ApplyUpdateBatch(Graph* g, UpdateBatch* batch,
                        size_t* failed_record) {
  std::vector<UnitUpdate> effective;
  effective.reserve(batch->updates.size());
  for (size_t i = 0; i < batch->updates.size(); ++i) {
    const UnitUpdate& u = batch->updates[i];
    Status s = u.kind == UpdateKind::kInsert
                   ? g->InsertEdge(u.src, u.dst, u.label)
                   : g->DeleteEdge(u.src, u.dst, u.label);
    if (s.ok()) {
      effective.push_back(u);
    } else if (s.code() != StatusCode::kAlreadyExists &&
               s.code() != StatusCode::kNotFound) {
      // Real failure: keep the documented invariant "batch == overlay" by
      // truncating to the effective prefix before reporting the error.
      if (failed_record != nullptr) *failed_record = i;
      batch->updates = std::move(effective);
      return s;
    }
    // kAlreadyExists / kNotFound: the unit update is a no-op; drop it.
  }
  batch->updates = std::move(effective);
  return Status::OK();
}

namespace {

std::vector<EdgeKey> CollectBaseEdges(const Graph& g) {
  std::vector<EdgeKey> edges;
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    for (const auto& e : g.OutEdges(v)) {
      if (e.state == EdgeState::kBase) {
        edges.push_back(EdgeKey{v, e.other, e.label});
      }
    }
  }
  return edges;
}

}  // namespace

UpdateBatch GenerateUpdateBatch(Graph* g, const UpdateGenOptions& opts) {
  Rng rng(opts.seed);
  UpdateBatch batch;
  std::vector<EdgeKey> edges = CollectBaseEdges(*g);
  if (edges.empty()) return batch;

  size_t total =
      static_cast<size_t>(opts.fraction * static_cast<double>(edges.size()));
  size_t num_inserts =
      static_cast<size_t>(opts.insert_fraction * static_cast<double>(total));
  size_t num_deletes = total - num_inserts;

  // Deletions: sample distinct base edges via partial Fisher-Yates.
  num_deletes = std::min(num_deletes, edges.size());
  for (size_t i = 0; i < num_deletes; ++i) {
    size_t j = static_cast<size_t>(
        rng.UniformInt(static_cast<int64_t>(i),
                       static_cast<int64_t>(edges.size()) - 1));
    std::swap(edges[i], edges[j]);
    batch.updates.push_back(
        {UpdateKind::kDelete, edges[i].src, edges[i].dst, edges[i].label});
  }

  // Insertions: rewire one endpoint of a template edge to a same-labeled
  // node (or a fresh clone), keeping the edge label, so the inserted edge
  // has the label profile of real edges and can trigger pattern pivots.
  for (size_t i = 0; i < num_inserts; ++i) {
    const EdgeKey& tpl = rng.PickFrom(edges);
    bool rewire_src = rng.Bernoulli(0.5);
    NodeId anchor = rewire_src ? tpl.dst : tpl.src;
    NodeId moved = rewire_src ? tpl.src : tpl.dst;
    NodeId replacement = kInvalidNode;
    if (rng.Bernoulli(opts.new_node_prob)) {
      // Fresh node cloning the moved endpoint's label and attribute shape,
      // with jittered integer values.
      replacement = g->AddNode(g->NodeLabel(moved));
      g->ReserveAttrs(replacement, g->Attrs(moved).size());
      for (const auto& [attr, val] : g->Attrs(moved)) {
        if (val.is_int()) {
          int64_t jitter = rng.UniformInt(-10, 10);
          g->SetAttr(replacement, attr, Value(val.AsInt() + jitter));
        } else {
          g->SetAttr(replacement, attr, val);
        }
      }
    } else {
      const auto& candidates = g->NodesWithLabel(g->NodeLabel(moved));
      if (candidates.empty()) continue;
      replacement = rng.PickFrom(candidates);
    }
    NodeId src = rewire_src ? replacement : anchor;
    NodeId dst = rewire_src ? anchor : replacement;
    if (src == dst) continue;
    if (g->HasEdge(src, dst, tpl.label, GraphView::kNew)) continue;
    batch.updates.push_back({UpdateKind::kInsert, src, dst, tpl.label});
  }
  return batch;
}

}  // namespace ngd
