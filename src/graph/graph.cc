#include "graph/graph.h"

#include <algorithm>

#include "graph/snapshot.h"

namespace ngd {

const std::vector<NodeId> Graph::kEmptyNodeList;

Graph::CsrCache::CsrCache() : state(std::make_unique<CommittedCsr>()) {}

Graph::CsrCache::~CsrCache() = default;

Graph::CsrCache& Graph::CsrCache::operator=(const CsrCache&) {
  MutexLock lock(&mu);
  *state = CommittedCsr();
  covered.store(0, std::memory_order_relaxed);
  return *this;
}

Graph::Graph(SchemaPtr schema) : schema_(std::move(schema)) {}

void Graph::MarkCsrDirty(NodeId src, NodeId dst) {
  const size_t covered = csr_.covered.load(std::memory_order_relaxed);
  if (src >= covered && dst >= covered) return;
  MutexLock lock(&csr_.mu);
  CommittedCsr& csr = *csr_.state;
  // A list longer than the CSR's node count gains nothing over a full
  // rebuild; dropping it keeps the list O(|V|) under long AddEdge runs.
  if (csr.dirty.size() + 2 > covered) {
    csr.stale = true;
    csr.dirty.clear();
    return;
  }
  if (src < covered) csr.dirty.push_back(src);
  if (dst < covered) csr.dirty.push_back(dst);
}

NodeId Graph::AddNode(LabelId label) {
  NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(NodeRecord{label, {}});
  out_.emplace_back();
  in_.emplace_back();
  if (label >= label_index_.size()) label_index_.resize(label + 1);
  label_index_[label].push_back(id);
  return id;
}

NodeId Graph::AddNode(std::string_view label_name) {
  return AddNode(schema_->InternLabel(label_name));
}

void Graph::SetAttr(NodeId v, AttrId attr, Value value) {
  auto& attrs = nodes_[v].attrs;
  auto it = std::lower_bound(
      attrs.begin(), attrs.end(), attr,
      [](const auto& p, AttrId a) { return p.first < a; });
  if (it != attrs.end() && it->first == attr) {
    it->second = std::move(value);
  } else {
    attrs.insert(it, {attr, std::move(value)});
  }
  // The committed CSR copies attribute tuples; it refreshes adjacency
  // only, so a covered node's new value needs a full rebuild.
  if (v < csr_.covered.load(std::memory_order_relaxed)) {
    MutexLock lock(&csr_.mu);
    csr_.state->stale = true;
  }
}

void Graph::SetAttr(NodeId v, std::string_view attr_name, Value value) {
  SetAttr(v, schema_->InternAttr(attr_name), std::move(value));
}

const Value* Graph::GetAttr(NodeId v, AttrId attr) const {
  const auto& attrs = nodes_[v].attrs;
  auto it = std::lower_bound(
      attrs.begin(), attrs.end(), attr,
      [](const auto& p, AttrId a) { return p.first < a; });
  if (it != attrs.end() && it->first == attr) return &it->second;
  return nullptr;
}

Status Graph::AddEdge(NodeId src, NodeId dst, LabelId label) {
  if (src >= nodes_.size() || dst >= nodes_.size()) {
    return Status::InvalidArgument("edge endpoint out of range");
  }
  if (!edge_index_.Insert(EdgeKey{src, dst, label}, EdgeState::kBase).second) {
    return Status::AlreadyExists("edge already exists");
  }
  out_[src].push_back({dst, label, EdgeState::kBase});
  in_[dst].push_back({src, label, EdgeState::kBase});
  ++num_base_edges_;
  MarkCsrDirty(src, dst);
  return Status::OK();
}

Status Graph::AddEdge(NodeId src, NodeId dst, std::string_view label_name) {
  return AddEdge(src, dst, schema_->InternLabel(label_name));
}

Status Graph::AddEdges(const std::vector<EdgeKey>& edges, size_t* failed_at) {
  // Count each node's new entries per direction and reserve the lists in
  // node order, so neighbouring nodes' lists sit close together. Edges
  // with an endpoint out of range are left to AddEdge to reject.
  const size_t n = nodes_.size();
  std::vector<uint32_t> degree(n);
  auto reserve = [&](std::vector<std::vector<AdjEntry>>& lists, bool out) {
    std::fill(degree.begin(), degree.end(), 0);
    for (const EdgeKey& e : edges) {
      if (e.src < n && e.dst < n) ++degree[out ? e.src : e.dst];
    }
    for (NodeId v = 0; v < n; ++v) {
      if (degree[v] > 0) lists[v].reserve(lists[v].size() + degree[v]);
    }
  };
  reserve(out_, true);
  reserve(in_, false);
  edge_index_.Reserve(edge_index_.size() + edges.size());
  for (size_t i = 0; i < edges.size(); ++i) {
    Status s = AddEdge(edges[i].src, edges[i].dst, edges[i].label);
    if (!s.ok()) {
      if (failed_at != nullptr) *failed_at = i;
      return s;
    }
  }
  return Status::OK();
}

Status Graph::InsertEdge(NodeId src, NodeId dst, LabelId label) {
  if (src >= nodes_.size() || dst >= nodes_.size()) {
    return Status::InvalidArgument("edge endpoint out of range");
  }
  EdgeKey key{src, dst, label};
  auto [state, added] = edge_index_.Insert(key, EdgeState::kInserted);
  if (!added) {
    if (*state == EdgeState::kDeleted) {
      // Reinsert of a deleted edge: net effect is the edge stays; it is in
      // both views again. Fold to base and drop both pending ops.
      *state = EdgeState::kBase;
      SetEdgeState(src, dst, label, EdgeState::kBase);
      ++num_base_edges_;
      --num_deleted_edges_;
      --pending_updates_;
      return Status::OK();
    }
    return Status::AlreadyExists("edge already exists in current view");
  }
  pending_keys_.push_back(key);
  out_[src].push_back({dst, label, EdgeState::kInserted});
  in_[dst].push_back({src, label, EdgeState::kInserted});
  ++num_inserted_edges_;
  ++pending_updates_;
  return Status::OK();
}

Status Graph::DeleteEdge(NodeId src, NodeId dst, LabelId label) {
  EdgeKey key{src, dst, label};
  EdgeState* state = edge_index_.Find(key);
  if (state == nullptr || *state == EdgeState::kDeleted) {
    return Status::NotFound("edge not present in G ⊕ ΔG");
  }
  if (*state == EdgeState::kInserted) {
    // Deleting a pending insertion cancels it.
    edge_index_.Erase(key);
    RemoveAdjEntries(src, dst, label);
    --num_inserted_edges_;
    --pending_updates_;
    return Status::OK();
  }
  *state = EdgeState::kDeleted;
  pending_keys_.push_back(key);
  SetEdgeState(src, dst, label, EdgeState::kDeleted);
  --num_base_edges_;
  ++num_deleted_edges_;
  ++pending_updates_;
  return Status::OK();
}

void Graph::SetEdgeState(NodeId src, NodeId dst, LabelId label,
                         EdgeState state) {
  for (auto& e : out_[src]) {
    if (e.other == dst && e.label == label) {
      e.state = state;
      break;
    }
  }
  for (auto& e : in_[dst]) {
    if (e.other == src && e.label == label) {
      e.state = state;
      break;
    }
  }
}

void Graph::RemoveAdjEntries(NodeId src, NodeId dst, LabelId label) {
  // Swap-pop, then give back capacity once a list fills less than half of
  // it: update streams grow and shrink the same lists for ever, and a
  // list that never shrinks keeps its high-water mark.
  auto erase_one = [](std::vector<AdjEntry>& v, NodeId other, LabelId l) {
    for (size_t i = 0; i < v.size(); ++i) {
      if (v[i].other == other && v[i].label == l) {
        v[i] = v.back();
        v.pop_back();
        if (v.capacity() > 2 * v.size() + 1) v.shrink_to_fit();
        return;
      }
    }
  };
  erase_one(out_[src], dst, label);
  erase_one(in_[dst], src, label);
}

void Graph::Commit() {
  for (const EdgeKey& k : pending_keys_) {
    EdgeState* state = edge_index_.Find(k);
    if (state == nullptr || *state == EdgeState::kBase) continue;
    if (*state == EdgeState::kDeleted) {
      RemoveAdjEntries(k.src, k.dst, k.label);
      edge_index_.Erase(k);
    } else {
      SetEdgeState(k.src, k.dst, k.label, EdgeState::kBase);
      *state = EdgeState::kBase;
    }
    MarkCsrDirty(k.src, k.dst);
  }
  pending_keys_.clear();
  num_base_edges_ += num_inserted_edges_;
  num_inserted_edges_ = 0;
  num_deleted_edges_ = 0;
  pending_updates_ = 0;
}

void Graph::Rollback() {
  // The committed edge set is unchanged, so the CSR stays current.
  for (const EdgeKey& k : pending_keys_) {
    EdgeState* state = edge_index_.Find(k);
    if (state == nullptr || *state == EdgeState::kBase) continue;
    if (*state == EdgeState::kInserted) {
      RemoveAdjEntries(k.src, k.dst, k.label);
      edge_index_.Erase(k);
    } else {
      SetEdgeState(k.src, k.dst, k.label, EdgeState::kBase);
      *state = EdgeState::kBase;
    }
  }
  pending_keys_.clear();
  num_base_edges_ += num_deleted_edges_;
  num_inserted_edges_ = 0;
  num_deleted_edges_ = 0;
  pending_updates_ = 0;
}

size_t Graph::NumEdges(GraphView view) const {
  return view == GraphView::kOld ? num_base_edges_ + num_deleted_edges_
                                 : num_base_edges_ + num_inserted_edges_;
}

bool Graph::HasEdge(NodeId src, NodeId dst, LabelId label,
                    GraphView view) const {
  const EdgeState* state = edge_index_.Find(EdgeKey{src, dst, label});
  return state != nullptr && EdgeInView(*state, view);
}

std::optional<EdgeState> Graph::EdgeStateOf(NodeId src, NodeId dst,
                                            LabelId label) const {
  const EdgeState* state = edge_index_.Find(EdgeKey{src, dst, label});
  if (state == nullptr) return std::nullopt;
  return *state;
}

const std::vector<NodeId>& Graph::NodesWithLabel(LabelId label) const {
  if (label >= label_index_.size()) return kEmptyNodeList;
  return label_index_[label];
}

}  // namespace ngd
