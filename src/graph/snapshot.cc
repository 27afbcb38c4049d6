#include "graph/snapshot.h"

#include <algorithm>
#include <cassert>

namespace ngd {

namespace {

using Direction = SnapshotCore::Direction;
using LabelGroup = SnapshotCore::LabelGroup;

// A refresh whose dirty set exceeds |V| / kFullBuildDivisor rebuilds every
// node instead: past that, sorting the dirty set buys little.
constexpr size_t kFullBuildDivisor = 4;

const SnapshotCore& EmptyCore() {
  static const SnapshotCore empty;
  return empty;
}

/// Makes room for `n` elements: exactly in a fresh buffer, twice that in
/// a reused one. The committed core is rewritten every epoch while the
/// graph grows, so its buffers then reallocate — holding old and new
/// copies at once — only when |V| doubles, like the Graph's own node
/// arrays, not every few epochs.
template <typename T>
void Reserve(std::vector<T>* v, size_t n) {
  if (v->capacity() < n) v->reserve(v->capacity() == 0 ? n : 2 * n);
}

/// Scratch the per-node builder reuses across nodes.
struct NodeScratch {
  explicit NodeScratch(size_t num_labels) : seg(num_labels, 0) {}
  std::vector<uint32_t> seg;  // label -> count, then offset; zero between
  std::vector<LabelId> touched;
  std::vector<NodeId> buf;
};

/// The per-node builder: appends v's label groups and id-sorted neighbor
/// runs in `view` of one direction of `g` to `d`, and closes v's range.
///
/// A counting sort on the label (scratch reset via the touched list), then
/// an id sort within each label segment. Beats a comparator sort of
/// (label, id) pairs ~2x: segments are short, so the O(d log d) factor
/// collapses to O(d + Σ s log s).
void AppendNode(const Graph& g, GraphView view, bool out, NodeId v,
                NodeScratch* s, Direction* d) {
  const auto& adj = out ? g.OutEdges(v) : g.InEdges(v);
  std::vector<uint32_t>& seg = s->seg;
  s->touched.clear();
  for (const AdjEntry& e : adj) {
    if (!EdgeInView(e.state, view)) continue;
    if (seg[e.label]++ == 0) s->touched.push_back(e.label);
  }
  if (!s->touched.empty()) {
    std::sort(s->touched.begin(), s->touched.end());
    uint32_t off = 0;
    for (LabelId l : s->touched) {
      const uint32_t count = seg[l];
      seg[l] = off;
      off += count;
    }
    s->buf.resize(off);
    for (const AdjEntry& e : adj) {
      if (!EdgeInView(e.state, view)) continue;
      s->buf[seg[e.label]++] = e.other;
    }
    uint32_t begin = 0;
    for (LabelId l : s->touched) {
      const uint32_t end = seg[l];
      std::sort(s->buf.begin() + begin, s->buf.begin() + end);
      d->groups.push_back(LabelGroup{
          l, static_cast<uint32_t>(d->nbr.size()),
          static_cast<uint32_t>(d->nbr.size() + (end - begin))});
      d->nbr.insert(d->nbr.end(), s->buf.begin() + begin,
                    s->buf.begin() + end);
      begin = end;
      seg[l] = 0;  // reset scratch for the next node
    }
  }
  d->group_off.push_back(static_cast<uint32_t>(d->groups.size()));
}

/// Appends nodes [first, last) of `prev` to `d` in bulk, rebasing their
/// group and neighbor offsets.
void CopyNodes(const Direction& prev, NodeId first, NodeId last,
               Direction* d) {
  if (first >= last) return;
  const uint32_t g_first = prev.group_off[first];
  const uint32_t g_last = prev.group_off[last];
  // Unsigned wrap-around keeps both shifts exact modulo 2^32.
  const uint32_t group_shift =
      static_cast<uint32_t>(d->groups.size()) - g_first;
  for (NodeId v = first; v < last; ++v) {
    d->group_off.push_back(prev.group_off[v + 1] + group_shift);
  }
  if (g_first == g_last) return;
  const uint32_t n_first = prev.groups[g_first].begin;
  const uint32_t n_last = prev.groups[g_last - 1].end;
  const uint32_t nbr_shift = static_cast<uint32_t>(d->nbr.size()) - n_first;
  for (uint32_t gi = g_first; gi < g_last; ++gi) {
    const LabelGroup& group = prev.groups[gi];
    d->groups.push_back(LabelGroup{group.label, group.begin + nbr_shift,
                                   group.end + nbr_shift});
  }
  d->nbr.insert(d->nbr.end(), prev.nbr.begin() + n_first,
                prev.nbr.begin() + n_last);
}

/// Writes one direction of `view` of `g` into `d`: nodes below
/// `prev_nodes` come from `prev` except the `dirty` ones (ascending,
/// unique), which are re-sorted from the live lists like every node from
/// `prev_nodes` on.
void BuildDirection(const Graph& g, GraphView view, bool out,
                    const Direction& prev, size_t prev_nodes,
                    const std::vector<NodeId>& dirty, NodeScratch* s,
                    Direction* d) {
  const size_t n = g.NumNodes();
  d->nbr.clear();
  d->groups.clear();
  d->group_off.clear();
  Reserve(&d->nbr, g.NumEdges(view));
  Reserve(&d->group_off, n + 1);
  d->group_off.push_back(0);
  NodeId next = 0;
  for (NodeId v : dirty) {
    CopyNodes(prev, next, v, d);
    AppendNode(g, view, out, v, s, d);
    next = v + 1;
  }
  CopyNodes(prev, next, static_cast<NodeId>(prev_nodes), d);
  for (NodeId v = static_cast<NodeId>(prev_nodes); v < n; ++v) {
    AppendNode(g, view, out, v, s, d);
  }
}

/// Brings `next` up to date with `view` of `g`, starting from `prev`: the
/// nodes `prev` covers keep its labels and attributes, nodes added since
/// are appended, and the adjacency is rebuilt as BuildDirection says,
/// through `spare`. `next` may be `prev` itself (a refresh in place, when
/// no snapshot holds it). A full build is a refresh from EmptyCore().
void Refresh(const Graph& g, GraphView view, const SnapshotCore& prev,
             const std::vector<NodeId>& dirty, SnapshotCore* next,
             Direction* spare) {
  const size_t n = g.NumNodes();
  const size_t prev_nodes = prev.node_labels.size();

  // Labels and flat attributes: `prev`'s, then the new nodes'. Graph keeps
  // each tuple AttrId-sorted already.
  size_t total_attrs = prev.attrs.size();
  for (NodeId v = static_cast<NodeId>(prev_nodes); v < n; ++v) {
    total_attrs += g.Attrs(v).size();
  }
  Reserve(&next->node_labels, n);
  Reserve(&next->attr_off, n + 1);
  Reserve(&next->attrs, total_attrs);
  if (next != &prev) {
    next->node_labels.assign(prev.node_labels.begin(), prev.node_labels.end());
    next->attrs.assign(prev.attrs.begin(), prev.attrs.end());
    next->attr_off.assign(prev.attr_off.begin(), prev.attr_off.end());
  }
  if (next->attr_off.empty()) next->attr_off.push_back(0);
  for (NodeId v = static_cast<NodeId>(prev_nodes); v < n; ++v) {
    next->node_labels.push_back(g.NodeLabel(v));
    for (const auto& a : g.Attrs(v)) next->attrs.push_back(a);
    next->attr_off.push_back(static_cast<uint32_t>(next->attrs.size()));
  }

  const size_t num_labels = g.schema()->labels().size();
  NodeScratch scratch(num_labels);
  BuildDirection(g, view, /*out=*/true, prev.out, prev_nodes, dirty, &scratch,
                 spare);
  std::swap(next->out, *spare);
  BuildDirection(g, view, /*out=*/false, prev.in, prev_nodes, dirty, &scratch,
                 spare);
  std::swap(next->in, *spare);

  // Label → candidate-node CSR via counting sort (node ids stay
  // ascending within each label).
  next->label_off.assign(num_labels + 1, 0);
  for (LabelId l : next->node_labels) {
    assert(l < num_labels);
    ++next->label_off[l + 1];
  }
  for (size_t l = 0; l < num_labels; ++l) {
    next->label_off[l + 1] += next->label_off[l];
  }
  Reserve(&next->label_nodes, n);
  next->label_nodes.resize(n);
  std::vector<uint32_t> cursor(next->label_off.begin(),
                               next->label_off.end() - 1);
  for (NodeId v = 0; v < n; ++v) {
    next->label_nodes[cursor[next->node_labels[v]]++] = v;
  }
}

std::shared_ptr<const SnapshotCore> BuildCore(const Graph& g, GraphView view) {
  auto core = std::make_shared<SnapshotCore>();
  Direction spare;
  Refresh(g, view, EmptyCore(), {}, core.get(), &spare);
  return core;
}

}  // namespace

std::shared_ptr<const SnapshotCore> GraphSnapshot::CommittedCore(
    const Graph& g) {
  MutexLock lock(&g.csr_.mu);
  CommittedCsr& csr = *g.csr_.state;
  const size_t n = g.NumNodes();
  if (csr.core == nullptr || csr.stale || !csr.dirty.empty() ||
      csr.core->node_labels.size() != n) {
    std::sort(csr.dirty.begin(), csr.dirty.end());
    csr.dirty.erase(std::unique(csr.dirty.begin(), csr.dirty.end()),
                    csr.dirty.end());
    const bool full = csr.core == nullptr || csr.stale ||
                      csr.dirty.size() > n / kFullBuildDivisor;
    if (full) csr.dirty.clear();
    // Copy-on-write: write into the core only when every lease on it has
    // come back, else build a new one and leave the old to its holders.
    const bool in_place =
        csr.core != nullptr && !csr.adopted &&
        csr.core->leases_returned.load(std::memory_order_acquire) ==
            csr.leased;
    std::shared_ptr<SnapshotCore> next = csr.core;
    if (!in_place) {
      next = std::make_shared<SnapshotCore>();
      csr.leased = 0;
      csr.adopted = false;
    }
    Refresh(g, GraphView::kOld, full ? EmptyCore() : *csr.core, csr.dirty,
            next.get(), &csr.spare);
    csr.core = std::move(next);
    csr.dirty.clear();
    csr.stale = false;
    g.csr_.covered.store(n, std::memory_order_relaxed);
  }
  // An adopted core is never written, so its holders need no count; its
  // leases_returned may belong to the graph the snapshot was taken from.
  if (csr.adopted) return csr.core;
  // A lease: its own control block keeps the core alive and, when the
  // last snapshot sharing it drops it, counts it returned.
  ++csr.leased;
  return std::shared_ptr<const SnapshotCore>(
      csr.core.get(), [keep = csr.core](const SnapshotCore* core) {
        core->leases_returned.fetch_add(1, std::memory_order_release);
      });
}

void GraphSnapshot::AdoptCommittedCore(Graph* g, const GraphSnapshot& snap) {
  assert(g->NumNodes() == snap.NumNodes() && !g->HasPendingUpdate());
  MutexLock lock(&g->csr_.mu);
  CommittedCsr& csr = *g->csr_.state;
  assert(csr.core == nullptr);
  // Never written while adopted (see CommittedCsr::adopted).
  csr.core = std::const_pointer_cast<SnapshotCore>(snap.core_);
  csr.adopted = true;
  g->csr_.covered.store(snap.NumNodes(), std::memory_order_relaxed);
}

GraphSnapshot::GraphSnapshot(const Graph& g, GraphView view)
    : schema_(g.schema()), view_(view) {
  Bind(view == GraphView::kOld || !g.HasPendingUpdate()
           ? CommittedCore(g)
           : BuildCore(g, view));
}

void GraphSnapshot::Bind(std::shared_ptr<const SnapshotCore> core) {
  core_ = std::move(core);
  const SnapshotCore& c = *core_;
  num_nodes_ = c.node_labels.size();
  num_edges_ = c.out.nbr.size();
  num_label_offs_ = c.label_off.size();
  node_labels_ = c.node_labels.data();
  out_ = DirectionView{c.out.nbr.data(), c.out.groups.data(),
                       c.out.group_off.data()};
  in_ = DirectionView{c.in.nbr.data(), c.in.groups.data(),
                      c.in.group_off.data()};
  attrs_ = c.attrs.data();
  attr_off_ = c.attr_off.data();
  label_nodes_ = c.label_nodes.data();
  label_off_ = c.label_off.data();
}

const Value* GraphSnapshot::GetAttr(NodeId v, AttrId attr) const {
  const auto* first = attrs_ + attr_off_[v];
  const auto* last = attrs_ + attr_off_[v + 1];
  const auto* it = std::lower_bound(
      first, last, attr,
      [](const std::pair<AttrId, Value>& p, AttrId a) { return p.first < a; });
  if (it != last && it->first == attr) return &it->second;
  return nullptr;
}

GraphSnapshot::IdRange GraphSnapshot::FindRange(const DirectionView& d,
                                                NodeId v, LabelId label) {
  const auto* first = d.groups + d.group_off[v];
  const auto* last = d.groups + d.group_off[v + 1];
  // Typical nodes touch a handful of distinct edge labels — a linear
  // scan of the label-ascending group list wins there — but hub nodes in
  // label-rich graphs (the paper's synthetic has |Γ| = 500) can carry
  // hundreds of groups, where binary search matters.
  constexpr ptrdiff_t kLinearCutoff = 16;
  if (last - first > kLinearCutoff) {
    const auto* it = std::lower_bound(
        first, last, label,
        [](const SnapshotCore::LabelGroup& group, LabelId l) {
          return group.label < l;
        });
    if (it != last && it->label == label) {
      return IdRange{d.nbr + it->begin,
                     static_cast<size_t>(it->end - it->begin)};
    }
    return IdRange{};
  }
  for (const auto* it = first; it != last; ++it) {
    if (it->label == label) {
      return IdRange{d.nbr + it->begin,
                     static_cast<size_t>(it->end - it->begin)};
    }
    if (it->label > label) break;
  }
  return IdRange{};
}

bool GraphSnapshot::HasEdge(NodeId src, NodeId dst, LabelId label) const {
  if (src >= NumNodes() || dst >= NumNodes()) return false;
  IdRange fwd = OutNeighbors(src, label);
  if (fwd.empty()) return false;
  IdRange bwd = InNeighbors(dst, label);
  if (bwd.empty()) return false;
  // Probe the smaller-degree endpoint: both ranges are id-sorted.
  const IdRange& r = fwd.size() <= bwd.size() ? fwd : bwd;
  const NodeId needle = fwd.size() <= bwd.size() ? dst : src;
  return std::binary_search(r.begin(), r.end(), needle);
}

GraphSnapshot::IdRange GraphSnapshot::NodesWithLabel(LabelId label) const {
  if (static_cast<size_t>(label) + 1 >= num_label_offs_) return IdRange{};
  return IdRange{label_nodes_ + label_off_[label],
                 static_cast<size_t>(label_off_[label + 1] -
                                     label_off_[label])};
}

}  // namespace ngd
