// d-hop neighborhood extraction.
//
// Localizable incremental detection (paper §6.1) confines all work to the
// d_Σ-neighbors of the nodes touched by ΔG: G_d(v) is the subgraph induced
// by V_d(v), the nodes within d hops of v treating G as undirected. The
// candidate-neighborhood set N_C(ΔG, Σ) replicated by PIncDect is the union
// of these balls over all update pivots. PDect's halos are the same balls
// around each fragment's boundary (parallel/fragment.h), taken over the
// fragment runtime's CSR; both backends run one BFS.

#ifndef NGD_GRAPH_NEIGHBORHOOD_H_
#define NGD_GRAPH_NEIGHBORHOOD_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace ngd {

class GraphSnapshot;

/// Membership mask over node ids, with the member list kept alongside so
/// both O(1) tests and iteration are cheap.
class NodeSet {
 public:
  explicit NodeSet(size_t num_nodes) : mask_(num_nodes, 0) {}

  bool Contains(NodeId v) const { return v < mask_.size() && mask_[v] != 0; }
  void Add(NodeId v) {
    if (v >= mask_.size()) mask_.resize(v + 1, 0);
    if (!mask_[v]) {
      mask_[v] = 1;
      members_.push_back(v);
    }
  }
  const std::vector<NodeId>& members() const { return members_; }
  size_t size() const { return members_.size(); }
  bool empty() const { return members_.empty(); }

 private:
  std::vector<uint8_t> mask_;
  std::vector<NodeId> members_;
};

/// Nodes within `d` hops (undirected) of any seed, in `view`.
/// Includes the seeds themselves.
NodeSet DHopNeighborhood(const Graph& g, const std::vector<NodeId>& seeds,
                         int d, GraphView view);
/// The same over the edges of `snap` (its one view).
NodeSet DHopNeighborhood(const GraphSnapshot& snap,
                         const std::vector<NodeId>& seeds, int d);

}  // namespace ngd

#endif  // NGD_GRAPH_NEIGHBORHOOD_H_
