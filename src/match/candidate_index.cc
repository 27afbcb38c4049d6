#include "match/candidate_index.h"

#include <algorithm>

namespace ngd {

FragmentCandidates::FragmentCandidates(const GraphAccessor& acc,
                                       const std::vector<NodeId>& owned)
    : owned_(owned) {
  // Counting sort of the owned nodes by label; ids stay ascending within
  // each label because owned_ is ascending.
  LabelId max_label = 0;
  for (NodeId v : owned_) max_label = std::max(max_label, acc.NodeLabel(v));
  const size_t num_labels = owned_.empty() ? 0 : max_label + size_t{1};
  label_off_.assign(num_labels + 1, 0);
  for (NodeId v : owned_) ++label_off_[acc.NodeLabel(v) + 1];
  for (size_t l = 0; l < num_labels; ++l) label_off_[l + 1] += label_off_[l];
  by_label_.resize(owned_.size());
  std::vector<uint32_t> cursor(label_off_.begin(), label_off_.end() - 1);
  for (NodeId v : owned_) by_label_[cursor[acc.NodeLabel(v)]++] = v;
}

int ChooseStartNode(const Pattern& pattern, const GraphAccessor& g) {
  int best = 0;
  size_t best_count = static_cast<size_t>(-1);
  // Cache the incumbent's degree: Pattern::Adjacency is a lazily built
  // per-node vector, and recomputing the incumbent's size on every
  // tie-break made the loop quadratic in fan-out for wildcard-heavy
  // patterns where every node ties at |V| candidates.
  size_t best_degree = 0;
  for (size_t i = 0; i < pattern.NumNodes(); ++i) {
    const int node = static_cast<int>(i);
    const size_t c = g.CandidateCount(pattern.node(node).label);
    const size_t degree = pattern.Adjacency(node).size();
    // Prefer selective labels; among ties — notably all-wildcard
    // patterns, where every count is |V| — prefer higher pattern degree
    // (more immediate edge constraints) instead of defaulting to index 0.
    if (c < best_count || (c == best_count && degree > best_degree)) {
      best = node;
      best_count = c;
      best_degree = degree;
    }
  }
  return best;
}

}  // namespace ngd
