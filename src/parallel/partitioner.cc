#include "parallel/partitioner.h"

#include <algorithm>
#include <cassert>
#include <numeric>

namespace ngd {

namespace {

// Weight of the label co-location bonus relative to one placed neighbor.
constexpr double kLabelAffinity = 0.25;

}  // namespace

Partition PartitionGraph(const GraphSnapshot& g, int p) {
  assert(p >= 1);
  Partition result;
  result.num_fragments = p;
  const size_t n = g.NumNodes();
  result.fragment_of.assign(n, -1);
  result.fragment_sizes.assign(p, 0);
  result.members.resize(p);
  result.boundary.resize(p);
  const double capacity = static_cast<double>(n) / p + 1.0;

  // Stream order: descending degree (ties by id) places hubs first, so
  // they spread over fragments while all fragments are still empty and
  // their spokes then follow them via the neighbor score.
  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), NodeId{0});
  std::vector<uint32_t> degree(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    g.ForEachOutEdge(v, [&](LabelId, NodeId w) {
      ++degree[v];
      ++degree[w];
    });
  }
  std::stable_sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    return degree[a] > degree[b];
  });

  // Per-fragment per-label population for the affinity bonus.
  const size_t num_labels = g.schema()->labels().size();
  std::vector<uint32_t> label_count(static_cast<size_t>(p) * num_labels, 0);

  std::vector<double> score(p);
  for (NodeId v : order) {
    std::fill(score.begin(), score.end(), 0.0);
    auto tally = [&](LabelId, NodeId w) {
      if (result.fragment_of[w] >= 0) score[result.fragment_of[w]] += 1.0;
    };
    g.ForEachOutEdge(v, tally);
    g.ForEachInEdge(v, tally);
    const LabelId l = g.NodeLabel(v);
    for (int f = 0; f < p; ++f) {
      const double placed =
          static_cast<double>(result.fragment_sizes[f]) + 1.0;
      score[f] += kLabelAffinity *
                  (label_count[static_cast<size_t>(f) * num_labels + l] /
                   placed);
    }

    int best = -1;
    double best_score = 0.0;
    for (int f = 0; f < p; ++f) {
      double penalty =
          1.0 - static_cast<double>(result.fragment_sizes[f]) / capacity;
      if (penalty <= 0.0) continue;  // fragment full
      double s = (score[f] + 0.01) * penalty;  // +eps: ties by capacity
      if (best < 0 || s > best_score) {
        best_score = s;
        best = f;
      }
    }
    // Capacity |V|/p + 1 leaves room: fewer than |V| nodes are placed, so
    // some fragment holds fewer than |V|/p.
    assert(best >= 0);
    result.fragment_of[v] = best;
    ++result.fragment_sizes[best];
    ++label_count[static_cast<size_t>(best) * num_labels + l];
  }

  // Ownership arrays and boundary sets; iterating v ascending keeps both
  // member and boundary lists sorted.
  for (int f = 0; f < p; ++f) {
    result.members[f].reserve(result.fragment_sizes[f]);
  }
  for (NodeId v = 0; v < n; ++v) {
    const int home = result.fragment_of[v];
    result.members[home].push_back(v);
    bool crossing = false;
    g.ForEachOutEdge(v, [&](LabelId, NodeId w) {
      if (result.fragment_of[w] != home) {
        ++result.crossing_edges;
        crossing = true;
      }
    });
    if (!crossing) {
      g.ForEachInEdge(v, [&](LabelId, NodeId w) {
        crossing = crossing || result.fragment_of[w] != home;
      });
    }
    if (crossing) result.boundary[home].push_back(v);
  }
  return result;
}

}  // namespace ngd
