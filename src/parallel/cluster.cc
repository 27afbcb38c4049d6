#include "parallel/cluster.h"

#include <algorithm>
#include <thread>
#include <utility>

namespace ngd {

FragmentRuntime::FragmentRuntime(const Graph& g, int p, GraphView view,
                                 int halo_hops)
    : snapshot_(g, view),
      halo_hops_(std::max(0, halo_hops)),
      partition_(PartitionGraph(snapshot_, std::max(1, p))) {
  BuildFragments();
}

FragmentRuntime::FragmentRuntime(const Graph& g, Partition part,
                                 GraphView view, int halo_hops)
    : snapshot_(g, view),
      halo_hops_(std::max(0, halo_hops)),
      partition_(std::move(part)) {
  BuildFragments();
}

void FragmentRuntime::BuildFragments() {
  const int p = partition_.num_fragments;
  fragments_.resize(p);
  auto build = [this](int f) {
    fragments_[f] = BuildFragmentSnapshot(snapshot_, partition_, f, halo_hops_);
  };
  std::vector<std::thread> builders;
  builders.reserve(p);
  for (int f = 0; f < p; ++f) builders.emplace_back(build, f);
  for (auto& b : builders) b.join();
}

uint64_t FragmentRuntime::total_halo_nodes() const {
  uint64_t total = 0;
  for (const FragmentSnapshot& f : fragments_) total += f.halo.size();
  return total;
}

}  // namespace ngd
