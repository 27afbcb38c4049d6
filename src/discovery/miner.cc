#include "discovery/miner.h"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "detect/dect.h"
#include "reason/sigma_optimizer.h"

namespace ngd {

namespace {

/// Frequent edge shape (src label, edge label, dst label).
struct EdgeShape {
  LabelId src;
  LabelId edge;
  LabelId dst;
  bool operator<(const EdgeShape& o) const {
    return std::tie(src, edge, dst) < std::tie(o.src, o.edge, o.dst);
  }
};

std::map<EdgeShape, size_t> CountEdgeShapes(const Graph& g) {
  std::map<EdgeShape, size_t> counts;
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    for (const auto& e : g.OutEdges(v)) {
      if (!EdgeInView(e.state, GraphView::kNew)) continue;
      ++counts[EdgeShape{g.NodeLabel(v), e.label, g.NodeLabel(e.other)}];
    }
  }
  return counts;
}

/// Enumerates up to `cap` matches of `pattern` in g.
std::vector<Binding> SampleMatches(const Graph& g, const Pattern& pattern,
                                   size_t cap) {
  std::vector<Binding> matches;
  SearchConfig cfg;
  cfg.graph = GraphAccessor(g, GraphView::kNew);
  cfg.pattern = &pattern;
  cfg.find_violations = false;
  RunBatchSearch(cfg, [&](const Binding& h) {
    matches.push_back(h);
    return matches.size() < cap;
  });
  return matches;
}

/// Numeric attributes common to ALL matched nodes of a variable.
std::vector<AttrId> CommonNumericAttrs(const Graph& g,
                                       const std::vector<Binding>& matches,
                                       int var) {
  std::unordered_map<AttrId, size_t> counts;
  for (const Binding& h : matches) {
    for (const auto& [attr, value] : g.Attrs(h[var])) {
      if (value.is_int()) ++counts[attr];
    }
  }
  std::vector<AttrId> out;
  for (const auto& [attr, n] : counts) {
    if (n == matches.size()) out.push_back(attr);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Confidence of `lit` over the matches.
double Confidence(const Graph& g, const std::vector<Binding>& matches,
                  const Literal& lit) {
  if (matches.empty()) return 0.0;
  const GraphAccessor acc(g, GraphView::kNew);
  size_t holds = 0;
  for (const Binding& h : matches) {
    if (lit.Evaluate(acc, h) == Truth::kTrue) ++holds;
  }
  return static_cast<double>(holds) / static_cast<double>(matches.size());
}

struct MinerState {
  const Graph& g;
  const MinerOptions& opts;
  NgdSet rules;
  size_t rule_counter = 0;

  bool Full() const { return rules.size() >= opts.max_rules; }

  void MineLiterals(const Pattern& pattern,
                    const std::vector<Binding>& matches) {
    if (Full() || matches.size() < opts.min_support) return;
    const int n = static_cast<int>(pattern.NumNodes());
    std::vector<std::vector<AttrId>> attrs(n);
    for (int v = 0; v < n; ++v) {
      attrs[v] = CommonNumericAttrs(g, matches, v);
    }
    auto emit = [&](Literal lit) {
      if (Full()) return;
      Ngd ngd("mined" + std::to_string(rule_counter++), pattern, {},
              {std::move(lit)});
      if (ngd.Validate().ok()) rules.Add(std::move(ngd));
    };

    // Pairwise literals x.A ⊗ y.B across distinct (var, attr) pairs.
    for (int v1 = 0; v1 < n && !Full(); ++v1) {
      for (AttrId a1 : attrs[v1]) {
        for (int v2 = v1; v2 < n && !Full(); ++v2) {
          for (AttrId a2 : attrs[v2]) {
            if (v1 == v2 && a1 >= a2) continue;
            for (CmpOp op : {CmpOp::kEq, CmpOp::kLe, CmpOp::kGe}) {
              Literal lit(Expr::Var(v1, a1), op, Expr::Var(v2, a2));
              if (Confidence(g, matches, lit) >= opts.min_confidence) {
                emit(std::move(lit));
                break;  // = subsumes <= and >=; keep the strongest only
              }
            }
          }
        }
      }
    }

    // Sum literals x.A + y.B = z.C (the populationTotal shape).
    if (opts.mine_sum_literals && n >= 3) {
      for (int v1 = 0; v1 < n && !Full(); ++v1) {
        for (int v2 = v1; v2 < n; ++v2) {
          for (int v3 = 0; v3 < n; ++v3) {
            if (v3 == v1 || v3 == v2) continue;
            for (AttrId a1 : attrs[v1]) {
              for (AttrId a2 : attrs[v2]) {
                if (v1 == v2 && a1 == a2) continue;
                for (AttrId a3 : attrs[v3]) {
                  Literal lit(
                      Expr::Add(Expr::Var(v1, a1), Expr::Var(v2, a2)),
                      CmpOp::kEq, Expr::Var(v3, a3));
                  if (Confidence(g, matches, lit) >= opts.min_confidence) {
                    emit(std::move(lit));
                  }
                  if (Full()) return;
                }
              }
            }
          }
        }
      }
    }
  }
};

}  // namespace

NgdSet DiscoverNgds(const Graph& g, const MinerOptions& opts) {
  MinerState state{g, opts, {}, 0};

  // Vertical level 1: frequent single-edge patterns.
  std::map<EdgeShape, size_t> shapes = CountEdgeShapes(g);
  std::vector<EdgeShape> frequent;
  for (const auto& [shape, count] : shapes) {
    if (count >= opts.min_support) frequent.push_back(shape);
  }

  for (const EdgeShape& shape : frequent) {
    if (state.Full()) break;
    Pattern pattern;
    int x = pattern.AddNode("x", shape.src);
    int y = pattern.AddNode("y", shape.dst);
    Status s = pattern.AddEdge(x, y, shape.edge);
    if (!s.ok()) continue;
    std::vector<Binding> matches =
        SampleMatches(g, pattern, opts.max_matches_per_pattern);
    state.MineLiterals(pattern, matches);
  }

  // Vertical level 2: join two frequent shapes on a shared source
  // ("fan-out" patterns: (y) <-[e1]- (x) -[e2]-> (z)).
  if (opts.mine_two_edge_patterns) {
    for (size_t i = 0; i < frequent.size() && !state.Full(); ++i) {
      for (size_t j = i; j < frequent.size() && !state.Full(); ++j) {
        const EdgeShape& s1 = frequent[i];
        const EdgeShape& s2 = frequent[j];
        if (s1.src != s2.src) continue;
        if (i == j) continue;  // parallel identical edges are degenerate
        Pattern pattern;
        int x = pattern.AddNode("x", s1.src);
        int y = pattern.AddNode("y", s1.dst);
        int z = pattern.AddNode("z", s2.dst);
        if (!pattern.AddEdge(x, y, s1.edge).ok()) continue;
        if (!pattern.AddEdge(x, z, s2.edge).ok()) continue;
        std::vector<Binding> matches =
            SampleMatches(g, pattern, opts.max_matches_per_pattern);
        state.MineLiterals(pattern, matches);
      }
    }
  }

  // Vertical level 3: fan-outs with three distinct edges from one source —
  // the shape of sum dependencies (female + male = total).
  if (opts.mine_three_edge_fanouts) {
    for (size_t i = 0; i < frequent.size() && !state.Full(); ++i) {
      for (size_t j = i + 1; j < frequent.size() && !state.Full(); ++j) {
        for (size_t k = j + 1; k < frequent.size() && !state.Full(); ++k) {
          const EdgeShape& s1 = frequent[i];
          const EdgeShape& s2 = frequent[j];
          const EdgeShape& s3 = frequent[k];
          if (s1.src != s2.src || s2.src != s3.src) continue;
          Pattern pattern;
          int x = pattern.AddNode("x", s1.src);
          int y = pattern.AddNode("y", s1.dst);
          int z = pattern.AddNode("z", s2.dst);
          int w = pattern.AddNode("w", s3.dst);
          if (!pattern.AddEdge(x, y, s1.edge).ok()) continue;
          if (!pattern.AddEdge(x, z, s2.edge).ok()) continue;
          if (!pattern.AddEdge(x, w, s3.edge).ok()) continue;
          std::vector<Binding> matches =
              SampleMatches(g, pattern, opts.max_matches_per_pattern);
          state.MineLiterals(pattern, matches);
        }
      }
    }
  }

  // Levelwise mining rediscovers the same dependency through every pattern
  // that carries it (and through weaker comparisons on other samples); the
  // Σ-optimizer removes everything the kept rules already imply, so the
  // returned catalog is the set detection actually needs to run.
  if (opts.suppress_implied && state.rules.size() > 1) {
    MinimizedSigma m =
        MinimizeSigma(state.rules, g.schema(), SigmaOptimizerOptions{});
    return std::move(m.sigma);
  }
  return std::move(state.rules);
}

}  // namespace ngd
