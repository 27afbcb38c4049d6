#include "reason/sigma_optimizer.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>

#include "util/hash.h"
#include "util/thread_annotations.h"
#include "util/timer.h"

namespace ngd {

namespace {

// ---- Structural serialization -------------------------------------------
//
// Rules serialize to strings over label/attr NAMES (not interned ids), so
// equal strings mean detection-equivalent rules regardless of which Schema
// instance interned what in which order: the key of duplicate detection,
// fingerprints and the kept-set cache.

void AppendExpr(const Expr& e, const Dictionary& attrs, std::string* out) {
  if (!e.IsValid()) {
    out->append("<nil>");
    return;
  }
  switch (e.kind()) {
    case Expr::Kind::kIntConst:
      out->push_back('i');
      out->append(std::to_string(e.int_value()));
      return;
    case Expr::Kind::kStrConst:
      out->push_back('s');
      out->append(e.str_value());
      out->push_back('\x01');
      return;
    case Expr::Kind::kVarAttr:
      out->push_back('v');
      out->append(std::to_string(e.var_index()));
      out->push_back('.');
      out->append(attrs.NameOf(e.attr()));
      out->push_back('\x01');
      return;
    case Expr::Kind::kAdd:
    case Expr::Kind::kSub:
    case Expr::Kind::kMul:
    case Expr::Kind::kDiv: {
      const char op = e.kind() == Expr::Kind::kAdd   ? '+'
                      : e.kind() == Expr::Kind::kSub ? '-'
                      : e.kind() == Expr::Kind::kMul ? '*'
                                                     : '/';
      out->push_back('(');
      AppendExpr(e.lhs(), attrs, out);
      out->push_back(op);
      AppendExpr(e.rhs(), attrs, out);
      out->push_back(')');
      return;
    }
    case Expr::Kind::kNeg:
      out->append("(~");
      AppendExpr(e.lhs(), attrs, out);
      out->push_back(')');
      return;
    case Expr::Kind::kAbs:
      out->append("(|");
      AppendExpr(e.lhs(), attrs, out);
      out->append("|)");
      return;
  }
}

void AppendLiteral(const Literal& lit, const Dictionary& attrs,
                   std::string* out) {
  AppendExpr(lit.lhs(), attrs, out);
  out->push_back(' ');
  out->append(CmpOpName(lit.op()));
  out->push_back(' ');
  AppendExpr(lit.rhs(), attrs, out);
}

void AppendRule(const Ngd& ngd, const SchemaPtr& schema, std::string* out) {
  const Dictionary& labels = schema->labels();
  const Dictionary& attrs = schema->attrs();
  const Pattern& p = ngd.pattern();
  out->push_back('P');
  for (const PatternNode& n : p.nodes()) {
    out->push_back('n');
    out->append(n.label == kWildcardLabel ? "_" : labels.NameOf(n.label));
    out->push_back('\x01');
  }
  for (const PatternEdge& e : p.edges()) {
    out->push_back('e');
    out->append(std::to_string(e.src));
    out->push_back('>');
    out->append(std::to_string(e.dst));
    out->push_back(':');
    out->append(labels.NameOf(e.label));
    out->push_back('\x01');
  }
  out->push_back('X');
  for (const Literal& l : ngd.X()) {
    AppendLiteral(l, attrs, out);
    out->push_back(';');
  }
  out->push_back('Y');
  for (const Literal& l : ngd.Y()) {
    AppendLiteral(l, attrs, out);
    out->push_back(';');
  }
}

std::string SerializeSigma(const NgdSet& sigma, const SchemaPtr& schema) {
  std::string out;
  for (const Ngd& ngd : sigma.ngds()) {
    AppendRule(ngd, schema, &out);
    out.push_back('\n');
  }
  return out;
}

void CollectLiteralAttrs(const std::vector<Literal>& lits,
                         std::vector<AttrId>* out) {
  // Walks each literal's expressions for VarAttr leaves.
  struct Walker {
    static void Walk(const Expr& e, std::vector<AttrId>* out) {
      if (!e.IsValid()) return;
      switch (e.kind()) {
        case Expr::Kind::kVarAttr:
          out->push_back(e.attr());
          return;
        case Expr::Kind::kIntConst:
        case Expr::Kind::kStrConst:
          return;
        case Expr::Kind::kNeg:
        case Expr::Kind::kAbs:
          Walk(e.lhs(), out);
          return;
        default:
          Walk(e.lhs(), out);
          Walk(e.rhs(), out);
          return;
      }
    }
  };
  for (const Literal& l : lits) {
    Walker::Walk(l.lhs(), out);
    Walker::Walk(l.rhs(), out);
  }
}

/// Precomputed per-rule structural facts for the pre-filter.
struct RuleInfo {
  std::string serialized;     ///< duplicate detection
  std::vector<AttrId> attrs;  ///< sorted distinct attrs of X ∪ Y
  bool valid = false;
  bool has_consequence = false;  ///< Y non-empty — can constrain anything
};

RuleInfo MakeRuleInfo(const Ngd& ngd, const SchemaPtr& schema) {
  RuleInfo info;
  info.valid = ngd.Validate().ok();
  AppendRule(ngd, schema, &info.serialized);
  CollectLiteralAttrs(ngd.X(), &info.attrs);
  CollectLiteralAttrs(ngd.Y(), &info.attrs);
  std::sort(info.attrs.begin(), info.attrs.end());
  info.attrs.erase(std::unique(info.attrs.begin(), info.attrs.end()),
                   info.attrs.end());
  info.has_consequence = !ngd.Y().empty();
  return info;
}

bool AttrsIntersect(const std::vector<AttrId>& a,
                    const std::vector<AttrId>& b) {
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) return true;
    if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return false;
}

/// Can a helper-pattern node labelled `hl` map onto a target-pattern node
/// labelled `tl` in the target's CANONICAL model? Target wildcards become
/// globally fresh labels there, so only a helper wildcard reaches them.
bool NodeLabelCompatible(LabelId hl, LabelId tl) {
  if (hl == kWildcardLabel) return true;
  return tl != kWildcardLabel && hl == tl;
}

/// Necessary condition for the helper's pattern to have ANY match on the
/// canonical graph of the target's pattern: every helper edge finds a
/// label-compatible target edge, and (for edge-less helpers) every helper
/// node finds a compatible target node. Incomplete on purpose — it only
/// guards the exact solver, and restricting helpers is implication-
/// monotone-sound.
bool PatternCanEmbed(const Pattern& helper, const Pattern& target) {
  if (helper.NumEdges() == 0) {
    for (const PatternNode& hn : helper.nodes()) {
      bool found = false;
      for (const PatternNode& tn : target.nodes()) {
        if (NodeLabelCompatible(hn.label, tn.label)) {
          found = true;
          break;
        }
      }
      if (!found) return false;
    }
    return true;
  }
  for (const PatternEdge& he : helper.edges()) {
    bool found = false;
    for (const PatternEdge& te : target.edges()) {
      if (he.label == te.label &&
          NodeLabelCompatible(helper.node(he.src).label,
                              target.node(te.src).label) &&
          NodeLabelCompatible(helper.node(he.dst).label,
                              target.node(te.dst).label)) {
        found = true;
        break;
      }
    }
    if (!found) return false;
  }
  return true;
}

/// Structural pre-filter: can rule j plausibly participate in implying
/// rule i?
bool CompatibleHelper(const RuleInfo& helper_info, const RuleInfo& target_info,
                      const Ngd& helper, const Ngd& target) {
  if (!helper_info.valid || !helper_info.has_consequence) return false;
  if (!AttrsIntersect(helper_info.attrs, target_info.attrs)) return false;
  return PatternCanEmbed(helper.pattern(), target.pattern());
}

// ---- Process-wide kept-set cache ----------------------------------------

struct SigmaCacheEntry {
  std::vector<int> kept;
  // The implication cover travels with the kept-set so cache-served runs
  // remap DetectRunInfo as precisely as solver-backed ones.
  std::vector<std::vector<int>> implied_by;
};

struct SigmaCache {
  Mutex mu;
  // serialized Σ -> minimization result. Bounded: cleared wholesale when
  // it outgrows the cap (randomized test sweeps would otherwise grow it
  // without limit; production catalogs hold a handful of entries).
  std::unordered_map<std::string, SigmaCacheEntry> entries NGD_GUARDED_BY(mu);
  static constexpr size_t kMaxEntries = 256;
};

SigmaCache& Cache() {
  // Leaked process-lifetime singleton: no destructor-order hazard at exit.
  static SigmaCache* cache = new SigmaCache();  // ngdlint:allow(naked-new)
  return *cache;
}

MinimizedSigma FromKept(const NgdSet& sigma, std::vector<int> kept) {
  MinimizedSigma out;
  size_t next = 0;
  for (size_t i = 0; i < sigma.size(); ++i) {
    if (next < kept.size() && kept[next] == static_cast<int>(i)) {
      out.sigma.Add(sigma[i]);
      ++next;
    } else {
      out.report.dropped.push_back(static_cast<int>(i));
    }
  }
  out.report.kept = std::move(kept);
  return out;
}

}  // namespace

uint64_t FingerprintSigma(const NgdSet& sigma, const SchemaPtr& schema) {
  const std::string text = SerializeSigma(sigma, schema);
  return Fnv1a64(text.data(), text.size());
}

MinimizedSigma MinimizeSigma(const NgdSet& sigma, const SchemaPtr& schema,
                             const SigmaOptimizerOptions& opts) {
  // The implication checker interns fresh wildcard stand-in labels into
  // whatever schema it is given (BuildCanonicalModel). Detection calls
  // reach here with the graph's SHARED schema, possibly from several
  // threads at once (per-request detection, cold cache), and a detection
  // call must not mutate it — so the solver runs against a private copy.
  // Label/attr ids stay aligned (dictionaries are copied id-for-id), and
  // nothing schema-bound escapes: the report carries indices only.
  SchemaPtr scratch = Schema::Create();
  scratch->labels() = schema->labels();
  scratch->attrs() = schema->attrs();

  const size_t n = sigma.size();
  std::vector<RuleInfo> info;
  info.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    info.push_back(MakeRuleInfo(sigma[i], scratch));
  }

  std::vector<bool> alive(n, true);
  OptimizeReport report;
  report.implied_by.assign(n, {});

  // Pass 0: exact structural duplicates. The later copy is implied by the
  // earlier one (self-implication), no solver needed.
  std::unordered_map<std::string, int> first_with;
  for (size_t i = 0; i < n; ++i) {
    if (!info[i].valid) continue;
    auto [it, inserted] =
        first_with.emplace(info[i].serialized, static_cast<int>(i));
    if (!inserted) {
      alive[i] = false;
      ++report.duplicate_drops;
      report.implied_by[i] = {it->second};
    }
  }

  // Pass 1: greedy implication cover over the survivors. Checking against
  // the CURRENT alive set keeps the greedy sound: by reverse induction on
  // drop order, the final kept set implies every dropped rule.
  for (size_t i = 0; i < n; ++i) {
    if (!alive[i] || !info[i].valid) continue;
    // Helpers: every other alive rule the structural pre-filter admits,
    // in index order.
    std::vector<int> helpers;
    for (size_t j = 0; j < n; ++j) {
      if (j == i || !alive[j]) continue;
      if (CompatibleHelper(info[j], info[i], sigma[j], sigma[i])) {
        helpers.push_back(static_cast<int>(j));
      }
    }
    if (helpers.empty()) {
      ++report.prefilter_skips;
      continue;
    }

    NgdSet helper_set;
    for (int j : helpers) helper_set.Add(sigma[j]);
    WallTimer timer;
    ImplicationReport imp =
        CheckImplication(helper_set, sigma[i], scratch, opts.reason);
    report.solver_seconds += timer.ElapsedSeconds();
    ++report.implication_checks;
    if (imp.implied == Decision::kYes) {
      alive[i] = false;
      // The cover edge records the exact helper set behind the kYes —
      // every helper was alive at this point, so transitive resolution
      // from any dropped rule bottoms out in kept rules.
      report.implied_by[i] = std::move(helpers);
    } else if (imp.implied == Decision::kUnknown) {
      ++report.unknown;
    }
  }

  std::vector<int> kept;
  for (size_t i = 0; i < n; ++i) {
    if (alive[i]) kept.push_back(static_cast<int>(i));
  }
  MinimizedSigma out = FromKept(sigma, std::move(kept));
  report.kept = out.report.kept;
  report.dropped = out.report.dropped;
  out.report = std::move(report);
  return out;
}

bool ResolveMinimizedSigma(const NgdSet& sigma, const SchemaPtr& schema,
                           MinimizeMode mode,
                           const SigmaOptimizerOptions& opts,
                           MinimizedSigma* out) {
  if (mode == MinimizeMode::kNever || sigma.empty()) return false;
  if (!sigma.Validate().ok()) return false;

  const std::string key = SerializeSigma(sigma, schema);
  SigmaCache& cache = Cache();
  {
    MutexLock lock(&cache.mu);
    auto it = cache.entries.find(key);
    if (it != cache.entries.end()) {
      if (it->second.kept.size() == sigma.size()) {
        return false;  // no-op cached
      }
      *out = FromKept(sigma, it->second.kept);
      out->report.implied_by = it->second.implied_by;
      out->report.from_cache = true;
      return true;
    }
  }
  MinimizedSigma m = MinimizeSigma(sigma, schema, opts);
  {
    MutexLock lock(&cache.mu);
    if (cache.entries.size() >= SigmaCache::kMaxEntries) {
      cache.entries.clear();
    }
    cache.entries.emplace(key,
                          SigmaCacheEntry{m.report.kept, m.report.implied_by});
  }
  if (m.report.dropped.empty()) return false;
  *out = std::move(m);
  return true;
}

void ClearSigmaOptimizerCache() {
  SigmaCache& cache = Cache();
  MutexLock lock(&cache.mu);
  cache.entries.clear();
}

VioSet RemapViolations(VioSet vio, const std::vector<int>& kept) {
  // In place: kept[] is strictly increasing, so distinct minimized
  // indices stay distinct — set-ness is preserved without a rehash, and
  // the arena moves through untouched.
  vio.RemapNgdIndices(kept);
  return vio;
}

DeltaVio RemapDelta(DeltaVio delta, const std::vector<int>& kept) {
  DeltaVio out;
  out.added = RemapViolations(std::move(delta.added), kept);
  out.removed = RemapViolations(std::move(delta.removed), kept);
  return out;
}

void RemapRunInfo(const DetectRunInfo& inner, const OptimizeReport& report,
                  size_t original_rules, DetectRunInfo* out) {
  out->truncated = inner.truncated;
  // Kept rules copy their marks from the minimized run.
  std::vector<int8_t> mark(original_rules, -1);  // -1 unresolved, 0/1 known
  for (size_t i = 0; i < report.kept.size(); ++i) {
    const size_t orig = static_cast<size_t>(report.kept[i]);
    mark[orig] = i < inner.rule_completed.size() && inner.rule_completed[i]
                     ? 1
                     : (inner.truncated ? 0 : 1);
  }
  // Dropped rules propagate completion through the implication cover:
  // rule d's violations are covered by the rules that implied it, so d's
  // report is complete exactly when every (transitive) implier finished
  // enumerating. The implied_by edges always point to rules that were
  // alive at drop time, so the relation is a DAG rooted at kept rules.
  assert(report.implied_by.size() == original_rules);
  std::vector<int> stack;
  for (int d : report.dropped) {
    if (mark[static_cast<size_t>(d)] != -1) continue;
    stack.push_back(d);
    while (!stack.empty()) {
      const size_t r = static_cast<size_t>(stack.back());
      assert(!report.implied_by[r].empty());
      bool ready = true;
      bool all_complete = true;
      for (int j : report.implied_by[r]) {
        const int8_t m = mark[static_cast<size_t>(j)];
        if (m == -1) {
          stack.push_back(j);
          ready = false;
        } else if (m == 0) {
          all_complete = false;
        }
      }
      if (!ready) continue;
      mark[r] = all_complete ? 1 : 0;
      stack.pop_back();
    }
  }
  out->rule_completed.assign(original_rules, 0);
  for (size_t r = 0; r < original_rules; ++r) {
    out->rule_completed[r] = mark[r] == 1 ? 1 : 0;
  }
}

}  // namespace ngd
