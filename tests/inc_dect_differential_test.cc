// Differential harness for incremental detection (paper §5.2 correctness
// criterion, made adversarial):
//
//   Vio(Σ, G) ⊕ ΔVio(Σ, G, ΔG) == Dect(Σ, G ⊕ ΔG)
//
// over thousands of randomized (graph, Σ, ΔG) workloads, for all four
// engine combinations: {live overlay, DeltaView} × {IncDect, PIncDect}.
// The live sequential engine with the affected-area prefilter off is the
// unchanged pre-DeltaView code path and doubles as the oracle: every
// other engine's ΔVio must match it exactly (added and removed sets),
// not just produce the same net violation set.
//
// Each seed derives its workload deterministically — graph size, |ΔG|/|E|
// (5%–40%), insert/delete ratio γ (all-delete .. all-insert), new-node
// probability, processor count, split/balance toggles — so a failure
// reproduces from the printed seed alone:
//
//   NGD_DIFF_SEED=<seed> ctest -R inc_dect_differential
//
// Case count: 1000 per engine combination by default (the acceptance
// floor); NGD_DIFF_CASES overrides (sanitizer CI uses a smaller sweep,
// release CI and local runs the full one).
//
// A second family runs one graph through many epochs, so the DeltaView
// engines read a base the Graph refreshed from its previous committed CSR
// rather than one built from scratch. NGD_DIFF_CASES / 50 streams run
// (at least one); NGD_DIFF_SEED=<seed> replays one stream as well.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>

#include "detect/dect.h"
#include "detect/inc_dect.h"
#include "graph/graph_io.h"
#include "graph/snapshot.h"
#include "graph/snapshot_io.h"
#include "parallel/pinc_dect.h"
#include "test_util.h"

namespace ngd {
namespace {

size_t CaseCount() { return testing_util::EnvCount("NGD_DIFF_CASES", 1000); }

std::string Describe(const VioSet& set, const NgdSet& sigma) {
  std::ostringstream os;
  size_t shown = 0;
  for (const Violation& v : set.Sorted()) {
    if (++shown > 8) {
      os << "  ... (" << set.size() << " total)\n";
      break;
    }
    os << "  " << sigma[v.ngd_index].name() << " h=(";
    for (size_t i = 0; i < v.nodes.size(); ++i) {
      os << (i > 0 ? "," : "") << v.nodes[i];
    }
    os << ")\n";
  }
  return os.str();
}

/// Set equality with a readable diff; `repro` names the failing seed.
void ExpectSameVioSet(const VioSet& want, const VioSet& got,
                      const NgdSet& sigma, const std::string& what,
                      const std::string& repro) {
  VioSet missing, spurious;
  for (const Violation& v : want.items()) {
    if (!got.Contains(v)) missing.Add(v);
  }
  for (const Violation& v : got.items()) {
    if (!want.Contains(v)) spurious.Add(v);
  }
  EXPECT_TRUE(missing.empty() && spurious.empty())
      << what << " mismatch (" << repro << ")\nmissing:\n"
      << Describe(missing, sigma) << "spurious:\n"
      << Describe(spurious, sigma);
}

struct CaseOutcome {
  size_t effective_updates = 0;
  bool delta_nonempty = false;
};

/// One randomized differential case; everything derives from `seed`. The
/// (graph, Σ) pair comes from the shared generator in test_util.h — the
/// same workload space the Σ-optimizer differential harness sweeps.
CaseOutcome RunCase(uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  testing_util::RandomWorkload w = testing_util::MakeRandomWorkload(seed, &rng);
  const double fractions[] = {0.05, 0.1, 0.2, 0.3, 0.4};
  const double gammas[] = {0.0, 0.25, 0.5, 0.75, 1.0};
  const double fraction = fractions[rng.UniformInt(0, 4)];
  const double insert_fraction = gammas[rng.UniformInt(0, 4)];
  const double new_node_prob = rng.Bernoulli(0.3) ? 0.2 : 0.0;
  const int processors = static_cast<int>(rng.UniformInt(2, 4));
  const bool enable_split = rng.Bernoulli(0.5);
  const bool enable_balance = rng.Bernoulli(0.5);
  const bool pass_base_snapshot = rng.Bernoulli(0.5);

  std::ostringstream repro_os;
  repro_os << "repro: NGD_DIFF_SEED=" << seed << " (nodes=" << w.nodes
           << " edges=" << w.edges << " dG=" << fraction
           << " gamma=" << insert_fraction << " p=" << processors << ")";
  const std::string repro = repro_os.str();

  std::unique_ptr<Graph>& g = w.graph;
  NgdSet& sigma = w.sigma;
  if (sigma.empty() || !ValidateForIncremental(sigma).ok()) return {};

  const VioSet before = Dect(*g, sigma);

  UpdateGenOptions up;
  up.fraction = fraction;
  up.insert_fraction = insert_fraction;
  up.new_node_prob = new_node_prob;
  up.seed = seed + 2;
  UpdateBatch batch = GenerateUpdateBatch(g.get(), up);

  // A base snapshot taken before the batch is applied — the production
  // shape (one snapshot per commit epoch, reused across batches). The
  // other half of the cases make the engines build their own from the
  // overlay's kOld view, covering both DeltaView construction paths.
  std::optional<GraphSnapshot> base;
  if (pass_base_snapshot) base.emplace(*g, GraphView::kOld);

  EXPECT_TRUE(ApplyUpdateBatch(g.get(), &batch).ok()) << repro;
  const VioSet after = Dect(*g, sigma);

  // Oracle: the pre-DeltaView sequential engine, byte-for-byte.
  IncDectOptions oracle_opts;
  oracle_opts.snapshot_mode = SnapshotMode::kNever;
  auto oracle = IncDect(*g, sigma, batch, oracle_opts);
  EXPECT_TRUE(oracle.ok()) << repro << ": " << oracle.status().ToString();
  if (!oracle.ok()) return {};
  ExpectSameVioSet(after, ApplyDelta(before, *oracle), sigma,
                   "live IncDect vs batch Dect", repro);

  // DeltaView sequential.
  {
    IncDectOptions o;
    o.snapshot_mode = SnapshotMode::kAlways;
    o.base_snapshot = base.has_value() ? &*base : nullptr;
    auto d = IncDect(*g, sigma, batch, o);
    EXPECT_TRUE(d.ok()) << repro;
    if (!d.ok()) return {};
    ExpectSameVioSet(oracle->added, d->added, sigma, "delta-view IncDect ΔVio+",
                     repro);
    ExpectSameVioSet(oracle->removed, d->removed, sigma,
                     "delta-view IncDect ΔVio-", repro);
  }

  // Parallel engines, live and DeltaView backends.
  for (const bool use_delta : {false, true}) {
    PIncDectOptions o;
    o.num_processors = processors;
    o.balance_interval_ms = 1;
    o.enable_split = enable_split;
    o.enable_balance = enable_balance;
    o.snapshot_mode =
        use_delta ? SnapshotMode::kAlways : SnapshotMode::kNever;
    o.base_snapshot = use_delta && base.has_value() ? &*base : nullptr;
    auto d = PIncDect(*g, sigma, batch, o);
    EXPECT_TRUE(d.ok()) << repro;
    if (!d.ok()) return {};
    const char* what_add =
        use_delta ? "delta-view PIncDect ΔVio+" : "live PIncDect ΔVio+";
    const char* what_rem =
        use_delta ? "delta-view PIncDect ΔVio-" : "live PIncDect ΔVio-";
    ExpectSameVioSet(oracle->added, d->delta.added, sigma, what_add, repro);
    ExpectSameVioSet(oracle->removed, d->delta.removed, sigma, what_rem,
                     repro);
  }

  CaseOutcome outcome;
  outcome.effective_updates = batch.size();
  outcome.delta_nonempty = !oracle->empty();
  return outcome;
}

TEST(IncDectDifferentialTest, AllEngineCombinationsAgreeWithBatchDect) {
  if (const auto pinned = testing_util::EnvSeed("NGD_DIFF_SEED")) {
    RunCase(*pinned);
    return;
  }
  const size_t cases = CaseCount();
  size_t with_updates = 0, with_delta = 0;
  for (uint64_t seed = 1; seed <= cases; ++seed) {
    CaseOutcome o = RunCase(seed);
    if (HasFailure()) {
      FAIL() << "first failing case: NGD_DIFF_SEED=" << seed;
    }
    with_updates += o.effective_updates > 0 ? 1 : 0;
    with_delta += o.delta_nonempty ? 1 : 0;
  }
  // The sweep must actually exercise the machinery: most cases carry
  // effective updates and a healthy share produce a non-empty ΔVio.
  EXPECT_GT(with_updates, cases * 7 / 10);
  EXPECT_GT(with_delta, cases / 10);
}

/// One graph through kEpochs update epochs. Each epoch checks the
/// DeltaView engines, which build their base from the Graph's committed
/// CSR (no base_snapshot), against the live oracle, then commits — or
/// rolls back every 7th epoch. Every 5th epoch a kOld snapshot is held
/// across the Commit and the next epoch's refresh (the copy-on-write
/// path) and must not change.
void RunStream(uint64_t seed) {
  constexpr int kEpochs = 24;
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 11);
  testing_util::RandomWorkload w =
      testing_util::MakeRandomWorkload(seed + 7000, &rng);
  std::unique_ptr<Graph>& g = w.graph;
  NgdSet& sigma = w.sigma;
  if (sigma.empty() || !ValidateForIncremental(sigma).ok()) return;
  const int processors = static_cast<int>(rng.UniformInt(2, 4));

  DectOptions live;
  live.snapshot_mode = SnapshotMode::kNever;
  VioSet maintained = Dect(*g, sigma, live);
  std::unique_ptr<GraphSnapshot> held;
  uint64_t held_fingerprint = 0;
  for (int epoch = 1; epoch <= kEpochs; ++epoch) {
    const std::string repro = "repro: NGD_DIFF_SEED=" + std::to_string(seed) +
                              " stream epoch " + std::to_string(epoch);
    UpdateGenOptions up;
    // Small batches, so most refreshes stay under the full-build fallback.
    up.fraction = 0.04;
    up.insert_fraction = 0.5;
    up.new_node_prob = 0.2;
    up.seed = seed * 1000 + static_cast<uint64_t>(epoch);
    UpdateBatch batch = GenerateUpdateBatch(g.get(), up);
    ASSERT_TRUE(ApplyUpdateBatch(g.get(), &batch).ok()) << repro;

    IncDectOptions oracle_opts;
    oracle_opts.snapshot_mode = SnapshotMode::kNever;
    auto oracle = IncDect(*g, sigma, batch, oracle_opts);
    ASSERT_TRUE(oracle.ok()) << repro << ": " << oracle.status().ToString();
    {
      IncDectOptions o;
      o.snapshot_mode = SnapshotMode::kAlways;
      auto d = IncDect(*g, sigma, batch, o);
      ASSERT_TRUE(d.ok()) << repro;
      ExpectSameVioSet(oracle->added, d->added, sigma,
                       "stream delta-view IncDect ΔVio+", repro);
      ExpectSameVioSet(oracle->removed, d->removed, sigma,
                       "stream delta-view IncDect ΔVio-", repro);
    }
    {
      PIncDectOptions o;
      o.num_processors = processors;
      o.snapshot_mode = SnapshotMode::kAlways;
      auto d = PIncDect(*g, sigma, batch, o);
      ASSERT_TRUE(d.ok()) << repro;
      ExpectSameVioSet(oracle->added, d->delta.added, sigma,
                       "stream delta-view PIncDect ΔVio+", repro);
      ExpectSameVioSet(oracle->removed, d->delta.removed, sigma,
                       "stream delta-view PIncDect ΔVio-", repro);
    }
    if (held != nullptr) {
      EXPECT_EQ(SnapshotFingerprint(*held), held_fingerprint) << repro;
      held.reset();
    }
    if (epoch % 5 == 0) {
      held = std::make_unique<GraphSnapshot>(*g, GraphView::kOld);
      held_fingerprint = SnapshotFingerprint(*held);
    }
    if (epoch % 7 == 0) {
      g->Rollback();
    } else {
      g->Commit();
      maintained = ApplyDelta(maintained, *oracle);
    }
    if (::testing::Test::HasFailure()) return;
  }
  ExpectSameVioSet(Dect(*g, sigma, live), maintained, sigma,
                   "stream maintained Vio vs batch Dect", "seed " +
                   std::to_string(seed));

  // The refreshed committed CSR equals a fresh build of the same graph.
  std::ostringstream tsv;
  ASSERT_TRUE(WriteGraphText(*g, &tsv).ok());
  auto reloaded = ParseGraphText(tsv.str(), g->schema());
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(SnapshotFingerprint(GraphSnapshot(*g, GraphView::kNew)),
            SnapshotFingerprint(GraphSnapshot(**reloaded, GraphView::kNew)))
      << "seed " << seed;
}

TEST(IncDectDifferentialTest, MultiEpochStreamsAgreeWithLiveOracle) {
  if (const auto pinned = testing_util::EnvSeed("NGD_DIFF_SEED")) {
    RunStream(*pinned);
    return;
  }
  const size_t streams = std::max<size_t>(1, CaseCount() / 50);
  for (uint64_t seed = 1; seed <= streams; ++seed) {
    RunStream(seed);
    if (HasFailure()) {
      FAIL() << "first failing stream: NGD_DIFF_SEED=" << seed;
    }
  }
}

}  // namespace
}  // namespace ngd
