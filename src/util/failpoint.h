// Fault injection for the durability paths (update journal, snapshot
// writer, violation spill segments).
//
// An IO routine marks each place a crash or device fault could bite with
// a named site:
//
//   switch (failpoint::Hit("wal_append")) { ... }
//
// When the registry is disabled (the default) a site costs one relaxed
// atomic load and fires nothing. Tests enable the registry and arm a
// fault either at a specific site (ArmSite) or at the N-th site traversal
// of the whole process (ArmNth) — the latter is what the crash-recovery
// sweep uses: run the workload once cleanly to count traversals, then
// re-run it once per traversal index with a kill armed there, recover,
// and compare against the oracle.
//
// Modes: short (partial write then simulated crash), torn (full-length
// write with a zeroed tail, then crash), bitflip (single bit corrupted,
// write *succeeds* — silent corruption), enospc (no bytes written,
// kResourceExhausted), syncfail (write ok, fsync fails).

#ifndef NGD_UTIL_FAILPOINT_H_
#define NGD_UTIL_FAILPOINT_H_

#include <cstdint>
#include <string>
#include <string_view>

/// Marks a failpoint site string at its point of use:
///
///   WriteFileAtomic(path, image, NGD_FAILPOINT("snapshot_write"));
///
/// Expands to the string itself. It exists so tools/ngdlint can enumerate
/// every site in src/ and enforce that each one is armed by at least one
/// test under tests/ — a failpoint no test ever fires is untested crash
/// handling. New sites MUST use this marker (ngdlint only sees marked
/// sites).
#define NGD_FAILPOINT(site) site

namespace ngd {
namespace failpoint {

enum class Mode : uint8_t {
  kNone = 0,
  kShortWrite,
  kTornWrite,
  kBitFlip,
  kEnospc,
  kSyncFail,
};

/// Name for messages ("short", "torn", ...). kNone -> "none".
const char* ModeName(Mode m);

/// Master switch. Off (default): Hit() returns kNone and does not count.
void Enable(bool on);

/// Disarms everything, zeroes all counters, and disables the registry.
void Reset();

/// Fire `mode` at the given site. skip = number of hits of that site to
/// let pass first (0 = fire on the first hit). Enables the registry.
void ArmSite(std::string_view site, Mode mode, uint64_t skip = 0);

/// Fire `mode` at the n-th traversal of *any* site (1-based). Enables the
/// registry.
void ArmNth(Mode mode, uint64_t n);

/// Total site traversals since the last Reset() while enabled. A clean
/// run under Enable(true) with nothing armed yields the traversal count
/// the kill-at-every-failpoint sweep iterates over.
uint64_t Traversals();

/// Called by IO code at each site. Returns the mode to inject now, or
/// kNone. A site-armed or nth-armed fault fires exactly once, then
/// disarms itself (the registry stays enabled and keeps counting).
Mode Hit(std::string_view site);

}  // namespace failpoint
}  // namespace ngd

#endif  // NGD_UTIL_FAILPOINT_H_
