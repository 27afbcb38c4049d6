#include "util/failpoint.h"

#include <atomic>
#include <string>
#include <unordered_map>

#include "util/thread_annotations.h"

namespace ngd {
namespace failpoint {
namespace {

struct SiteSpec {
  Mode mode = Mode::kNone;
  uint64_t skip = 0;  // hits of this site to let pass before firing
  uint64_t hits = 0;
};

struct Registry {
  Mutex mu;
  std::unordered_map<std::string, SiteSpec> sites NGD_GUARDED_BY(mu);
  Mode nth_mode NGD_GUARDED_BY(mu) = Mode::kNone;
  /// 1-based traversal index to fire at.
  uint64_t nth_target NGD_GUARDED_BY(mu) = 0;
  uint64_t traversals NGD_GUARDED_BY(mu) = 0;
};

std::atomic<bool> g_enabled{false};

Registry& Reg() {
  // Leaked process-lifetime singleton: no destructor-order hazard at exit.
  static Registry* r = new Registry();  // ngdlint:allow(naked-new)
  return *r;
}

}  // namespace

const char* ModeName(Mode m) {
  switch (m) {
    case Mode::kNone:
      return "none";
    case Mode::kShortWrite:
      return "short";
    case Mode::kTornWrite:
      return "torn";
    case Mode::kBitFlip:
      return "bitflip";
    case Mode::kEnospc:
      return "enospc";
    case Mode::kSyncFail:
      return "syncfail";
  }
  return "?";
}

void Enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

void Reset() {
  Registry& r = Reg();
  MutexLock lock(&r.mu);
  r.sites.clear();
  r.nth_mode = Mode::kNone;
  r.nth_target = 0;
  r.traversals = 0;
  g_enabled.store(false, std::memory_order_relaxed);
}

void ArmSite(std::string_view site, Mode mode, uint64_t skip) {
  Registry& r = Reg();
  {
    MutexLock lock(&r.mu);
    SiteSpec& spec = r.sites[std::string(site)];
    spec.mode = mode;
    spec.skip = skip;
    spec.hits = 0;
  }
  g_enabled.store(true, std::memory_order_relaxed);
}

void ArmNth(Mode mode, uint64_t n) {
  Registry& r = Reg();
  {
    MutexLock lock(&r.mu);
    r.nth_mode = mode;
    r.nth_target = n == 0 ? 1 : n;
    r.traversals = 0;
  }
  g_enabled.store(true, std::memory_order_relaxed);
}

uint64_t Traversals() {
  Registry& r = Reg();
  MutexLock lock(&r.mu);
  return r.traversals;
}

Mode Hit(std::string_view site) {
  if (!g_enabled.load(std::memory_order_relaxed)) return Mode::kNone;
  Registry& r = Reg();
  MutexLock lock(&r.mu);
  ++r.traversals;
  if (r.nth_mode != Mode::kNone && r.traversals == r.nth_target) {
    Mode m = r.nth_mode;
    r.nth_mode = Mode::kNone;
    return m;
  }
  auto it = r.sites.find(std::string(site));
  if (it == r.sites.end() || it->second.mode == Mode::kNone) {
    return Mode::kNone;
  }
  SiteSpec& spec = it->second;
  if (spec.hits++ < spec.skip) return Mode::kNone;
  Mode m = spec.mode;
  spec.mode = Mode::kNone;  // one-shot
  return m;
}

}  // namespace failpoint
}  // namespace ngd
