// Span recorder for the benchmark driver.
//
// Every public library call the driver makes is wrapped in a span named
// "<layer>.<call>", where <layer> is the src/ module the call enters
// (core, graph, reason, detect, parallel). Root spans frame one set-up
// repetition ("setup") or one timed operation ("op"); the part of a root
// that no child covers is the harness's own time, reported as layer
// "bench". Spans stay in memory and are summarised when the run ends, so
// recording one costs two clock reads and a vector append.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  int parent = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

/// Records nothing while `enabled` is false; toggle it only between root
/// spans.
class Tracer {
 public:
  bool enabled = false;

  int Begin(const char* name) {
    if (!enabled) return -1;
    spans_.push_back(Span{name, current_, NowNs(), 0});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }

  void End(int id) {
    if (id < 0) return;
    spans_[static_cast<size_t>(id)].end_ns = NowNs();
    current_ = spans_[static_cast<size_t>(id)].parent;
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  int current_ = -1;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer->Begin(name)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

/// Layer of a span: the name's prefix before the first '.', or "bench"
/// for a root span.
inline std::string LayerOf(const Span& s) {
  if (s.parent < 0) return "bench";
  const size_t dot = s.name.find('.');
  return dot == std::string::npos ? s.name : s.name.substr(0, dot);
}

/// One root span broken down: wall time, the share its children cover,
/// and each layer's self time (a span's duration minus its children's).
struct RootSummary {
  double wall_s = 0.0;
  double coverage = 0.0;
  std::map<std::string, double> self_s;
};

inline std::vector<RootSummary> SummariseRoots(const std::vector<Span>& spans,
                                               const std::string& root_name) {
  std::vector<double> child_s(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child_s[static_cast<size_t>(s.parent)] += s.seconds();
  }
  std::map<int, RootSummary> by_root;
  for (size_t i = 0; i < spans.size(); ++i) {
    size_t root = i;
    while (spans[root].parent >= 0) root = static_cast<size_t>(spans[root].parent);
    if (spans[root].name != root_name) continue;
    RootSummary& r = by_root[static_cast<int>(root)];
    r.self_s[LayerOf(spans[i])] += spans[i].seconds() - child_s[i];
    if (i == root) {
      r.wall_s = spans[i].seconds();
      r.coverage = r.wall_s > 0.0 ? child_s[i] / r.wall_s : 1.0;
    }
  }
  std::vector<RootSummary> out;
  for (auto& entry : by_root) out.push_back(std::move(entry.second));
  return out;
}

/// Durations, in seconds, of every non-root span, grouped by span name.
inline std::map<std::string, std::vector<double>> DurationsByName(
    const std::vector<Span>& spans) {
  std::map<std::string, std::vector<double>> out;
  for (const Span& s : spans) {
    if (s.parent >= 0) out[s.name].push_back(s.seconds());
  }
  return out;
}

/// Linear-interpolated percentile (q in [0, 100]); 0 for an empty sample.
inline double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double Median(std::vector<double> v) { return Percentile(std::move(v), 50.0); }

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
