// In-memory span recorder for the benchmark's traced run.
//
// speedlight-lint: allow-file(wall-clock) the benchmark measures host time.
//
// Spans wrap the benchmark's own calls into each layer (topology build, the
// Network constructor, request_snapshot, run_until, result reads, replay
// drivers). Each span records name, host start/end, its parent span and the
// snapshot round it belongs to (0 outside rounds). Spans stay in memory and
// are written out once, when the run ends. A layer's self time is its
// span's duration minus the part of that interval its child spans cover.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::int64_t host_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  ///< Static string: the layer entry point.
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  ///< Index into the recorder, -1 for roots.
  std::uint64_t round = 0;   ///< Snapshot round id, 0 outside rounds.
};

class SpanRecorder {
 public:
  /// Disabled recorders ignore begin/end, so the untraced pass runs the
  /// same code without recording.
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  /// Open a span as a child of the innermost open span. Returns its index,
  /// or -1 when disabled.
  std::int64_t begin(const char* name, std::uint64_t round = 0) {
    if (!enabled_) return -1;
    const auto idx = static_cast<std::int64_t>(spans_.size());
    spans_.push_back({name, host_now_ns(), 0,
                      open_.empty() ? -1 : open_.back(), round});
    open_.push_back(idx);
    return idx;
  }

  void end(std::int64_t idx) {
    if (idx < 0) return;
    spans_[static_cast<std::size_t>(idx)].end_ns = host_now_ns();
    if (!open_.empty() && open_.back() == idx) open_.pop_back();
  }

  /// Append a finished span (tests and merges); parent is explicit.
  std::int64_t add(const Span& s) {
    spans_.push_back(s);
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span: duration minus the union of its children's
  /// intervals clipped to the parent's.
  [[nodiscard]] std::vector<std::int64_t> self_times() const;

  /// Sum of self time per span name.
  [[nodiscard]] std::map<std::string, std::int64_t> self_by_name() const;

  /// Durations of every span with this name, in ns, in record order.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;

  /// Chrome trace-event JSON ("X" events, one track per parent chain).
  void write_json(std::ostream& os) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::int64_t> open_;
};

/// RAII span; a no-op on a disabled recorder.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const char* name, std::uint64_t round = 0)
      : rec_(rec), idx_(rec.begin(name, round)) {}
  ~ScopedSpan() { rec_.end(idx_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& rec_;
  std::int64_t idx_;
};

}  // namespace perfbench
