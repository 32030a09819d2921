// The simulation driver: owns the event queue, the current virtual time,
// the master RNG from which every component forks its own stream, and the
// simulation-wide flight recorder (trace ring + metrics registry) every
// component reaches through its `sim::Simulator&`.
#pragma once

#include <cstdint>
#include <limits>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/determinism.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

namespace speedlight::sim {

/// Event accounting, exposed so harnesses can surface silent behaviours
/// (e.g. past-time schedules being clamped to now) in their output.
struct SimulatorStats {
  std::uint64_t scheduled = 0;          ///< at()/after() calls.
  std::uint64_t executed = 0;           ///< Callbacks run.
  std::uint64_t cancelled = 0;          ///< Successful cancel() calls.
  std::uint64_t clamped_schedules = 0;  ///< Past timestamps clamped to now.
};

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 1) : rng_(seed) {
    // The simulator's own accounting joins the uniform metrics surface, so
    // a registry dump always includes the event-core counters.
    metrics_.register_reader("sim.events.scheduled", obs::MetricKind::Counter,
                             [this] { return stats_.scheduled; });
    metrics_.register_reader("sim.events.executed", obs::MetricKind::Counter,
                             [this] { return stats_.executed; });
    metrics_.register_reader("sim.events.cancelled", obs::MetricKind::Counter,
                             [this] { return stats_.cancelled; });
    metrics_.register_reader("sim.events.clamped_schedules",
                             obs::MetricKind::Counter,
                             [this] { return stats_.clamped_schedules; });
    metrics_.register_reader("sim.events.pending", obs::MetricKind::Gauge,
                             [this] { return std::uint64_t{queue_.size()}; });
    if constexpr (det::kEnabled) {
      // Determinism-audit surface (zero unless an auditor is installed /
      // a data-path scope ever allocated).
      metrics_.register_reader(
          "sim.determinism.datapath_allocs", obs::MetricKind::Counter,
          [] { return det::datapath_allocs(); });
      metrics_.register_reader(
          "sim.determinism.tie_pairs", obs::MetricKind::Counter, [] {
            const det::Auditor* a = det::current_auditor();
            return a != nullptr ? a->tie_pairs() : 0;
          });
    }
  }

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time. Monotonically non-decreasing.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedule `fn` at absolute time `when` (clamped to now if in the past).
  EventId at(SimTime when, EventQueue::Callback fn) {
    ++stats_.scheduled;
    if (when < now_) {
      ++stats_.clamped_schedules;
      when = now_;
    }
    return queue_.schedule(when, std::move(fn));
  }

  /// Schedule `fn` after a relative delay. Negative delays clamp to now and
  /// count as clamped_schedules, same as a past-time at().
  EventId after(Duration delay, EventQueue::Callback fn) {
    if (delay < 0) {
      ++stats_.scheduled;
      ++stats_.clamped_schedules;
      return queue_.schedule(now_, std::move(fn));
    }
    return at(now_ + delay, std::move(fn));
  }

  /// at() with an explicit same-timestamp merge key (see
  /// EventQueue::schedule_keyed). Cross-node channels schedule deliveries
  /// with their channel id so equal-time interleaving at the destination is
  /// a property of the channel, not of scheduling order.
  EventId at_keyed(SimTime when, MergeKey key, EventQueue::Callback fn) {
    ++stats_.scheduled;
    if (when < now_) {
      ++stats_.clamped_schedules;
      when = now_;
    }
    return queue_.schedule_keyed(when, key, std::move(fn));
  }

  /// Cancel a pending event.
  bool cancel(EventId id) {
    const bool cancelled = queue_.cancel(id);
    if (cancelled) ++stats_.cancelled;
    return cancelled;
  }

  /// Run until the queue drains or virtual time would exceed `until`.
  /// Returns the number of events executed.
  std::size_t run_until(SimTime until = std::numeric_limits<SimTime>::max());

  /// Run exactly one event if available; returns whether one ran.
  bool step();

  /// Pending events.
  [[nodiscard]] std::size_t pending() const { return queue_.size(); }

  /// Lifetime event accounting (scheduled/executed/cancelled/clamped).
  [[nodiscard]] const SimulatorStats& stats() const { return stats_; }

  /// Read-only queue access (heap/slab introspection for benches).
  [[nodiscard]] const EventQueue& queue() const { return queue_; }

  /// Master RNG; components should fork() their own streams.
  Rng& rng() { return rng_; }

  /// The simulation-wide flight recorder. Disabled (one predicted branch
  /// per record call) until a harness calls tracer().enable().
  [[nodiscard]] obs::Tracer& tracer() { return tracer_; }
  [[nodiscard]] const obs::Tracer& tracer() const { return tracer_; }

  /// The unified metrics registry all components register into.
  [[nodiscard]] obs::MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] const obs::MetricsRegistry& metrics() const { return metrics_; }

 private:
  EventQueue queue_;
  SimTime now_ = 0;
  Rng rng_;
  SimulatorStats stats_;
  obs::Tracer tracer_;
  obs::MetricsRegistry metrics_;
};

/// A keyed posting handle: schedules onto a fixed simulator under a fixed
/// same-timestamp merge key. The network builder hands one to every link,
/// report RPC, request RPC and poll leg, with keys allocated in topology
/// construction order, so equal-time ties resolve by that order rather
/// than by whichever component happened to schedule first. A
/// default-constructed Endpoint is unwired — callers treat that as "use an
/// unkeyed local event" so standalone component tests are unaffected.
class Endpoint {
 public:
  Endpoint() = default;
  Endpoint(Simulator& sim, MergeKey key) : sim_(&sim), key_(key) {}

  [[nodiscard]] bool wired() const { return sim_ != nullptr; }

  /// Schedule `fn` at absolute time `when` under this endpoint's key.
  void post(SimTime when, InplaceCallback fn) {
    sim_->at_keyed(when, key_, std::move(fn));
  }

 private:
  Simulator* sim_ = nullptr;
  MergeKey key_ = 0;
};

}  // namespace speedlight::sim
