// Event-core performance harness: the slab/4-ary-heap EventQueue on the
// workloads that dominate every figure reproduction:
//   1. mixed    — steady-state schedule/cancel/pop lifecycles at ~10k
//                 pending events: execute, schedule the next arrival, and
//                 re-arm a protocol timeout (a loaded simulation run);
//   2. rearm    — a periodic timer that is cancelled and re-armed over and
//                 over (the snapshot re-initiation pattern): the heap must
//                 stay O(live) instead of keeping stale entries;
//   3. simulator — end-to-end Simulator::after() self-rescheduling timers,
//                 exercising InplaceCallback and the stats counters.
//
// speedlight-lint: allow-file(wall-clock) throughput harness: events/second
// needs real elapsed time.
// Emits BENCH_perf_event_core.json (events/sec, wall time, peak depth) per
// the schema in DESIGN.md "Performance methodology".
#include <chrono>
#include <cstdint>
#include <iostream>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace speedlight;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// A realistically sized capture: the data-path lambdas carry `this`, a
/// packet handle, and a timestamp or port (roughly 24-40 bytes), inside
/// InplaceCallback's inline buffer.
struct Payload {
  std::uint64_t* counter;
  std::uint64_t pad[4];
  void operator()() const { *counter += pad[0]; }
};

struct MixedResult {
  double wall_s = 0.0;
  double events_per_sec = 0.0;
  std::size_t peak_depth = 0;
};

/// The event lifecycle mix a loaded simulation run executes: pop + execute
/// one event, schedule its replacement (the next hop / next arrival), and
/// re-arm one protocol timeout (schedule a far-future event, cancel the
/// previously armed one -- most timeouts never fire). The sequence is
/// deterministic; "events" counts completed lifecycles (an executed event,
/// or a timeout scheduled+cancelled).
MixedResult run_mixed(std::size_t depth, std::size_t iters) {
  sim::EventQueue q;
  std::uint64_t sink = 0;
  sim::SimTime now = 0;
  std::uint64_t x = 88172645463325252ull;  // xorshift64 state
  constexpr std::size_t kTimeoutRing = 512;
  std::vector<sim::EventId> timeouts(kTimeoutRing);

  MixedResult res;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < depth; ++i) {
    q.schedule(static_cast<sim::SimTime>(i), Payload{&sink, {1, 0, 0, 0}});
  }
  for (std::size_t i = 0; i < kTimeoutRing; ++i) {
    timeouts[i] = q.schedule(1'000'000'000 + static_cast<sim::SimTime>(i),
                             Payload{&sink, {1, 0, 0, 0}});
  }
  for (std::size_t i = 0; i < iters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    auto popped = q.pop();
    now = popped.time;
    popped.fn();
    q.schedule(now + 1 + static_cast<sim::SimTime>(x % 8192),
               Payload{&sink, {1, 0, 0, 0}});
    const std::size_t slot = i & (kTimeoutRing - 1);
    q.cancel(timeouts[slot]);
    timeouts[slot] = q.schedule(now + 1'000'000'000, Payload{&sink, {1, 0, 0, 0}});
    if ((i & 1023) == 0 && q.size() > res.peak_depth) res.peak_depth = q.size();
  }
  // Drain so the timing includes the full cleanup cost.
  while (!q.empty()) {
    auto popped = q.pop();
    popped.fn();
  }
  res.wall_s = seconds_since(t0);
  res.events_per_sec = static_cast<double>(2 * iters) / res.wall_s;
  return res;
}

/// The snapshot re-arm pattern: one shot is pending at any time; each tick
/// cancels it and schedules a replacement. A queue that trims stale
/// entries only at the top of its heap grows by one entry per re-arm.
std::pair<double, std::size_t> run_rearm(std::size_t rearms) {
  sim::EventQueue q;
  std::uint64_t sink = 0;
  std::size_t peak_heap = 0;
  const auto t0 = std::chrono::steady_clock::now();
  auto pending = q.schedule(1'000'000, Payload{&sink, {1, 0, 0, 0}});
  for (std::size_t i = 0; i < rearms; ++i) {
    const auto fresh = q.schedule(
        1'000'000 + static_cast<sim::SimTime>(i), Payload{&sink, {1, 0, 0, 0}});
    q.cancel(pending);
    pending = fresh;
    if (q.heap_entries() > peak_heap) peak_heap = q.heap_entries();
  }
  return {seconds_since(t0), peak_heap};
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_args(argc, argv);
  bench::JsonReport report("perf_event_core");
  bench::banner(
      "Event-core performance: slab/4-ary heap event queue",
      "not a paper figure — the engineering floor under every figure "
      "reproduction (millions of packet events per evaluation run)");

  // --- Workload 1: mixed schedule/cancel/pop lifecycles -------------------
  const std::size_t kIters = bench::scaled<std::size_t>(2'000'000, 300'000);
  constexpr std::size_t kDepth = 10'000;

  const MixedResult mixed = run_mixed(kDepth, kIters);

  std::cout << "\nmixed workload (" << kIters << " lifecycles, depth "
            << kDepth << "):\n"
            << "  " << mixed.events_per_sec / 1e6 << " M events/s ("
            << mixed.wall_s << " s, peak depth " << mixed.peak_depth << ")\n";

  // --- Workload 2: cancel/re-arm churn (the stale-entry leak) -------------
  const std::size_t kRearms = bench::scaled<std::size_t>(1'000'000, 200'000);
  const auto [rearm_s, peak_heap] = run_rearm(kRearms);

  std::cout << "\nre-arm churn (" << kRearms << " cancel+reschedule):\n"
            << "  " << rearm_s << " s, peak heap " << peak_heap
            << " entries (1 live event)\n";

  bench::check(peak_heap <= 4, "heap stays O(live) under re-arm churn");

  // --- Workload 3: Simulator end-to-end -----------------------------------
  // static: the local Timer struct below names it, which requires a
  // variable with static storage, not a stack local.
  static const std::uint64_t kSimEvents =
      bench::scaled<std::uint64_t>(2'000'000, 300'000);
  constexpr int kTimers = 1024;
  sim::Simulator s;
  std::uint64_t fired = 0;
  std::size_t peak_pending = 0;
  // A visible clamped schedule, so silent time-travel shows up in stats.
  for (int i = 0; i < 16; ++i) s.at(-1, [] {});
  struct Timer {
    sim::Simulator* s;
    std::uint64_t* fired;
    std::uint64_t state;
    void operator()() {
      ++*fired;
      if (*fired >= kSimEvents) return;
      state ^= state << 13;
      state ^= state >> 7;
      state ^= state << 17;
      s->after(1 + static_cast<sim::Duration>(state % 1024), Timer{*this});
    }
  };
  static_assert(sim::InplaceCallback::fits_inline<Timer>);
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kTimers; ++i) {
    s.after(i + 1, Timer{&s, &fired, 0x9E3779B97F4A7C15ull + i});
  }
  while (s.step()) {
    if (s.pending() > peak_pending) peak_pending = s.pending();
  }
  const double sim_wall = seconds_since(t0);
  const double sim_rate = static_cast<double>(s.stats().executed) / sim_wall;

  std::cout << "\nsimulator self-rescheduling timers:\n"
            << "  " << s.stats().executed << " events in " << sim_wall
            << " s = " << sim_rate / 1e6 << " M events/s (peak pending "
            << peak_pending << ")\n"
            << "  stats: scheduled " << s.stats().scheduled << ", executed "
            << s.stats().executed << ", cancelled " << s.stats().cancelled
            << ", clamped " << s.stats().clamped_schedules << "\n";

  bench::check(s.stats().clamped_schedules == 16,
               "clamped past-time schedules are counted and visible");
  bench::check(s.stats().executed >= kSimEvents,
               "simulator executed the full event budget");

  report.metric("mixed_lifecycles", static_cast<double>(2 * kIters));
  report.metric("mixed_events_per_sec_new", mixed.events_per_sec);
  report.metric("mixed_wall_s_new", mixed.wall_s);
  report.metric("peak_queue_depth", static_cast<double>(mixed.peak_depth));
  report.metric("rearm_peak_heap_entries_new", static_cast<double>(peak_heap));
  report.metric("sim_events_per_sec", sim_rate);
  report.metric("sim_peak_pending", static_cast<double>(peak_pending));
  report.metric("sim_executed", static_cast<double>(s.stats().executed));
  report.metric("sim_clamped_schedules",
                static_cast<double>(s.stats().clamped_schedules));
  report.metric("sim_cancelled", static_cast<double>(s.stats().cancelled));
  report.embed_registry(s.metrics());
  return bench::finish(report);
}
