// The benchmark's workloads and the pass that runs one of them against the
// public core::Network facade.
//
// Every workload sets only options that describe the workload — topology,
// traffic, snapshot cadence, snapshot.channel_state and seed — and leaves
// every implementation-selection option (wire fast path and encoding,
// observer report retention and assembly shards, engine shards and
// execution mode) at its default: one process, one simulation thread, the
// serial engine.
//
// Rounds are requested on an open loop in simulated time, one every period
// regardless of completion; traffic sources are open-loop too. A pass is a
// fixed amount of simulated work (a fixed number of periods), timed in host
// time after a warm-up round.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/time.hpp"
#include "spans.hpp"

namespace perfbench {

enum class Traffic { None, Poisson, Incast };

struct WorkloadSpec {
  std::string name;
  std::size_t k = 4;  ///< Fat-tree parameter.
  Traffic traffic = Traffic::None;
  bool channel_state = false;
  speedlight::sim::Duration period = 0;  ///< Round cadence (simulated).
  speedlight::sim::Duration lead = 0;    ///< Request -> fire time.
  /// Timed periods per host second on a 4-core x86 VM (gcc 12,
  /// RelWithDebInfo), with the usual interference from other tenants
  /// included. It only sizes a run: --seconds fixes the number of repeats,
  /// never elapsed time, so a run is the same simulated work on every
  /// commit.
  double periods_per_second = 0;
  // Poisson all-to-all.
  double pps_per_host = 0;
  std::uint32_t packet_size = 64;
  // Incast storms: `victims` hosts, each hit by `sources_per_victim`
  // senders in other pods, `burst_packets` each; victims take turns, one
  // storm per period.
  std::size_t victims = 0;
  std::size_t sources_per_victim = 0;
  std::uint32_t burst_packets = 0;
  /// Read path also extracts per-unit values and deltas from the retained
  /// reports (examples/incast_detection, Figs. 12/13).
  bool read_values = false;
};

[[nodiscard]] const std::vector<WorkloadSpec>& workloads();
[[nodiscard]] const WorkloadSpec* find_workload(const std::string& name);

/// Timed periods per pass: a p95 with ten samples beyond it needs 200.
inline constexpr std::size_t kPassPeriods = 210;

/// Untraced passes in a run of `seconds` (at least three).
[[nodiscard]] int repeats_for(const WorkloadSpec& w, int seconds);

/// Public counters of every layer, summed over the fabric.
struct Counters {
  std::uint64_t sim_executed = 0, sim_scheduled = 0, sim_cancelled = 0;
  std::uint64_t link_packets = 0, link_drops = 0;
  std::uint64_t host_sent = 0, host_received = 0;
  std::uint64_t pool_allocated = 0, pool_recycled = 0;
  std::uint64_t queue_drops = 0, forwarding_drops = 0, ttl_drops = 0;
  /// Data packets counted at ingress / egress units (probes excluded).
  std::uint64_t unit_ingress_packets = 0, unit_egress_packets = 0;
  std::uint64_t captures = 0, notifications = 0;
  std::uint64_t initiations = 0, reinitiations = 0, reports = 0;
  std::uint64_t notif_delivered = 0, notif_dropped = 0;
  std::uint64_t notif_max_backlog = 0;  ///< Max over switches (gauge).
  std::uint64_t wire_notification_bytes = 0, wire_report_bytes = 0;
  std::uint64_t wire_notifications = 0, wire_reports = 0;
  std::uint64_t wire_decode_failures = 0, wire_ts_fallbacks = 0;
  std::uint64_t materialized_ports = 0;  ///< Gauge.

  /// Counter deltas (gauges keep `later`'s value).
  [[nodiscard]] static Counters delta(const Counters& later,
                                      const Counters& earlier);
  /// Named view, for the determinism check and the printed ledger.
  [[nodiscard]] std::map<std::string, std::uint64_t> named() const;
};

struct PassOptions {
  std::uint64_t seed = 1;
  std::size_t periods = 0;  ///< 0 = set-up only (no timed periods, no checks).
  SpanRecorder* spans = nullptr;  ///< Non-null: the traced pass.
  /// Run check::ConsistencyChecker over every round (the conservation and
  /// round-accounting checks always run).
  bool check_invariants = true;
  /// Register the notification channels' queue-delay histograms. Both
  /// passes of the traced run set it, so they differ only by spans.
  bool queue_delay_probe = false;
};

/// Everything one pass measured. Host times are in seconds or ns as named.
struct PassResult {
  // Set-up (host).
  double setup_s = 0, topology_s = 0, construct_s = 0, workload_setup_s = 0,
         warmup_s = 0;
  // Timed part (host).
  std::vector<double> period_ns;
  double timed_s = 0;  ///< Sum of period_ns, in seconds.
  // Simulated outputs.
  double sim_ms = 0;  ///< Simulated time covered by the timed periods.
  std::uint64_t requested = 0, ok = 0, refused = 0, incomplete = 0,
                excluded = 0, inconsistent = 0;
  std::vector<double> sync_spread_us, collect_ms;
  std::uint64_t packets_offered = 0;  ///< Packets hosts sent in the timed part.
  std::uint64_t packets_delivered = 0;
  std::uint64_t messages_delivered = 0;  ///< Packets + notifications + reports.
  double reports_per_round = 0;
  std::uint64_t excluded_devices = 0;
  std::uint64_t pending_max = 0;
  double pending_mean = 0;
  /// Set when PassOptions::queue_delay_probe is.
  double notif_queue_delay_p50_us = 0, notif_queue_delay_p99_us = 0;
  /// Share of unit packet traversals booked as in-flight (channel state),
  /// from the retained reports' channel values.
  double inflight_share = 0;
  Counters timed;  ///< Counter deltas over the timed periods.
  Counters total;  ///< Counters at the end of the pass (after the drain).
  std::uint64_t digest = 0;
  std::vector<std::string> violations;
  std::size_t devices = 0;        ///< Switches.
  std::size_t checked_rounds = 0;  ///< Rounds ConsistencyChecker examined.
};

/// One pass over a workload, stepped one period at a time so that two
/// passes can run interleaved. Each pass runs under its own simulation
/// context, so its packet pool (and the pool counters) start from zero.
class Pass {
 public:
  /// Build the fabric and generators and run the warm-up round.
  Pass(const WorkloadSpec& w, const PassOptions& opts);
  ~Pass();
  Pass(const Pass&) = delete;
  Pass& operator=(const Pass&) = delete;

  /// One timed period: request a round, run_until the period end, read
  /// the rounds that completed.
  void run_period();
  /// Set-up timings (valid after construction).
  [[nodiscard]] const PassResult& setup_result() const;
  /// Drain, check the outputs, compute the digest.
  PassResult finish();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// A whole pass: set-up, `opts.periods` timed periods (none: set-up only,
/// no checks), drain and checks.
[[nodiscard]] PassResult run_pass(const WorkloadSpec& w,
                                  const PassOptions& opts);

/// Workload parameters as text, for the run manifest.
[[nodiscard]] std::vector<std::pair<std::string, std::string>> describe(
    const WorkloadSpec& w, int repeats);

}  // namespace perfbench
