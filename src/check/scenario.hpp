// The fuzzer's unit of work: a complete, self-contained description of one
// adversarial simulation — topology, protocol variant, workload, snapshot
// cadence, clock quality, and a fault schedule — generated from a single
// 64-bit seed, serializable to a diff-friendly `.scenario` text file, and
// replayable bit-for-bit (everything downstream derives its randomness from
// `seed`).
//
// File format (one directive per line, '#' comments):
//
//   scenario v1
//   seed <u64>
//   topo <line|ring|star|leaf_spine|fat_tree|figure1> <a> <b> <c>
//   lb <ecmp|flowlet>
//   metric <packets|bytes>
//   transport <raw|digest>
//   channel_state <0|1>
//   modulus <u32>
//   drift_ppm <double>
//   ptp_stddev_ns <u64>
//   workload <generators> <rate_pps> <packet_size> [mix]
//   warmup_us <u64>
//   snapshots <count> <interval_us> <timeout_us>
//   fault link_flap <trunk> <a_to_b> <start_us> <up_mean_us> <down_mean_us>
//   fault notif_burst <start_us> <duration_us> <drop_prob>
//   cpu_spike / observer_down analogous (see FaultSpec).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "check/topologies.hpp"
#include "core/network.hpp"

namespace speedlight::check {

enum class FaultKind : std::uint8_t {
  LinkFlap,        ///< Alternate one trunk direction up/down (net::LinkFlapper).
  NotifDropBurst,  ///< Window of random notification-channel loss.
  CpuBacklogSpike, ///< Window of inflated notification service time.
  ObserverRestart, ///< Window during which the observer drops report RPCs.
};

[[nodiscard]] const char* fault_kind_name(FaultKind k);

struct FaultSpec {
  FaultKind kind = FaultKind::NotifDropBurst;
  /// LinkFlap target: trunk index (mod #trunks) and direction.
  std::size_t trunk = 0;
  bool a_to_b = true;
  /// All times are relative to the end of warmup (campaign start).
  sim::Duration start = 0;
  sim::Duration duration = sim::msec(2);  ///< Window faults; unused by LinkFlap.
  /// NotifDropBurst: drop probability. CpuBacklogSpike: service-time
  /// multiplier. Unused otherwise.
  double magnitude = 0.0;
  /// LinkFlap period means.
  sim::Duration up_mean = sim::msec(2);
  sim::Duration down_mean = sim::msec(1);
};

/// Traffic shape the generating hosts run. AllToAll is the original
/// uniform Poisson mix; the others are the production-fabric mixes from
/// workload/mixes.hpp. Serialized as an optional trailing token on the
/// `workload` line — omitted for AllToAll, so pre-mix scenario files
/// round-trip byte-identically.
enum class MixKind : std::uint8_t {
  AllToAll,     ///< Poisson, uniform destinations (the historic default).
  Incast,       ///< Synchronized cross-rack bursts at one victim host.
  Shuffle,      ///< Datacenter-wide all-pairs chunk exchange.
  MixedTenant,  ///< Tenant-partitioned service + batch co-tenancy.
};

[[nodiscard]] const char* mix_kind_name(MixKind k);

struct WorkloadSpec {
  std::size_t generators = 4;  ///< Hosts generating (round-robin over hosts).
  double rate_pps = 40000;     ///< Poisson mean per generator (AllToAll).
  std::uint32_t packet_size = 1000;
  MixKind mix = MixKind::AllToAll;
};

struct Scenario {
  std::uint64_t seed = 1;

  TopoKind topo = TopoKind::LeafSpine;
  std::size_t size_a = 2, size_b = 2, size_c = 2;

  sw::LoadBalancerKind lb = sw::LoadBalancerKind::Ecmp;
  sw::MetricKind metric = sw::MetricKind::PacketCount;
  snap::NotificationMode transport = snap::NotificationMode::RawSocket;
  bool channel_state = true;
  std::uint32_t modulus = 0;

  double drift_ppm = 10.0;
  sim::Duration ptp_residual_stddev = sim::nsec(2'200);

  WorkloadSpec workload;

  sim::Duration warmup = sim::msec(2);
  std::size_t snapshots = 5;
  sim::Duration interval = sim::msec(3);
  sim::Duration completion_timeout = sim::msec(80);

  std::vector<FaultSpec> faults;

  /// Instantiate the (validated) topology this scenario runs on.
  [[nodiscard]] net::TopologySpec topology() const;
  /// Build the NetworkOptions a run of this scenario uses. The fault
  /// schedule is applied separately by the fuzzer (check/fuzzer.hpp).
  [[nodiscard]] core::NetworkOptions network_options() const;
  /// Short human label, e.g. "seed=42 leaf_spine(3,2,2) cs m=8 f=2".
  [[nodiscard]] std::string label() const;
};

/// Derive a full random scenario from one 64-bit seed. Deterministic:
/// equal seeds yield byte-identical scenarios.
[[nodiscard]] Scenario generate_scenario(std::uint64_t seed);

/// Budget for the large-fabric sampler: caps the topology draw so a CI
/// job can bound its wall-clock and memory.
struct ScenarioBudget {
  /// Largest admissible switch count; candidate topologies above this are
  /// excluded from the draw. 400 admits fat-tree k=16 (320 switches).
  std::size_t max_switches = 400;
  std::size_t max_snapshots = 4;  ///< Large fabrics get short snapshot trains.
};

/// Large-fabric variant of generate_scenario: same deterministic contract,
/// but the topology pool adds fat-tree k in {4, 8, 16} and the workload
/// draw includes the production mixes, all clamped under `budget`. Uses a
/// distinct RNG stream ("scenario-xl"), so it never perturbs the plain
/// generate_scenario(seed) sequence the digest corpus pins.
[[nodiscard]] Scenario generate_scenario(std::uint64_t seed,
                                         const ScenarioBudget& budget);

void write_scenario(std::ostream& os, const Scenario& s);
[[nodiscard]] std::string scenario_to_string(const Scenario& s);

/// Parse the text format. Throws std::invalid_argument with a line number
/// on malformed input.
[[nodiscard]] Scenario read_scenario(std::istream& is);
[[nodiscard]] Scenario scenario_from_string(const std::string& text);

/// File convenience wrappers. `save_scenario` returns false on I/O failure;
/// `load_scenario` throws std::invalid_argument (bad content) or
/// std::runtime_error (unreadable file).
bool save_scenario(const std::string& path, const Scenario& s);
[[nodiscard]] Scenario load_scenario(const std::string& path);

}  // namespace speedlight::check
