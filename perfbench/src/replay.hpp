// Replay drivers: time one layer's public entry points on inputs shaped
// like a workload, outside the full simulation.
//
// Each driver reports host ns per operation including the simulator events
// the operation triggers (the ledger charges only the remaining events to
// the sim layer), and pairs of (operations the driver issued, the same
// operations as the layer's public counters saw them) so a self-test can
// prove each driver counts what the ledger multiplies it by.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct ReplayResult {
  std::string name;
  std::uint64_t ops = 0;
  std::uint64_t events = 0;  ///< Simulator events the replay executed.
  double ns_per_op = 0;      ///< Inclusive of the op's own events.
  /// (what, driver count, public-counter count); equal when the driver's
  /// operations are the ones the layer's counters record.
  std::vector<std::pair<std::string, std::pair<std::uint64_t, std::uint64_t>>>
      count_checks;
};

/// Inputs shaped like a workload's run.
struct ReplayShape {
  double pending_depth = 64;    ///< Event-queue depth seen by the run.
  double mean_delay_ns = 1000;  ///< Mean scheduling delay (Little's law).
  std::uint32_t packet_size = 64;
  std::uint16_t ports = 8;      ///< Switch radix.
  std::size_t k = 4;            ///< Fat-tree parameter of the workload.
  bool channel_state = false;
  /// Shares of unit traversals that advance the unit's snapshot id and
  /// that are booked as in-flight (channel state).
  double advance_share = 0.001;
  double inflight_share = 0;
  std::size_t units_per_device = 16;
  std::size_t devices = 1;  ///< Switches in the fabric.
};

/// Event-queue hold model: `Simulator::after` + `step` at the given depth
/// and mean delay (exponential).
ReplayResult replay_sim(double depth, double mean_delay_ns, std::uint64_t ops);

/// `Link::send` through delivery at a sink node (one arrival event).
ReplayResult replay_link(const ReplayShape& s, std::uint64_t ops);

/// `ops` packets through `Switch::receive` and egress, hop by hop across
/// the workload's fat-tree (its routes and working set) from a random host
/// port to a random host. Reported per switch traversal (fabric-hop and
/// serialization events included); the nested dataplane unit and link
/// costs (`dp_ns` per unit traversal, `link_ns` per delivery) are removed.
ReplayResult replay_switch(const ReplayShape& s, std::uint64_t ops,
                           double dp_ns, double link_ns);

/// `DataplaneUnit::on_packet` over the workload's same-epoch / advance /
/// in-flight mix.
ReplayResult replay_dataplane_packets(const ReplayShape& s, std::uint64_t ops);

/// `DataplaneUnit::on_initiation`, each advancing the unit by one id.
ReplayResult replay_dataplane_initiations(const ReplayShape& s,
                                          std::uint64_t ops);

/// Snapshot rounds on `devices` standalone switches (the workload's
/// working set): `ControlPlane::schedule_snapshot`, initiation dispatch,
/// the dataplane initiations, every notification through
/// `NotificationChannel` into the control plane's handlers, and report
/// shipping. Reported per delivered notification.
ReplayResult replay_device_rounds(const ReplayShape& s, std::uint64_t rounds);

/// `NotificationCodec` encode + decode (DeltaV2 defaults).
ReplayResult replay_wire_notifications(const ReplayShape& s, std::uint64_t ops);

/// `ReportEncoder::encode` + `ReportDecoder::decode` (DeltaV2 defaults).
ReplayResult replay_wire_reports(const ReplayShape& s, std::uint64_t ops);

/// `DeviceDigest::fold` of unit reports.
ReplayResult replay_observer_fold(const ReplayShape& s, std::uint64_t ops);

}  // namespace perfbench
