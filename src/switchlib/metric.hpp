// Metrics that can be snapshotted. The snapshot primitive itself is
// agnostic ("any value accessible at line rate in the data plane"); these
// are the ones the paper's evaluation uses, plus the forwarding-state
// version register of Section 10.
#pragma once

#include <cstdint>
#include <string_view>

namespace speedlight::sw {

enum class MetricKind : std::uint8_t {
  PacketCount,       ///< Per-unit packet counter (Table 1's base variant).
  ByteCount,         ///< Per-unit byte counter.
  QueueDepth,        ///< Egress queue occupancy in packets (gauge).
  EwmaInterarrival,  ///< Section 8's two-phase EWMA of interarrival time.
  EwmaPacketRate,    ///< Derived packets-per-second rate (Section 8.4).
  ForwardingVersion, ///< FIB version tag last applied (Section 10).
};

/// Whether channel (in-flight) state is meaningful for a metric: flow
/// quantities accumulate in-flight contributions; gauges do not.
[[nodiscard]] constexpr bool metric_has_channel_state(MetricKind m) {
  return m == MetricKind::PacketCount || m == MetricKind::ByteCount;
}

/// Contribution of one in-flight packet to a channel-state accumulator.
[[nodiscard]] constexpr std::uint64_t metric_channel_add(MetricKind m,
                                                         std::uint32_t bytes) {
  switch (m) {
    case MetricKind::PacketCount:
      return 1;
    case MetricKind::ByteCount:
      return bytes;
    default:
      return 0;
  }
}

[[nodiscard]] constexpr std::string_view metric_name(MetricKind m) {
  switch (m) {
    case MetricKind::PacketCount:
      return "packet_count";
    case MetricKind::ByteCount:
      return "byte_count";
    case MetricKind::QueueDepth:
      return "queue_depth";
    case MetricKind::EwmaInterarrival:
      return "ewma_interarrival_ns";
    case MetricKind::EwmaPacketRate:
      return "ewma_packet_rate";
    case MetricKind::ForwardingVersion:
      return "forwarding_version";
  }
  return "unknown";
}

}  // namespace speedlight::sw
