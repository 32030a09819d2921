// Basic identifier types shared across the network substrate.
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>

namespace speedlight::net {

/// Identifies a device (host or switch) in the network.
using NodeId = std::uint32_t;

/// Identifies a port on a device.
using PortId = std::uint16_t;

/// Identifies an application flow (used by ECMP/flowlet hashing).
using FlowId = std::uint32_t;

inline constexpr NodeId kInvalidNode = 0xFFFFFFFFu;
inline constexpr PortId kInvalidPort = 0xFFFFu;

/// Direction of a processing unit within a switch.
enum class Direction : std::uint8_t { Ingress = 0, Egress = 1 };

/// Globally unique identifier of a per-port, per-direction processing unit
/// (the paper's fundamental building block, Section 4.1).
struct UnitId {
  NodeId node = kInvalidNode;
  PortId port = kInvalidPort;
  Direction direction = Direction::Ingress;

  friend bool operator==(const UnitId&, const UnitId&) = default;
  friend auto operator<=>(const UnitId&, const UnitId&) = default;
};

}  // namespace speedlight::net
