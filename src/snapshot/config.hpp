// Configuration of the snapshot protocol variant, mirroring the three
// data-plane builds the paper evaluates in Table 1: plain packet count,
// + wraparound, + channel state.
#pragma once

#include <cstddef>
#include <cstdint>

#include "snapshot/ids.hpp"

namespace speedlight::snap {

/// Value register array length per unit over the full 32-bit wire space.
inline constexpr std::size_t kUnboundedValueSlots = 64;

struct SnapshotConfig {
  /// Record channel (in-flight) state. Requires Last Seen arrays and the
  /// Figure 7 "with channel state" control plane.
  bool channel_state = false;

  /// Wire id space. 0 = full 32-bit space (wraparound practically never
  /// exercised); small values (e.g. 8, 16) exercise rollover, as in the
  /// paper's "+ Wrap Around" variant.
  std::uint32_t wire_id_modulus = 0;

  /// When true (the Speedlight data plane), an id jump > 1 cannot back-fill
  /// intermediate snapshot slots (Section 5.3) and the control plane marks
  /// them inconsistent. When false, the idealized Figure 3 algorithm runs
  /// (used as the test oracle).
  bool hardware_faithful = true;

  [[nodiscard]] SidSpace sid_space() const {
    return SidSpace(wire_id_modulus);
  }

  /// Snapshot Value register array length per unit: one slot per live id
  /// when the wire space is bounded (the layout the paper uses), otherwise
  /// kUnboundedValueSlots.
  [[nodiscard]] std::size_t slots() const {
    return wire_id_modulus != 0 ? wire_id_modulus : kUnboundedValueSlots;
  }
};

}  // namespace speedlight::snap
