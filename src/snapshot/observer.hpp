// The snapshot observer (Sections 3 and 6): a host process that schedules
// network-wide snapshots with every device control plane, assembles the
// per-unit reports into global snapshots, detects completion, enforces the
// id-rollover window out-of-band, and times out failed devices.
//
// Assembly (DESIGN.md section 16, "Observer assembly"): every device pinned
// to a round owns a run of report slots, indexed by unit_slot() (port * 2 +
// direction). The layout of those runs is one immutable RoundLayout per
// device set, shared by every round requested against it. A round keeps
// only what its reports add: a one-byte state per slot (occupied,
// consistent, inferred) and, while the round is open, a 32-byte value
// record (local and channel value, advance and finalize time), 33 bytes a
// slot. A report's device, unit and sid follow from its slot and the round
// id. An arriving report lands in its slot (an occupied slot marks a
// duplicate) and folds into its device's digest — counts, consistent-value
// sums, and advance/finalize extrema — so the completion check and a report
// lookup are O(1) and the aggregate getters O(devices). A round is
// immutable once it completes (normally or by timeout), so completion seals
// it: each value column is repacked frame-of-reference, one base (the
// column's minimum nonzero value) plus a per-slot offset at the narrowest
// width that holds the column's range (0, 1, 2, 4 or 8 bytes), zeros
// flagged in the state byte, and the value records are freed. Counters and
// timestamps within one sync spread span small ranges, so a sealed slot
// costs a few bytes. Rounds live until the observer is destroyed.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <ranges>
#include <span>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/timing_model.hpp"
#include "snapshot/config.hpp"
#include "snapshot/control_plane.hpp"
#include "snapshot/report.hpp"
#include "snapshot/wire.hpp"

namespace speedlight::snap {

/// Per-device streaming aggregate of one snapshot round: everything the
/// global getters need, folded in as reports arrive.
struct DeviceDigest {
  std::size_t expected = 0;  ///< Units this device owes the round.
  std::size_t received = 0;
  std::size_t consistent = 0;
  std::size_t inferred = 0;
  /// Value sums over *consistent* reports only (total_value semantics).
  std::uint64_t local_sum = 0;
  std::uint64_t channel_sum = 0;
  /// Extrema over nonzero timestamps (0 = none recorded yet).
  sim::SimTime advance_min = 0;
  sim::SimTime advance_max = 0;
  sim::SimTime finalize_min = 0;
  sim::SimTime finalize_max = 0;

  void fold(const UnitReport& r);
  bool operator==(const DeviceDigest&) const = default;
};

/// The report-slot layout of one device set (defined in observer.cpp).
struct RoundLayout;

/// A fully assembled network-wide snapshot. Self-contained: a copy stays
/// valid after the observer (and its network) are gone.
struct GlobalSnapshot {
  /// What a slot of an open round keeps of its report beyond the state
  /// byte.
  struct SlotValues {
    std::uint64_t local_value = 0;
    std::uint64_t channel_value = 0;
    sim::SimTime advance_time = 0;
    sim::SimTime finalize_time = 0;
  };
  static_assert(sizeof(SlotValues) == 32);
  /// Store cost of one report slot while the round is open: the state byte
  /// plus the value record.
  static constexpr std::size_t kSlotBytes = 1 + sizeof(SlotValues);

  VirtualSid id = 0;
  sim::SimTime scheduled_at = 0;
  /// One digest per device pinned when the round was requested, in device
  /// registration order. Devices attached later (Section 6, "Node
  /// attachment") are not part of the round; an excluded device's entry is
  /// zeroed.
  std::vector<DeviceDigest> digests;
  std::size_t expected_total = 0;  ///< Relevant units over non-excluded devices.
  std::size_t received_total = 0;  ///< Stored reports.
  std::vector<net::NodeId> excluded_devices;
  bool complete = false;
  /// True time the observer assembled the last report (or timed out).
  sim::SimTime completed_at = 0;

  /// The report unit `u` delivered for this round, or nullopt if it is
  /// missing, its device was excluded, or it is not part of the round. O(1).
  [[nodiscard]] std::optional<UnitReport> report(const net::UnitId& u) const;

  /// Every stored report, rebuilt from its slot, ordered by device
  /// registration, then port, then direction: UnitId order under
  /// core::Network, which registers its switches in NodeId order.
  [[nodiscard]] auto reports() const {
    return std::views::iota(std::size_t{0}, state_.size()) |
           std::views::filter([this](std::size_t slot) {
             return (state_[slot] & kOccupied) != 0;
           }) |
           std::views::transform(
               [this](std::size_t slot) { return rebuild(slot); });
  }

  /// Bytes of this round's report store: slots x kSlotBytes while the round
  /// is open; once it is sealed, the state bytes plus the packed columns.
  [[nodiscard]] std::size_t store_bytes() const {
    return sealed_ ? state_.size() + packed_.size()
                   : state_.size() * kSlotBytes;
  }

  /// The node of device `d` (registration order: the index into digests).
  [[nodiscard]] net::NodeId device_node(std::size_t d) const;

  [[nodiscard]] bool all_consistent() const;
  [[nodiscard]] std::size_t consistent_count() const;

  /// Paper Section 8.1: "Synchronization of a snapshot ID is defined as the
  /// difference between the earliest and latest timestamps on any
  /// notification with that ID." advance_span() uses the local-state
  /// instants ("Switch State" in Figure 9); finalize_span() additionally
  /// waits for upstream neighbors ("Switch + Channel State").
  [[nodiscard]] sim::Duration advance_span() const;
  [[nodiscard]] sim::Duration finalize_span() const;

  /// Latest local-state advance timestamp across the round (0 if none) —
  /// the scalability benches read this instead of scanning unit reports.
  [[nodiscard]] sim::SimTime latest_advance() const;

  /// Sum of local values over consistent reports (+ channel state if
  /// `include_channel`): e.g. a causally consistent network-wide packet
  /// count.
  [[nodiscard]] std::uint64_t total_value(bool include_channel) const;

 private:
  friend class Observer;
  /// State column bits.
  static constexpr std::uint8_t kOccupied = 1;
  static constexpr std::uint8_t kConsistent = 2;
  static constexpr std::uint8_t kInferred = 4;
  /// Sealed rounds: bit (kZero << c) marks a zero in value column c, kept
  /// out of the column's base (an inconsistent report's time is 0).
  static constexpr std::uint8_t kZero = 8;
  static constexpr std::size_t kColumns = 4;

  /// One frame-of-reference coded value column of a sealed round.
  struct Column {
    std::uint64_t base = 0;  ///< Minimum nonzero value over occupied slots.
    std::size_t offset = 0;  ///< Where the column starts in packed_.
    std::uint8_t width = 0;   ///< Bytes per slot: 0, 1, 2, 4 or 8.
  };

  void store(std::size_t slot, const UnitReport& r);
  /// Repack values_ into columns_/packed_ and free it. Completion only.
  void seal();
  [[nodiscard]] UnitReport rebuild(std::size_t slot) const;

  std::shared_ptr<const RoundLayout> layout_;
  std::vector<std::uint8_t> state_;  ///< By slot; 0 = empty.
  std::vector<SlotValues> values_;   ///< By slot; open rounds only.
  bool sealed_ = false;
  std::array<Column, kColumns> columns_{};
  std::vector<std::uint8_t> packed_;  ///< Column-major slot offsets.
};

class Observer {
 public:
  struct Options {
    SnapshotConfig snapshot;
    /// Devices missing reports this long after the scheduled fire time are
    /// excluded from the global snapshot.
    sim::Duration completion_timeout = sim::msec(100);
    /// Wire format of the report links (encoded frames, one decoder per
    /// device).
    WireOptions wire;
    /// Fabric-wide wire accounting sink shared by the report links; may be
    /// null.
    WireStats* wire_stats = nullptr;
  };

  /// Why the observer ignored a decoded report; each reason is counted as
  /// `observer.reports_ignored.<name>`.
  enum class IgnoreReason : std::uint8_t {
    UnknownUnit,       ///< Not a unit of the device whose link carried it.
    OutOfScope,        ///< Outside the sync group (set_scope).
    UnknownSid,        ///< No round with that id was ever requested.
    Straggler,         ///< The round already completed or timed out.
    UnexpectedDevice,  ///< Device attached after the round was requested.
    Duplicate,         ///< The unit's slot is already filled.
  };
  static constexpr std::size_t kIgnoreReasons = 6;

  Observer(sim::Simulator& sim, const sim::TimingModel& timing, Options options);

  Observer(const Observer&) = delete;
  Observer& operator=(const Observer&) = delete;

  /// Register a device; wires the control plane's report link to this
  /// observer. May be called at any time
  /// (Section 6, "Node attachment"): snapshots already outstanding keep
  /// their original device set, and the new device participates from the
  /// next request on, under the scope set_scope() last set.
  ///
  /// `rpc` is the keyed endpoint request RPCs to the device are posted
  /// through (their merge rank); unwired (the default) schedules them as
  /// unkeyed local events. The device-side report encoder accounts into
  /// the observer's own `wire_stats`.
  void register_device(ControlPlane* cp, sim::Endpoint rpc = {});

  /// Request a network-wide snapshot at true time `when` (the observer's
  /// clock is the reference). Returns the assigned id, or nullopt if the
  /// rollover window would be violated (the caller should retry after
  /// outstanding snapshots complete — the out-of-band enforcement of
  /// Section 5.3).
  std::optional<VirtualSid> request_snapshot(sim::SimTime when);

  /// Result access, O(1). Every round stays available (and the pointer
  /// stable) until the observer is destroyed. Its store has one slot per
  /// unit of the devices pinned to it, whether or not they reported: an
  /// open round costs GlobalSnapshot::kSlotBytes (33 B) a slot, a completed
  /// (sealed) one its state byte plus the packed column widths, a few bytes
  /// a slot (GlobalSnapshot::store_bytes()).
  [[nodiscard]] const GlobalSnapshot* result(VirtualSid id) const;
  [[nodiscard]] std::size_t completed_count() const { return completed_; }
  [[nodiscard]] std::size_t requested_count() const { return rounds_.size(); }

  /// Invoked whenever a snapshot completes (possibly with exclusions).
  void set_completion_callback(std::function<void(const GlobalSnapshot&)> cb) {
    on_complete_ = std::move(cb);
  }

  /// Restrict the observer's sync group to units matched by `pred` (null =
  /// everything). Broadcasts per-device relevancy masks to every control
  /// plane over the same keyed RPC channel snapshot requests travel, so a
  /// snapshot requested after this call observes the new scope on every
  /// device; devices registered later get their mask on registration. Only
  /// call while no snapshot is outstanding: rounds already in
  /// flight were pinned against the old membership and would time out
  /// their filtered devices.
  void set_scope(const std::function<bool(const net::UnitId&)>& pred);

  /// Fault injection: simulate an observer process crash + restart. While
  /// down, incoming unit reports are lost (the report RPCs land on a dead
  /// socket); affected snapshots recover only via the completion timeout,
  /// which excludes the devices whose reports were dropped. Completion
  /// timeouts still fire while down (they are re-armed state the restarted
  /// process recovers from its request log). Coming back up bumps the wire
  /// session: the restarted decoders start empty, and every control plane
  /// is told to re-keyframe, so stale in-flight frames are dropped
  /// identically under every encoding.
  void set_down(bool down);
  [[nodiscard]] bool is_down() const { return down_; }
  [[nodiscard]] std::uint64_t reports_dropped_while_down() const {
    return reports_dropped_while_down_;
  }
  [[nodiscard]] std::uint8_t wire_session() const { return session_; }
  [[nodiscard]] std::uint64_t reports_ignored(IgnoreReason why) const {
    return ignored_[static_cast<std::size_t>(why)];
  }

  /// The receiving end of device `dev_index`'s report link (register_device
  /// points the control plane's link here): decode one frame and assemble
  /// the report. Public so tests can deliver hand-encoded frames.
  void on_report_frame(std::uint16_t dev_index,
                       std::span<const std::uint8_t> bytes);

 private:
  struct Device {
    ControlPlane* cp = nullptr;
    std::vector<net::UnitId> units;
    sim::Endpoint rpc;       ///< Observer -> device request path.
    ReportDecoder decoder;   ///< Report-link receiving end.
  };

  static void report_frame_thunk(void* ctx, std::uint16_t dev_index,
                                 const std::uint8_t* bytes, std::uint8_t len);
  void on_report(std::uint16_t dev_index, const UnitReport& r);
  void ignore(IgnoreReason why) { ++ignored_[static_cast<std::size_t>(why)]; }
  /// Post `fn` to run on device `dev`'s control plane one RPC later.
  void post_rpc(Device& dev, sim::InplaceCallback fn);
  /// Apply the sync-group scope to device `d`: relevancy, expected count
  /// for new rounds, and the mask RPC.
  void scope_device(std::size_t d);
  void check_complete(GlobalSnapshot& snap);
  void timeout_snapshot(VirtualSid id);

  sim::Simulator& sim_;
  const sim::TimingModel& timing_;
  Options options_;
  SidSpace space_;

  std::vector<Device> devices_;
  std::size_t total_units_ = 0;
  /// The current device set's slot layout. Rounds share it; register_device
  /// extends a copy once any round does.
  std::shared_ptr<RoundLayout> layout_;
  /// The round every request starts from: the current device set's
  /// in-scope unit counts, no reports.
  GlobalSnapshot blank_;
  /// Sync-group membership (null = everything) and the relevancy it gives
  /// each report slot (empty = everything).
  std::function<bool(const net::UnitId&)> scope_;
  std::vector<bool> relevant_;

  /// Round `sid` is rounds_[sid - 1]: sids are dense from 1, and a deque
  /// keeps result() pointers stable as rounds are added.
  std::deque<GlobalSnapshot> rounds_;
  /// Rounds before this index are all complete; the rollover window is
  /// measured from the round at it.
  std::size_t first_outstanding_ = 0;
  std::size_t completed_ = 0;
  bool down_ = false;
  std::uint8_t session_ = 0;  ///< Wire report-link session (bumps on restart).
  std::uint64_t reports_dropped_while_down_ = 0;
  std::array<std::uint64_t, kIgnoreReasons> ignored_{};
  std::function<void(const GlobalSnapshot&)> on_complete_;
  /// Scheduled-fire-time -> assembly latency (registry-owned).
  obs::Histogram* completion_latency_ = nullptr;
};

}  // namespace speedlight::snap
