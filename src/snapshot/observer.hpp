// The snapshot observer (Sections 3 and 6): a host process that schedules
// network-wide snapshots with every device control plane, assembles the
// per-unit reports into global snapshots, detects completion, enforces the
// id-rollover window out-of-band, and times out failed devices.
//
// Assembly is streaming (DESIGN.md section 16.4): each arriving unit report
// folds into a per-device digest — counts, consistent-value sums, and
// advance/finalize extrema — so completion checks are O(1) and a round's
// assembly state is O(devices), not O(units). Retaining the raw per-unit
// reports is optional (`retain_unit_reports`, on by default for the audit
// tooling and tests); large-fabric runs turn it off and read everything
// through the digests. Digest maps are partitioned into `assembly_shards`
// buckets by device index, modelling assembly spread across observer
// instances.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <unordered_map>
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
};

/// A fully assembled network-wide snapshot.
struct GlobalSnapshot {
  VirtualSid id = 0;
  sim::SimTime scheduled_at = 0;
  /// One report per processing unit (excluded devices' units missing).
  /// Populated only when the observer retains unit reports; the aggregate
  /// getters below never need it.
  std::unordered_map<net::UnitId, UnitReport> reports;
  /// Streaming assembly state, one digest per expected device, partitioned
  /// across assembly shards by device index.
  std::vector<std::unordered_map<net::NodeId, DeviceDigest>> digests;
  std::size_t expected_total = 0;  ///< Relevant units over non-excluded devices.
  std::size_t received_total = 0;
  std::vector<net::NodeId> excluded_devices;
  bool complete = false;
  /// True time the observer assembled the last report (or timed out).
  sim::SimTime completed_at = 0;
  /// Devices (and their relevant unit counts) registered when this snapshot
  /// was requested. Devices attached later (Section 6, "Node attachment")
  /// are not part of this snapshot and their reports for it are ignored.
  std::unordered_map<net::NodeId, std::size_t> expected_devices;
  /// Per-round duplicate suppression by global unit index; released on
  /// completion (the digests make re-folding a duplicate unrecoverable).
  std::vector<bool> seen;

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

  /// This device's digest, or nullptr if it was excluded / never expected.
  [[nodiscard]] const DeviceDigest* digest(net::NodeId device) const;
};

class Observer {
 public:
  struct Options {
    SnapshotConfig snapshot;
    /// Devices missing reports this long after the scheduled fire time are
    /// excluded from the global snapshot.
    sim::Duration completion_timeout = sim::msec(100);
    /// Ship reports over the v2 wire link (encoded frames + per-link
    /// decoder) instead of the legacy struct sink.
    bool wire_reports = false;
    /// Wire format for the report links (meaningful with wire_reports).
    WireOptions wire;
    /// Fabric-wide wire accounting sink shared by the report links; may be
    /// null.
    WireStats* wire_stats = nullptr;
    /// Keep per-unit reports in GlobalSnapshot::reports. Off = digests
    /// only: O(devices) assembly memory per round.
    bool retain_unit_reports = true;
    /// Digest-map partitions per round (modelled observer instances).
    std::uint32_t assembly_shards = 1;
  };

  Observer(sim::Simulator& sim, const sim::TimingModel& timing, Options options);

  Observer(const Observer&) = delete;
  Observer& operator=(const Observer&) = delete;

  /// Register a device; wires the control plane's report path (wire link or
  /// legacy struct sink) to this observer. May be called at any time
  /// (Section 6, "Node attachment"): snapshots already outstanding keep
  /// their original device set, and the new device participates from the
  /// next request on.
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

  /// Result access. Snapshots stay available until the observer is
  /// destroyed.
  [[nodiscard]] const GlobalSnapshot* result(VirtualSid id) const;
  [[nodiscard]] std::size_t completed_count() const { return completed_; }
  [[nodiscard]] std::size_t requested_count() const { return next_sid_ - 1; }

  /// Invoked whenever a snapshot completes (possibly with exclusions).
  void set_completion_callback(std::function<void(const GlobalSnapshot&)> cb) {
    on_complete_ = std::move(cb);
  }

  /// Restrict the observer's sync group to units matched by `pred` (null =
  /// everything). Broadcasts per-device relevancy masks to every control
  /// plane over the same keyed RPC channel snapshot requests travel, so a
  /// snapshot requested after this call observes the new scope on every
  /// device. Only call while no snapshot is outstanding: rounds already in
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

 private:
  struct Device {
    ControlPlane* cp = nullptr;
    std::vector<net::UnitId> units;
    sim::Endpoint rpc;  ///< Observer -> device request path.
    std::size_t first_unit_index = 0;  ///< Global index of units[0].
    std::size_t relevant_units = 0;    ///< In-scope units (== units.size()
                                       ///< without a sync-group filter).
    ReportDecoder decoder;             ///< v2 report-link state (wire mode).
  };

  static void report_frame_thunk(void* ctx, std::uint16_t dev_index,
                                 const std::uint8_t* bytes, std::uint8_t len);
  void on_report_frame(std::uint16_t dev_index,
                       std::span<const std::uint8_t> bytes);
  void on_report(const UnitReport& r);
  void check_complete(VirtualSid id);
  void timeout_snapshot(VirtualSid id);
  [[nodiscard]] VirtualSid lowest_outstanding() const;

  sim::Simulator& sim_;
  const sim::TimingModel& timing_;
  Options options_;
  SidSpace space_;

  std::vector<Device> devices_;
  std::size_t total_units_ = 0;
  /// Global unit index (dedup bitset coordinate space).
  std::unordered_map<net::UnitId, std::size_t> unit_index_;
  std::unordered_map<net::NodeId, std::uint16_t> device_index_;
  /// Sync-group relevancy by global unit index; empty = everything.
  std::vector<bool> relevant_;

  std::map<VirtualSid, GlobalSnapshot> snapshots_;
  VirtualSid next_sid_ = 1;
  std::size_t completed_ = 0;
  bool down_ = false;
  std::uint8_t session_ = 0;  ///< Wire report-link session (bumps on restart).
  std::uint64_t reports_dropped_while_down_ = 0;
  std::function<void(const GlobalSnapshot&)> on_complete_;
  /// Scheduled-fire-time -> assembly latency (registry-owned).
  obs::Histogram* completion_latency_ = nullptr;
};

}  // namespace speedlight::snap
