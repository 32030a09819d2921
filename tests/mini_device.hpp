// A minimal device for observer tests: one ingress unit behind a real
// control plane, with initiations and markers applied directly to its
// data-plane unit.
#pragma once

#include <functional>
#include <string>

#include "sim/simulator.hpp"
#include "sim/timing_model.hpp"
#include "snapshot/control_plane.hpp"
#include "snapshot/dataplane.hpp"
#include "snapshot/unit_handle.hpp"

namespace speedlight::snap::testing {

class MiniDevice {
 public:
  MiniDevice(sim::Simulator& sim, const sim::TimingModel& timing,
             net::NodeId id, const SnapshotConfig& config)
      : unit_(sim, id, config), cp_(sim, id, "dev" + std::to_string(id),
                                    timing, options_for(config), sim::Rng(id)) {
    unit_.notify = [this](const Notification& n) { cp_.on_notification(n); };
    cp_.add_unit(&unit_, {false, false});
  }

  [[nodiscard]] ControlPlane& cp() { return cp_; }
  /// A marker-carrying packet from a neighbor already at wire sid `sid`.
  void deliver_marker(WireSid sid) { unit_.packet(sid); }
  [[nodiscard]] VirtualSid sid() const { return unit_.dp().virtual_sid(); }

 private:
  static ControlPlane::Options options_for(const SnapshotConfig& config) {
    ControlPlane::Options o;
    o.snapshot = config;
    return o;
  }

  class Unit final : public UnitHandle {
   public:
    Unit(sim::Simulator& sim, net::NodeId id, const SnapshotConfig& config)
        : sim_(sim),
          dp_(net::UnitId{id, 0, net::Direction::Ingress}, config, 2, 1,
              [this]() { return state; },
              [](const PacketView&) { return std::uint64_t{1}; },
              [this](const Notification& n) {
                if (notify) notify(n);
              }) {}

    [[nodiscard]] net::UnitId unit_id() const override { return dp_.id(); }
    [[nodiscard]] bool is_ingress() const override { return true; }
    [[nodiscard]] std::uint16_t num_channels() const override { return 2; }
    [[nodiscard]] std::uint16_t cpu_channel() const override { return 1; }
    void inject_initiation(WireSid sid) override {
      sim_.after(sim::usec(2),
                 [this, sid]() { dp_.on_initiation(sid, sim_.now()); });
    }
    void inject_probe() override {}
    [[nodiscard]] SlotValue read_value_slot(std::size_t i) const override {
      return dp_.read_slot(i);
    }
    [[nodiscard]] WireSid read_sid_register() const override {
      return dp_.sid_register();
    }
    [[nodiscard]] WireSid read_last_seen_register(std::uint16_t ch) const override {
      return dp_.last_seen_register(ch);
    }
    [[nodiscard]] std::uint64_t read_live_counter() const override {
      return state;
    }
    void packet(WireSid sid) {
      PacketView v;
      v.wire_sid = sid;
      dp_.on_packet(v, 0, sim_.now());
      ++state;
    }
    [[nodiscard]] const DataplaneUnit& dp() const { return dp_; }

    std::uint64_t state = 0;
    std::function<void(const Notification&)> notify;

   private:
    sim::Simulator& sim_;
    DataplaneUnit dp_;
  };

  Unit unit_;
  ControlPlane cp_;
};

}  // namespace speedlight::snap::testing
