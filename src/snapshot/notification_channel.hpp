// The data plane -> CPU notification path (Section 7.2: DMA into a raw
// socket, drained by the control-plane event loop).
//
// Model: a notification leaves the ASIC as an encoded wire frame (DESIGN.md
// section 16), crosses PCIe (fixed latency), and lands in a bounded socket
// buffer. The control-plane process drains the buffer one frame at a time,
// decoding it (compact timestamps recover against the buffered arrival
// time); each costs `notification_service_time`, scaled by the frame size
// when charging bytes (the bottleneck behind Figure 10, and where the delta
// encoding's rate win comes from). Overflow and random loss drop
// notifications — the protocol must tolerate this (Section 6, liveness).
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>

#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/timing_model.hpp"
#include "snapshot/notification.hpp"
#include "snapshot/notification_transport.hpp"
#include "snapshot/wire.hpp"

namespace speedlight::snap {

class NotificationChannel final : public NotificationTransport {
 public:
  /// `device` owns the channel; `stats` (may be null) counts the wire bytes.
  NotificationChannel(sim::Simulator& sim, const sim::TimingModel& timing,
                      sim::Rng rng, net::NodeId device,
                      const WireOptions& wire, WireStats* stats, Sink sink)
      : NotificationTransport(device, wire, stats,
                              timing.notification_pcie_latency),
        sim_(sim),
        timing_(timing),
        rng_(rng),
        sink_(std::move(sink)) {}

  NotificationChannel(const NotificationChannel&) = delete;
  NotificationChannel& operator=(const NotificationChannel&) = delete;

  /// Called synchronously by the data plane when a unit makes progress.
  void push(const Notification& n) override;

  // --- Introspection (Figure 10's "queue buildup" detector) ---------------
  [[nodiscard]] std::uint64_t delivered() const override { return delivered_; }
  [[nodiscard]] std::uint64_t dropped_overflow() const override {
    return dropped_overflow_;
  }
  [[nodiscard]] std::uint64_t dropped_random() const override {
    return dropped_random_;
  }
  [[nodiscard]] std::size_t backlog() const override { return buffer_.size(); }
  [[nodiscard]] std::size_t max_backlog() const override { return max_backlog_; }
  [[nodiscard]] std::size_t in_flight() const override { return pending_; }

  /// See NotificationTransport::reset_stats(): counters go to zero, the
  /// high-water mark re-seeds to the live buffer occupancy.
  void reset_stats() override {
    delivered_ = dropped_overflow_ = dropped_random_ = 0;
    max_backlog_ = buffer_.size();
  }

  /// Base surface plus the arrival->delivery latency histogram
  /// `<prefix>.queue_delay_ns` (the Figure 10 bottleneck, measured).
  void register_metrics(obs::MetricsRegistry& reg,
                        const std::string& prefix) override;

 private:
  /// An encoded frame plus its socket-buffer arrival time, so delivery can
  /// record how long it waited (queue delay + service); `arrived` doubles
  /// as the compact-timestamp recovery reference (the kernel's arrival
  /// timestamp on the raw socket). The same record crosses PCIe with
  /// `arrived` unset (it fits the inline event capture).
  struct Queued {
    std::array<std::uint8_t, kMaxNotificationFrameBytes> frame{};
    std::uint8_t len = 0;
    sim::SimTime arrived = 0;
  };

  void arrive(Queued q);
  void drain();
  [[nodiscard]] sim::Duration service_of(const Queued& q) const {
    return service_cost(timing_.notification_service_time, q.len);
  }

  sim::Simulator& sim_;
  const sim::TimingModel& timing_;
  sim::Rng rng_;
  Sink sink_;

  std::deque<Queued> buffer_;
  std::size_t pending_ = 0;  ///< push()ed, not yet delivered or dropped.
  bool draining_ = false;
  obs::Histogram* queue_delay_ = nullptr;  // set by register_metrics()

  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_overflow_ = 0;
  std::uint64_t dropped_random_ = 0;
  std::size_t max_backlog_ = 0;
};

}  // namespace speedlight::snap
