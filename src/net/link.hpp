// Unidirectional point-to-point link with bandwidth, propagation delay,
// FIFO delivery, and optional loss.
//
// Links model the physical channels of Section 4.1: between devices they
// connect the egress unit of one port to an ingress unit of another device.
// FIFO ordering is guaranteed by construction (serialization is sequential
// and propagation delay is constant).
#pragma once

#include <cstdint>

#include "net/node.hpp"
#include "net/packet.hpp"
#include "net/types.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace speedlight::net {

class Link {
 public:
  Link(sim::Simulator& sim, double bandwidth_bps, sim::Duration propagation,
       sim::Rng rng)
      : sim_(sim),
        bandwidth_bps_(bandwidth_bps),
        propagation_(propagation),
        rng_(rng) {}

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Attach the receiving end. Must be called before send().
  void connect(Node* dst, PortId dst_port) {
    dst_ = dst;
    dst_port_ = dst_port;
  }

  /// Transmit a packet: waits for the transmitter to be idle, serializes at
  /// the link rate, then propagates. May drop (loss model).
  void send(PooledPacket pkt);

  /// Hand over a packet whose serialization the sender already paced (a
  /// switch egress port drains its queue at the link rate and calls this at
  /// serialization-complete time). Applies only the loss model and
  /// propagation delay; FIFO as long as callers pass non-decreasing times.
  void deliver(PooledPacket pkt, sim::SimTime departed);

  /// Random per-packet loss probability in [0, 1].
  void set_loss_probability(double p) { loss_probability_ = p; }
  [[nodiscard]] double loss_probability() const { return loss_probability_; }

  /// Force the next `n` packets to be dropped (deterministic fault
  /// injection for tests).
  void drop_next(std::uint64_t n) { forced_drops_ += n; }

  /// Route arrivals through a keyed endpoint: gives the link an intrinsic
  /// same-timestamp merge rank (its construction order). Unwired (the
  /// default) falls back to an unkeyed local event, which standalone
  /// tests rely on.
  void set_arrival_endpoint(sim::Endpoint ep) { arrival_ = ep; }

  [[nodiscard]] sim::Duration serialization_delay(std::uint32_t bytes) const {
    return static_cast<sim::Duration>(static_cast<double>(bytes) * 8.0 /
                                      bandwidth_bps_ * sim::kSecond);
  }

  [[nodiscard]] std::uint64_t packets_sent() const { return packets_sent_; }
  [[nodiscard]] std::uint64_t packets_dropped() const { return packets_dropped_; }
  [[nodiscard]] Node* destination() const { return dst_; }
  [[nodiscard]] PortId destination_port() const { return dst_port_; }

 private:
  sim::Simulator& sim_;
  double bandwidth_bps_;
  sim::Duration propagation_;
  sim::Rng rng_;

  Node* dst_ = nullptr;
  PortId dst_port_ = kInvalidPort;

  sim::SimTime busy_until_ = 0;
  double loss_probability_ = 0.0;
  std::uint64_t forced_drops_ = 0;
  std::uint64_t packets_sent_ = 0;
  std::uint64_t packets_dropped_ = 0;

  sim::Endpoint arrival_;
};

}  // namespace speedlight::net
