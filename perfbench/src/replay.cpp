// speedlight-lint: allow-file(wall-clock) the benchmark measures host time.
#include "replay.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <memory>
#include <vector>

#include "core/network.hpp"
#include "net/link.hpp"
#include "net/node.hpp"
#include "net/packet_pool.hpp"
#include "net/topology.hpp"
#include "sim/random.hpp"
#include "sim/sim_context.hpp"
#include "sim/simulator.hpp"
#include "sim/timing_model.hpp"
#include "snapshot/dataplane.hpp"
#include "snapshot/notification_channel.hpp"
#include "snapshot/observer.hpp"
#include "snapshot/wire.hpp"
#include "spans.hpp"
#include "stats/summary.hpp"
#include "switchlib/switch.hpp"

namespace perfbench {

namespace sl = speedlight;

namespace {

constexpr int kRepetitions = 5;

/// Drops every delivered packet (recycling it) and counts them.
class SinkNode final : public sl::net::Node {
 public:
  explicit SinkNode(sl::net::NodeId id) : Node(id, "sink") {}
  void receive(sl::net::PooledPacket /*pkt*/, sl::net::PortId /*port*/) override {
    ++received;
  }
  [[nodiscard]] bool is_host() const override { return false; }
  std::uint64_t received = 0;
};

/// Run `body` (which performs `ops` operations, returns the events it
/// executed and fills `checks`) kRepetitions times in fresh simulation
/// contexts; report the median repetition. `nested_ns_per_op` is the cost
/// of nested layers replayed on their own, removed from the result.
template <typename Body>
ReplayResult measure(const char* name, std::uint64_t ops,
                     double nested_ns_per_op, Body body) {
  ReplayResult out;
  out.name = name;
  out.ops = ops;
  std::vector<double> per_op;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    sl::sim::SimContext ctx;
    sl::sim::SimContext::Scoped scoped(ctx);
    out.count_checks.clear();
    const std::int64_t t0 = host_now_ns();
    const std::uint64_t events = body(out.count_checks);
    const auto total = static_cast<double>(host_now_ns() - t0);
    out.events = events;
    const double self =
        total - static_cast<double>(ops) * nested_ns_per_op;
    per_op.push_back(std::max(self, 0.0) / static_cast<double>(ops));
  }
  out.ns_per_op = sl::stats::quantile(per_op, 0.5);
  return out;
}

sl::net::PooledPacket make_packet(std::uint32_t size, sl::net::NodeId dst,
                                  std::uint64_t serial) {
  auto pkt = sl::net::PooledPacket::make();
  pkt->id = serial;
  pkt->src_host = 0;
  pkt->dst_host = dst;
  pkt->flow = serial & 0xff;
  pkt->size_bytes = size;
  return pkt;
}

}  // namespace

ReplayResult replay_sim(double depth, double mean_delay_ns, std::uint64_t ops) {
  return measure("sim", ops, 0.0, [&](auto& checks) -> std::uint64_t {
    sl::sim::Simulator sim(7);
    // Pre-drawn exponential delays: the hold loop times the queue, not the
    // random number generator.
    constexpr std::size_t kDelays = 4096;
    std::vector<sl::sim::Duration> delays(kDelays);
    sl::sim::Rng rng(11);
    for (auto& d : delays) {
      d = static_cast<sl::sim::Duration>(rng.exponential(mean_delay_ns)) + 1;
    }
    struct Hold {
      sl::sim::Simulator* sim;
      const sl::sim::Duration* delays;
      std::size_t next = 0;
      void fire() {
        sim->after(delays[next++ & (kDelays - 1)], [this]() { fire(); });
      }
    } hold{&sim, delays.data()};
    const auto n = static_cast<std::size_t>(std::max(depth, 1.0));
    for (std::size_t i = 0; i < n; ++i) hold.fire();
    const std::uint64_t before = sim.stats().executed;
    for (std::uint64_t i = 0; i < ops; ++i) sim.step();
    const std::uint64_t executed = sim.stats().executed - before;
    checks.push_back({"events executed", {ops, executed}});
    return executed;
  });
}

ReplayResult replay_link(const ReplayShape& s, std::uint64_t ops) {
  return measure("net.link", ops, 0.0, [&](auto& checks) {
    sl::sim::Simulator sim(7);
    sl::net::Link link(sim, 100e9, sl::sim::nsec(500), sl::sim::Rng(3));
    SinkNode sink(1);
    link.connect(&sink, 0);
    constexpr std::uint64_t kBurst = 64;
    const std::uint64_t ev0 = sim.stats().executed;
    for (std::uint64_t done = 0; done < ops;) {
      const std::uint64_t n = std::min(kBurst, ops - done);
      for (std::uint64_t i = 0; i < n; ++i) {
        link.send(make_packet(s.packet_size, 1, done + i));
      }
      sim.run_until();
      done += n;
    }
    checks.push_back({"Link::packets_sent", {ops, link.packets_sent()}});
    checks.push_back({"sink deliveries", {ops, sink.received}});
    return sim.stats().executed - ev0;
  });
}

ReplayResult replay_switch(const ReplayShape& s, std::uint64_t ops,
                           double dp_ns, double link_ns) {
  // Packets are injected at random edge switches of the workload's own
  // fabric, as if from an attached host, and forwarded hop by hop to a
  // random other host: the routes, port records and working set are the
  // run's. Each switch traversal is one operation; its two dataplane
  // traversals (ingress + egress unit) and one link delivery are charged
  // to their own layers.
  std::uint64_t traversals = 0;
  ReplayResult out = measure(
      "switchlib", ops, 0.0, [&](auto& checks) {
        speedlight::core::NetworkOptions options;
        options.snapshot.channel_state = s.channel_state;
        options.start_ptp = false;  // No timers: the queue drains.
        speedlight::core::Network net(speedlight::net::make_fat_tree(s.k),
                                      options);
        sl::sim::Simulator& sim = net.simulator();
        const std::size_t hosts = net.num_hosts();
        sl::sim::Rng rng(13);
        constexpr std::uint64_t kBurst = 64;
        const std::uint64_t ev0 = sim.stats().executed;
        for (std::uint64_t done = 0; done < ops;) {
          const std::uint64_t n = std::min(kBurst, ops - done);
          for (std::uint64_t i = 0; i < n; ++i) {
            const std::size_t src = rng.uniform_int(0, hosts - 1);
            std::size_t dst = rng.uniform_int(0, hosts - 2);
            if (dst >= src) ++dst;
            const auto& at = net.spec().hosts[src];
            auto pkt = make_packet(s.packet_size, net.host_id(dst), done + i);
            pkt->src_host = net.host_id(src);
            net.switch_at(at.attached_switch).receive(std::move(pkt),
                                                      at.switch_port);
          }
          sim.run_until();
          done += n;
        }
        std::uint64_t delivered = 0;
        for (std::size_t h = 0; h < hosts; ++h) {
          delivered += net.host(h).packets_received();
        }
        traversals = 0;
        for (std::size_t sw = 0; sw < net.num_switches(); ++sw) {
          for (sl::net::PortId p = 0; p < net.spec().switches[sw].num_ports;
               ++p) {
            traversals +=
                net.switch_at(sw).counters(p, sl::net::Direction::Ingress).packets();
          }
        }
        checks.push_back({"packets injected == delivered to hosts",
                          {ops, delivered}});
        return sim.stats().executed - ev0;
      });
  // Re-express per switch traversal, the operation the ledger counts, and
  // remove the nested layers.
  if (traversals > 0) {
    out.ns_per_op = std::max(
        out.ns_per_op * static_cast<double>(ops) / static_cast<double>(traversals) -
            2 * dp_ns - link_ns,
        0.0);
    out.ops = traversals;
  }
  return out;
}

ReplayResult replay_dataplane_packets(const ReplayShape& s, std::uint64_t ops) {
  return measure("snapshot.dataplane", ops, 0.0, [&](auto& checks) {
    const std::uint16_t channels = std::max<std::uint16_t>(s.ports, 2);
    sl::snap::SnapshotConfig cfg;
    cfg.channel_state = s.channel_state;
    std::uint64_t booked = 0;
    sl::snap::DataplaneUnit unit(
        {0, 0, sl::net::Direction::Ingress}, cfg,
        static_cast<std::uint16_t>(channels + 1), channels,
        [] { return std::uint64_t{42}; },
        [&booked](const sl::snap::PacketView&) {
          ++booked;
          return std::uint64_t{1};
        },
        [](const sl::snap::Notification&) {});
    // One cycle per advance: the advancing packet on channel 0, in-flight
    // packets (old id) on the lagging channels, one catch-up packet per
    // lagging channel, then same-epoch packets on channel 0.
    const double adv = std::clamp(s.advance_share, 1e-6, 1.0);
    const auto cycle = std::clamp<std::uint64_t>(
        static_cast<std::uint64_t>(std::llround(1.0 / adv)), channels + 1u,
        std::uint64_t{1} << 20);
    const std::uint64_t lagging = channels - 1u;
    const std::uint64_t inflight =
        s.channel_state
            ? std::min<std::uint64_t>(
                  static_cast<std::uint64_t>(std::llround(
                      s.inflight_share * static_cast<double>(cycle))),
                  cycle - 1 - lagging)
            : 0;
    sl::snap::PacketView view;
    view.size_bytes = s.packet_size;
    std::uint32_t sid = 0;
    std::uint64_t advances = 0;
    std::uint64_t inflight_sent = 0;
    std::uint64_t pos = 0;
    sl::sim::SimTime now = 0;
    for (std::uint64_t i = 0; i < ops; ++i, ++pos, now += 100) {
      if (pos == cycle) pos = 0;
      std::uint16_t ch = 0;
      if (pos == 0) {
        ++sid;  // Advancing packet.
        ++advances;
      } else if (pos <= inflight) {
        ch = static_cast<std::uint16_t>(1 + (pos - 1) % lagging);
        view.wire_sid = sid - 1;  // Sent before the upstream advanced.
        view.packet_id = i;
        unit.on_packet(view, ch, now);
        ++inflight_sent;
        continue;
      } else if (pos <= inflight + lagging) {
        ch = static_cast<std::uint16_t>(pos - inflight);  // Catch-up.
      }
      view.wire_sid = sid;
      view.packet_id = i;
      unit.on_packet(view, ch, now);
    }
    checks.push_back({"advances", {advances, unit.advances()}});
    if (s.channel_state) {
      checks.push_back({"in-flight bookings", {inflight_sent, booked}});
    }
    return std::uint64_t{0};
  });
}

ReplayResult replay_dataplane_initiations(const ReplayShape& s,
                                          std::uint64_t ops) {
  return measure("snapshot.dataplane.initiation", ops, 0.0,
                 [&](auto& checks) {
                   const std::uint16_t channels =
                       std::max<std::uint16_t>(s.ports, 2);
                   sl::snap::SnapshotConfig cfg;
                   cfg.channel_state = s.channel_state;
                   sl::snap::DataplaneUnit unit(
                       {0, 0, sl::net::Direction::Ingress}, cfg,
                       static_cast<std::uint16_t>(channels + 1), channels,
                       [] { return std::uint64_t{42}; },
                       [](const sl::snap::PacketView&) { return std::uint64_t{1}; },
                       [](const sl::snap::Notification&) {});
                   for (std::uint64_t i = 0; i < ops; ++i) {
                     unit.on_initiation(static_cast<std::uint32_t>(i + 1),
                                        static_cast<sl::sim::SimTime>(i * 1000));
                   }
                   checks.push_back({"advances", {ops, unit.advances()}});
                   return std::uint64_t{0};
                 });
}

ReplayResult replay_device_rounds(const ReplayShape& s, std::uint64_t rounds) {
  const std::uint16_t ports = std::max<std::uint16_t>(s.ports, 2);
  const std::size_t devices = std::max<std::size_t>(s.devices, 1);
  std::uint64_t notifications = 0;
  ReplayResult out = measure(
      "snapshot.notif+control_plane", rounds, 0.0, [&](auto& checks) {
        sl::sim::Simulator sim(7);
        const sl::sim::TimingModel timing;
        sl::sw::SwitchOptions so;
        so.num_ports = ports;
        so.snapshot.channel_state = s.channel_state;
        // Without neighbours, channel-state rounds complete on probes
        // refreshing the internal channels (as the facade configures).
        so.control.probe_on_initiate = s.channel_state;
        so.per_instance_metrics = false;
        SinkNode sink(1);
        std::vector<std::unique_ptr<sl::net::Link>> links;
        std::vector<std::unique_ptr<sl::sw::Switch>> switches;
        std::uint64_t reports = 0;
        for (std::size_t d = 0; d < devices; ++d) {
          switches.push_back(std::make_unique<sl::sw::Switch>(
              sim, static_cast<sl::net::NodeId>(d), "replay", timing, so,
              sl::sim::Rng(5 + d)));
          for (std::uint16_t p = 0; p < ports; ++p) {
            links.push_back(std::make_unique<sl::net::Link>(
                sim, 100e9, sl::sim::nsec(500), sl::sim::Rng(p)));
            links.back()->connect(&sink, 0);
            switches.back()->attach_link(p, links.back().get(), /*to_host=*/true);
          }
          switches.back()->finalize();
          switches.back()->control_plane().set_report_sink(
              [&reports](const sl::snap::UnitReport&) { ++reports; });
        }
        const std::uint64_t ev0 = sim.stats().executed;
        for (std::uint64_t r = 1; r <= rounds; ++r) {
          for (auto& sw : switches) {
            sw->control_plane().schedule_snapshot(r, sim.now() + 1000);
          }
          sim.run_until();
        }
        std::uint64_t emitted = 0;
        notifications = 0;
        for (auto& sw : switches) {
          emitted += sw->snapshot_notifications();
          notifications += sw->notifications().delivered();
        }
        checks.push_back({"reports (2 units per port per round)",
                          {rounds * devices * 2 * ports, reports}});
        checks.push_back({"notifications delivered == emitted",
                          {emitted, notifications}});
        return sim.stats().executed - ev0;
      });
  // Re-express per notification, the operation the ledger counts.
  if (notifications > 0) {
    out.ns_per_op *= static_cast<double>(rounds) / static_cast<double>(notifications);
    out.ops = notifications;
  }
  return out;
}

ReplayResult replay_wire_notifications(const ReplayShape& s, std::uint64_t ops) {
  return measure("snapshot.wire.notification", ops, 0.0,
                 [&](auto& checks) {
                   const sl::sim::TimingModel timing;
                   const sl::snap::NotificationCodec codec(
                       sl::snap::WireOptions{}, timing.notification_pcie_latency);
                   std::array<std::uint8_t, sl::snap::kMaxNotificationFrameBytes>
                       buf{};
                   std::uint64_t roundtrips = 0;
                   sl::snap::Notification n;
                   for (std::uint64_t i = 0; i < ops; ++i) {
                     n.unit = {0, static_cast<sl::net::PortId>(i % s.ports),
                               sl::net::Direction::Ingress};
                     n.old_sid = static_cast<std::uint32_t>(i / s.ports);
                     n.new_sid = n.old_sid + 1;
                     n.timestamp = static_cast<sl::sim::SimTime>(1'000'000 + i * 900);
                     const std::size_t len = codec.encode(n, buf.data());
                     const auto back = codec.decode(
                         {buf.data(), len}, 0,
                         n.timestamp + timing.notification_pcie_latency);
                     if (back && back->new_sid == n.new_sid &&
                         back->timestamp == n.timestamp) {
                       ++roundtrips;
                     }
                   }
                   checks.push_back({"exact round trips", {ops, roundtrips}});
                   return std::uint64_t{0};
                 });
}

ReplayResult replay_wire_reports(const ReplayShape& s, std::uint64_t ops) {
  return measure("snapshot.wire.report", ops, 0.0, [&](auto& checks) {
    const sl::sim::TimingModel timing;
    sl::snap::WireStats stats;
    sl::snap::ReportEncoder enc;
    sl::snap::ReportDecoder dec;
    const sl::snap::WireOptions opts;
    enc.configure(opts, timing.observer_rpc_latency, &stats);
    dec.configure(opts, 0, &stats);
    const std::size_t units = std::max<std::size_t>(s.units_per_device, 1);
    std::vector<sl::net::UnitId> ids;
    for (std::size_t u = 0; u < units; ++u) {
      ids.push_back({0, static_cast<sl::net::PortId>(u / 2),
                     u % 2 == 0 ? sl::net::Direction::Ingress
                                : sl::net::Direction::Egress});
      enc.add_unit(ids.back());
      dec.add_unit(ids.back());
    }
    std::array<std::uint8_t, sl::snap::kMaxReportFrameBytes> buf{};
    std::uint64_t decoded = 0;
    sl::snap::UnitReport r;
    r.device = 0;
    for (std::uint64_t i = 0; i < ops; ++i) {
      const std::size_t u = i % units;
      r.unit = ids[u];
      r.sid = 1 + i / units;
      r.local_value = 1000 * r.sid + u;
      r.channel_value = u % 3;
      const auto now = static_cast<sl::sim::SimTime>(1'000'000 + i * 2000);
      r.advance_time = now - 5000;
      r.finalize_time = now - 1000;
      const std::size_t len = enc.encode(r, now, buf.data());
      const auto back =
          dec.decode({buf.data(), len}, now + timing.observer_rpc_latency);
      if (back && back->sid == r.sid && back->local_value == r.local_value) {
        ++decoded;
      }
    }
    checks.push_back({"WireStats::reports_encoded", {ops, stats.reports_encoded}});
    checks.push_back({"exact decodes", {ops, decoded}});
    return std::uint64_t{0};
  });
}

ReplayResult replay_observer_fold(const ReplayShape& s, std::uint64_t ops) {
  return measure("snapshot.observer.fold", ops, 0.0, [&](auto& checks) {
    const std::size_t units = std::max<std::size_t>(s.units_per_device, 1);
    std::vector<sl::snap::UnitReport> reports(units);
    for (std::size_t u = 0; u < units; ++u) {
      reports[u].unit = {0, static_cast<sl::net::PortId>(u / 2),
                         sl::net::Direction::Ingress};
      reports[u].local_value = u * 7;
      reports[u].channel_value = u % 3;
      reports[u].advance_time = static_cast<sl::sim::SimTime>(1000 + u);
      reports[u].finalize_time = static_cast<sl::sim::SimTime>(2000 + u);
    }
    // One digest per device round, as the observer keeps them.
    sl::snap::DeviceDigest d;
    std::uint64_t received = 0;
    for (std::uint64_t i = 0; i < ops; ++i) {
      const std::size_t u = i % units;
      if (u == 0) {
        received += d.received;
        d = sl::snap::DeviceDigest{};
      }
      d.fold(reports[u]);
    }
    received += d.received;
    checks.push_back({"DeviceDigest::received", {ops, received}});
    return std::uint64_t{0};
  });
}

}  // namespace perfbench
