#include "core/network.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/chrome_trace.hpp"

namespace speedlight::core {

Network::Network(const net::TopologySpec& spec, NetworkOptions options)
    : options_(std::move(options)),
      spec_(spec),
      sim_(options_.seed),
      timing_(options_.timing) {
  spec_.validate();

  // Struct-of-arrays topology core: the CSR index and the shared interned
  // route base are built once and consumed by the per-switch routing
  // tables and any diagnostic that walks the topology.
  index_ = net::build_topology_index(spec_);
  routes_ = net::compute_compact_routes(spec_, index_);

  sim::Rng master = sim_.rng().fork("network");

  // Liveness default: channel-state snapshots stall on traffic-less
  // channels, so re-initiation rounds flood probes (Section 6).
  if (options_.snapshot.channel_state && options_.force_probe_liveness) {
    options_.control.probe_on_reinitiate = true;
    options_.control.probe_on_initiate = true;
  }

  // Node ids: switches first, then hosts. Devices live in contiguous
  // arenas sized exactly once from the spec.
  const std::size_t s = spec_.switches.size();
  switches_.reset(s);
  hosts_.reset(spec_.hosts.size());
  links_.reset(2 * spec_.hosts.size() + 2 * spec_.trunks.size());
  for (std::size_t i = 0; i < s; ++i) {
    sw::SwitchOptions so;
    so.num_ports = spec_.switches[i].num_ports;
    so.snapshot_enabled = spec_.switches[i].snapshot_enabled;
    so.snapshot = options_.snapshot;
    so.metric = options_.metric;
    so.load_balancer = options_.load_balancer;
    so.flowlet_gap = options_.flowlet_gap;
    so.cos_classes = options_.cos_classes;
    so.classifier = options_.classifier;
    so.queue_capacity = options_.queue_capacity;
    so.fabric_delay = options_.fabric_delay;
    so.notification_mode = options_.notification_mode;
    so.int_enabled = options_.int_enabled;
    so.ecn_threshold = options_.ecn_threshold;
    so.per_instance_metrics = s <= options_.per_instance_metrics_limit;
    so.control = options_.control;
    if (options_.wire_fast_path) {
      so.wire_enabled = true;
      so.wire = options_.wire;
      so.wire_stats = &wire_stats_;
    }
    switches_.emplace_back(sim_, static_cast<net::NodeId>(i),
                           spec_.switches[i].name, timing_, so,
                           master.fork("switch" + std::to_string(i)));
  }
  for (std::size_t i = 0; i < spec_.hosts.size(); ++i) {
    hosts_.emplace_back(sim_, static_cast<net::NodeId>(s + i),
                        spec_.hosts[i].name);
  }

  // Arrivals go through a keyed endpoint, so each link's same-time tie
  // rank is its construction order.
  auto make_link = [this, &master](double bw, sim::Duration prop) {
    // links_.size() is read before the emplace lands, so the fork stream
    // ("link0", "link1", ...) matches the old per-entity construction
    // exactly — the RNG chain is digest-load-bearing.
    net::Link& link = links_.emplace_back(
        sim_, bw, prop, master.fork("link" + std::to_string(links_.size())));
    link.set_arrival_endpoint(make_endpoint());
    return &link;
  };

  // Host access links (duplex).
  for (std::size_t i = 0; i < spec_.hosts.size(); ++i) {
    const auto& h = spec_.hosts[i];
    sw::Switch& swch = switches_[h.attached_switch];
    net::Link* up =
        make_link(spec_.host_link_bandwidth_bps, spec_.host_link_propagation);
    up->connect(&swch, h.switch_port);
    hosts_[i].attach_uplink(up);
    net::Link* down =
        make_link(spec_.host_link_bandwidth_bps, spec_.host_link_propagation);
    down->connect(&hosts_[i], 0);
    swch.attach_link(h.switch_port, down, /*to_host=*/true);
  }

  // Switch-to-switch trunks (duplex).
  for (const auto& t : spec_.trunks) {
    sw::Switch& a = switches_[t.switch_a];
    sw::Switch& b = switches_[t.switch_b];
    net::Link* ab = make_link(t.bandwidth_bps, t.propagation);
    ab->connect(&b, t.port_b);
    a.attach_link(t.port_a, ab, /*to_host=*/false);
    net::Link* ba = make_link(t.bandwidth_bps, t.propagation);
    ba->connect(&a, t.port_a);
    b.attach_link(t.port_b, ba, /*to_host=*/false);
    // Partial deployment: if a trunk neighbor is snapshot-disabled, no
    // markers arrive on that channel.
    if (!options_.transit_neighbors_carry_markers) {
      if (!spec_.switches[t.switch_b].snapshot_enabled) {
        a.set_ingress_neighbor_enabled(t.port_a, false);
      }
      if (!spec_.switches[t.switch_a].snapshot_enabled) {
        b.set_ingress_neighbor_enabled(t.port_b, false);
      }
    }
  }

  // Routing: every switch's table is a view into the shared interned route
  // base — no per-(switch, host) vectors. Lookup results (contents, order)
  // and the FIB version sequence match the old per-destination install
  // loop exactly; the equivalence tests pin both.
  for (std::size_t sw_idx = 0; sw_idx < s; ++sw_idx) {
    switches_[sw_idx].routing().set_compact_base(
        &routes_, sw_idx, static_cast<net::NodeId>(s));
  }

  for (std::size_t i = 0; i < switches_.size(); ++i) switches_[i].finalize();

  // Large fabric: per-instance registration is off on every switch (see
  // SwitchOptions::per_instance_metrics); expose the fixed-cardinality
  // fabric-wide streaming view instead, re-summed on the cold collect path.
  if (s > options_.per_instance_metrics_limit) {
    streaming_.set_refresh([this](obs::StreamingMetrics& sm) {
      sm.clear();
      std::uint64_t max_backlog = 0;
      for (std::size_t i = 0; i < switches_.size(); ++i) {
        sw::Switch& swch = switches_[i];
        sm.add(obs::StreamClass::QueueDrops, swch.queue_drops());
        sm.add(obs::StreamClass::ForwardingDrops, swch.forwarding_drops());
        sm.add(obs::StreamClass::TtlDrops, swch.ttl_drops());
        sm.add(obs::StreamClass::SnapCaptures, swch.snapshot_captures());
        sm.add(obs::StreamClass::SnapNotifications,
               swch.snapshot_notifications());
        const snap::NotificationTransport& nt = swch.notifications();
        sm.add(obs::StreamClass::NotifDelivered, nt.delivered());
        sm.add(obs::StreamClass::NotifDroppedOverflow, nt.dropped_overflow());
        sm.add(obs::StreamClass::NotifDroppedRandom, nt.dropped_random());
        sm.add(obs::StreamClass::NotifBacklog, nt.backlog());
        max_backlog = std::max<std::uint64_t>(max_backlog, nt.max_backlog());
        const snap::ControlPlane& cp = swch.control_plane();
        sm.add(obs::StreamClass::CpInitiations, cp.initiations_sent());
        sm.add(obs::StreamClass::CpReinitiationRounds,
               cp.reinitiation_rounds());
        sm.add(obs::StreamClass::CpReports, cp.reports_sent());
      }
      sm.set(obs::StreamClass::NotifMaxBacklog, max_backlog);
    });
    streaming_.register_views(sim_.metrics(), "fabric");
  }

  // Measurement services.
  ptp_ = std::make_unique<snap::PtpService>(sim_, timing_, master.fork("ptp"));
  // The observer's snapshot config always mirrors the data plane's, and
  // its wire setup mirrors the network-level fast-path switches; the rest
  // (completion timeout, report retention, assembly shards) is taken from
  // the caller's observer options.
  snap::Observer::Options obs_options = options_.observer;
  obs_options.snapshot = options_.snapshot;
  if (options_.wire_fast_path) {
    obs_options.wire_reports = true;
    obs_options.wire = options_.wire;
    obs_options.wire_stats = &wire_stats_;
  }
  observer_ =
      std::make_unique<snap::Observer>(sim_, timing_, std::move(obs_options));
  poller_ = std::make_unique<poll::PollingObserver>(sim_, timing_,
                                                    master.fork("poller"));

  for (std::size_t i = 0; i < switches_.size(); ++i) {
    sw::Switch& swch = switches_[i];
    if (!swch.options().snapshot_enabled) continue;
    snap::ControlPlane& cp = swch.control_plane();
    cp.set_report_endpoint(make_endpoint());
    observer_->register_device(&cp, make_endpoint());
    ptp_->manage(&cp.clock());
    if (options_.start_register_poll) {
      cp.start_register_poll();
    }
  }
  if (options_.start_ptp) ptp_->start();

  if (options_.wire_fast_path) {
    // Fabric-wide wire accounting (satellite of the v2 fast path): byte
    // counters split by frame family plus the fallback/drop diagnostics.
    using obs::MetricKind;
    auto& reg = sim_.metrics();
    const snap::WireStats& ws = wire_stats_;
    reg.register_reader("wire.notification_bytes", MetricKind::Counter,
                        [&ws] { return ws.notification_bytes; });
    reg.register_reader("wire.report_bytes", MetricKind::Counter,
                        [&ws] { return ws.report_bytes; });
    reg.register_reader("wire.keyframe_bytes", MetricKind::Counter,
                        [&ws] { return ws.keyframe_bytes; });
    reg.register_reader("wire.delta_bytes", MetricKind::Counter,
                        [&ws] { return ws.delta_bytes; });
    reg.register_reader("wire.notifications_encoded", MetricKind::Counter,
                        [&ws] { return ws.notifications_encoded; });
    reg.register_reader("wire.reports_encoded", MetricKind::Counter,
                        [&ws] { return ws.reports_encoded; });
    reg.register_reader("wire.ts_fallbacks", MetricKind::Counter,
                        [&ws] { return ws.ts_fallbacks; });
    reg.register_reader("wire.stale_session_drops", MetricKind::Counter,
                        [&ws] { return ws.stale_session_drops; });
    reg.register_reader("wire.decode_failures", MetricKind::Counter,
                        [&ws] { return ws.decode_failures; });
  }
}

Network::~Network() = default;

void Network::mutate_timing_at(sim::SimTime when,
                               std::function<void(sim::TimingModel&)> fn) {
  // One event under a fresh merge key, so same-time ties against it
  // resolve by construction order like every other keyed event.
  auto shared =
      std::make_shared<std::function<void(sim::TimingModel&)>>(std::move(fn));
  make_endpoint().post(when, [shared, this]() { (*shared)(timing_); });
}

void Network::register_all_units_for_polling() {
  for (std::size_t i = 0; i < switches_.size(); ++i) {
    sw::Switch& swch = switches_[i];
    for (net::PortId p = 0; p < swch.options().num_ports; ++p) {
      for (const auto dir : {net::Direction::Ingress, net::Direction::Egress}) {
        const sim::Endpoint read = make_endpoint();
        const sim::Endpoint record = make_endpoint();
        poller_->add_unit(swch.unit(p, dir), read, record);
      }
    }
  }
}

void Network::enable_tracing(std::size_t capacity) {
  obs::Tracer& tr = sim_.tracer();
  tr.enable(capacity);

  // Name every lane so the exported trace reads like the topology.
  for (std::size_t i = 0; i < switches_.size(); ++i) {
    const sw::Switch& swch = switches_[i];
    const net::NodeId id = swch.id();
    tr.name_process(id, swch.name());
    tr.name_track(obs::cpu_track(id), "control-plane");
    tr.name_track(obs::notif_track(id), "notif-channel");
    for (net::PortId p = 0; p < swch.options().num_ports; ++p) {
      const std::string port = "port" + std::to_string(p);
      tr.name_track(obs::unit_track({id, p, net::Direction::Ingress}),
                    port + "/ingress");
      tr.name_track(obs::unit_track({id, p, net::Direction::Egress}),
                    port + "/egress");
    }
  }
  tr.name_process(obs::kObserverPid, "snapshot-observer");
  tr.name_track(obs::observer_track(), "assembly");
  tr.name_process(obs::kPollerPid, "polling-observer");
  tr.name_track(obs::poller_track(), "sweeps");
  tr.name_process(obs::kPacketTapPid, "packet-taps");
  tr.name_track(obs::packet_tap_track(), "links");
}

bool Network::export_chrome_trace(const std::string& path) const {
  return obs::export_chrome_trace(path, sim_.tracer());
}

obs::SnapshotTimeline Network::snapshot_timeline(std::uint64_t id) const {
  return obs::SnapshotTimeline::build(sim_.tracer(), id);
}

const snap::GlobalSnapshot* Network::take_snapshot(sim::Duration lead,
                                                   sim::Duration max_wait) {
  const auto id = observer_->request_snapshot(now() + lead);
  if (!id) return nullptr;
  const sim::SimTime deadline = now() + lead + max_wait;
  while (sim_.now() < deadline) {
    const snap::GlobalSnapshot* snap = observer_->result(*id);
    if (snap != nullptr && snap->complete) return snap;
    if (sim_.pending() == 0) break;
    sim_.step();
  }
  return observer_->result(*id);
}

}  // namespace speedlight::core
