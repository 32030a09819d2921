// speedlight-lint: allow-file(wall-clock) the benchmark measures host time.
#include "workload.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>

#include "check/invariants.hpp"
#include "core/experiment.hpp"
#include "core/network.hpp"
#include "net/packet_pool.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "sim/random.hpp"
#include "sim/sim_context.hpp"
#include "stats.hpp"
#include "workload/basic.hpp"
#include "workload/mixes.hpp"

namespace perfbench {

namespace sl = speedlight;
using sl::sim::msec;

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> kAll = [] {
    std::vector<WorkloadSpec> v;
    {
      // Fig. 11 setting at k=16: snapshot control plane, notification
      // transport, observer assembly and the event queue over a large
      // working set; links and forwarding idle.
      WorkloadSpec w;
      w.name = "rounds_k16";
      w.k = 16;
      w.traffic = Traffic::None;
      w.period = msec(25);
      w.lead = msec(1);
      w.periods_per_second = 20;
      v.push_back(w);
    }
    {
      // Bare forwarding under Poisson all-to-all small packets; rare
      // rounds without channel state.
      WorkloadSpec w;
      w.name = "traffic_k8";
      w.k = 8;
      w.traffic = Traffic::Poisson;
      w.period = msec(20);
      w.lead = msec(1);
      w.periods_per_second = 28;
      w.pps_per_host = 4'500;
      w.packet_size = 64;
      v.push_back(w);
    }
    {
      // Synchronized incast storms that overflow victim access ports,
      // channel-state rounds at a high cadence, values read back.
      WorkloadSpec w;
      w.name = "incast_k8";
      w.k = 8;
      w.traffic = Traffic::Incast;
      w.channel_state = true;
      w.period = msec(25);
      w.lead = msec(1);
      w.periods_per_second = 24;
      w.packet_size = 1000;
      w.victims = 2;
      w.sources_per_victim = 16;
      w.burst_packets = 360;
      w.read_values = true;
      v.push_back(w);
    }
    return v;
  }();
  return kAll;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const auto& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

int repeats_for(const WorkloadSpec& w, int seconds) {
  constexpr int kMinRepeats = 3;
  const auto n = static_cast<int>(
      std::llround(w.periods_per_second * std::max(seconds, 1) /
                   static_cast<double>(kPassPeriods)));
  return std::max(n, kMinRepeats);
}

std::vector<std::pair<std::string, std::string>> describe(
    const WorkloadSpec& w, int repeats) {
  auto str = [](auto v) {
    std::ostringstream os;
    os << v;
    return os.str();
  };
  std::vector<std::pair<std::string, std::string>> p = {
      {"topology", "fat-tree k=" + str(w.k)},
      {"traffic", w.traffic == Traffic::None      ? "none"
                  : w.traffic == Traffic::Poisson ? "poisson all-to-all"
                                                  : "incast storms"},
      {"channel_state", w.channel_state ? "true" : "false"},
      {"period_ms", str(sl::sim::to_msec(w.period))},
      {"lead_ms", str(sl::sim::to_msec(w.lead))},
      {"timed_periods", str(kPassPeriods)},
      {"untraced_repeats", str(repeats)},
      {"engine", "serial, 1 simulation thread"},
  };
  if (w.traffic == Traffic::Poisson) {
    p.emplace_back("pps_per_host", str(w.pps_per_host));
    p.emplace_back("packet_bytes", str(w.packet_size));
  }
  if (w.traffic == Traffic::Incast) {
    p.emplace_back("victims", str(w.victims));
    p.emplace_back("sources_per_victim", str(w.sources_per_victim));
    p.emplace_back("burst_packets", str(w.burst_packets));
    p.emplace_back("packet_bytes", str(w.packet_size));
  }
  return p;
}

Counters Counters::delta(const Counters& a, const Counters& b) {
  Counters d = a;
  auto sub = [](std::uint64_t& x, std::uint64_t y) { x -= y; };
  sub(d.sim_executed, b.sim_executed);
  sub(d.sim_scheduled, b.sim_scheduled);
  sub(d.sim_cancelled, b.sim_cancelled);
  sub(d.link_packets, b.link_packets);
  sub(d.link_drops, b.link_drops);
  sub(d.host_sent, b.host_sent);
  sub(d.host_received, b.host_received);
  sub(d.pool_allocated, b.pool_allocated);
  sub(d.pool_recycled, b.pool_recycled);
  sub(d.queue_drops, b.queue_drops);
  sub(d.forwarding_drops, b.forwarding_drops);
  sub(d.ttl_drops, b.ttl_drops);
  sub(d.unit_ingress_packets, b.unit_ingress_packets);
  sub(d.unit_egress_packets, b.unit_egress_packets);
  sub(d.captures, b.captures);
  sub(d.notifications, b.notifications);
  sub(d.initiations, b.initiations);
  sub(d.reinitiations, b.reinitiations);
  sub(d.reports, b.reports);
  sub(d.notif_delivered, b.notif_delivered);
  sub(d.notif_dropped, b.notif_dropped);
  sub(d.wire_notification_bytes, b.wire_notification_bytes);
  sub(d.wire_report_bytes, b.wire_report_bytes);
  sub(d.wire_notifications, b.wire_notifications);
  sub(d.wire_reports, b.wire_reports);
  sub(d.wire_decode_failures, b.wire_decode_failures);
  sub(d.wire_ts_fallbacks, b.wire_ts_fallbacks);
  return d;
}

std::map<std::string, std::uint64_t> Counters::named() const {
  return {
      {"sim.executed", sim_executed},
      {"sim.scheduled", sim_scheduled},
      {"sim.cancelled", sim_cancelled},
      {"net.link_packets", link_packets},
      {"net.link_drops", link_drops},
      {"net.host_sent", host_sent},
      {"net.host_received", host_received},
      {"net.pool_allocated", pool_allocated},
      {"net.pool_recycled", pool_recycled},
      {"switchlib.queue_drops", queue_drops},
      {"switchlib.forwarding_drops", forwarding_drops},
      {"switchlib.ttl_drops", ttl_drops},
      {"switchlib.unit_ingress_packets", unit_ingress_packets},
      {"switchlib.unit_egress_packets", unit_egress_packets},
      {"switchlib.materialized_ports", materialized_ports},
      {"snapshot.dataplane.captures", captures},
      {"snapshot.dataplane.notifications", notifications},
      {"snapshot.control_plane.initiations", initiations},
      {"snapshot.control_plane.reinitiations", reinitiations},
      {"snapshot.control_plane.reports", reports},
      {"snapshot.notif.delivered", notif_delivered},
      {"snapshot.notif.dropped", notif_dropped},
      {"snapshot.notif.max_backlog", notif_max_backlog},
      {"snapshot.wire.notification_bytes", wire_notification_bytes},
      {"snapshot.wire.report_bytes", wire_report_bytes},
      {"snapshot.wire.notifications", wire_notifications},
      {"snapshot.wire.reports", wire_reports},
      {"snapshot.wire.decode_failures", wire_decode_failures},
      {"snapshot.wire.ts_fallbacks", wire_ts_fallbacks},
  };
}

namespace {

Counters collect(sl::core::Network& net) {
  Counters c;
  const auto& st = net.simulator().stats();
  c.sim_executed = st.executed;
  c.sim_scheduled = st.scheduled;
  c.sim_cancelled = st.cancelled;
  auto add_link = [&c](const sl::net::Link& l) {
    c.link_packets += l.packets_sent();
    c.link_drops += l.packets_dropped();
  };
  for (std::size_t h = 0; h < net.num_hosts(); ++h) {
    add_link(net.host_uplink(h));
    add_link(net.host_downlink(h));
    c.host_sent += net.host(h).packets_sent();
    c.host_received += net.host(h).packets_received();
  }
  for (std::size_t t = 0; t < net.spec().trunks.size(); ++t) {
    add_link(net.trunk_link(t, true));
    add_link(net.trunk_link(t, false));
  }
  const auto& pool = sl::net::PacketPool::instance();
  c.pool_allocated = pool.allocated();
  c.pool_recycled = pool.recycled();
  for (std::size_t s = 0; s < net.num_switches(); ++s) {
    auto& sw = net.switch_at(s);
    c.queue_drops += sw.queue_drops();
    c.forwarding_drops += sw.forwarding_drops();
    c.ttl_drops += sw.ttl_drops();
    const auto ports = net.spec().switches[s].num_ports;
    for (sl::net::PortId p = 0; p < ports; ++p) {
      c.unit_ingress_packets +=
          sw.counters(p, sl::net::Direction::Ingress).packets();
      c.unit_egress_packets +=
          sw.counters(p, sl::net::Direction::Egress).packets();
    }
    c.captures += sw.snapshot_captures();
    c.notifications += sw.snapshot_notifications();
    auto& cp = sw.control_plane();
    c.initiations += cp.initiations_sent();
    c.reinitiations += cp.reinitiation_rounds();
    c.reports += cp.reports_sent();
    auto& notif = sw.notifications();
    c.notif_delivered += notif.delivered();
    c.notif_dropped += notif.dropped_overflow() + notif.dropped_random();
    c.notif_max_backlog = std::max<std::uint64_t>(c.notif_max_backlog,
                                                  notif.max_backlog());
  }
  const auto wire = net.wire_stats_total();
  c.wire_notification_bytes = wire.notification_bytes;
  c.wire_report_bytes = wire.report_bytes;
  c.wire_notifications = wire.notifications_encoded;
  c.wire_reports = wire.reports_encoded;
  c.wire_decode_failures = wire.decode_failures;
  c.wire_ts_fallbacks = wire.ts_fallbacks;
  c.materialized_ports = net.materialized_ports();
  return c;
}

std::size_t pod_of_host(std::size_t h, std::size_t k) {
  return h / ((k / 2) * (k / 2));
}

/// Incast victims and their sources, drawn from the seed: victims in
/// distinct pods, sources in other pods, no host used twice.
std::vector<std::pair<std::size_t, std::vector<std::size_t>>> incast_plan(
    const WorkloadSpec& w, std::size_t hosts, sl::sim::Rng rng) {
  std::vector<std::size_t> order(hosts);
  std::iota(order.begin(), order.end(), 0);
  for (std::size_t i = hosts - 1; i > 0; --i) {
    std::swap(order[i], order[rng.uniform_int(0, i)]);
  }
  std::vector<bool> used(hosts, false);
  std::vector<std::pair<std::size_t, std::vector<std::size_t>>> plan;
  std::vector<std::size_t> victim_pods;
  for (const std::size_t h : order) {
    if (plan.size() == w.victims) break;
    const std::size_t pod = pod_of_host(h, w.k);
    if (std::find(victim_pods.begin(), victim_pods.end(), pod) !=
        victim_pods.end()) {
      continue;
    }
    victim_pods.push_back(pod);
    used[h] = true;
    plan.push_back({h, {}});
  }
  for (auto& [victim, sources] : plan) {
    for (const std::size_t h : order) {
      if (sources.size() == w.sources_per_victim) break;
      if (used[h] || pod_of_host(h, w.k) == pod_of_host(victim, w.k)) continue;
      used[h] = true;
      sources.push_back(h);
    }
  }
  return plan;
}

double elapsed_s(std::int64_t from_ns) {
  return static_cast<double>(host_now_ns() - from_ns) / 1e9;
}

}  // namespace

struct Pass::Impl {
  Impl(const WorkloadSpec& spec, const PassOptions& options)
      : w(spec), opts(options), untraced(false),
        spans(options.spans != nullptr ? *options.spans : untraced) {}
  ~Impl() {
    // Packets still in flight return to this pass's pool.
    sl::sim::SimContext::Scoped scoped(ctx);
    gens.clear();
    net.reset();
  }
  Impl(const Impl&) = delete;
  Impl& operator=(const Impl&) = delete;

  void setup();
  void period();
  void read_completed();
  void classify(const sl::snap::GlobalSnapshot& r);
  void finish();

  const WorkloadSpec& w;
  const PassOptions opts;
  SpanRecorder untraced;
  SpanRecorder& spans;
  /// A private simulation context: the packet pool (and its counters) lives
  /// and dies with this pass.
  sl::sim::SimContext ctx;
  /// Declared before the network: notification channels keep a pointer to
  /// the queue-delay histogram registered here (queue_delay_probe).
  sl::obs::MetricsRegistry probe_registry;
  std::unique_ptr<sl::core::Network> net;
  std::vector<std::unique_ptr<sl::wl::Generator>> gens;
  std::vector<sl::net::UnitId> watched;  ///< Victim access ports (incast).

  PassResult out;
  std::optional<sl::snap::VirtualSid> warm_id;
  sl::core::SnapshotCampaign campaign;
  std::vector<sl::snap::VirtualSid> pending;  ///< Requested, not yet read.
  const sl::snap::GlobalSnapshot* prev_read = nullptr;
  std::vector<double> row;
  std::uint64_t read_sink = 0;  ///< Folds every value read back.
  std::uint64_t reports_seen = 0;
  std::uint64_t rounds_read = 0;
  long double pending_sum = 0;
  Counters before;
  sl::sim::SimTime period_start = 0;
};

void Pass::Impl::setup() {
  const std::int64_t setup_start = host_now_ns();
  const std::int64_t setup_span = spans.begin("setup");

  std::int64_t t = host_now_ns();
  sl::net::TopologySpec topo;
  {
    ScopedSpan s(spans, "net.make_fat_tree");
    topo = sl::net::make_fat_tree(w.k);
  }
  out.topology_s = elapsed_s(t);

  sl::core::NetworkOptions options;
  options.seed = opts.seed;
  options.snapshot.channel_state = w.channel_state;
  t = host_now_ns();
  {
    ScopedSpan s(spans, "core.Network");
    net = std::make_unique<sl::core::Network>(topo, options);
  }
  out.construct_s = elapsed_s(t);
  out.devices = net->num_switches();

  // Workload generators.
  t = host_now_ns();
  {
    ScopedSpan s(spans, "workload.generators");
    sl::sim::Rng rng(opts.seed * 0x9E3779B97F4A7C15ULL + 0x5eed);
    const std::size_t hosts = net->num_hosts();
    if (w.traffic == Traffic::Poisson) {
      std::vector<sl::net::NodeId> ids;
      for (std::size_t h = 0; h < hosts; ++h) ids.push_back(net->host_id(h));
      for (std::size_t h = 0; h < hosts; ++h) {
        std::vector<sl::net::NodeId> dsts;
        for (std::size_t d = 0; d < hosts; ++d) {
          if (d != h) dsts.push_back(ids[d]);
        }
        gens.push_back(std::make_unique<sl::wl::PoissonGenerator>(
            net->simulator(), net->host(h), std::move(dsts), w.pps_per_host,
            w.packet_size, rng.fork(h)));
        gens.back()->start(net->now());
      }
    } else if (w.traffic == Traffic::Incast) {
      // Victims take turns: one storm per period, each victim hit every
      // `victims` periods. Storms start half a lead before a round fires,
      // so rounds capture full victim queues.
      sl::wl::IncastGenerator::Options io;
      io.period = static_cast<sl::sim::Duration>(w.victims) * w.period;
      io.burst_packets = w.burst_packets;
      io.packet_size = w.packet_size;
      sl::sim::SimTime start = net->now() + w.lead / 2;
      for (const auto& [victim, sources] : incast_plan(w, hosts, rng.fork(1))) {
        const auto& hs = net->spec().hosts[victim];
        watched.push_back({static_cast<sl::net::NodeId>(hs.attached_switch),
                           hs.switch_port, sl::net::Direction::Egress});
        for (const std::size_t src : sources) {
          gens.push_back(std::make_unique<sl::wl::IncastGenerator>(
              net->simulator(), net->host(src), net->host_id(victim), io,
              rng.fork(1000 + src)));
          gens.back()->start(start);
        }
        start += w.period;
      }
    }
  }
  out.workload_setup_s = elapsed_s(t);

  if (opts.queue_delay_probe) {
    // Queue-delay histogram of every switch's notification channel, shared
    // (get-or-create by name) across the fabric.
    for (std::size_t s = 0; s < net->num_switches(); ++s) {
      net->switch_at(s).notifications().register_metrics(probe_registry,
                                                         "notif");
    }
  }

  // Warm-up round: lazy port materialization, pools and queues fill.
  t = host_now_ns();
  {
    ScopedSpan s(spans, "core.warmup_round");
    warm_id = net->observer().request_snapshot(net->now() + w.lead);
    // Whole periods until the round has completed (or timed out).
    const sl::sim::SimTime give_up =
        net->now() + net->options().observer.completion_timeout + w.period;
    do {
      net->run_until(net->now() + w.period);
    } while (warm_id && net->now() < give_up &&
             !net->observer().result(*warm_id)->complete);
  }
  out.warmup_s = elapsed_s(t);
  spans.end(setup_span);
  out.setup_s = elapsed_s(setup_start);

  const auto* warm = warm_id ? net->observer().result(*warm_id) : nullptr;
  if (warm == nullptr || !warm->complete || !warm->excluded_devices.empty()) {
    out.violations.push_back("warm-up round did not complete cleanly");
  }
  before = collect(*net);
  period_start = net->now();
}

void Pass::Impl::classify(const sl::snap::GlobalSnapshot& r) {
  ++rounds_read;
  reports_seen += r.received_total;
  out.excluded_devices += r.excluded_devices.size();
  if (!r.excluded_devices.empty()) {
    ++out.excluded;
  } else if (!r.all_consistent()) {
    ++out.inconsistent;
  } else {
    ++out.ok;
  }
  out.sync_spread_us.push_back(sl::sim::to_usec(r.advance_span()));
  out.collect_ms.push_back(sl::sim::to_msec(r.completed_at - r.scheduled_at));
}

void Pass::Impl::read_completed() {
  std::size_t keep = 0;
  for (const auto id : pending) {
    const auto* r = net->observer().result(id);
    if (r == nullptr || !r->complete) {
      pending[keep++] = id;
      continue;
    }
    classify(*r);
    read_sink += r->total_value(true);
    if (w.read_values) {
      if (sl::core::extract_values(*r, watched, row)) {
        for (const double v : row) read_sink += static_cast<std::uint64_t>(v);
      }
      if (prev_read != nullptr) {
        for (const auto& d : sl::core::snapshot_deltas(*prev_read, *r)) {
          read_sink += d.delta;
        }
      }
      prev_read = r;
    }
  }
  pending.resize(keep);
}

void Pass::Impl::period() {
  const std::uint64_t round = out.period_ns.size() + 1;
  const std::int64_t p0 = host_now_ns();
  const std::int64_t period_span = spans.begin("period", round);
  {
    ScopedSpan s(spans, "snapshot.observer.request_snapshot", round);
    ++out.requested;
    if (const auto id = net->observer().request_snapshot(period_start + w.lead)) {
      campaign.ids.push_back(*id);
      pending.push_back(*id);
    } else {
      ++campaign.skipped;
      ++out.refused;
    }
  }
  period_start += w.period;
  {
    ScopedSpan s(spans, "core.run_until", round);
    net->run_until(period_start);
  }
  {
    ScopedSpan s(spans, "snapshot.observer.read", round);
    read_completed();
  }
  spans.end(period_span);
  out.period_ns.push_back(static_cast<double>(host_now_ns() - p0));
  const std::size_t depth = net->pending();
  pending_sum += depth;
  out.pending_max = std::max<std::uint64_t>(out.pending_max, depth);
}

void Pass::Impl::finish() {
  const std::size_t periods = out.period_ns.size();
  out.timed = Counters::delta(collect(*net), before);
  out.timed_s = std::accumulate(out.period_ns.begin(), out.period_ns.end(),
                                0.0) / 1e9;
  out.sim_ms = sl::sim::to_msec(static_cast<sl::sim::Duration>(periods) *
                                w.period);
  out.pending_mean =
      periods == 0 ? 0
                   : static_cast<double>(pending_sum /
                                         static_cast<long double>(periods));
  out.packets_offered = out.timed.host_sent;
  out.packets_delivered = out.timed.host_received;
  out.messages_delivered =
      out.timed.host_received + out.timed.notif_delivered + out.timed.reports;

  // --- Drain: sources stop, every round completes or times out, queues
  // empty. Not timed.
  for (auto& g : gens) g->stop();
  net->run_until(net->now() + net->options().observer.completion_timeout +
                 msec(20));
  read_completed();
  out.incomplete = pending.size();
  out.total = collect(*net);
  out.reports_per_round =
      rounds_read == 0 ? 0
                       : static_cast<double>(reports_seen) /
                             static_cast<double>(rounds_read);

  // --- Output checks ----------------------------------------------------
  const Counters& c = out.total;
  // Packet conservation over the whole pass. Data packets counted at
  // ingress units but never at an egress unit died inside a switch.
  const std::uint64_t in_switch_losses =
      c.unit_ingress_packets - c.unit_egress_packets;
  if (c.unit_ingress_packets < c.unit_egress_packets ||
      c.host_sent != c.host_received + c.link_drops + in_switch_losses) {
    std::ostringstream os;
    os << "packet conservation: sent " << c.host_sent << " != received "
       << c.host_received << " + link drops " << c.link_drops
       << " + in-switch losses " << in_switch_losses;
    out.violations.push_back(os.str());
  }
  // Every in-switch loss is a counted queue, forwarding or TTL drop. Queue
  // drops also count dropped liveness probes, which exist only with
  // channel state; without it the equation is exact.
  const std::uint64_t counted_drops =
      c.queue_drops + c.forwarding_drops + c.ttl_drops;
  if (in_switch_losses > counted_drops ||
      (!w.channel_state && in_switch_losses != counted_drops)) {
    std::ostringstream os;
    os << "drop accounting: " << in_switch_losses
       << " in-switch losses vs queue+forwarding+TTL drops " << counted_drops;
    out.violations.push_back(os.str());
  }
  // Failure accounting behind snapshot_ok_ratio.
  if (out.ok + out.refused + out.incomplete + out.excluded +
          out.inconsistent !=
      out.requested) {
    out.violations.push_back("round accounting does not add up");
  }
  // Consistency invariants over the retained reports (once per seed: the
  // caller proves other passes identical through their digests).
  if (opts.check_invariants) {
    sl::check::CheckOptions co;
    const auto& timing = net->options().timing;
    co.sync_span_bound = sl::check::sync_span_bound(
        timing.ptp_residual_stddev, timing.clock_drift_ppm, net->now());
    co.expect_complete = true;
    sl::check::ConsistencyChecker checker(*net, co);
    for (const auto& v : checker.check_all(campaign)) {
      if (out.violations.size() < 20) {
        std::ostringstream os;
        os << v.invariant << " (round " << v.snapshot << "): " << v.detail;
        out.violations.push_back(os.str());
      }
    }
    out.checked_rounds = campaign.results(*net).size();
  }

  // Channel-state share of unit traversals, from the reports themselves.
  if (w.channel_state) {
    std::uint64_t booked = 0;
    for (const auto* r : campaign.results(*net)) {
      booked += r->total_value(true) - r->total_value(false);
    }
    const std::uint64_t traversals =
        c.unit_ingress_packets + c.unit_egress_packets;
    out.inflight_share =
        traversals == 0 ? 0
                        : static_cast<double>(booked) /
                              static_cast<double>(traversals);
  }

  if (opts.queue_delay_probe) {
    const auto& h = probe_registry.histogram("notif.queue_delay_ns");
    out.notif_queue_delay_p50_us = static_cast<double>(h.percentile(0.5)) / 1e3;
    out.notif_queue_delay_p99_us = static_cast<double>(h.percentile(0.99)) / 1e3;
  }

  // Digest of the simulated outputs: every round in id order, then the
  // fabric's counters.
  Digest d;
  d.add(w.name);
  for (const auto id : campaign.ids) {
    const auto* r = net->observer().result(id);
    if (r == nullptr) {
      d.add(0);
      continue;
    }
    d.add(r->id);
    d.add(static_cast<std::uint64_t>(r->scheduled_at));
    d.add(static_cast<std::uint64_t>(r->completed_at));
    d.add(r->complete ? 1 : 0);
    d.add(r->received_total);
    d.add(r->consistent_count());
    d.add(r->excluded_devices.size());
    d.add(static_cast<std::uint64_t>(r->advance_span()));
    d.add(static_cast<std::uint64_t>(r->finalize_span()));
    d.add(r->total_value(true));
  }
  for (const auto& [name, v] : out.timed.named()) {
    // Pool counters describe host memory reuse, not simulated behaviour.
    if (name.rfind("net.pool", 0) == 0) continue;
    d.add(name);
    d.add(v);
  }
  d.add(read_sink);
  out.digest = d.value();
}

Pass::Pass(const WorkloadSpec& w, const PassOptions& opts)
    : impl_(std::make_unique<Impl>(w, opts)) {
  sl::sim::SimContext::Scoped scoped(impl_->ctx);
  impl_->setup();
}

Pass::~Pass() = default;

void Pass::run_period() {
  sl::sim::SimContext::Scoped scoped(impl_->ctx);
  impl_->period();
}

const PassResult& Pass::setup_result() const { return impl_->out; }

PassResult Pass::finish() {
  sl::sim::SimContext::Scoped scoped(impl_->ctx);
  impl_->finish();
  return impl_->out;
}

PassResult run_pass(const WorkloadSpec& w, const PassOptions& opts) {
  Pass pass(w, opts);
  if (opts.periods == 0) return pass.setup_result();
  for (std::size_t i = 0; i < opts.periods; ++i) pass.run_period();
  return pass.finish();
}

}  // namespace perfbench
