// The repository benchmark: host time per snapshot period and per simulated
// message on three fat-tree workloads, a per-layer ledger from a traced
// run, and correctness checks on every simulated output.
//
// speedlight-lint: allow-file(wall-clock) the benchmark measures host time.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--spans PATH]
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// metrics (a traced pass plus an untraced twin, replay drivers, and the
// determinism self-check). The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "manifest.hpp"
#include "obs/process_stats.hpp"
#include "replay.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "stats/summary.hpp"
#include "workload.hpp"

namespace {

using namespace perfbench;
using speedlight::stats::quantile;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  int trace = 0;
  std::string spans_path;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--spans PATH]\nworkloads:";
  for (const auto& w : workloads()) std::cerr << " " << w.name;
  std::cerr << "\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(flag + " needs a value");
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = v;
        have_workload = true;
      } else if (flag == "--seed") {
        a.seed = std::stoull(v);
      } else if (flag == "--seconds") {
        a.seconds = std::stoi(v);
      } else if (flag == "--trace") {
        a.trace = std::stoi(v);
      } else if (flag == "--spans") {
        a.spans_path = v;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      usage("bad value for " + flag + ": " + v);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (a.seconds < 1 || a.trace < 0 || a.trace > 1) usage("bad --seconds/--trace");
  return a;
}

/// Metrics in print order, with units.
class MetricSet {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    items_.push_back({name, value, unit});
  }
  void print_table(std::ostream& os) const {
    for (const auto& m : items_) {
      os << "  " << std::left << std::setw(42) << m.name << " "
         << std::setprecision(10) << m.value << " " << m.unit << "\n";
    }
  }
  void write_json(std::ostream& os) const {
    os << "{";
    for (std::size_t i = 0; i < items_.size(); ++i) {
      if (i != 0) os << ", ";
      os << "\"" << items_[i].name << "\": {\"value\": "
         << std::setprecision(17) << items_[i].value << ", \"unit\": \""
         << items_[i].unit << "\"}";
    }
    os << "}";
  }

 private:
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items_;
};

double ms(double ns) { return ns / 1e6; }

/// Set-up-only passes before each timed pass of an untraced run.
constexpr int kSetupsPerRepeat = 4;

void print_violations(const char* pass, const PassResult& r) {
  for (const auto& v : r.violations) {
    std::cout << "VIOLATION [" << pass << "] " << v << "\n";
  }
}

void print_pass_summary(const char* label, const PassResult& r) {
  std::cout << label << ": " << r.period_ns.size() << " periods, "
            << r.requested << " rounds requested, " << r.ok << " ok, "
            << r.refused << " refused, " << r.incomplete << " incomplete, "
            << r.excluded << " with excluded devices, " << r.inconsistent
            << " inconsistent; " << r.checked_rounds
            << " rounds checked; " << r.timed.sim_executed << " events, "
            << r.timed.host_received << " packets delivered, "
            << r.timed.queue_drops << " queue drops; sim_digest " << r.digest
            << "\n";
}

/// End-to-end metrics, from untraced passes only. The pass is run
/// `repeats` times, one after another; the simulation is deterministic
/// (every repeat must give the same sim_digest), so each period is the same
/// work in every repeat, and its host time is taken as the least of its
/// repeats: interference from other processes on the machine only ever adds
/// time. Set-up-only passes between the repeats spread the set-up samples
/// over the whole run.
std::string run_untraced(const Args& args, const WorkloadSpec& w,
                         int repeats) {
  std::vector<double> setups;
  std::vector<PassResult> passes;
  for (int i = 0; i < repeats; ++i) {
    for (int s = 0; s < kSetupsPerRepeat; ++s) {
      setups.push_back(run_pass(w, {args.seed, 0, nullptr, false}).setup_s);
    }
    passes.push_back(run_pass(w, {args.seed, kPassPeriods, nullptr, i == 0}));
    setups.push_back(passes.back().setup_s);
  }
  const PassResult& r = passes.front();
  print_pass_summary("untraced pass", r);
  bool correct = true;
  for (const auto& p : passes) {
    print_violations("untraced", p);
    correct = correct && p.violations.empty();
    if (p.digest != r.digest || p.timed.named() != r.timed.named()) {
      std::cout << "VIOLATION repeats of one seed disagree (sim_digest "
                << r.digest << " vs " << p.digest << ")\n";
      correct = false;
    }
  }
  std::vector<double> period_ns = r.period_ns;
  for (const auto& p : passes) {
    for (std::size_t i = 0; i < period_ns.size(); ++i) {
      period_ns[i] = std::min(period_ns[i], p.period_ns[i]);
    }
  }
  double timed_s = 0;
  for (const double ns : period_ns) timed_s += ns / 1e9;

  const std::size_t n = period_ns.size();
  if (!percentile_supported(n, 0.95)) {
    std::cout << "VIOLATION " << n << " periods cannot support a p95\n";
    correct = false;
  }
  std::cout << "period samples: " << n << " (least of " << repeats
            << " repeats each; highest percentile with ten beyond it: p"
            << highest_percentile(n) << ")\n";
  std::cout << "per-repeat period_ms.p50:";
  for (const auto& p : passes) std::cout << " " << ms(quantile(p.period_ns, 0.5));
  std::cout << "\n";
  std::cout << "setup samples (s):";
  for (const double s : setups) std::cout << " " << s;
  std::cout << "\n";

  // Host time per period and the rates it gives move with the machine's
  // speed by more than a 0.25 bound between runs (README.md, "What the
  // result leaves out"), so they are printed, not reported.
  MetricSet host;
  host.add("period_ms.p50", ms(quantile(period_ns, 0.5)), "ms");
  host.add("period_ms.p95", ms(quantile(period_ns, 0.95)), "ms");
  host.add("sim_ms_per_s", r.sim_ms / timed_s, "ms/s");
  host.add("sim_msgs_per_s",
           static_cast<double>(r.messages_delivered) / timed_s, "1/s");
  std::cout << "host time (" << w.name << ", seed " << args.seed
            << "; printed only):\n";
  host.print_table(std::cout);

  MetricSet m;
  m.add("setup_s", quantile(setups, 0.5), "s");
  m.add("peak_rss_mb", static_cast<double>(speedlight::obs::peak_rss_kb()) / 1024.0,
        "MB");
  m.add("snapshot_ok_ratio",
        r.requested == 0 ? 0.0
                         : static_cast<double>(r.ok) /
                               static_cast<double>(r.requested),
        "ratio");
  m.add("sync_spread_us.p50", quantile(r.sync_spread_us, 0.5), "us");
  m.add("collect_ms.p50", quantile(r.collect_ms, 0.5), "ms");
  std::cout << "end-to-end metrics (" << w.name << ", seed " << args.seed
            << "):\n";
  m.print_table(std::cout);

  std::ostringstream line;
  line << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << r.requested
       << ", \"failed\": " << (r.requested - r.ok) << ", \"metrics\": ";
  m.write_json(line);
  line << "}";
  return line.str();
}

/// Per-layer metrics: traced pass, untraced twin, replays, self-checks.
std::string run_traced(const Args& args, const WorkloadSpec& w) {
  const std::size_t periods = kPassPeriods;
  bool correct = true;
  auto fail = [&correct](const std::string& why) {
    std::cout << "VIOLATION " << why << "\n";
    correct = false;
  };

  // The untraced twin and the traced pass run interleaved, period by
  // period, alternating which goes first, so both see the same machine
  // conditions and the trace overhead is a like-for-like difference.
  SpanRecorder spans(true);
  const std::int64_t root = spans.begin("traced_run");
  Pass twin(w, {args.seed, periods, nullptr, true, true});
  Pass traced(w, {args.seed, periods, &spans, false, true});
  for (std::size_t i = 0; i < periods; ++i) {
    if (i % 2 == 0) {
      twin.run_period();
      traced.run_period();
    } else {
      traced.run_period();
      twin.run_period();
    }
  }
  const PassResult a = twin.finish();
  const PassResult b = traced.finish();
  spans.end(root);
  print_pass_summary("untraced twin", a);
  print_violations("untraced twin", a);
  print_pass_summary("traced pass", b);
  print_violations("traced", b);
  if (!a.violations.empty() || !b.violations.empty()) fail("output checks");

  // Determinism: same seed twice gives the same digest and counts; a
  // different seed gives a different digest.
  if (a.digest != b.digest) fail("sim_digest differs between same-seed passes");
  if (a.notif_queue_delay_p50_us != b.notif_queue_delay_p50_us ||
      a.notif_queue_delay_p99_us != b.notif_queue_delay_p99_us) {
    fail("notification queue delays differ between same-seed passes");
  }
  if (a.timed.named() != b.timed.named()) {
    for (const auto& [name, v] : a.timed.named()) {
      if (b.timed.named().at(name) != v) {
        fail("count " + name + " differs between same-seed passes");
      }
    }
  }
  {
    constexpr std::size_t kShort = 5;
    const std::uint64_t d1 =
        run_pass(w, {args.seed, kShort, nullptr, false}).digest;
    const std::uint64_t d2 =
        run_pass(w, {args.seed + 1, kShort, nullptr, false}).digest;
    std::cout << "determinism: same-seed digests " << a.digest << " / "
              << b.digest << "; short-run digests seed " << args.seed << " "
              << d1 << ", seed " << args.seed + 1 << " " << d2 << "\n";
    if (d1 == d2) fail("different seeds gave the same sim_digest");
  }

  // Replay drivers, shaped like the traced pass.
  const Counters& c = b.timed;
  ReplayShape shape;
  shape.pending_depth = b.pending_mean;
  shape.mean_delay_ns =
      c.sim_executed == 0
          ? 1000.0
          : b.pending_mean * b.sim_ms * 1e6 / static_cast<double>(c.sim_executed);
  shape.packet_size = w.packet_size;
  shape.ports = static_cast<std::uint16_t>(w.k);
  shape.channel_state = w.channel_state;
  const std::uint64_t traversals = c.unit_ingress_packets + c.unit_egress_packets;
  const std::uint64_t dp_initiations = 2 * c.initiations;
  shape.advance_share =
      traversals + dp_initiations == 0
          ? 0.01
          : static_cast<double>(c.captures) /
                static_cast<double>(traversals + dp_initiations);
  shape.inflight_share = a.inflight_share;
  shape.units_per_device = 2 * w.k;
  shape.devices = b.devices;
  shape.k = w.k;

  std::vector<ReplayResult> replays;
  auto run_replay = [&](const char* span_name, auto fn) -> const ReplayResult& {
    ScopedSpan s(spans, span_name);
    replays.push_back(fn());
    return replays.back();
  };
  const ReplayResult sim = run_replay("replay.sim", [&] {
    return replay_sim(shape.pending_depth, shape.mean_delay_ns, 300'000);
  });
  const ReplayResult link = run_replay(
      "replay.net.link", [&] { return replay_link(shape, 200'000); });
  const ReplayResult dp = run_replay("replay.snapshot.dataplane", [&] {
    return replay_dataplane_packets(shape, 500'000);
  });
  const ReplayResult dpi = run_replay("replay.snapshot.dataplane.initiation", [&] {
    return replay_dataplane_initiations(shape, 200'000);
  });
  const ReplayResult swr = run_replay("replay.switchlib", [&] {
    return replay_switch(shape, 40'000, dp.ns_per_op, link.ns_per_op);
  });
  const ReplayResult notif = run_replay("replay.snapshot.notif", [&] {
    return replay_device_rounds(shape, std::max<std::uint64_t>(
                                           4, 40'000 / (w.k * shape.devices)));
  });
  const ReplayResult wn = run_replay("replay.snapshot.wire.notification", [&] {
    return replay_wire_notifications(shape, 300'000);
  });
  const ReplayResult wr = run_replay("replay.snapshot.wire.report", [&] {
    return replay_wire_reports(shape, 200'000);
  });
  const ReplayResult fold = run_replay("replay.snapshot.observer.fold", [&] {
    return replay_observer_fold(shape, 500'000);
  });
  for (const auto& r : replays) {
    for (const auto& [what, cnt] : r.count_checks) {
      if (cnt.first != cnt.second) {
        std::ostringstream os;
        os << "replay " << r.name << ": " << what << " driver " << cnt.first
           << " vs counter " << cnt.second;
        fail(os.str());
      }
    }
  }

  // Ledger: replay ns/op x the traced pass's operation counts, against the
  // host time spent inside run_until.
  double run_ns = 0;
  for (const double d : spans.durations("core.run_until")) run_ns += d;
  struct Line {
    const char* layer;
    double ops;
    double ns_per_op;
  };
  // Events the layer replays already include (their events per op, the
  // switch's net of the nested link arrival) are not charged again.
  const std::uint64_t notif_pushes = c.notif_delivered + c.notif_dropped;
  auto events_per_op = [](const ReplayResult& r) {
    return r.ops == 0 ? 0.0
                      : static_cast<double>(r.events) / static_cast<double>(r.ops);
  };
  const double covered =
      static_cast<double>(c.link_packets) * events_per_op(link) +
      static_cast<double>(c.unit_ingress_packets) *
          std::max(events_per_op(swr) - events_per_op(link), 0.0) +
      static_cast<double>(notif_pushes) * events_per_op(notif);
  const double other_events =
      std::max(static_cast<double>(c.sim_executed) - covered, 0.0);
  const std::vector<Line> ledger = {
      {"sim (other events)", other_events, sim.ns_per_op},
      {"net.link (packets)", static_cast<double>(c.link_packets), link.ns_per_op},
      {"switchlib (packets in)", static_cast<double>(c.unit_ingress_packets),
       swr.ns_per_op},
      {"snapshot.dataplane (traversals)", static_cast<double>(traversals),
       dp.ns_per_op},
      // Device rounds include their dataplane initiations.
      {"snapshot device rounds (notifications)",
       static_cast<double>(notif_pushes), notif.ns_per_op},
      {"snapshot.wire (notifications)", static_cast<double>(c.wire_notifications),
       wn.ns_per_op},
      {"snapshot.wire (reports)", static_cast<double>(c.wire_reports), wr.ns_per_op},
      {"snapshot.observer (folds)", static_cast<double>(c.reports), fold.ns_per_op},
  };
  double ledger_ns = 0;
  std::cout << "ledger (run_until host time " << run_ns / 1e9 << " s):\n";
  for (const auto& l : ledger) {
    const double ns = l.ops * l.ns_per_op;
    ledger_ns += ns;
    std::cout << "  " << std::left << std::setw(36) << l.layer << std::right
              << std::setw(14) << static_cast<std::uint64_t>(l.ops) << " ops x "
              << std::setw(9) << std::setprecision(4) << l.ns_per_op
              << " ns = " << std::setw(6) << std::setprecision(3)
              << (run_ns > 0 ? 100 * ns / run_ns : 0) << "%\n";
  }
  const double residual = run_ns > 0 ? 1.0 - ledger_ns / run_ns : 0;
  std::cout << "  residual (not replayed: observer assembly, generators, "
               "hosts, cache effects of the full working set) "
            << 100 * residual << "%\n";

  std::cout << "self time by span (ms):\n";
  for (const auto& [name, ns] : spans.self_by_name()) {
    std::cout << "  " << std::left << std::setw(42) << name << " "
              << static_cast<double>(ns) / 1e6 << "\n";
  }
  if (!args.spans_path.empty()) {
    std::ofstream f(args.spans_path);
    spans.write_json(f);
    if (!f) fail("could not write spans to " + args.spans_path);
    std::cout << "spans written: " << spans.spans().size() << " to "
              << args.spans_path << "\n";
  }

  const double untraced_p50 = quantile(a.period_ns, 0.5);
  const double traced_p50 = quantile(b.period_ns, 0.5);
  const double events = static_cast<double>(c.sim_executed);
  const double n_periods = static_cast<double>(b.period_ns.size());
  auto median_us = [&spans](const char* name) {
    return quantile(spans.durations(name), 0.5) / 1e3;
  };

  MetricSet m;
  m.add("core.construct_s", b.construct_s, "s");
  m.add("core.warmup_s", b.warmup_s, "s");
  m.add("core.run_ns_per_event", events > 0 ? run_ns / events : 0, "ns");
  m.add("net.topology_s", b.topology_s, "s");
  m.add("net.link_packets", static_cast<double>(c.link_packets), "count");
  m.add("net.link_drops", static_cast<double>(c.link_drops), "count");
  m.add("net.host_sent", static_cast<double>(c.host_sent), "count");
  m.add("net.host_received", static_cast<double>(c.host_received), "count");
  m.add("net.host_pkts_per_s",
        static_cast<double>(a.packets_delivered) / a.timed_s, "1/s");
  m.add("net.pool_allocated", static_cast<double>(c.pool_allocated), "count");
  m.add("net.pool_recycled", static_cast<double>(c.pool_recycled), "count");
  m.add("net.link_ns_per_packet", link.ns_per_op, "ns");
  m.add("sim.events", events, "count");
  m.add("sim.events_per_period", events / n_periods, "count");
  m.add("sim.scheduled", static_cast<double>(c.sim_scheduled), "count");
  m.add("sim.cancelled", static_cast<double>(c.sim_cancelled), "count");
  m.add("sim.pending_max", static_cast<double>(b.pending_max), "count");
  m.add("sim.ns_per_event", sim.ns_per_op, "ns");
  m.add("switchlib.queue_drops", static_cast<double>(c.queue_drops), "count");
  m.add("switchlib.other_drops",
        static_cast<double>(c.forwarding_drops + c.ttl_drops), "count");
  m.add("switchlib.materialized_ports",
        static_cast<double>(b.total.materialized_ports), "count");
  m.add("switchlib.ns_per_packet", swr.ns_per_op, "ns");
  m.add("snapshot.dataplane.captures", static_cast<double>(c.captures), "count");
  m.add("snapshot.dataplane.notifications", static_cast<double>(c.notifications),
        "count");
  m.add("snapshot.dataplane.inflight_share", a.inflight_share, "ratio");
  m.add("snapshot.dataplane.ns_per_packet", dp.ns_per_op, "ns");
  m.add("snapshot.dataplane.ns_per_initiation", dpi.ns_per_op, "ns");
  m.add("snapshot.control_plane.initiations", static_cast<double>(c.initiations),
        "count");
  m.add("snapshot.control_plane.reinitiations",
        static_cast<double>(c.reinitiations), "count");
  m.add("snapshot.control_plane.reports", static_cast<double>(c.reports), "count");
  m.add("snapshot.notif.delivered", static_cast<double>(c.notif_delivered), "count");
  m.add("snapshot.notif.dropped", static_cast<double>(c.notif_dropped), "count");
  m.add("snapshot.notif.max_backlog", static_cast<double>(c.notif_max_backlog),
        "count");
  m.add("snapshot.notif.queue_delay_us.p50", b.notif_queue_delay_p50_us, "us");
  m.add("snapshot.notif.queue_delay_us.p99", b.notif_queue_delay_p99_us, "us");
  m.add("snapshot.notif.ns_per_push", notif.ns_per_op, "ns");
  m.add("snapshot.wire.notification_bytes",
        static_cast<double>(c.wire_notification_bytes), "bytes");
  m.add("snapshot.wire.report_bytes", static_cast<double>(c.wire_report_bytes),
        "bytes");
  m.add("snapshot.wire.decode_failures",
        static_cast<double>(c.wire_decode_failures), "count");
  m.add("snapshot.wire.ts_fallbacks", static_cast<double>(c.wire_ts_fallbacks),
        "count");
  m.add("snapshot.wire.ns_per_notification", wn.ns_per_op, "ns");
  m.add("snapshot.wire.ns_per_report", wr.ns_per_op, "ns");
  m.add("snapshot.observer.reports_per_round", b.reports_per_round, "count");
  m.add("snapshot.observer.skipped", static_cast<double>(b.refused), "count");
  m.add("snapshot.observer.excluded_devices",
        static_cast<double>(b.excluded_devices), "count");
  m.add("snapshot.observer.request_us",
        median_us("snapshot.observer.request_snapshot"), "us");
  m.add("snapshot.observer.read_us", median_us("snapshot.observer.read"), "us");
  m.add("snapshot.observer.ns_per_fold", fold.ns_per_op, "ns");
  m.add("workload.setup_s", b.workload_setup_s, "s");
  m.add("workload.packets_offered", static_cast<double>(b.packets_offered),
        "count");
  m.add("ledger.residual_share", residual, "ratio");
  m.add("trace.overhead_share",
        untraced_p50 > 0 ? (traced_p50 - untraced_p50) / untraced_p50 : 0,
        "ratio");
  m.add("sim_digest", static_cast<double>(b.digest), "hash");
  std::cout << "per-layer metrics (" << w.name << ", seed " << args.seed
            << "):\n";
  m.print_table(std::cout);

  std::ostringstream line;
  line << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << b.requested
       << ", \"failed\": " << (b.requested - b.ok) << ", \"metrics\": ";
  m.write_json(line);
  line << "}";
  return line.str();
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const WorkloadSpec* w = find_workload(args.workload);
  if (w == nullptr) usage("unknown workload " + args.workload);

  Manifest manifest = Manifest::capture();
  if (!manifest.optimized) {
    std::cerr << "perfbench: refusing to measure an unoptimized build ("
              << manifest.build_type << "); rebuild with optimization\n";
    return 3;
  }
  const int repeats = repeats_for(*w, args.seconds);
  manifest.workload = w->name;
  manifest.seed = args.seed;
  manifest.seconds = args.seconds;
  manifest.trace = args.trace == 1;
  manifest.params = describe(*w, repeats);
  std::cout << "manifest: ";
  manifest.write_json(std::cout);
  std::cout << std::endl;

  const std::string result = args.trace == 1
                                 ? run_traced(args, *w)
                                 : run_untraced(args, *w, repeats);
  manifest.finish();
  std::cout << "manifest: ";
  manifest.write_json(std::cout);
  std::cout << "\n" << result << std::endl;
  return 0;
}
