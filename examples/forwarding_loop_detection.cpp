// What is the global forwarding state? (Section 2.2, question 4;
// Section 10, "Measuring Forwarding State".)
//
// During a routing update, two switches can transiently point at each
// other — a forwarding loop that asynchronous per-device dumps cannot
// prove (each table looks fine at the time it is read). A *consistent*
// snapshot of per-unit FIB-version registers shows which rule versions
// were active simultaneously; combining them with the version history
// proves (or rules out) the loop.
//
//   $ ./forwarding_loop_detection
#include <iostream>
#include <map>
#include <vector>

#include "core/network.hpp"
#include "net/topology.hpp"
#include "workload/basic.hpp"

int main() {
  using namespace speedlight;

  core::NetworkOptions options;
  options.seed = 3;
  options.metric = sw::MetricKind::ForwardingVersion;
  // Chain: h0 - s0 - s1 - s2 - h1.
  core::Network net(net::make_line(3), options);

  // Version history per switch: version -> next hop for h1, maintained by
  // the (simulated) routing controller as it pushes updates.
  using NextHop = std::map<std::uint64_t, net::PortId>;
  std::vector<NextHop> history(net.num_switches());
  for (std::size_t s = 0; s < net.num_switches(); ++s) {
    const auto& ports = net.switch_at(s).routing().lookup(net.host_id(1));
    history[s][net.switch_at(s).routing().version()] =
        ports.empty() ? net::kInvalidPort : ports[0];
  }

  // Keep traffic flowing towards h1 so FIB versions are stamped.
  wl::CbrGenerator gen(net.simulator(), net.host(0), net.host_id(1), 1, 1e9,
                       500);
  gen.start(net.now());
  net.run_for(sim::msec(2));

  // A buggy update: s1 is re-pointed *backwards* towards s0 (port 1)
  // while s0 still forwards to s1 (port 2) -> transient loop s0 <-> s1.
  net.simulator().at(net.now() + sim::msec(3), [&net, &history]() {
    net.switch_at(1).set_route(net.host_id(1), {1});
    history[1][net.switch_at(1).routing().version()] = 1;
    std::cout << "[controller] pushed buggy update to s1 (now points back "
                 "at s0)\n";
  });
  // The fix arrives a little later.
  net.simulator().at(net.now() + sim::msec(9), [&net, &history]() {
    net.switch_at(1).set_route(net.host_id(1), {2});
    history[1][net.switch_at(1).routing().version()] = 2;
    std::cout << "[controller] pushed fix to s1\n";
  });

  // Meanwhile: snapshots of the FIB-version registers every 2ms.
  auto loop_check = [&](const snap::GlobalSnapshot& snap) {
    // Reconstruct the consistent forwarding graph for h1.
    std::vector<net::PortId> next_hop(net.num_switches(), net::kInvalidPort);
    for (std::size_t s = 0; s < net.num_switches(); ++s) {
      // Any ingress unit of the switch carries the last-stamped version.
      for (net::PortId p = 0; p < net.switch_at(s).options().num_ports; ++p) {
        const auto it = snap.report(
            {static_cast<net::NodeId>(s), p, net::Direction::Ingress});
        if (!it || !it->consistent) continue;
        const auto v = it->local_value;
        const auto h = history[s].find(v);
        if (h != history[s].end()) next_hop[s] = h->second;
      }
    }
    // Walk from s0; a revisit is a loop. (Line topology: port 2 = right
    // neighbor, port 1 = left neighbor, port 0 = host.)
    std::vector<bool> seen(net.num_switches(), false);
    std::size_t at = 0;
    while (true) {
      if (seen[at]) return true;  // Loop!
      seen[at] = true;
      const net::PortId out = next_hop[at];
      if (out == net::kInvalidPort || out == 0) return false;  // Host/unknown.
      if (out == 2 && at + 1 < net.num_switches()) {
        ++at;
      } else if (out == 1 && at > 0) {
        --at;
      } else {
        return false;
      }
    }
  };

  int loops_detected = 0;
  int snapshots_done = 0;
  net.observer().set_completion_callback(
      [&](const snap::GlobalSnapshot& snap) {
        ++snapshots_done;
        const bool loop = loop_check(snap);
        loops_detected += loop;
        std::cout << "[observer] snapshot " << snap.id << " @ "
                  << sim::to_msec(snap.scheduled_at) << "ms: forwarding "
                  << (loop ? "LOOP s0<->s1 detected" : "state consistent")
                  << "\n";
      });
  for (int i = 0; i < 8; ++i) {
    net.observer().request_snapshot(net.now() + sim::msec(1) +
                                    i * sim::msec(2));
  }
  net.run_for(sim::msec(40));

  std::cout << "\n" << snapshots_done << " snapshots taken, " << loops_detected
            << " caught the transient loop; " << net.switch_at(0).ttl_drops() +
                   net.switch_at(1).ttl_drops()
            << " packets died of TTL while it existed.\n"
            << (loops_detected > 0
                    ? "A consistent snapshot PROVES the loop: both rule "
                      "versions were active at one instant.\n"
                    : "No loop observed in any consistent snapshot.\n");
  return loops_detected > 0 ? 0 : 1;
}
