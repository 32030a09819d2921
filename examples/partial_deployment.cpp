// Partial deployment (Section 10): only some switches speak the snapshot
// protocol. Headers are added at the first enabled router, pass through
// legacy transit switches untouched, and are stripped before hosts;
// snapshots cover the enabled devices and the logical channels between
// them — consistently, even across a legacy middle hop.
//
//   $ ./partial_deployment
#include <iostream>

#include "core/network.hpp"
#include "net/topology_io.hpp"
#include "workload/basic.hpp"

int main() {
  using namespace speedlight;

  // An aggregation row where only the edge switches are upgraded; the
  // legacy core switch in the middle forwards blindly.
  const std::string topo = R"(
host_links 25 500
switch edge0  3
switch core   2 disabled
switch edge1  3
host client edge0 0
host server edge1 0
trunk edge0 2 core 0
trunk core 1 edge1 2
)";
  core::NetworkOptions opt;
  opt.snapshot.channel_state = true;
  // The edge0 <-> edge1 logical channel stays FIFO through the single
  // legacy hop, so markers (and channel state) survive transit (Section
  // 10's condition).
  opt.transit_neighbors_carry_markers = true;
  core::Network net(net::topology_from_string(topo), opt);

  wl::CbrGenerator up(net.simulator(), net.host(0), net.host_id(1), 1, 4e9,
                      1400);
  wl::CbrGenerator down(net.simulator(), net.host(1), net.host_id(0), 2, 2e9,
                        1400);
  up.start(net.now());
  down.start(net.now());
  net.run_for(sim::msec(5));

  const auto* snap = net.take_snapshot();
  if (snap == nullptr || !snap->complete) {
    std::cerr << "snapshot failed\n";
    return 1;
  }

  std::cout << "Deployment: edge0 + edge1 snapshot-enabled, core legacy.\n"
            << "Snapshot " << snap->id << ": " << snap->received_total
            << " units reported (the legacy core contributes none), all "
            << (snap->all_consistent() ? "consistent" : "INCONSISTENT")
            << ".\n\n";

  // The headline property survives the legacy hop: counts at edge0's
  // trunk egress match edge1's trunk ingress plus in-flight state on the
  // *logical* channel spanning the core.
  const auto eg = snap->report({0, 2, net::Direction::Egress});
  const auto in = snap->report({2, 2, net::Direction::Ingress});
  if (!eg || !in) {
    std::cerr << "missing reports\n";
    return 1;
  }
  std::cout << "edge0 trunk egress counted:  " << eg->local_value
            << " packets pre-snapshot\n"
            << "edge1 trunk ingress counted: " << in->local_value
            << " packets + " << in->channel_value
            << " in flight across the legacy core\n"
            << "conservation: "
            << (eg->local_value == in->local_value + in->channel_value
                    ? "EXACT"
                    : "VIOLATED")
            << "\n\n";

  std::cout << "Hosts saw " << net.host(0).header_leaks() +
                   net.host(1).header_leaks()
            << " leaked snapshot headers (must be 0: stripped at the last "
               "enabled device).\n";
  return eg->local_value == in->local_value + in->channel_value ? 0 : 1;
}
