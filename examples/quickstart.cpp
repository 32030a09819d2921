// Quickstart: build a small network, run traffic, take one synchronized
// network snapshot with channel state, and read a causally consistent
// network-wide packet count out of it.
//
//   $ ./quickstart
#include <iostream>

#include "core/network.hpp"
#include "net/topology.hpp"
#include "workload/basic.hpp"

int main() {
  using namespace speedlight;

  // 1. Describe a topology — the paper's testbed: 2 leaves x 3 hosts,
  //    2 spines (Figure 8) — and pick the snapshot variant.
  core::NetworkOptions options;
  options.seed = 42;
  options.snapshot.channel_state = true;          // Record in-flight packets.
  options.metric = sw::MetricKind::PacketCount;   // What to snapshot.
  core::Network net(net::make_leaf_spine(2, 2, 3), options);

  // 2. Put some traffic on it: every host streams to a peer across the
  //    fabric.
  std::vector<std::unique_ptr<wl::Generator>> gens;
  for (std::size_t h = 0; h < net.num_hosts(); ++h) {
    auto gen = std::make_unique<wl::CbrGenerator>(
        net.simulator(), net.host(h),
        net.host_id((h + 3) % net.num_hosts()),
        /*flow=*/static_cast<net::FlowId>(h + 1),
        /*rate=*/2e9, /*packet=*/1500);
    gen->start(net.now());
    gens.push_back(std::move(gen));
  }
  net.run_for(sim::msec(5));

  // 3. Take a synchronized network snapshot (the observer schedules it
  //    with every switch control plane; PTP-aligned initiation, Chandy-
  //    Lamport-style consistency in the data plane).
  const snap::GlobalSnapshot* snapshot = net.take_snapshot();
  if (snapshot == nullptr || !snapshot->complete) {
    std::cerr << "snapshot did not complete\n";
    return 1;
  }

  // 4. Use it.
  std::cout << "Snapshot " << snapshot->id << " complete.\n"
            << "  units reporting:      " << snapshot->received_total << "\n"
            << "  all consistent:       "
            << (snapshot->all_consistent() ? "yes" : "no") << "\n"
            << "  synchronization span: " << sim::to_usec(snapshot->advance_span())
            << " us (all units snapshotted within this window)\n"
            << "  packets counted:      " << snapshot->total_value(false)
            << " at units + " << snapshot->total_value(true) - snapshot->total_value(false)
            << " in flight\n\n";

  std::cout << "Per-unit values (switch/port/direction = packets):\n";
  for (net::NodeId swid = 0; swid < net.num_switches(); ++swid) {
    std::cout << "  " << net.switch_at(swid).name() << ":";
    const auto ports = net.switch_at(swid).options().num_ports;
    for (net::PortId p = 0; p < ports; ++p) {
      const auto it = snapshot->report({swid, p, net::Direction::Ingress});
      if (it) {
        std::cout << " " << it->local_value;
      }
    }
    std::cout << "\n";
  }

  // 5. Compare with what the traditional baseline would have seen: a
  //    sequential polling sweep spans milliseconds, not microseconds.
  net.register_all_units_for_polling();
  net.poller().sweep_at(net.now() + sim::msec(1), [](poll::PollSweep sweep) {
    std::cout << "\nA polling sweep of the same units spans "
              << sim::to_msec(sweep.span())
              << " ms first-to-last — the snapshot above spans microseconds.\n";
  });
  net.run_for(sim::msec(20));
  return 0;
}
