// The packet-sampling baseline: rate correctness, estimate accuracy, and
// its fundamental inconsistency compared with snapshots.
#include <gtest/gtest.h>

#include <cmath>

#include "core/network.hpp"
#include "net/topology.hpp"
#include "polling/sampling.hpp"
#include "workload/basic.hpp"

namespace speedlight {
namespace {

using core::Network;
using core::NetworkOptions;

TEST(Sampling, EstimatesScaleWithRate) {
  Network net(net::make_star(2), NetworkOptions{});
  poll::SamplingCollector collector(net.simulator(), /*rate=*/10);
  auto sink = collector.sink();
  net.switch_at(0).enable_sampling(
      10, [&sink, &net](net::NodeId sw, net::PortId port, const net::Packet& p) {
        sink({sw, port, p.size_bytes, net.simulator().now()});
      });

  constexpr int kPackets = 20000;
  for (int i = 0; i < kPackets; ++i) {
    net.simulator().at(i * sim::usec(1),
                       [&net]() { net.host(0).send(net.host_id(1), 1, 1000); });
  }
  net.run_for(sim::msec(50));

  const auto est = collector.estimated_packets(0, 0);
  EXPECT_NEAR(static_cast<double>(est), kPackets,
              4.0 * 10.0 * std::sqrt(kPackets / 10.0));  // ~4 sigma
  EXPECT_NEAR(static_cast<double>(collector.samples(0, 0)), kPackets / 10.0,
              4.0 * std::sqrt(kPackets / 10.0));
  EXPECT_EQ(collector.estimated_bytes(0, 0), collector.samples(0, 0) * 10000u);
}

TEST(Sampling, DisabledByDefault) {
  Network net(net::make_star(2), NetworkOptions{});
  poll::SamplingCollector collector(net.simulator(), 10);
  for (int i = 0; i < 100; ++i) net.host(0).send(net.host_id(1), 1, 100);
  net.run_for(sim::msec(5));
  EXPECT_EQ(collector.total_samples(), 0u);
}

TEST(Sampling, ControlTrafficNeverSampled) {
  NetworkOptions opt;
  opt.snapshot.channel_state = true;  // Produces probes + initiations.
  Network net(net::make_line(2), opt);
  poll::SamplingCollector collector(net.simulator(), /*rate=*/1);
  auto sink = collector.sink();
  for (std::size_t s = 0; s < net.num_switches(); ++s) {
    net.switch_at(s).enable_sampling(
        1,
        [&sink, &net](net::NodeId sw, net::PortId port, const net::Packet& p) {
          sink({sw, port, p.size_bytes, net.simulator().now()});
        });
  }
  net.take_snapshot();  // Initiations + probe floods, zero app traffic.
  EXPECT_EQ(collector.total_samples(), 0u);
}

TEST(Sampling, SampledEstimateHasErrorSnapshotDoesNot) {
  // The contrast the paper draws: a snapshot value is exact and consistent;
  // a sampled estimate carries noise even for the same quantity.
  Network net(net::make_star(2), NetworkOptions{});
  poll::SamplingCollector collector(net.simulator(), /*rate=*/50);
  auto sink = collector.sink();
  net.switch_at(0).enable_sampling(
      50, [&sink, &net](net::NodeId sw, net::PortId port, const net::Packet& p) {
        sink({sw, port, p.size_bytes, net.simulator().now()});
      });
  for (int i = 0; i < 5000; ++i) {
    net.simulator().at(i * sim::usec(2),
                       [&net]() { net.host(0).send(net.host_id(1), 1, 800); });
  }
  net.run_for(sim::msec(20));
  const auto* snap = net.take_snapshot();
  ASSERT_NE(snap, nullptr);
  const auto it = snap->report({0, 0, net::Direction::Ingress});
  ASSERT_TRUE(it.has_value());
  EXPECT_EQ(it->local_value, 5000u);  // Exact.
  const auto est = collector.estimated_packets(0, 0);
  EXPECT_NE(est, 5000u);  // With overwhelming probability.
  EXPECT_NEAR(static_cast<double>(est), 5000.0, 2000.0);  // But in the zone.
}

}  // namespace
}  // namespace speedlight
