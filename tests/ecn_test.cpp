// ECN marking at egress queues, and snapshotting the mark counters (the
// metric-agnosticism claim: "any value accessible at line rate ... can be
// snapshotted").
#include <gtest/gtest.h>

#include "core/network.hpp"
#include "net/topology.hpp"
#include "workload/basic.hpp"

namespace speedlight {
namespace {

using core::Network;
using core::NetworkOptions;

NetworkOptions congested_options() {
  NetworkOptions opt;
  opt.ecn_threshold = 8;
  opt.metric = sw::MetricKind::EcnMarkCount;
  return opt;
}

void blast(Network& net, std::size_t from_a, std::size_t from_b,
           std::size_t to, int packets) {
  for (int i = 0; i < packets; ++i) {
    net.simulator().at(i * sim::nsec(490), [&net, from_a, from_b, to]() {
      net.host(from_a).send(net.host_id(to), 1, 1500);
      net.host(from_b).send(net.host_id(to), 2, 1500);
    });
  }
}

TEST(Ecn, MarksWhenQueueExceedsThreshold) {
  Network net(net::make_star(3), congested_options());
  std::uint64_t marked = 0;
  std::uint64_t received = 0;
  net.host(2).set_receive_callback([&](const net::Packet& p, sim::SimTime) {
    ++received;
    marked += p.ecn_ce;
  });
  blast(net, 0, 1, 2, 600);  // 2x25G into one 25G host port.
  net.run_for(sim::msec(5));
  EXPECT_GT(received, 1000u);
  EXPECT_GT(marked, 100u);          // Sustained congestion -> many CE marks.
  EXPECT_LT(marked, received);      // Early packets pass unmarked.
  EXPECT_EQ(net.switch_at(0).counters(2, net::Direction::Egress).ecn_marks(),
            marked);
}

TEST(Ecn, NoMarksWithoutCongestion) {
  Network net(net::make_star(2), congested_options());
  std::uint64_t marked = 0;
  net.host(1).set_receive_callback(
      [&](const net::Packet& p, sim::SimTime) { marked += p.ecn_ce; });
  for (int i = 0; i < 100; ++i) {
    net.simulator().at(i * sim::usec(10),
                       [&net]() { net.host(0).send(net.host_id(1), 1, 1500); });
  }
  net.run_for(sim::msec(5));
  EXPECT_EQ(marked, 0u);
}

TEST(Ecn, DisabledByDefault) {
  NetworkOptions opt;  // ecn_threshold = 0.
  Network net(net::make_star(3), opt);
  std::uint64_t marked = 0;
  net.host(2).set_receive_callback(
      [&](const net::Packet& p, sim::SimTime) { marked += p.ecn_ce; });
  blast(net, 0, 1, 2, 300);
  net.run_for(sim::msec(5));
  EXPECT_EQ(marked, 0u);
}

TEST(Ecn, MarkCountersSnapshotConsistently) {
  // A network-wide, causally consistent view of where congestion marks are
  // being applied — a metric the paper never shows but the primitive
  // supports unchanged.
  Network net(net::make_star(3), congested_options());
  blast(net, 0, 1, 2, 600);
  net.run_for(sim::msec(3));
  const auto* snap = net.take_snapshot();
  ASSERT_NE(snap, nullptr);
  EXPECT_TRUE(snap->complete);
  EXPECT_TRUE(snap->all_consistent());
  const auto it = snap->report({0, 2, net::Direction::Egress});
  ASSERT_TRUE(it.has_value());
  EXPECT_GT(it->local_value, 50u);  // Marks visible in the snapshot.
  // Only the congested egress unit marks; others report zero.
  const auto quiet = snap->report({0, 0, net::Direction::Egress});
  ASSERT_TRUE(quiet.has_value());
  EXPECT_EQ(quiet->local_value, 0u);
}

}  // namespace
}  // namespace speedlight
