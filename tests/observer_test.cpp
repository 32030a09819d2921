// Snapshot observer: assembly, spans, totals, timeouts, and rollover
// enforcement, on small real networks.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "core/network.hpp"
#include "net/topology.hpp"
#include "workload/basic.hpp"

namespace speedlight {
namespace {

using core::Network;
using core::NetworkOptions;

TEST(Observer, AssemblesAllUnits) {
  Network net(net::make_star(3), NetworkOptions{});
  const auto* snap = net.take_snapshot();
  ASSERT_NE(snap, nullptr);
  EXPECT_TRUE(snap->complete);
  EXPECT_EQ(snap->received_total, 6u);  // 3 ports x 2 directions.
  EXPECT_EQ(snap->id, 1u);
}

TEST(Observer, SequentialIdsAssigned) {
  Network net(net::make_star(2), NetworkOptions{});
  const auto a = net.observer().request_snapshot(net.now() + sim::msec(1));
  const auto b = net.observer().request_snapshot(net.now() + sim::msec(2));
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(*a + 1, *b);
}

TEST(Observer, CompletionCallbackFires) {
  Network net(net::make_star(2), NetworkOptions{});
  std::vector<snap::VirtualSid> completed;
  net.observer().set_completion_callback(
      [&](const snap::GlobalSnapshot& s) { completed.push_back(s.id); });
  net.take_snapshot();
  net.take_snapshot();
  EXPECT_EQ(completed, (std::vector<snap::VirtualSid>{1, 2}));
  EXPECT_EQ(net.observer().completed_count(), 2u);
  EXPECT_EQ(net.observer().requested_count(), 2u);
}

TEST(Observer, TotalValueSumsConsistentReports) {
  Network net(net::make_star(2), NetworkOptions{});
  // 5 packets host0 -> host1: counted at ingress 0 and egress 1 only.
  for (int i = 0; i < 5; ++i) net.host(0).send(net.host_id(1), 1, 100);
  net.run_for(sim::msec(1));
  const auto* snap = net.take_snapshot();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->total_value(false), 10u);  // 5 at ingress + 5 at egress.
}

TEST(Observer, AdvanceSpanPositiveAndBounded) {
  Network net(net::make_leaf_spine(2, 2, 3), NetworkOptions{});
  const auto* snap = net.take_snapshot();
  ASSERT_NE(snap, nullptr);
  EXPECT_GT(snap->advance_span(), 0);
  EXPECT_LT(snap->advance_span(), sim::usec(100));
  EXPECT_GE(snap->finalize_span(), 0);
}

TEST(Observer, ResultForUnknownIdIsNull) {
  Network net(net::make_star(2), NetworkOptions{});
  EXPECT_EQ(net.observer().result(999), nullptr);
}

TEST(Observer, RolloverWindowRecoversAfterCompletion) {
  NetworkOptions opt;
  opt.snapshot.wire_id_modulus = 8;  // No-CS window = 3.
  Network net(net::make_star(2), opt);
  // Fill the window, let them complete, then more must be accepted.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(net.take_snapshot() != nullptr);
  }
  const auto id = net.observer().request_snapshot(net.now() + sim::msec(1));
  EXPECT_TRUE(id.has_value());
  EXPECT_EQ(*id, 4u);
}

TEST(Observer, ChannelStateSnapshotHasChannelValues) {
  NetworkOptions opt;
  opt.snapshot.channel_state = true;
  Network net(net::make_line(2), opt);
  // Keep a steady stream so in-flight packets exist at snapshot time.
  wl::CbrGenerator gen(net.simulator(), net.host(0), net.host_id(1), 1,
                       8e9, 1500);
  gen.start(net.now());
  net.run_for(sim::msec(2));
  const auto* snap = net.take_snapshot();
  ASSERT_NE(snap, nullptr);
  EXPECT_TRUE(snap->complete);
  // At 8Gbps over a 100G trunk the wire is often occupied; channel state is
  // at least well-defined (>= 0) and the totals line up.
  EXPECT_GE(snap->total_value(true), snap->total_value(false));
  gen.stop();
}

TEST(Observer, SnapshotCopyOutlivesItsNetwork) {
  // A GlobalSnapshot is self-contained: a copy taken out of a network
  // answers lookups, iteration and getters after the network is gone.
  std::optional<snap::GlobalSnapshot> copy;
  std::vector<snap::UnitReport> reports;
  std::uint64_t total = 0;
  sim::Duration span = 0;
  {
    NetworkOptions opt;
    opt.snapshot.channel_state = true;
    Network net(net::make_leaf_spine(2, 2, 3), opt);
    wl::CbrGenerator gen(net.simulator(), net.host(0), net.host_id(5), 1, 8e9,
                         1500);
    gen.start(net.now());
    net.run_for(sim::msec(2));
    const auto* snap = net.take_snapshot();
    ASSERT_NE(snap, nullptr);
    ASSERT_TRUE(snap->complete);
    for (const auto& r : snap->reports()) reports.push_back(r);
    total = snap->total_value(true);
    span = snap->advance_span();
    copy = *snap;
  }
  ASSERT_EQ(reports.size(), 28u);
  EXPECT_TRUE(std::is_sorted(
      reports.begin(), reports.end(),
      [](const auto& a, const auto& b) { return a.unit < b.unit; }));
  EXPECT_GT(total, 0u);
  EXPECT_EQ(copy->received_total, reports.size());
  EXPECT_EQ(copy->total_value(true), total);
  EXPECT_EQ(copy->advance_span(), span);
  std::size_t i = 0;
  for (const auto& r : copy->reports()) {
    ASSERT_LT(i, reports.size());
    EXPECT_EQ(r.unit, reports[i].unit);
    EXPECT_EQ(r.local_value, reports[i].local_value);
    EXPECT_EQ(r.channel_value, reports[i].channel_value);
    ++i;
  }
  EXPECT_EQ(i, reports.size());
  for (const auto& r : reports) {
    const auto* found = copy->report(r.unit);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->unit, r.unit);
    EXPECT_EQ(found->local_value, r.local_value);
    EXPECT_EQ(found->advance_time, r.advance_time);
  }
  EXPECT_EQ(copy->report({0, 99, net::Direction::Ingress}), nullptr);
  EXPECT_EQ(copy->report({999, 0, net::Direction::Ingress}), nullptr);
}

TEST(Observer, ExcludedDeviceLeavesLookupAndIteration) {
  // Narrow switch 0 to its ingress units while a round is in flight: the
  // round was pinned with the full membership, so switch 0 delivers only
  // part of its units and is excluded at the timeout. The reports it did
  // deliver must leave the round with it.
  NetworkOptions opt;
  opt.observer.completion_timeout = sim::msec(10);
  Network net(net::make_leaf_spine(2, 2, 3), opt);
  const auto id = net.observer().request_snapshot(net.now() + sim::msec(1));
  ASSERT_TRUE(id.has_value());
  net.observer().set_scope([](const net::UnitId& u) {
    return u.node != 0 || u.direction == net::Direction::Ingress;
  });
  const net::UnitId ingress0{0, 0, net::Direction::Ingress};

  net.run_for(sim::msec(5));
  const auto* snap = net.observer().result(*id);
  ASSERT_NE(snap, nullptr);
  ASSERT_FALSE(snap->complete);
  ASSERT_NE(snap->report(ingress0), nullptr);
  EXPECT_GT(snap->digests[0].received, 0u);

  net.run_for(sim::msec(15));
  ASSERT_TRUE(snap->complete);
  EXPECT_EQ(snap->excluded_devices, std::vector<net::NodeId>{0});
  EXPECT_EQ(snap->report(ingress0), nullptr);
  EXPECT_EQ(snap->digests[0].expected, 0u);
  EXPECT_EQ(snap->digests[0].received, 0u);
  std::size_t stored = 0;
  for (const auto& r : snap->reports()) {
    EXPECT_NE(r.unit.node, 0u);
    ++stored;
  }
  EXPECT_EQ(stored, snap->received_total);
  EXPECT_EQ(snap->received_total, snap->expected_total);
  const auto switch0_units = 2 * net.switch_at(0).options().num_ports;
  EXPECT_EQ(snap->received_total, 28u - switch0_units);
}

}  // namespace
}  // namespace speedlight
