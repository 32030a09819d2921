// Snapshot observer: assembly, spans, totals, timeouts, and rollover
// enforcement, on small real networks.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <deque>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/network.hpp"
#include "mini_device.hpp"
#include "net/topology.hpp"
#include "snapshot/observer.hpp"
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
    const auto found = copy->report(r.unit);
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(found->unit, r.unit);
    EXPECT_EQ(found->local_value, r.local_value);
    EXPECT_EQ(found->advance_time, r.advance_time);
  }
  EXPECT_FALSE(copy->report({0, 99, net::Direction::Ingress}).has_value());
  EXPECT_FALSE(copy->report({999, 0, net::Direction::Ingress}).has_value());
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
  ASSERT_TRUE(snap->report(ingress0).has_value());
  EXPECT_GT(snap->digests[0].received, 0u);

  net.run_for(sim::msec(15));
  ASSERT_TRUE(snap->complete);
  EXPECT_EQ(snap->excluded_devices, std::vector<net::NodeId>{0});
  EXPECT_FALSE(snap->report(ingress0).has_value());
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

TEST(Observer, DeviceAttachedUnderScopeJoinsNextRound) {
  // A device registered after set_scope() gets the scope too: its in-scope
  // units are relevant and expected, and its control plane is told its
  // mask, so it joins the next round instead of being excluded from it.
  sim::Simulator sim;
  sim::TimingModel timing;
  snap::SnapshotConfig config;
  snap::Observer::Options obs_options;
  obs_options.snapshot = config;
  snap::Observer observer(sim, timing, obs_options);
  snap::testing::MiniDevice a(sim, timing, 1, config);
  observer.register_device(&a.cp());
  observer.set_scope([](const net::UnitId& u) { return u.node != 3; });

  snap::testing::MiniDevice b(sim, timing, 2, config);  // In scope.
  snap::testing::MiniDevice c(sim, timing, 3, config);  // Out of scope.
  observer.register_device(&b.cp());
  observer.register_device(&c.cp());

  const auto id = observer.request_snapshot(sim.now() + sim::msec(1));
  ASSERT_TRUE(id.has_value());
  sim.run_until(sim::msec(200));  // Past the completion timeout.
  const auto* snap = observer.result(*id);
  ASSERT_NE(snap, nullptr);
  EXPECT_TRUE(snap->complete);
  EXPECT_TRUE(snap->excluded_devices.empty());
  EXPECT_EQ(snap->expected_total, 2u);
  EXPECT_EQ(snap->received_total, 2u);
  EXPECT_TRUE(snap->report({2, 0, net::Direction::Ingress}).has_value());
  EXPECT_EQ(c.cp().reports_filtered(), 1u);
  using Why = snap::Observer::IgnoreReason;
  EXPECT_EQ(observer.reports_ignored(Why::OutOfScope), 0u);
}

// A unit with nothing behind it: initiations go nowhere and it never
// notifies, so its control plane never ships a report.
class InertUnit final : public snap::UnitHandle {
 public:
  explicit InertUnit(net::UnitId id) : id_(id) {}
  [[nodiscard]] net::UnitId unit_id() const override { return id_; }
  [[nodiscard]] bool is_ingress() const override {
    return id_.direction == net::Direction::Ingress;
  }
  [[nodiscard]] std::uint16_t num_channels() const override { return 2; }
  [[nodiscard]] std::uint16_t cpu_channel() const override { return 1; }
  void inject_initiation(snap::WireSid /*sid*/) override {}
  void inject_probe() override {}
  [[nodiscard]] snap::SlotValue read_value_slot(
      std::size_t /*index*/) const override {
    return {};
  }
  [[nodiscard]] snap::WireSid read_sid_register() const override { return 0; }
  [[nodiscard]] snap::WireSid read_last_seen_register(
      std::uint16_t /*channel*/) const override {
    return 0;
  }
  [[nodiscard]] std::uint64_t read_live_counter() const override { return 0; }

 private:
  net::UnitId id_;
};

static_assert(sizeof(snap::GlobalSnapshot::SlotValues) == 32);
static_assert(snap::GlobalSnapshot::kSlotBytes == 33);

// An observer over InertUnit-backed control planes, two ports per device,
// fed hand-encoded FullV2 frames (every field carried at full width)
// straight into its report links.
struct FrameRig {
  explicit FrameRig(const std::vector<net::NodeId>& nodes)
      : observer(sim, timing, options()) {
    for (std::size_t d = 0; d < nodes.size(); ++d) {
      cps.push_back(std::make_unique<snap::ControlPlane>(
          sim, nodes[d], "dev" + std::to_string(nodes[d]), timing,
          snap::ControlPlane::Options{}, sim::Rng(nodes[d])));
      auto& encoder = encoders.emplace_back();
      encoder.configure(options().wire, timing.observer_rpc_latency, nullptr);
      for (const net::PortId p : {0, 1}) {
        for (const auto dir :
             {net::Direction::Ingress, net::Direction::Egress}) {
          const net::UnitId u{nodes[d], p, dir};
          units.push_back(std::make_unique<InertUnit>(u));
          cps.back()->add_unit(units.back().get(), {true, false});
          encoder.add_unit(u);
        }
      }
      observer.register_device(cps.back().get());
    }
  }

  static snap::Observer::Options options() {
    snap::Observer::Options o;
    o.wire.encoding = snap::WireEncoding::FullV2;
    o.completion_timeout = sim::msec(10);
    return o;
  }

  void deliver(std::uint16_t dev, const snap::UnitReport& r) {
    std::array<std::uint8_t, snap::kMaxReportFrameBytes> frame{};
    const std::size_t len = encoders[dev].encode(r, sim.now(), frame.data());
    observer.on_report_frame(dev, {frame.data(), len});
  }

  [[nodiscard]] std::uint64_t metric(const std::string& name) const {
    for (const auto& m : sim.metrics().collect()) {
      if (m.name == name) return m.value;
    }
    ADD_FAILURE() << "no metric " << name;
    return 0;
  }

  sim::Simulator sim;
  sim::TimingModel timing;
  snap::Observer observer;
  std::vector<std::unique_ptr<InertUnit>> units;
  std::vector<std::unique_ptr<snap::ControlPlane>> cps;
  std::deque<snap::ReportEncoder> encoders;
};

snap::UnitReport blank_report(net::UnitId u, snap::VirtualSid sid) {
  return {.device = u.node, .unit = u, .sid = sid};
}

std::vector<snap::UnitReport> stored_reports(const snap::GlobalSnapshot& s) {
  std::vector<snap::UnitReport> out;
  for (const auto& r : s.reports()) out.push_back(r);
  return out;
}

TEST(Observer, CompactStoreRoundTripsEveryField) {
  // Whatever a report carries, the compact store must give back exactly
  // that report — device, unit and sid rebuilt from its slot — in UnitId
  // order, before and after its round is sealed.
  // Devices 2 and 5, registered in NodeId order.
  FrameRig rig({2, 5});
  auto& observer = rig.observer;
  auto& sim = rig.sim;

  const auto s1 = observer.request_snapshot(sim::msec(1));
  const auto s2 = observer.request_snapshot(sim::msec(2));
  ASSERT_TRUE(s1.has_value());
  ASSERT_TRUE(s2.has_value());
  constexpr auto kMaxValue = std::numeric_limits<std::uint64_t>::max();
  constexpr auto kMaxTime = std::numeric_limits<sim::SimTime>::max();
  auto consistent = blank_report({2, 0, net::Direction::Ingress}, *s1);
  consistent.local_value = 7;
  consistent.advance_time = 1000;
  consistent.finalize_time = 1000;
  auto inconsistent = blank_report({2, 0, net::Direction::Egress}, *s1);
  inconsistent.consistent = false;
  inconsistent.finalize_time = 1500;
  auto inferred = blank_report({2, 1, net::Direction::Ingress}, *s1);
  inferred.inferred = true;
  inferred.local_value = 42;
  inferred.channel_value = 3;
  inferred.advance_time = 1100;
  inferred.finalize_time = 2500;
  auto extreme = blank_report({2, 1, net::Direction::Egress}, *s1);
  extreme.local_value = kMaxValue;
  extreme.channel_value = kMaxValue;
  extreme.advance_time = kMaxTime;
  extreme.finalize_time = 3;
  // Device 5 delivers one unit of four, so the timeout excludes it.
  auto partial = blank_report({5, 1, net::Direction::Egress}, *s1);
  partial.channel_value = 9;
  partial.advance_time = 2000;
  partial.finalize_time = 2100;
  auto second = blank_report({2, 0, net::Direction::Ingress}, *s2);
  second.local_value = 8;

  // Out of UnitId order on purpose.
  rig.deliver(1, partial);
  rig.deliver(0, extreme);
  rig.deliver(0, inferred);
  rig.deliver(0, consistent);
  rig.deliver(0, inconsistent);
  rig.deliver(0, second);

  const auto* round1 = observer.result(*s1);
  ASSERT_NE(round1, nullptr);
  EXPECT_FALSE(round1->complete);
  EXPECT_EQ(round1->store_bytes(), 8 * snap::GlobalSnapshot::kSlotBytes);
  const std::vector<snap::UnitReport> delivered{consistent, inconsistent,
                                                inferred, extreme, partial};
  for (const auto& r : delivered) EXPECT_EQ(round1->report(r.unit), r);
  EXPECT_FALSE(round1->report({5, 0, net::Direction::Ingress}).has_value());
  std::vector<snap::UnitReport> stored = stored_reports(*round1);
  EXPECT_EQ(stored, delivered);
  const auto* round2 = observer.result(*s2);
  ASSERT_NE(round2, nullptr);
  EXPECT_EQ(round2->report(second.unit), second);

  sim.run_until(sim::msec(50));  // Past both completion timeouts.
  ASSERT_TRUE(round1->complete);
  EXPECT_EQ(round1->excluded_devices, std::vector<net::NodeId>{5});
  EXPECT_FALSE(round1->report(partial.unit).has_value());
  stored = stored_reports(*round1);
  EXPECT_EQ(stored, std::vector<snap::UnitReport>(delivered.begin(),
                                                  delivered.end() - 1));
  for (const auto& r : stored) EXPECT_EQ(round1->report(r.unit), r);
}

TEST(Observer, SealedStoreRoundTripsEveryField) {
  // Completion seals a round into frame-of-reference columns. Equal
  // columns pack to width 0, full-range ones to 8 bytes, and zero
  // timestamps stay out of the column base; every field must come back
  // unchanged, and nothing may write the round once it is sealed.
  FrameRig rig({3});
  auto& observer = rig.observer;
  const std::vector<net::UnitId> units{{3, 0, net::Direction::Ingress},
                                       {3, 0, net::Direction::Egress},
                                       {3, 1, net::Direction::Ingress},
                                       {3, 1, net::Direction::Egress}};
  constexpr std::size_t kSlots = 4;
  constexpr std::size_t kOpenBytes =
      kSlots * snap::GlobalSnapshot::kSlotBytes;
  const auto gauge_matches = [&] {
    std::uint64_t total = 0;
    for (snap::VirtualSid id = 1; id <= observer.requested_count(); ++id) {
      total += observer.result(id)->store_bytes();
    }
    EXPECT_EQ(rig.metric("observer.store_bytes"), total);
  };

  // Round 1: four identical reports, every column one value.
  const auto s1 = observer.request_snapshot(sim::msec(1));
  ASSERT_TRUE(s1.has_value());
  gauge_matches();
  std::vector<snap::UnitReport> equal;
  for (const auto& u : units) {
    auto r = blank_report(u, *s1);
    r.local_value = 77;
    r.channel_value = 5;
    r.advance_time = 123456789;
    r.finalize_time = 123456790;
    equal.push_back(r);
  }
  for (std::size_t i = 0; i + 1 < equal.size(); ++i) rig.deliver(0, equal[i]);
  const auto* round1 = observer.result(*s1);
  ASSERT_NE(round1, nullptr);
  EXPECT_EQ(round1->store_bytes(), kOpenBytes);
  gauge_matches();
  rig.deliver(0, equal.back());  // Completes and seals the round.
  ASSERT_TRUE(round1->complete);
  EXPECT_EQ(round1->store_bytes(), kSlots);  // State bytes only.
  EXPECT_EQ(stored_reports(*round1), equal);
  for (const auto& r : equal) EXPECT_EQ(round1->report(r.unit), r);
  gauge_matches();

  // Round 2: extremes next to small values, and an inconsistent report
  // whose timestamps are 0 (kept out of the finalize base, they would
  // widen that column from 1 to 4 bytes).
  const auto s2 = observer.request_snapshot(sim::msec(2));
  ASSERT_TRUE(s2.has_value());
  constexpr auto kMaxValue = std::numeric_limits<std::uint64_t>::max();
  constexpr auto kMaxTime = std::numeric_limits<sim::SimTime>::max();
  std::vector<snap::UnitReport> mixed;
  for (const auto& u : units) mixed.push_back(blank_report(u, *s2));
  mixed[0].local_value = kMaxValue;
  mixed[0].channel_value = 3;
  mixed[0].advance_time = kMaxTime;
  mixed[0].finalize_time = 1'000'200;
  mixed[1].consistent = false;
  mixed[1].local_value = 1;
  mixed[2].inferred = true;
  mixed[2].local_value = 1;
  mixed[2].channel_value = 2;
  mixed[2].advance_time = 1;
  mixed[2].finalize_time = 1'000'000;
  mixed[3].local_value = 300;
  mixed[3].advance_time = 2000;
  mixed[3].finalize_time = 1'000'100;
  for (auto it = mixed.rbegin(); it != mixed.rend(); ++it) rig.deliver(0, *it);
  const auto* round2 = observer.result(*s2);
  ASSERT_NE(round2, nullptr);
  ASSERT_TRUE(round2->complete);
  // Widths: local 8, channel 1, advance 8, finalize 1.
  EXPECT_EQ(round2->store_bytes(), kSlots * (1 + 8 + 1 + 8 + 1));
  EXPECT_EQ(stored_reports(*round2), mixed);
  for (const auto& r : mixed) EXPECT_EQ(round2->report(r.unit), r);
  gauge_matches();

  // A straggler after the seal is ignored and leaves the round as it was.
  using Why = snap::Observer::IgnoreReason;
  const std::size_t sealed_bytes = round2->store_bytes();
  auto straggler = mixed[1];
  straggler.consistent = true;
  straggler.advance_time = 5;
  rig.deliver(0, straggler);
  EXPECT_EQ(observer.reports_ignored(Why::Straggler), 1u);
  EXPECT_EQ(stored_reports(*round2), mixed);
  EXPECT_EQ(round2->received_total, kSlots);
  EXPECT_EQ(round2->store_bytes(), sealed_bytes);
  gauge_matches();
}

}  // namespace
}  // namespace speedlight
