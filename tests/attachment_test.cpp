// Section 6, "Node attachment": devices registered with the observer
// mid-operation join from the next snapshot on; their state starts at 0
// and jumps ahead on the first marker; spurious completions for snapshots
// they were never part of are ignored.
#include <gtest/gtest.h>

#include "mini_device.hpp"
#include "sim/simulator.hpp"
#include "sim/timing_model.hpp"
#include "snapshot/observer.hpp"

namespace speedlight::snap {
namespace {

using testing::MiniDevice;

TEST(NodeAttachment, LateDeviceJoinsNextSnapshot) {
  sim::Simulator sim;
  sim::TimingModel timing;
  SnapshotConfig config;  // No channel state: completion on advance.
  Observer::Options obs_options;
  obs_options.snapshot = config;
  obs_options.completion_timeout = sim::msec(100);
  Observer observer(sim, timing, obs_options);

  MiniDevice a(sim, timing, 1, config);
  observer.register_device(&a.cp());

  // Snapshot 1: only device A exists.
  const auto s1 = observer.request_snapshot(sim.now() + sim::msec(1));
  ASSERT_TRUE(s1.has_value());
  sim.run_until(sim::msec(10));
  const GlobalSnapshot* snap1 = observer.result(*s1);
  ASSERT_NE(snap1, nullptr);
  EXPECT_TRUE(snap1->complete);
  EXPECT_EQ(snap1->received_total, 1u);

  // Device B attaches: state initialized to 0 (Section 6).
  MiniDevice b(sim, timing, 2, config);
  observer.register_device(&b.cp());
  EXPECT_EQ(b.sid(), 0u);

  // Traffic from A's epoch reaches B before any initiation: B jumps ahead.
  b.deliver_marker(1);
  EXPECT_EQ(b.sid(), 1u);
  sim.run_until(sim::msec(20));
  // B's report for snapshot 1 is spurious (B was not in the device set):
  // snapshot 1 must be unchanged.
  EXPECT_EQ(observer.result(*s1)->received_total, 1u);

  // Snapshot 2 covers both devices.
  const auto s2 = observer.request_snapshot(sim.now() + sim::msec(1));
  ASSERT_TRUE(s2.has_value());
  sim.run_until(sim.now() + sim::msec(20));
  const GlobalSnapshot* snap2 = observer.result(*s2);
  ASSERT_NE(snap2, nullptr);
  EXPECT_TRUE(snap2->complete);
  EXPECT_EQ(snap2->received_total, 2u);
  EXPECT_TRUE(snap2->excluded_devices.empty());
}

TEST(NodeAttachment, OutstandingSnapshotUnaffectedByAttachment) {
  sim::Simulator sim;
  sim::TimingModel timing;
  SnapshotConfig config;
  Observer::Options obs_options;
  obs_options.snapshot = config;
  obs_options.completion_timeout = sim::msec(100);
  Observer observer(sim, timing, obs_options);
  MiniDevice a(sim, timing, 1, config);
  observer.register_device(&a.cp());

  // Request a snapshot, then attach B *before* it completes.
  const auto s1 = observer.request_snapshot(sim.now() + sim::msec(5));
  ASSERT_TRUE(s1.has_value());
  MiniDevice b(sim, timing, 2, config);
  observer.register_device(&b.cp());

  sim.run_until(sim::msec(50));
  const GlobalSnapshot* snap1 = observer.result(*s1);
  ASSERT_NE(snap1, nullptr);
  // Completes with A alone — B (which never got the schedule) neither
  // blocks completion nor is reported missing.
  EXPECT_TRUE(snap1->complete);
  EXPECT_TRUE(snap1->excluded_devices.empty());
  EXPECT_EQ(snap1->received_total, 1u);
}

}  // namespace
}  // namespace speedlight::snap
