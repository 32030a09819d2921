// Self-tests of the benchmark's own machinery: the percentile rule, span
// self-time arithmetic, the run manifest, and that every replay driver's
// operation count is what the layer's public counters record.
//
//   .bench_build/perfbench/perfbench_selftest    (or: run.py --selftest)
#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>

#include "manifest.hpp"
#include "replay.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace {

int g_failed = 0;
int g_passed = 0;

void check(bool ok, const std::string& what) {
  if (ok) {
    ++g_passed;
  } else {
    ++g_failed;
    std::cout << "FAIL: " << what << "\n";
  }
}

void test_percentile_rule() {
  using namespace perfbench;
  check(samples_beyond(200, 0.95) == 10, "200 samples leave 10 beyond p95");
  check(percentile_supported(200, 0.95), "p95 supported at n=200");
  check(!percentile_supported(199, 0.95), "p95 not supported at n=199");
  check(percentile_supported(1000, 0.99), "p99 supported at n=1000");
  check(highest_percentile(200) == 95, "highest percentile at n=200 is p95");
  check(highest_percentile(1000) == 99, "highest percentile at n=1000 is p99");
  check(highest_percentile(20) == 50, "highest percentile at n=20 is p50");
  check(highest_percentile(9) == -1, "no percentile below ten samples");
}

void test_span_self_time() {
  using namespace perfbench;
  SpanRecorder rec(true);
  const auto parent = rec.add({"parent", 0, 100, -1, 0});
  rec.add({"a", 10, 30, parent, 0});
  const auto b = rec.add({"b", 20, 50, parent, 0});  // Overlaps a.
  rec.add({"c", 90, 120, parent, 0});                // Clipped at 100.
  rec.add({"grandchild", 25, 45, b, 0});
  const auto self = rec.self_times();
  check(self[0] == 50, "parent self = 100 - union(10..50, 90..100)");
  check(self[1] == 20, "leaf self = its duration");
  check(self[2] == 10, "b self = 30 - grandchild 20");
  check(self[4] == 20, "grandchild self");
  const auto by_name = rec.self_by_name();
  check(by_name.at("parent") == 50, "self time summed by name");

  SpanRecorder live(true);
  const auto outer = live.begin("outer", 7);
  const auto inner = live.begin("inner", 7);
  live.end(inner);
  live.end(outer);
  check(live.spans()[1].parent == outer, "begin() nests under the open span");
  check(live.spans()[1].round == 7, "round id recorded");
  check(live.self_times()[0] >= 0, "nested self time non-negative");

  SpanRecorder off(false);
  check(off.begin("x") == -1 && off.spans().empty(), "disabled recorder records nothing");
}

void test_manifest() {
  auto m = perfbench::Manifest::capture();
  m.workload = "w";
  m.seed = 3;
  m.params = {{"topology", "fat-tree k=4"}};
  m.finish();
  std::ostringstream os;
  m.write_json(os);
  const std::string json = os.str();
  for (const auto& f : perfbench::Manifest::required_fields()) {
    check(json.find("\"" + f + "\":") != std::string::npos,
          "manifest carries " + f);
  }
  check(m.nproc >= 1, "manifest counts CPUs");
  check(!m.compiler.empty(), "manifest names the compiler");
}

void expect_counts(const perfbench::ReplayResult& r) {
  check(!r.count_checks.empty(), r.name + " reports count checks");
  for (const auto& [what, c] : r.count_checks) {
    std::ostringstream os;
    os << r.name << ": " << what << " driver " << c.first << " == counter "
       << c.second;
    check(c.first == c.second, os.str());
  }
  check(r.ns_per_op >= 0, r.name + " cost is non-negative");
}

void test_replay_counts() {
  using namespace perfbench;
  for (const bool cs : {false, true}) {
    ReplayShape s;
    s.ports = 8;
    s.channel_state = cs;
    s.advance_share = 0.01;
    s.inflight_share = cs ? 0.2 : 0;
    s.units_per_device = 16;
    s.packet_size = 200;
    s.devices = 3;
    expect_counts(replay_sim(100, 5000, 5000));
    expect_counts(replay_link(s, 1000));
    expect_counts(replay_switch(s, 1000, 10, 10));
    expect_counts(replay_dataplane_packets(s, 5000));
    expect_counts(replay_dataplane_initiations(s, 1000));
    expect_counts(replay_device_rounds(s, 10));
    expect_counts(replay_wire_notifications(s, 1000));
    expect_counts(replay_wire_reports(s, 1000));
    expect_counts(replay_observer_fold(s, 1000));
  }
}

}  // namespace

int main() {
  test_percentile_rule();
  test_span_self_time();
  test_manifest();
  test_replay_counts();
  std::cout << g_passed << " passed, " << g_failed << " failed\n";
  return g_failed == 0 ? 0 : 1;
}
