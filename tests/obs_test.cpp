// Flight recorder tests: the trace ring, the metrics registry, the Chrome
// trace-event export (schema-checked with a standalone JSON parser), and
// per-snapshot causal timeline reconstruction on a live network.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/network.hpp"
#include "net/topology.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "workload/basic.hpp"

namespace speedlight {
namespace {

// ---------------------------------------------------------------------------
// Trace ring
// ---------------------------------------------------------------------------

TEST(Tracer, DisabledByDefaultAndRecordsNothing) {
  obs::Tracer tr;
  EXPECT_FALSE(tr.enabled());
  tr.instant(obs::Category::Sim, obs::EventName::PktSeen, 0, 10);
  EXPECT_EQ(tr.size(), 0u);
}

TEST(Tracer, RecordsInstantsAndSpans) {
  if (!obs::Tracer::compiled_in()) GTEST_SKIP() << "trace layer compiled out";
  obs::Tracer tr;
  tr.enable(16);
  tr.instant(obs::Category::SnapshotSm, obs::EventName::SnapCapture,
             obs::unit_track({3, 1, net::Direction::Ingress}), 100, 7, 8);
  tr.complete(obs::Category::NotifChannel, obs::EventName::NotifService,
              obs::notif_track(3), 200, 50, 7);
  ASSERT_EQ(tr.size(), 2u);

  std::vector<obs::TraceEvent> events;
  tr.for_each([&events](const obs::TraceEvent& e) { events.push_back(e); });
  EXPECT_EQ(events[0].ts, 100);
  EXPECT_EQ(events[0].dur, 0);  // instant
  EXPECT_EQ(events[0].a0, 7u);
  EXPECT_EQ(events[1].dur, 50);  // span
  EXPECT_EQ(obs::track_pid(events[1].track), 3u);
  EXPECT_EQ(obs::track_tid(events[1].track), 1u);  // notif lane
}

TEST(Tracer, RingOverwritesOldestWhenFull) {
  if (!obs::Tracer::compiled_in()) GTEST_SKIP() << "trace layer compiled out";
  obs::Tracer tr;
  tr.enable(4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    tr.instant(obs::Category::Sim, obs::EventName::PktSeen, 0,
               static_cast<sim::SimTime>(i), i);
  }
  EXPECT_EQ(tr.size(), 4u);
  EXPECT_EQ(tr.overwritten(), 6u);
  std::vector<std::uint64_t> kept;
  tr.for_each([&kept](const obs::TraceEvent& e) { kept.push_back(e.a0); });
  EXPECT_EQ(kept, (std::vector<std::uint64_t>{6, 7, 8, 9}));
}

TEST(Tracer, UnitKeyRoundTrips) {
  const net::UnitId u{5, 12, net::Direction::Egress};
  EXPECT_EQ(obs::unpack_unit(obs::pack_unit(u)), u);
}

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, ReadersReflectLiveValuesAndClashesGetSuffixed) {
  obs::MetricsRegistry reg;
  std::uint64_t counter = 0;
  const std::string a =
      reg.register_reader("x.count", obs::MetricKind::Counter,
                          [&counter] { return counter; });
  const std::string b = reg.register_reader(
      "x.count", obs::MetricKind::Counter, [] { return std::uint64_t{42}; });
  EXPECT_EQ(a, "x.count");
  EXPECT_EQ(b, "x.count#2");  // second registrant of the name

  counter = 9;
  const auto samples = reg.collect();
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0].name, "x.count");
  EXPECT_EQ(samples[0].value, 9u);
  EXPECT_EQ(samples[1].value, 42u);
}

TEST(MetricsRegistry, HistogramPercentilesAndFlattening) {
  obs::MetricsRegistry reg;
  obs::Histogram& h = reg.histogram("lat");
  EXPECT_EQ(&h, &reg.histogram("lat"));  // stable get-or-create
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_NEAR(h.mean(), 500.5, 0.001);
  // Log2 buckets: percentile() returns an upper bound for the bucket.
  EXPECT_GE(h.percentile(0.5), 500u);
  EXPECT_LE(h.percentile(0.5), 1024u);
  EXPECT_GE(h.percentile(0.99), 990u);

  const auto samples = reg.collect();
  std::vector<std::string> names;
  for (const auto& s : samples) names.push_back(s.name);
  EXPECT_NE(std::find(names.begin(), names.end(), "lat.count"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "lat.p99"), names.end());
}

TEST(MetricsRegistry, HistogramPercentilesNeverExceedObservedRange) {
  // Regression: a log2 bucket's upper bound can sit up to 2x above every
  // sample in it, so an unclamped percentile() reported impossible values
  // (fig10 registry dumps showed p50 > max). Percentiles must stay within
  // the observed [min, max] for any sample distribution.
  obs::Histogram h;
  // All mass in one bucket, far from its upper bound: [2^23, 2^24) holds
  // 14673982, but the bucket bound is 16777216.
  h.record(14673982);
  h.record(14673982);
  h.record(9000000);
  for (const double p : {0.0, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_GE(h.percentile(p), h.min()) << "p=" << p;
    EXPECT_LE(h.percentile(p), h.max()) << "p=" << p;
  }
  EXPECT_EQ(h.max(), 14673982u);
  EXPECT_EQ(h.percentile(0.5), 14673982u);  // Clamped bucket bound.

  // Single-sample histograms collapse every percentile to that sample.
  obs::Histogram one;
  one.record(12345);
  EXPECT_EQ(one.percentile(0.5), 12345u);
  EXPECT_EQ(one.percentile(0.99), 12345u);
}

// ---------------------------------------------------------------------------
// Chrome trace-event export: schema-checked with a minimal JSON parser.
// ---------------------------------------------------------------------------

/// A tiny recursive-descent JSON well-formedness checker (no values kept).
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool literal(const char* lit) {
    for (const char* c = lit; *c != '\0'; ++c, ++pos_) {
      if (pos_ >= s_.size() || s_[pos_] != *c) return false;
    }
    return true;
  }
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

TEST(ChromeTrace, EmptyTracerExportsValidJson) {
  obs::Tracer tr;
  std::ostringstream os;
  obs::write_chrome_trace(os, tr);
  const std::string out = os.str();
  EXPECT_TRUE(JsonChecker(out).valid()) << out;
  EXPECT_NE(out.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(out.find("\"displayTimeUnit\": \"ns\""), std::string::npos);
}

TEST(ChromeTrace, MultiTracerMergeIsSortedAndDeterministic) {
  if (!obs::Tracer::compiled_in()) GTEST_SKIP() << "trace layer compiled out";
  // Two tracers with interleaved, partially-equal timestamps. The export
  // must order events by (ts, tracer index, ring position) — a total,
  // input-order-independent key — so a merged export is one canonical
  // byte stream.
  obs::Tracer a;
  obs::Tracer b;
  a.enable(8);
  b.enable(8);
  a.instant(obs::Category::Observer, obs::EventName::ObsRequest, 1, 30, 0, 0);
  a.instant(obs::Category::Observer, obs::EventName::ObsRequest, 1, 10, 1, 0);
  b.instant(obs::Category::Observer, obs::EventName::PollRead, 2, 10, 3, 0);
  b.instant(obs::Category::Observer, obs::EventName::PollRead, 2, 10, 2, 0);

  std::ostringstream os;
  obs::write_chrome_trace(os, {&a, &b});
  const std::string out = os.str();
  ASSERT_TRUE(JsonChecker(out).valid()) << out;
  // Expected order by (ts, tracer, seq): a@10, b@10(first), b@10(second),
  // a@30 — readable off the a0 payloads (1, 3, 2, 0). Tracer index breaks
  // the a/b tie at ts=10; ring position orders b's equal-ts pair.
  std::vector<std::uint64_t> a0s;
  for (std::size_t p = out.find("\"a0\": "); p != std::string::npos;
       p = out.find("\"a0\": ", p + 1)) {
    a0s.push_back(std::strtoull(out.c_str() + p + 6, nullptr, 10));
  }
  EXPECT_EQ(a0s, (std::vector<std::uint64_t>{1, 3, 2, 0}));

  // Listing the tracers in the other order moves b's pair ahead of a's
  // equal-ts event — the tracer index is part of the key, so the stream
  // is a function of (events, tracer order), nothing else.
  std::ostringstream os2;
  obs::write_chrome_trace(os2, {&b, &a});
  EXPECT_NE(os2.str(), out);
  std::ostringstream os3;
  obs::write_chrome_trace(os3, {&a, &b});
  EXPECT_EQ(os3.str(), out);  // Re-export is bit-stable.
}

TEST(ChromeTrace, LiveNetworkExportMatchesSchema) {
  if (!obs::Tracer::compiled_in()) GTEST_SKIP() << "trace layer compiled out";
  core::NetworkOptions opt;
  opt.snapshot.channel_state = true;
  core::Network net(net::make_leaf_spine(2, 2, 2), opt);
  net.enable_tracing();

  std::vector<std::unique_ptr<wl::Generator>> gens;
  for (std::size_t h = 0; h < net.num_hosts(); ++h) {
    auto g = std::make_unique<wl::PoissonGenerator>(
        net.simulator(), net.host(h),
        std::vector<net::NodeId>{net.host_id((h + 1) % net.num_hosts())},
        20000.0, 1000, sim::Rng(77 + h));
    g->start(net.now());
    gens.push_back(std::move(g));
  }
  const auto* snap = net.take_snapshot(sim::msec(1));
  ASSERT_NE(snap, nullptr);
  ASSERT_TRUE(snap->complete);

  std::ostringstream os;
  obs::write_chrome_trace(os, net.tracer());
  const std::string out = os.str();
  ASSERT_TRUE(JsonChecker(out).valid());

  // Schema spot checks: the documented phases, metadata, and arg names.
  EXPECT_NE(out.find("\"ph\": \"M\""), std::string::npos);
  EXPECT_NE(out.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(out.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(out.find("\"name\": \"process_name\""), std::string::npos);
  EXPECT_NE(out.find("\"name\": \"thread_name\""), std::string::npos);
  EXPECT_NE(out.find("\"name\": \"snap.capture\""), std::string::npos);
  EXPECT_NE(out.find("\"name\": \"cp.initiate\""), std::string::npos);
  EXPECT_NE(out.find("\"name\": \"obs.complete\""), std::string::npos);
  EXPECT_NE(out.find("\"cat\": \"snapshot-state-machine\""), std::string::npos);
  EXPECT_NE(out.find("\"args\": {\"a0\":"), std::string::npos);

  // And the file-based exporter produces the same bytes.
  const std::string path = ::testing::TempDir() + "obs_test_trace.json";
  ASSERT_TRUE(net.export_chrome_trace(path));
  std::ifstream in(path);
  std::stringstream file;
  file << in.rdbuf();
  EXPECT_EQ(file.str(), out);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Snapshot timelines
// ---------------------------------------------------------------------------

TEST(SnapshotTimeline, CausalOrderingHoldsOnALiveNetwork) {
  if (!obs::Tracer::compiled_in()) GTEST_SKIP() << "trace layer compiled out";
  core::NetworkOptions opt;
  opt.snapshot.channel_state = true;
  core::Network net(net::make_leaf_spine(2, 2, 2), opt);
  net.enable_tracing();

  std::vector<std::unique_ptr<wl::Generator>> gens;
  for (std::size_t h = 0; h < net.num_hosts(); ++h) {
    auto g = std::make_unique<wl::PoissonGenerator>(
        net.simulator(), net.host(h),
        std::vector<net::NodeId>{net.host_id((h + 1) % net.num_hosts())},
        20000.0, 1000, sim::Rng(177 + h));
    g->start(net.now());
    gens.push_back(std::move(g));
  }
  const auto* snap = net.take_snapshot(sim::msec(1));
  ASSERT_NE(snap, nullptr);
  ASSERT_TRUE(snap->complete);
  ASSERT_TRUE(snap->excluded_devices.empty());

  const obs::SnapshotTimeline tl = net.snapshot_timeline(snap->id);
  EXPECT_EQ(tl.sid, snap->id);
  EXPECT_NE(tl.initiated, obs::SnapshotTimeline::kUnset);
  EXPECT_NE(tl.completed, obs::SnapshotTimeline::kUnset);

  // Every unit the observer collected must appear, causally ordered:
  // initiation <= capture <= notify <= cpu_process <= collect.
  EXPECT_EQ(tl.units.size(), snap->reports.size());
  EXPECT_TRUE(tl.causally_ordered());
  for (const auto& u : tl.units) {
    EXPECT_TRUE(u.causally_ordered())
        << "unit " << u.unit.node << "/" << u.unit.port;
    EXPECT_NE(u.collect, obs::UnitTimeline::kUnset);
  }
  EXPECT_GT(tl.complete_units(), 0u);

  // Skews and latencies are computable and sane.
  EXPECT_GE(tl.capture_skew(), 0);
  EXPECT_GE(tl.collect_skew(), 0);
  EXPECT_GE(tl.mean_notify_to_cpu(), 0.0);
  EXPECT_GE(tl.end_to_end(), 0);
  EXPECT_LE(tl.initiated, tl.completed);
}

TEST(SnapshotTimeline, UnknownSidYieldsEmptyTimeline) {
  obs::Tracer tr;
  const obs::SnapshotTimeline tl = obs::SnapshotTimeline::build(tr, 99);
  EXPECT_EQ(tl.units.size(), 0u);
  EXPECT_EQ(tl.initiated, obs::SnapshotTimeline::kUnset);
  EXPECT_TRUE(tl.causally_ordered());  // vacuously
}

// ---------------------------------------------------------------------------
// Registry on a live network
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, LiveNetworkRegistersAllSubsystems) {
  core::NetworkOptions opt;
  core::Network net(net::make_line(2), opt);
  net.take_snapshot(sim::msec(1));

  const auto samples = net.metrics().collect();
  auto has = [&samples](const std::string& name) {
    for (const auto& s : samples) {
      if (s.name == name) return true;
    }
    return false;
  };
  EXPECT_TRUE(has("sim.events.scheduled"));
  EXPECT_TRUE(has("sim.events.executed"));
  EXPECT_TRUE(has("observer.requested"));
  EXPECT_TRUE(has("observer.completed"));
  EXPECT_TRUE(has("polling.sweeps"));
  EXPECT_TRUE(has("switch.s0.queue_drops"));
  EXPECT_TRUE(has("switch.s0.notif.delivered"));
  EXPECT_TRUE(has("switch.s0.notif.max_backlog"));
  EXPECT_TRUE(has("switch.s0.snap.captures"));
  EXPECT_TRUE(has("cp.s0.initiations_sent"));
  EXPECT_TRUE(has("observer.completion_latency_ns.count"));

  std::ostringstream os;
  net.metrics().write_json(os);
  EXPECT_TRUE(JsonChecker(os.str()).valid()) << os.str();
}

}  // namespace
}  // namespace speedlight
