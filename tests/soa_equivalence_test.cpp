// SoA refactor equivalence battery: the struct-of-arrays topology core,
// lazy port materialization, compact interned routes, and streaming
// metrics must be *observationally invisible* — every scenario's end-state
// digest (FNV-1a over all completed snapshots, see check/fuzzer.cpp) must
// be byte-identical across repeated runs in one process, for the whole
// committed corpus plus 100 fresh generated seeds.
//
// The same two inputs also pin down the observer's streaming assembly: a
// snapshot campaign's results must not depend on how many assembly shards
// (digest-map partitions, see snapshot/observer.hpp) the rounds are
// folded into.
//
// Equality is asserted within one process run rather than against
// absolute pinned constants: scenario generation draws from libm
// (exponential gaps), so constants would pin the math library, not the
// protocol.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "check/fuzzer.hpp"
#include "check/scenario.hpp"
#include "core/experiment.hpp"
#include "core/network.hpp"
#include "snapshot/observer.hpp"
#include "workload/basic.hpp"

#ifndef SPEEDLIGHT_CORPUS_DIR
#error "SPEEDLIGHT_CORPUS_DIR must point at tests/corpus"
#endif

namespace speedlight {
namespace {

std::vector<std::string> corpus_files() {
  std::vector<std::string> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(SPEEDLIGHT_CORPUS_DIR)) {
    if (entry.path().extension() == ".scenario") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

check::RunResult run(const check::Scenario& s) {
  return check::run_scenario(s, {.with_oracle = true});
}

/// Same scenario, twice in one process: the digest is a pure function of
/// the scenario (no hidden global state in the SoA arenas or the interned
/// route pool). Returns the first run.
check::RunResult run_twice(const check::Scenario& s) {
  const auto a = run(s);
  const auto b = run(s);
  EXPECT_EQ(a.digest, b.digest) << s.label();
  EXPECT_EQ(a.completed, b.completed) << s.label();
  return a;
}

TEST(SoaEquivalence, SerialRunsAreReproducible) {
  // The whole committed corpus, then 100 generated scenarios — the full
  // spread of topologies, faults, and protocol variants.
  ASSERT_GE(corpus_files().size(), 4u);
  for (const auto& path : corpus_files()) {
    SCOPED_TRACE(path);
    const check::Scenario s = check::load_scenario(path);
    EXPECT_GT(run_twice(s).completed, 0u) << s.label();
  }
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    run_twice(check::generate_scenario(seed));
  }
}

/// Everything a campaign round exposes, copied out of a GlobalSnapshot
/// (the snapshots die with their Network).
struct RoundSummary {
  bool complete = false;
  sim::SimTime completed_at = 0;
  std::size_t consistent = 0;
  std::uint64_t local_total = 0;
  std::uint64_t full_total = 0;
  sim::Duration advance_span = 0;
  sim::Duration finalize_span = 0;
  std::size_t excluded = 0;
  std::size_t digested_devices = 0;
  /// Per-unit (local, channel) values of the consistent units.
  std::map<net::UnitId, std::pair<std::uint64_t, std::uint64_t>> values;

  friend bool operator==(const RoundSummary&, const RoundSummary&) = default;
};

/// Build the scenario's fabric with its network options, observer folding
/// into `assembly_shards` digest partitions; drive all-to-all traffic from
/// the scenario's generator count, rate and packet size, and run a short
/// snapshot campaign. Returns one summary per completed round.
std::vector<RoundSummary> campaign_at(const check::Scenario& s,
                                      std::uint32_t assembly_shards) {
  core::NetworkOptions opt = s.network_options();
  opt.observer.assembly_shards = assembly_shards;
  core::Network net(s.topology(), opt);

  std::vector<std::unique_ptr<wl::Generator>> gens;
  const std::size_t hosts = net.num_hosts();
  for (std::size_t h = 0; h < std::min(s.workload.generators, hosts); ++h) {
    std::vector<net::NodeId> dsts;
    for (std::size_t d = 0; d < hosts; ++d) {
      if (d != h) dsts.push_back(net.host_id(d));
    }
    if (dsts.empty()) continue;
    gens.push_back(std::make_unique<wl::PoissonGenerator>(
        net.simulator(), net.host(h), std::move(dsts), s.workload.rate_pps,
        s.workload.packet_size, sim::Rng(s.seed * 977 + h)));
    gens.back()->start(net.now());
  }
  net.run_for(sim::msec(1));
  const auto campaign = core::run_snapshot_campaign(net, 3, sim::msec(2));

  std::vector<RoundSummary> out;
  for (const snap::GlobalSnapshot* g : campaign.results(net)) {
    EXPECT_EQ(g->digests.size(), assembly_shards);
    RoundSummary r;
    r.complete = g->complete;
    r.completed_at = g->completed_at;
    r.consistent = g->consistent_count();
    r.local_total = g->total_value(false);
    r.full_total = g->total_value(true);
    r.advance_span = g->advance_span();
    r.finalize_span = g->finalize_span();
    r.excluded = g->excluded_devices.size();
    for (const auto& shard : g->digests) r.digested_devices += shard.size();
    for (const auto& [unit, rep] : g->reports) {
      if (rep.consistent) r.values[unit] = {rep.local_value, rep.channel_value};
    }
    out.push_back(std::move(r));
  }
  return out;
}

/// One observer assembly shard against four: every round identical.
/// Returns the number of rounds compared.
std::size_t expect_assembly_shard_invariant(const check::Scenario& s) {
  const auto one = campaign_at(s, 1);
  const auto four = campaign_at(s, 4);
  EXPECT_EQ(one.size(), four.size()) << s.label();
  EXPECT_TRUE(one == four) << s.label();
  return one.size();
}

TEST(SoaEquivalence, CorpusDigestsShardInvariant) {
  ASSERT_GE(corpus_files().size(), 4u);
  for (const auto& path : corpus_files()) {
    SCOPED_TRACE(path);
    const check::Scenario s = check::load_scenario(path);
    EXPECT_GT(expect_assembly_shard_invariant(s), 0u) << s.label();
  }
}

TEST(SoaEquivalence, FreshSeedsShardInvariant) {
  // 100 generated scenarios, the full spread of topologies and protocol
  // variants. Every one must assemble identically at 1 and 4 shards.
  std::size_t rounds = 0;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    rounds += expect_assembly_shard_invariant(check::generate_scenario(seed));
  }
  EXPECT_GT(rounds, 0u);
}

}  // namespace
}  // namespace speedlight
