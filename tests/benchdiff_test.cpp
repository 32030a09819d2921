// tools/benchdiff: gate-spec parsing, JSON flattening, and regression
// verdicts. The CLI is a thin wrapper over this library, so the exit-code
// contract (0 hold / 1 regress / 2 malformed) reduces to these cases.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>

#include "benchdiff/benchdiff.hpp"

namespace speedlight::benchdiff {
namespace {

using Flat = std::map<std::string, double>;

TEST(BenchdiffGate, ParsesTheThreeSpecShapes) {
  Gate g;
  ASSERT_TRUE(parse_gate("metrics.rounds:+2%", g));
  EXPECT_EQ(g.path, "metrics.rounds");
  EXPECT_TRUE(g.higher_is_worse);
  EXPECT_TRUE(g.relative);
  EXPECT_DOUBLE_EQ(g.tolerance, 2.0);

  ASSERT_TRUE(parse_gate("metrics.speedup:-10%", g));
  EXPECT_FALSE(g.higher_is_worse);
  EXPECT_TRUE(g.relative);
  EXPECT_DOUBLE_EQ(g.tolerance, 10.0);

  ASSERT_TRUE(parse_gate("checks_failed:+0", g));
  EXPECT_TRUE(g.higher_is_worse);
  EXPECT_FALSE(g.relative);
  EXPECT_DOUBLE_EQ(g.tolerance, 0.0);

  // Absolute slack, and a path containing a colon-free dotted array index.
  ASSERT_TRUE(parse_gate("profile.fabric.stalls:+5", g));
  EXPECT_FALSE(g.relative);
  EXPECT_DOUBLE_EQ(g.tolerance, 5.0);
}

TEST(BenchdiffGate, RejectsMalformedSpecs) {
  Gate g;
  for (const char* bad :
       {"metrics.rounds", "metrics.rounds:", "metrics.rounds:2%",
        "metrics.rounds:+", "metrics.rounds:+x%", ":+2%",
        "metrics.rounds:+-3", "metrics.rounds:+2%%"}) {
    EXPECT_FALSE(parse_gate(bad, g)) << bad;
  }
}

TEST(BenchdiffFlatten, DottedPathsBoolsAndArrays) {
  Flat flat;
  ASSERT_TRUE(flatten_json(
      R"({"a": 1, "b": {"c": 2.5, "d": [10, 20, {"e": -3e2}]},
          "s": "skip me", "t": true, "f": false, "n": null})",
      flat));
  EXPECT_DOUBLE_EQ(flat.at("a"), 1);
  EXPECT_DOUBLE_EQ(flat.at("b.c"), 2.5);
  EXPECT_DOUBLE_EQ(flat.at("b.d.0"), 10);
  EXPECT_DOUBLE_EQ(flat.at("b.d.1"), 20);
  EXPECT_DOUBLE_EQ(flat.at("b.d.2.e"), -300);
  EXPECT_DOUBLE_EQ(flat.at("t"), 1);
  EXPECT_DOUBLE_EQ(flat.at("f"), 0);
  EXPECT_EQ(flat.count("s"), 0u);  // Strings carry no numeric value.
  EXPECT_EQ(flat.count("n"), 0u);
  EXPECT_EQ(flat.size(), 7u);
}

TEST(BenchdiffFlatten, AcceptsTheBenchWriterOutput) {
  // Shape emitted by bench_common.hpp (v2 schema with a registry dump).
  Flat flat;
  ASSERT_TRUE(flatten_json(
      R"({
  "bench": "fig11_scalability",
  "schema": "speedlight-bench-v2",
  "wall_time_s": 1.5,
  "checks_passed": 21,
  "checks_failed": 0,
  "metrics": {
    "fat_tree.k16.completed": 3,
    "fat_tree.k16.label": "k16"
  },
  "registry": {
    "cp.s0.reports_sent": 90,
    "sim.events.executed": 11640
  }
})",
      flat));
  EXPECT_DOUBLE_EQ(flat.at("checks_failed"), 0);
  EXPECT_DOUBLE_EQ(flat.at("metrics.fat_tree.k16.completed"), 3);
  EXPECT_EQ(flat.count("metrics.fat_tree.k16.label"), 0u);
  EXPECT_DOUBLE_EQ(flat.at("registry.cp.s0.reports_sent"), 90);
  EXPECT_DOUBLE_EQ(flat.at("registry.sim.events.executed"), 11640);
}

TEST(BenchdiffFlatten, RejectsMalformedJson) {
  Flat flat;
  std::string err;
  EXPECT_FALSE(flatten_json("{\"a\": }", flat, &err));
  EXPECT_NE(err, "");
  EXPECT_FALSE(flatten_json("{\"a\": 1", flat));
  EXPECT_FALSE(flatten_json("{\"a\": 1} trailing", flat));
  EXPECT_FALSE(flatten_json("", flat));
}

Gate gate(const std::string& spec) {
  Gate g;
  EXPECT_TRUE(parse_gate(spec, g)) << spec;
  return g;
}

TEST(BenchdiffEvaluate, HigherIsWorseGuardsRisesOnly) {
  const Flat base{{"m", 100}};
  EXPECT_TRUE(evaluate(gate("m:+2%"), base, Flat{{"m", 102}}).ok);
  EXPECT_FALSE(evaluate(gate("m:+2%"), base, Flat{{"m", 102.1}}).ok);
  // Improvements never fail a '+' gate, however large.
  EXPECT_TRUE(evaluate(gate("m:+2%"), base, Flat{{"m", 1}}).ok);
}

TEST(BenchdiffEvaluate, LowerIsWorseGuardsFallsOnly) {
  const Flat base{{"m", 2.0}};
  EXPECT_TRUE(evaluate(gate("m:-10%"), base, Flat{{"m", 1.8}}).ok);
  EXPECT_FALSE(evaluate(gate("m:-10%"), base, Flat{{"m", 1.79}}).ok);
  EXPECT_TRUE(evaluate(gate("m:-10%"), base, Flat{{"m", 99}}).ok);
}

TEST(BenchdiffEvaluate, ZeroToleranceIsExactUpward) {
  const Flat base{{"checks_failed", 0}};
  EXPECT_TRUE(evaluate(gate("checks_failed:+0"), base,
                       Flat{{"checks_failed", 0}})
                  .ok);
  EXPECT_FALSE(evaluate(gate("checks_failed:+0"), base,
                        Flat{{"checks_failed", 1}})
                   .ok);
}

TEST(BenchdiffEvaluate, MissingGatedPathFails) {
  const Flat has{{"m", 1}};
  const Flat empty;
  GateResult r = evaluate(gate("m:+2%"), empty, has);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(r.missing);
  r = evaluate(gate("m:+2%"), has, empty);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(r.missing);
}

TEST(BenchdiffDiff, CountsFailuresAndReportsEveryGate) {
  const Flat base{{"a", 100}, {"b", 2.0}};
  const Flat fresh{{"a", 110}, {"b", 2.0}};
  std::ostringstream os;
  const std::size_t failed =
      diff(base, fresh, {gate("a:+2%"), gate("b:-10%")}, os);
  EXPECT_EQ(failed, 1u);
  EXPECT_NE(os.str().find("[FAIL] a"), std::string::npos);
  EXPECT_NE(os.str().find("[OK]   b"), std::string::npos);
}

}  // namespace
}  // namespace speedlight::benchdiff
