// Shared helpers for the figure/table reproduction harnesses: uniform
// headers, PASS/FAIL shape checks against the paper's qualitative claims,
// and machine-readable JSON result emission.
//
// speedlight-lint: allow-file(wall-clock) bench harnesses measure real
// elapsed time by definition; simulation code never includes this header.
//
// Every bench writes BENCH_<name>.json (schema "speedlight-bench-v2", see
// DESIGN.md "Performance methodology") so runs can be diffed across PRs:
//   { "bench": ..., "schema": ..., "wall_time_s": ...,
//     "checks_passed": N, "checks_failed": M, "metrics": {...},
//     "registry": {...} }
// where "registry" is the flight recorder's metrics dump (obs/metrics.hpp)
// of the last simulation the bench embedded, empty when none.
//
// Smoke mode (--smoke): heavily reduced iteration counts for CI. Shape
// checks still run, but the committed BENCH_*.json reference files are NOT
// overwritten (smoke numbers are not comparable) and the exit code stays 0
// unless a check fails.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace speedlight::bench {

inline int g_checks_failed = 0;
inline int g_checks_passed = 0;
inline bool g_smoke = false;
/// Non-empty: write the JSON report here even under --smoke (the
/// benchdiff CI job diffs freshly-built smoke JSONs against committed
/// smoke baselines, so smoke runs must be able to emit comparable files).
inline std::string g_json_out;

/// Parse the shared bench flags (--smoke, --json-out PATH). Call first in
/// main().
inline void parse_args(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) g_smoke = true;
    if (std::strcmp(argv[i], "--json-out") == 0 && i + 1 < argc) {
      g_json_out = argv[++i];
    }
  }
}

/// `full` normally, `smoke` under --smoke.
template <typename T>
[[nodiscard]] inline T scaled(T full, T smoke) {
  return g_smoke ? smoke : full;
}

inline void banner(const std::string& title, const std::string& paper_claim) {
  std::cout << "==============================================================\n"
            << title << "\n"
            << "Paper: " << paper_claim << "\n"
            << "==============================================================\n";
}

inline void check(bool ok, const std::string& what) {
  std::cout << (ok ? "[PASS] " : "[FAIL] ") << what << "\n";
  if (ok) {
    ++g_checks_passed;
  } else {
    ++g_checks_failed;
  }
}

/// Accumulates headline metrics for one bench run and renders the JSON
/// result file. Construct it first thing in main() so wall_time_s covers
/// the whole run.
class JsonReport {
 public:
  explicit JsonReport(std::string name)
      : name_(std::move(name)), start_(std::chrono::steady_clock::now()) {}

  void metric(const std::string& key, double value) {
    std::ostringstream os;
    os.precision(12);
    os << value;
    fields_.emplace_back(key, os.str());
  }

  void metric(const std::string& key, const std::string& value) {
    // Built by append, not operator+: the `"lit" + std::string&&` chain
    // trips a GCC 12 -Wrestrict false positive at -O2 (same workaround as
    // net::topology name()).
    std::string quoted;
    quoted.reserve(value.size() + 2);
    quoted += '"';
    quoted += escaped(value);
    quoted += '"';
    fields_.emplace_back(key, std::move(quoted));
  }

  /// Snapshot the flight recorder's registry into the report. The dump is
  /// rendered immediately (readers are cheap, cold-path), so call this while
  /// the simulation that owns the registry is still alive. Last call wins.
  void embed_registry(const obs::MetricsRegistry& reg) {
    std::ostringstream os;
    reg.write_json(os, /*indent=*/2);
    registry_ = os.str();
  }

  [[nodiscard]] double elapsed_seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

  [[nodiscard]] const std::string& name() const { return name_; }

  /// Write BENCH_<name>.json into the working directory (or the --json-out
  /// path). Smoke runs skip the write — reduced-iteration numbers must
  /// never clobber committed results — unless --json-out explicitly asks
  /// for a file somewhere else.
  void write() const {
    if (g_smoke && g_json_out.empty()) {
      std::cout << "Smoke mode: skipping BENCH_" << name_ << ".json\n";
      return;
    }
    const std::string path =
        g_json_out.empty() ? "BENCH_" + name_ + ".json" : g_json_out;
    std::ofstream out(path);
    out.precision(12);
    out << "{\n"
        << "  \"bench\": \"" << escaped(name_) << "\",\n"
        << "  \"schema\": \"speedlight-bench-v2\",\n"
        << "  \"wall_time_s\": " << elapsed_seconds() << ",\n"
        << "  \"checks_passed\": " << g_checks_passed << ",\n"
        << "  \"checks_failed\": " << g_checks_failed << ",\n"
        << "  \"metrics\": {";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      out << (i == 0 ? "\n" : ",\n") << "    \"" << escaped(fields_[i].first)
          << "\": " << fields_[i].second;
    }
    out << (fields_.empty() ? "},\n" : "\n  },\n");
    out << "  \"registry\": " << (registry_.empty() ? "{}" : registry_) << "\n"
        << "}\n";
    std::cout << "Wrote " << path << "\n";
  }

 private:
  static std::string escaped(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  }

  std::string name_;
  std::chrono::steady_clock::time_point start_;
  std::vector<std::pair<std::string, std::string>> fields_;
  std::string registry_;  ///< Pre-rendered registry JSON, "" when not embedded.
};

/// Print the verdict, emit the JSON result file, and return the exit code.
inline int finish(JsonReport& report) {
  report.write();
  if (g_checks_failed == 0) {
    std::cout << "\nAll shape checks passed.\n";
    return 0;
  }
  std::cout << "\n" << g_checks_failed << " shape check(s) FAILED.\n";
  return 1;
}

}  // namespace speedlight::bench
