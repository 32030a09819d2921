#include "manifest.hpp"

#include <sched.h>

#include <cstdlib>
#include <thread>

#ifndef PERFBENCH_COMMIT
#define PERFBENCH_COMMIT "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

double load_average() {
  double load[1] = {-1};
  return getloadavg(load, 1) == 1 ? load[0] : -1;
}

unsigned usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<unsigned>(CPU_COUNT(&set));
  }
  return std::thread::hardware_concurrency();
}

void json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
  os << '"';
}

}  // namespace

Manifest Manifest::capture() {
  Manifest m;
  m.commit = PERFBENCH_COMMIT;
  m.build_type = PERFBENCH_BUILD_TYPE;
#ifdef __OPTIMIZE__
  m.optimized = true;
#endif
#if defined(__clang__)
  m.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  m.compiler = "gcc " __VERSION__;
#endif
  m.nproc = usable_cpus();
  m.load_start = load_average();
  return m;
}

void Manifest::finish() { load_end = load_average(); }

std::vector<std::string> Manifest::required_fields() {
  return {"commit",     "build_type", "optimized", "compiler", "nproc",
          "load_start", "load_end",   "workload",  "seed",     "seconds",
          "trace",      "params"};
}

void Manifest::write_json(std::ostream& os) const {
  os << "{\"commit\":";
  json_string(os, commit);
  os << ",\"build_type\":";
  json_string(os, build_type);
  os << ",\"optimized\":" << (optimized ? "true" : "false")
     << ",\"compiler\":";
  json_string(os, compiler);
  os << ",\"nproc\":" << nproc << ",\"load_start\":" << load_start
     << ",\"load_end\":" << load_end << ",\"workload\":";
  json_string(os, workload);
  os << ",\"seed\":" << seed << ",\"seconds\":" << seconds
     << ",\"trace\":" << (trace ? "true" : "false") << ",\"params\":{";
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (i != 0) os << ",";
    json_string(os, params[i].first);
    os << ":";
    json_string(os, params[i].second);
  }
  os << "}}";
}

}  // namespace perfbench
