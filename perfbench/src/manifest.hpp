// Run manifest: what produced a set of numbers. Printed with every run so
// figures from an unoptimized build or a loaded machine are recognisable.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Manifest {
  std::string commit;      ///< Source commit, "unknown" outside a git tree.
  std::string build_type;  ///< CMake build type the binary was built with.
  bool optimized = false;  ///< __OPTIMIZE__ was defined when compiling.
  std::string compiler;
  unsigned nproc = 0;      ///< CPUs this process may run on.
  double load_start = -1;  ///< 1-minute load average at start (-1 unknown).
  double load_end = -1;
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  /// Workload parameters (topology, traffic, cadence, periods), as text.
  std::vector<std::pair<std::string, std::string>> params;

  /// Fill the build and machine fields (commit, build type, optimization,
  /// compiler, nproc, start load).
  static Manifest capture();
  /// Record the end-of-run load average.
  void finish();

  /// Names of the fields every manifest must carry (self-test contract).
  [[nodiscard]] static std::vector<std::string> required_fields();
  /// The manifest as one JSON object on one line.
  void write_json(std::ostream& os) const;
};

}  // namespace perfbench
