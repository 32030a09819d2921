// speedlight_lint: project-specific static checks the compiler cannot
// express (DESIGN.md section 11). The simulator's correctness story leans on
// three properties the type system only partially guards:
//
//   1. Bit-determinism — equal seeds must replay byte-identically (the
//      fuzzer's shrink/replay loop, the golden traces, and --digest all
//      assume it). Wall clocks, libc rand, and iteration over pointer-keyed
//      unordered containers silently break it.
//   2. An allocation-free, devirtualized data path — the event core and
//      per-packet switch path were rebuilt around inline callbacks, slabs,
//      and pools (PR 1); a stray std::function, heap keyword, or virtual
//      added to src/net, src/switchlib, or the snapshot dataplane files
//      regresses both performance and determinism.
//   3. Audited atomics — in concurrency-scope files (src/sim, src/obs, the
//      data path) every relaxed/consume atomic access must carry an
//      adjacent allow pragma stating its happens-before argument.
//
// The linter scans source text (comments and string literals stripped),
// emits file:line diagnostics, and exits nonzero on any hit. Legitimate
// sites are suppressed in place and must say why:
//
//   // speedlight-lint: allow(rule-a, rule-b) <justification>
//       — suppresses the named rules on this line and the next one.
//   // speedlight-lint: allow-file(rule-a) <justification>
//       — suppresses for the whole file (interface headers, the
//         allocation-guard TU itself).
//
// A pragma with no justification text, or naming an unknown rule, is itself
// a diagnostic — every exemption stays auditable.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace speedlight::lint {

struct Diagnostic {
  std::string file;
  std::size_t line = 0;  ///< 1-based.
  std::string rule;
  std::string message;
};

struct RuleInfo {
  const char* name;
  const char* summary;
  bool datapath_only;  ///< Applies only to data-path files.
};

/// The rule set, in reporting order.
[[nodiscard]] const std::vector<RuleInfo>& rules();

/// True for files on the per-packet data path: everything under src/net/
/// and src/switchlib/, plus the snapshot dataplane files (dataplane.*,
/// typestate.hpp). The rest of src/snapshot is control-plane code where
/// std::function et al. are fine.
[[nodiscard]] bool is_datapath(const std::string& path);

/// True where the bare-memory-order rule applies: data-path files plus
/// src/sim/ and src/obs/ — everywhere atomics legitimately live.
[[nodiscard]] bool is_concurrency_scope(const std::string& path);

/// Scan one file's contents. `path` is used for diagnostics and for
/// data-path classification (the contents need not come from disk — the
/// fixture tests feed synthetic paths).
[[nodiscard]] std::vector<Diagnostic> scan_content(const std::string& path,
                                                   const std::string& content);

/// Recursively lint every .hpp/.cpp under `roots` (files are accepted too).
/// Prints diagnostics to stderr; returns the diagnostic count.
std::size_t run(const std::vector<std::string>& roots);

}  // namespace speedlight::lint
