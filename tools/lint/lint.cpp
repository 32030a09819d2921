#include "lint/lint.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

namespace speedlight::lint {

namespace {

const std::vector<RuleInfo> kRules = {
    {"wall-clock",
     "wall-clock time source (chrono clocks, gettimeofday); sim time only",
     false},
    {"raw-rand",
     "libc/unseeded randomness (rand, srand, random_device); use sim::Rng",
     false},
    {"pointer-keyed-container",
     "unordered container keyed by pointer: iteration order is ASLR-dependent",
     false},
    {"std-function-in-datapath",
     "std::function on the data path; use sim::InplaceFunction", true},
    {"datapath-alloc",
     "heap-allocation keyword on the data path (new/make_unique/malloc)",
     true},
    {"virtual-in-datapath", "virtual dispatch added to the data path", true},
    {"raw-new-delete",
     "raw new/delete outside the pool and slab allocators", false},
    {"mutable-static",
     "unguarded mutable static state; use const/constexpr, thread_local, or "
     "std::atomic",
     false},
    {"bare-memory-order",
     "weak atomic ordering (relaxed/consume) without an adjacent "
     "speedlight-lint allow pragma stating why it is safe (DESIGN.md "
     "section 11 audit)",
     false},
};

bool known_rule(const std::string& name) {
  return std::any_of(kRules.begin(), kRules.end(),
                     [&](const RuleInfo& r) { return name == r.name; });
}

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Find `tok` in `s` as a whole word: the characters adjacent to the match
/// must not be identifier characters. Tokens may embed punctuation
/// ("std::rand", "rand(") — only the match edges are boundary-checked.
std::size_t find_word(const std::string& s, const std::string& tok,
                      std::size_t pos = 0) {
  while (true) {
    const std::size_t i = s.find(tok, pos);
    if (i == std::string::npos) return std::string::npos;
    // Boundary checks only apply where the token edge is itself an
    // identifier character ("malloc(" ends at '(' — whatever follows is the
    // argument, not part of a longer identifier).
    const bool left_ok =
        !ident_char(tok.front()) || i == 0 || !ident_char(s[i - 1]);
    const std::size_t end = i + tok.size();
    const bool right_ok =
        !ident_char(tok.back()) || end >= s.size() || !ident_char(s[end]);
    if (left_ok && right_ok) return i;
    pos = i + 1;
  }
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> out;
  std::string cur;
  for (const char c : text) {
    if (c == '\n') {
      out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  out.push_back(cur);
  return out;
}

/// Replace comments and string/char literal contents with spaces, preserving
/// line structure, so the matchers only ever see code. (The repo has no raw
/// string literals; the pragma parser runs on the raw lines separately.)
std::vector<std::string> strip_comments_and_strings(const std::string& text) {
  std::vector<std::string> out;
  std::string cur;
  enum class St { Code, LineComment, BlockComment, Str, Chr };
  St st = St::Code;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    const char n = i + 1 < text.size() ? text[i + 1] : '\0';
    if (c == '\n') {
      if (st == St::LineComment) st = St::Code;
      out.push_back(cur);
      cur.clear();
      continue;
    }
    switch (st) {
      case St::Code:
        if (c == '/' && n == '/') {
          st = St::LineComment;
          cur += "  ";
          ++i;
        } else if (c == '/' && n == '*') {
          st = St::BlockComment;
          cur += "  ";
          ++i;
        } else if (c == '"') {
          st = St::Str;
          cur += ' ';
        } else if (c == '\'') {
          st = St::Chr;
          cur += ' ';
        } else {
          cur += c;
        }
        break;
      case St::LineComment:
        cur += ' ';
        break;
      case St::BlockComment:
        if (c == '*' && n == '/') {
          st = St::Code;
          cur += "  ";
          ++i;
        } else {
          cur += ' ';
        }
        break;
      case St::Str:
      case St::Chr: {
        const char quote = st == St::Str ? '"' : '\'';
        if (c == '\\') {
          cur += "  ";
          ++i;
        } else if (c == quote) {
          st = St::Code;
          cur += ' ';
        } else {
          cur += ' ';
        }
        break;
      }
    }
  }
  out.push_back(cur);
  return out;
}

struct Pragmas {
  std::set<std::string> file_allow;
  /// Pragma line index (0-based) -> rules it suppresses. A line pragma
  /// covers its own line and the one below it, so it can share a line with
  /// the offending code or sit directly above it.
  std::map<std::size_t, std::set<std::string>> line_allow;
  std::vector<Diagnostic> errors;
};

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  return s.substr(b, e - b);
}

Pragmas parse_pragmas(const std::string& path,
                      const std::vector<std::string>& raw_lines) {
  static const std::string kMarker = "speedlight-lint:";
  Pragmas out;
  for (std::size_t l = 0; l < raw_lines.size(); ++l) {
    const std::string& line = raw_lines[l];
    const std::size_t m = line.find(kMarker);
    if (m == std::string::npos) continue;
    const auto bad = [&](const std::string& msg) {
      out.errors.push_back({path, l + 1, "bad-pragma", msg});
    };
    std::size_t p = m + kMarker.size();
    while (p < line.size() && line[p] == ' ') ++p;
    bool file_scope = false;
    if (line.compare(p, 11, "allow-file(") == 0) {
      file_scope = true;
      p += 11;
    } else if (line.compare(p, 6, "allow(") == 0) {
      p += 6;
    } else {
      bad("expected allow(...) or allow-file(...) after speedlight-lint:");
      continue;
    }
    const std::size_t close = line.find(')', p);
    if (close == std::string::npos) {
      bad("unterminated allow(...) rule list");
      continue;
    }
    std::set<std::string> named;
    bool list_ok = true;
    std::stringstream list(line.substr(p, close - p));
    std::string rule;
    while (std::getline(list, rule, ',')) {
      rule = trim(rule);
      if (rule.empty()) continue;
      if (!known_rule(rule)) {
        bad("unknown rule '" + rule + "' in allow pragma");
        list_ok = false;
        continue;
      }
      named.insert(rule);
    }
    if (!list_ok) continue;
    if (named.empty()) {
      bad("allow pragma names no rules");
      continue;
    }
    // Exemptions must be auditable: demand a justification after the ')'.
    if (trim(line.substr(close + 1)).empty()) {
      bad("allow pragma needs a justification after the rule list");
      continue;
    }
    if (file_scope) {
      out.file_allow.insert(named.begin(), named.end());
    } else {
      out.line_allow[l].insert(named.begin(), named.end());
    }
  }
  return out;
}

/// Does the first template argument after `open_angle` contain a `*` at
/// template depth 0 (i.e. the container key is a pointer)?
bool pointer_key(const std::string& s, std::size_t open_angle) {
  int depth = 0;
  for (std::size_t i = open_angle + 1; i < s.size(); ++i) {
    const char c = s[i];
    if (c == '<') {
      ++depth;
    } else if (c == '>') {
      if (depth == 0) return false;  // set<K>: key ends here.
      --depth;
    } else if (c == ',' && depth == 0) {
      return false;  // map<K, V>: key ends here.
    } else if (c == '*' && depth == 0) {
      return true;
    }
  }
  return false;  // Declaration continues on the next line: out of scope.
}

struct Matcher {
  const char* rule;
  std::vector<std::string> tokens;
};

const std::vector<Matcher> kGlobalTokens = {
    {"wall-clock",
     {"steady_clock", "system_clock", "high_resolution_clock", "gettimeofday",
      "clock_gettime", "timespec_get", "std::clock", "time(nullptr)",
      "time(NULL)", "time(0)"}},
    {"raw-rand", {"std::rand", "srand", "random_device", "rand("}},
};

const std::vector<Matcher> kDatapathTokens = {
    {"std-function-in-datapath", {"std::function"}},
    {"datapath-alloc",
     {"new", "make_unique", "make_shared", "malloc(", "calloc(", "realloc("}},
    {"virtual-in-datapath", {"virtual"}},
};

}  // namespace

const std::vector<RuleInfo>& rules() { return kRules; }

bool is_datapath(const std::string& path) {
  std::string p = path;
  std::replace(p.begin(), p.end(), '\\', '/');
  const auto in_dir = [&](const std::string& dir) {
    return p.find(dir) != std::string::npos || p.rfind(dir.substr(1), 0) == 0;
  };
  if (in_dir("/src/net/") || in_dir("/src/switchlib/")) return true;
  if (in_dir("/src/snapshot/")) {
    const std::size_t slash = p.find_last_of('/');
    const std::string base = p.substr(slash + 1);
    return base == "dataplane.hpp" || base == "dataplane.cpp" ||
           base == "typestate.hpp";
  }
  return false;
}

bool is_concurrency_scope(const std::string& path) {
  if (is_datapath(path)) return true;
  std::string p = path;
  std::replace(p.begin(), p.end(), '\\', '/');
  const auto in_dir = [&](const std::string& dir) {
    return p.find(dir) != std::string::npos || p.rfind(dir.substr(1), 0) == 0;
  };
  return in_dir("/src/sim/") || in_dir("/src/obs/");
}

std::vector<Diagnostic> scan_content(const std::string& path,
                                     const std::string& content) {
  const bool datapath = is_datapath(path);
  const bool concurrency = is_concurrency_scope(path);
  const std::vector<std::string> raw = split_lines(content);
  const Pragmas pragmas = parse_pragmas(path, raw);
  const std::vector<std::string> code = strip_comments_and_strings(content);

  std::vector<Diagnostic> out = pragmas.errors;
  const auto allowed = [&](std::size_t line_idx, const char* rule) {
    if (pragmas.file_allow.count(rule) != 0) return true;
    const auto hit = [&](std::size_t l) {
      const auto it = pragmas.line_allow.find(l);
      return it != pragmas.line_allow.end() && it->second.count(rule) != 0;
    };
    if (hit(line_idx)) return true;
    // A pragma covers the line below it; justifications often need more
    // than one comment line, so keep climbing through the contiguous
    // comment-only block directly above. The immediate predecessor is
    // checked even when it is code (pragma sharing a line with other
    // statements); anything further must be pure comment.
    std::size_t l = line_idx;
    while (l > 0) {
      --l;
      if (hit(l)) return true;
      if (trim(raw[l]).rfind("//", 0) != 0) break;
    }
    return false;
  };
  const auto summary = [&](const char* rule) -> const char* {
    for (const RuleInfo& r : kRules) {
      if (std::string(rule) == r.name) return r.summary;
    }
    return "";
  };
  const auto report = [&](std::size_t line_idx, const char* rule,
                          const std::string& what) {
    if (allowed(line_idx, rule)) return;
    out.push_back(
        {path, line_idx + 1, rule, what + ": " + summary(rule)});
  };

  for (std::size_t l = 0; l < code.size(); ++l) {
    const std::string& s = code[l];
    // Skip preprocessor directives: flagging `#include <new>` or <random>
    // would punish naming a header, not using it.
    const std::size_t first = s.find_first_not_of(" \t");
    if (first == std::string::npos || s[first] == '#') continue;

    for (const Matcher& m : kGlobalTokens) {
      for (const std::string& tok : m.tokens) {
        if (find_word(s, tok) != std::string::npos) {
          report(l, m.rule, "'" + tok + "'");
          break;
        }
      }
    }
    for (const char* cont : {"unordered_map<", "unordered_set<"}) {
      const std::string tok(cont);
      const std::size_t i = find_word(s, tok);
      if (i != std::string::npos && pointer_key(s, i + tok.size() - 1)) {
        report(l, "pointer-keyed-container", "'" + tok + "T*, ...>'");
      }
    }
    if (datapath) {
      for (const Matcher& m : kDatapathTokens) {
        for (const std::string& tok : m.tokens) {
          if (find_word(s, tok) != std::string::npos) {
            report(l, m.rule, "'" + tok + "'");
            break;
          }
        }
      }
    }
    // Weak orderings are correct only under a happens-before argument the
    // compiler cannot check; concurrency-scope files must state it next to
    // the load/store (acquire/release and seq_cst need no pragma — they
    // are the safe defaults).
    if (concurrency) {
      for (const char* tok : {"memory_order_relaxed", "memory_order_consume"}) {
        if (find_word(s, tok) != std::string::npos) {
          report(l, "bare-memory-order", std::string("'") + tok + "'");
          break;
        }
      }
    }
    // Raw new/delete applies everywhere (pools/slabs carry pragmas).
    // `= delete`d functions are not deletions; skip a match whose previous
    // non-space character is '='.
    if (find_word(s, "new") != std::string::npos) {
      report(l, "raw-new-delete", "'new'");
    }
    std::size_t d = find_word(s, "delete");
    while (d != std::string::npos) {
      std::size_t prev = d;
      while (prev > 0 && s[prev - 1] == ' ') --prev;
      if (prev == 0 || s[prev - 1] != '=') {
        report(l, "raw-new-delete", "'delete'");
        break;
      }
      d = find_word(s, "delete", d + 1);
    }
    // Mutable static state: a `static` declaration with no const/constexpr/
    // thread_local/atomic qualifier on the same line. Static *functions* are
    // excluded by shape — a '(' before any '=' is a parameter list, not an
    // initializer (`static Foo f(args);` direct-init slips through as a
    // false negative; the repo uses `=` init throughout). static_cast and
    // static_assert never match: find_word demands a word boundary.
    const std::size_t st = find_word(s, "static");
    if (st != std::string::npos) {
      bool guarded = false;
      for (const char* q : {"const", "constexpr", "consteval", "constinit",
                            "thread_local", "atomic"}) {
        if (find_word(s, q) != std::string::npos) {
          guarded = true;
          break;
        }
      }
      const std::size_t paren = s.find('(', st);
      const std::size_t eq = s.find('=', st);
      const bool function_like =
          paren != std::string::npos &&
          (eq == std::string::npos || paren < eq);
      if (!guarded && !function_like) {
        report(l, "mutable-static", "'static'");
      }
    }
  }

  std::sort(out.begin(), out.end(), [](const Diagnostic& a,
                                       const Diagnostic& b) {
    return std::tie(a.file, a.line, a.rule) < std::tie(b.file, b.line, b.rule);
  });
  return out;
}

std::size_t run(const std::vector<std::string>& roots) {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  for (const std::string& root : roots) {
    if (fs::is_directory(root)) {
      for (const auto& e : fs::recursive_directory_iterator(root)) {
        if (!e.is_regular_file()) continue;
        const std::string ext = e.path().extension().string();
        if (ext == ".hpp" || ext == ".cpp" || ext == ".h" || ext == ".cc") {
          files.push_back(e.path().generic_string());
        }
      }
    } else {
      files.push_back(root);
    }
  }
  std::sort(files.begin(), files.end());

  std::size_t count = 0;
  for (const std::string& f : files) {
    std::ifstream in(f, std::ios::binary);
    if (!in) {
      std::cerr << f << ":0: [io] cannot read file\n";
      ++count;
      continue;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    for (const Diagnostic& d : scan_content(f, buf.str())) {
      std::cerr << d.file << ":" << d.line << ": [" << d.rule << "] "
                << d.message << "\n";
      ++count;
    }
  }
  std::cerr << "speedlight_lint: " << files.size() << " file(s), " << count
            << " diagnostic(s)\n";
  return count;
}

}  // namespace speedlight::lint
