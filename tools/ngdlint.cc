// ngdlint: dependency-free scanner enforcing ngd project invariants that
// no generic linter knows about. Rules:
//
//   failpoint-unarmed   every NGD_FAILPOINT("site") marker in src/ must
//                       be armed by at least one test under tests/ (an
//                       ArmSite call naming the site). A failpoint no
//                       test fires is untested crash handling.
//   magic-duplicate /   each binary-format magic (NGDWAL1, NGDSNAP1,
//   magic-missing       NGDVSEG1) must be defined exactly once
//                       in src/ — a second copy is a fork of the format.
//                       Both char-array initializers and exact string
//                       literals count as definitions; substrings inside
//                       longer literals (error messages) do not.
//   fnv-duplicate       the FNV-1a 64 prime (1099511628211 or
//                       0x100000001b3) in src/ code outside util/hash.h —
//                       a private copy of the hash every checksummed
//                       format and the Σ-cache key share (comments and
//                       string literals do not count).
//   edge-map-duplicate  std::unordered_map<EdgeKey, ...> or
//                       std::unordered_set<EdgeKey> in src/ code — a
//                       node-per-entry hash table beside EdgeMap
//                       (graph/graph.h), the flat index edge-keyed
//                       lookups share (comments and string literals do
//                       not count).
//   naked-new           `new` outside a smart-pointer factory in src/.
//   banned-rand /       rand() (use util/rng.h), std::endl (use '\n'),
//   banned-endl /       time() (use util/timer.h) in library code.
//   banned-time
//   missing-include     a src/ header uses a std:: type but does not
//                       directly include the header that defines it —
//                       i.e. it compiles by include-order luck.
//   include-cycle       the `#include "..."` graph over src/ must be
//                       acyclic.
//   include-guard       every src/ header carries an NGD_*_H_ guard.
//
// Suppression: a line (or the line above it) containing
// `ngdlint:allow(<rule>)` in a comment silences that rule for the line.
//
// The tool reads sources only; it never executes or modifies anything.

#include "ngdlint.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace ngdlint {
namespace {

namespace fs = std::filesystem;

// ---- Source views --------------------------------------------------------

// One scanned file. `code` is the raw text with comments blanked to
// spaces (string/char literals intact); `blank` additionally blanks the
// bodies of string and char literals. Both preserve byte offsets and
// line structure, so positions map 1:1 onto the raw file.
struct Source {
  std::string path;  // relative to lint root, '/' separators
  std::string raw;
  std::string code;
  std::string blank;
};

void BuildViews(Source* s) {
  const std::string& in = s->raw;
  std::string code(in), blank(in);
  enum { kNormal, kLine, kBlock, kStr, kChar, kRawStr } st = kNormal;
  std::string raw_delim;  // for R"delim( ... )delim"
  for (size_t i = 0; i < in.size(); ++i) {
    const char c = in[i];
    const char next = i + 1 < in.size() ? in[i + 1] : '\0';
    switch (st) {
      case kNormal:
        if (c == '/' && next == '/') {
          st = kLine;
          code[i] = blank[i] = ' ';
        } else if (c == '/' && next == '*') {
          st = kBlock;
          code[i] = blank[i] = ' ';
        } else if (c == '"' && i >= 1 && in[i - 1] == 'R') {
          st = kRawStr;
          raw_delim = ")";
          for (size_t j = i + 1; j < in.size() && in[j] != '('; ++j) {
            raw_delim += in[j];
          }
          raw_delim += '"';
        } else if (c == '"') {
          st = kStr;
        } else if (c == '\'' && !(i >= 1 && (std::isalnum(in[i - 1]) ||
                                             in[i - 1] == '_'))) {
          // Apostrophe preceded by an identifier char is a digit
          // separator (1'000'000), not a char literal.
          st = kChar;
        }
        break;
      case kLine:
        if (c == '\n') {
          st = kNormal;
        } else {
          code[i] = blank[i] = ' ';
        }
        break;
      case kBlock:
        if (c == '*' && next == '/') {
          code[i] = blank[i] = ' ';
          code[i + 1] = blank[i + 1] = ' ';
          ++i;
          st = kNormal;
        } else if (c != '\n') {
          code[i] = blank[i] = ' ';
        }
        break;
      case kStr:
        if (c == '\\') {
          blank[i] = ' ';
          if (next != '\n') blank[i + 1] = ' ';
          ++i;
        } else if (c == '"') {
          st = kNormal;
        } else if (c != '\n') {
          blank[i] = ' ';
        }
        break;
      case kChar:
        if (c == '\\') {
          blank[i] = ' ';
          if (next != '\n') blank[i + 1] = ' ';
          ++i;
        } else if (c == '\'') {
          st = kNormal;
        } else {
          blank[i] = ' ';
        }
        break;
      case kRawStr:
        if (in.compare(i, raw_delim.size(), raw_delim) == 0) {
          i += raw_delim.size() - 1;
          st = kNormal;
        } else if (c != '\n') {
          blank[i] = ' ';
        }
        break;
    }
  }
  s->code = std::move(code);
  s->blank = std::move(blank);
}

int LineOf(const std::string& text, size_t pos) {
  return 1 + static_cast<int>(std::count(text.begin(), text.begin() +
                                             static_cast<long>(pos), '\n'));
}

std::string LineText(const std::string& text, int line) {
  std::istringstream in(text);
  std::string s;
  for (int i = 0; i < line && std::getline(in, s); ++i) {
  }
  return s;
}

// `ngdlint:allow(rule)` on the flagged line or the line above it.
bool Suppressed(const Source& s, int line, const std::string& rule) {
  const std::string marker = "ngdlint:allow(" + rule + ")";
  if (LineText(s.raw, line).find(marker) != std::string::npos) return true;
  return line > 1 &&
         LineText(s.raw, line - 1).find(marker) != std::string::npos;
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

// Position of each whole-word occurrence of `word` in `text`.
std::vector<size_t> FindWord(const std::string& text, const std::string& word) {
  std::vector<size_t> out;
  for (size_t p = text.find(word); p != std::string::npos;
       p = text.find(word, p + 1)) {
    const bool left = p == 0 || !IsIdentChar(text[p - 1]);
    const size_t end = p + word.size();
    const bool right = end >= text.size() || !IsIdentChar(text[end]);
    if (left && right) out.push_back(p);
  }
  return out;
}

// The quoted string starting at or after `pos` on the same literal.
std::string QuotedAfter(const std::string& code, size_t pos) {
  const size_t q0 = code.find('"', pos);
  if (q0 == std::string::npos) return "";
  const size_t q1 = code.find('"', q0 + 1);
  if (q1 == std::string::npos) return "";
  return code.substr(q0 + 1, q1 - q0 - 1);
}

// ---- Rules ---------------------------------------------------------------

const char* const kMagics[] = {"NGDWAL1", "NGDSNAP1", "NGDVSEG1"};

// Reconstructs every run of adjacent char literals ('N', 'G', ...) in the
// file — the form all format magics are defined in — plus every exact
// string literal, and reports where each known magic is defined.
void CollectMagicDefs(const Source& s,
                      std::map<std::string, std::vector<Finding>>* defs) {
  const std::string& code = s.code;
  std::string run;
  size_t run_start = 0;
  auto flush = [&](size_t at) {
    (void)at;
    for (const char* magic : kMagics) {
      if (run.find(magic) != std::string::npos) {
        (*defs)[magic].push_back(
            {s.path, LineOf(code, run_start), "magic", magic});
      }
    }
    run.clear();
  };
  for (size_t i = 0; i < code.size(); ++i) {
    if (code[i] != '\'') continue;
    if (i >= 1 && IsIdentChar(code[i - 1])) continue;  // digit separator
    const size_t close = code.find('\'', i + 1);
    if (close == std::string::npos) break;
    if (run.empty()) run_start = i;
    std::string body = code.substr(i + 1, close - i - 1);
    run += body == "\\0" ? '\0' : (body.empty() ? '\0' : body[0]);
    // A run continues across whitespace and commas (array initializers
    // wrap lines); anything else ends it.
    size_t j = close + 1;
    while (j < code.size() &&
           (std::isspace(static_cast<unsigned char>(code[j])) ||
            code[j] == ',')) {
      ++j;
    }
    if (j >= code.size() || code[j] != '\'') flush(i);
    i = close;
  }
  flush(code.size());
  // Exact string-literal definitions ("NGDWAL1") count too; substrings
  // inside longer literals (error messages) do not.
  for (size_t i = 0; i < code.size(); ++i) {
    if (code[i] != '"') continue;
    const size_t close = code.find('"', i + 1);
    if (close == std::string::npos) break;
    const std::string body = code.substr(i + 1, close - i - 1);
    for (const char* magic : kMagics) {
      if (body == magic) {
        (*defs)[magic].push_back({s.path, LineOf(code, i), "magic", magic});
      }
    }
    i = close;
  }
}

void RuleBanned(const Source& s, std::vector<Finding>* out) {
  struct Ban {
    const char* word;
    bool call_only;  // require '(' after the word
    const char* rule;
    const char* msg;
  };
  static const Ban kBans[] = {
      {"new", false, "naked-new",
       "naked new; use std::make_unique (ngdlint:allow(naked-new) for "
       "intentional leaks / private ctors)"},
      {"rand", true, "banned-rand", "rand(); use util/rng.h"},
      {"endl", false, "banned-endl", "std::endl; use '\\n' (no flush)"},
      {"time", true, "banned-time", "time(); use util/timer.h"},
  };
  for (const Ban& b : kBans) {
    for (size_t p : FindWord(s.blank, b.word)) {
      if (b.call_only) {
        size_t j = p + std::string(b.word).size();
        while (j < s.blank.size() && s.blank[j] == ' ') ++j;
        if (j >= s.blank.size() || s.blank[j] != '(') continue;
      }
      const int line = LineOf(s.blank, p);
      if (Suppressed(s, line, b.rule)) continue;
      out->push_back({s.path, line, b.rule, b.msg});
    }
  }
}

// A numeric literal equal to the FNV-1a 64 prime, in decimal or hex (any
// case, any integer suffix), outside util/hash.h.
void RuleFnvDuplicate(const Source& s, std::vector<Finding>* out) {
  if (s.path == "src/util/hash.h") return;
  std::string text = s.blank;
  std::transform(text.begin(), text.end(), text.begin(), [](char c) {
    return static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  });
  for (const std::string& prime :
       {std::string("1099511628211"), std::string("0x100000001b3")}) {
    for (size_t p = text.find(prime); p != std::string::npos;
         p = text.find(prime, p + 1)) {
      const size_t end = p + prime.size();
      if (p > 0 && IsIdentChar(text[p - 1])) continue;
      if (end < text.size() && std::isxdigit(static_cast<unsigned char>(
                                   text[end]))) {
        continue;
      }
      const int line = LineOf(text, p);
      if (Suppressed(s, line, "fnv-duplicate")) continue;
      out->push_back({s.path, line, "fnv-duplicate",
                      "FNV-1a prime outside util/hash.h; use Fnv1a64"});
    }
  }
}

// A std::unordered_map or std::unordered_set keyed by EdgeKey (optionally
// ngd::-qualified, any spacing around '<').
void RuleEdgeMapDuplicate(const Source& s, std::vector<Finding>* out) {
  const std::string& text = s.blank;
  auto skip_space = [&](size_t i) {
    while (i < text.size() &&
           std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
    return i;
  };
  for (const char* container : {"unordered_map", "unordered_set"}) {
    for (size_t p : FindWord(text, container)) {
      size_t i = skip_space(p + std::string(container).size());
      if (i >= text.size() || text[i] != '<') continue;
      i = skip_space(i + 1);
      if (text.compare(i, 5, "ngd::") == 0) i += 5;
      const std::string key = "EdgeKey";
      if (text.compare(i, key.size(), key) != 0) continue;
      if (i + key.size() < text.size() && IsIdentChar(text[i + key.size()])) {
        continue;
      }
      const int line = LineOf(text, p);
      if (Suppressed(s, line, "edge-map-duplicate")) continue;
      out->push_back({s.path, line, "edge-map-duplicate",
                      std::string("std::") + container +
                          " keyed by EdgeKey; use EdgeMap (graph/graph.h)"});
    }
  }
}

// std:: types a header must directly include the defining header for.
// Conservative by design: only unambiguous type -> header pairs.
const std::pair<const char*, const char*> kStdHeaders[] = {
    {"std::string_view", "<string_view>"},
    {"std::string", "<string>"},
    {"std::vector", "<vector>"},
    {"std::deque", "<deque>"},
    {"std::map", "<map>"},
    {"std::set", "<set>"},
    {"std::unordered_map", "<unordered_map>"},
    {"std::unordered_set", "<unordered_set>"},
    {"std::optional", "<optional>"},
    {"std::function", "<functional>"},
    {"std::atomic", "<atomic>"},
    {"std::mutex", "<mutex>"},
    {"std::thread", "<thread>"},
    {"std::unique_ptr", "<memory>"},
    {"std::shared_ptr", "<memory>"},
};

void RuleMissingInclude(const Source& s, std::vector<Finding>* out) {
  for (const auto& [sym, hdr] : kStdHeaders) {
    const std::string symbol(sym);
    const auto uses =
        FindWord(s.blank, symbol.substr(symbol.rfind(':') + 1));
    size_t first_use = std::string::npos;
    for (size_t p : uses) {
      // Require the full std:: qualification at this position.
      const size_t off = symbol.rfind(':') + 1;
      if (p >= off && s.blank.compare(p - off, off, symbol, 0, off) == 0) {
        first_use = p - off;
        break;
      }
    }
    if (first_use == std::string::npos) continue;
    if (s.code.find("#include " + std::string(hdr)) != std::string::npos) {
      continue;
    }
    const int line = LineOf(s.blank, first_use);
    if (Suppressed(s, line, "missing-include")) continue;
    out->push_back({s.path, line, "missing-include",
                    symbol + " used without #include " + hdr});
  }
}

void RuleIncludeGuard(const Source& s, std::vector<Finding>* out) {
  if (s.code.find("#ifndef NGD_") != std::string::npos &&
      s.code.find("#define NGD_") != std::string::npos) {
    return;
  }
  out->push_back({s.path, 1, "include-guard",
                  "header lacks an NGD_*_H_ include guard"});
}

// DFS over the quoted-include graph; reports each back-edge as a cycle.
void RuleIncludeCycles(const std::map<std::string, Source>& files,
                       std::vector<Finding>* out) {
  std::map<std::string, std::vector<std::pair<std::string, int>>> edges;
  for (const auto& [path, src] : files) {
    if (path.compare(0, 4, "src/") != 0) continue;
    const std::string& code = src.code;
    for (size_t p = code.find("#include \""); p != std::string::npos;
         p = code.find("#include \"", p + 1)) {
      const std::string target = "src/" + QuotedAfter(code, p);
      if (files.count(target) != 0) {
        edges[path].emplace_back(target, LineOf(code, p));
      }
    }
  }
  std::set<std::string> done, on_stack;
  std::vector<Finding>* sink = out;
  std::function<void(const std::string&)> visit =
      [&](const std::string& node) {
        on_stack.insert(node);
        for (const auto& [next, line] : edges[node]) {
          if (on_stack.count(next) != 0) {
            sink->push_back({node, line, "include-cycle",
                             "#include of \"" + next +
                                 "\" closes an include cycle"});
          } else if (done.count(next) == 0) {
            visit(next);
          }
        }
        on_stack.erase(node);
        done.insert(node);
      };
  for (const auto& [path, src] : edges) {
    (void)src;
    if (done.count(path) == 0) visit(path);
  }
}

}  // namespace

std::vector<Finding> LintTree(const std::string& root) {
  std::map<std::string, Source> files;
  for (const char* dir : {"src", "tests"}) {
    const fs::path base = fs::path(root) / dir;
    if (!fs::exists(base)) continue;
    for (const auto& ent : fs::recursive_directory_iterator(base)) {
      if (!ent.is_regular_file()) continue;
      const std::string ext = ent.path().extension().string();
      if (ext != ".h" && ext != ".cc") continue;
      Source s;
      s.path = fs::relative(ent.path(), root).generic_string();
      std::ifstream in(ent.path(), std::ios::binary);
      std::ostringstream buf;
      buf << in.rdbuf();
      s.raw = buf.str();
      BuildViews(&s);
      files.emplace(s.path, std::move(s));
    }
  }

  std::vector<Finding> out;

  // failpoint-unarmed: sites marked in src/, arming evidence in tests/.
  std::map<std::string, Finding> sites;
  std::string tests_corpus;
  for (const auto& [path, s] : files) {
    if (path.compare(0, 6, "tests/") == 0) {
      tests_corpus += s.code;
      continue;
    }
    if (path.compare(0, 4, "src/") != 0) continue;
    for (size_t p : FindWord(s.code, "NGD_FAILPOINT")) {
      const std::string site = QuotedAfter(s.code, p);
      if (site.empty()) continue;  // the macro definition itself
      sites.emplace(site, Finding{path, LineOf(s.code, p),
                                  "failpoint-unarmed", site});
    }
  }
  for (auto& [site, f] : sites) {
    // Armed when a test names the site in an ArmSite call.
    if (tests_corpus.find("\"" + site + "\"") != std::string::npos) continue;
    f.message = "failpoint site \"" + site +
                "\" is not armed by any test under tests/";
    out.push_back(f);
  }

  // magic definitions: exactly one per format.
  std::map<std::string, std::vector<Finding>> magic_defs;
  for (const auto& [path, s] : files) {
    if (path.compare(0, 4, "src/") == 0) CollectMagicDefs(s, &magic_defs);
  }
  for (const char* magic : kMagics) {
    const auto& defs = magic_defs[magic];
    if (defs.empty()) {
      out.push_back({"src", 0, "magic-missing",
                     std::string("format magic ") + magic +
                         " is not defined anywhere in src/"});
    }
    for (size_t i = 1; i < defs.size(); ++i) {
      out.push_back({defs[i].file, defs[i].line, "magic-duplicate",
                     std::string("format magic ") + magic +
                         " already defined at " + defs[0].file + ":" +
                         std::to_string(defs[0].line)});
    }
  }

  // Per-file rules.
  for (const auto& [path, s] : files) {
    if (path.compare(0, 4, "src/") != 0) continue;
    RuleBanned(s, &out);
    RuleFnvDuplicate(s, &out);
    RuleEdgeMapDuplicate(s, &out);
    if (path.size() > 2 && path.compare(path.size() - 2, 2, ".h") == 0) {
      RuleMissingInclude(s, &out);
      RuleIncludeGuard(s, &out);
    }
  }
  RuleIncludeCycles(files, &out);

  std::sort(out.begin(), out.end(), [](const Finding& a, const Finding& b) {
    return std::tie(a.file, a.line, a.rule) < std::tie(b.file, b.line, b.rule);
  });
  return out;
}

std::string FormatFinding(const Finding& f) {
  std::string s = f.file;
  if (f.line > 0) s += ":" + std::to_string(f.line);
  return s + ": [" + f.rule + "] " + f.message;
}

}  // namespace ngdlint

#ifndef NGDLINT_NO_MAIN
int main(int argc, char** argv) {
  std::string root = ".";
  if (argc == 2) {
    root = argv[1];
  } else if (argc > 2) {
    std::fprintf(stderr, "usage: ngdlint [repo-root]\n");
    return 2;
  }
  const auto findings = ngdlint::LintTree(root);
  for (const auto& f : findings) {
    std::fprintf(stdout, "%s\n", ngdlint::FormatFinding(f).c_str());
  }
  if (findings.empty()) {
    std::fprintf(stdout, "ngdlint: clean\n");
    return 0;
  }
  std::fprintf(stderr, "ngdlint: %zu finding(s)\n", findings.size());
  return 1;
}
#endif  // NGDLINT_NO_MAIN
