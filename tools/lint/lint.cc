#include "lint.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <set>
#include <sstream>
#include <tuple>

namespace s2rdf::lint {
namespace {

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

// Blanks comment bodies, string literals and char literals (newlines
// preserved) so token matching never fires on documentation or test
// data. Handles //, /* */, "...", '...' and R"delim(...)delim".
std::string StripCommentsAndStrings(const std::string& in) {
  std::string out = in;
  size_t i = 0;
  const size_t n = in.size();
  auto blank = [&](size_t pos) {
    if (out[pos] != '\n') out[pos] = ' ';
  };
  while (i < n) {
    char c = in[i];
    if (c == '/' && i + 1 < n && in[i + 1] == '/') {
      while (i < n && in[i] != '\n') blank(i++);
    } else if (c == '/' && i + 1 < n && in[i + 1] == '*') {
      blank(i++);
      blank(i++);
      while (i < n && !(in[i] == '*' && i + 1 < n && in[i + 1] == '/')) {
        blank(i++);
      }
      if (i < n) blank(i++);
      if (i < n) blank(i++);
    } else if (c == 'R' && i + 1 < n && in[i + 1] == '"' &&
               (i == 0 || !IsIdentChar(in[i - 1]))) {
      // Raw string literal: R"delim( ... )delim".
      size_t open = in.find('(', i + 2);
      if (open == std::string::npos) break;
      std::string close = ")" + in.substr(i + 2, open - i - 2) + "\"";
      size_t end = in.find(close, open + 1);
      if (end == std::string::npos) end = n;
      for (size_t j = i; j < std::min(end + close.size(), n); ++j) blank(j);
      i = std::min(end + close.size(), n);
    } else if (c == '"' || c == '\'') {
      char quote = c;
      blank(i++);
      while (i < n && in[i] != quote && in[i] != '\n') {
        if (in[i] == '\\' && i + 1 < n) blank(i++);
        blank(i++);
      }
      if (i < n && in[i] == quote) blank(i++);
    } else {
      ++i;
    }
  }
  return out;
}

// The inverse view of StripCommentsAndStrings: keeps // and /* */
// comment text, blanks code and string literals (newlines preserved).
// Suppression markers are parsed from this view so a marker spelled
// inside a string literal (e.g. a linter test fixture) is not a real
// marker, while apostrophes in comments never derail the scan.
std::string CommentsOnlyView(const std::string& in) {
  std::string out(in.size(), ' ');
  size_t i = 0;
  const size_t n = in.size();
  auto keep_newlines = [&](size_t from, size_t to) {
    for (size_t j = from; j < to && j < n; ++j) {
      if (in[j] == '\n') out[j] = '\n';
    }
  };
  while (i < n) {
    char c = in[i];
    if (c == '/' && i + 1 < n && in[i + 1] == '/') {
      while (i < n && in[i] != '\n') {
        out[i] = in[i];
        ++i;
      }
    } else if (c == '/' && i + 1 < n && in[i + 1] == '*') {
      while (i < n && !(in[i] == '*' && i + 1 < n && in[i + 1] == '/')) {
        out[i] = in[i];
        ++i;
      }
      if (i < n) out[i] = in[i], ++i;
      if (i < n) out[i] = in[i], ++i;
    } else if (c == 'R' && i + 1 < n && in[i + 1] == '"' &&
               (i == 0 || !IsIdentChar(in[i - 1]))) {
      size_t open = in.find('(', i + 2);
      if (open == std::string::npos) {
        keep_newlines(i, n);
        break;
      }
      std::string close = ")" + in.substr(i + 2, open - i - 2) + "\"";
      size_t end = in.find(close, open + 1);
      size_t stop = end == std::string::npos ? n : end + close.size();
      keep_newlines(i, stop);
      i = stop;
    } else if (c == '"' || c == '\'') {
      char quote = c;
      ++i;
      while (i < n && in[i] != quote && in[i] != '\n') {
        if (in[i] == '\\' && i + 1 < n) ++i;
        ++i;
      }
      if (i < n && in[i] == quote) ++i;
    } else {
      if (c == '\n') out[i] = '\n';
      ++i;
    }
  }
  return out;
}

std::vector<std::string> SplitLines(const std::string& s) {
  std::vector<std::string> lines;
  std::string cur;
  for (char c : s) {
    if (c == '\n') {
      lines.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  lines.push_back(cur);
  return lines;
}

// --- Token matching --------------------------------------------------------

enum class TokenKind {
  kCall,  // Must be followed by '(' (optionally across whitespace).
  kType,  // Must not be followed by an identifier character.
};

struct BannedToken {
  std::string token;
  TokenKind kind;
};

// Finds every match of `t` in `line` that sits on an identifier
// boundary; returns 0-based column positions.
std::vector<size_t> FindToken(const std::string& line, const BannedToken& t) {
  std::vector<size_t> hits;
  size_t pos = line.find(t.token);
  while (pos != std::string::npos) {
    bool ok = true;
    if (pos > 0 && (IsIdentChar(line[pos - 1]) ||
                    (line[pos - 1] == ':' && t.token[0] != ':'))) {
      ok = false;  // Mid-identifier or namespace-qualified variant.
    }
    size_t end = pos + t.token.size();
    if (ok) {
      if (t.kind == TokenKind::kCall) {
        size_t p = end;
        while (p < line.size() && line[p] == ' ') ++p;
        if (p >= line.size() || line[p] != '(') ok = false;
      } else {
        if (end < line.size() && IsIdentChar(line[end])) ok = false;
      }
    }
    if (ok) hits.push_back(pos);
    pos = line.find(t.token, pos + 1);
  }
  return hits;
}

// time(nullptr) / time(NULL) — only the wall-clock-seeded form is
// banned; time(&out) style is not used in this codebase but would be
// equally nondeterministic, so it is NOT special-cased as allowed.
bool LineHasWallClockTime(const std::string& line) {
  static const BannedToken kTime{"time", TokenKind::kCall};
  for (size_t pos : FindToken(line, kTime)) {
    size_t p = line.find('(', pos);
    if (p == std::string::npos) continue;
    ++p;
    while (p < line.size() && line[p] == ' ') ++p;
    if (line.compare(p, 7, "nullptr") == 0 || line.compare(p, 4, "NULL") == 0) {
      return true;
    }
  }
  return false;
}

// Raw diagnostics to stderr: fprintf/fputs whose stream argument is
// stderr, or the std::cerr / std::clog streams. fprintf(stdout, ...)
// stays legal — benches emit machine-readable JSON there — so a plain
// BannedToken on fprintf would be too broad; the stream argument is
// what distinguishes a diagnostic from an output channel.
bool LineHasRawStderrWrite(const std::string& line, std::string* which) {
  static const BannedToken kCerr{"std::cerr", TokenKind::kType};
  static const BannedToken kClog{"std::clog", TokenKind::kType};
  if (!FindToken(line, kCerr).empty()) {
    *which = "std::cerr";
    return true;
  }
  if (!FindToken(line, kClog).empty()) {
    *which = "std::clog";
    return true;
  }
  // Both spellings: the plain-token boundary check rejects matches
  // preceded by ':', so "std::fprintf" needs its own qualified token.
  static const BannedToken kFprintf{"fprintf", TokenKind::kCall};
  static const BannedToken kStdFprintf{"std::fprintf", TokenKind::kCall};
  static const BannedToken kFputs{"fputs", TokenKind::kCall};
  static const BannedToken kStdFputs{"std::fputs", TokenKind::kCall};
  static const BannedToken kStderr{"stderr", TokenKind::kType};
  for (const BannedToken* call :
       {&kFprintf, &kStdFprintf, &kFputs, &kStdFputs}) {
    if (FindToken(line, *call).empty()) continue;
    if (!FindToken(line, kStderr).empty()) {
      *which = call->token + "(stderr, ...)";
      return true;
    }
  }
  return false;
}

// Direct reads of the C++ chrono clocks ("steady_clock::now()" and
// friends). A plain BannedToken cannot express this: the clock name is
// always namespace-qualified (std::chrono::steady_clock), which the
// preceding-':' boundary check would reject, and the mere mention of a
// clock type (e.g. the MonotonicTime alias in common/clock.h) is fine —
// only the ::now() call bypasses the injectable seam.
bool LineHasDirectClockRead(const std::string& line, std::string* which) {
  static const char* kClocks[] = {"steady_clock", "system_clock",
                                  "high_resolution_clock"};
  for (const char* clock : kClocks) {
    const std::string token(clock);
    size_t pos = line.find(token);
    while (pos != std::string::npos) {
      if (pos == 0 || !IsIdentChar(line[pos - 1])) {
        size_t p = pos + token.size();
        while (p < line.size() && line[p] == ' ') ++p;
        if (line.compare(p, 5, "::now") == 0) {
          p += 5;
          while (p < line.size() && line[p] == ' ') ++p;
          if (p < line.size() && line[p] == '(') {
            *which = token;
            return true;
          }
        }
      }
      pos = line.find(token, pos + 1);
    }
  }
  return false;
}

std::string NormalizePath(const std::string& path) {
  std::string p = path;
  std::replace(p.begin(), p.end(), '\\', '/');
  return p;
}

bool EndsWithAny(const std::string& path,
                 std::initializer_list<const char*> suffixes) {
  for (const char* s : suffixes) {
    std::string suffix(s);
    if (path.size() >= suffix.size() &&
        path.compare(path.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      return true;
    }
  }
  return false;
}

// --- Rules -----------------------------------------------------------------

const std::vector<BannedToken>& RawIoTokens() {
  static const std::vector<BannedToken> kTokens = {
      {"fopen", TokenKind::kCall},          {"freopen", TokenKind::kCall},
      {"tmpfile", TokenKind::kCall},        {"::open", TokenKind::kCall},
      {"::creat", TokenKind::kCall},        {"std::ofstream", TokenKind::kType},
      {"std::ifstream", TokenKind::kType},  {"std::fstream", TokenKind::kType},
      {"std::filebuf", TokenKind::kType},
  };
  return kTokens;
}

const std::vector<BannedToken>& BareMutexTokens() {
  static const std::vector<BannedToken> kTokens = {
      {"std::mutex", TokenKind::kType},
      {"std::shared_mutex", TokenKind::kType},
      {"std::recursive_mutex", TokenKind::kType},
      {"std::timed_mutex", TokenKind::kType},
      {"std::condition_variable", TokenKind::kType},
      {"std::condition_variable_any", TokenKind::kType},
      {"std::lock_guard", TokenKind::kType},
      {"std::unique_lock", TokenKind::kType},
      {"std::shared_lock", TokenKind::kType},
      {"std::scoped_lock", TokenKind::kType},
  };
  return kTokens;
}

// Filesystem mutations that bypass the Env seam. Renames and unlinks
// are the commit-protocol primitives (atomic manifest flips, orphan
// sweeps); issued directly they evade fault injection AND can break
// crash-atomicity invariants, so they are confined to common/ (the Env
// implementations) and storage/ (which always goes through an Env —
// belt and suspenders for the layer that owns the protocol).
const std::vector<BannedToken>& RawFileMutationTokens() {
  static const std::vector<BannedToken> kTokens = {
      {"std::rename", TokenKind::kCall},
      {"::rename", TokenKind::kCall},
      {"rename", TokenKind::kCall},
      {"::unlink", TokenKind::kCall},
      {"unlink", TokenKind::kCall},
  };
  return kTokens;
}

const std::vector<BannedToken>& NondeterminismTokens() {
  static const std::vector<BannedToken> kTokens = {
      {"rand", TokenKind::kCall},
      {"srand", TokenKind::kCall},
      {"drand48", TokenKind::kCall},
      {"lrand48", TokenKind::kCall},
      {"std::random_device", TokenKind::kType},
  };
  return kTokens;
}

void CheckTokens(const std::string& path, const std::vector<std::string>& lines,
                 const std::string& rule, const std::vector<BannedToken>& bans,
                 const std::string& why, std::vector<Violation>* out) {
  for (size_t i = 0; i < lines.size(); ++i) {
    int lineno = static_cast<int>(i) + 1;
    for (const BannedToken& t : bans) {
      if (FindToken(lines[i], t).empty()) continue;
      out->push_back({path, lineno, rule, "'" + t.token + "' " + why});
    }
  }
}

void CheckIncludeGuard(const std::string& path,
                       const std::vector<std::string>& lines,
                       std::vector<Violation>* out) {
  if (!EndsWithAny(NormalizePath(path), {".h"})) return;
  int first_line = 0;
  std::string first;
  for (size_t i = 0; i < lines.size(); ++i) {
    std::string trimmed = lines[i];
    trimmed.erase(0, trimmed.find_first_not_of(" \t"));
    if (!trimmed.empty()) {
      first = trimmed;
      first_line = static_cast<int>(i) + 1;
      break;
    }
  }
  const std::string kRule = "include-guard";
  if (first_line == 0) return;  // Empty header: nothing to protect.
  if (first.rfind("#ifndef S2RDF_", 0) != 0) {
    out->push_back({path, first_line, kRule,
                    "header must open with an '#ifndef S2RDF_...' include "
                    "guard (found: '" +
                        first.substr(0, 40) + "')"});
    return;
  }
  std::string macro = first.substr(std::string("#ifndef ").size());
  macro.erase(macro.find_last_not_of(" \t") + 1);
  for (size_t i = first_line; i < lines.size(); ++i) {
    std::string trimmed = lines[i];
    trimmed.erase(0, trimmed.find_first_not_of(" \t"));
    if (trimmed.empty()) continue;
    if (trimmed.rfind("#define " + macro, 0) != 0) {
      out->push_back({path, static_cast<int>(i) + 1, kRule,
                      "'#ifndef " + macro +
                          "' must be followed by '#define " + macro + "'"});
    }
    return;
  }
}

}  // namespace

Suppressions::Suppressions(const std::vector<SuppressionMarker>& markers)
    : markers_(markers) {}

bool Suppressions::Allows(const std::string& rule, int line,
                          size_t* used_marker) const {
  for (size_t i = 0; i < markers_.size(); ++i) {
    const SuppressionMarker& m = markers_[i];
    if (m.rule != rule) continue;
    bool matches = m.file_scope
                       ? m.line <= 20  // allow-file only near the top
                       : (line == m.line || line == m.line + 1);
    if (matches) {
      if (used_marker != nullptr) *used_marker = i;
      return true;
    }
  }
  return false;
}

bool IsKnownRule(const std::string& rule) {
  static const std::set<std::string> kRules = {
      "raw-io",         "raw-file-mutation",  "bare-mutex",
      "nondeterminism", "clock",              "include-guard",
      "layering",       "transitive-include", "lock-order",
      "interrupt-coverage", "status-discipline", "raw-log",
      "io",
  };
  return kRules.count(rule) > 0;
}

std::vector<SuppressionMarker> ParseSuppressionMarkers(
    const std::string& content) {
  std::vector<SuppressionMarker> out;
  std::vector<std::string> raw_lines = SplitLines(CommentsOnlyView(content));
  const std::string kTag = "s2rdf-lint:";
  for (size_t i = 0; i < raw_lines.size(); ++i) {
    const std::string& line = raw_lines[i];
    int lineno = static_cast<int>(i) + 1;
    size_t pos = line.find(kTag);
    while (pos != std::string::npos) {
      size_t p = pos + kTag.size();
      while (p < line.size() && line[p] == ' ') ++p;
      bool file_scope = false;
      if (line.compare(p, 11, "allow-file(") == 0) {
        file_scope = true;
        p += 11;
      } else if (line.compare(p, 6, "allow(") == 0) {
        p += 6;
      } else {
        pos = line.find(kTag, pos + 1);
        continue;
      }
      size_t close = line.find(')', p);
      if (close == std::string::npos) break;
      std::stringstream rules(line.substr(p, close - p));
      std::string rule;
      while (std::getline(rules, rule, ',')) {
        rule.erase(std::remove(rule.begin(), rule.end(), ' '), rule.end());
        if (rule.empty()) continue;
        out.push_back({lineno, rule, file_scope});
      }
      pos = line.find(kTag, close);
    }
  }
  return out;
}

FileScanResult ScanContent(const std::string& path,
                           const std::string& content) {
  FileScanResult result;
  result.markers = ParseSuppressionMarkers(content);
  std::vector<Violation>& out = result.violations;
  std::string npath = NormalizePath(path);
  std::vector<std::string> lines =
      SplitLines(StripCommentsAndStrings(content));

  // raw-io: only the Env implementation may touch the OS directly.
  if (!EndsWithAny(npath, {"common/posix_env.cc", "common/env.cc"})) {
    CheckTokens(path, lines, "raw-io", RawIoTokens(),
                "bypasses the injectable Env (route I/O through "
                "s2rdf::Env so fault-injection tests cover it)",
                &out);
  }

  // bare-mutex: only the annotated wrapper may use std primitives.
  if (!EndsWithAny(npath, {"common/mutex.h"})) {
    CheckTokens(path, lines, "bare-mutex", BareMutexTokens(),
                "evades Clang thread-safety analysis (use s2rdf::Mutex / "
                "MutexLock / CondVar from common/mutex.h)",
                &out);
  }

  // raw-file-mutation: rename/unlink are commit-protocol primitives
  // (atomic flips, orphan sweeps); only common/ and storage/ may issue
  // them.
  if (npath.find("common/") == std::string::npos &&
      npath.find("storage/") == std::string::npos) {
    CheckTokens(path, lines, "raw-file-mutation", RawFileMutationTokens(),
                "mutates the filesystem behind the Env seam (use "
                "Env::RenameFile / Env::RemoveFile so crash-injection "
                "tests cover it)",
                &out);
  }

  // nondeterminism: only common/random.* may draw entropy.
  if (npath.find("common/random.") == std::string::npos) {
    CheckTokens(path, lines, "nondeterminism", NondeterminismTokens(),
                "makes runs unreproducible (use the seeded SplitMix64 from "
                "common/random.h)",
                &out);
    for (size_t i = 0; i < lines.size(); ++i) {
      int lineno = static_cast<int>(i) + 1;
      if (LineHasWallClockTime(lines[i])) {
        out.push_back({path, lineno, "nondeterminism",
                       "'time(nullptr)' seeds from the wall clock (use the "
                       "seeded SplitMix64 from common/random.h)"});
      }
    }
  }

  // clock: only common/ may read the OS clocks directly; everything
  // else goes through MonotonicNow() so tests can freeze time.
  if (npath.find("common/") == std::string::npos) {
    for (size_t i = 0; i < lines.size(); ++i) {
      int lineno = static_cast<int>(i) + 1;
      std::string which;
      if (LineHasDirectClockRead(lines[i], &which)) {
        out.push_back({path, lineno, "clock",
                       "'" + which +
                           "::now()' bypasses the injectable clock seam "
                           "(use s2rdf::MonotonicNow() from common/clock.h)"});
      }
    }
  }

  // raw-log: diagnostics go through the structured event log; only
  // common/ (the sink itself, crash paths) may write stderr raw.
  if (npath.find("common/") == std::string::npos) {
    for (size_t i = 0; i < lines.size(); ++i) {
      int lineno = static_cast<int>(i) + 1;
      std::string which;
      if (LineHasRawStderrWrite(lines[i], &which)) {
        out.push_back({path, lineno, "raw-log",
                       "'" + which +
                           "' bypasses the structured event log (use "
                           "s2rdf::LogEvent from common/log.h so lines "
                           "share one schema, sink and rate limit)"});
      }
    }
  }

  CheckIncludeGuard(path, lines, &out);

  std::sort(out.begin(), out.end(), [](const Violation& a, const Violation& b) {
    return std::tie(a.file, a.line, a.rule) < std::tie(b.file, b.line, b.rule);
  });
  return result;
}

std::vector<Violation> LintContent(const std::string& path,
                                   const std::string& content) {
  FileScanResult scan = ScanContent(path, content);
  Suppressions supp(scan.markers);
  std::vector<Violation> out;
  for (Violation& v : scan.violations) {
    if (!supp.Allows(v.rule, v.line)) out.push_back(std::move(v));
  }
  return out;
}

std::vector<Violation> LintFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return {{path, 0, "io", "cannot read file"}};
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  return LintContent(path, buffer.str());
}

std::string FormatViolation(const Violation& v) {
  return v.file + ":" + std::to_string(v.line) + ": [" + v.rule + "] " +
         v.message;
}

}  // namespace s2rdf::lint
