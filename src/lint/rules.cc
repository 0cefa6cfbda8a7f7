#include "lint/rules.h"

#include <algorithm>
#include <array>
#include <set>

namespace modelardb {
namespace lint {
namespace {

// ---------------------------------------------------------------------
// Shared helpers.

bool IsIdentChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() &&
         s.compare(0, prefix.size(), prefix) == 0;
}

// Finds whole-token occurrences of `token` (which may contain "::") in the
// blanked code view: neither neighbour may be an identifier character.
std::vector<size_t> FindToken(const std::string& code,
                              const std::string& token) {
  std::vector<size_t> hits;
  size_t pos = 0;
  while ((pos = code.find(token, pos)) != std::string::npos) {
    bool left_ok = pos == 0 || !IsIdentChar(code[pos - 1]);
    size_t end = pos + token.size();
    bool right_ok = end >= code.size() || !IsIdentChar(code[end]);
    if (left_ok && right_ok) hits.push_back(pos);
    pos += 1;
  }
  return hits;
}

// True when the identifier at `pos` is a member access (x.read / x->read):
// those are calls on objects, not libc/syscall entry points.
bool IsMemberAccess(const std::string& code, size_t pos) {
  size_t i = pos;
  while (i > 0 && (code[i - 1] == ' ' || code[i - 1] == '\t')) --i;
  if (i == 0) return false;
  if (code[i - 1] == '.') return true;
  if (code[i - 1] == '>' && i >= 2 && code[i - 2] == '-') return true;
  return false;
}

// True when the identifier at `pos + len` is followed (modulo whitespace)
// by an opening parenthesis — it is being called.
bool IsCall(const std::string& code, size_t pos, size_t len) {
  size_t i = pos + len;
  while (i < code.size() && (code[i] == ' ' || code[i] == '\t')) ++i;
  return i < code.size() && code[i] == '(';
}

// True when the token at `pos` sits after another identifier word — the
// shape of a declaration (`void read(int)`, `ssize_t write(...)`), not a
// call. Keywords that legitimately precede a call are excepted.
bool IsDeclaration(const std::string& code, size_t pos) {
  size_t i = pos;
  while (i > 0 && (code[i - 1] == ' ' || code[i - 1] == '\t')) --i;
  if (i == 0 || !IsIdentChar(code[i - 1])) return false;
  size_t end = i;
  while (i > 0 && IsIdentChar(code[i - 1])) --i;
  const std::string word = code.substr(i, end - i);
  for (const char* keyword : {"return", "co_return", "case", "else"}) {
    if (word == keyword) return false;
  }
  return true;
}

struct PathRule {
  // Path prefixes (repo-relative) the rule applies to.
  std::vector<std::string> scopes;
  // Exact paths exempt from the rule, each with a recorded reason. This is
  // the rule's "explicit allowlist"; per-line escapes use
  // `// modelarlint:allow(<rule>) <reason>` instead.
  std::vector<std::pair<std::string, std::string>> allow;

  bool Applies(const std::string& path) const {
    bool in_scope = false;
    for (const std::string& s : scopes) {
      if (StartsWith(path, s)) {
        in_scope = true;
        break;
      }
    }
    if (!in_scope) return false;
    for (const auto& [p, reason] : allow) {
      if (path == p) return false;
    }
    return true;
  }
};

}  // namespace

const std::vector<std::string>& AllRuleNames() {
  static const std::vector<std::string> kRules = {
      "io-boundary",    "sync-boundary", "tsan-coverage",
      "metric-catalog", "determinism",   "layering",
  };
  return kRules;
}

bool IsKnownRule(const std::string& name) {
  const std::vector<std::string>& rules = AllRuleNames();
  return std::find(rules.begin(), rules.end(), name) != rules.end();
}

std::string LayerOf(const std::string& path) {
  if (StartsWith(path, "src/")) {
    size_t end = path.find('/', 4);
    if (end == std::string::npos) return "";  // Loose file under src/.
    return path.substr(4, end - 4);
  }
  for (const char* root : {"tools", "tests", "bench", "fuzz", "examples"}) {
    if (StartsWith(path, std::string(root) + "/")) return root;
  }
  return "";
}

// ---------------------------------------------------------------------
// io-boundary: all durable I/O flows through util/env (DESIGN.md §3g).

void CheckIoBoundary(const LintFile& file, std::vector<Finding>* findings) {
  static const PathRule kScope = {
      {"src/", "tools/", "bench/baselines/"},
      {
          {"src/util/env.cc",
           "the Env implementation IS the I/O boundary"},
          {"src/util/fault_env.cc",
           "the fault-injection Env wraps the boundary"},
          {"src/obs/bundle.cc",
           "the fatal-signal crash handler must stay async-signal-safe; "
           "Env methods allocate"},
      }};
  if (!kScope.Applies(file.path)) return;

  // Stream classes: a declaration is enough to flag (the object's writes
  // bypass Env wherever they happen).
  for (const char* token : {"ofstream", "ifstream", "fstream"}) {
    for (size_t pos : FindToken(file.scanned.code, token)) {
      findings->push_back(
          {"io-boundary", file.path, LineOfOffset(file.scanned.code, pos),
           std::string("std::") + token +
               " bypasses util/env; route file I/O through Env so "
               "FaultInjectionEnv and crash_writer can reach it"});
    }
  }
  // C stdio and raw syscalls — only when actually called, and not as a
  // member (stream.read(...) is the stream's problem, caught above).
  for (const char* token :
       {"fopen", "freopen", "fwrite", "fread", "open", "openat", "creat",
        "write", "pwrite", "read", "pread", "mmap", "munmap", "msync"}) {
    for (size_t pos : FindToken(file.scanned.code, token)) {
      if (IsMemberAccess(file.scanned.code, pos)) continue;
      if (!IsCall(file.scanned.code, pos, std::string(token).size()))
        continue;
      if (IsDeclaration(file.scanned.code, pos)) continue;
      findings->push_back(
          {"io-boundary", file.path, LineOfOffset(file.scanned.code, pos),
           std::string(token) +
               "() bypasses util/env; use Env::NewWritableLog/"
               "ReadFileBytes/NewMmapFile so faults are injectable"});
    }
  }
  for (const IncludeDirective& inc : file.scanned.includes) {
    if (inc.system && inc.target == "fstream") {
      findings->push_back(
          {"io-boundary", file.path, inc.line,
           "#include <fstream> outside the Env boundary; file I/O goes "
           "through util/env"});
    }
  }
}

// ---------------------------------------------------------------------
// sync-boundary: locking goes through util/sync.h (DESIGN.md §3e).

void CheckSyncBoundary(const LintFile& file, std::vector<Finding>* findings) {
  static const PathRule kScope = {
      {"src/", "tools/", "bench/baselines/"},
      {
          {"src/util/sync.h",
           "the annotated primitives wrap the std types here"},
      }};
  if (!kScope.Applies(file.path)) return;

  for (const char* token :
       {"std::mutex", "std::timed_mutex", "std::recursive_mutex",
        "std::shared_mutex", "std::shared_timed_mutex",
        "std::condition_variable", "std::condition_variable_any",
        "std::lock_guard", "std::unique_lock", "std::shared_lock",
        "std::scoped_lock", "pthread_mutex_t"}) {
    for (size_t pos : FindToken(file.scanned.code, token)) {
      findings->push_back(
          {"sync-boundary", file.path, LineOfOffset(file.scanned.code, pos),
           std::string(token) +
               " outside util/sync.h loses the Clang thread-safety "
               "annotations; use Mutex/SharedMutex/CondVar from "
               "util/sync.h"});
    }
  }
  for (const IncludeDirective& inc : file.scanned.includes) {
    if (inc.system && (inc.target == "mutex" ||
                       inc.target == "shared_mutex" ||
                       inc.target == "condition_variable")) {
      findings->push_back(
          {"sync-boundary", file.path, inc.line,
           "#include <" + inc.target +
               "> outside util/sync.h; include \"util/sync.h\" instead"});
    }
  }
}

// ---------------------------------------------------------------------
// determinism: same-seed runs must be bit-identical (DESIGN.md §3g).

void CheckDeterminism(const LintFile& file, std::vector<Finding>* findings) {
  static const PathRule kScope = {
      {"src/", "bench/baselines/"},
      {
          {"src/util/time_util.h", "the calendar/timestamp home layer"},
          {"src/util/time_util.cc", "the calendar/timestamp home layer"},
          {"src/util/random.h", "the seeded PRNG home layer"},
      }};
  if (!kScope.Applies(file.path)) return;

  const std::string& code = file.scanned.code;
  for (const char* token :
       {"system_clock", "CLOCK_REALTIME", "gettimeofday", "getenv", "rand",
        "srand", "rand_r", "drand48", "random_device"}) {
    for (size_t pos : FindToken(code, token)) {
      findings->push_back(
          {"determinism", file.path, LineOfOffset(code, pos),
           std::string(token) +
               " makes behaviour depend on wall clock/environment/"
               "unseeded randomness; use util/time_util or util/random, "
               "or suppress at a config-load site"});
    }
  }
  // time(nullptr) / time(NULL) / time(0): the identifier `time` alone is
  // far too common (member fields, parameters) to flag outright.
  for (size_t pos : FindToken(code, "time")) {
    if (IsMemberAccess(code, pos)) continue;
    size_t i = pos + 4;
    while (i < code.size() && (code[i] == ' ' || code[i] == '\t')) ++i;
    if (i >= code.size() || code[i] != '(') continue;
    ++i;
    while (i < code.size() && (code[i] == ' ' || code[i] == '\t')) ++i;
    for (const char* arg : {"nullptr", "NULL", "0"}) {
      const size_t len = std::string(arg).size();
      if (code.compare(i, len, arg) == 0 &&
          (i + len < code.size() && !IsIdentChar(code[i + len]))) {
        findings->push_back(
            {"determinism", file.path, LineOfOffset(code, pos),
             "time(" + std::string(arg) +
                 ") reads the wall clock; timestamps are inputs, not "
                 "ambient state (util/time_util)"});
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------
// layering: the include DAG of DESIGN.md §3j.

namespace {

// Directed allow-list of src-internal layer edges. `obs` is importable
// from everywhere by design (metrics/tracing are leaves), which is why it
// is absent from the values and special-cased in CheckLayering; `lint`
// sits beside util and sees nothing but it.
const std::vector<std::pair<std::string, std::vector<std::string>>>&
LayerDag() {
  static const std::vector<std::pair<std::string, std::vector<std::string>>>
      kDag = {
          {"util", {"util"}},
          {"obs", {"obs", "util"}},
          {"lint", {"lint", "util"}},
          {"core", {"core", "util"}},
          {"storage", {"storage", "core", "util"}},
          {"dims", {"dims", "core", "util"}},
          {"partition", {"partition", "dims", "core", "util"}},
          {"query",
           {"query", "storage", "core", "dims", "partition", "util"}},
          {"ingest",
           {"ingest", "query", "storage", "core", "dims", "partition",
            "util"}},
          {"cluster",
           {"cluster", "query", "storage", "core", "dims", "partition",
            "util"}},
          {"workload",
           {"workload", "cluster", "ingest", "query", "storage", "core",
            "dims", "partition", "util"}},
      };
  return kDag;
}

const std::vector<std::string>* AllowedLayers(const std::string& layer) {
  for (const auto& [name, allowed] : LayerDag()) {
    if (name == layer) return &allowed;
  }
  return nullptr;
}

bool IsSrcLayer(const std::string& layer) {
  return AllowedLayers(layer) != nullptr;
}

}  // namespace

void CheckLayering(const LintFile& file, std::vector<Finding>* findings) {
  if (!StartsWith(file.path, "src/")) return;
  const std::string layer = LayerOf(file.path);
  const std::vector<std::string>* allowed = AllowedLayers(layer);

  for (const IncludeDirective& inc : file.scanned.includes) {
    if (inc.system) continue;
    if (StartsWith(inc.target, "bench/")) {
      findings->push_back(
          {"layering", file.path, inc.line,
           "src/ must not include '" + inc.target +
               "': bench/ (comparison baselines, ablation models, harness) "
               "is built on the library, not part of it"});
      continue;
    }
    if (allowed == nullptr) continue;  // Unknown layer: no DAG edges.
    size_t slash = inc.target.find('/');
    if (slash == std::string::npos) continue;
    const std::string target_layer = inc.target.substr(0, slash);
    if (!IsSrcLayer(target_layer)) continue;  // Third-party or non-layer.
    if (target_layer == "obs") continue;      // Importable by all.
    if (std::find(allowed->begin(), allowed->end(), target_layer) !=
        allowed->end()) {
      continue;
    }
    findings->push_back(
        {"layering", file.path, inc.line,
         "layer '" + layer + "' must not include '" + inc.target +
             "' (layer '" + target_layer +
             "' is above it in the DAG util <- storage/core <- "
             "query/ingest/dims/partition <- cluster)"});
  }
}

// ---------------------------------------------------------------------
// tsan-coverage: every util/sync.h user runs under the tier-2 TSan regex.

void CheckTsanCoverage(const std::vector<LintFile>& files,
                       std::vector<Finding>* findings) {
  // The tier-2 ctest regex (ROADMAP "Tier-2 verify").
  static const std::array<const char*, 4> kSuiteWords = {
      "ThreadPool", "Concurrency", "Pipeline", "Obs"};

  // Pass 1: which module headers do tier-2-matched test files include?
  // A test file counts only if it defines TEST/TEST_F in a suite whose
  // name contains one of the regex words.
  std::set<std::string> covered_headers;
  for (const LintFile& t : files) {
    if (LayerOf(t.path) != "tests") continue;
    bool tier2 = false;
    const std::string& code = t.scanned.code;
    for (const char* macro : {"TEST", "TEST_F"}) {
      for (size_t pos : FindToken(code, macro)) {
        size_t i = pos + std::string(macro).size();
        while (i < code.size() && (code[i] == ' ' || code[i] == '\t')) ++i;
        if (i >= code.size() || code[i] != '(') continue;
        ++i;
        size_t end = i;
        while (end < code.size() && code[end] != ',' && code[end] != ')' &&
               code[end] != '\n') {
          ++end;
        }
        const std::string suite = code.substr(i, end - i);
        for (const char* word : kSuiteWords) {
          if (suite.find(word) != std::string::npos) {
            tier2 = true;
            break;
          }
        }
        if (tier2) break;
      }
      if (tier2) break;
    }
    if (!tier2) continue;
    for (const IncludeDirective& inc : t.scanned.includes) {
      if (!inc.system) covered_headers.insert(inc.target);
    }
  }

  // Pass 2: every src file including util/sync.h (and sync.h itself) must
  // map to a covered module header.
  for (const LintFile& f : files) {
    if (!StartsWith(f.path, "src/")) continue;
    int sync_line = 0;
    if (f.path == "src/util/sync.h") {
      sync_line = 1;
    } else {
      for (const IncludeDirective& inc : f.scanned.includes) {
        if (!inc.system && inc.target == "util/sync.h") {
          sync_line = inc.line;
          break;
        }
      }
    }
    if (sync_line == 0) continue;
    std::string hdr = f.path.substr(4);  // Drop src/.
    if (hdr.size() > 3 && hdr.compare(hdr.size() - 3, 3, ".cc") == 0) {
      hdr = hdr.substr(0, hdr.size() - 3) + ".h";
    }
    if (covered_headers.count(hdr) == 0) {
      findings->push_back(
          {"tsan-coverage", f.path, sync_line,
           f.path + " locks through util/sync.h but no tests/*.cc that "
                    "includes \"" +
               hdr +
               "\" defines a suite the tier-2 TSan regex "
               "(ThreadPool|Concurrency|Pipeline|Obs) matches"});
    }
  }
}

// ---------------------------------------------------------------------
// metric-catalog: names exist in obs/metric_names.h and follow the
// modelardb_<layer>_<name> convention; src uses constants, not literals.

namespace {

const std::array<const char*, 11>& MetricLayers() {
  // Keep in step with the convention comment atop src/obs/metric_names.h;
  // adding a metric layer means extending both.
  static const std::array<const char*, 11> kLayers = {
      "pool", "ingest", "store",    "query", "cluster", "decode",
      "wal",  "slab",   "recovery", "event", "health"};
  return kLayers;
}

// Extracts every maximal token of the shape modelardb_<layer>_<rest> from
// `text`, with <layer> from MetricLayers() and <rest> one or more of
// [a-z0-9_]. Mirrors the retired tools/ci.sh grep so docs references keep
// matching the same way.
std::vector<std::pair<size_t, std::string>> ExtractMetricNames(
    const std::string& text) {
  std::vector<std::pair<size_t, std::string>> out;
  size_t pos = 0;
  const std::string kPrefix = "modelardb_";
  while ((pos = text.find(kPrefix, pos)) != std::string::npos) {
    if (pos > 0 && IsIdentChar(text[pos - 1])) {
      pos += 1;
      continue;
    }
    size_t rest = pos + kPrefix.size();
    bool matched = false;
    for (const char* layer : MetricLayers()) {
      const std::string l = std::string(layer) + "_";
      if (text.compare(rest, l.size(), l) != 0) continue;
      size_t name_start = rest + l.size();
      size_t end = name_start;
      while (end < text.size() &&
             ((text[end] >= 'a' && text[end] <= 'z') ||
              (text[end] >= '0' && text[end] <= '9') || text[end] == '_')) {
        ++end;
      }
      if (end > name_start) {
        out.emplace_back(pos, text.substr(pos, end - pos));
        pos = end;
        matched = true;
      }
      break;
    }
    if (!matched) pos += kPrefix.size();
  }
  return out;
}

bool FollowsConvention(const std::string& name) {
  return !ExtractMetricNames(name).empty() &&
         ExtractMetricNames(name)[0].second == name;
}

}  // namespace

void CheckMetricCatalog(const std::vector<LintFile>& files,
                        const std::vector<LintFile>& docs,
                        std::vector<Finding>* findings) {
  static const std::string kCatalogPath = "src/obs/metric_names.h";

  // Build the catalog from metric_names.h string literals, checking the
  // naming convention while at it.
  std::set<std::string> catalog;
  for (const LintFile& f : files) {
    if (f.path != kCatalogPath) continue;
    for (const StringLiteral& lit : f.scanned.strings) {
      if (!StartsWith(lit.text, "modelardb_")) continue;
      bool plain = true;  // Only [a-z0-9_] may follow the prefix.
      for (char c : lit.text) {
        if (!((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
              c == '_')) {
          plain = false;
          break;
        }
      }
      if (!plain) continue;
      catalog.insert(lit.text);
      if (!FollowsConvention(lit.text)) {
        findings->push_back(
            {"metric-catalog", f.path, lit.line,
             "catalog entry '" + lit.text +
                 "' violates the modelardb_<layer>_<name> convention "
                 "(layers: pool|ingest|store|query|cluster|decode|wal|"
                 "recovery|slab|event|health)"});
      }
    }
  }

  auto in_catalog = [&catalog](const std::string& name) {
    if (catalog.count(name) > 0) return true;
    for (const char* suffix : {"_bucket", "_sum", "_count"}) {
      const std::string s = suffix;
      if (name.size() > s.size() &&
          name.compare(name.size() - s.size(), s.size(), s) == 0 &&
          catalog.count(name.substr(0, name.size() - s.size())) > 0) {
        return true;
      }
    }
    return false;
  };

  for (const LintFile& f : files) {
    if (f.path == kCatalogPath) continue;
    const bool in_src = StartsWith(f.path, "src/");
    for (const StringLiteral& lit : f.scanned.strings) {
      for (const auto& [off, name] : ExtractMetricNames(lit.text)) {
        if (in_src) {
          // Instrumented code must refer to metrics through the compiled
          // catalog constants so a typo cannot mint a ghost series.
          findings->push_back(
              {"metric-catalog", f.path, lit.line,
               "metric name '" + name +
                   "' as a string literal in src/; use the obs:: "
                   "constant from obs/metric_names.h"});
        } else if (!in_catalog(name)) {
          findings->push_back(
              {"metric-catalog", f.path, lit.line,
               "metric '" + name +
                   "' is not in src/obs/metric_names.h (docs/tests must "
                   "not drift from what the system emits)"});
        }
      }
    }
    for (const Comment& comment : f.scanned.comments) {
      for (const auto& [off, name] : ExtractMetricNames(comment.text)) {
        if (!in_catalog(name)) {
          findings->push_back(
              {"metric-catalog", f.path, comment.line,
               "comment mentions metric '" + name +
                   "' which is not in src/obs/metric_names.h"});
        }
      }
    }
  }

  for (const LintFile& d : docs) {
    const std::vector<std::string> lines = SplitLines(d.contents);
    for (size_t i = 0; i < lines.size(); ++i) {
      for (const auto& [off, name] : ExtractMetricNames(lines[i])) {
        if (!in_catalog(name)) {
          findings->push_back(
              {"metric-catalog", d.path, static_cast<int>(i + 1),
               "doc mentions metric '" + name +
                   "' which is not in src/obs/metric_names.h"});
        }
      }
    }
  }
}

}  // namespace lint
}  // namespace modelardb
