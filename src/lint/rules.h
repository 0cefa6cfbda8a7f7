// modelarlint's rule catalog (DESIGN.md §3j). Each rule mechanizes one
// load-bearing project invariant; the table below is the single source of
// truth for rule names (suppression pragmas and baselines refer to them).
//
//   io-boundary    Durable I/O must flow through util/env so
//                  FaultInjectionEnv and tools/crash_writer can reach it
//                  (DESIGN.md §3g). No ofstream/ifstream/fstream, no
//                  fopen/fwrite/fread, no open/write/read/pwrite/pread/
//                  mmap/munmap/msync calls, no <fstream>, outside the Env
//                  implementation and the allowlist (src/, tools/ and
//                  bench/baselines/).
//   sync-boundary  All locking goes through the Clang-TSA-annotated
//                  primitives in util/sync.h (DESIGN.md §3e); raw
//                  std::mutex & friends would silently escape the
//                  -Werror=thread-safety gate (src/, tools/ and
//                  bench/baselines/).
//   tsan-coverage  Every src file that includes util/sync.h must be
//                  exercised by a test suite the tier-2 TSan ctest regex
//                  (ThreadPool|Concurrency|Pipeline|Obs) matches, so new
//                  locking sites cannot skip the sanitizer tier.
//   metric-catalog Every modelardb_<layer>_* metric name referenced
//                  anywhere must exist in src/obs/metric_names.h and
//                  follow the naming convention; src code must use the
//                  catalog constants, never string literals.
//   determinism    No wall-clock/random/environment reads in src and
//                  bench/baselines outside util/time_util, util/random and
//                  explicitly suppressed config-load sites: same-seed
//                  crash-recovery runs must stay bit-identical (DESIGN.md
//                  §3g).
//   layering       The include DAG is util <- storage/core <-
//                  query/ingest/dims/partition <- cluster (obs importable
//                  by all, workload on top, lint beside util); no upward
//                  includes, and no src file includes a bench/ header.
//
// Rules fire as Findings; the engine (lint.h) then applies per-line
// suppressions and the baseline.

#ifndef MODELARDB_LINT_RULES_H_
#define MODELARDB_LINT_RULES_H_

#include <string>
#include <vector>

#include "lint/lexer.h"

namespace modelardb {
namespace lint {

struct Finding {
  std::string rule;
  std::string path;  // Repo-relative, '/'-separated.
  int line = 0;      // 1-based.
  std::string message;
};

// One analyzed file of the tree under lint.
struct LintFile {
  std::string path;       // Repo-relative, e.g. src/storage/wal.h.
  std::string contents;   // Raw bytes.
  ScannedSource scanned;  // Filled by the engine.
};

// All known rule names, in reporting order. "suppression" and "baseline"
// are meta-rules emitted by the engine itself (malformed/unused pragma,
// stale baseline entry) and cannot be suppressed.
const std::vector<std::string>& AllRuleNames();
bool IsKnownRule(const std::string& name);

// Directory-derived layer of a path: src/util/simd/kernels.cc -> "util",
// tools/crash_writer.cc -> "tools", tests/foo.cc -> "tests". Empty when
// the path is outside the classified roots.
std::string LayerOf(const std::string& path);

// Per-file rules. Each appends to *findings.
void CheckIoBoundary(const LintFile& file, std::vector<Finding>* findings);
void CheckSyncBoundary(const LintFile& file, std::vector<Finding>* findings);
void CheckDeterminism(const LintFile& file, std::vector<Finding>* findings);
void CheckLayering(const LintFile& file, std::vector<Finding>* findings);

// Whole-tree rules (need cross-file context).
void CheckTsanCoverage(const std::vector<LintFile>& files,
                       std::vector<Finding>* findings);
// `docs` are non-C++ text files (*.md) scanned as raw text.
void CheckMetricCatalog(const std::vector<LintFile>& files,
                        const std::vector<LintFile>& docs,
                        std::vector<Finding>* findings);

}  // namespace lint
}  // namespace modelardb

#endif  // MODELARDB_LINT_RULES_H_
