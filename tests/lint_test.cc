// modelarlint self-tests (DESIGN.md §3j): the lexer's comment/string
// awareness, each rule against its golden positive/negative fixtures in
// tests/lint_fixtures/, and the suppression + baseline round-trips. A
// regression in the linter fails CI exactly like a regression in the code
// it polices (the sync_compile_fail.cc pattern).

#include "lint/lint.h"

#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "util/env.h"

namespace modelardb {
namespace lint {
namespace {

#ifndef MODELARDB_LINT_FIXTURES_DIR
#error "build must define MODELARDB_LINT_FIXTURES_DIR"
#endif

std::string ReadFixture(const std::string& rel) {
  const std::string path = std::string(MODELARDB_LINT_FIXTURES_DIR) + "/" + rel;
  Result<std::vector<uint8_t>> bytes = Env::Default()->ReadFileBytes(path);
  EXPECT_TRUE(bytes.ok()) << "cannot read fixture " << path;
  return bytes.ok() ? std::string(bytes->begin(), bytes->end()) : "";
}

// A fixture file's first line declares its virtual repo path:
//   // lint-fixture: src/storage/bad_io.cc
LintFile MakeFixtureFile(const std::string& rel) {
  LintFile file;
  file.contents = ReadFixture(rel);
  const std::string kTag = "lint-fixture:";
  size_t eol = file.contents.find('\n');
  const std::string first = file.contents.substr(0, eol);
  size_t tag = first.find(kTag);
  EXPECT_NE(tag, std::string::npos) << rel << " lacks a lint-fixture header";
  size_t start = tag + kTag.size();
  while (start < first.size() && first[start] == ' ') ++start;
  file.path = first.substr(start);
  return file;
}

// Runs one fixture case (a list of files, some possibly virtual *.md docs)
// and compares the rendered findings with the golden expected.txt
// (absent/empty golden = the case must be clean).
void RunCase(const std::string& case_dir,
             const std::vector<std::string>& file_names,
             int expect_suppressed = 0) {
  std::vector<LintFile> files;
  std::vector<LintFile> docs;
  for (const std::string& name : file_names) {
    LintFile file = MakeFixtureFile(case_dir + "/" + name);
    const bool is_doc = file.path.size() > 3 &&
                        file.path.rfind(".md") == file.path.size() - 3;
    (is_doc ? docs : files).push_back(std::move(file));
  }
  LintResult result = RunLint(&files, &docs, "");

  std::string actual;
  for (const Finding& finding : result.findings) {
    actual += FormatFinding(finding) + "\n";
  }
  const std::string golden_path =
      std::string(MODELARDB_LINT_FIXTURES_DIR) + "/" + case_dir +
      "/expected.txt";
  std::string expected;
  if (Env::Default()->FileExists(golden_path)) {
    expected = ReadFixture(case_dir + "/expected.txt");
  }
  EXPECT_EQ(actual, expected) << "case " << case_dir;
  EXPECT_EQ(result.suppressed, expect_suppressed) << "case " << case_dir;
}

// ---------------------------------------------------------------------
// Lexer.

TEST(LintLexerTest, BlanksCommentsAndStringsButKeepsLines) {
  ScannedSource s = ScanSource(
      "int a; // std::ofstream in a comment\n"
      "const char* b = \"fopen inside a string\";\n"
      "/* fopen\n   spans lines */ int c;\n");
  EXPECT_TRUE(FindIdentifier(s.code, "fopen").empty());
  EXPECT_TRUE(FindIdentifier(s.code, "ofstream").empty());
  EXPECT_FALSE(FindIdentifier(s.code, "a").empty());
  EXPECT_EQ(LineOfOffset(s.code, FindIdentifier(s.code, "c")[0]), 4);
  ASSERT_EQ(s.strings.size(), 1u);
  EXPECT_EQ(s.strings[0].text, "fopen inside a string");
  ASSERT_EQ(s.comments.size(), 2u);
  EXPECT_EQ(s.comments[1].line, 3);
}

TEST(LintLexerTest, RawStringsAndDigitSeparators) {
  ScannedSource s = ScanSource(
      "const char* sql = R\"sql(SELECT fopen FROM t)sql\";\n"
      "int big = 1'000'000;\n"
      "char quote = '\\'';\n"
      "int after = 7;\n");
  EXPECT_TRUE(FindIdentifier(s.code, "fopen").empty());
  EXPECT_FALSE(FindIdentifier(s.code, "big").empty());
  EXPECT_FALSE(FindIdentifier(s.code, "after").empty());
  ASSERT_EQ(s.strings.size(), 1u);
  EXPECT_EQ(s.strings[0].text, "SELECT fopen FROM t");
}

TEST(LintLexerTest, IncludesSkipCommentsAndStrings) {
  ScannedSource s = ScanSource(
      "#include <fstream>\n"
      "#include \"util/env.h\"\n"
      "// #include <mutex>\n"
      "const char* fake = \"#include <shared_mutex>\";\n");
  ASSERT_EQ(s.includes.size(), 2u);
  EXPECT_TRUE(s.includes[0].system);
  EXPECT_EQ(s.includes[0].target, "fstream");
  EXPECT_FALSE(s.includes[1].system);
  EXPECT_EQ(s.includes[1].target, "util/env.h");
}

// ---------------------------------------------------------------------
// Rules: golden positive + clean negative per rule.

TEST(LintRulesTest, IoBoundaryFires) {
  RunCase("io_boundary_bad", {"bad_io.cc", "baseline_io.cc"});
}
TEST(LintRulesTest, IoBoundaryNegative) {
  RunCase("io_boundary_good", {"good_io.cc"});
}
TEST(LintRulesTest, SyncBoundaryFires) {
  RunCase("sync_boundary_bad", {"bad_sync.cc", "baseline_sync.cc"});
}
TEST(LintRulesTest, SyncBoundaryNegative) {
  RunCase("sync_boundary_good", {"good_sync.cc", "good_sync_test.cc"});
}
TEST(LintRulesTest, TsanCoverageFires) {
  RunCase("tsan_coverage_bad", {"locker.cc", "locker_test.cc"});
}
TEST(LintRulesTest, TsanCoverageNegative) {
  RunCase("tsan_coverage_good", {"locker.cc", "locker_test.cc"});
}
TEST(LintRulesTest, MetricCatalogFires) {
  RunCase("metric_catalog_bad",
          {"metric_names.h", "metrics_user.cc", "metrics_test.cc", "doc.md"});
}
TEST(LintRulesTest, MetricCatalogNegative) {
  RunCase("metric_catalog_good", {"metric_names.h", "metrics_test.cc"});
}
TEST(LintRulesTest, DeterminismFires) {
  RunCase("determinism_bad", {"bad_time.cc", "baseline_time.cc"});
}
TEST(LintRulesTest, DeterminismNegative) {
  RunCase("determinism_good", {"good_time.cc"});
}
TEST(LintRulesTest, LayeringFires) {
  RunCase("layering_bad", {"bad_layer.cc", "includes_bench.cc"});
}
TEST(LintRulesTest, LayeringNegative) {
  RunCase("layering_good", {"good_layer.cc"});
}

// ---------------------------------------------------------------------
// Suppressions: a reasoned pragma silences exactly its line and rule;
// malformed/unused pragmas are findings themselves.

TEST(LintSuppressionTest, RoundTrip) {
  RunCase("suppression", {"suppressed.cc", "pragma_errors.cc"},
          /*expect_suppressed=*/1);
}

// ---------------------------------------------------------------------
// Baseline: grandfather -> clean -> stale, keyed by line text so entries
// survive line drift but die with the offending code.

TEST(LintBaselineTest, RoundTrip) {
  auto make_files = [](const std::string& body) {
    LintFile file;
    file.path = "src/storage/grandfathered.cc";
    file.contents = body;
    std::vector<LintFile> files;
    files.push_back(file);
    return files;
  };
  const std::string kViolating = "void F(const char* p) { fopen(p, \"r\"); }\n";

  // 1. The violation fires with no baseline.
  std::vector<LintFile> files = make_files(kViolating);
  std::vector<LintFile> docs;
  LintResult unbaselined = RunLint(&files, &docs, "");
  ASSERT_EQ(unbaselined.findings.size(), 1u);
  EXPECT_EQ(unbaselined.findings[0].rule, "io-boundary");

  // 2. Grandfathered: the rendered baseline silences it.
  const std::string baseline =
      RenderBaseline(unbaselined.findings, files, docs);
  files = make_files(kViolating);
  LintResult grandfathered = RunLint(&files, &docs, baseline);
  EXPECT_TRUE(grandfathered.findings.empty())
      << FormatFinding(grandfathered.findings[0]);
  EXPECT_EQ(grandfathered.baselined, 1);

  // 2b. Line drift (a new line above) does not invalidate the entry.
  files = make_files("// a new comment pushes the code down\n" + kViolating);
  LintResult drifted = RunLint(&files, &docs, baseline);
  EXPECT_TRUE(drifted.findings.empty());
  EXPECT_EQ(drifted.baselined, 1);

  // 3. Fixing the code makes the entry stale — itself a finding.
  files = make_files("void F(const char*) {}\n");
  LintResult stale = RunLint(&files, &docs, baseline);
  ASSERT_EQ(stale.findings.size(), 1u);
  EXPECT_EQ(stale.findings[0].rule, "baseline");
  EXPECT_EQ(stale.findings[0].path, "tools/lint_baseline.txt");
}

TEST(LintBaselineTest, MalformedLinesAreFindings) {
  std::vector<LintFile> files;
  std::vector<LintFile> docs;
  LintResult result = RunLint(&files, &docs,
                              "# comment ok\n"
                              "io-boundary deadbeef src/too_short_fp.cc\n"
                              "not-a-rule 0123456789abcdef src/x.cc\n");
  ASSERT_EQ(result.findings.size(), 2u);
  EXPECT_EQ(result.findings[0].rule, "baseline");
  EXPECT_EQ(result.findings[1].rule, "baseline");
}

TEST(LintFingerprintTest, StableAndTextKeyed) {
  const uint64_t a = FindingFingerprint("io-boundary", "src/a.cc", "x");
  EXPECT_EQ(a, FindingFingerprint("io-boundary", "src/a.cc", "x"));
  EXPECT_NE(a, FindingFingerprint("io-boundary", "src/a.cc", "y"));
  EXPECT_NE(a, FindingFingerprint("determinism", "src/a.cc", "x"));
  EXPECT_NE(a, FindingFingerprint("io-boundary", "src/b.cc", "x"));
}

}  // namespace
}  // namespace lint
}  // namespace modelardb
