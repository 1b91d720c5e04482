// Drives the dlblint rules in-process over the violation corpus
// (tests/lint_corpus): every bad fixture must fire exactly its rule, every
// good fixture must lint clean, and the aggregate JSON must match the
// checked-in golden byte for byte on every run.
#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "dlblint/driver.hpp"

namespace {

using dlb::lint::Diagnostic;

struct CorpusEntry {
  const char* dir;           // corpus directory name
  const char* rule;          // rule every bad-fixture diagnostic must carry
  const char* virtual_path;  // path the fixtures are linted as
  const char* ext;           // fixture extension
};

// One row per corpus directory; the virtual path forces the scope the rule
// guards (src/sim, src/core, ...) even though the fixtures live in tests/.
// The directory usually matches the rule; scope-extension pairs (svc-arrivals)
// re-fire an existing rule from a newly guarded module instead.
const CorpusEntry kCorpus[] = {
    {"wall-clock", "wall-clock", "src/sim/corpus_wall_clock.cpp", "cpp"},
    {"ambient-random", "ambient-random", "src/sim/corpus_ambient_random.cpp", "cpp"},
    {"env-read", "env-read", "src/sim/corpus_env_read.cpp", "cpp"},
    {"unordered-iter", "unordered-iter", "src/core/corpus_unordered_iter.cpp", "cpp"},
    {"pointer-keyed", "pointer-keyed", "src/core/corpus_pointer_keyed.cpp", "cpp"},
    {"schedule-ref-capture", "schedule-ref-capture", "src/sim/corpus_schedule_ref_capture.cpp",
     "cpp"},
    {"coro-ref-param", "coro-ref-param", "src/core/corpus_coro_ref_param.cpp", "cpp"},
    {"unawaited-task", "unawaited-task", "src/core/corpus_unawaited_task.cpp", "cpp"},
    {"hotpath-alloc", "hotpath-alloc", "src/sim/corpus_hotpath_alloc.cpp", "cpp"},
    {"recorder-guard", "recorder-guard", "src/core/corpus_recorder_guard.cpp", "cpp"},
    {"layer-order", "layer-order", "src/sim/corpus_layer_order.cpp", "cpp"},
    {"shard-isolation", "shard-isolation", "src/core/corpus_shard_isolation.cpp", "cpp"},
    {"include-hygiene", "include-hygiene", "src/sim/corpus_include_hygiene.hpp", "hpp"},
    {"svc-arrivals", "ambient-random", "src/svc/corpus_svc_arrivals.cpp", "cpp"},
    {"seed-stream", "seed-stream", "src/svc/corpus_seed_stream.cpp", "cpp"},
    {"float-order", "float-order", "src/exp/corpus_float_order.cpp", "cpp"},
    {"vtime-monotone", "vtime-monotone", "src/load/corpus_vtime_monotone.cpp", "cpp"},
    {"shard-isolation-transitive", "shard-isolation",
     "src/core/corpus_shard_isolation_transitive.cpp", "cpp"},
};

std::string corpus_dir() { return DLBLINT_CORPUS_DIR; }

std::vector<Diagnostic> lint_fixture(const CorpusEntry& e, const char* which) {
  const std::string disk =
      corpus_dir() + "/" + e.dir + "/" + which + "." + e.ext;
  return dlb::lint::lint_files({{disk, e.virtual_path}});
}

class DlblintCorpus : public testing::TestWithParam<CorpusEntry> {};

TEST_P(DlblintCorpus, BadFiresExactlyItsRule) {
  const CorpusEntry& e = GetParam();
  const std::vector<Diagnostic> diags = lint_fixture(e, "bad");
  ASSERT_FALSE(diags.empty()) << e.dir << "/bad must trigger its rule";
  for (const Diagnostic& d : diags) {
    EXPECT_EQ(d.rule, e.rule) << "unexpected rule in " << e.dir << "/bad: " << d.rule << " ("
                              << d.message << ")";
    EXPECT_EQ(d.file, e.virtual_path);
    EXPECT_GT(d.line, 0);
  }
}

TEST_P(DlblintCorpus, GoodLintsClean) {
  const CorpusEntry& e = GetParam();
  const std::vector<Diagnostic> diags = lint_fixture(e, "good");
  for (const Diagnostic& d : diags) {
    ADD_FAILURE() << e.dir << "/good fired " << d.rule << " at line " << d.line << ": "
                  << d.message;
  }
}

INSTANTIATE_TEST_SUITE_P(AllRules, DlblintCorpus, testing::ValuesIn(kCorpus),
                         [](const testing::TestParamInfo<CorpusEntry>& info) {
                           std::string name = info.param.dir;
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

// The suppression fixtures exercise the driver rather than one rule: a bare
// allow and an unknown-rule allow are diagnostics of their own and do not
// waive anything, while a justified allow silences its line and the next.
TEST(DlblintSuppression, BareAndUnknownAllowsAreDiagnosed) {
  const std::vector<Diagnostic> diags = dlb::lint::lint_files(
      {{corpus_dir() + "/suppression/bad.cpp", "src/sim/corpus_suppression.cpp"}});
  std::vector<std::string> rules;
  for (const Diagnostic& d : diags) rules.push_back(d.rule);
  EXPECT_EQ(rules, (std::vector<std::string>{"bare-allow", "env-read", "unknown-rule",
                                             "env-read"}));
}

TEST(DlblintSuppression, JustifiedAllowWaivesTheFinding) {
  const std::vector<Diagnostic> diags = dlb::lint::lint_files(
      {{corpus_dir() + "/suppression/good.cpp", "src/sim/corpus_suppression.cpp"}});
  EXPECT_TRUE(diags.empty());
}

TEST(DlblintSuppression, CoverageIsLineAndNextOnly) {
  const std::string src =
      "// dlblint:allow(env-read) only reaches the next line\n"
      "\n"
      "const char* a() { return getenv(\"A\"); }\n";
  dlb::lint::Project project;
  const std::vector<Diagnostic> diags =
      dlb::lint::lint_source(src, "src/sim/far.cpp", project);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "env-read");
  EXPECT_EQ(diags[0].line, 3);
}

// Rule selection: --rules restricts the run without touching the registry,
// so a wall-clock fixture linted with only env-read enabled comes back clean.
TEST(DlblintOptions, RulesFilterSelectsSubset) {
  dlb::lint::Options only_env;
  only_env.rules = {"env-read"};
  const std::vector<Diagnostic> diags = dlb::lint::lint_files(
      {{corpus_dir() + "/wall-clock/bad.cpp", "src/sim/corpus_wall_clock.cpp"}}, only_env);
  EXPECT_TRUE(diags.empty());
}

// The golden file pins both the exact findings (file, line, rule, message)
// and the JSON shape.  Regenerate by deleting expected.json and copying the
// failure output, then review the diff like any other behavior change.
std::string aggregate_json() {
  std::vector<Diagnostic> all;
  for (const CorpusEntry& e : kCorpus) {
    for (const char* which : {"bad", "good"}) {
      const std::vector<Diagnostic> diags = lint_fixture(e, which);
      all.insert(all.end(), diags.begin(), diags.end());
    }
  }
  for (const char* which : {"bad", "good"}) {
    const std::vector<Diagnostic> diags = dlb::lint::lint_files(
        {{corpus_dir() + "/suppression/" + which + ".cpp", "src/sim/corpus_suppression.cpp"}});
    all.insert(all.end(), diags.begin(), diags.end());
  }
  std::sort(all.begin(), all.end());
  return dlb::lint::render_json(all);
}

TEST(DlblintGolden, CorpusJsonMatchesExpected) {
  std::ifstream in(corpus_dir() + "/expected.json");
  ASSERT_TRUE(in) << "missing " << corpus_dir() << "/expected.json";
  std::stringstream want;
  want << in.rdbuf();
  EXPECT_EQ(aggregate_json(), want.str());
}

TEST(DlblintGolden, JsonIsByteStableAcrossRuns) {
  EXPECT_EQ(aggregate_json(), aggregate_json());
}

// ---- SARIF export --------------------------------------------------------

TEST(DlblintSarif, ByteStableAndCarriesEveryFinding) {
  std::vector<Diagnostic> all;
  for (const CorpusEntry& e : kCorpus) {
    const std::vector<Diagnostic> diags = lint_fixture(e, "bad");
    all.insert(all.end(), diags.begin(), diags.end());
  }
  std::sort(all.begin(), all.end());
  const std::string sarif = dlb::lint::render_sarif(all);
  EXPECT_EQ(sarif, dlb::lint::render_sarif(all)) << "SARIF writer must be deterministic";
  // Structural anchors of a 2.1.0 document.
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("sarif-2.1.0.json"), std::string::npos);
  EXPECT_NE(sarif.find("\"name\": \"dlblint\""), std::string::npos);
  // Every diagnostic surfaces as a result with its rule id and location.
  for (const Diagnostic& d : all) {
    EXPECT_NE(sarif.find("\"ruleId\": \"" + d.rule + "\""), std::string::npos) << d.rule;
    EXPECT_NE(sarif.find("\"uri\": \"" + d.file + "\""), std::string::npos) << d.file;
  }
  // Rule metadata for the registry plus the driver-level diagnostics.
  for (const dlb::lint::Rule& r : dlb::lint::all_rules()) {
    EXPECT_NE(sarif.find("\"id\": \"" + std::string(r.id) + "\""), std::string::npos) << r.id;
  }
  EXPECT_NE(sarif.find("\"id\": \"bare-allow\""), std::string::npos);
}

TEST(DlblintSarif, EmptyRunIsValid) {
  const std::string sarif = dlb::lint::render_sarif({});
  EXPECT_NE(sarif.find("\"results\": []"), std::string::npos);
  EXPECT_EQ(sarif.find("\"ruleId\""), std::string::npos);
}

// ---- autofixer -----------------------------------------------------------

TEST(DlblintFixer, AppliesSortedNonOverlappingEdits) {
  const std::string src = "abcdef";
  std::vector<dlb::lint::TextEdit> edits = {{4, 1, "X"}, {1, 2, ""}, {0, 0, ">"}};
  EXPECT_EQ(dlb::lint::apply_edits(src, edits), ">adXf");
}

TEST(DlblintFixer, OverlappingEditsFirstWins) {
  const std::string src = "abcdef";
  std::vector<dlb::lint::TextEdit> edits = {{1, 3, "Z"}, {2, 2, "Y"}};
  EXPECT_EQ(dlb::lint::apply_edits(src, edits), "aZef");
}

namespace {
std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}
}  // namespace

TEST(DlblintFixer, FixesIncludeHygieneAndIsIdempotent) {
  const std::string tmp = testing::TempDir() + "/fix_header.hpp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out << "#pragma once\n\n#include <vector>\n\nnamespace x {\nstd::string s();\n"
           "std::vector<int> v();\n}\n";
  }
  const std::vector<dlb::lint::Input> inputs = {{tmp, "src/sim/fix_header.hpp"}};
  const dlb::lint::FixStats stats = dlb::lint::fix_files(inputs);
  EXPECT_GE(stats.edits_applied, 1u);
  const std::string fixed = slurp(tmp);
  EXPECT_NE(fixed.find("#include <string>\n#include <vector>"), std::string::npos) << fixed;
  EXPECT_TRUE(dlb::lint::lint_files(inputs).empty()) << "fixed header must lint clean";
  // Second run: nothing left to do, bytes untouched.
  const dlb::lint::FixStats again = dlb::lint::fix_files(inputs);
  EXPECT_EQ(again.edits_applied, 0u);
  EXPECT_EQ(slurp(tmp), fixed);
}

TEST(DlblintFixer, RemovesBareAllowMarker) {
  const std::string tmp = testing::TempDir() + "/fix_bare.cpp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out << "// dlblint:allow(env-read)\nint x = 1;\n";
  }
  const std::vector<dlb::lint::Input> inputs = {{tmp, "src/sim/fix_bare.cpp"}};
  (void)dlb::lint::fix_files(inputs);
  const std::string fixed = slurp(tmp);
  EXPECT_EQ(fixed.find("dlblint:allow"), std::string::npos) << fixed;
  EXPECT_TRUE(dlb::lint::lint_files(inputs).empty());
  const dlb::lint::FixStats again = dlb::lint::fix_files(inputs);
  EXPECT_EQ(again.edits_applied, 0u);
}

TEST(DlblintFixer, FixesCoroRefParamToByValue) {
  const std::string tmp = testing::TempDir() + "/fix_coro.cpp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out << "namespace x {\ntemplate <class T> struct Task {};\n"
           "Task<int> work(const std::string& name) { co_return; }\n}\n";
  }
  const std::vector<dlb::lint::Input> inputs = {{tmp, "src/core/fix_coro.cpp"}};
  (void)dlb::lint::fix_files(inputs);
  const std::string fixed = slurp(tmp);
  EXPECT_NE(fixed.find("work(std::string name)"), std::string::npos) << fixed;
  const dlb::lint::FixStats again = dlb::lint::fix_files(inputs);
  EXPECT_EQ(again.edits_applied, 0u);
}

// ---- suppression inventory ----------------------------------------------

TEST(DlblintSuppressions, CollectsSortedWithJustifications) {
  const std::vector<dlb::lint::Input> inputs = {
      {corpus_dir() + "/suppression/good.cpp", "src/sim/b.cpp"},
      {corpus_dir() + "/suppression/bad.cpp", "src/sim/a.cpp"},
  };
  const std::vector<dlb::lint::Suppression> sups = dlb::lint::collect_suppressions(inputs);
  ASSERT_GE(sups.size(), 2u);
  EXPECT_TRUE(std::is_sorted(sups.begin(), sups.end(),
                             [](const dlb::lint::Suppression& a,
                                const dlb::lint::Suppression& b) {
                               return std::tie(a.file, a.line, a.rule) <
                                      std::tie(b.file, b.line, b.rule);
                             }));
  const std::string rendered = dlb::lint::render_suppressions(sups);
  EXPECT_NE(rendered.find("allow("), std::string::npos);
  EXPECT_NE(rendered.find("<no justification>"), std::string::npos);
}

}  // namespace
