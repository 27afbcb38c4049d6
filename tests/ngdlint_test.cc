// ngdlint rule coverage: each rule must fire, with the right file:line,
// on a seeded fixture tree — and stay silent where suppressed — plus a
// clean-tree self-check against the real repository (the same invariant
// CI enforces, so a regression fails here first).
//
// Fixture trees are materialized under the gtest temp dir; the linter
// core (tools/ngdlint.h) is driven in-process.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "ngdlint.h"

namespace {

namespace fs = std::filesystem;
using ngdlint::Finding;
using ngdlint::LintTree;

class FixtureTree {
 public:
  explicit FixtureTree(const std::string& name)
      : root_(fs::path(::testing::TempDir()) / name) {
    fs::remove_all(root_);
    fs::create_directories(root_ / "src");
    fs::create_directories(root_ / "tests");
  }
  ~FixtureTree() { fs::remove_all(root_); }

  void Write(const std::string& rel, const std::string& text) {
    const fs::path p = root_ / rel;
    fs::create_directories(p.parent_path());
    std::ofstream(p) << text;
  }

  std::vector<Finding> Lint() const { return LintTree(root_.string()); }

  std::string root() const { return root_.string(); }

 private:
  fs::path root_;
};

std::vector<Finding> WithRule(const std::vector<Finding>& all,
                              const std::string& rule) {
  std::vector<Finding> out;
  for (const Finding& f : all) {
    if (f.rule == rule) out.push_back(f);
  }
  return out;
}

// A minimal header that trips no rule, to keep fixtures single-issue.
constexpr char kCleanHeader[] =
    "#ifndef NGD_X_H_\n"
    "#define NGD_X_H_\n"
    "#endif\n";

// All three magics defined once, so magic-missing stays quiet in
// fixtures that exercise other rules.
constexpr char kAllMagics[] =
    "#ifndef NGD_MAGICS_H_\n"
    "#define NGD_MAGICS_H_\n"
    "inline constexpr char kA[8] = {'N','G','D','W','A','L','1',0};\n"
    "inline constexpr char kB[8] = {'N','G','D','S','N','A','P','1'};\n"
    "inline constexpr char kC[8] = {'N','G','D','V','S','E','G','1'};\n"
    "#endif\n";

TEST(NgdlintTest, UnarmedFailpointFires) {
  FixtureTree t("ngdlint_failpoint");
  t.Write("src/magics.h", kAllMagics);
  t.Write("src/io.cc",
          "// a write path\n"
          "static const char* s = NGD_FAILPOINT(\"ghost_write\");\n");
  t.Write("tests/io_test.cc", "// arms nothing\n");
  const auto hits = WithRule(t.Lint(), "failpoint-unarmed");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].file, "src/io.cc");
  EXPECT_EQ(hits[0].line, 2);
  EXPECT_NE(hits[0].message.find("ghost_write"), std::string::npos);
}

TEST(NgdlintTest, ArmedFailpointIsQuiet) {
  FixtureTree t("ngdlint_failpoint_armed");
  t.Write("src/magics.h", kAllMagics);
  t.Write("src/io.cc",
          "static const char* s = NGD_FAILPOINT(\"ghost_write\");\n");
  t.Write("tests/io_test.cc",
          "void f() { ArmSite(\"ghost_write\", Mode::kEnospc); }\n");
  EXPECT_TRUE(WithRule(t.Lint(), "failpoint-unarmed").empty());
}

TEST(NgdlintTest, DuplicatedMagicFires) {
  FixtureTree t("ngdlint_magic");
  t.Write("src/magics.h", kAllMagics);
  t.Write("src/zz_fork.h",
          "#ifndef NGD_ZZ_FORK_H_\n"
          "#define NGD_ZZ_FORK_H_\n"
          "// a second copy of the WAL magic, split across lines\n"
          "inline constexpr char kMagic[8] = {'N', 'G', 'D', 'W',\n"
          "                                   'A', 'L', '1', 0};\n"
          "#endif\n");
  const auto hits = WithRule(t.Lint(), "magic-duplicate");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].file, "src/zz_fork.h");
  EXPECT_EQ(hits[0].line, 4);
  EXPECT_NE(hits[0].message.find("NGDWAL1"), std::string::npos);
  EXPECT_TRUE(WithRule(t.Lint(), "magic-missing").empty());
}

TEST(NgdlintTest, MagicInErrorMessageDoesNotCount) {
  FixtureTree t("ngdlint_magic_msg");
  t.Write("src/magics.h", kAllMagics);
  t.Write("src/reader.cc",
          "static const char* err = \"not an NGDWAL1 journal\";\n");
  EXPECT_TRUE(WithRule(t.Lint(), "magic-duplicate").empty());
}

TEST(NgdlintTest, MissingMagicFires) {
  FixtureTree t("ngdlint_magic_missing");
  t.Write("src/x.h", kCleanHeader);
  const auto hits = WithRule(t.Lint(), "magic-missing");
  EXPECT_EQ(hits.size(), 3u);  // none of the three magics defined
}

TEST(NgdlintTest, BannedConstructsFireWithSuppression) {
  FixtureTree t("ngdlint_banned");
  t.Write("src/magics.h", kAllMagics);
  t.Write("src/bad.cc",
          "void f() {\n"
          "  int* p = new int;\n"
          "  int r = rand();\n"
          "  std::cout << std::endl;\n"
          "  long now = time(nullptr);\n"
          "  static X* x = new X();  // ngdlint:allow(naked-new)\n"
          "  const char* s = \"new rand() time( std::endl\";  // literal\n"
          "}\n");
  const auto all = t.Lint();
  ASSERT_EQ(WithRule(all, "naked-new").size(), 1u);
  EXPECT_EQ(WithRule(all, "naked-new")[0].line, 2);
  ASSERT_EQ(WithRule(all, "banned-rand").size(), 1u);
  EXPECT_EQ(WithRule(all, "banned-rand")[0].line, 3);
  ASSERT_EQ(WithRule(all, "banned-endl").size(), 1u);
  EXPECT_EQ(WithRule(all, "banned-endl")[0].line, 4);
  ASSERT_EQ(WithRule(all, "banned-time").size(), 1u);
  EXPECT_EQ(WithRule(all, "banned-time")[0].line, 5);
}

TEST(NgdlintTest, DuplicatedFnvFires) {
  FixtureTree t("ngdlint_fnv");
  t.Write("src/magics.h", kAllMagics);
  t.Write("src/util/hash.h",
          "#ifndef NGD_UTIL_HASH_H_\n"
          "#define NGD_UTIL_HASH_H_\n"
          "inline constexpr unsigned long long kPrime = 1099511628211ULL;\n"
          "#endif\n");
  t.Write("src/io.cc",
          "unsigned long long Mix(unsigned long long h, unsigned char c) {\n"
          "  h ^= c;\n"
          "  return h * 1099511628211ULL;\n"
          "}\n"
          "unsigned long long Mix2(unsigned long long h) {\n"
          "  return h * 0x100000001B3ull;\n"
          "}\n");
  const auto hits = WithRule(t.Lint(), "fnv-duplicate");
  ASSERT_EQ(hits.size(), 2u);  // util/hash.h itself is exempt
  EXPECT_EQ(hits[0].file, "src/io.cc");
  EXPECT_EQ(hits[0].line, 3);
  EXPECT_EQ(hits[1].line, 6);
}

TEST(NgdlintTest, FnvInCommentsOrLongerNumbersIsQuiet) {
  FixtureTree t("ngdlint_fnv_quiet");
  t.Write("src/magics.h", kAllMagics);
  t.Write("src/io.cc",
          "// FNV-1a: h *= 1099511628211, see util/hash.h\n"
          "static const char* kDoc = \"prime 0x100000001b3\";\n"
          "unsigned long long a = 21099511628211ULL;\n"
          "unsigned long long b = 0x100000001b30ULL;\n"
          "unsigned long long c = 1099511628211;  "
          "// ngdlint:allow(fnv-duplicate)\n");
  EXPECT_TRUE(WithRule(t.Lint(), "fnv-duplicate").empty());
}

TEST(NgdlintTest, MissingIncludeFires) {
  FixtureTree t("ngdlint_include");
  t.Write("src/magics.h", kAllMagics);
  t.Write("src/uses_vector.h",
          "#ifndef NGD_USES_VECTOR_H_\n"
          "#define NGD_USES_VECTOR_H_\n"
          "#include <string>\n"
          "std::vector<int> v();\n"
          "std::string s();\n"
          "#endif\n");
  const auto hits = WithRule(t.Lint(), "missing-include");
  ASSERT_EQ(hits.size(), 1u);  // <string> is included; <vector> is not
  EXPECT_EQ(hits[0].file, "src/uses_vector.h");
  EXPECT_EQ(hits[0].line, 4);
  EXPECT_NE(hits[0].message.find("<vector>"), std::string::npos);
}

TEST(NgdlintTest, IncludeCycleFires) {
  FixtureTree t("ngdlint_cycle");
  t.Write("src/magics.h", kAllMagics);
  t.Write("src/a.h",
          "#ifndef NGD_A_H_\n#define NGD_A_H_\n"
          "#include \"b.h\"\n#endif\n");
  t.Write("src/b.h",
          "#ifndef NGD_B_H_\n#define NGD_B_H_\n"
          "#include \"a.h\"\n#endif\n");
  const auto hits = WithRule(t.Lint(), "include-cycle");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].line, 3);
}

TEST(NgdlintTest, MissingIncludeGuardFires) {
  FixtureTree t("ngdlint_guard");
  t.Write("src/magics.h", kAllMagics);
  t.Write("src/unguarded.h", "#pragma once\nint f();\n");
  const auto hits = WithRule(t.Lint(), "include-guard");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].file, "src/unguarded.h");
}

TEST(NgdlintTest, FormatFindingIsFileLineRuleMessage) {
  const Finding f{"src/a.cc", 12, "naked-new", "naked new"};
  EXPECT_EQ(ngdlint::FormatFinding(f), "src/a.cc:12: [naked-new] naked new");
  const Finding whole{"src", 0, "magic-missing", "m"};
  EXPECT_EQ(ngdlint::FormatFinding(whole), "src: [magic-missing] m");
}

// The invariant CI enforces: the real tree is clean. NGDLINT_REPO_ROOT
// is injected by CMake.
TEST(NgdlintTest, RealTreeIsClean) {
  const auto findings = LintTree(NGDLINT_REPO_ROOT);
  for (const Finding& f : findings) {
    ADD_FAILURE() << ngdlint::FormatFinding(f);
  }
}

}  // namespace
