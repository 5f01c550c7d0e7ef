// Tests for warplint itself: each rule must fire on its positive fixture,
// stay quiet on its negative fixture, and honor the NOLINT suppression
// policy. The fixtures live in tests/lint_fixtures/{positive,negative}/src
// — snippet trees shaped like the repo, holding intentional violations —
// and are excluded from warplint's normal walk.
//
// WARPLINT_BIN and WARPLINT_FIXTURES are injected by CMake.

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <string>
#include <vector>

namespace {

struct LintRun {
  int exit_code = -1;
  std::string output;
};

// Runs warplint with a raw argument string (shell-quoted by the caller);
// stderr is folded into the captured output.
LintRun RunLintCmd(const std::string& args) {
  std::string cmd = std::string("'") + WARPLINT_BIN + "' " + args + " 2>&1";
  LintRun run;
  std::FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return run;
  std::array<char, 4096> buf;
  size_t n = 0;
  while ((n = std::fread(buf.data(), 1, buf.size(), pipe)) > 0) {
    run.output.append(buf.data(), n);
  }
  int status = pclose(pipe);
  run.exit_code = WEXITSTATUS(status);
  return run;
}

LintRun RunLint(const std::string& root, bool json = false) {
  return RunLintCmd("--root '" + root + "'" + (json ? " --json" : ""));
}

std::string Positive() {
  return std::string(WARPLINT_FIXTURES) + "/positive";
}
std::string Negative() {
  return std::string(WARPLINT_FIXTURES) + "/negative";
}
// The schema-lock trees: base (the committed shape), drift (fields
// reordered, version untouched), bump (same reorder plus a version bump).
std::string SchemaTree(const char* which) {
  return std::string(WARPLINT_FIXTURES) + "/schema/" + which;
}

// Findings for `rule` as "file:line" strings, parsed from text output lines
// of the form `path:line warplint-<rule> message`.
std::vector<std::string> FindingsFor(const std::string& output,
                                     const std::string& rule) {
  std::vector<std::string> hits;
  size_t pos = 0;
  std::string needle = " warplint-" + rule + " ";
  while (pos < output.size()) {
    size_t eol = output.find('\n', pos);
    if (eol == std::string::npos) eol = output.size();
    std::string line = output.substr(pos, eol - pos);
    size_t at = line.find(needle);
    if (at != std::string::npos) hits.push_back(line.substr(0, at));
    pos = eol + 1;
  }
  return hits;
}

class PositiveFixtures : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { run_ = new LintRun(RunLint(Positive())); }
  static void TearDownTestSuite() {
    delete run_;
    run_ = nullptr;
  }
  static LintRun* run_;
};
LintRun* PositiveFixtures::run_ = nullptr;

TEST_F(PositiveFixtures, ExitsNonZero) { EXPECT_EQ(run_->exit_code, 1); }

TEST_F(PositiveFixtures, DeterminismFiresOnEveryBannedSource) {
  auto hits = FindingsFor(run_->output, "determinism");
  // srand + time(nullptr) share a line; rand, random_device, system_clock.
  EXPECT_EQ(hits.size(), 5u) << run_->output;
  for (const auto& h : hits) {
    EXPECT_EQ(h.substr(0, h.find(':')), "src/util/determinism.cc");
  }
}

TEST_F(PositiveFixtures, UnorderedIterFiresOnRangeForAndIterators) {
  auto hits = FindingsFor(run_->output, "unordered-iter");
  ASSERT_EQ(hits.size(), 2u) << run_->output;
  EXPECT_EQ(hits[0], "src/serve/publish.cc:9");
  EXPECT_EQ(hits[1], "src/serve/publish.cc:12");
}

TEST_F(PositiveFixtures, HotpathSyncFiresInsideHotBodiesOnly) {
  auto hits = FindingsFor(run_->output, "hotpath-sync");
  ASSERT_EQ(hits.size(), 5u) << run_->output;
  EXPECT_EQ(hits[0], "src/core/simd_kernels.cc:7");  // fetch_add in a free
                                                     // kernel function
  EXPECT_EQ(hits[1], "src/core/warp_lda.cc:8");    // fetch_add in RunBlock
  EXPECT_EQ(hits[2], "src/core/warp_lda.cc:13");   // lock_guard in an
                                                   // *ItemRange task
  EXPECT_EQ(hits[3], "src/core/warp_lda.cc:17");   // lock_guard in
                                                   // RunFusedWordPart
  EXPECT_EQ(hits[4], "src/core/warp_lda.cc:21");   // fetch_add in
                                                   // AcceptSegment
}

TEST_F(PositiveFixtures, ScalarRefFiresOnIntrinsicsInScalarKernels) {
  auto hits = FindingsFor(run_->output, "scalar-ref");
  ASSERT_EQ(hits.size(), 2u) << run_->output;
  EXPECT_EQ(hits[0], "src/core/simd_kernels.cc:11");  // __m256d load
  EXPECT_EQ(hits[1], "src/core/simd_kernels.cc:12");  // _mm256 store
}

TEST_F(PositiveFixtures, LayeringFiresOnUpwardIncludesAndCycles) {
  auto hits = FindingsFor(run_->output, "layering");
  ASSERT_EQ(hits.size(), 4u) << run_->output;
  EXPECT_NE(run_->output.find("layer 'util' must not include 'core/"),
            std::string::npos);
  EXPECT_NE(run_->output.find("layer 'core' must not include 'serve/"),
            std::string::npos);
  // dist/ sits below the serving tier: it may reuse util/checkpoint_io and
  // the obs/ seams, but a dist -> serve edge is always a violation.
  EXPECT_NE(run_->output.find("layer 'dist' must not include 'serve/"),
            std::string::npos);
  EXPECT_NE(run_->output.find(
                "include cycle: core/cycle_a.h -> core/cycle_b.h -> "
                "core/cycle_a.h"),
            std::string::npos);
}

TEST_F(PositiveFixtures, NakedNewFiresOnNewAndDelete) {
  auto hits = FindingsFor(run_->output, "naked-new");
  // leak.cc: new + delete; badnolint.cc: two unsuppressed news (one with a
  // justification-less NOLINT, one naming an unknown rule).
  EXPECT_EQ(hits.size(), 4u) << run_->output;
}

TEST_F(PositiveFixtures, MemcpyNontrivialFiresOnThisAndContainers) {
  auto hits = FindingsFor(run_->output, "memcpy-nontrivial");
  ASSERT_EQ(hits.size(), 2u) << run_->output;
  EXPECT_EQ(hits[0], "src/core/copy.cc:8");   // memcpy over *this
  EXPECT_EQ(hits[1], "src/core/copy.cc:14");  // memcpy into a std::vector
}

TEST_F(PositiveFixtures, AlignasPadFiresOnArraysAndUnpaddedNeighbors) {
  auto hits = FindingsFor(run_->output, "alignas-pad");
  ASSERT_EQ(hits.size(), 2u) << run_->output;
  EXPECT_EQ(hits[0], "src/core/shards.h:6");   // alignas(64) on an array
  EXPECT_EQ(hits[1], "src/core/shards.h:11");  // neighbor shares the line
}

TEST_F(PositiveFixtures, NolintPolicyIsItselfLinted) {
  auto hits = FindingsFor(run_->output, "nolint");
  ASSERT_EQ(hits.size(), 2u) << run_->output;
  EXPECT_NE(run_->output.find("without a justification"), std::string::npos);
  EXPECT_NE(run_->output.find("unknown rule 'warplint-bogus'"),
            std::string::npos);
}

TEST_F(PositiveFixtures, JustifiedSuppressionsAreCountedNotReported) {
  // The two justified `delete` NOLINTs in badnolint.cc suppress cleanly.
  // The stale NOLINT in stalenolint.cc suppresses nothing and is NOT
  // counted — it is reported by warplint-stale-nolint instead.
  EXPECT_NE(run_->output.find("2 suppressed"), std::string::npos)
      << run_->output;
}

TEST_F(PositiveFixtures, ContractFiresOnAllFourViolationShapes) {
  auto hits = FindingsFor(run_->output, "contract");
  ASSERT_EQ(hits.size(), 10u) << run_->output;
  EXPECT_EQ(hits[0], "src/core/contracts_demo.cc:11");  // BARRIER_ONLY write
                                                        // in RunBlock
  EXPECT_EQ(hits[1], "src/core/contracts_demo.cc:12");  // IMMUTABLE_AFTER
                                                        // write outside Init
  EXPECT_EQ(hits[2], "src/core/contracts_demo.cc:13");  // WORKER_LOCAL not
                                                        // worker-indexed
  EXPECT_EQ(hits[3], "src/core/contracts_demo.cc:24");  // WORKER_LOCAL not
                                                        // worker-indexed in
                                                        // a barrier task
  EXPECT_EQ(hits[4], "src/core/contracts_demo.h:22");   // unannotated holder
                                                        // of DemoScratch
  // hits[5..9] are item_owned.{cc,h}: see ItemOwnedScopesInPlaceWrites.
  EXPECT_NE(run_->output.find("may only be mutated at stage barriers"),
            std::string::npos);
  EXPECT_NE(run_->output.find("only {Init} (and constructors)"),
            std::string::npos);
  EXPECT_NE(run_->output.find("not indexed by the worker argument"),
            std::string::npos);
  EXPECT_NE(run_->output.find("holds worker-local type 'DemoScratch'"),
            std::string::npos);
}

// WARP_ITEM_OWNED: the listed *ItemRange body may write elements in place
// (item_owned.cc:6 stays quiet), but not the container; an unlisted
// concurrent body may neither write nor call the listed body; and the list
// itself must name existing *ItemRange bodies. The negative twin holds the
// legal shapes.
TEST_F(PositiveFixtures, ItemOwnedScopesInPlaceWrites) {
  auto hits = FindingsFor(run_->output, "contract");
  ASSERT_EQ(hits.size(), 10u) << run_->output;
  EXPECT_EQ(hits[5], "src/core/item_owned.cc:7");   // z_.resize in the task
  EXPECT_EQ(hits[6], "src/core/item_owned.cc:11");  // write from RunBlock
  EXPECT_EQ(hits[7], "src/core/item_owned.cc:12");  // RunBlock calls the task
  EXPECT_EQ(hits[8], "src/core/item_owned.h:11");   // stale listed name
  EXPECT_EQ(hits[9], "src/core/item_owned.h:14");   // lists a non-task body
  EXPECT_NE(run_->output.find("never the container itself"),
            std::string::npos);
  EXPECT_NE(run_->output.find("which does not own whole items"),
            std::string::npos);
  EXPECT_NE(run_->output.find("a stale exemption"), std::string::npos);
  EXPECT_NE(run_->output.find("must run as its own item-range task"),
            std::string::npos);
  EXPECT_NE(run_->output.find("which is not an *ItemRange task body"),
            std::string::npos);
}

TEST_F(PositiveFixtures, RngStreamFiresOnSeededConstructionAndReseed) {
  auto hits = FindingsFor(run_->output, "rng-stream");
  ASSERT_EQ(hits.size(), 2u) << run_->output;
  EXPECT_EQ(hits[0], "src/core/rngdemo.cc:7");  // Rng rng(seed_ + worker)
  EXPECT_EQ(hits[1], "src/core/rngdemo.cc:8");  // rng.Seed(n) mid-body
  EXPECT_NE(run_->output.find("without a per-token stream derivation"),
            std::string::npos);
  EXPECT_NE(run_->output.find("re-seeding an Rng inside concurrent body"),
            std::string::npos);
}

TEST_F(PositiveFixtures, ObsOrphanFiresInBothDirections) {
  auto hits = FindingsFor(run_->output, "obs-orphan");
  ASSERT_EQ(hits.size(), 2u) << run_->output;
  EXPECT_EQ(hits[0], "src/serve/obsleak.cc:10");  // fetched, never driven
  EXPECT_EQ(hits[1], "src/serve/obsleak.cc:21");  // driven, never bound
  EXPECT_NE(run_->output.find("never Inc/Add/Set/Observe'd"),
            std::string::npos);
  EXPECT_NE(run_->output.find("mutated but never bound to the registry"),
            std::string::npos);
}

TEST_F(PositiveFixtures, StaleNolintFiresOnFixedLine) {
  auto hits = FindingsFor(run_->output, "stale-nolint");
  ASSERT_EQ(hits.size(), 1u) << run_->output;
  EXPECT_EQ(hits[0], "src/util/stalenolint.cc:6");
  EXPECT_NE(run_->output.find("suppresses nothing"), std::string::npos);
}

TEST(NegativeFixtures, EveryRuleStaysQuiet) {
  // Includes the contract mirrors (worker-indexed scratch, barrier-side
  // writes, listed-writer mutation, annotated holders, in-place element
  // writes from a listed item-range body), stream-derived Rng construction,
  // and driven obs handles.
  LintRun run = RunLint(Negative());
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("0 violation(s)"), std::string::npos)
      << run.output;
  // leak_ok.cc's justified singleton NOLINT is recorded, not reported —
  // and because its rule actually fires there, stale-nolint stays quiet.
  EXPECT_NE(run.output.find("1 suppressed"), std::string::npos)
      << run.output;
}

TEST(JsonOutput, PositiveSummaryIsMachineReadable) {
  LintRun run = RunLint(Positive(), /*json=*/true);
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_NE(run.output.find("\"violations\": ["), std::string::npos);
  EXPECT_NE(run.output.find("\"rule\": \"warplint-determinism\""),
            std::string::npos);
  EXPECT_NE(run.output.find("\"warplint-hotpath-sync\": 5"),
            std::string::npos);
  EXPECT_NE(run.output.find("\"warplint-scalar-ref\": 2"),
            std::string::npos);
  EXPECT_NE(run.output.find("\"warplint-contract\": 10"), std::string::npos);
  EXPECT_NE(run.output.find("\"warplint-rng-stream\": 2"),
            std::string::npos);
  EXPECT_NE(run.output.find("\"warplint-obs-orphan\": 2"),
            std::string::npos);
  EXPECT_NE(run.output.find("\"warplint-stale-nolint\": 1"),
            std::string::npos);
  EXPECT_NE(run.output.find("\"total\": 43"), std::string::npos)
      << run.output;
}

TEST(JsonOutput, NegativeSummaryReportsZeroViolations) {
  LintRun run = RunLint(Negative(), /*json=*/true);
  EXPECT_EQ(run.exit_code, 0);
  EXPECT_NE(run.output.find("\"violations\": []"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("\"total\": 0"), std::string::npos);
  EXPECT_NE(run.output.find("src/obs/leak_ok.cc"), std::string::npos)
      << "suppressed finding should appear in the suppressed list";
}

// The headline schema-lock invariant, end to end: a lock generated from the
// base tree round-trips cleanly; reordering wire-struct fields without a
// version bump fails the check AND blocks lock regeneration; bumping the
// version turns the failure into a regenerate prompt and unlocks the write.
TEST(SchemaLock, RoundTripDriftRefusalAndBump) {
  const std::string lock = ::testing::TempDir() + "warplint_state.lock";
  std::remove(lock.c_str());
  const std::string at = "' --schema-lock '" + lock + "'";

  LintRun wrote = RunLintCmd("--root '" + SchemaTree("base") + at +
                             " --write-schema-lock");
  EXPECT_EQ(wrote.exit_code, 0) << wrote.output;
  EXPECT_NE(wrote.output.find("1 pinned struct(s)"), std::string::npos)
      << wrote.output;

  LintRun clean = RunLintCmd("--root '" + SchemaTree("base") + at);
  EXPECT_EQ(clean.exit_code, 0) << clean.output;

  LintRun drift = RunLintCmd("--root '" + SchemaTree("drift") + at);
  EXPECT_EQ(drift.exit_code, 1) << drift.output;
  EXPECT_NE(drift.output.find("'SweepState' drifted"), std::string::npos);
  EXPECT_NE(drift.output.find("without a version bump"), std::string::npos)
      << drift.output;

  LintRun refused = RunLintCmd("--root '" + SchemaTree("drift") + at +
                               " --write-schema-lock");
  EXPECT_EQ(refused.exit_code, 2) << refused.output;
  EXPECT_NE(refused.output.find("refusing to rewrite schema lock"),
            std::string::npos)
      << refused.output;

  LintRun bumped = RunLintCmd("--root '" + SchemaTree("bump") + at);
  EXPECT_EQ(bumped.exit_code, 1) << bumped.output;
  EXPECT_NE(bumped.output.find("a version constant was bumped — regenerate"),
            std::string::npos)
      << bumped.output;

  LintRun rewrote = RunLintCmd("--root '" + SchemaTree("bump") + at +
                               " --write-schema-lock");
  EXPECT_EQ(rewrote.exit_code, 0) << rewrote.output;

  LintRun fresh = RunLintCmd("--root '" + SchemaTree("bump") + at);
  EXPECT_EQ(fresh.exit_code, 0) << fresh.output;
  std::remove(lock.c_str());
}

TEST(BaselineMode, KnownFindingsPassOnlyNewOnesFail) {
  const std::string baseline =
      ::testing::TempDir() + "warplint_baseline.json";
  LintRun capture = RunLintCmd("--root '" + Positive() + "' --json > '" +
                               baseline + "'");
  EXPECT_EQ(capture.exit_code, 1);

  // Every finding is in the baseline: the gate passes.
  LintRun rerun = RunLintCmd("--root '" + Positive() + "' --baseline '" +
                             baseline + "'");
  EXPECT_EQ(rerun.exit_code, 0) << rerun.output;
  EXPECT_NE(rerun.output.find("0 new violation(s), 43 baselined"),
            std::string::npos)
      << rerun.output;

  // The JSON report carries the baselined count for the CI artifact.
  LintRun json = RunLintCmd("--root '" + Positive() + "' --json --baseline '" +
                            baseline + "'");
  EXPECT_EQ(json.exit_code, 0) << json.output;
  EXPECT_NE(json.output.find("\"baselined\": 43"), std::string::npos)
      << json.output;
  EXPECT_NE(json.output.find("\"total\": 0"), std::string::npos)
      << json.output;

  // An empty (but valid) baseline covers nothing: every finding is new and
  // the gate fails again. An unreadable baseline path is a usage error (2).
  LintRun none = RunLintCmd("--root '" + Negative() + "' --json > '" +
                            baseline + "'");
  EXPECT_EQ(none.exit_code, 0);
  LintRun fresh = RunLintCmd("--root '" + Positive() + "' --baseline '" +
                             baseline + "'");
  EXPECT_EQ(fresh.exit_code, 1) << fresh.output;
  LintRun unreadable = RunLintCmd("--root '" + Positive() + "' --baseline '" +
                                  baseline + ".missing'");
  EXPECT_EQ(unreadable.exit_code, 2) << unreadable.output;
  std::remove(baseline.c_str());
}

}  // namespace
