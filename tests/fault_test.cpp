// Fault-tolerance tests: the deterministic fault-injection harness, the
// error taxonomy, cycle-budget timeouts, the crash-safe journal (torn-tail
// tolerance, compaction, records from older builds), and the flagship
// invariant — a sweep killed mid-run and resumed emits byte-identical
// output to an uninterrupted run.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>

#include "common/hash.hpp"
#include "driver/experiment.hpp"
#include "driver/faults.hpp"
#include "driver/journal.hpp"
#include "driver/result.hpp"
#include "driver/sweep.hpp"

namespace {

using namespace hm;
using namespace hm::driver;

/// Four real points (two NAS kernels x two machines) at tiny scale.
ExperimentSpec tiny_spec() {
  ExperimentSpec s;
  s.name = "test_fault";
  s.title = "fault-test sweep";
  s.scale = 0.05;
  Grid g;
  g.axes = {{"workload", {"CG", "EP"}}, {"machine", {"hybrid_coherent", "cache_based"}}};
  s.grids = {g};
  return s;
}

SweepOptions serial_opts() {
  SweepOptions opt;
  opt.jobs = 1;
  return opt;
}

class FaultTmpDir : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("hm_fault_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(reinterpret_cast<std::uintptr_t>(this) & 0xFFFF)))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string dir_;
};

// ------------------------------------------------------------ fault plan ----

TEST(FaultPlan, ParsesTheDocumentedGrammar) {
  EXPECT_TRUE(FaultPlan::parse("").empty());
  const FaultPlan plan = FaultPlan::parse(
      "sweep_worker:engine:label=CG;"
      "cache_store:corrupt:rate=0.5:seed=7;"
      "sweep_worker:config:point=3;"
      "sweep_worker:crash:point=5");
  EXPECT_FALSE(plan.empty());
  EXPECT_EQ(plan.decide(FaultSite::SweepWorker, {"x/CG/hybrid", 0}), FaultKind::Engine);
  EXPECT_EQ(plan.decide(FaultSite::SweepWorker, {"x/EP/hybrid", 3}), FaultKind::Config);
  EXPECT_EQ(plan.decide(FaultSite::SweepWorker, {"x/EP/hybrid", 4}), std::nullopt);
  EXPECT_EQ(plan.decide(FaultSite::SweepWorker, {"x/EP/hybrid", 5}), FaultKind::Crash);
  EXPECT_EQ(plan.decide(FaultSite::ReportSerialize, {"x/CG/hybrid", 0}), std::nullopt);
}

TEST(FaultPlan, RejectsMalformedSpecsLoudly) {
  EXPECT_THROW(FaultPlan::parse("bogus_site:engine"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("sweep_worker:bogus_kind"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("sweep_worker"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("sweep_worker:engine:rate=2"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("sweep_worker:engine:rate=0"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("sweep_worker:engine:point=abc"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("sweep_worker:engine:nonsense=1"), std::invalid_argument);
  // Retired grammar: a deterministic point has nothing to retry or wait
  // out, so the retry-era kinds and the per-attempt selector are gone.
  EXPECT_THROW(FaultPlan::parse("sweep_worker:transient"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("sweep_worker:hang"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("sweep_worker:corrupt_cache"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("sweep_worker:engine:times=1"), std::invalid_argument);
}

TEST(FaultPlan, RateSelectionIsDeterministicAndScheduleFree) {
  const FaultPlan plan = FaultPlan::parse("sweep_worker:engine:rate=0.5:seed=3");
  std::set<std::uint64_t> first, second;
  for (std::uint64_t i = 0; i < 200; ++i) {
    const std::string label = "pt" + std::to_string(i);
    if (plan.decide(FaultSite::SweepWorker, {label, i})) first.insert(i);
    if (plan.decide(FaultSite::SweepWorker, {label, i})) second.insert(i);
  }
  EXPECT_EQ(first, second);  // pure function of identity
  // A 0.5 rate selects some but not all (binomial tail odds ~2^-200).
  EXPECT_GT(first.size(), 0u);
  EXPECT_LT(first.size(), 200u);
}

// --------------------------------------------------------------- taxonomy ----

TEST(FaultQuarantine, ConfigAndEngineFaultsQuarantineThePoint) {
  const struct {
    const char* kind;
    ErrorClass expect;
  } cases[] = {{"config", ErrorClass::Config}, {"engine", ErrorClass::Engine}};
  for (const auto& c : cases) {
    ScopedFaultPlan plan(std::string("sweep_worker:") + c.kind + ":point=1");
    const SweepOutcome out = run_sweep(tiny_spec(), serial_opts());
    EXPECT_EQ(out.failures, 1u) << c.kind;
    EXPECT_EQ(out.timeouts, 0u) << c.kind;
    EXPECT_FALSE(out.points[1].ok) << c.kind;
    EXPECT_EQ(out.points[1].error_class, c.expect) << c.kind;
    EXPECT_NE(out.points[1].error.find(std::string("injected ") + c.kind + " fault"),
              std::string::npos)
        << c.kind;
    // The quarantine is per point: the rest of the sweep finished.
    for (std::size_t i = 0; i < out.points.size(); ++i) {
      if (i == 1) continue;
      EXPECT_TRUE(out.points[i].ok) << c.kind << " point " << i;
    }
  }
}

// --------------------------------------------------------------- timeouts ----

TEST(FaultTimeout, CycleBudgetIsDeterministicAcrossJobCounts) {
  const ExperimentSpec spec = tiny_spec();
  SweepOptions opt;
  opt.jobs = 1;
  opt.engine.max_cycles = 2000;  // far below what these points need
  const SweepOutcome serial = run_sweep(spec, opt);
  EXPECT_EQ(serial.timeouts, serial.points.size());
  for (const PointResult& r : serial.points) {
    EXPECT_EQ(r.error_class, ErrorClass::Timeout);
    EXPECT_NE(r.error.find("cycle budget exceeded (2000 simulated cycles)"),
              std::string::npos);
  }
  opt.jobs = 4;
  EXPECT_EQ(to_json(serial), to_json(run_sweep(spec, opt)));
}

// ---------------------------------------------------------------- journal ----

TEST_F(FaultTmpDir, JournalRoundTripsAndToleratesATornTail) {
  const ExperimentSpec spec = tiny_spec();
  SweepOptions opt;
  opt.jobs = 1;
  opt.journal_dir = dir_;
  const SweepOutcome out = run_sweep(spec, opt);
  ASSERT_EQ(out.failures, 0u);

  std::size_t skipped = 0;
  std::vector<PointResult> recs = SweepJournal::load(dir_, spec.name, &skipped);
  EXPECT_EQ(skipped, 0u);
  ASSERT_EQ(recs.size(), out.points.size());
  for (std::size_t i = 0; i < recs.size(); ++i)
    EXPECT_EQ(point_json(recs[i]), point_json(out.points[i]));

  // Simulate a crash mid-append: half a record, no newline, at the tail.
  {
    const std::string torn = SweepJournal::record_line(out.points[0]);
    std::ofstream f(dir_ + "/" + spec.name + ".jsonl", std::ios::app);
    f << torn.substr(0, torn.size() / 2);
  }
  recs = SweepJournal::load(dir_, spec.name, &skipped);
  EXPECT_EQ(skipped, 1u);
  EXPECT_EQ(recs.size(), out.points.size());  // intact records unaffected

  // A flipped payload byte fails the checksum and is skipped, not trusted.
  // (Leading newline: terminate the torn half-line above so the two bad
  // records stay distinct lines.)
  {
    std::string line = SweepJournal::record_line(out.points[1]);
    line[line.size() / 2] ^= 1;
    std::ofstream f(dir_ + "/" + spec.name + ".jsonl", std::ios::app);
    f << '\n' << line;
  }
  recs = SweepJournal::load(dir_, spec.name, &skipped);
  EXPECT_EQ(skipped, 2u);
  EXPECT_EQ(recs.size(), out.points.size());
}

TEST_F(FaultTmpDir, InjectedTornAppendIsSkippedOnLoad) {
  // Run the sweep cleanly, then append every record through a journal with
  // the torn-append fault armed for the LAST point — the only place a torn
  // record can exist in a real crash (nothing is ever written after it).
  // load() must skip exactly the torn tail and keep the rest.  (A
  // journaled run_sweep would not show this — its end-of-run compaction
  // rewrites the file intact.)
  const ExperimentSpec spec = tiny_spec();
  SweepOptions opt;
  opt.jobs = 1;
  const SweepOutcome out = run_sweep(spec, opt);
  ASSERT_EQ(out.points.size(), 4u);
  ScopedFaultPlan plan("journal_append:corrupt:point=3");
  SweepJournal j(dir_, spec.name);
  for (const PointResult& r : out.points) j.append(r);
  std::size_t skipped = 0;
  const std::vector<PointResult> recs = SweepJournal::load(dir_, spec.name, &skipped);
  EXPECT_EQ(skipped, 1u);  // the tail record was torn by the fault
  EXPECT_EQ(recs.size(), 3u);
}

TEST_F(FaultTmpDir, QuarantinedPointsReplayOnResumeToo) {
  ScopedFaultPlan plan("sweep_worker:engine:point=1");
  const ExperimentSpec spec = tiny_spec();
  SweepOptions opt = serial_opts();
  opt.journal_dir = dir_;
  const SweepOutcome first = run_sweep(spec, opt);
  EXPECT_EQ(first.failures, 1u);

  // Rewrite the journal the way older builds wrote it, with an
  // "attempts":1 field after error_class: every record must still replay
  // (crash/resume covers the current format) and re-serialize without it.
  {
    std::ofstream f(dir_ + "/" + spec.name + ".jsonl", std::ios::trunc);
    for (const PointResult& r : first.points) {
      std::string payload = point_json(r);
      const std::size_t at = payload.find("\"mapped_refs\"");
      ASSERT_NE(at, std::string::npos);
      payload.insert(at, "\"attempts\":1,");
      char head[24];
      std::snprintf(head, sizeof head, "J1 %016llx ",
                    static_cast<unsigned long long>(hm::fnv1a64(payload)));
      f << head << payload << '\n';
    }
  }

  opt.resume = true;
  const SweepOutcome second = run_sweep(spec, opt);
  EXPECT_EQ(second.resumed, second.points.size());  // failed record included
  const std::string json = to_json(second);
  EXPECT_EQ(to_json(first), json);
  EXPECT_EQ(json.find("attempts"), std::string::npos);
}

// ---------------------------------------------------------- crash + resume ----

TEST_F(FaultTmpDir, CrashMidSweepThenResumeIsByteIdentical) {
  const ExperimentSpec spec = tiny_spec();
  SweepOptions plain;
  plain.jobs = 1;
  const std::string want = to_json(run_sweep(spec, plain));

  const pid_t pid = ::fork();
  ASSERT_NE(pid, -1);
  if (pid == 0) {
    // Child: crash (std::_Exit(137), the SIGKILL stand-in) at point 2 with
    // the journal live.  Nothing after the crash runs — no compaction, no
    // TearDown — exactly like a kill -9.
    install_fault_plan(FaultPlan::parse("sweep_worker:crash:point=2"));
    SweepOptions opt;
    opt.jobs = 1;
    opt.journal_dir = dir_;
    run_sweep(spec, opt);
    std::_Exit(0);  // not reached: the fault exits first
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 137);

  // The journal holds exactly the points that finished before the crash.
  std::size_t skipped = 0;
  const std::vector<PointResult> recs = SweepJournal::load(dir_, spec.name, &skipped);
  EXPECT_EQ(skipped, 0u);
  ASSERT_EQ(recs.size(), 2u);

  SweepOptions resume;
  resume.jobs = 1;
  resume.journal_dir = dir_;
  resume.resume = true;
  const SweepOutcome out = run_sweep(spec, resume);
  EXPECT_EQ(out.resumed, 2u);
  EXPECT_EQ(out.failures, 0u);
  EXPECT_EQ(to_json(out), want);  // the flagship byte-identity invariant
}

// ------------------------------------------------------- serialize faults ----

TEST(FaultSerialize, ReportSerializeFaultPropagatesAsFatal) {
  ScopedFaultPlan plan("report_serialize:engine");
  SweepOptions opt;
  opt.jobs = 1;
  const SweepOutcome out = run_sweep(tiny_spec(), opt);
  EXPECT_EQ(out.failures, 0u);  // the sweep itself is fine
  EXPECT_THROW(to_json(out), std::runtime_error);
  EXPECT_THROW(to_csv(out), std::runtime_error);
}

// ------------------------------------------------------ cache corruption ----

TEST_F(FaultTmpDir, CorruptedCacheStoresAreCountedAndHealed) {
  ScopedFaultPlan plan("cache_store:corrupt:rate=0.5:seed=7");
  const ExperimentSpec spec = tiny_spec();
  SweepOptions opt;
  opt.jobs = 1;
  opt.cache_dir = dir_;
  const std::string want = to_json(run_sweep(spec, opt));
  install_fault_plan(FaultPlan{});  // stores from here on are clean

  const SweepOutcome second = run_sweep(spec, opt);
  EXPECT_GT(second.cache_corrupt, 0u);                    // surfaced, not silent
  EXPECT_LT(second.cache_hits, second.points.size());     // corrupt => miss
  EXPECT_EQ(to_json(second), want);                       // results unharmed

  const SweepOutcome third = run_sweep(spec, opt);        // healed by re-store
  EXPECT_EQ(third.cache_corrupt, 0u);
  EXPECT_EQ(third.cache_hits, third.points.size());
  EXPECT_EQ(to_json(third), want);
}

}  // namespace
