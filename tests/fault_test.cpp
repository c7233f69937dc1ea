// Fault-tolerance tests: the deterministic fault-injection harness, the
// error taxonomy and bounded retry, watchdog / cycle-budget timeouts, the
// crash-safe journal (torn-tail tolerance, compaction), and the flagship
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

SweepOptions fast_retry_opts() {
  SweepOptions opt;
  opt.jobs = 1;
  opt.retry_backoff_ms = 1.0;  // keep retry tests fast
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
      "sweep_worker:transient:label=CG:times=1;"
      "cache_store:corrupt:rate=0.5:seed=7;"
      "sweep_worker:hang:point=3");
  EXPECT_FALSE(plan.empty());
  EXPECT_EQ(plan.decide(FaultSite::SweepWorker, {"x/CG/hybrid", 0, 1}),
            FaultKind::Transient);
  // times=1: the second attempt of the same point is clean.
  EXPECT_EQ(plan.decide(FaultSite::SweepWorker, {"x/CG/hybrid", 0, 2}), std::nullopt);
  EXPECT_EQ(plan.decide(FaultSite::SweepWorker, {"x/EP/hybrid", 3, 1}), FaultKind::Hang);
  EXPECT_EQ(plan.decide(FaultSite::SweepWorker, {"x/EP/hybrid", 4, 1}), std::nullopt);
  EXPECT_EQ(plan.decide(FaultSite::ReportSerialize, {"x/CG/hybrid", 0, 1}), std::nullopt);
}

TEST(FaultPlan, RejectsMalformedSpecsLoudly) {
  EXPECT_THROW(FaultPlan::parse("bogus_site:transient"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("sweep_worker:bogus_kind"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("sweep_worker"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("sweep_worker:transient:rate=2"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("sweep_worker:transient:rate=0"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("sweep_worker:transient:point=abc"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("sweep_worker:transient:nonsense=1"), std::invalid_argument);
}

TEST(FaultPlan, RateSelectionIsDeterministicAndScheduleFree) {
  const FaultPlan plan = FaultPlan::parse("sweep_worker:transient:rate=0.5:seed=3");
  std::set<std::uint64_t> first, second;
  for (std::uint64_t i = 0; i < 200; ++i) {
    const std::string label = "pt" + std::to_string(i);
    if (plan.decide(FaultSite::SweepWorker, {label, i, 1})) first.insert(i);
    if (plan.decide(FaultSite::SweepWorker, {label, i, 1})) second.insert(i);
  }
  EXPECT_EQ(first, second);  // pure function of identity
  // A 0.5 rate selects some but not all (binomial tail odds ~2^-200).
  EXPECT_GT(first.size(), 0u);
  EXPECT_LT(first.size(), 200u);
}

// ------------------------------------------------- taxonomy and retries ----

TEST(FaultRetry, TransientFaultIsRetriedToSuccess) {
  ScopedFaultPlan plan("sweep_worker:transient:point=0:times=1");
  SweepOptions opt = fast_retry_opts();
  const SweepOutcome out = run_sweep(tiny_spec(), opt);
  EXPECT_EQ(out.failures, 0u);
  EXPECT_EQ(out.retries, 1u);
  EXPECT_TRUE(out.points[0].ok);
  EXPECT_EQ(out.points[0].attempts, 2u);
  EXPECT_EQ(out.points[1].attempts, 1u);
}

TEST(FaultRetry, ExhaustedRetriesQuarantineAsTransient) {
  ScopedFaultPlan plan("sweep_worker:transient:point=0");  // every attempt
  SweepOptions opt = fast_retry_opts();
  opt.max_retries = 1;
  const SweepOutcome out = run_sweep(tiny_spec(), opt);
  EXPECT_EQ(out.failures, 1u);
  EXPECT_EQ(out.retries, 1u);
  EXPECT_FALSE(out.points[0].ok);
  EXPECT_EQ(out.points[0].error_class, ErrorClass::Transient);
  EXPECT_EQ(out.points[0].attempts, 2u);
  EXPECT_NE(out.points[0].error.find("attempts exhausted"), std::string::npos);
  for (std::size_t i = 1; i < out.points.size(); ++i) EXPECT_TRUE(out.points[i].ok);
}

TEST(FaultRetry, NonTransientKindsQuarantineWithoutRetry) {
  const struct {
    const char* kind;
    ErrorClass expect;
  } cases[] = {{"config", ErrorClass::Config},
               {"corrupt_cache", ErrorClass::CorruptCache},
               {"engine", ErrorClass::Engine}};
  for (const auto& c : cases) {
    ScopedFaultPlan plan(std::string("sweep_worker:") + c.kind + ":point=1");
    const SweepOutcome out = run_sweep(tiny_spec(), fast_retry_opts());
    EXPECT_EQ(out.failures, 1u) << c.kind;
    EXPECT_EQ(out.retries, 0u) << c.kind;
    EXPECT_EQ(out.points[1].error_class, c.expect) << c.kind;
    EXPECT_EQ(out.points[1].attempts, 1u) << c.kind;
  }
}

// --------------------------------------------------------------- timeouts ----

TEST(FaultTimeout, WatchdogCancelsAHungPoint) {
  ScopedFaultPlan plan("sweep_worker:hang:point=0");
  SweepOptions opt;
  opt.jobs = 2;
  opt.point_deadline_seconds = 0.2;
  const SweepOutcome out = run_sweep(tiny_spec(), opt);
  EXPECT_EQ(out.failures, 1u);
  EXPECT_EQ(out.timeouts, 1u);
  EXPECT_FALSE(out.points[0].ok);
  EXPECT_EQ(out.points[0].error_class, ErrorClass::Timeout);
  // Deterministic text: the CONFIGURED budget, never the elapsed time.
  EXPECT_NE(out.points[0].error.find("wall deadline exceeded (0.2 s)"),
            std::string::npos);
  // The hang wedged one worker, not the sweep: every other point finished.
  for (std::size_t i = 1; i < out.points.size(); ++i) EXPECT_TRUE(out.points[i].ok);
}

TEST(FaultTimeout, CycleBudgetIsDeterministicAcrossJobCounts) {
  const ExperimentSpec spec = tiny_spec();
  SweepOptions opt;
  opt.jobs = 1;
  opt.max_point_cycles = 2000;  // far below what these points need
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
  SweepOptions opt = fast_retry_opts();
  opt.journal_dir = dir_;
  const SweepOutcome first = run_sweep(spec, opt);
  EXPECT_EQ(first.failures, 1u);

  opt.resume = true;
  const SweepOutcome second = run_sweep(spec, opt);
  EXPECT_EQ(second.resumed, second.points.size());  // failed record included
  EXPECT_EQ(to_json(first), to_json(second));
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
