// Fault-tolerance tests, every failure produced through the real paths (a
// bad knob, the `fail=1` knob, a cycle budget, a process exit mid-sweep,
// bytes written straight into the journal and cache files): the error
// taxonomy, cycle-budget timeouts, the crash-safe journal (torn-tail
// tolerance, compaction, records from older builds), the corrupt-cache
// count, and the flagship invariant — a sweep killed mid-run and resumed
// emits byte-identical output to an uninterrupted run.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "driver/experiment.hpp"
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

/// tiny_spec() with @p key=@p value on point 1 (CG on cache_based) only.
ExperimentSpec tiny_spec_with(const std::string& key, const std::string& value) {
  ExperimentSpec s = tiny_spec();
  Grid cg_hybrid, cg_cache, ep;
  cg_hybrid.axes = {{"workload", {"CG"}}, {"machine", {"hybrid_coherent"}}};
  cg_cache.base = {{key, value}};
  cg_cache.axes = {{"workload", {"CG"}}, {"machine", {"cache_based"}}};
  ep.axes = {{"workload", {"EP"}}, {"machine", {"hybrid_coherent", "cache_based"}}};
  s.grids = {cg_hybrid, cg_cache, ep};
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

// --------------------------------------------------------------- taxonomy ----

TEST(FaultQuarantine, ConfigAndEngineFaultsQuarantineThePoint) {
  const struct {
    const char* knob;
    const char* value;
    ErrorClass expect;
    const char* error;
  } cases[] = {{"cores", "0", ErrorClass::Config, "cores knob out of range"},
               {"fail", "1", ErrorClass::Engine, "injected failure"}};
  for (const auto& c : cases) {
    const SweepOutcome out = run_sweep(tiny_spec_with(c.knob, c.value), serial_opts());
    ASSERT_EQ(out.points.size(), 4u) << c.knob;
    EXPECT_EQ(out.failures, 1u) << c.knob;
    EXPECT_EQ(out.timeouts, 0u) << c.knob;
    EXPECT_FALSE(out.points[1].ok) << c.knob;
    EXPECT_EQ(out.points[1].error_class, c.expect) << c.knob;
    EXPECT_NE(out.points[1].error.find(c.error), std::string::npos) << c.knob;
    // The quarantine is per point: the rest of the sweep finished.
    for (std::size_t i = 0; i < out.points.size(); ++i) {
      if (i == 1) continue;
      EXPECT_TRUE(out.points[i].ok) << c.knob << " point " << i;
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

TEST_F(FaultTmpDir, RepeatedRecordsKeepTheLastInFirstAppearanceOrder) {
  // An interrupted resume re-appends points already in the journal: the
  // last record per canonical point wins, at its first position.
  const ExperimentSpec spec = tiny_spec();
  SweepOptions opt;
  opt.jobs = 1;
  const SweepOutcome out = run_sweep(spec, opt);
  ASSERT_EQ(out.points.size(), 4u);
  PointResult superseded = out.points[0];
  superseded.ok = false;
  superseded.error = "superseded";
  superseded.error_class = ErrorClass::Engine;
  {
    SweepJournal j(dir_, spec.name);
    ASSERT_TRUE(j.enabled());
    for (const std::size_t i : {0, 1, 2}) j.append(out.points[i]);
    j.append(superseded);
    j.append(out.points[1]);
    j.append(out.points[3]);
    j.append(out.points[1]);
  }
  std::size_t skipped = 0;
  std::vector<PointResult> recs = SweepJournal::load(dir_, spec.name, &skipped);
  EXPECT_EQ(skipped, 0u);
  ASSERT_EQ(recs.size(), 4u);
  EXPECT_EQ(point_json(recs[0]), point_json(superseded));
  for (std::size_t i = 1; i < 4; ++i)
    EXPECT_EQ(point_json(recs[i]), point_json(out.points[i])) << i;

  // A later record of the first point supersedes the superseding one.
  {
    SweepJournal j(dir_, spec.name);
    j.append(out.points[0]);
  }
  recs = SweepJournal::load(dir_, spec.name, &skipped);
  ASSERT_EQ(recs.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_EQ(point_json(recs[i]), point_json(out.points[i])) << i;
}

TEST_F(FaultTmpDir, InjectedTornAppendIsSkippedOnLoad) {
  // Run the sweep cleanly, append the first three records through the
  // journal, then write half of the LAST record straight into the file —
  // the artifact a crash mid-append leaves, and the only place a torn
  // record can exist (nothing is ever written after it).  load() must skip
  // exactly the torn tail and keep the rest.  (A journaled run_sweep would
  // not show this — its end-of-run compaction rewrites the file intact.)
  const ExperimentSpec spec = tiny_spec();
  SweepOptions opt;
  opt.jobs = 1;
  const SweepOutcome out = run_sweep(spec, opt);
  ASSERT_EQ(out.points.size(), 4u);
  {
    SweepJournal j(dir_, spec.name);
    ASSERT_TRUE(j.enabled());
    for (std::size_t i = 0; i < 3; ++i) j.append(out.points[i]);
  }
  {
    const std::string line = SweepJournal::record_line(out.points[3]);
    std::ofstream f(dir_ + "/" + spec.name + ".jsonl", std::ios::app);
    f << line.substr(0, line.size() / 2);
  }
  std::size_t skipped = 0;
  const std::vector<PointResult> recs = SweepJournal::load(dir_, spec.name, &skipped);
  EXPECT_EQ(skipped, 1u);  // the torn tail record
  EXPECT_EQ(recs.size(), 3u);

  // --resume reports the torn record, replays the intact three and re-runs
  // the torn one: outputs stay byte-identical.
  SweepOptions resume;
  resume.jobs = 1;
  resume.journal_dir = dir_;
  resume.resume = true;
  const SweepOutcome resumed = run_sweep(spec, resume);
  EXPECT_EQ(resumed.journal_skipped, 1u);
  EXPECT_EQ(resumed.resumed, 3u);
  EXPECT_EQ(to_json(resumed), to_json(out));
}

TEST_F(FaultTmpDir, QuarantinedPointsReplayOnResumeToo) {
  const ExperimentSpec spec = tiny_spec_with("fail", "1");
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
    // Child: crash (std::_Exit(137), the SIGKILL stand-in) from the
    // progress callback of the second finished point, with the journal
    // live.  Progress runs after the point's journal append; nothing after
    // the crash runs — no compaction, no TearDown — exactly like a kill -9.
    SweepOptions opt;
    opt.jobs = 1;
    opt.journal_dir = dir_;
    opt.progress = [](const PointResult&, std::size_t done, std::size_t) {
      if (done == 2) std::_Exit(137);
    };
    run_sweep(spec, opt);
    std::_Exit(0);  // not reached: the callback exits first
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

// ------------------------------------------------------ cache corruption ----

TEST_F(FaultTmpDir, CorruptedCacheStoresAreCountedAndHealed) {
  const ExperimentSpec spec = tiny_spec();
  SweepOptions opt;
  opt.jobs = 1;
  opt.cache_dir = dir_;
  const std::string want = to_json(run_sweep(spec, opt));

  // Garble every other stored file (sorted by name): what a bad disk or a
  // half-written artifact looks like to lookup().
  std::vector<std::filesystem::path> files;
  for (const auto& e : std::filesystem::directory_iterator(dir_)) files.push_back(e.path());
  std::sort(files.begin(), files.end());
  ASSERT_EQ(files.size(), expand(spec).size());
  std::set<std::string> garbled;
  for (std::size_t i = 0; i < files.size(); i += 2) {
    std::ofstream(files[i]) << "{corrupt";
    garbled.insert(files[i].filename().string());
  }
  // A serial sweep looks points up in expansion order, so the first
  // corrupt entry it meets is the first garbled point's file.
  std::string first_corrupt;
  for (const SweepPoint& p : expand(spec)) {
    char name[32];
    std::snprintf(name, sizeof(name), "%016llx.json",
                  static_cast<unsigned long long>(MemoCache::key(p)));
    if (garbled.count(name) != 0) {
      first_corrupt = dir_ + "/" + name;
      break;
    }
  }
  ASSERT_FALSE(first_corrupt.empty());

  ::testing::internal::CaptureStderr();
  const SweepOutcome second = run_sweep(spec, opt);
  const std::string err = ::testing::internal::GetCapturedStderr();
  // One warning per cache instance, on the shared channel, naming the
  // first offending file.
  std::vector<std::string> warns;
  std::istringstream lines(err);
  for (std::string line; std::getline(lines, line);)
    if (line.rfind("[WARN] ", 0) == 0) warns.push_back(line);
  ASSERT_EQ(warns.size(), 1u) << err;
  EXPECT_NE(warns[0].find(first_corrupt), std::string::npos) << warns[0];
  EXPECT_GT(second.cache_corrupt, 0u);                    // surfaced, not silent
  EXPECT_LT(second.cache_hits, second.points.size());     // corrupt => miss
  EXPECT_EQ(to_json(second), want);                       // results unharmed

  const SweepOutcome third = run_sweep(spec, opt);        // healed by re-store
  EXPECT_EQ(third.cache_corrupt, 0u);
  EXPECT_EQ(third.cache_hits, third.points.size());
  EXPECT_EQ(to_json(third), want);
}

}  // namespace
