// Driver subsystem tests: spec expansion and seed derivation, the
// atomic-index pool (coverage + failure isolation), the parallel ==
// serial bit-identity invariant, JSON round-tripping, and the memo cache.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <thread>
#include <vector>

#include "driver/experiment.hpp"
#include "driver/registry.hpp"
#include "driver/result.hpp"
#include "driver/scheduler.hpp"
#include "driver/sweep.hpp"

namespace {

using namespace hm;
using namespace hm::driver;

/// A small real sweep (two NAS kernels x two machines at tiny scale) used
/// wherever the tests need actual simulations.
ExperimentSpec tiny_spec(double scale = 0.05) {
  ExperimentSpec s;
  s.name = "test_tiny";
  s.title = "tiny driver-test sweep";
  s.scale = scale;
  Grid g;
  g.axes = {{"workload", {"CG", "EP"}}, {"machine", {"hybrid_coherent", "cache_based"}}};
  s.grids = {g};
  return s;
}

std::string sweep_json(const ExperimentSpec& spec, const SweepOptions& opt) {
  return to_json(run_sweep(spec, opt));
}

// ------------------------------------------------------------ expansion ----

TEST(Experiment, ExpandsGridsInStableOrder) {
  const ExperimentSpec spec = tiny_spec();
  const std::vector<SweepPoint> a = expand(spec);
  const std::vector<SweepPoint> b = expand(spec);
  ASSERT_EQ(a.size(), 4u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].index, i);
    EXPECT_EQ(a[i].canonical(), b[i].canonical());
    EXPECT_EQ(a[i].label, b[i].label);
  }
  // First axis outermost: CG/CG then EP/EP.
  EXPECT_EQ(a[0].workload, "CG");
  EXPECT_EQ(a[1].workload, "CG");
  EXPECT_EQ(a[2].workload, "EP");
  EXPECT_EQ(a[0].machine, "hybrid_coherent");
  EXPECT_EQ(a[1].machine, "cache_based");
}

TEST(Experiment, PaperSeedIsFixedAndCanonicalIgnoresExperimentName) {
  ExperimentSpec s1 = tiny_spec();
  ExperimentSpec s2 = tiny_spec();
  s2.name = "test_tiny_other";
  const auto p1 = expand(s1);
  const auto p2 = expand(s2);
  for (std::size_t i = 0; i < p1.size(); ++i) {
    EXPECT_EQ(p1[i].seed, kPaperSeed);
    // Same physical point from two experiments => same memo-cache identity.
    EXPECT_EQ(p1[i].canonical(), p2[i].canonical());
    EXPECT_EQ(MemoCache::key(p1[i]), MemoCache::key(p2[i]));
  }
}

TEST(Experiment, DefaultKnobValuesAreElided) {
  ExperimentSpec s = tiny_spec();
  s.grids[0].axes.push_back({"dir_entries", {"16", "32"}});
  const auto pts = expand(s);
  ASSERT_EQ(pts.size(), 8u);
  for (const SweepPoint& p : pts) {
    const bool is_default = p.knobs.find("dir_entries") == p.knobs.end();
    if (is_default) {
      EXPECT_EQ(p.knob("dir_entries"), "32");  // default still readable
    } else {
      EXPECT_EQ(p.knobs.at("dir_entries"), "16");
    }
  }
  // The dir_entries=32 point is physically the knob-free point.
  const auto plain = expand(tiny_spec());
  EXPECT_EQ(pts[1].canonical(), plain[0].canonical());  // 32-entry CG/hybrid
}

TEST(Experiment, KnobOverridesAtTheirDefaultAreElided) {
  // `--topology flat` leaves every canonical identity unchanged.
  const auto plain = expand(tiny_spec());
  const auto flat = expand(tiny_spec(), {}, {{"topology", "flat"}});
  ASSERT_EQ(flat.size(), plain.size());
  for (std::size_t i = 0; i < plain.size(); ++i)
    EXPECT_EQ(flat[i].canonical(), plain[i].canonical());

  // A grid pinned to mesh and overridden to flat is the flat point: the
  // override replaces the pin and is then elided like any default.
  ExperimentSpec pinned = tiny_spec();
  pinned.grids[0].base["topology"] = "mesh";
  EXPECT_EQ(expand(pinned)[0].knobs.at("topology"), "mesh");
  const auto overridden = expand(pinned, {}, {{"topology", "flat"}});
  ASSERT_EQ(overridden.size(), plain.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(overridden[i].knobs.count("topology"), 0u);
    EXPECT_EQ(overridden[i].canonical(), plain[i].canonical());
  }

  // A non-default override enters the identity.
  const auto ring = expand(tiny_spec(), {}, {{"topology", "ring"}});
  EXPECT_EQ(ring[0].knobs.at("topology"), "ring");
  EXPECT_NE(ring[0].canonical(), plain[0].canonical());
}

// ------------------------------------------------------------ scheduler ----

TEST(Scheduler, RunsEveryJobExactlyOnce) {
  const std::size_t n = 257;
  std::vector<std::atomic<int>> hits(n);
  const std::vector<std::string> errors =
      run_indexed(8, n, [&](std::size_t i, unsigned) { hits[i].fetch_add(1); });
  ASSERT_EQ(errors.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << i;
    EXPECT_TRUE(errors[i].empty()) << errors[i];
  }
}

TEST(Scheduler, IsolatesThrowingJobs) {
  const std::size_t n = 64;
  std::atomic<int> completed{0};
  const std::vector<std::string> errors = run_indexed(4, n, [&](std::size_t i, unsigned) {
    if (i % 3 == 0) throw std::runtime_error("boom " + std::to_string(i));
    completed.fetch_add(1);
  });
  int failed = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 3 == 0) {
      EXPECT_EQ(errors[i], "boom " + std::to_string(i));
      ++failed;
    } else {
      EXPECT_TRUE(errors[i].empty());
    }
  }
  EXPECT_EQ(completed.load() + failed, static_cast<int>(n));
}

TEST(Scheduler, ManyThrowingJobsUnderContentionKeepExactErrorSlots) {
  // Heavy failure contention: most jobs throw, from every worker at once,
  // with jitter so completions interleave.  Every error must land in its
  // own slot with its exact message — no loss, no cross-slot smearing.
  const std::size_t n = 400;
  std::atomic<int> completed{0};
  const std::vector<std::string> errors = run_indexed(8, n, [&](std::size_t i, unsigned) {
    if (i % 7 == 0) std::this_thread::sleep_for(std::chrono::microseconds(i % 50));
    if (i % 2 == 0) throw std::runtime_error("err " + std::to_string(i));
    completed.fetch_add(1);
  });
  ASSERT_EQ(errors.size(), n);
  int failed = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 2 == 0) {
      EXPECT_EQ(errors[i], "err " + std::to_string(i)) << i;
      ++failed;
    } else {
      EXPECT_TRUE(errors[i].empty()) << i << ": " << errors[i];
    }
  }
  EXPECT_EQ(completed.load() + failed, static_cast<int>(n));
}

TEST(Scheduler, ErrorSlotsAreIdenticalAcrossJobCounts) {
  const std::size_t n = 97;
  const auto body = [](std::size_t i, unsigned) {
    if (i % 5 == 0 || i == 13) throw std::invalid_argument("slot " + std::to_string(i));
  };
  const std::vector<std::string> reference = run_indexed(1, n, body);
  for (const unsigned jobs : {2u, 4u, 8u})
    EXPECT_EQ(run_indexed(jobs, n, body), reference) << jobs;
}

TEST(Scheduler, ProgressIsSerializedMonotonicAndComplete) {
  const std::size_t n = 200;
  std::atomic<int> in_callback{0};
  std::atomic<bool> overlapped{false};
  std::vector<std::size_t> seen;  // written only inside the callback
  run_indexed(
      8, n, [](std::size_t, unsigned) {},
      [&](std::size_t, std::size_t done, std::size_t total) {
        if (in_callback.fetch_add(1) != 0) overlapped.store(true);
        std::this_thread::sleep_for(std::chrono::microseconds(20));
        seen.push_back(done);
        EXPECT_EQ(total, n);
        in_callback.fetch_sub(1);
      });
  EXPECT_FALSE(overlapped.load());  // serialized: never two callbacks at once
  ASSERT_EQ(seen.size(), n);        // exactly one call per completion
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(seen[i], i + 1);  // monotonic
}

TEST(Scheduler, ThrowingProgressNeverKillsWorkersOrPoisonsSlots) {
  const std::size_t n = 64;
  std::atomic<int> calls{0};
  for (const unsigned jobs : {1u, 4u}) {
    const std::vector<std::string> errors = run_indexed(
        jobs, n, [](std::size_t, unsigned) {},
        [&](std::size_t, std::size_t, std::size_t) {
          calls.fetch_add(1);
          throw std::runtime_error("observer bug");
        });
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_TRUE(errors[i].empty()) << "jobs=" << jobs << " slot " << i;
  }
  EXPECT_EQ(calls.load(), static_cast<int>(2 * n));  // still called every time
}

TEST(Scheduler, IdleWorkersDrainTheQueuePastASlowJob) {
  // One slow job at index 0; the rest are instant.  With 4 workers every
  // other job must finish before job 0 does: the shared index hands each
  // free worker the next job, so nothing queues behind the sleep.  A
  // static partition (contiguous or round-robin) fails this.
  const std::size_t n = 100;
  std::vector<std::atomic<int>> hits(n);
  std::mutex mu;
  std::vector<std::size_t> finished;  // completion order, guarded by mu
  const auto errors = run_indexed(4, n, [&](std::size_t i, unsigned) {
    if (i == 0) std::this_thread::sleep_for(std::chrono::milliseconds(200));
    hits[i].fetch_add(1);
    const std::lock_guard<std::mutex> lock(mu);
    finished.push_back(i);
  });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1);
  EXPECT_TRUE(errors[0].empty());
  ASSERT_EQ(finished.size(), n);
  EXPECT_EQ(finished.back(), 0u);
}

TEST(Scheduler, BodySeesWorkerNumbersBelowTheWorkerCount) {
  const std::size_t n = 64;
  std::vector<unsigned> worker_of(n, ~0u);
  run_indexed(4, n, [&](std::size_t i, unsigned w) { worker_of[i] = w; });
  for (std::size_t i = 0; i < n; ++i) EXPECT_LT(worker_of[i], 4u) << i;
  // min(jobs, n) workers: a 2-job run has only workers 0 and 1, and an
  // inline run is worker 0 throughout.
  run_indexed(8, 2, [&](std::size_t i, unsigned w) { worker_of[i] = w; });
  EXPECT_LT(worker_of[0], 2u);
  EXPECT_LT(worker_of[1], 2u);
  run_indexed(1, n, [&](std::size_t i, unsigned w) { worker_of[i] = w; });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(worker_of[i], 0u) << i;
}

// ---------------------------------------------------- sweep determinism ----

TEST(Sweep, ParallelRunIsByteIdenticalToSerial) {
  const ExperimentSpec spec = tiny_spec();
  SweepOptions serial;
  serial.jobs = 1;
  SweepOptions parallel;
  parallel.jobs = 4;
  EXPECT_EQ(sweep_json(spec, serial), sweep_json(spec, parallel));
}

TEST(Sweep, RegisteredPaperExperimentMatchesSerialAtSmallScale) {
  const ExperimentSpec* fig8 = find_experiment("fig8");
  ASSERT_NE(fig8, nullptr);
  SweepOptions serial;
  serial.jobs = 1;
  serial.scale_override = 0.02;
  SweepOptions parallel;
  parallel.jobs = 3;
  parallel.scale_override = 0.02;
  const std::string a = sweep_json(*fig8, serial);
  const std::string b = sweep_json(*fig8, parallel);
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"ok\":true"), std::string::npos);
}

TEST(Sweep, SeedReachesTheKernel) {
  // Same point, different seed => different irregular address streams =>
  // different cycle counts (CG has a hot irregular reference).
  SweepPoint p;
  p.label = "seed_probe";
  p.machine = "hybrid_coherent";
  p.workload = "CG";
  p.scale = 0.05;
  p.seed = 1;
  const PointResult a = run_point(p);
  p.seed = 2;
  const PointResult b = run_point(p);
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  EXPECT_NE(a.report.cycles(), b.report.cycles());
}

TEST(Sweep, FailingPointIsIsolatedAndReported) {
  ExperimentSpec s = tiny_spec();
  s.grids[0].axes = {{"workload", {"CG"}},
                     {"machine", {"hybrid_coherent"}},
                     {"fail", {"0", "1"}}};
  SweepOptions opt;
  opt.jobs = 2;
  const SweepOutcome out = run_sweep(s, opt);
  ASSERT_EQ(out.points.size(), 2u);
  EXPECT_EQ(out.failures, 1u);
  EXPECT_TRUE(out.points[0].ok);
  EXPECT_FALSE(out.points[1].ok);
  EXPECT_NE(out.points[1].error.find("injected failure"), std::string::npos);
  // Rendering (generic renderer) must not throw on failed points.
  EXPECT_NE(render(out).find("FAILED"), std::string::npos);
  EXPECT_NE(to_json(out).find("\"ok\":false"), std::string::npos);
}

// ------------------------------------------------------- serialization ----

TEST(Result, PointJsonRoundTripsExactly) {
  SweepPoint p;
  p.experiment = "test_tiny";
  p.index = 3;
  p.label = "test_tiny/CG/hybrid_coherent";
  p.machine = "hybrid_coherent";
  p.workload = "CG";
  p.scale = 0.05;
  p.knobs["dir_entries"] = "16";
  const PointResult run = run_point(p);
  ASSERT_TRUE(run.ok);
  const std::string json = point_json(run);
  const std::optional<PointResult> back = point_from_json(json);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(point_json(*back), json);
  EXPECT_EQ(back->point.canonical(), p.canonical());
  EXPECT_EQ(back->report.cycles(), run.report.cycles());
  EXPECT_EQ(back->report.total_energy(), run.report.total_energy());
  EXPECT_EQ(back->report.core.load_latency.mean(), run.report.core.load_latency.mean());
}

// Writing and reading walk one field list, so re-serialized bytes cannot
// show a field left out of it: the field vanishes on both sides.  The
// structs' defaulted operator== can, provided no field holds the value a
// dropped key reads back as (0, "", or the member's default).  Real runs
// cover most fields; the ones a healthy run leaves there are set here, and
// so are the activity counters, because System::run sums them through the
// same table the walk reads (drop a counter from it and the run reports
// zero for it too).
TEST(Result, PointJsonRoundTripsEveryField) {
  const struct {
    const char* machine;
    const char* topology;
  } cases[] = {{"hybrid_coherent", "flat"}, {"cache_based", "flat"}, {"hybrid_coherent", "mesh"}};
  for (const auto& c : cases) {
    SCOPED_TRACE(std::string(c.machine) + "/" + c.topology);
    SweepPoint p;
    p.machine = c.machine;
    p.workload = "CG";
    p.scale = 0.05;
    if (std::string(c.topology) == "mesh") {
      p.knobs["cores"] = "4";
      p.knobs["topology"] = "mesh";
    }
    PointResult run = run_point(p);
    ASSERT_TRUE(run.ok) << run.error;
    run.point.experiment = "test_roundtrip";
    run.point.index = 7;
    run.point.label = "test_roundtrip/" + p.machine;
    run.point.seed += 1;
    run.error = "note: \"quoted\", with a comma";
    run.error_class = ErrorClass::Engine;
    run.demoted_refs = 2;
    RunReport& rep = run.report;
    rep.core.guarded_stores += 1;
    rep.core.value_mismatches = 3;
    rep.activity = {1,  2,  3,  4,  5,  6,  7,  8,  9,  10, 11, 12,   13,   14,
                    15, 16, 17, 18, 19, 20, 21, 22, 23, true, true};
    for (Contention* r : {&rep.l2_port, &rep.l3_port, &rep.dram, &rep.dma_bus, &rep.noc_links})
      *r = {r->requests + 1, r->delayed + 2, r->queue_cycles + 3, r->peak_occupancy + 4, 5};
    if (rep.noc_nodes != 0) {
      ASSERT_EQ(rep.tiles.size(), 4u);
      ASSERT_FALSE(rep.noc_hop_hist.empty());
      rep.noc_dir_filtered += 1;
    } else {
      rep.noc_links = {};  // flat runs carry no interconnect section
    }

    const std::optional<PointResult> back = point_from_json(point_json(run));
    ASSERT_TRUE(back.has_value());
    EXPECT_TRUE(back->report == rep);
    EXPECT_EQ(back->point.experiment, run.point.experiment);
    EXPECT_EQ(back->point.index, run.point.index);
    EXPECT_EQ(back->point.label, run.point.label);
    EXPECT_EQ(back->point.canonical(), run.point.canonical());
    EXPECT_EQ(back->ok, run.ok);
    EXPECT_EQ(back->error, run.error);
    EXPECT_EQ(back->error_class, run.error_class);
    EXPECT_EQ(back->mapped_refs, run.mapped_refs);
    EXPECT_EQ(back->demoted_refs, run.demoted_refs);
  }
}

TEST(Result, ParserRejectsGarbage) {
  FieldMap f;
  EXPECT_FALSE(parse_flat_json("", f));
  EXPECT_FALSE(parse_flat_json("{\"a\":}", f));
  EXPECT_FALSE(parse_flat_json("[1,2]", f));
  EXPECT_FALSE(point_from_json("{\"engine_version\":999999}").has_value());
  FieldMap ok;
  EXPECT_TRUE(parse_flat_json("{\"a\":1,\"b\":\"x\\\"y\"}", ok));
  EXPECT_EQ(ok["a"], "1");
  EXPECT_EQ(ok["b"], "x\"y");
}

// ----------------------------------------------------------- memo cache ----

class MemoCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Process-unique (pid) + fixture-unique (address bits): concurrent test
    // processes and in-process fixtures can never share (and so clobber)
    // each other's cache directories.
    dir_ = (std::filesystem::temp_directory_path() /
            ("hm_driver_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(reinterpret_cast<std::uintptr_t>(this) & 0xFFFF)))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string dir_;
};

TEST_F(MemoCacheTest, SecondRunHitsAndIsByteIdentical) {
  const ExperimentSpec spec = tiny_spec();
  SweepOptions opt;
  opt.jobs = 2;
  opt.cache_dir = dir_;
  const SweepOutcome first = run_sweep(spec, opt);
  EXPECT_EQ(first.cache_hits, 0u);
  EXPECT_EQ(first.failures, 0u);

  // Rewrite every entry the way older builds stored it, with an
  // "attempts":1 field after error_class: still a hit, never corruption,
  // and the hit re-serializes without the key.
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    std::string text;
    {
      std::ifstream in(entry.path());
      std::getline(in, text);
    }
    const std::size_t at = text.find("\"mapped_refs\"");
    ASSERT_NE(at, std::string::npos);
    text.insert(at, "\"attempts\":1,");
    std::ofstream(entry.path(), std::ios::trunc) << text << '\n';
  }

  const SweepOutcome second = run_sweep(spec, opt);
  EXPECT_EQ(second.cache_hits, second.points.size());
  EXPECT_EQ(second.cache_corrupt, 0u);
  for (const PointResult& r : second.points) EXPECT_TRUE(r.from_cache);
  EXPECT_EQ(to_json(first), to_json(second));
  EXPECT_EQ(to_json(second).find("attempts"), std::string::npos);

  // And a third run with a different thread count is still identical.
  opt.jobs = 4;
  EXPECT_EQ(to_json(first), to_json(run_sweep(spec, opt)));
}

TEST_F(MemoCacheTest, CorruptEntryDegradesToMiss) {
  const ExperimentSpec spec = tiny_spec();
  SweepOptions opt;
  opt.jobs = 1;
  opt.cache_dir = dir_;
  const SweepOutcome first = run_sweep(spec, opt);
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    std::ofstream out(entry.path(), std::ios::trunc);
    out << "{corrupt";
  }
  const SweepOutcome second = run_sweep(spec, opt);
  EXPECT_EQ(second.cache_hits, 0u);
  EXPECT_EQ(to_json(first), to_json(second));
}

TEST_F(MemoCacheTest, SessionCacheSharesPointsAcrossExperiments) {
  ExperimentSpec a = tiny_spec();
  ExperimentSpec b = tiny_spec();
  b.name = "test_tiny_other";  // same physical points, different experiment
  RunCache session;
  SweepOptions opt;
  opt.jobs = 2;
  opt.session_cache = &session;
  const SweepOutcome first = run_sweep(a, opt);
  EXPECT_EQ(first.cache_hits, 0u);
  const SweepOutcome second = run_sweep(b, opt);
  EXPECT_EQ(second.cache_hits, second.points.size());
  for (std::size_t i = 0; i < second.points.size(); ++i) {
    EXPECT_EQ(second.points[i].point.experiment, "test_tiny_other");
    EXPECT_EQ(second.points[i].report.cycles(), first.points[i].report.cycles());
  }
}

TEST_F(MemoCacheTest, SessionCacheHitsAreNotCountedAsExecuted) {
  // A second experiment sharing every point is served entirely from the
  // session cache: nothing is simulated, so nothing counts as executed and
  // no phase time is attributed.
  ExperimentSpec a = tiny_spec();
  ExperimentSpec b = tiny_spec();
  b.name = "test_tiny_other";
  RunCache session;
  SweepOptions opt;
  opt.jobs = 2;
  opt.session_cache = &session;
  const SweepOutcome first = run_sweep(a, opt);
  EXPECT_EQ(first.executed, first.points.size());
  const SweepOutcome second = run_sweep(b, opt);
  EXPECT_EQ(second.cache_hits, second.points.size());
  EXPECT_EQ(second.executed, 0u);
  EXPECT_EQ(second.simulate_seconds, 0.0);
  for (const PointResult& r : second.points) EXPECT_FALSE(r.profile.measured);
}

TEST(Sweep, FiniteQuantumKeepsResultsOutOfTheSessionCache) {
  // A finite-quantum result must never be stored under the (engine-
  // independent) canonical identity: a later serial sweep would consume it.
  ExperimentSpec spec;
  spec.name = "quantum_cache_gate_test";
  spec.title = "quantum cache gate";
  spec.scale = 0.02;
  Grid g;
  g.base = {{"machine", "hybrid_coherent"}, {"workload", "FT"}, {"cores", "4"}};
  spec.grids.push_back(g);

  RunCache session;
  SweepOptions opt;
  opt.jobs = 1;
  opt.session_cache = &session;
  opt.engine.quantum = 64;
  const SweepOutcome out = run_sweep(spec, opt);
  ASSERT_EQ(out.failures, 0u);
  const std::vector<SweepPoint> pts = expand(spec);
  ASSERT_EQ(pts.size(), 1u);
  EXPECT_FALSE(session.lookup(pts.front()).has_value())
      << "finite-quantum result leaked into the session cache";

  // The serial default engine still populates it.
  opt.engine = EngineConfig{};
  run_sweep(spec, opt);
  EXPECT_TRUE(session.lookup(pts.front()).has_value());
}

// ------------------------------------------------------------- registry ----

TEST(Registry, BuiltinsAndPaperExperimentsAreRegistered) {
  EXPECT_TRUE(has_machine("hybrid_coherent"));
  EXPECT_TRUE(has_machine("hybrid_oracle"));
  EXPECT_TRUE(has_machine("cache_based"));
  EXPECT_FALSE(has_machine("nonexistent"));
  EXPECT_EQ(workload_names().size(), 12u);  // 6 NAS + 6 irregular
  for (const char* name : {"SPMV", "STENCIL", "PCHASE", "HIST", "TRIAD", "RADIX"})
    EXPECT_TRUE(has_workload(name)) << name;
  EXPECT_THROW(make_machine("nonexistent"), std::out_of_range);
  EXPECT_THROW(make_workload("nonexistent", {}), std::out_of_range);

  ASSERT_GE(all_experiments().size(), 10u);
  for (const char* name :
       {"table1", "fig7", "fig8", "fig9", "fig10", "table3", "ablation_directory",
        "ablation_double_store", "ablation_prefetch", "scaling"})
    EXPECT_NE(find_experiment(name), nullptr) << name;
  EXPECT_EQ(find_experiment("no_such_experiment"), nullptr);
}

TEST(Registry, ScalingSpecElidesTheDefaultCoreCount) {
  const ExperimentSpec* scaling = find_experiment("scaling");
  ASSERT_NE(scaling, nullptr);
  const auto pts = expand(*scaling);
  ASSERT_FALSE(pts.empty());
  std::size_t single_core = 0;
  for (const SweepPoint& p : pts) {
    if (p.knobs.find("cores") == p.knobs.end()) {
      // cores=1 is the canonical default: elided from the identity, so the
      // point dedups with the single-core runs of the paper experiments.
      EXPECT_EQ(p.knob("cores"), "1");
      EXPECT_EQ(p.canonical().find("cores="), std::string::npos);
      ++single_core;
    }
  }
  // One single-core point per (workload, machine) pair.
  EXPECT_EQ(single_core, 12u);
}

TEST(Sweep, MulticorePointsAreByteStableAcrossJobCounts) {
  ExperimentSpec s;
  s.name = "test_cores";
  s.title = "cores-axis determinism probe";
  s.scale = 0.05;
  Grid g;
  g.base = {{"machine", "hybrid_coherent"}, {"workload", "EP"}};
  g.axes = {{"cores", {"1", "2", "4"}}};
  s.grids = {g};
  SweepOptions serial;
  serial.jobs = 1;
  SweepOptions parallel;
  parallel.jobs = 3;
  const std::string a = sweep_json(s, serial);
  const std::string b = sweep_json(s, parallel);
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(a.find("\"n_tiles\":4"), std::string::npos);
}

}  // namespace
