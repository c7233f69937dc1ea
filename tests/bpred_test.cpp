// Unit tests for the hybrid branch predictor.
#include <gtest/gtest.h>

#include <vector>

#include "common/bitops.hpp"
#include "common/rng.hpp"
#include "core/bpred.hpp"

namespace hm {
namespace {

TEST(Bpred, AlwaysTakenLoopConverges) {
  BranchPredictor bp;
  const Addr pc = 0x400;
  int correct = 0;
  for (int i = 0; i < 100; ++i) correct += bp.update(pc, true, 0x100) ? 1 : 0;
  EXPECT_GT(correct, 95);  // only the first iterations can miss
}

TEST(Bpred, AlternatingPatternLearnedByGshare) {
  BranchPredictor bp;
  const Addr pc = 0x400;
  // Warm up: T N T N ... — bimodal saturates wrong, gshare learns it.
  for (int i = 0; i < 200; ++i) bp.update(pc, i % 2 == 0, 0x100);
  int correct = 0;
  for (int i = 200; i < 300; ++i) correct += bp.update(pc, i % 2 == 0, 0x100) ? 1 : 0;
  EXPECT_GT(correct, 90);
}

TEST(Bpred, RandomBranchesMispredictOften) {
  BranchPredictor bp;
  Rng rng(7);
  std::uint64_t before = bp.stats().mispredictions;
  for (int i = 0; i < 1000; ++i) bp.update(0x400, rng.chance(0.5), 0x100);
  const auto missed = bp.stats().mispredictions - before;
  EXPECT_GT(missed, 300u);  // near 50% is unpredictable
}

TEST(Bpred, BtbMissOnFirstTakenBranch) {
  BranchPredictor bp;
  EXPECT_FALSE(bp.update(0x400, true, 0xABC));  // no target known yet
  EXPECT_TRUE(bp.stats().target_misses >= 1);
  // Second time the BTB has the target (direction may still train).
  for (int i = 0; i < 4; ++i) bp.update(0x400, true, 0xABC);
  EXPECT_TRUE(bp.update(0x400, true, 0xABC));
}

TEST(Bpred, TargetChangeMispredicts) {
  BranchPredictor bp;
  for (int i = 0; i < 8; ++i) bp.update(0x400, true, 0xABC);
  EXPECT_FALSE(bp.update(0x400, true, 0xDEF));  // new target
  EXPECT_TRUE(bp.update(0x400, true, 0xDEF));   // learned
}

TEST(Bpred, NotTakenBranchNeedsNoTarget) {
  BranchPredictor bp;
  // Train not-taken; direction correct => prediction correct without BTB.
  bp.update(0x800, false, 0);
  bp.update(0x800, false, 0);
  EXPECT_TRUE(bp.update(0x800, false, 0));
  EXPECT_EQ(bp.stats().target_misses, 0u);
}

TEST(Bpred, PredictCountsLookups) {
  BranchPredictor bp;
  bp.predict(0x400);
  bp.predict(0x404);
  EXPECT_EQ(bp.stats().predictions, 2u);
}

TEST(Bpred, RasPushPopLifo) {
  BranchPredictor bp;
  bp.ras_push(0x100);
  bp.ras_push(0x200);
  EXPECT_EQ(bp.ras_pop(), 0x200u);
  EXPECT_EQ(bp.ras_pop(), 0x100u);
  EXPECT_EQ(bp.ras_pop(), 0u);  // underflow
}

TEST(Bpred, RasOverflowDropsOldest) {
  BranchPredictor bp(BranchPredictorConfig{.ras_entries = 4});
  for (Addr a = 1; a <= 5; ++a) bp.ras_push(a * 0x10);
  EXPECT_EQ(bp.stats().ras_overflows, 1u);
  EXPECT_EQ(bp.ras_pop(), 0x50u);
  EXPECT_EQ(bp.ras_pop(), 0x40u);
  EXPECT_EQ(bp.ras_pop(), 0x30u);
  EXPECT_EQ(bp.ras_pop(), 0x20u);  // 0x10 was dropped
  EXPECT_EQ(bp.ras_pop(), 0u);
}

TEST(Bpred, ResetForgetsTraining) {
  BranchPredictor bp;
  for (int i = 0; i < 100; ++i) bp.update(0x400, true, 0x100);
  bp.reset();
  // After reset the BTB is empty: the first taken branch must target-miss.
  EXPECT_FALSE(bp.update(0x400, true, 0x100));
}

TEST(Bpred, RejectsNonPow2Tables) {
  BranchPredictorConfig cfg;
  cfg.gshare_entries = 1000;
  EXPECT_THROW(BranchPredictor{cfg}, std::invalid_argument);
}

TEST(Bpred, RejectsBtbSetsOutsideOnePage) {
  BranchPredictorConfig cfg;
  cfg.btb_ways = 3;  // a set would straddle a table page
  EXPECT_THROW(BranchPredictor{cfg}, std::invalid_argument);
  cfg.btb_ways = 256;  // a set larger than a page
  cfg.btb_entries = 1024;
  EXPECT_THROW(BranchPredictor{cfg}, std::invalid_argument);
  cfg.btb_ways = 128;  // exactly one page
  EXPECT_NO_THROW(BranchPredictor{cfg});
}

TEST(Bpred, IndependentBranchesDoNotInterfereViaBimodal) {
  BranchPredictor bp;
  // Two distant PCs with opposite biases must both be predictable.
  for (int i = 0; i < 100; ++i) {
    bp.update(0x1000, true, 0x100);
    bp.update(0x2000, false, 0);
  }
  EXPECT_TRUE(bp.update(0x1000, true, 0x100));
  EXPECT_TRUE(bp.update(0x2000, false, 0));
}

// The predictor before its BTB was cleared lazily: every set starts at
// {kNoAddr, 0, 0} and reset() rewrites the whole table.  Same direction
// tables, selector and victim rule (first way with the smallest lru).
class EagerPredictor {
 public:
  explicit EagerPredictor(BranchPredictorConfig cfg)
      : cfg_(cfg), sets_(cfg.btb_entries / cfg.btb_ways), btb_(cfg.btb_entries) {
    reset();
  }

  BranchPredictor::Prediction predict(Addr pc) {
    ++stats_.predictions;
    BranchPredictor::Prediction p;
    const bool use_gshare = selector_[sel(pc)] >= 2;
    p.taken = (use_gshare ? gshare_[gsh(pc)] : bimodal_[bim(pc)]) >= 2;
    for (unsigned w = 0; w < cfg_.btb_ways; ++w) {
      const Entry& e = btb_[set(pc) * cfg_.btb_ways + w];
      if (e.pc == pc) {
        p.btb_hit = true;
        p.target = e.target;
        ++stats_.btb_hits;
        break;
      }
    }
    return p;
  }

  bool update(Addr pc, bool taken, Addr target) {
    const bool use_gshare = selector_[sel(pc)] >= 2;
    std::uint8_t& g = gshare_[gsh(pc)];
    std::uint8_t& b = bimodal_[bim(pc)];
    const bool g_pred = g >= 2;
    const bool b_pred = b >= 2;
    const bool predicted_taken = use_gshare ? g_pred : b_pred;
    bool target_ok = true;
    Entry* hit = nullptr;
    Entry* victim = &btb_[set(pc) * cfg_.btb_ways];
    for (unsigned w = 0; w < cfg_.btb_ways; ++w) {
      Entry& e = btb_[set(pc) * cfg_.btb_ways + w];
      if (e.pc == pc) { hit = &e; break; }
      if (e.lru < victim->lru) victim = &e;
    }
    if (taken) {
      Entry& e = hit != nullptr ? *hit : *victim;
      target_ok = hit != nullptr && hit->target == target;
      e = Entry{pc, target, ++clock_};
    }
    if (g_pred != b_pred) {
      std::uint8_t& s = selector_[sel(pc)];
      if (g_pred == taken && s < 3) ++s;
      if (b_pred == taken && s > 0) --s;
    }
    train(g, taken);
    train(b, taken);
    history_ = (history_ << 1) | (taken ? 1u : 0u);
    const bool direction_ok = predicted_taken == taken;
    const bool correct = direction_ok && (!taken || target_ok);
    if (!direction_ok) ++stats_.direction_misses;
    if (taken && !target_ok) ++stats_.target_misses;
    if (!correct) ++stats_.mispredictions;
    return correct;
  }

  void reset() {
    bimodal_.assign(cfg_.bimodal_entries, 2);
    gshare_.assign(cfg_.gshare_entries, 2);
    selector_.assign(cfg_.selector_entries, 2);
    for (Entry& e : btb_) e = Entry{};
    history_ = 0;
  }

  const BranchPredictor::Stats& stats() const { return stats_; }

 private:
  struct Entry {
    Addr pc = kNoAddr;
    Addr target = 0;
    std::uint64_t lru = 0;
  };
  static void train(std::uint8_t& c, bool taken) {
    if (taken && c < 3) ++c;
    if (!taken && c > 0) --c;
  }
  std::size_t bim(Addr pc) const { return (pc >> 2) & (cfg_.bimodal_entries - 1); }
  std::size_t sel(Addr pc) const { return (pc >> 2) & (cfg_.selector_entries - 1); }
  std::size_t gsh(Addr pc) const {
    return ((pc >> 2) ^ (history_ & low_mask(cfg_.history_bits))) & (cfg_.gshare_entries - 1);
  }
  std::size_t set(Addr pc) const { return (pc >> 2) & (sets_ - 1); }

  BranchPredictorConfig cfg_;
  std::size_t sets_;
  std::vector<std::uint8_t> bimodal_, gshare_, selector_;
  std::vector<Entry> btb_;
  std::uint64_t history_ = 0;
  std::uint64_t clock_ = 0;
  BranchPredictor::Stats stats_;
};

// The lazily cleared BTB against the eager reference: six PCs per set on a
// few sets (so sets fill and evict), taken and not-taken branches with a
// per-PC target that sometimes changes, and reset() at random points (after
// which a stale set must read as empty and be cleared on its first write).
TEST(Bpred, LazyBtbMatchesEagerReference) {
  for (const BranchPredictorConfig cfg :
       {BranchPredictorConfig{}, BranchPredictorConfig{.btb_entries = 64, .btb_ways = 4}}) {
    BranchPredictor bp(cfg);
    EagerPredictor ref(cfg);
    const std::size_t sets = cfg.btb_entries / cfg.btb_ways;
    std::vector<Addr> pcs;
    for (std::size_t set : {std::size_t{0}, std::size_t{5}, sets - 1})
      for (Addr k = 0; k < 6; ++k) pcs.push_back(4 * (set + sets * (k + 1)));
    Rng rng(0xB7Bu + cfg.btb_entries);
    for (int step = 0; step < 40'000; ++step) {
      const Addr pc = pcs[rng.below(pcs.size())];
      const auto p = bp.predict(pc);
      const auto q = ref.predict(pc);
      ASSERT_EQ(p.taken, q.taken) << "step " << step;
      ASSERT_EQ(p.btb_hit, q.btb_hit) << "step " << step;
      ASSERT_EQ(p.target, q.target) << "step " << step;
      const bool taken = rng.chance(0.7);
      const Addr target = 0x9000 + pc * 2 + (rng.chance(0.05) ? 8 : 0);
      ASSERT_EQ(bp.update(pc, taken, target), ref.update(pc, taken, target)) << "step " << step;
      ASSERT_EQ(bp.stats(), ref.stats()) << "step " << step;
      if (rng.chance(0.002)) {
        bp.reset();
        ref.reset();
      }
    }
    EXPECT_GT(bp.stats().btb_hits, 1000u);
  }
}

class BpredBias : public ::testing::TestWithParam<double> {};

TEST_P(BpredBias, AccuracyScalesWithBias) {
  // A branch taken with probability p is predictable no worse than max(p,1-p)
  // minus training noise.
  const double p = GetParam();
  BranchPredictor bp;
  Rng rng(42);
  int correct = 0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) correct += bp.update(0x400, rng.chance(p), 0x100) ? 1 : 0;
  const double accuracy = static_cast<double>(correct) / n;
  const double best_static = std::max(p, 1.0 - p);
  EXPECT_GT(accuracy, best_static - 0.12);
}

INSTANTIATE_TEST_SUITE_P(Biases, BpredBias, ::testing::Values(0.05, 0.25, 0.5, 0.75, 0.95));

}  // namespace
}  // namespace hm
