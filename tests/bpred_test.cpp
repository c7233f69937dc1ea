// Unit tests for the hybrid branch predictor.
#include <gtest/gtest.h>

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
