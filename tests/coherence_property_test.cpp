// Property-based tests of the coherence protocol (DESIGN.md §6).
//
// 1. Randomized event sequences driven through the Fig. 6 state machine:
//    only legal events are applied, and the §3.4 invariants must hold after
//    every step, for thousands of trajectories.
// 2. Randomized directory workloads: map/unmap/lookup sequences against a
//    reference std::map model.
// 3. Randomized guarded-access kernels: final memory images must match the
//    cache-based reference for any (buffer count, in-chunk fraction, seed).
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "coherence/data_state.hpp"
#include "coherence/directory.hpp"
#include "common/rng.hpp"
#include "compiler/codegen.hpp"
#include "sim/system.hpp"

namespace hm {
namespace {

constexpr Addr kLmBase = 0x7F80'0000'0000ull;
constexpr Bytes kLmSize = 32 * 1024;

// ---- 1. State machine trajectories ---------------------------------------

class StateTrajectories : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StateTrajectories, InvariantsHoldOnEveryLegalPath) {
  Rng rng(GetParam());
  const ReplEvent all_events[] = {
      ReplEvent::LMMap,    ReplEvent::LMUnmap,      ReplEvent::LMWriteback,
      ReplEvent::CMAccess, ReplEvent::CMEvict,      ReplEvent::GuardedStore,
      ReplEvent::DoubleStore,
  };
  DataStateMachine sm;
  for (int step = 0; step < 2000; ++step) {
    // Pick a random legal event (there is always at least one).
    std::vector<ReplEvent> legal;
    for (ReplEvent e : all_events)
      if (sm.legal(e)) legal.push_back(e);
    ASSERT_FALSE(legal.empty());
    const ReplEvent chosen = legal[rng.below(legal.size())];
    sm.apply(chosen);

    // Invariant I1: in LM-CM the cache copy is never the sole valid one.
    EXPECT_TRUE(sm.lm_copy_valid_or_identical());
    // Structural: Validity::Single exactly outside LM-CM.
    if (sm.state() == ReplState::LMCM) {
      EXPECT_NE(sm.validity(), Validity::Single);
    } else {
      EXPECT_EQ(sm.validity(), Validity::Single);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StateTrajectories,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

// ---- 2. Directory vs reference model --------------------------------------

class DirectoryModel : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DirectoryModel, MatchesReferenceMap) {
  Rng rng(GetParam());
  const Bytes bufsize = 1024;
  CoherenceDirectory dir(DirectoryConfig{.entries = 32});
  dir.configure(bufsize, kLmBase, kLmSize);
  // Reference: buffer index -> mapped SM base; plus inverse for lookups.
  std::map<unsigned, Addr> model;

  for (int step = 0; step < 5000; ++step) {
    const unsigned buffer = static_cast<unsigned>(rng.below(32));
    const Addr lm = kLmBase + static_cast<Addr>(buffer) * bufsize;
    switch (rng.below(3)) {
      case 0: {  // map
        const Addr sm = 0x100'0000 + rng.below(4096) * bufsize;
        dir.map(sm, lm, 0);
        model[buffer] = sm;
        break;
      }
      case 1: {  // unmap
        dir.unmap(lm);
        model.erase(buffer);
        break;
      }
      default: {  // lookup of a random address
        const Addr sm = 0x100'0000 + rng.below(4096) * bufsize + rng.below(bufsize);
        const auto r = dir.lookup(sm, 0);
        // Reference answer: the *first matching buffer in entry order*, to
        // mirror the CAM's priority when duplicates exist.
        bool expected_hit = false;
        Addr expected_addr = sm;
        for (const auto& [b, base] : model) {
          if (base == (sm & ~(bufsize - 1))) {
            expected_hit = true;
            expected_addr = kLmBase + static_cast<Addr>(b) * bufsize + (sm & (bufsize - 1));
            break;
          }
        }
        EXPECT_EQ(r.hit, expected_hit);
        if (expected_hit) {
          EXPECT_EQ(r.address, expected_addr);
        }
        break;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DirectoryModel, ::testing::Values(11, 22, 33, 44, 55));

// ---- 3. Randomized kernels: protocol == reference --------------------------

struct KernelParams {
  unsigned streams;
  double in_chunk;
  std::uint64_t seed;
};

class RandomKernels : public ::testing::TestWithParam<KernelParams> {};

LoopNest random_kernel(const KernelParams& p) {
  LoopNest loop;
  loop.name = "rand";
  const std::uint64_t iters = 4096;
  for (unsigned i = 0; i < p.streams; ++i) {
    loop.arrays.push_back({.name = "s" + std::to_string(i),
                           .base = 0x100'0000 + 0x10'0000 * static_cast<Addr>(i),
                           .elem_size = 8, .elements = iters});
    loop.refs.push_back({.name = "s" + std::to_string(i), .array = i,
                         .pattern = PatternKind::Strided, .stride = 1,
                         .is_write = (i % 2) == 0});
  }
  // One PI write aliasing stream 0 (written => write-back) and one PI write
  // aliasing stream 1 (read-only if it exists and is odd-indexed).
  loop.refs.push_back({.name = "p0", .array = 0, .pattern = PatternKind::PointerChase,
                       .is_write = true,
                       .irregular = {.in_chunk_fraction = p.in_chunk, .seed = p.seed}});
  if (p.streams > 1) {
    loop.refs.push_back({.name = "p1", .array = 1, .pattern = PatternKind::PointerChase,
                         .is_write = true,
                         .irregular = {.in_chunk_fraction = p.in_chunk, .seed = p.seed + 1}});
  }
  loop.iterations = iters;
  loop.int_ops_per_iter = 1;
  return loop;
}

TEST_P(RandomKernels, FinalImageMatchesReference) {
  const LoopNest loop = random_kernel(GetParam());
  const auto image_of = [&](MachineConfig mc, CodegenVariant v) {
    System sys(std::move(mc));
    CompiledKernel k = compile(loop, {.variant = v, .functional_stores = true},
                               kLmBase, kLmSize);
    sys.run(k);
    std::vector<std::uint64_t> out;
    for (const ArrayDecl& arr : loop.arrays)
      for (std::uint64_t e = 0; e < arr.elements; ++e)
        out.push_back(sys.image().load64(arr.base + e * arr.elem_size));
    return out;
  };
  const auto ref = image_of(MachineConfig::cache_based(), CodegenVariant::CacheOnly);
  const auto prot = image_of(MachineConfig::hybrid_coherent(), CodegenVariant::HybridProtocol);
  EXPECT_EQ(prot, ref);
}

INSTANTIATE_TEST_SUITE_P(
    Params, RandomKernels,
    ::testing::Values(KernelParams{1, 0.0, 7}, KernelParams{1, 1.0, 8},
                      KernelParams{2, 0.5, 9}, KernelParams{4, 0.3, 10},
                      KernelParams{8, 0.7, 11}, KernelParams{16, 0.5, 12},
                      KernelParams{32, 0.9, 13}, KernelParams{2, 0.0, 14},
                      KernelParams{3, 1.0, 15}));

}  // namespace
}  // namespace hm
