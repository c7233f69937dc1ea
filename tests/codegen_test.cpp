// Unit tests for phase 3: the code generator and its three machine variants.
#include <gtest/gtest.h>

#include <vector>

#include "compiler/codegen.hpp"

namespace hm {
namespace {

constexpr Addr kLmBase = 0x7F80'0000'0000ull;
constexpr Bytes kLmSize = 32 * 1024;

LoopNest fig3_loop(std::uint64_t iters = 8192) {
  LoopNest loop;
  loop.name = "fig3";
  loop.arrays = {
      {.name = "a", .base = 0x100'0000, .elem_size = 8, .elements = iters},
      {.name = "b", .base = 0x200'0000, .elem_size = 8, .elements = iters},
      {.name = "c", .base = 0x300'0000, .elem_size = 8, .elements = iters},
  };
  loop.refs = {
      {.name = "a", .array = 0, .pattern = PatternKind::Strided, .stride = 1, .is_write = true},
      {.name = "b", .array = 1, .pattern = PatternKind::Strided, .stride = 1},
      {.name = "c", .array = 2, .pattern = PatternKind::Indirect, .is_write = true},
      {.name = "ptr", .array = 0, .pattern = PatternKind::PointerChase, .is_write = true,
       .irregular = {.in_chunk_fraction = 0.5, .seed = 3}},
  };
  loop.iterations = iters;
  loop.int_ops_per_iter = 1;
  return loop;
}

std::vector<MicroOp> drain(InstrStream& s, std::size_t cap = 10'000'000) {
  std::vector<MicroOp> out;
  MicroOp op;
  while (out.size() < cap && s.next(op)) out.push_back(op);
  return out;
}

std::size_t count_kind(const std::vector<MicroOp>& ops, OpKind k) {
  std::size_t n = 0;
  for (const auto& op : ops) n += op.kind == k ? 1 : 0;
  return n;
}

TEST(Codegen, HybridStartsWithDirConfig) {
  CompiledKernel k = compile(fig3_loop(), {.variant = CodegenVariant::HybridProtocol},
                             kLmBase, kLmSize);
  MicroOp op;
  ASSERT_TRUE(k.next(op));
  EXPECT_EQ(op.kind, OpKind::DirConfig);
  EXPECT_EQ(op.dir_buffer_size, k.plan().buffer_size);
}

TEST(Codegen, DemotedStridedRefAliasingReadOnlyMappedArrayEmitsGuardedDoubleStore) {
  // {b[i] read (mapped, read-only), a[2i] write (stride-demoted, explicit
  // may-alias with b)}: the demoted write is potentially incoherent
  // against the live LM chunk of `b`, whose read-only buffer skips the
  // write-back — the hybrid variant must emit a guarded store plus the
  // conventional store (double store), at SM addresses.
  LoopNest loop;
  loop.name = "mixed_ro";
  loop.arrays = {
      {.name = "b", .base = 0x100'0000, .elem_size = 8, .elements = 4096},
      {.name = "a", .base = 0x200'0000, .elem_size = 8, .elements = 8192},
  };
  loop.refs = {
      {.name = "b[i]", .array = 0, .pattern = PatternKind::Strided, .stride = 1},
      {.name = "a[2i]", .array = 1, .pattern = PatternKind::Strided, .stride = 2,
       .is_write = true},
  };
  loop.iterations = 4096;
  loop.int_ops_per_iter = 1;
  loop.alias_facts.push_back({.ref_a = 0, .ref_b = 1, .verdict = AliasVerdict::MayAlias});

  CompiledKernel k = compile(loop, {.variant = CodegenVariant::HybridProtocol},
                             kLmBase, kLmSize);
  ASSERT_EQ(k.classification().refs[1].cls, RefClass::PotentiallyIncoherent);
  ASSERT_TRUE(k.classification().refs[1].needs_double_store);
  const auto ops = drain(k);
  EXPECT_EQ(count_kind(ops, OpKind::GuardedStore), loop.iterations);
  // One conventional store per guarded store (the double store)...
  EXPECT_EQ(count_kind(ops, OpKind::Store), loop.iterations);
  // ...and every guarded access addresses the SM, never the LM window.
  for (const auto& op : ops) {
    if (op.kind == OpKind::GuardedStore || op.kind == OpKind::Store) {
      EXPECT_LT(op.addr, kLmBase);
    }
  }
}

TEST(Codegen, CacheVariantHasNoDmaOrGuards) {
  CompiledKernel k = compile(fig3_loop(), {.variant = CodegenVariant::CacheOnly},
                             kLmBase, kLmSize);
  const auto ops = drain(k);
  EXPECT_EQ(count_kind(ops, OpKind::DmaGet), 0u);
  EXPECT_EQ(count_kind(ops, OpKind::DmaPut), 0u);
  EXPECT_EQ(count_kind(ops, OpKind::DmaSynch), 0u);
  EXPECT_EQ(count_kind(ops, OpKind::DirConfig), 0u);
  EXPECT_EQ(count_kind(ops, OpKind::GuardedLoad), 0u);
  EXPECT_EQ(count_kind(ops, OpKind::GuardedStore), 0u);
  // All memory addresses are SM addresses.
  for (const auto& op : ops) {
    if (op.is_mem()) {
      EXPECT_LT(op.addr, kLmBase);
    }
  }
}

TEST(Codegen, OracleVariantUnguardedButTiled) {
  CompiledKernel k = compile(fig3_loop(), {.variant = CodegenVariant::HybridOracle},
                             kLmBase, kLmSize);
  const auto ops = drain(k);
  EXPECT_GT(count_kind(ops, OpKind::DmaGet), 0u);
  EXPECT_EQ(count_kind(ops, OpKind::GuardedLoad), 0u);
  EXPECT_EQ(count_kind(ops, OpKind::GuardedStore), 0u);
}

TEST(Codegen, HybridEmitsGuardsForPotentiallyIncoherent) {
  CompiledKernel k = compile(fig3_loop(), {.variant = CodegenVariant::HybridProtocol},
                             kLmBase, kLmSize);
  const auto ops = drain(k);
  // ptr is a PI write with double store: one gst + one st per iteration; it
  // also reads nothing (is_write), so no gld is emitted for it... but the
  // loop has no PI reads, so:
  EXPECT_EQ(count_kind(ops, OpKind::GuardedLoad), 0u);
  EXPECT_EQ(count_kind(ops, OpKind::GuardedStore), 8192u);
}

TEST(Codegen, DoubleStoreEmitsConventionalTwin) {
  CompiledKernel k = compile(fig3_loop(), {.variant = CodegenVariant::HybridProtocol},
                             kLmBase, kLmSize);
  ASSERT_TRUE(k.classification().refs[3].needs_double_store);
  const auto ops = drain(k);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].kind != OpKind::GuardedStore) continue;
    ASSERT_LT(i + 1, ops.size());
    EXPECT_EQ(ops[i + 1].kind, OpKind::Store);
    EXPECT_EQ(ops[i + 1].addr, ops[i].addr);   // same SM address
    EXPECT_EQ(ops[i + 1].src1, ops[i].src1);   // same source operand
  }
}

TEST(Codegen, RegularRefsUseLmAddressesInHybrid) {
  CompiledKernel k = compile(fig3_loop(), {.variant = CodegenVariant::HybridProtocol},
                             kLmBase, kLmSize);
  const auto ops = drain(k);
  bool saw_lm_load = false, saw_lm_store = false;
  for (const auto& op : ops) {
    if (op.kind == OpKind::Load && op.addr >= kLmBase) saw_lm_load = true;
    if (op.kind == OpKind::Store && op.addr >= kLmBase) saw_lm_store = true;
  }
  EXPECT_TRUE(saw_lm_load);   // b
  EXPECT_TRUE(saw_lm_store);  // a
}

TEST(Codegen, ControlPhaseGetsEveryBufferEveryTile) {
  LoopNest loop = fig3_loop();
  CompiledKernel k = compile(loop, {.variant = CodegenVariant::HybridProtocol},
                             kLmBase, kLmSize);
  const auto ops = drain(k);
  const auto& plan = k.plan();
  EXPECT_EQ(count_kind(ops, OpKind::DmaGet), plan.num_tiles * plan.buffers.size());
}

TEST(Codegen, PutsOnlyForWritebackBuffers) {
  LoopNest loop = fig3_loop();
  CompiledKernel k = compile(loop, {.variant = CodegenVariant::HybridProtocol},
                             kLmBase, kLmSize);
  const auto ops = drain(k);
  const auto& plan = k.plan();
  unsigned writeback_buffers = 0;
  for (const auto& b : plan.buffers) writeback_buffers += b.writeback ? 1 : 0;
  ASSERT_EQ(writeback_buffers, 1u);  // only a is written
  // One put per tile after the first, plus the epilogue put.
  EXPECT_EQ(count_kind(ops, OpKind::DmaPut), plan.num_tiles);
}

TEST(Codegen, DisableReadonlyOptWritesBackEverything) {
  LoopNest loop = fig3_loop();
  CompiledKernel k = compile(loop, {.variant = CodegenVariant::HybridProtocol,
                                    .disable_readonly_opt = true},
                             kLmBase, kLmSize);
  const auto ops = drain(k);
  const auto& plan = k.plan();
  EXPECT_EQ(count_kind(ops, OpKind::DmaPut), plan.num_tiles * plan.buffers.size());
  // And the double store disappears: a single guarded store per PI write.
  for (std::size_t i = 0; i + 1 < ops.size(); ++i) {
    if (ops[i].kind == OpKind::GuardedStore) {
      EXPECT_NE(ops[i + 1].kind, OpKind::Store);
    }
  }
}

TEST(Codegen, DropGuardsGeneratesPlainAccesses) {
  CompiledKernel k = compile(fig3_loop(), {.variant = CodegenVariant::HybridProtocol,
                                           .drop_guards = true},
                             kLmBase, kLmSize);
  const auto ops = drain(k);
  EXPECT_EQ(count_kind(ops, OpKind::GuardedStore), 0u);
}

TEST(Codegen, StreamIsDeterministicAcrossReset) {
  CompiledKernel k = compile(fig3_loop(1024), {.variant = CodegenVariant::HybridProtocol},
                             kLmBase, kLmSize);
  const auto first = drain(k);
  k.reset();
  const auto second = drain(k);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].kind, second[i].kind) << i;
    EXPECT_EQ(first[i].addr, second[i].addr) << i;
  }
}

TEST(Codegen, IrregularAddressStreamsMatchAcrossVariants) {
  // The PI/irregular references must generate identical SM address sequences
  // in every variant so runs are comparable.
  LoopNest loop = fig3_loop(2048);
  CompiledKernel hybrid = compile(loop, {.variant = CodegenVariant::HybridProtocol},
                                  kLmBase, kLmSize);
  CompiledKernel cache = compile(loop, {.variant = CodegenVariant::CacheOnly},
                                 kLmBase, kLmSize);
  std::vector<Addr> h_addrs, c_addrs;
  for (const auto& op : drain(hybrid))
    if (op.kind == OpKind::GuardedStore) h_addrs.push_back(op.addr);
  for (const auto& op : drain(cache)) {
    // In the cache variant the PI write is a plain store to array a's SM
    // range; regular stores also target a.  Distinguish by pc.
    if (op.kind == OpKind::Store && op.pc == hybrid.loop().refs.size() * 0 + 0) {}
    (void)op;
  }
  // Compare against the oracle variant instead (same plain-store shape but
  // tiled): its PI stores are the plain stores to a's SM range.
  CompiledKernel oracle = compile(loop, {.variant = CodegenVariant::HybridOracle},
                                  kLmBase, kLmSize);
  std::vector<Addr> o_addrs;
  const Addr a_base = loop.arrays[0].base;
  const Addr a_end = loop.arrays[0].end();
  for (const auto& op : drain(oracle)) {
    if (op.kind == OpKind::Store && op.addr >= a_base && op.addr < a_end)
      o_addrs.push_back(op.addr);
  }
  ASSERT_EQ(h_addrs.size(), o_addrs.size());
  EXPECT_EQ(h_addrs, o_addrs);
  (void)c_addrs;
}

TEST(Codegen, FunctionalStoresCarryDeterministicValues) {
  CompiledKernel k = compile(fig3_loop(512), {.variant = CodegenVariant::HybridProtocol,
                                              .functional_stores = true},
                             kLmBase, kLmSize);
  const auto ops = drain(k);
  for (const auto& op : ops) {
    if (op.is_store()) {
      EXPECT_TRUE(op.has_value);
    }
  }
  EXPECT_EQ(CompiledKernel::store_value(1, 7), CompiledKernel::store_value(1, 7));
  EXPECT_NE(CompiledKernel::store_value(1, 7), CompiledKernel::store_value(2, 7));
  EXPECT_NE(CompiledKernel::store_value(1, 7), CompiledKernel::store_value(1, 8));
}

TEST(Codegen, PhaseMarkersConsistent) {
  CompiledKernel k = compile(fig3_loop(1024), {.variant = CodegenVariant::HybridProtocol},
                             kLmBase, kLmSize);
  for (const auto& op : drain(k)) {
    switch (op.kind) {
      case OpKind::DmaGet:
      case OpKind::DmaPut:
      case OpKind::DirConfig:
        EXPECT_EQ(op.phase, ExecPhase::Control);
        break;
      case OpKind::DmaSynch:
        EXPECT_EQ(op.phase, ExecPhase::Synch);
        break;
      case OpKind::Load:
      case OpKind::Store:
      case OpKind::GuardedLoad:
      case OpKind::GuardedStore:
      case OpKind::Branch:
        EXPECT_EQ(op.phase, ExecPhase::Work);
        break;
      default:
        break;
    }
  }
}

TEST(Codegen, WorkIterationOpBudget) {
  // Per iteration: 1 LM load (b) + 1 LM store (a) + 1 irregular store (c) +
  // 1 gst + 1 st (double store) + 1 int op + 1 branch = 7 uops.
  LoopNest loop = fig3_loop(1024);
  CompiledKernel k = compile(loop, {.variant = CodegenVariant::HybridProtocol},
                             kLmBase, kLmSize);
  const auto ops = drain(k);
  std::size_t work_ops = 0;
  for (const auto& op : ops) work_ops += (op.phase == ExecPhase::Work) ? 1 : 0;
  EXPECT_EQ(work_ops, 1024u * 7u);
}

TEST(Codegen, InChunkAddressesFallInsideCurrentChunk) {
  LoopNest loop = fig3_loop(4096);
  loop.refs[3].irregular.in_chunk_fraction = 1.0;  // always in-chunk
  CompiledKernel k = compile(loop, {.variant = CodegenVariant::HybridProtocol},
                             kLmBase, kLmSize);
  const auto& plan = k.plan();
  const Addr a_base = loop.arrays[0].base;
  std::uint64_t iter = 0;
  for (const auto& op : drain(k)) {
    if (op.kind == OpKind::Branch) ++iter;
    if (op.kind != OpKind::GuardedStore) continue;
    const std::uint64_t tile = (iter) / plan.iters_per_tile;
    const Addr chunk_lo = a_base + tile * plan.buffer_size;
    EXPECT_GE(op.addr, chunk_lo);
    EXPECT_LT(op.addr, chunk_lo + plan.buffer_size);
  }
}

}  // namespace
}  // namespace hm
