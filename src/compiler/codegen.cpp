#include "compiler/codegen.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/hash.hpp"
#include "compiler/replay.hpp"

namespace hm {

namespace {
// Register-window allocation: four rotating windows of 14 registers give
// cross-iteration ILP without exceeding the 64-register namespace.
constexpr unsigned kWindowRegs = 14;
constexpr unsigned kWindows = 4;
constexpr unsigned kLoadRegs = 8;  // loads cycle over the first 8 of a window

std::uint8_t window_base(std::uint64_t iter) {
  return static_cast<std::uint8_t>(1 + (iter % kWindows) * kWindowRegs);
}
}  // namespace

CompiledKernel::CompiledKernel(LoopNest loop, Classification cls, TilePlan plan,
                               CodegenOptions opt)
    : loop_(std::move(loop)), cls_(std::move(cls)), plan_(std::move(plan)), opt_(opt) {
  tiled_ = opt_.variant != CodegenVariant::CacheOnly && !plan_.buffers.empty();

  // Static code layout: distinct pcs per reference and role, so the
  // IP-indexed prefetchers see one stream per strided reference.
  Addr pc = opt_.code_base;
  const auto next_pc = [&pc] { Addr p = pc; pc += 4; return p; };
  load_pc_.resize(loop_.refs.size());
  store_pc_.resize(loop_.refs.size());
  extra_store_pc_.resize(loop_.refs.size());
  for (unsigned i = 0; i < loop_.refs.size(); ++i) {
    load_pc_[i] = next_pc();
    store_pc_[i] = next_pc();
    extra_store_pc_[i] = next_pc();
  }
  alu_pc_base_ = next_pc();
  pc += 4 * (loop_.int_ops_per_iter + loop_.fp_ops_per_iter);
  branch_pc_ = next_pc();
  data_branch_pc_ = next_pc();

  // One resolved address per ref, in slot order: loads in reference order,
  // then stores in reference order.
  slot_addr_.reserve(loop_.refs.size());
  for (const bool writes : {false, true}) {
    for (unsigned i = 0; i < loop_.refs.size(); ++i) {
      const MemRef& r = loop_.refs[i];
      if (r.is_write != writes) continue;
      SlotAddress a;
      a.ref = i;
      a.irregular = r.pattern != PatternKind::Strided;
      const ArrayDecl& arr = loop_.array_of(r);
      a.step = static_cast<std::uint64_t>(r.stride < 0 ? -r.stride : r.stride) * arr.elem_size;
      a.tile_local = tiled_ && cls_.refs[i].cls == RefClass::Regular;
      a.base = a.tile_local
                   ? plan_.buffers[static_cast<unsigned>(cls_.refs[i].lm_buffer)].lm_base
                   : arr.base;
      slot_addr_.push_back(a);
    }
  }
  addr_scratch_.resize(slot_addr_.size());

  reset();
}

void CompiledKernel::reset() {
  state_ = State::Init;
  tile_ = 0;
  iter_ = 0;
  ctrl_.clear();
  work_len_ = 0;
  work_block_ = false;
  held_ = 0;
  ref_rng_.clear();
  ref_rng_.reserve(loop_.refs.size());
  for (const MemRef& r : loop_.refs)
    ref_rng_.emplace_back(r.irregular.seed ^ opt_.global_seed);
  branch_rng_.reseed(0xB5A3C9E7u ^ opt_.global_seed);
}

std::uint64_t CompiledKernel::store_value(unsigned ref, std::uint64_t iter) {
  // SplitMix64 mix of (ref, iter): deterministic and collision-poor.
  return splitmix64_mix((static_cast<std::uint64_t>(ref) << 48) ^ iter ^ kGoldenGamma);
}

std::uint32_t CompiledKernel::all_tags_mask() const {
  std::uint32_t mask = 0;
  for (unsigned b = 0; b < plan_.buffers.size(); ++b) mask |= (1u << (b % 32));
  return mask;
}

Addr CompiledKernel::irregular_address(unsigned ref, std::uint64_t global_iter, Rng& rng) const {
  const MemRef& r = loop_.refs[ref];
  const ArrayDecl& arr = loop_.array_of(r);
  const IrregularSpec& spec = r.irregular;

  // The same draws happen in every variant (same RNG state), so the address
  // streams are identical and runs are directly comparable.
  bool in_chunk = spec.in_chunk_fraction > 0.0 && rng.chance(spec.in_chunk_fraction);
  std::uint64_t t = 0;
  if (in_chunk && plan_.iters_per_tile > 0 && plan_.num_tiles > 0) {
    t = std::min(global_iter / plan_.iters_per_tile, plan_.num_tiles - 1);
    if (t * plan_.iters_per_tile >= arr.elements) in_chunk = false;  // array shorter than loop
  } else {
    in_chunk = false;
  }
  std::uint64_t elem;
  if (in_chunk) {
    // Land inside the chunk of the target array covered by the current tile
    // (tile geometry comes from the plan even in the cache variant so the
    // stream does not depend on the machine).
    const std::uint64_t chunk_elems =
        std::min(plan_.tile_iterations(t), arr.elements - t * plan_.iters_per_tile);
    elem = t * plan_.iters_per_tile + rng.below(std::max<std::uint64_t>(chunk_elems, 1));
  } else if (spec.hot_bytes > 0) {
    const std::uint64_t hot_elems = std::max<std::uint64_t>(spec.hot_bytes / arr.elem_size, 1);
    elem = rng.below(std::min(hot_elems, arr.elements));
  } else {
    elem = rng.below(arr.elements);
  }
  return arr.base + elem * arr.elem_size;
}

void CompiledKernel::emit_init() {
  if (!tiled_) return;
  MicroOp op;
  op.kind = OpKind::DirConfig;
  op.phase = ExecPhase::Control;
  op.pc = opt_.code_base - 4;
  op.dir_buffer_size = plan_.buffer_size;
  ctrl_.push_back(op);
}

void CompiledKernel::emit_control(std::uint64_t tile) {
  // Per buffer: write the previous chunk back (if dirty data can exist),
  // then fetch this tile's chunk.  Two INT ops per DMA command model the
  // address computations of the MAP statements.
  for (unsigned b = 0; b < plan_.buffers.size(); ++b) {
    const BufferPlan& bp = plan_.buffers[b];
    const bool writeback = bp.writeback || opt_.disable_readonly_opt;

    for (int k = 0; k < 2; ++k) {
      MicroOp alu;
      alu.kind = OpKind::IntAlu;
      alu.phase = ExecPhase::Control;
      alu.pc = alu_pc_base_;
      alu.dst = static_cast<std::uint8_t>(60 + (k % 2));
      ctrl_.push_back(alu);
    }

    if (tile > 0 && writeback) {
      MicroOp put;
      put.kind = OpKind::DmaPut;
      put.phase = ExecPhase::Control;
      put.pc = opt_.code_base - 8;
      put.dma_lm = bp.lm_base;
      put.dma_sm = plan_.chunk_sm_base(loop_, b, tile - 1);
      put.dma_size = plan_.chunk_bytes(b, tile - 1);
      put.dma_tag = static_cast<std::uint8_t>(b % 32);
      ctrl_.push_back(put);
    }

    // Even write-only chunks are fetched: a partial modification followed by
    // a write-back must not clobber unmodified SM data with garbage (§2.2).
    MicroOp get;
    get.kind = OpKind::DmaGet;
    get.phase = ExecPhase::Control;
    get.pc = opt_.code_base - 12;
    get.dma_sm = plan_.chunk_sm_base(loop_, b, tile);
    get.dma_lm = bp.lm_base;
    get.dma_size = plan_.chunk_bytes(b, tile);
    get.dma_tag = static_cast<std::uint8_t>(b % 32);
    ctrl_.push_back(get);
  }
}

void CompiledKernel::emit_synch() {
  MicroOp op;
  op.kind = OpKind::DmaSynch;
  op.phase = ExecPhase::Synch;
  op.pc = opt_.code_base - 16;
  op.synch_mask = all_tags_mask();
  ctrl_.push_back(op);
}

void CompiledKernel::resolve_work_iteration(std::uint64_t g, Addr* addrs,
                                            std::uint8_t& db) {
  if (bound_ != nullptr) {
    // Batch-bound (sampled) mode: the draws were made once when the batch
    // was compiled; read them back without touching the RNGs, which is
    // what makes whole iterations skippable.
    const Addr* src = bound_->iter_addrs(g);
    std::copy(src, src + bound_->num_slots(), addrs);
    db = bound_->db_code[g];
    return;
  }
  // Strided refs address by induction variable (an LM buffer when mapped,
  // the SM when demoted); the rest draw data-dependent SM addresses.  The
  // draw order — slot order (loads in reference order, then stores in
  // reference order), then the branch draw — is the emission order and
  // must never change: the address streams are pinned by the goldens
  // across all variants.
  const std::uint64_t local = tiled_ ? g % plan_.iters_per_tile : 0;
  for (std::size_t s = 0; s < slot_addr_.size(); ++s) {
    const SlotAddress& a = slot_addr_[s];
    addrs[s] = a.irregular ? irregular_address(a.ref, g, ref_rng_[a.ref])
                           : a.base + (a.tile_local ? local : g) * a.step;
  }
  db = 0;
  if (loop_.data_branch_fraction > 0.0 && branch_rng_.chance(loop_.data_branch_fraction))
    db = branch_rng_.chance(0.5) ? 2 : 1;
}

void CompiledKernel::build_work_template() {
  // The ops of work iteration 0, minus what resolve_work_iteration decides
  // per iteration.  The memory ops' kinds, pcs and double-store twins come
  // from replay_slots(), the one place those static decisions are made.
  const std::vector<ReplaySlot> slots = replay_slots();
  const std::size_t twins = static_cast<std::size_t>(
      std::count_if(slots.begin(), slots.end(), [](const ReplaySlot& sl) { return sl.double_store; }));
  mem_patches_.reserve(slots.size() + twins);
  work_.reserve(slots.size() + twins + loop_.int_ops_per_iter + loop_.fp_ops_per_iter + 2);
  const std::uint8_t base = window_base(0);
  const auto push = [&](OpKind kind, Addr pc) -> MicroOp& {
    MicroOp& op = work_.emplace_back();
    op.kind = kind;
    op.pc = pc;
    return op;
  };
  const auto is_load = [](const ReplaySlot& sl) {
    return sl.kind == OpKind::Load || sl.kind == OpKind::GuardedLoad;
  };

  // Loads, in reference order.
  unsigned load_slot = 0;
  std::uint8_t last_loaded = 0;
  for (std::uint32_t s = 0; s < slots.size(); ++s) {
    if (!is_load(slots[s])) continue;
    mem_patches_.push_back({static_cast<std::uint32_t>(work_.size()), s, slots[s].ref});
    last_loaded = static_cast<std::uint8_t>(base + (load_slot++ % kLoadRegs));
    push(slots[s].kind, slots[s].pc).dst = last_loaded;
  }

  // Compute chain: INT then FP ops, each depending on a loaded value and on
  // the previous ALU result (a realistic dependence spine).
  std::uint8_t prev = last_loaded;
  unsigned alu_slot = 0;
  const auto emit_alu = [&](OpKind kind) {
    MicroOp& op = push(kind, alu_pc_base_ + 4 * alu_slot);
    op.dst = static_cast<std::uint8_t>(base + kLoadRegs + (alu_slot % (kWindowRegs - kLoadRegs)));
    op.src1 = last_loaded != 0 ? static_cast<std::uint8_t>(base + (alu_slot % kLoadRegs)) : 0;
    op.src2 = prev;
    prev = op.dst;
    ++alu_slot;
  };
  for (unsigned k = 0; k < loop_.int_ops_per_iter; ++k) emit_alu(OpKind::IntAlu);
  for (unsigned k = 0; k < loop_.fp_ops_per_iter; ++k) emit_alu(OpKind::FpAlu);
  const std::uint8_t computed = prev;  // the last ALU result, else the last load

  // Stores, in reference order.  The conventional store of a double store
  // follows its guarded store: same operands, same SM address; it always
  // updates the copy in the SM (§3.1).
  for (std::uint32_t s = 0; s < slots.size(); ++s) {
    const ReplaySlot& sl = slots[s];
    if (is_load(sl)) continue;
    const auto store = [&](OpKind kind, Addr pc) {
      mem_patches_.push_back({static_cast<std::uint32_t>(work_.size()), s, sl.ref});
      MicroOp& op = push(kind, pc);
      op.src1 = computed;
      op.has_value = sl.has_value;
    };
    store(sl.kind, sl.pc);
    if (sl.double_store) store(OpKind::Store, sl.extra_pc);
  }

  // Loop back-edge: predictable, taken except when leaving the tile.
  push(OpKind::Branch, branch_pc_).target = opt_.code_base;

  // Optional data-dependent branch (hard to predict by construction); last,
  // so an iteration without it is the template's prefix.
  MicroOp& db = push(OpKind::Branch, data_branch_pc_);
  db.target = opt_.code_base + 64;
  db.src1 = computed;

  window_ = base;
}

void CompiledKernel::emit_work_iteration(std::uint64_t g) {
  // Built at the first work iteration, like any buffer of the stream: a
  // kernel that is compiled but never run pays nothing for it.
  if (work_.empty()) build_work_template();
  std::uint8_t db = 0;
  resolve_work_iteration(g, addr_scratch_.data(), db);

  // Rotate the register window: every named register is window-relative,
  // register 0 ("none") stays put.  Byte arithmetic wraps back into range.
  const std::uint8_t base = window_base(g);
  if (base != window_) {
    const auto shift = static_cast<std::uint8_t>(base - window_);
    for (MicroOp& op : work_) {
      if (op.dst != 0) op.dst += shift;
      if (op.src1 != 0) op.src1 += shift;
      if (op.src2 != 0) op.src2 += shift;
    }
    window_ = base;
  }

  for (const MemPatch& m : mem_patches_) {
    MicroOp& op = work_[m.op];
    op.addr = addr_scratch_[m.slot];
    if (op.has_value) op.value = store_value(m.ref, g);
  }

  const std::size_t n = work_.size();
  work_[n - 2].taken = (g + 1) < tile_end();
  work_[n - 1].taken = db == 2;
  work_len_ = db != 0 ? n : n - 1;
  work_block_ = true;
}

void CompiledKernel::emit_epilogue() {
  for (unsigned b = 0; b < plan_.buffers.size(); ++b) {
    const BufferPlan& bp = plan_.buffers[b];
    if (!(bp.writeback || opt_.disable_readonly_opt)) continue;
    MicroOp put;
    put.kind = OpKind::DmaPut;
    put.phase = ExecPhase::Control;
    put.pc = opt_.code_base - 8;
    put.dma_lm = bp.lm_base;
    put.dma_sm = plan_.chunk_sm_base(loop_, b, plan_.num_tiles - 1);
    put.dma_size = plan_.chunk_bytes(b, plan_.num_tiles - 1);
    put.dma_tag = static_cast<std::uint8_t>(b % 32);
    ctrl_.push_back(put);
  }
}

void CompiledKernel::refill() {
  ctrl_.clear();
  work_block_ = false;

  while (!work_block_ && ctrl_.empty()) {
    switch (state_) {
      case State::Init:
        emit_init();
        state_ = tiled_ ? State::Control : State::Work;
        break;
      case State::Control:
        emit_control(tile_);
        state_ = State::Synch;
        break;
      case State::Synch:
        emit_synch();
        state_ = State::Work;
        break;
      case State::Work: {
        if (iter_ >= loop_.iterations) {
          state_ = tiled_ ? State::Epilogue : State::Done;
          break;
        }
        emit_work_iteration(iter_);
        ++iter_;
        if (tiled_ && iter_ < loop_.iterations && iter_ == tile_end()) {
          ++tile_;
          state_ = State::Control;
        }
        break;
      }
      case State::Epilogue:
        emit_epilogue();
        state_ = State::EpilogueSynch;
        break;
      case State::EpilogueSynch:
        emit_synch();
        state_ = State::Done;
        break;
      case State::Done:
        return;
    }
  }
}

std::span<const MicroOp> CompiledKernel::current_block() const {
  return work_block_ ? std::span<const MicroOp>(work_).first(work_len_)
                     : std::span<const MicroOp>(ctrl_);
}

std::span<const MicroOp> CompiledKernel::next_block() {
  if (held_ != 0) return current_block().last(std::exchange(held_, 0));
  refill();
  return current_block();
}

// ---------------------------------------------------------------------------
// ReplayableStream: the sampled engine's view of the kernel.

std::vector<ReplaySlot> CompiledKernel::replay_slots() const {
  // The work iteration's static decisions: loads in ref order, then stores
  // in ref order, guard and double-store flags resolved from the
  // classification once.  The work template is built from these.  Any
  // potentially incoherent reference — indirect, chased, or a demoted
  // strided ref that may alias a live LM chunk — is guarded.
  std::vector<ReplaySlot> out;
  out.reserve(loop_.refs.size());
  const bool guard_on = tiled_ && opt_.variant == CodegenVariant::HybridProtocol &&
                        !opt_.drop_guards;
  for (unsigned i = 0; i < loop_.refs.size(); ++i) {
    if (loop_.refs[i].is_write) continue;
    ReplaySlot s;
    s.kind = guard_on && cls_.refs[i].cls == RefClass::PotentiallyIncoherent
                 ? OpKind::GuardedLoad
                 : OpKind::Load;
    s.pc = load_pc_[i];
    s.ref = static_cast<std::uint16_t>(i);
    out.push_back(s);
  }
  for (unsigned i = 0; i < loop_.refs.size(); ++i) {
    if (!loop_.refs[i].is_write) continue;
    const ClassifiedRef& cr = cls_.refs[i];
    ReplaySlot s;
    if (guard_on && cr.cls == RefClass::PotentiallyIncoherent) {
      s.kind = OpKind::GuardedStore;
      s.double_store = cr.needs_double_store && !opt_.disable_readonly_opt &&
                       !opt_.suppress_double_store;
    } else {
      s.kind = OpKind::Store;
    }
    s.pc = store_pc_[i];
    s.extra_pc = extra_store_pc_[i];
    s.ref = static_cast<std::uint16_t>(i);
    s.has_value = opt_.functional_stores;
    out.push_back(s);
  }
  return out;
}

std::uint64_t CompiledKernel::tile_end() const {
  return tiled_ ? std::min((tile_ + 1) * plan_.iters_per_tile, loop_.iterations)
                : loop_.iterations;
}

std::uint64_t CompiledKernel::work_cursor() const {
  if (held_ != 0) return kNoIteration;  // the consumer stopped mid-block
  if (state_ != State::Work || iter_ >= loop_.iterations) return kNoIteration;
  return iter_;
}

std::uint64_t CompiledKernel::skip_work_iterations(std::uint64_t n) {
  if (bound_ == nullptr || n == 0 || work_cursor() == kNoIteration) return 0;
  // Advance the cursor exactly as refill() would have after emitting these
  // iterations: stop at the tile boundary (the control/synch phases always
  // run detailed) and replicate the tile-advance transition.
  const std::uint64_t k = std::min(n, tile_end() - iter_);
  iter_ += k;
  if (tiled_ && iter_ < loop_.iterations && iter_ == tile_end()) {
    ++tile_;
    state_ = State::Control;
  }
  return k;
}

void CompiledKernel::bind_replay(std::shared_ptr<const ReplayBatch> batch) {
  if (batch != nullptr &&
      (batch->num_slots() != slot_addr_.size() || batch->iterations != loop_.iterations))
    throw std::invalid_argument("replay batch shape does not match kernel");
  bound_ = std::move(batch);
}

std::shared_ptr<const ReplayBatch> CompiledKernel::replay_batch() {
  return cached_replay_batch(*this);
}

CompiledKernel compile(const LoopNest& loop, const CodegenOptions& opt,
                       Addr lm_base, Bytes lm_size, unsigned max_buffers) {
  loop.validate();
  AliasOracle oracle(loop);
  Classification cls = classify(loop, oracle, max_buffers);
  TilePlan plan = plan_tiling(loop, cls, lm_base, lm_size);
  return CompiledKernel(loop, std::move(cls), std::move(plan), opt);
}

}  // namespace hm
