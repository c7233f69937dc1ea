#include "workloads/microbench.hpp"

#include <utility>

namespace hm {

const char* to_string(MicroMode m) {
  switch (m) {
    case MicroMode::Baseline: return "Baseline";
    case MicroMode::RD: return "RD";
    case MicroMode::WR: return "WR";
    case MicroMode::RDWR: return "RD/WR";
  }
  return "?";
}

Microbenchmark::Microbenchmark(MicrobenchConfig cfg) : cfg_(cfg) {
  MicroOp& cfg_op = ops_[0];
  cfg_op.kind = OpKind::DirConfig;
  cfg_op.pc = cfg_.code_base - 4;
  cfg_op.dir_buffer_size = cfg_.dir_buffer_size;
  cfg_op.phase = ExecPhase::Control;

  ops_[1].pc = cfg_.code_base;  // ld
  ops_[2].kind = OpKind::IntAlu;
  ops_[2].pc = cfg_.code_base + 4;  // add
  ops_[3].pc = cfg_.code_base + 8;  // st

  branch_.kind = OpKind::Branch;
  branch_.pc = cfg_.code_base + 16;
  branch_.target = cfg_.code_base;
  reset();
}

void Microbenchmark::reset() {
  iter_ = 0;
  emitted_config_ = false;
  first_ = 0;
  len_ = 0;
  held_ = 0;
}

std::uint64_t Microbenchmark::total_uops() const {
  // Per iteration: load + add + store + branch, plus the extra store of the
  // double store on guarded WR iterations.
  std::uint64_t per_iter = 4;
  std::uint64_t extra = 0;
  if (cfg_.mode == MicroMode::WR || cfg_.mode == MicroMode::RDWR) {
    extra = (cfg_.iterations * cfg_.guarded_pct) / 100;
  }
  return cfg_.iterations * per_iter + extra + 1;  // +1 dir.config
}

void Microbenchmark::emit_iteration(std::uint64_t i) {
  // Deterministic guard pattern: iteration i is guarded iff (i mod 100) falls
  // below the requested percentage.
  const bool guarded = (i % 100) < cfg_.guarded_pct;
  const std::uint64_t e = i % (cfg_.elements - 1);
  const Addr load_addr = cfg_.array_base + e * 8;
  const Addr store_addr = cfg_.array_base + (e + 1) * 8;

  // Rotating register windows for cross-iteration ILP.
  const std::uint8_t r_load = static_cast<std::uint8_t>(1 + (i % 4) * 3);
  const std::uint8_t r_sum = static_cast<std::uint8_t>(r_load + 1);

  const bool guarded_load =
      guarded && (cfg_.mode == MicroMode::RD || cfg_.mode == MicroMode::RDWR);
  const bool guarded_store =
      guarded && (cfg_.mode == MicroMode::WR || cfg_.mode == MicroMode::RDWR);

  MicroOp& ld = ops_[1];
  ld.kind = guarded_load ? OpKind::GuardedLoad : OpKind::Load;
  ld.addr = load_addr;
  ld.dst = r_load;

  MicroOp& add = ops_[2];
  add.src1 = r_load;
  add.dst = r_sum;

  MicroOp& st = ops_[3];
  st.kind = guarded_store ? OpKind::GuardedStore : OpKind::Store;
  st.addr = store_addr;
  st.src1 = r_sum;

  first_ = 1;
  len_ = 3;
  if (guarded_store) {
    // The double store: a conventional store with the same source operands
    // that always updates the copy in the SM (§3.1).
    MicroOp& st2 = ops_[first_ + len_++] = st;
    st2.kind = OpKind::Store;
    st2.pc = cfg_.code_base + 12;
  }

  MicroOp& br = ops_[first_ + len_++] = branch_;
  br.taken = (i + 1) < cfg_.iterations;
}

std::span<const MicroOp> Microbenchmark::next_block() {
  const std::span<const MicroOp> ops(ops_);
  if (held_ != 0) return ops.subspan(first_, len_).last(std::exchange(held_, 0));
  if (!emitted_config_) {
    emitted_config_ = true;
    first_ = 0;
    len_ = 1;
  } else if (iter_ < cfg_.iterations) {
    emit_iteration(iter_++);
  } else {
    len_ = 0;
  }
  return ops.subspan(first_, len_);
}

}  // namespace hm
