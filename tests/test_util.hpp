// Shared helpers for the test suite.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "core/isa.hpp"

namespace hm::test {

/// InstrStream over a fixed vector of micro-ops.
class VecStream final : public InstrStream {
 public:
  VecStream() = default;
  explicit VecStream(std::vector<MicroOp> ops) : ops_(std::move(ops)) {}

  void push(const MicroOp& op) { ops_.push_back(op); }

  /// The ops not yet consumed, as one block.
  std::span<const MicroOp> next_block() override {
    const std::size_t from = held_ != 0 ? ops_.size() - std::exchange(held_, 0) : pos_;
    pos_ = ops_.size();
    return std::span<const MicroOp>(ops_).subspan(from);
  }
  void reset() override {
    pos_ = 0;
    held_ = 0;
  }

  // Builder helpers.
  static MicroOp int_op(std::uint8_t dst = 0, std::uint8_t src1 = 0, std::uint8_t src2 = 0) {
    MicroOp op;
    op.kind = OpKind::IntAlu;
    op.dst = dst;
    op.src1 = src1;
    op.src2 = src2;
    return op;
  }
  static MicroOp fp_op(std::uint8_t dst = 0, std::uint8_t src1 = 0) {
    MicroOp op;
    op.kind = OpKind::FpAlu;
    op.dst = dst;
    op.src1 = src1;
    return op;
  }
  static MicroOp load(Addr addr, std::uint8_t dst = 1, Addr pc = 0x400) {
    MicroOp op;
    op.kind = OpKind::Load;
    op.addr = addr;
    op.dst = dst;
    op.pc = pc;
    return op;
  }
  static MicroOp store(Addr addr, std::uint8_t src = 0, Addr pc = 0x404) {
    MicroOp op;
    op.kind = OpKind::Store;
    op.addr = addr;
    op.src1 = src;
    op.pc = pc;
    return op;
  }
  static MicroOp gload(Addr addr, std::uint8_t dst = 1, Addr pc = 0x408) {
    MicroOp op = load(addr, dst, pc);
    op.kind = OpKind::GuardedLoad;
    return op;
  }
  static MicroOp gstore(Addr addr, std::uint8_t src = 0, Addr pc = 0x40C) {
    MicroOp op = store(addr, src, pc);
    op.kind = OpKind::GuardedStore;
    return op;
  }
  static MicroOp branch(bool taken, Addr pc = 0x500, Addr target = 0x400) {
    MicroOp op;
    op.kind = OpKind::Branch;
    op.taken = taken;
    op.pc = pc;
    op.target = target;
    return op;
  }
  static MicroOp dma_get(Addr sm, Addr lm, Bytes size, std::uint8_t tag) {
    MicroOp op;
    op.kind = OpKind::DmaGet;
    op.phase = ExecPhase::Control;
    op.dma_sm = sm;
    op.dma_lm = lm;
    op.dma_size = size;
    op.dma_tag = tag;
    return op;
  }
  static MicroOp dma_put(Addr lm, Addr sm, Bytes size, std::uint8_t tag) {
    MicroOp op;
    op.kind = OpKind::DmaPut;
    op.phase = ExecPhase::Control;
    op.dma_lm = lm;
    op.dma_sm = sm;
    op.dma_size = size;
    op.dma_tag = tag;
    return op;
  }
  static MicroOp dma_synch(std::uint32_t mask) {
    MicroOp op;
    op.kind = OpKind::DmaSynch;
    op.phase = ExecPhase::Synch;
    op.synch_mask = mask;
    return op;
  }
  static MicroOp dir_config(Bytes buffer_size) {
    MicroOp op;
    op.kind = OpKind::DirConfig;
    op.phase = ExecPhase::Control;
    op.dir_buffer_size = buffer_size;
    return op;
  }

 private:
  std::vector<MicroOp> ops_;
  std::size_t pos_ = 0;
};

}  // namespace hm::test
