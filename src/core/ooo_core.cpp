#include "core/ooo_core.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "common/bitops.hpp"
#include "core/replay.hpp"

namespace hm {

namespace {
/// Sentinel for step_impl's uop bound: "no uop limit".
constexpr std::uint64_t kNoUop = ~0ull;
}  // namespace

OooCore::OooCore(CoreConfig cfg, MemoryHierarchy& hierarchy, LocalMemory* lm,
                 CoherenceDirectory* directory, DmaController* dmac, ByteStore* image)
    : cfg_(cfg), hierarchy_(hierarchy), lm_(lm), directory_(directory), dmac_(dmac),
      image_(image), bpred_(cfg.bpred) {
  if (cfg_.fetch_width == 0 || cfg_.retire_width == 0 || cfg_.rob_size == 0)
    throw std::invalid_argument("core widths/ROB must be non-zero");
}

RunResult OooCore::run(InstrStream& program, Cycle max_cycles) {
  begin_run(program, max_cycles);
  step_until(kNoCycle);
  return finish_run();
}

void OooCore::begin_run(InstrStream& program, Cycle max_cycles) {
  run_state_ = std::make_unique<RunState>(cfg_);
  run_state_->program = &program;
  run_state_->max_cycles = max_cycles;
}

Cycle OooCore::front() const {
  if (run_state_ == nullptr) throw std::logic_error("front() without begin_run");
  return run_state_->dispatch_cycle;
}

RunResult OooCore::finish_run() {
  if (run_state_ == nullptr) throw std::logic_error("finish_run without begin_run");
  RunResult res = std::move(run_state_->res);
  res.cycles = run_state_->last_retire;
  run_state_.reset();
  return res;
}

bool OooCore::step_until(Cycle limit) {
  if (run_state_ == nullptr) throw std::logic_error("step_until without begin_run");
  return step_impl(limit, kNoUop);
}

bool OooCore::step_uops(std::uint64_t max_uops) {
  if (run_state_ == nullptr) throw std::logic_error("step_uops without begin_run");
  if (run_state_->exhausted) return true;
  return step_impl(kNoCycle, run_state_->uop_index + max_uops);
}

std::uint64_t OooCore::uops_done() const {
  if (run_state_ == nullptr) throw std::logic_error("uops_done without begin_run");
  return run_state_->uop_index;
}

bool OooCore::step_impl(Cycle limit, std::uint64_t stop_uop) {
  RunState& st = *run_state_;
  if (st.exhausted) return true;
  // The cycle budget is one more suspension limit: the loop stops at the
  // first uop boundary where the dispatch front has passed it.
  if (st.max_cycles != 0) limit = std::min(limit, st.max_cycles);

  RunResult& res = st.res;


  // The persistent pipeline state.  The scoreboard/pools/buffers are used
  // through references; the pacing scalars are hoisted into locals for the
  // slice (the heap-held struct would otherwise force reloads around every
  // opaque call) and written back at the suspension point.
  std::array<Cycle, kNumRegs>& reg_ready = st.reg_ready;
  IssuePool& int_units = st.int_units;
  IssuePool& fp_units = st.fp_units;
  IssuePool& lsu_units = st.lsu_units;
  // ROB occupancy: retirement cycle of the uop that freed slot (i % size).
  std::vector<Cycle>& rob_free = st.rob_free;
  std::vector<StoreBufferEntry>& store_buffer = st.store_buffer;

  Cycle dispatch_cycle = st.dispatch_cycle;  // current fetch group's cycle
  unsigned dispatched_in_cycle = st.dispatched_in_cycle;
  Cycle last_retire = st.last_retire;
  unsigned retired_in_cycle = st.retired_in_cycle;
  Cycle retire_pace_cycle = st.retire_pace_cycle;
  std::uint64_t uop_index = st.uop_index;
  bool exhausted = false;

  MicroOp op;
  while (true) {
    if (dispatch_cycle > limit || uop_index >= stop_uop) break;  // suspend between micro-ops
    if (!st.program->next(op)) {
      exhausted = true;
      break;
    }
    if (op.kind == OpKind::PhaseMark) continue;  // metadata only

    // ---- Dispatch: fetch-width pacing + ROB occupancy ------------------
    if (dispatched_in_cycle >= cfg_.fetch_width) {
      ++dispatch_cycle;
      dispatched_in_cycle = 0;
    }
    if (dispatched_in_cycle == 0) ++stats_.fetch_groups;
    const Cycle rob_ready = rob_free[uop_index % cfg_.rob_size];
    if (rob_ready > dispatch_cycle) {
      stats_.rob_stall_cycles += rob_ready - dispatch_cycle;
      dispatch_cycle = rob_ready;
      dispatched_in_cycle = 0;
    }
    const Cycle dispatched = dispatch_cycle;
    ++dispatched_in_cycle;

    // ---- Operand readiness --------------------------------------------
    Cycle ready = dispatched;
    if (op.src1 != 0) { ready = std::max(ready, reg_ready[op.src1]); ++stats_.regfile_reads; }
    if (op.src2 != 0) { ready = std::max(ready, reg_ready[op.src2]); ++stats_.regfile_reads; }

    Cycle done = ready;

    switch (op.kind) {
      case OpKind::IntAlu: {
        ++stats_.int_ops;
        done = int_units.book(ready) + cfg_.int_latency;
        break;
      }
      case OpKind::FpAlu: {
        ++stats_.fp_ops;
        done = fp_units.book(ready) + cfg_.fp_latency;
        break;
      }
      case OpKind::Branch: {
        ++stats_.branches;
        const Cycle issue = int_units.book(ready);
        done = issue + cfg_.int_latency;
        bpred_.predict(op.pc);
        const bool correct = bpred_.update(op.pc, op.taken, op.target);
        if (!correct) {
          // Flush: the frontend redirects after resolution; everything
          // fetched in between is wasted work (energy) and the next uop
          // dispatches after the penalty.
          const Cycle redirect = done + cfg_.mispredict_penalty;
          stats_.flushed_slots += cfg_.fetch_width * cfg_.mispredict_penalty;
          if (redirect > dispatch_cycle) {
            dispatch_cycle = redirect;
            dispatched_in_cycle = 0;
          }
        }
        break;
      }
      case OpKind::Load:
      case OpKind::Store:
      case OpKind::GuardedLoad:
      case OpKind::GuardedStore: {
        const bool is_load = op.is_load();
        Addr final_addr = op.addr;
        bool to_lm = lm_ != nullptr && lm_->contains(op.addr);
        bool oracle_diverted = false;

        if (!op.is_guarded() && cfg_.oracle_divert && directory_ != nullptr && !to_lm) {
          // Oracle baseline (§4.2): the incoherent machine's compiler "knows"
          // where the valid copy is; divert with zero cost and zero
          // directory activity.
          if (auto diverted = directory_->peek(op.addr)) {
            final_addr = *diverted;
            to_lm = true;
            oracle_diverted = true;
          }
        }

        // Plain stores first try to collapse into a non-drained older store
        // to the same address: the LSQ folds them into one access with no
        // extra issue slot — this is what makes the double store cost only
        // its dispatch bandwidth (§3.1).  Guarded stores always issue: they
        // must reach the AGU for the directory lookup.
        if (op.kind == OpKind::Store) {
          const Addr sb_addr = align_down(final_addr, 8);
          bool collapsed = false;
          for (auto& e : store_buffer) {
            if (e.addr == sb_addr && e.drains_at > ready) { collapsed = true; break; }
          }
          if (collapsed) {
            ++stats_.collapsed_stores;
            ++stats_.stores;
            ++res.stores;
            done = ready;  // folded into the older store
            if (image_ != nullptr && op.has_value) {
              image_->store64(final_addr, op.value);
              if (oracle_diverted) image_->store64(op.addr, op.value);
            }
            break;
          }
        }

        const Cycle issue = lsu_units.book(ready);
        // Address generation happens in the issue cycle; for guarded ops the
        // directory lookup is folded into the same cycle (§3.2).
        Cycle access_start = issue + 1;

        if (op.is_guarded()) {
          if (directory_ == nullptr)
            throw std::logic_error("guarded instruction on a machine without a directory");
          const auto look = directory_->lookup(op.addr, access_start);
          access_start = look.available_at;  // presence-bit stall, if any
          if (look.hit) {
            final_addr = look.address;
            to_lm = true;
          }
          ++(is_load ? stats_.guarded_loads : stats_.guarded_stores);
          (is_load ? res.guarded_loads : res.guarded_stores)++;
        }

        if (is_load) {
          ++stats_.loads;
          ++res.loads;
          if (to_lm) {
            ++stats_.lm_loads;
            done = lm_->access(access_start, final_addr, AccessType::Read);
            res.load_latency.add(static_cast<double>(done - access_start));
          } else {
            const AccessResult r = hierarchy_.access(access_start, final_addr,
                                                     AccessType::Read, op.pc);
            done = r.complete;
            res.load_latency.add(static_cast<double>(r.latency));
            if (r.served_by != ServedBy::CacheL1) {
              // Scheduler replay of speculatively woken dependents
              // (PTLsim-style): re-executed uops cost energy and dependents
              // observe the extra wakeup/select round trip.
              stats_.replay_uops += cfg_.fetch_width;
              done += cfg_.replay_penalty;
            }
          }
          // The loaded value only matters when the uop asks for a check
          // (functional_stores workloads); gating on check_value keeps the
          // shared image off every plain load.
          if (image_ != nullptr && op.check_value) {
            const std::uint64_t v = image_->load64(final_addr);
            if (v != op.value) {
              ++stats_.value_mismatches;
              ++res.value_mismatches;
            }
          }
        } else {
          ++stats_.stores;
          ++res.stores;
          const Addr sb_addr = align_down(final_addr, 8);
          StoreBufferEntry* slot = &store_buffer[0];
          for (auto& e : store_buffer) {
            if (e.drains_at < slot->drains_at) slot = &e;
          }
          Cycle sb_start = access_start;
          if (slot->drains_at > access_start) {
            // Store buffer full: structural stall.
            stats_.store_buffer_stall_cycles += slot->drains_at - access_start;
            sb_start = slot->drains_at;
          }
          Cycle drain = sb_start + cfg_.store_drain_latency;
          if (to_lm) {
            ++stats_.lm_stores;
            drain = std::max(drain, lm_->access(sb_start, final_addr, AccessType::Write));
          } else {
            // The entry drains when the write actually lands downstream —
            // a saturated L2 back-pressures the store buffer and, through
            // it, dispatch.  This is the write-through cost the hybrid
            // machine avoids for its regular stores.
            const AccessResult wr = hierarchy_.access(sb_start, final_addr,
                                                      AccessType::Write, op.pc);
            drain = std::max(drain, wr.complete);
          }
          slot->addr = sb_addr;
          slot->drains_at = drain;
          // The store retires as soon as it is in the buffer.
          done = sb_start;
          if (image_ != nullptr && op.has_value) {
            image_->store64(final_addr, op.value);
            // An oracle-diverted store also keeps the SM copy current: the
            // baseline machine is incoherent-but-correct by construction.
            if (oracle_diverted) image_->store64(op.addr, op.value);
          }
        }
        break;
      }
      case OpKind::DmaGet: {
        ++stats_.dma_commands;
        if (dmac_ == nullptr) throw std::logic_error("dma op on a machine without a DMAC");
        const Cycle issue = lsu_units.book(ready);  // MMIO store
        dmac_->get(issue + 1, op.dma_sm, op.dma_lm, op.dma_size, op.dma_tag);
        done = issue + 1;
        break;
      }
      case OpKind::DmaPut: {
        ++stats_.dma_commands;
        if (dmac_ == nullptr) throw std::logic_error("dma op on a machine without a DMAC");
        const Cycle issue = lsu_units.book(ready);
        dmac_->put(issue + 1, op.dma_lm, op.dma_sm, op.dma_size, op.dma_tag);
        done = issue + 1;
        break;
      }
      case OpKind::DmaSynch: {
        ++stats_.dma_commands;
        if (dmac_ == nullptr) throw std::logic_error("dma op on a machine without a DMAC");
        const Cycle issue = lsu_units.book(ready);
        done = dmac_->synch(issue + 1, op.synch_mask);
        // dma-synch is serializing: nothing younger dispatches until the
        // transfers it waits for have completed.
        if (done > dispatch_cycle) {
          dispatch_cycle = done;
          dispatched_in_cycle = 0;
        }
        break;
      }
      case OpKind::DirConfig: {
        const Cycle issue = lsu_units.book(ready);  // MMIO store
        done = issue + 1;
        if (directory_ != nullptr && lm_ != nullptr)
          directory_->configure(op.dir_buffer_size, lm_->base(), lm_->size());
        break;
      }
      case OpKind::PhaseMark:
        break;  // unreachable (filtered above)
    }

    if (op.dst != 0) {
      reg_ready[op.dst] = done;
      ++stats_.regfile_writes;
    }

    // ---- In-order retirement ------------------------------------------
    Cycle retire = std::max(done, last_retire);
    if (retire == retire_pace_cycle) {
      if (++retired_in_cycle > cfg_.retire_width) {
        retire += 1;
        retire_pace_cycle = retire;
        retired_in_cycle = 1;
      }
    } else {
      retire_pace_cycle = retire;
      retired_in_cycle = 1;
    }

    res.phase_cycles[static_cast<unsigned>(op.phase)] += retire - last_retire;
    last_retire = retire;
    rob_free[uop_index % cfg_.rob_size] = retire;
    ++uop_index;
    ++res.uops;
  }

  st.dispatch_cycle = dispatch_cycle;
  st.dispatched_in_cycle = dispatched_in_cycle;
  st.last_retire = last_retire;
  st.retired_in_cycle = retired_in_cycle;
  st.retire_pace_cycle = retire_pace_cycle;
  st.uop_index = uop_index;
  st.exhausted = exhausted;
  if (st.max_cycles != 0 && dispatch_cycle > st.max_cycles)
    throw CycleBudgetExceeded("cycle budget exceeded (" + std::to_string(st.max_cycles) +
                              " simulated cycles)");
  return exhausted;
}

void OooCore::replay_functional(const ReplayBatch& b, std::uint64_t first,
                                std::uint64_t count, double cpi) {
  if (run_state_ == nullptr)
    throw std::logic_error("replay_functional without begin_run");
  if (count == 0) return;
  RunState& st = *run_state_;
  RunResult& res = st.res;
  const ReplayIterShape& sh = b.shape;

  // Pipeline-free content advance rate: the measured CPI of the surrounding
  // detailed intervals, sanitized against degenerate samples.
  if (!(cpi > 0.0)) cpi = 1.0;
  cpi = std::min(cpi, 10000.0);

  std::uint64_t n_loads = 0, n_stores = 0, n_gld = 0, n_gst = 0;
  std::uint64_t n_lm_loads = 0, n_lm_stores = 0, n_collapsed = 0;

  // Mirror of step_impl's memory case for one descriptor, at functional
  // time @p fnow.  Same content decisions — oracle/guard diversion, plain-
  // store collapse against the REAL store buffer, store-buffer recycling,
  // drain windows — with functional_access in place of the timed access.
  // A store that must recycle a slot whose drain lies in the future is the
  // back-pressure case detailed dispatch stalls on; the recycled slot's
  // drain cycle is surfaced through `sb_blocked` so the iteration loop can
  // stall the functional clock the same way (measured CPI comes from
  // windows with an un-backlogged buffer, so this cost is otherwise lost).
  Cycle sb_blocked = 0;
  const auto exec_store = [&](Cycle fnow, Addr faddr, Addr oaddr, Addr pc,
                              bool lm_target, bool diverted, bool allow_collapse,
                              bool has_value, std::uint64_t value) {
    ++n_stores;
    const Addr sb_addr = align_down(faddr, 8);
    // One pass finds both the collapse partner and the min-drain victim;
    // the victim work is wasted only on a collapse hit.
    StoreBufferEntry* slot = &st.store_buffer[0];
    for (auto& e : st.store_buffer) {
      if (allow_collapse && e.addr == sb_addr && e.drains_at > fnow) {
        ++n_collapsed;
        if (image_ != nullptr && has_value) {
          image_->store64(faddr, value);
          if (diverted) image_->store64(oaddr, value);
        }
        return;
      }
      if (e.drains_at < slot->drains_at) slot = &e;
    }
    const Cycle sb_start = std::max(fnow, slot->drains_at);
    if (slot->drains_at > fnow) sb_blocked = std::max(sb_blocked, slot->drains_at);
    Cycle drain = sb_start + cfg_.store_drain_latency;
    if (lm_target) {
      ++n_lm_stores;
      drain = std::max(drain, lm_->access(sb_start, faddr, AccessType::Write));
    } else {
      drain = std::max(drain, hierarchy_.functional_access(sb_start, faddr,
                                                           AccessType::Write, pc));
    }
    slot->addr = sb_addr;
    slot->drains_at = drain;
    if (image_ != nullptr && has_value) {
      image_->store64(faddr, value);
      if (diverted) image_->store64(oaddr, value);
    }
  };

  const Cycle start = st.dispatch_cycle;
  double fnow_d = static_cast<double>(start);
  const std::size_t S = b.slots.size();

  for (std::uint64_t g = first; g < first + count; ++g) {
    const Cycle fnow = static_cast<Cycle>(fnow_d);
    const Addr* addrs = b.iter_addrs(g);
    for (std::size_t s = 0; s < S; ++s) {
      const ReplaySlot& sl = b.slots[s];
      const Addr orig = addrs[s];
      Addr final_addr = orig;
      bool to_lm = lm_ != nullptr && lm_->contains(orig);
      bool oracle_diverted = false;
      const bool guarded =
          sl.kind == OpKind::GuardedLoad || sl.kind == OpKind::GuardedStore;
      const bool is_load = sl.kind == OpKind::Load || sl.kind == OpKind::GuardedLoad;

      if (!guarded && cfg_.oracle_divert && directory_ != nullptr && !to_lm) {
        if (auto diverted = directory_->peek(orig)) {
          final_addr = *diverted;
          to_lm = true;
          oracle_diverted = true;
        }
      }
      if (guarded) {
        if (directory_ == nullptr)
          throw std::logic_error("guarded instruction on a machine without a directory");
        const auto look = directory_->lookup(orig, fnow);
        if (look.hit) {
          final_addr = look.address;
          to_lm = true;
        }
        (is_load ? n_gld : n_gst)++;
      }

      if (is_load) {
        ++n_loads;
        if (to_lm) {
          ++n_lm_loads;
          const Cycle done = lm_->access(fnow, final_addr, AccessType::Read);
          res.load_latency.add(static_cast<double>(done - fnow));
        } else {
          const Cycle done =
              hierarchy_.functional_access(fnow, final_addr, AccessType::Read, sl.pc);
          res.load_latency.add(static_cast<double>(done - fnow));
        }
      } else {
        const std::uint64_t value =
            sl.has_value ? replay_store_value(sl.ref, g) : 0;
        exec_store(fnow, final_addr, orig, sl.pc, to_lm, oracle_diverted,
                   /*allow_collapse=*/sl.kind == OpKind::Store, sl.has_value, value);
        if (sl.double_store) {
          // The conventional twin of the double store: plain store to the SM
          // address — collapsible iff the guarded store missed the directory
          // and so occupied the same store-buffer address (§3.1).
          exec_store(fnow, orig, orig, sl.extra_pc,
                     lm_ != nullptr && lm_->contains(orig), /*diverted=*/false,
                     /*allow_collapse=*/true, sl.has_value, value);
        }
      }
    }
    // Store-buffer back-pressure: detailed dispatch cannot proceed past a
    // full buffer, so neither may the functional clock.  Stall to the
    // recycled slot's drain before charging the iteration's CPI advance.
    if (sb_blocked > static_cast<Cycle>(fnow_d)) {
      stats_.store_buffer_stall_cycles += sb_blocked - static_cast<Cycle>(fnow_d);
      fnow_d = static_cast<double>(sb_blocked);
    }
    sb_blocked = 0;
    fnow_d += cpi * static_cast<double>(sh.uops + (b.db_code[g] != 0 ? 1u : 0u));
  }

  // Credit the aggregate op mix (content-exact; derived from the batch
  // shape) so activity-based energy accounting stays consistent.
  const std::uint64_t uops = b.uops_in_range(first, count);
  const std::uint64_t db_count = b.db_before[first + count] - b.db_before[first];
  const bool computed_nz = (sh.int_ops + sh.fp_ops) > 0 || sh.loads > 0;
  stats_.int_ops += count * sh.int_ops;
  stats_.fp_ops += count * sh.fp_ops;
  stats_.branches += count * sh.branches + db_count;
  stats_.loads += n_loads;
  stats_.stores += n_stores;
  stats_.guarded_loads += n_gld;
  stats_.guarded_stores += n_gst;
  stats_.collapsed_stores += n_collapsed;
  stats_.lm_loads += n_lm_loads;
  stats_.lm_stores += n_lm_stores;
  stats_.regfile_reads += count * sh.reg_reads + (computed_nz ? db_count : 0);
  stats_.regfile_writes += count * sh.reg_writes;
  stats_.fetch_groups += (uops + cfg_.fetch_width - 1) / cfg_.fetch_width;
  res.uops += uops;
  res.loads += n_loads;
  res.stores += n_stores;
  res.guarded_loads += n_gld;
  res.guarded_stores += n_gst;

  // Absorb the region into the pipeline clock: detailed execution resumes
  // exactly where the analytic clock left off, with clean pacing state.
  const Cycle end = std::max(start, static_cast<Cycle>(fnow_d));
  const Cycle prev_retire = st.last_retire;
  st.dispatch_cycle = std::max(st.dispatch_cycle, end);
  st.dispatched_in_cycle = 0;
  st.last_retire = std::max(st.last_retire, end);
  st.retire_pace_cycle = st.last_retire;
  st.retired_in_cycle = 0;
  st.uop_index += uops;
  res.phase_cycles[static_cast<unsigned>(ExecPhase::Work)] +=
      st.last_retire - prev_retire;
}

}  // namespace hm
