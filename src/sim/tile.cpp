#include "sim/tile.hpp"

namespace hm {

Tile::Tile(const MachineConfig& cfg, Uncore& uncore, ByteStore* image)
    : hierarchy_(cfg.hierarchy, uncore),
      // std::in_place: each payload is built where it lives — the DMAC and
      // the core keep pointers to lm_, directory_ and dmac_.
      lm_(cfg.has_lm() ? std::optional<LocalMemory>(std::in_place, cfg.lm) : std::nullopt),
      // The oracle machine keeps a directory object: the DMAC updates it so
      // the core's zero-cost peek can find the valid copy.  Only the
      // HybridCoherent machine pays for it (energy/latency).
      directory_(cfg.has_lm()
                     ? std::optional<CoherenceDirectory>(std::in_place, cfg.directory)
                     : std::nullopt),
      dmac_(cfg.has_lm()
                ? std::optional<DmaController>(std::in_place, cfg.dma, hierarchy_, *lm_,
                                               directory_ ? &*directory_ : nullptr, image)
                : std::nullopt),
      core_(cfg.core, hierarchy_, lm_ ? &*lm_ : nullptr, directory_ ? &*directory_ : nullptr,
            dmac_ ? &*dmac_ : nullptr, image) {}

void Tile::reset() {
  hierarchy_.reset();  // private side only; the System resets the uncore
  if (dmac_) dmac_->reset();
  core_.bpred().reset();

  // Clear every tile-private statistic so each run reports its own
  // activity (the uncore statistics are reset once by the System).
  hierarchy_.reset_stats();
  core_.reset_stats();
  core_.bpred().reset_stats();
  if (lm_) lm_->reset_stats();
  if (directory_) directory_->reset_stats();
  if (dmac_) dmac_->reset_stats();
}

ActivityCounts Tile::collect_private_activity(const RunResult& res) const {
  ActivityCounts a;
  a.l1_activity = hierarchy_.l1d().stats().activity();
  a.lm_accesses = lm_ ? lm_->stats().accesses : 0;
  a.dir_lookups = directory_ ? directory_->stats().lookups : 0;
  a.dir_updates = directory_ ? directory_->stats().updates : 0;

  const OooCore::Stats& cs = core_.stats();
  a.fetch_groups = cs.fetch_groups;
  a.uops = res.uops;
  a.regfile_reads = cs.regfile_reads;
  a.regfile_writes = cs.regfile_writes;
  a.int_ops = cs.int_ops;
  a.fp_ops = cs.fp_ops;
  a.branches = cs.branches;
  a.mem_uops = cs.loads + cs.stores;
  a.replay_uops = cs.replay_uops;
  a.flushed_slots = cs.flushed_slots;

  a.prefetch_trainings = hierarchy_.pf_l1().stats().trainings;
  a.prefetch_issues = hierarchy_.pf_l1().stats().prefetches_issued;
  a.dma_lines = dmac_ ? dmac_->stats().lines : 0;

  // Uncore traffic is attributed to the initiating tile (the counters live
  // in this tile's hierarchy Stats), so bus transfers are per-tile.
  const MemoryHierarchy::Stats& hs = hierarchy_.stats();
  a.bus_transfers = hs.bus_l1_l2 + hs.bus_l2_l3 + hs.bus_l3_mem + hs.bus_dma;

  a.cycles = res.cycles;
  return a;
}

}  // namespace hm
