// The per-core hardware directory of the coherence protocol (§3.2, Fig. 4).
//
// The directory keeps one entry per LM buffer.  Each entry maps the starting
// SM address of the chunk currently resident in that buffer (the tag) to the
// buffer's LM base address.  It is:
//
//  * configured with the LM buffer size through a memory-mapped register
//    write — this sets the Base Mask and Offset Mask registers;
//  * updated by the DMA controller on every dma-get (tag <- source SM
//    address, entry index <- destination LM buffer);
//  * looked up during address generation for guarded memory instructions:
//    the incoherent SM address is split with the masks, the base is CAM-
//    matched against the tags, and on a hit the LM buffer base is OR-ed with
//    the offset to form the coherent address.
//
// A Presence bit per entry supports double buffering: it is cleared when the
// dma-get is triggered and set at its completion; a guarded access that hits
// a non-present entry raises an internal exception until the data arrives.
// We model that exception as a stall until the recorded completion cycle.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/bitops.hpp"
#include "common/types.hpp"

namespace hm {

struct DirectoryConfig {
  unsigned entries = 32;   ///< paper: 32 entries to keep access time low
  Cycle lookup_latency = 0;  ///< fits in the AGU cycle (0.348ns @45nm, §3.2)
};

class CoherenceDirectory {
 public:
  struct Stats {
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t updates = 0;
    std::uint64_t presence_stalls = 0;
    std::uint64_t presence_stall_cycles = 0;
  };

  explicit CoherenceDirectory(DirectoryConfig cfg = {});

  /// Program the LM buffer size (power of two).  Clears all entries — a new
  /// transformed loop is starting.  Mirrors the memory-mapped register write
  /// the compiler emits (§3.2 "Configuration").
  void configure(Bytes buffer_size, Addr lm_base, Addr lm_size);

  /// DMA-get issued: map the chunk starting at @p sm_base (must be aligned
  /// to the configured buffer size) to the LM buffer at @p lm_buffer_base.
  /// The Presence bit is cleared; it will be set at @p completes_at.
  /// Any previous mapping of this buffer is overwritten (LM-unmap of the old
  /// chunk, LM-map of the new one).
  void map(Addr sm_base, Addr lm_buffer_base, Cycle completes_at);

  /// Remove the mapping held by the entry of @p lm_buffer_base, if any.
  /// Used by tests and by explicit teardown; a plain dma-get overwrite goes
  /// through map().
  void unmap(Addr lm_buffer_base);

  struct LookupResult {
    bool hit = false;
    Addr address = kNoAddr;      ///< coherent address (diverted or original)
    Cycle available_at = 0;      ///< >= lookup cycle; later if presence stall
    bool presence_stall = false; ///< hit an entry whose dma-get is in flight
  };

  /// Guarded-access lookup at cycle @p now for the (potentially incoherent)
  /// SM address @p sm_addr.
  LookupResult lookup(Addr sm_addr, Cycle now);

  /// Entry index for an LM buffer base address (buffer number).
  unsigned entry_index(Addr lm_buffer_base) const;

  /// Whether an SM base address is currently mapped (test helper; does not
  /// perturb statistics).
  bool is_mapped(Addr sm_base) const;

  /// Oracle lookup: the diverted LM address for @p sm_addr if mapped, with
  /// no statistics, no latency and no presence stall.  Used to model the
  /// paper's baseline "incoherent hybrid memory system with an oracle
  /// compiler" (§4.2), where potentially incoherent accesses are unguarded
  /// yet always served by the memory holding the valid copy.
  std::optional<Addr> peek(Addr sm_addr) const;

  Bytes buffer_size() const { return buffer_size_; }
  unsigned num_entries() const { return cfg_.entries; }
  const AddressMasks& masks() const { return masks_; }

  /// Valid mappings as (sm_tag, lm_base) pairs in entry order — the
  /// clock-free directory state (presence cycles live in the run's time
  /// domain and differ between detailed and sampled runs by construction).
  /// Equivalence-test helper.
  std::vector<std::pair<Addr, Addr>> dump_mappings() const;

  const Stats& stats() const { return stats_; }
  void reset_stats() { stats_ = Stats{}; }

 private:
  struct Entry {
    bool valid = false;
    Addr sm_tag = kNoAddr;       ///< starting SM address of the mapped chunk
    Addr lm_base = kNoAddr;      ///< base address of the LM buffer
    Cycle present_at = 0;        ///< Presence bit set at this cycle
  };

  DirectoryConfig cfg_;
  std::vector<Entry> entries_;
  AddressMasks masks_{};
  Bytes buffer_size_ = 0;
  Addr lm_base_ = 0;
  Bytes lm_size_ = 0;
  Stats stats_;
};

}  // namespace hm
