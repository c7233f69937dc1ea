#include "memory/hierarchy.hpp"

namespace hm {

// Fast-path invariants (enforced by tests/cache_test.cpp and
// tests/alloc_test.cpp):
//
//  * Each cache level is scanned at most once per residency question: every
//    peek()/access() returns the would-be victim alongside the hit way, and
//    the matching fill_at()/set_dirty_at() reuses that slot instead of
//    re-walking the set.  A LookupResult may only be replayed into fill_at
//    while no intervening operation mutated that same cache — the code below
//    is ordered so lower-level traffic (L3, memory) happens between an upper
//    level's lookup and its fill, never another mutation of the same level.
//  * The steady-state access path performs no per-access heap allocations:
//    prefetcher candidate lists are SmallVec, MSHR/WCB structures are
//    fixed-size, and all statistics counters are plain struct fields.  The only
//    allocation source left is the full-run occupancy bitmaps growing a
//    block slab as simulated time advances — amortized one slab per ~65k
//    busy port cycles (tests/alloc_test.cpp bounds it against elapsed
//    time).

MemoryHierarchy::MemoryHierarchy(HierarchyConfig cfg)
    : MemoryHierarchy(std::move(cfg), static_cast<Uncore*>(nullptr)) {}

MemoryHierarchy::MemoryHierarchy(HierarchyConfig cfg, Uncore& uncore)
    : MemoryHierarchy(std::move(cfg), &uncore) {}

MemoryHierarchy::MemoryHierarchy(HierarchyConfig cfg, Uncore* shared)
    : cfg_(std::move(cfg)),
      owned_uncore_(shared != nullptr ? nullptr : std::make_unique<Uncore>(cfg_)),
      uncore_(shared != nullptr ? *shared : *owned_uncore_),
      l1d_(cfg_.l1d),
      mshr_(cfg_.mshr),
      pf_l1_(cfg_.pf_l1, cfg_.l1d.line_size),
      l2_(uncore_.l2()),
      l3_(uncore_.l3()),
      mem_(uncore_.memory()),
      pf_l2_(uncore_.pf_l2()),
      pf_l3_(uncore_.pf_l3()) {
  port_id_ = uncore_.register_l1(&l1d_);
}

void MemoryHierarchy::commit(const Scratch& sc) {
  // Unconditional adds: the fields sit on two cache lines and a zero add is
  // cheaper than a mispredictable branch per counter.
  stats_.loads += sc.loads;
  stats_.stores += sc.stores;
  stats_.writethrough_traffic += sc.wt_traffic;
  stats_.bus_l1_l2 += sc.bus_l1_l2;
  stats_.bus_l2_l3 += sc.bus_l2_l3;
  stats_.bus_l3_mem += sc.bus_l3_mem;
  stats_.l2_queue_cycles += sc.l2_queue;
  stats_.l3_queue_cycles += sc.l3_queue;
}

Cycle MemoryHierarchy::book_l2(Cycle when, Addr addr, Scratch& sc) {
  // One request flit travels to the line's home node (booking every link
  // on the deterministic route), then books that slice's port.  Transit
  // is latency, not queueing — only the push-back at the port lands in
  // l2_queue.
  const unsigned home = uncore_.home_of(addr);
  const Cycle arrive = uncore_.traverse(port_id_, home, when, 1);
  const Cycle start = uncore_.l2_ports().book(home, arrive);
  if (start > arrive) sc.l2_queue += start - arrive;
  return start;
}

Cycle MemoryHierarchy::book_l3(Cycle when, Addr addr, Scratch& sc) {
  // The L3 slice shares the L2 slice's home node (both are interleaved by
  // the same function), so an L2-miss -> L3 lookup pays no extra hops —
  // just this slice's L3 port.
  const Cycle start = uncore_.l3_ports().book(uncore_.home_of(addr), when);
  if (start > when) sc.l3_queue += start - when;
  return start;
}

void MemoryHierarchy::handle_l3_victim(Cycle now, const EvictedLine& v, Scratch& sc) {
  if (!v.dirty) return;
  sc.bus_l3_mem++;
  mem_access(now, v.line_addr, AccessType::Write);
}

void MemoryHierarchy::handle_l2_victim(Cycle now, const EvictedLine& v, Scratch& sc) {
  if (!v.dirty) return;
  sc.bus_l2_l3++;
  const auto l3r = l3_.access(v.line_addr, AccessType::Write);
  if (l3r.hit) {
    return;  // merged into resident L3 line, now dirty
  }
  if (auto l3v = l3_.fill_at(l3r, v.line_addr)) handle_l3_victim(now, *l3v, sc);
  l3_.set_dirty_at(l3r);
}

void MemoryHierarchy::fetch_below_l2(Cycle now, Addr line,
                                     const SetAssocCache::LookupResult& l2_miss, Scratch& sc) {
  // Bring a line into L2 from L3 or memory.  The fill is off the critical
  // path latency-wise but consumes L2 bandwidth (prefetch pollution cost).
  // Under a NoC the line lands at its home slice — no response leg; the
  // consumer's later demand miss pays the network crossing.
  book_l2(now, line, sc);
  sc.bus_l2_l3++;
  const auto l3r = l3_.access(line, AccessType::Read);
  if (!l3r.hit) {
    sc.bus_l3_mem++;
    mem_access(now, line, AccessType::Read);
    if (auto v = l3_.fill_at(l3r, line)) handle_l3_victim(now, *v, sc);
  }
  if (auto v = l2_.fill_at(l2_miss, line, /*from_prefetch=*/true)) handle_l2_victim(now, *v, sc);
}

void MemoryHierarchy::run_prefetches_l1(Cycle now, Addr pc, Addr addr, Scratch& sc) {
  for (const Addr line : pf_l1_.train(pc, addr)) {
    const auto p1 = l1d_.peek(line);
    if (p1.hit) continue;
    // The prefetched line is fetched through the hierarchy like any other
    // fill: it consumes bus bandwidth and DRAM accesses, which is exactly
    // the pollution cost the paper's §4.3 analysis charges to prefetching.
    sc.bus_l1_l2++;
    const auto p2 = l2_.peek(line);
    if (!p2.hit) fetch_below_l2(now, line, p2, sc);
    // An L1 prefetch pulls the line across the NoC to this tile: book the
    // response leg (identity when flat).
    noc_response(now, line);
    if (auto v = l1d_.fill_at(p1, line, /*from_prefetch=*/true); v && v->dirty) {
      // L1 is write-through: victims are never dirty.  Kept for generality
      // when the cache-based machine is configured write-back.
      handle_l2_victim(now, *v, sc);
    }
    note_l1_fill(line);
  }
}

void MemoryHierarchy::run_prefetches_l2(Cycle now, Addr pc, Addr addr, Scratch& sc) {
  for (const Addr line : pf_l2_.train(pc, addr)) {
    const auto p = l2_.peek(line);
    if (p.hit) continue;
    fetch_below_l2(now, line, p, sc);
  }
}

void MemoryHierarchy::run_prefetches_l3(Cycle now, Addr pc, Addr addr, Scratch& sc) {
  for (const Addr line : pf_l3_.train(pc, addr)) {
    const auto p = l3_.peek(line);
    if (p.hit) continue;
    sc.bus_l3_mem++;
    mem_access(now, line, AccessType::Read);
    if (auto v = l3_.fill_at(p, line, /*from_prefetch=*/true)) handle_l3_victim(now, *v, sc);
  }
}

Cycle MemoryHierarchy::fill_from_below(Cycle now, Addr addr, Addr pc, ServedBy& served,
                                       Scratch& sc, SetAssocCache::LookupResult* l2_loc) {
  // L1 missed; look in L2 (booking an L2 port slot — under a NoC this
  // first traverses to the line's home slice).
  const Cycle l2_start = book_l2(now, addr, sc);
  Cycle lat = (l2_start - now) + cfg_.l2.latency;
  sc.bus_l1_l2++;
  run_prefetches_l2(now, pc, addr, sc);  // L2 prefetcher trains on L1 misses
  const auto l2r = l2_.access(addr, AccessType::Read);
  if (l2r.hit) {
    if (l2_loc) *l2_loc = l2r;
    served = ServedBy::CacheL2;
    return noc_response(now + lat, addr) - now;
  }

  // L2 missed; look in L3 (booking an L3 port slot).  l2r's victim slot
  // stays valid through the L3/memory traffic below: nothing touches L2
  // until the fill_at on the way back up.
  const Cycle l3_start = book_l3(now + lat, addr, sc);
  lat = (l3_start - now) + cfg_.l3.latency;
  sc.bus_l2_l3++;
  run_prefetches_l3(now, pc, addr, sc);
  const auto l3r = l3_.access(addr, AccessType::Read);
  if (!l3r.hit) {
    // L3 missed: fetch the line from main memory (the home slice's DRAM
    // channel under a NoC).
    sc.bus_l3_mem++;
    const Cycle mem_done = mem_access(now + lat, addr, AccessType::Read);
    lat = (mem_done - now);
    if (auto v = l3_.fill_at(l3r, addr)) handle_l3_victim(now, *v, sc);
    served = ServedBy::MainMemory;
  } else {
    served = ServedBy::CacheL3;
  }

  // Allocate the line in L2 on the way back up.
  if (auto v = l2_.fill_at(l2r, addr)) handle_l2_victim(now, *v, sc);
  if (l2_loc) *l2_loc = l2r;
  // NoC response leg: the line travels home -> requesting tile (identity
  // when flat: returns now + lat unchanged).
  return noc_response(now + lat, addr) - now;
}

Cycle MemoryHierarchy::wt_store(Cycle now, Addr addr, Addr pc, Scratch& sc) {
  const Addr line = l1d_.line_base(addr);
  WcbEntry* slot = &wcb_[0];
  for (WcbEntry& e : wcb_) {
    if (e.line == line && e.drain > now) {
      // Merged into the pending write of the same line: no extra L2 slot.
      return e.drain;
    }
    if (e.drain < slot->drain) slot = &e;
  }
  // New combining entry: the write consumes an L2 slot (allocating the line
  // in L2 if absent, through the regular miss path).
  sc.wt_traffic++;
  sc.bus_l1_l2++;
  Cycle drain;
  if (l2_.access(addr, AccessType::Write).hit) {
    drain = book_l2(now, addr, sc) + cfg_.l2.latency;
  } else {
    ServedBy served = ServedBy::CacheL2;
    SetAssocCache::LookupResult l2_loc;
    drain = now + fill_from_below(now, addr, pc, served, sc, &l2_loc);
    l2_.set_dirty_at(l2_loc);
  }
  slot->line = line;
  slot->drain = drain;
  return drain;
}

template <bool kTimed>
AccessResult MemoryHierarchy::access_impl(Cycle now, Addr addr, AccessType type, Addr pc) {
  Scratch sc;
  if (type == AccessType::Read) {
    sc.loads++;
  } else {
    sc.stores++;
  }
  run_prefetches_l1(now, pc, addr, sc);

  AccessResult r;
  const Cycle l1_lat = cfg_.l1d.latency;
  const auto l1r = l1d_.access(addr, type);

  if (l1r.hit) {
    r.served_by = ServedBy::CacheL1;
    r.latency = l1_lat;
    r.complete = now + l1_lat;
    if (type == AccessType::Write && cfg_.l1d.write_policy == WritePolicy::WriteThrough) {
      // Write-through traffic goes through the write-combining buffer; the
      // store-buffer entry drains when the (possibly merged) write lands.
      r.complete = wt_store(now, addr, pc, sc);
    }
  } else if (type == AccessType::Write &&
             cfg_.l1d.write_policy == WritePolicy::WriteThrough) {
    // No-write-allocate: a store miss does not bring the line into L1 (the
    // usual pairing with write-through — random stores must not evict the
    // reused read data).  The store goes to L2 via the combining buffer.
    r.served_by = ServedBy::CacheL2;
    r.latency = l1_lat;  // the issuing store observes only the L1 latency...
    r.complete = wt_store(now + l1_lat, addr, pc, sc);  // ...but drains later
  } else {
    // L1 load miss (or write-back write miss): go below and allocate the
    // line in L1 at the victim slot the single-pass lookup already
    // selected.  The timed path issues the miss after the L1 lookup and
    // merges it through the MSHRs (merging + structural hazards); the
    // functional path books it at the issue cycle and skips the MSHRs.
    ServedBy served = ServedBy::CacheL2;
    const Cycle miss_start = kTimed ? now + l1_lat : now;
    const Cycle below = fill_from_below(miss_start, addr, pc, served, sc);
    const Cycle ready = kTimed ? mshr_.on_miss(l1d_.line_base(addr), miss_start, below)
                               : now + l1_lat + below;

    if (auto v = l1d_.fill_at(l1r, addr); v && v->dirty) handle_l2_victim(now, *v, sc);
    note_l1_fill(addr);
    if (type == AccessType::Write) l1d_.set_dirty_at(l1r);

    r.served_by = served;
    r.complete = ready;
    r.latency = ready - now;
  }
  commit(sc);
  return r;
}

AccessResult MemoryHierarchy::access(Cycle now, Addr addr, AccessType type, Addr pc) {
  return access_impl<true>(now, addr, type, pc);
}

Cycle MemoryHierarchy::functional_access(Cycle now, Addr addr, AccessType type, Addr pc) {
  return access_impl<false>(now, addr, type, pc).complete;
}

Cycle MemoryHierarchy::dma_read_line(Cycle now, Addr line_addr) {
  ++stats_.bus_dma;
  // Coherent dma-get: snoop top-down; copy from the first level that holds
  // the line (the SM is internally coherent so any resident copy is valid),
  // otherwise the uncore serves it from L2/L3/memory.
  if (l1d_.probe(line_addr)) return now + cfg_.l1d.latency;
  return uncore_.dma_get_line(now, line_addr, port_id_);
}

Cycle MemoryHierarchy::dma_write_line(Cycle now, Addr line_addr) {
  ++stats_.bus_dma;
  // Coherent dma-put: the uncore writes the line to main memory and
  // invalidates it in the shared levels and in every tile's L1 that may
  // hold it (§3.4.2: the DMA data is the valid version everywhere).  The
  // port id is the request's NoC source node.
  return uncore_.dma_put_line(now, line_addr, port_id_);
}

void MemoryHierarchy::reset() {
  for (WcbEntry& e : wcb_) e = WcbEntry{};
  l1d_.flush_all();
  mshr_.reset();
  pf_l1_.reset();
  // A standalone hierarchy owns its uncore and resets the whole machine —
  // the historical single-object contract tests and benches rely on.  Over
  // a shared uncore only the private side resets here; the machine owner
  // (System) resets the uncore exactly once per run.
  if (owned_uncore_) owned_uncore_->reset();
}

void MemoryHierarchy::reset_stats() {
  stats_ = Stats{};
  l1d_.reset_stats();
  mshr_.reset_stats();
  pf_l1_.reset_stats();
  if (owned_uncore_) owned_uncore_->reset_stats();
}

}  // namespace hm
