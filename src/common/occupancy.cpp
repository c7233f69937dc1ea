#include "common/occupancy.hpp"

#include "common/log.hpp"

namespace hm {

void note_booking(const std::string& name, bool& warned, const Booking& b, Cycle when,
                  Cycle delay, Cycle gap) {
  if (delay != 0 && obs::tracing_active()) obs::sim_resource_delay(name.c_str(), when, delay);
  if (!b.overflow || warned) return;
  warned = true;
  // One-shot: a grant beyond the tracked horizon is the only case where
  // contention is understated (the request is served as if the resource
  // were free).  The paper-table and scaling flows assert the overflow
  // counters are zero, so this firing means a run outgrew max_buckets() —
  // raise the horizon rather than trusting the affected numbers.
  HM_WARN("occupancy: resource '" << name << "' (gap " << gap
                                  << ") booked beyond the tracked horizon of "
                                  << OccupancyTimeline::max_buckets()
                                  << " buckets; contention is understated and "
                                     "counted in its 'overflows' statistic");
}

namespace {

/// Bit i set iff bits i .. i+len-1 of @p free are all set (1 <= len <= 64):
/// log2(len) shift-ANDs.  Runs reaching past bit 63 are not reported — the
/// caller carries those across words.
std::uint64_t runs_of(std::uint64_t free, unsigned len) {
  unsigned have = 1;
  while (have * 2 <= len) {
    free &= free >> have;
    have *= 2;
  }
  if (have < len) free &= free >> (len - have);
  return free;
}

}  // namespace

Booking SpanLanes::book_scan(unsigned lane, Cycle when, Cycle len) {
  if (len == 0) return Booking{when, 0, false};
  // Scan state: every start before cur - run is ruled out; the `run`
  // cycles [cur - run, cur) are free; `busy` counts the booked cycles in
  // [when, cur - run).  The horizon check rules out the rest at once: the
  // earliest possible start is cur - run, and cycles past the horizon are
  // never booked, so nothing before the horizon can fit once it fails.
  std::uint64_t cur = when;
  std::uint64_t run = 0;
  std::uint64_t busy = 0;
  std::uint64_t start;
  for (;;) {
    if (cur - run + len > max_buckets()) return Booking{when, 0, true};
    const std::uint64_t bi = cur >> kBlockShift;
    const std::uint64_t* blk = peek_block(bi);
    if (blk == nullptr) {  // no booking in this block: free to its end
      const std::uint64_t free = ((bi + 1) << kBlockShift) - cur;
      if (run + free >= len) {
        start = cur - run;
        break;
      }
      run += free;
      cur += free;
      continue;
    }
    const unsigned lo = static_cast<unsigned>(cur & 63);
    const std::uint64_t base = cur - lo;
    const std::uint64_t bits = blk[word_index(cur, lane)] & ~low_mask(lo);
    if (bits == 0) {  // free from cur to the end of the word
      if (run + (64 - lo) >= len) {
        start = cur - run;
        break;
      }
      run += 64 - lo;
    } else {
      // The carried run extends up to the word's first busy cycle.
      const unsigned first_busy = static_cast<unsigned>(std::countr_zero(bits));
      if (run + (first_busy - lo) >= len) {
        start = cur - run;
        break;
      }
      // A run wholly inside the word, after its first busy cycle.
      if (len < 64) {
        const std::uint64_t fit =
            runs_of(~bits & ~low_mask(lo), static_cast<unsigned>(len));
        if (fit != 0) {
          const unsigned at = static_cast<unsigned>(std::countr_zero(fit));
          busy += static_cast<unsigned>(std::popcount(bits & low_mask(at)));
          start = base + at;
          break;
        }
      }
      busy += static_cast<unsigned>(std::popcount(bits));
      run = static_cast<unsigned>(std::countl_zero(bits));  // free tail
    }
    cur = base + 64;
  }
  fill(lane, start, len);
  return Booking{start, busy, false};
}

void SpanLanes::fill(unsigned lane, std::uint64_t start, Cycle len) {
  std::uint64_t c = start;
  const std::uint64_t end = start + len;
  while (c < end) {
    const std::uint64_t bi = c >> kBlockShift;
    std::uint64_t* blk = bi == cached_bi_ ? cached_ : touch_block(bi);
    const std::uint64_t block_end = std::min(end, (bi + 1) << kBlockShift);
    while (c < block_end) {
      const unsigned lo = static_cast<unsigned>(c & 63);
      const unsigned n = static_cast<unsigned>(std::min<std::uint64_t>(64 - lo, block_end - c));
      blk[word_index(c, lane)] |= low_mask(n) << lo;
      c += n;
    }
  }
}

std::uint64_t* SpanLanes::touch_block(std::uint64_t bi) {
  if (bi >= blocks_.size()) blocks_.resize(bi + 1);
  Block& b = blocks_[bi];
  const std::size_t words = static_cast<std::size_t>(kBlockRows) * lanes_;
  if (b.words == nullptr) b.words = std::make_unique_for_overwrite<std::uint64_t[]>(words);
  if (b.epoch != epoch_) {
    std::fill_n(b.words.get(), words, 0);
    b.epoch = epoch_;
  }
  cached_bi_ = bi;
  cached_ = b.words.get();
  return cached_;
}

}  // namespace hm
