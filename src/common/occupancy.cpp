#include "common/occupancy.hpp"

#include <stdexcept>

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
                                  << SpanLanes::max_buckets()
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

std::uint64_t SpanLanes::claim_from(unsigned lane, std::uint64_t when) {
  for (std::uint64_t cur = when; cur < max_buckets();) {
    const std::uint64_t bi = cur >> kBlockShift;
    std::uint64_t* blk = peek_block(bi);
    if (blk == nullptr) {  // no booking in this block: cur is free
      set_bits(touch_block(bi), lane, cur, std::uint64_t{1} << (cur & 63));
      return cur;
    }
    std::uint64_t at;
    const std::uint64_t free = ~blk[word_index(cur, lane)] & ~low_mask(cur & 63);
    if (free != 0) {
      at = (cur & ~std::uint64_t{63}) | static_cast<unsigned>(std::countr_zero(free));
    } else {
      // The first row after cur's that is not fully booked, if any.
      const unsigned row = static_cast<unsigned>((cur >> 6) & (kBlockRows - 1));
      const std::uint64_t open = ~blk[summary_index(lane)] & ~low_mask(row + 1);
      if (open == 0) {
        // Booked from cur to the block's end: continue after the run of
        // fully booked blocks that follows it.
        const std::size_t fi = full_index(lane, bi + 1);
        const unsigned full_run =
            fi < full_.size() ? std::countr_one(full_[fi] >> ((bi + 1) & 63)) : 0;
        cur = (bi + 1 + full_run) << kBlockShift;
        continue;
      }
      const std::uint64_t r = static_cast<unsigned>(std::countr_zero(open));
      const std::uint64_t word = blk[r * lanes_ + lane];
      at = (bi << kBlockShift) | (r << 6) | static_cast<unsigned>(std::countr_zero(~word));
    }
    cached_bi_ = bi;
    cached_ = blk;
    set_bits(blk, lane, at, std::uint64_t{1} << (at & 63));
    return at;
  }
  return kOverflow;
}

Booking SpanLanes::book_scan(unsigned lane, std::uint64_t when, std::uint64_t len) {
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

void SpanLanes::fill(unsigned lane, std::uint64_t start, std::uint64_t len) {
  std::uint64_t c = start;
  const std::uint64_t end = start + len;
  while (c < end) {
    const std::uint64_t bi = c >> kBlockShift;
    std::uint64_t* blk = bi == cached_bi_ ? cached_ : touch_block(bi);
    const std::uint64_t block_end = std::min(end, (bi + 1) << kBlockShift);
    while (c < block_end) {
      const unsigned lo = static_cast<unsigned>(c & 63);
      const unsigned n = static_cast<unsigned>(std::min<std::uint64_t>(64 - lo, block_end - c));
      set_bits(blk, lane, c, low_mask(n) << lo);
      c += n;
    }
  }
}

void SpanLanes::mark_block_full(unsigned lane, std::uint64_t bi) {
  const std::size_t fi = full_index(lane, bi);
  if (fi >= full_.size()) full_.resize(full_index(0, bi) + lanes_, 0);
  full_[fi] |= std::uint64_t{1} << (bi & 63);
}

std::uint64_t* SpanLanes::touch_block(std::uint64_t bi) {
  if (bi >= blocks_.size()) blocks_.resize(bi + 1);
  Block& b = blocks_[bi];
  const std::size_t words = static_cast<std::size_t>(kBlockRows + 1) * lanes_;
  if (b.words == nullptr) {
    if (slab_used_ == slab_blocks_) {
      slabs_.push_back(std::make_unique_for_overwrite<std::uint64_t[]>(slab_blocks_ * words));
      slab_used_ = 0;
    }
    b.words = slabs_.back().get() + slab_used_++ * words;
  }
  if (b.epoch != epoch_) {
    std::fill_n(b.words, words, 0);
    b.epoch = epoch_;
  }
  cached_bi_ = bi;
  cached_ = b.words;
  return cached_;
}

SharedLanes::SharedLanes(unsigned lanes, Cycle gap, NameFn name_of)
    : lanes_(lanes),
      gap_(gap),
      stats_(lanes),
      warned_(std::make_unique<bool[]>(lanes)),
      name_of_(std::move(name_of)) {
  if (gap_ == 0) throw std::invalid_argument("occupancy: a resource gap must be at least 1 cycle");
  if (gap_ >= 2) gap_magic_ = MagicDivisor(gap_);
}

}  // namespace hm
