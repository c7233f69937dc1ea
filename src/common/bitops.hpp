// Small bit-manipulation helpers used by caches, the coherence directory and
// the address-generation unit.  All are constexpr and branch-light; they sit
// on the simulated critical path (called once per simulated memory access).
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>

#include "common/types.hpp"

namespace hm {

/// True iff @p v is a non-zero power of two.
constexpr bool is_pow2(std::uint64_t v) noexcept {
  return v != 0 && (v & (v - 1)) == 0;
}

/// floor(log2(v)).  @p v must be non-zero.
constexpr unsigned log2_floor(std::uint64_t v) noexcept {
  return 63u - static_cast<unsigned>(std::countl_zero(v));
}

/// log2 of a power of two.
constexpr unsigned log2_exact(std::uint64_t v) noexcept {
  assert(is_pow2(v));
  return log2_floor(v);
}

/// Round @p v down to a multiple of the power-of-two @p align.
constexpr std::uint64_t align_down(std::uint64_t v, std::uint64_t align) noexcept {
  assert(is_pow2(align));
  return v & ~(align - 1);
}

/// Round @p v up to a multiple of the power-of-two @p align.
constexpr std::uint64_t align_up(std::uint64_t v, std::uint64_t align) noexcept {
  assert(is_pow2(align));
  return (v + align - 1) & ~(align - 1);
}

/// Mask selecting the low @p bits bits.
constexpr std::uint64_t low_mask(unsigned bits) noexcept {
  return bits >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << bits) - 1);
}

/// Precomputed magic-multiplier division/modulo by a runtime 64-bit constant
/// (Granlund-Montgomery / Hacker's Delight 10-9, the transform compilers
/// apply for compile-time divisors).  The engine divides by values fixed at
/// construction — a non-power-of-two set count (the paper's 170-set L2), a
/// bandwidth-pool gap — on every simulated access; this replaces the ~25-
/// cycle hardware divide with a multiply-high.  Exactness for all 64-bit
/// numerators is covered by tests/fastpath_test.cpp.
class MagicDivisor {
 public:
  MagicDivisor() = default;

  /// @p d must be in [2, 2^63]: d == 1 needs no division at all, and above
  /// 2^63 the magic-number shift can reach the word size.  Engine divisors
  /// (set counts, port gaps) are all far smaller.
  explicit MagicDivisor(std::uint64_t d) : d_(d) {
    assert(d >= 2 && d <= (std::uint64_t{1} << 63));
    // Hacker's Delight figure 10-2 (magicu), widened to 64 bits.
    constexpr std::uint64_t two63 = std::uint64_t{1} << 63;
    const std::uint64_t nc = ~std::uint64_t{0} - (std::uint64_t{0} - d) % d;
    unsigned p = 63;
    std::uint64_t q1 = two63 / nc;
    std::uint64_t r1 = two63 - q1 * nc;
    std::uint64_t q2 = (two63 - 1) / d;
    std::uint64_t r2 = (two63 - 1) - q2 * d;
    std::uint64_t delta = 0;
    do {
      ++p;
      if (r1 >= nc - r1) {
        q1 = 2 * q1 + 1;
        r1 = 2 * r1 - nc;
      } else {
        q1 = 2 * q1;
        r1 = 2 * r1;
      }
      if (r2 + 1 >= d - r2) {
        if (q2 >= two63 - 1) add_ = true;
        q2 = 2 * q2 + 1;
        r2 = 2 * r2 + 1 - d;
      } else {
        if (q2 >= two63) add_ = true;
        q2 = 2 * q2;
        r2 = 2 * r2 + 1;
      }
      delta = d - 1 - r2;
    } while (p < 128 && (q1 < delta || (q1 == delta && r1 == 0)));
    mul_ = q2 + 1;
    shift_ = p - 64;
  }

  std::uint64_t divisor() const noexcept { return d_; }

  std::uint64_t div(std::uint64_t x) const noexcept {
    const auto hi = static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(mul_) * x) >> 64);
    if (add_) {
      const std::uint64_t t = ((x - hi) >> 1) + hi;
      return t >> (shift_ - 1);
    }
    return hi >> shift_;
  }

  std::uint64_t mod(std::uint64_t x) const noexcept { return x - div(x) * d_; }

 private:
  std::uint64_t mul_ = 0;
  std::uint64_t d_ = 1;
  unsigned shift_ = 0;
  bool add_ = false;
};

/// The paper's directory decomposes an address into a base and an offset with
/// two AND masks derived from the LM buffer size (§3.2, Fig. 4).  These two
/// helpers are that hardware.
struct AddressMasks {
  std::uint64_t base_mask = 0;    ///< AND with address -> aligned base
  std::uint64_t offset_mask = 0;  ///< AND with address -> offset inside buffer

  /// Configure for a power-of-two buffer size, mirroring the memory-mapped
  /// register write the compiler performs before entering a transformed loop.
  static constexpr AddressMasks for_buffer_size(Bytes buffer_size) noexcept {
    assert(is_pow2(buffer_size));
    AddressMasks m;
    m.offset_mask = buffer_size - 1;
    m.base_mask = ~m.offset_mask;
    return m;
  }

  constexpr Addr base(Addr a) const noexcept { return a & base_mask; }
  constexpr Addr offset(Addr a) const noexcept { return a & offset_mask; }
  /// OR-combine a (buffer-aligned) base with an offset, as the directory's
  /// address-generation path does on a hit.
  constexpr Addr combine(Addr base_addr, Addr off) const noexcept {
    return base_addr | off;
  }
};

}  // namespace hm
