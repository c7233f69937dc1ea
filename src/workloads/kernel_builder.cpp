#include "workloads/kernel_builder.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/hash.hpp"

namespace hm {

namespace {

// The SM layout convention of every kernel: bases from 256 MB up, advanced
// in 64 KB steps so chunk bases stay aligned to any LM buffer size the
// tiling transformation can pick.
constexpr Addr kArrayRegionBase = 0x1000'0000;
constexpr Bytes kArrayAlign = 64 * 1024;

}  // namespace

KernelBuilder::KernelBuilder(std::string name, std::uint64_t base_seed)
    : next_base_(kArrayRegionBase) {
  base_seed_ = base_seed != 0 ? base_seed : fnv1a64(name);
  w_.name = name;
  w_.loop.name = std::move(name);
}

unsigned KernelBuilder::array(const std::string& name, std::uint64_t elements,
                              Bytes elem_size) {
  if (elements == 0) throw std::invalid_argument(w_.name + ": empty array " + name);
  ArrayDecl arr;
  arr.name = name;
  arr.elem_size = elem_size;
  arr.elements = elements;
  arr.base = next_base_;
  next_base_ += ((arr.size_bytes() + kArrayAlign - 1) / kArrayAlign) * kArrayAlign;
  w_.loop.arrays.push_back(arr);
  return static_cast<unsigned>(w_.loop.arrays.size() - 1);
}

unsigned KernelBuilder::push_ref(MemRef ref, std::uint64_t seed) {
  if (ref.array >= w_.loop.arrays.size())
    throw std::invalid_argument(w_.name + ": ref targets unknown array");
  if (ref.name.empty()) {
    ref.name = w_.loop.arrays[ref.array].name + "#" +
               std::to_string(w_.loop.refs.size());
  }
  if (ref.pattern != PatternKind::Strided) {
    // Deterministic per-reference stream: the caller's seed, or one fixed
    // by (kernel, ref index).
    ref.irregular.seed =
        seed != 0 ? seed
                  : splitmix64_mix(base_seed_ + kGoldenGamma * (w_.loop.refs.size() + 1));
  }
  w_.loop.refs.push_back(std::move(ref));
  return static_cast<unsigned>(w_.loop.refs.size() - 1);
}

unsigned KernelBuilder::read(unsigned array, std::int64_t stride) {
  MemRef r;
  r.array = array;
  r.pattern = PatternKind::Strided;
  r.stride = stride;
  return push_ref(std::move(r));
}

unsigned KernelBuilder::write(unsigned array, std::int64_t stride) {
  MemRef r;
  r.array = array;
  r.pattern = PatternKind::Strided;
  r.stride = stride;
  r.is_write = true;
  return push_ref(std::move(r));
}

unsigned KernelBuilder::gather(unsigned target, Bytes hot_bytes, double in_chunk,
                               std::uint64_t seed) {
  MemRef r;
  r.array = target;
  r.pattern = PatternKind::Indirect;
  r.irregular.hot_bytes = hot_bytes;
  r.irregular.in_chunk_fraction = in_chunk;
  return push_ref(std::move(r), seed);
}

unsigned KernelBuilder::scatter(unsigned target, Bytes hot_bytes, double in_chunk) {
  MemRef r;
  r.array = target;
  r.pattern = PatternKind::Indirect;
  r.is_write = true;
  r.irregular.hot_bytes = hot_bytes;
  r.irregular.in_chunk_fraction = in_chunk;
  return push_ref(std::move(r));
}

unsigned KernelBuilder::chase(unsigned target, bool range_known, bool is_write,
                              Bytes hot_bytes, double in_chunk, std::uint64_t seed) {
  MemRef r;
  r.array = target;
  r.pattern = PatternKind::PointerChase;
  r.range_known = range_known;
  r.is_write = is_write;
  r.irregular.hot_bytes = hot_bytes;
  r.irregular.in_chunk_fraction = in_chunk;
  return push_ref(std::move(r), seed);
}

KernelBuilder& KernelBuilder::compute(unsigned int_ops, unsigned fp_ops) {
  w_.loop.int_ops_per_iter = int_ops;
  w_.loop.fp_ops_per_iter = fp_ops;
  return *this;
}

KernelBuilder& KernelBuilder::data_branches(double fraction) {
  w_.loop.data_branch_fraction = fraction;
  return *this;
}

KernelBuilder& KernelBuilder::iterations(std::uint64_t iters) {
  w_.loop.iterations = iters;
  return *this;
}

KernelBuilder& KernelBuilder::alias(unsigned ref_a, unsigned ref_b, AliasVerdict verdict) {
  w_.loop.alias_facts.push_back({.ref_a = ref_a, .ref_b = ref_b, .verdict = verdict});
  return *this;
}

KernelBuilder& KernelBuilder::reported(unsigned guarded, unsigned total) {
  reported_guarded_ = guarded;
  reported_total_ = total;
  return *this;
}

std::uint64_t KernelBuilder::scaled(std::uint64_t base_iters, WorkloadScale scale) {
  const double v = static_cast<double>(base_iters) * scale.factor;
  return std::max<std::uint64_t>(static_cast<std::uint64_t>(v), 1024);
}

Workload KernelBuilder::build() const {
  Workload w = w_;
  w.reported_guarded = reported_guarded_;
  w.reported_total = reported_total_ != 0
                         ? reported_total_
                         : static_cast<unsigned>(w.loop.refs.size());
  w.loop.validate();
  return w;
}

Workload make_spmd_slice(const Workload& w, unsigned tile, unsigned n_tiles) {
  if (n_tiles == 0 || tile >= n_tiles)
    throw std::invalid_argument("make_spmd_slice: tile index out of range");
  Workload slice = w;
  if (n_tiles == 1) return slice;

  // Balanced iteration slice: floor(I/N) everywhere, remainder to the first
  // tiles — tile 0 is always a longest tile, so max-tile work is
  // monotonically non-increasing in the tile count, and the slices sum to
  // exactly I.  With more tiles than iterations the trailing tiles receive
  // zero iterations (the caller runs nothing there): the partition never
  // fabricates extra work.
  const std::uint64_t iters = w.loop.iterations;
  const std::uint64_t base = iters / n_tiles;
  const std::uint64_t rem = iters % n_tiles;
  slice.loop.iterations = base + (tile < rem ? 1 : 0);

  // Block-distributed private arrays: 64 GB per tile keeps every shifted
  // base aligned to kArrayAlign (and thus to any LM buffer size) and the
  // regions disjoint across tiles, well below the LM virtual range.
  constexpr Addr kTileRegionStride = 0x10'0000'0000ull;
  static_assert(kTileRegionStride % kArrayAlign == 0);
  const Addr offset = static_cast<Addr>(tile) * kTileRegionStride;
  for (ArrayDecl& a : slice.loop.arrays) a.base += offset;
  return slice;
}

}  // namespace hm
