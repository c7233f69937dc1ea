#include "memory/prefetcher.hpp"

#include <stdexcept>

#include "common/bitops.hpp"

namespace hm {

StreamPrefetcher::StreamPrefetcher(PrefetcherConfig cfg, Bytes line_size)
    : cfg_(cfg), line_size_(line_size) {
  if (!is_pow2(cfg_.table_entries)) throw std::invalid_argument("prefetcher table must be pow2");
  if (!is_pow2(line_size_)) throw std::invalid_argument("line size must be pow2");
  if (cfg_.degree > kMaxPrefetchDegree)
    throw std::invalid_argument("prefetch degree exceeds the inline candidate-list capacity");
  line_shift_ = log2_exact(line_size_);
  table_.resize(cfg_.table_entries);
}

void StreamPrefetcher::issue(Addr line, Entry& e, PrefetchList& out) {
  ++stats_.triggers;
  for (unsigned d = 1; d <= cfg_.degree; ++d) {
    const std::int64_t target =
        static_cast<std::int64_t>(line >> line_shift_) + e.stride * static_cast<std::int64_t>(d);
    if (target < 0) continue;
    out.push_back(static_cast<Addr>(target) << line_shift_);
    ++stats_.prefetches_issued;
  }
}

void StreamPrefetcher::reset() {
  for (Entry& e : table_) e = Entry{};
}

}  // namespace hm
