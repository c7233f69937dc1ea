#include "driver/scheduler.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <thread>

namespace hm::driver {

namespace {

std::string describe_current_exception() {
  try {
    throw;
  } catch (const std::exception& e) {
    return e.what()[0] ? e.what() : "empty exception message";
  } catch (...) {
    return "non-standard exception";
  }
}

}  // namespace

unsigned auto_jobs() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

std::vector<std::string> run_indexed(unsigned jobs, std::size_t n,
                                     const IndexedBody& body,
                                     const IndexedProgress& progress) {
  std::vector<std::string> errors(n);
  std::mutex progress_mu;
  std::size_t done = 0;  // guarded by progress_mu

  const auto finish = [&](std::size_t i, unsigned worker) {
    try {
      body(i, worker);
    } catch (...) {
      errors[i] = describe_current_exception();
    }
    if (!progress) return;
    // Progress is observability, not control flow: a throwing callback must
    // not kill a worker thread (std::terminate) or poison a job's error
    // slot.  Counting inside the lock keeps reported counts monotonic.
    const std::lock_guard<std::mutex> lock(progress_mu);
    try {
      progress(i, ++done, n);
    } catch (...) {
    }
  };

  const unsigned workers = static_cast<unsigned>(std::min<std::size_t>(jobs, n));
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) finish(i, 0);
    return errors;
  }

  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (unsigned w = 0; w < workers; ++w)
    threads.emplace_back([&, w] {
      for (std::size_t i; (i = next.fetch_add(1, std::memory_order_relaxed)) < n;)
        finish(i, w);
    });
  for (auto& t : threads) t.join();
  return errors;
}

}  // namespace hm::driver
