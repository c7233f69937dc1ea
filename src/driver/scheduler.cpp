#include "driver/scheduler.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
#include <memory>
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

struct WorkerQueue {
  std::mutex mu;
  std::deque<std::size_t> q;
};

}  // namespace

SweepScheduler::SweepScheduler(unsigned jobs) : jobs_(jobs == 0 ? auto_jobs() : jobs) {}

unsigned SweepScheduler::auto_jobs() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

std::vector<std::string> SweepScheduler::run(std::size_t n, const Body& body,
                                             const Progress& progress) {
  std::vector<std::string> errors(n);
  if (n == 0) return errors;

  const auto guarded = [&](std::size_t i) {
    try {
      body(i);
    } catch (...) {
      errors[i] = describe_current_exception();
    }
  };

  // Progress is observability, not control flow: a throwing callback must
  // not kill a worker thread (std::terminate) or poison a job's error slot,
  // so it gets its own catch-all, separate from the body's.
  const auto guarded_progress = [&](std::size_t done_count) {
    try {
      progress(done_count, n);
    } catch (...) {
    }
  };

  const unsigned workers =
      static_cast<unsigned>(std::min<std::size_t>(jobs_, n));
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) {
      guarded(i);
      if (progress) guarded_progress(i + 1);
    }
    return errors;
  }

  std::vector<std::unique_ptr<WorkerQueue>> queues;
  queues.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) queues.push_back(std::make_unique<WorkerQueue>());
  for (std::size_t i = 0; i < n; ++i) queues[i % workers]->q.push_back(i);

  std::size_t done = 0;  // guarded by progress_mu
  std::mutex progress_mu;

  const auto worker = [&](unsigned self) {
    WorkerQueue& own = *queues[self];
    for (;;) {
      std::size_t idx;
      bool have = false;
      {
        const std::lock_guard<std::mutex> lock(own.mu);
        if (!own.q.empty()) {
          idx = own.q.front();
          own.q.pop_front();
          have = true;
        }
      }
      if (!have) {
        // Steal the back half of the first non-empty victim queue.
        for (unsigned off = 1; off < workers && !have; ++off) {
          WorkerQueue& victim = *queues[(self + off) % workers];
          std::scoped_lock lock(victim.mu, own.mu);
          if (victim.q.empty()) continue;
          const std::size_t grab = (victim.q.size() + 1) / 2;
          for (std::size_t g = 0; g < grab; ++g) {
            own.q.push_front(victim.q.back());
            victim.q.pop_back();
          }
          idx = own.q.front();
          own.q.pop_front();
          have = true;
        }
      }
      if (!have) {
        // Every queue was empty at inspection.  Jobs never enqueue new
        // work and only a queue's owner pushes into it (steals land in the
        // thief's own queue), so our queue stays empty once seen empty:
        // all unfinished jobs are already claimed by running workers, and
        // this worker can exit instead of spinning on the sweep's tail.
        return;
      }
      guarded(idx);
      if (progress) {
        // Count inside the lock so reported counts are monotonic.
        const std::lock_guard<std::mutex> lock(progress_mu);
        guarded_progress(++done);
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) threads.emplace_back(worker, w);
  for (auto& t : threads) t.join();
  return errors;
}

}  // namespace hm::driver
