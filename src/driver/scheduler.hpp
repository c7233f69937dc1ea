// Work-stealing thread pool for sweep jobs.
//
// Jobs are coarse (each one a full System simulation, milliseconds to
// seconds), independent, and write only to their own pre-allocated result
// slot, so the pool needs no result synchronization — just distribution.
// Each worker owns a deque seeded round-robin; it pops its own work from
// the front (ascending indices) and, when empty, steals the back half of a
// victim's deque, so a worker stuck on one long job sheds the rest of its
// queue to idle peers.
//
// Failure isolation: every job body runs under a catch-all; a throwing job
// is recorded in its error slot and the sweep continues.  Determinism:
// nothing a worker does depends on scheduling, so outputs are identical
// for any thread count — the invariant driver_test locks in.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

namespace hm::driver {

class SweepScheduler {
 public:
  using Body = std::function<void(std::size_t)>;
  using Progress = std::function<void(std::size_t done, std::size_t total)>;

  /// @p jobs worker threads; 0 => auto_jobs().  jobs==1 runs inline on the
  /// calling thread (the serial reference for the bit-identity invariant).
  explicit SweepScheduler(unsigned jobs = 1);

  unsigned jobs() const { return jobs_; }
  static unsigned auto_jobs();

  /// Run body(i) exactly once for every i in [0, n).  Returns n error
  /// strings ("" = success); exceptions escaping a body land in its slot.
  /// @p progress (optional) is invoked after each completion, serialized
  /// under one mutex with a monotonic done count; exceptions it throws are
  /// swallowed (observability must never fail a sweep).
  std::vector<std::string> run(std::size_t n, const Body& body,
                               const Progress& progress = {});

 private:
  unsigned jobs_;
};

}  // namespace hm::driver
