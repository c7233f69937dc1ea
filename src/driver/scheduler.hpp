// The sweep's thread pool: one shared atomic index.
//
// Jobs are coarse (each one a full System simulation, milliseconds to
// seconds), independent, and write only to their own pre-allocated result
// slot, so the pool needs no result synchronization — just distribution.
// Each of min(jobs, n) workers claims the next unclaimed index with one
// fetch_add until none is left, so a worker stuck on one long job never
// holds back work the others could take.
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

/// body(index, worker): worker is in [0, min(jobs, n)), stable for the
/// calling thread for the duration of one run_indexed call.
using IndexedBody = std::function<void(std::size_t index, unsigned worker)>;
/// progress(index, done, total) after job @p index finished (ok or not).
using IndexedProgress =
    std::function<void(std::size_t index, std::size_t done, std::size_t total)>;

/// Host core count (at least 1): the default worker count.
unsigned auto_jobs();

/// Run body(i, worker) exactly once for every i in [0, n) on min(jobs, n)
/// threads; jobs <= 1 runs inline on the calling thread as worker 0 (the
/// serial reference for the bit-identity invariant).  Returns n error
/// strings ("" = success); exceptions escaping a body land in its slot.
/// @p progress (optional) is invoked after each completion, serialized
/// under one mutex with a monotonic done count; exceptions it throws are
/// swallowed (observability must never fail a sweep).
std::vector<std::string> run_indexed(unsigned jobs, std::size_t n,
                                     const IndexedBody& body,
                                     const IndexedProgress& progress = {});

}  // namespace hm::driver
