// The descriptor compiler for sampled simulation (ISSUE 9 tentpole, part 1).
//
// build_replay_batch walks a CompiledKernel's work-phase iterations once —
// through the same resolve_work_iteration the emitter uses, on a pristine
// copy of the kernel — and lays the result out as the flat ReplayBatch
// defined in core/replay.hpp.  cached_replay_batch fronts it with a
// process-wide cache keyed per (kernel identity, variant, seed, engine
// version), so repeated sweep points over the same kernel and every
// fast-forward region of a sampled run share one batch and never re-walk
// the IR.
#pragma once

#include <memory>

#include "compiler/codegen.hpp"
#include "core/replay.hpp"

namespace hm {

/// Resolve every work iteration of @p kernel into a fresh batch.  Pure with
/// respect to @p kernel (works on an internal copy; RNG cursors and the
/// stream position are untouched).
ReplayBatch build_replay_batch(const CompiledKernel& kernel);

/// build_replay_batch through the process-wide descriptor cache.  Thread
/// safe; entries are evicted LRU beyond a bounded footprint so unbounded
/// sweeps cannot hoard memory.
std::shared_ptr<const ReplayBatch> cached_replay_batch(const CompiledKernel& kernel);

/// Drop every cached batch (benchmarks measuring cold compilation).
void clear_replay_cache();

}  // namespace hm
