// Parallel-for for the campaign runner.
//
// ParallelFor fans an index range across worker threads that pull indices
// from one atomic counter (good load balancing: units at different fault
// rates cost different amounts), and callers reduce their preallocated
// per-unit results serially in index order — which is what makes campaign
// output byte-identical for any thread count.  There is no pool: each call
// starts its workers and joins them before returning, so a call owns its
// threads for exactly its own duration (and telemetry shards retire when
// the call's workers exit).
#pragma once

#include <functional>

namespace robustify::harness {

// Worker count resolution: an explicit request (> 0) wins, else hardware
// concurrency.  Always at least 1.
int ResolveThreadCount(int requested);

// Runs fn(0) .. fn(count - 1) across ResolveThreadCount(threads) workers,
// started for this call and joined before it returns.  Indices are claimed
// from a shared atomic counter in increasing order; each index runs exactly
// once, on an unspecified thread.  If any call throws, the first exception
// is rethrown in the caller after all workers finish.  With one worker (or
// count <= 1) this degenerates to a plain in-order serial loop.
void ParallelFor(int count, int threads, const std::function<void(int)>& fn);

}  // namespace robustify::harness
