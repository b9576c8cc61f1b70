#pragma once
// sim::parallel_for — the simulator's one worker pool.
//
// Sweep::run fans sweep points across it and serve::Server fans its
// calibration probes across it. Every caller gets the same determinism
// contract, so results never depend on the thread count:
//
//   * workers claim indices in increasing order; a call writes its result
//     only to its own index's slot;
//   * an index that throws has its exception captured; workers then stop
//     claiming new indices, every claimed index runs to completion, and the
//     exception of the *lowest* throwing index is rethrown. Because claims
//     are in order, that lowest index was claimed before any later failure
//     could stop the pool, so the error is the one a serial loop raises.
//
// Nested use runs inline: a parallel_for called from inside another
// parallel_for's worker (a serve point's calibration inside a Sweep worker)
// runs its indices serially on that worker instead of oversubscribing the
// host.

#include <cstddef>
#include <functional>

namespace gemmini::sim {

/// Runs fn(0) .. fn(n-1) on up to `threads` worker threads (0 = one per
/// host hardware thread; never more than n) and returns once all claimed
/// indices have finished. Runs inline, in index order on the calling
/// thread, when n <= 1, when `threads` resolves to 1, or when called from
/// inside another parallel_for worker. Rethrows the lowest-index exception
/// (see above).
void parallel_for(std::size_t n, unsigned threads,
                  const std::function<void(std::size_t)>& fn);

}  // namespace gemmini::sim
