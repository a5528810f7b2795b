// A small deterministic-friendly worker pool.
//
// ParallelFor hands indices [0, n) to `num_threads` workers in increasing
// order (dynamic scheduling over an atomic cursor). The callback receives
// the executing worker's id so callers can keep per-worker state (e.g. one
// controller clone per worker) without locking. Work items must be
// independent: nothing about a result may depend on which worker ran it or
// on how items interleave — that is what lets callers guarantee bit-exact
// output for any thread count.
//
// The workers are one process-wide pool of persistent threads, created on
// first use and grown to the largest thread count ever requested (it never
// shrinks). Idle workers sleep on a condition variable; they do not spin.
// The pool runs one call at a time: a ParallelFor made while it is busy —
// nested inside a running callback, or from a second thread — runs inline
// on its caller as a serial loop with worker id 0, so such calls can never
// deadlock and still visit every index exactly once.
#pragma once

#include <cstddef>
#include <functional>

namespace soda::util {

// Resolves a requested thread count: `requested` <= 0 means "use the
// hardware concurrency"; the result is clamped to [1, work_items] (and to 1
// when work_items is 0) so callers never ask for idle workers.
[[nodiscard]] int EffectiveThreads(int requested,
                                   std::size_t work_items) noexcept;

// Runs fn(worker, index) for every index in [0, n). The calling thread
// participates as worker 0; pool threads join as workers
// 1..num_threads-1, and every worker id is below the resolved thread
// count. With num_threads <= 1, or while the pool is busy, this is a plain
// serial loop on the caller (worker 0, no atomics). `fn` is invoked
// concurrently from different workers and must be thread-safe with
// respect to shared captures. If any invocation throws, remaining indices
// are abandoned, the call waits for every worker to leave, and the first
// exception (in completion order) is rethrown; the pool stays usable.
void ParallelFor(std::size_t n, int num_threads,
                 const std::function<void(int worker, std::size_t index)>& fn);

}  // namespace soda::util
