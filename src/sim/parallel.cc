#include "src/sim/parallel.h"

#include <atomic>
#include <exception>
#include <system_error>
#include <thread>
#include <vector>

namespace gemmini::sim {

namespace {

/// True while this thread is one of a running pool's workers.
thread_local bool in_pool_worker = false;

}  // namespace

void parallel_for(std::size_t n, unsigned threads,
                  const std::function<void(std::size_t)>& fn) {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  if (threads > n) threads = static_cast<unsigned>(n);
  if (threads <= 1 || in_pool_worker) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  std::vector<std::exception_ptr> errors(n);
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  auto work = [&]() {
    in_pool_worker = true;
    while (!failed) {
      const std::size_t i = next.fetch_add(1);
      if (i >= n) break;
      try {
        fn(i);
      } catch (...) {
        errors[i] = std::current_exception();
        failed = true;
      }
    }
    in_pool_worker = false;
  };

  // The caller only waits. Workers' large short-lived allocations (lowered
  // programs, SoC state) then come from the workers' own malloc arenas
  // instead of fragmenting the caller's heap: with the caller working,
  // the serve_multicore benchmark's peak RSS rose ~25% in half the runs
  // on a 4-vCPU host.
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    // A host that cannot start another thread runs the loop on the workers
    // already started, or on the caller if none started; the result is the
    // same.
    try {
      pool.emplace_back(work);
    } catch (const std::system_error&) {
      break;
    }
  }
  if (pool.empty()) work();
  for (std::thread& t : pool) t.join();

  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace gemmini::sim
