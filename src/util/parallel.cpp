#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace soda::util {
namespace {

using Body = std::function<void(int worker, std::size_t index)>;

// One ParallelFor call: indices handed out in increasing order through an
// atomic cursor, and the first exception kept for the caller.
struct Job {
  Job(std::size_t items, const Body& body) : n(items), fn(body) {}

  void Work(int worker) {
    while (!abort.load(std::memory_order_relaxed)) {
      const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      try {
        fn(worker, i);
      } catch (...) {
        abort.store(true, std::memory_order_relaxed);
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    }
  }

  const std::size_t n;
  const Body& fn;
  std::atomic<std::size_t> cursor{0};
  std::atomic<bool> abort{false};
  std::mutex error_mutex;
  std::exception_ptr first_error;
};

// The process-wide pool of persistent workers. Pool thread k always runs as
// worker k (k >= 1), so ids stay distinct and only threads 1..W-1 join a job
// that asks for W workers. Idle workers sleep on `wake_`. One caller at a
// time owns the pool (`busy_`); it alone grows `threads_` and posts jobs.
// The owner closes the job when its own share is done and then waits only
// for the workers that joined it, never for sleepers that have not woken
// yet: those see the job closed and go back to sleep.
//
// The pool is never destroyed: its threads sleep until the process exits,
// so a ParallelFor from a static destructor still finds it intact.
class WorkerPool {
 public:
  static WorkerPool& Instance() {
    static WorkerPool* const pool = new WorkerPool;
    return *pool;
  }

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  // Runs `job` on the caller as worker 0 and on up to workers - 1 pool
  // threads. Returns false, having run nothing, when the pool is busy with
  // another call (a nested call from inside a job, or a concurrent caller).
  bool TryRun(Job& job, int workers) {
    if (busy_.exchange(true, std::memory_order_acquire)) return false;
    const struct Release {
      std::atomic<bool>& busy;
      ~Release() { busy.store(false, std::memory_order_release); }
    } release{busy_};

    while (static_cast<int>(threads_.size()) < workers - 1) {
      const int worker = static_cast<int>(threads_.size()) + 1;
      threads_.emplace_back([this, worker] { Loop(worker); });
    }
    {
      const std::lock_guard<std::mutex> lock(mu_);
      job_ = &job;
      job_workers_ = workers;
      ++generation_;
    }
    wake_.notify_all();
    job.Work(0);
    std::unique_lock<std::mutex> lock(mu_);
    job_ = nullptr;
    idle_.wait(lock, [this] { return active_ == 0; });
    return true;
  }

 private:
  WorkerPool() = default;

  void Loop(int worker) {
    std::uint64_t joined = 0;  // generation of the last job this thread ran
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      wake_.wait(lock, [&] {
        return job_ != nullptr && generation_ != joined &&
               worker < job_workers_;
      });
      joined = generation_;
      Job& job = *job_;
      ++active_;
      lock.unlock();
      job.Work(worker);
      lock.lock();
      if (--active_ == 0) idle_.notify_one();
    }
  }

  std::atomic<bool> busy_{false};
  std::vector<std::thread> threads_;  // touched only by the busy owner

  std::mutex mu_;
  std::condition_variable wake_;  // workers: a job was posted
  std::condition_variable idle_;  // owner: no joined worker still runs
  Job* job_ = nullptr;            // null between jobs and once closed
  int job_workers_ = 0;
  std::uint64_t generation_ = 0;  // counts posted jobs
  int active_ = 0;  // workers that joined the open job and still run it
};

}  // namespace

int EffectiveThreads(int requested, std::size_t work_items) noexcept {
  if (work_items <= 1) return 1;
  long threads = requested;
  if (threads <= 0) {
    threads = static_cast<long>(std::thread::hardware_concurrency());
    if (threads <= 0) threads = 1;  // hardware_concurrency may report 0
  }
  return static_cast<int>(
      std::min<long>(threads, static_cast<long>(work_items)));
}

void ParallelFor(std::size_t n, int num_threads, const Body& fn) {
  if (n == 0) return;
  num_threads = EffectiveThreads(num_threads, n);
  if (num_threads > 1) {
    Job job(n, fn);
    if (WorkerPool::Instance().TryRun(job, num_threads)) {
      if (job.first_error) std::rethrow_exception(job.first_error);
      return;
    }
  }
  for (std::size_t i = 0; i < n; ++i) fn(0, i);
}

}  // namespace soda::util
