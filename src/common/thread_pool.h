#ifndef NNCELL_COMMON_THREAD_POOL_H_
#define NNCELL_COMMON_THREAD_POOL_H_

#include <atomic>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"

namespace nncell {

// Small work-stealing thread pool for the parallel phases of the engine
// (per-point LP fan-out during bulk builds, batched query execution,
// cell recomputes of dynamic maintenance). Each worker owns a deque: new
// tasks are distributed round-robin, a worker pops its own deque LIFO
// (cache-warm) and steals FIFO from its siblings when empty. The pool is
// task-agnostic; determinism is the caller's job (submit pure tasks that
// write to disjoint result slots and commit in a fixed order afterwards).
//
// Tasks must not throw. ParallelFor may be called concurrently from
// several external threads (each call tracks its own completion). A task
// running *on* the pool may call ParallelFor on the same pool: the nested
// range then runs inline on the calling worker, because with every worker
// blocked in a nested wait there could be nobody left to run its chunks.
class ThreadPool {
 public:
  // Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return queues_.size(); }

  // Enqueues a fire-and-forget task. Every queued task is completed
  // before the destructor returns.
  void Submit(std::function<void()> task);

  // Runs body(i) for every i in [begin, end), chunked across the workers;
  // returns when every iteration has finished. `body` is invoked
  // concurrently and must be safe to call from several threads at once.
  // Called from one of this pool's own workers, it runs the range inline
  // in ascending order.
  void ParallelFor(size_t begin, size_t end,
                   const std::function<void(size_t)>& body);

  // std::thread::hardware_concurrency with a fallback of 1.
  static size_t DefaultThreads();

 private:
  struct Queue {
    Mutex mu;
    std::deque<std::function<void()>> tasks NNCELL_GUARDED_BY(mu);
  };

  void WorkerLoop(size_t self);
  // Own queue (back) first, then steals from siblings (front). Returns an
  // empty function when every queue is empty.
  std::function<void()> TryPop(size_t self);

  std::vector<std::unique_ptr<Queue>> queues_;
  std::vector<std::thread> workers_;
  std::atomic<size_t> queued_{0};      // pushed, not yet popped
  std::atomic<size_t> next_queue_{0};  // round-robin submit cursor
  Mutex wake_mu_;
  CondVar wake_cv_;
  bool stop_ NNCELL_GUARDED_BY(wake_mu_) = false;
};

// Runs body(i) for every i in [0, n), also after a failure, and returns
// the status of the lowest failing i, OK when none failed. The iterations
// run on `pool` when it is non-null and n > 1 (each writing only its own
// slot of any shared output); otherwise serially.
Status FanOut(ThreadPool* pool, size_t n,
              const std::function<Status(size_t)>& body);

}  // namespace nncell

#endif  // NNCELL_COMMON_THREAD_POOL_H_
