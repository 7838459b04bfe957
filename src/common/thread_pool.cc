#include "common/thread_pool.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace nncell {

namespace {

// The pool whose worker loop runs on this thread; null on other threads.
thread_local const ThreadPool* tls_worker_of = nullptr;

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  num_threads = std::max<size_t>(num_threads, 1);
  queues_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    queues_.push_back(std::make_unique<Queue>());
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(wake_mu_);
    stop_ = true;
  }
  wake_cv_.NotifyAll();
  for (std::thread& t : workers_) t.join();
  NNCELL_DCHECK(queued_.load() == 0);
}

size_t ThreadPool::DefaultThreads() {
  size_t n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

void ThreadPool::Submit(std::function<void()> task) {
  NNCELL_DCHECK(task != nullptr);
  // nncell-lint: allow(relaxed-atomics) round-robin cursor, placement hint only
  size_t q = next_queue_.fetch_add(1, std::memory_order_relaxed) %
             queues_.size();
  {
    MutexLock lock(queues_[q]->mu);
    queues_[q]->tasks.push_back(std::move(task));
  }
  queued_.fetch_add(1, std::memory_order_release);
  // Empty critical section: pairs with the predicate check in WorkerLoop so
  // a worker between "queues looked empty" and "blocked" cannot miss us.
  { MutexLock lock(wake_mu_); }
  wake_cv_.NotifyOne();
}

std::function<void()> ThreadPool::TryPop(size_t self) {
  {
    Queue& own = *queues_[self];
    MutexLock lock(own.mu);
    if (!own.tasks.empty()) {
      std::function<void()> task = std::move(own.tasks.back());
      own.tasks.pop_back();
      // nncell-lint: allow(relaxed-atomics) queue mutex orders the pop; count is a wake hint
      queued_.fetch_sub(1, std::memory_order_relaxed);
      return task;
    }
  }
  for (size_t i = 1; i < queues_.size(); ++i) {
    Queue& victim = *queues_[(self + i) % queues_.size()];
    MutexLock lock(victim.mu);
    if (!victim.tasks.empty()) {
      std::function<void()> task = std::move(victim.tasks.front());
      victim.tasks.pop_front();
      // nncell-lint: allow(relaxed-atomics) queue mutex orders the steal; count is a wake hint
      queued_.fetch_sub(1, std::memory_order_relaxed);
      return task;
    }
  }
  return nullptr;
}

void ThreadPool::WorkerLoop(size_t self) {
  tls_worker_of = this;
  for (;;) {
    if (std::function<void()> task = TryPop(self)) {
      task();
      continue;
    }
    MutexLock lock(wake_mu_);
    while (!stop_ && queued_.load(std::memory_order_acquire) == 0) {
      wake_cv_.Wait(wake_mu_);
    }
    if (stop_ && queued_.load(std::memory_order_acquire) == 0) return;
  }
}

void ThreadPool::ParallelFor(size_t begin, size_t end,
                             const std::function<void(size_t)>& body) {
  if (end <= begin) return;
  if (tls_worker_of == this) {
    for (size_t i = begin; i < end; ++i) body(i);
    return;
  }
  const size_t n = end - begin;
  // More chunks than workers so stealing can rebalance uneven iteration
  // costs (LP solves vary a lot per point).
  const size_t chunks = std::min(n, 4 * num_threads());

  // Per-call completion group: `remaining` is only touched under `mu`, and
  // the waiter observes 0 under the same mutex, after which no finisher
  // touches the group again -- so stack lifetime is safe.
  struct Group {
    Mutex mu;
    CondVar cv;
    size_t remaining NNCELL_GUARDED_BY(mu);
  } group{{}, {}, chunks};

  for (size_t c = 0; c < chunks; ++c) {
    const size_t lo = begin + n * c / chunks;
    const size_t hi = begin + n * (c + 1) / chunks;
    Submit([&group, &body, lo, hi] {
      for (size_t i = lo; i < hi; ++i) body(i);
      MutexLock lock(group.mu);
      if (--group.remaining == 0) group.cv.NotifyAll();
    });
  }
  MutexLock lock(group.mu);
  while (group.remaining != 0) group.cv.Wait(group.mu);
}

Status FanOut(ThreadPool* pool, size_t n,
              const std::function<Status(size_t)>& body) {
  std::vector<Status> errors(n, Status::OK());
  if (pool == nullptr || n <= 1) {
    for (size_t i = 0; i < n; ++i) errors[i] = body(i);
  } else {
    pool->ParallelFor(0, n, [&](size_t i) { errors[i] = body(i); });
  }
  for (Status& st : errors) {
    if (!st.ok()) return std::move(st);
  }
  return Status::OK();
}

}  // namespace nncell
