#include "common/task_pool.h"

#include <atomic>
#include <cstdlib>
#include <memory>

#include "common/mutex.h"

namespace s2rdf {

TaskPool::TaskPool(int num_threads)
    : queue_wait_(std::make_shared<Histogram>(LogBuckets(1e-5, 4.0, 12))) {
  threads_.reserve(static_cast<size_t>(num_threads > 0 ? num_threads : 0));
  for (int i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

TaskPool::~TaskPool() {
  {
    MutexLock lock(&mu_);
    stopping_ = true;
  }
  cv_.NotifyAll();
  for (std::thread& thread : threads_) thread.join();
}

TaskPool* TaskPool::Shared() {
  // Leaked on purpose: helper threads may still be parked in WorkerLoop
  // when static destructors run, and the pool must survive them.
  static TaskPool* pool = [] {
    // S2RDF_TASK_POOL_THREADS pins the pool's total width (helpers +
    // caller) regardless of what the container advertises — benchmarks
    // use it to exercise real multi-way morsel scheduling on hosts
    // whose affinity mask under-reports, and tests to force width 1.
    int helpers = -1;
    if (const char* env = std::getenv("S2RDF_TASK_POOL_THREADS")) {
      char* end = nullptr;
      long v = std::strtol(env, &end, 10);
      if (end != env && *end == '\0' && v > 0) {
        helpers = static_cast<int>(v) - 1;
      }
    }
    if (helpers < 0) {
      unsigned hw = std::thread::hardware_concurrency();
      helpers = hw > 1 ? static_cast<int>(hw - 1) : 0;
    }
    return new TaskPool(helpers);
  }();
  return pool;
}

size_t TaskPool::QueueDepth() const {
  MutexLock lock(&mu_);
  return queue_.size();
}

void TaskPool::AttachMetrics(MetricsRegistry* registry) {
  registry->AddGauge(
      "s2rdf_task_pool_queue_depth",
      "Helper tasks parked in the shared morsel pool queue.",
      [this] { return static_cast<uint64_t>(QueueDepth()); });
  registry->ShareHistogram(
      "s2rdf_task_pool_queue_wait_seconds",
      "Time helper tasks wait in the shared pool queue before a thread "
      "claims them.",
      queue_wait_);
}

void TaskPool::WorkerLoop() {
  for (;;) {
    QueuedTask task;
    {
      MutexLock lock(&mu_);
      while (queue_.empty() && !stopping_) cv_.Wait(&mu_);
      if (queue_.empty()) return;  // stopping_ and fully drained.
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    queue_wait_->Observe(SecondsSince(task.enqueued));
    task.fn();
  }
}

void TaskPool::ParallelFor(size_t n, const std::function<void(size_t)>& body) {
  if (n == 0) return;
  if (n == 1 || threads_.empty()) {
    for (size_t i = 0; i < n; ++i) body(i);
    return;
  }

  // Shared claim/completion state. Helpers hold it via shared_ptr, so a
  // straggler that wakes up after all indices are claimed (and the
  // caller has returned) still finds valid memory; it never touches
  // `body` in that case — a claimed index < n implies the caller is
  // still waiting on `completed`, which keeps `body` alive.
  struct ForState {
    explicit ForState(size_t total) : n(total) {}
    const size_t n;
    std::atomic<size_t> next{0};
    Mutex mu;
    CondVar cv;
    size_t completed S2RDF_GUARDED_BY(mu) = 0;
  };
  auto state = std::make_shared<ForState>(n);
  const std::function<void(size_t)>* fn = &body;
  auto run = [state, fn] {
    size_t finished = 0;
    for (size_t i = state->next.fetch_add(1, std::memory_order_relaxed);
         i < state->n;
         i = state->next.fetch_add(1, std::memory_order_relaxed)) {
      (*fn)(i);
      ++finished;
    }
    if (finished > 0) {
      MutexLock lock(&state->mu);
      state->completed += finished;
      if (state->completed == state->n) state->cv.NotifyAll();
    }
  };

  // One helper task per pool thread (capped by the remaining indices);
  // each drains indices until none are left, so late-running helpers
  // cost one atomic increment and exit.
  size_t helpers = threads_.size() < n - 1 ? threads_.size() : n - 1;
  {
    const MonotonicTime enqueued = MonotonicNow();
    MutexLock lock(&mu_);
    if (!stopping_) {
      for (size_t i = 0; i < helpers; ++i) {
        queue_.push_back(QueuedTask{run, enqueued});
      }
    }
  }
  cv_.NotifyAll();

  run();  // The caller is always a worker: progress never depends on
          // helper availability.
  MutexLock lock(&state->mu);
  while (state->completed < state->n) state->cv.Wait(&state->mu);
}

}  // namespace s2rdf
