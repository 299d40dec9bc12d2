#ifndef S2RDF_COMMON_TASK_POOL_H_
#define S2RDF_COMMON_TASK_POOL_H_

#include <atomic>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

// Shared morsel-execution pool — the process-wide analogue of a Spark
// cluster's executor slots. Every intra-query parallel loop (morsel
// scans, partitioned joins, partial aggregates, the ExtVP build) draws
// from this one pool instead of spawning its own threads, so N
// concurrent queries never multiply into N x partitions threads: total
// worker-thread count is fixed at construction, sized to the hardware.
//
// Deadlock-freedom: ParallelFor callers always execute loop bodies
// themselves alongside the pool's helpers, so a ParallelFor completes
// even when every helper thread is busy with other queries' morsels
// (or when the pool has zero threads). This is what makes it safe to
// call from the endpoint's workers: a saturated TaskPool degrades
// to serial execution on the calling thread, it never blocks it.

namespace s2rdf {

class TaskPool {
 public:
  // Spawns `num_threads` helper threads (0 is valid: every ParallelFor
  // then runs inline on the caller).
  explicit TaskPool(int num_threads);
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  int num_threads() const { return static_cast<int>(threads_.size()); }

  // The process-wide pool, created on first use and never destroyed
  // (it must outlive static-destruction order). Sized by
  // std::thread::hardware_concurrency() minus one, because ParallelFor
  // callers participate: one ParallelFor saturates exactly the
  // hardware, caller included.
  static TaskPool* Shared();

  // Number of independent work items a caller should split a loop into
  // to saturate this pool: helpers plus the calling thread.
  size_t ParallelismWidth() const { return threads_.size() + 1; }

  // Runs body(0) .. body(n-1), each exactly once, distributing indices
  // dynamically (morsel-driven work stealing) over the helper threads
  // and the calling thread. Returns when every body call has finished.
  // Bodies must be safe to run concurrently with each other; they run
  // on helper threads, so they may read an ExecContext's interrupt
  // state (InterruptRequested) but must not record it (CheckInterrupt).
  void ParallelFor(size_t n, const std::function<void(size_t)>& body)
      S2RDF_EXCLUDES(mu_);

  // Helper tasks currently parked in the queue (not yet claimed by a
  // thread). A sustained nonzero depth means every helper is busy and
  // new morsel fan-outs are degrading toward caller-only execution.
  size_t QueueDepth() const S2RDF_EXCLUDES(mu_);

  // Registers this pool's saturation metrics on `registry`:
  //   s2rdf_task_pool_queue_depth        gauge, sampled at render time
  //   s2rdf_task_pool_queue_wait_seconds histogram of enqueue->dequeue
  // The pool owns the wait histogram for its whole life and every
  // attached registry shares it, so registries may come and go while
  // the pool runs (an endpoint's registry dies with the endpoint; the
  // shared pool never does). Every attached registry renders the same
  // pool-lifetime series. The depth gauge samples the pool, so a
  // registry must not render after a non-shared pool is destroyed.
  // Idempotent per registry (names dedupe).
  void AttachMetrics(MetricsRegistry* registry) S2RDF_EXCLUDES(mu_);

 private:
  struct QueuedTask {
    std::function<void()> fn;
    MonotonicTime enqueued;
  };

  void WorkerLoop() S2RDF_EXCLUDES(mu_);

  mutable Mutex mu_;
  CondVar cv_;
  std::deque<QueuedTask> queue_ S2RDF_GUARDED_BY(mu_);
  bool stopping_ S2RDF_GUARDED_BY(mu_) = false;
  // Enqueue->dequeue wait of helper tasks, observed lock-free on the
  // dequeue path. Owned by the pool, shared with attached registries.
  const std::shared_ptr<Histogram> queue_wait_;
  // Written only during construction/destruction.
  std::vector<std::thread> threads_;
};

}  // namespace s2rdf

#endif  // S2RDF_COMMON_TASK_POOL_H_
