#ifndef S2RDF_ENGINE_EXEC_CONTEXT_H_
#define S2RDF_ENGINE_EXEC_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"

// Execution context for the partitioned-execution model.
//
// The paper attributes ExtVP's speedups to two mechanisms: (1) smaller
// query *input* (fewer base-table tuples read and shipped over the
// network), and (2) fewer join comparisons (Fig. 8, Fig. 12). Both are
// engine-independent, so in addition to wall-clock the engine meters them
// directly: every operator accounts its inputs against the metrics below.
// Shuffle volume follows the standard repartition-join model — with P
// partitions, a fraction (P-1)/P of each join input crosses the network.

namespace s2rdf::engine {

struct ExecMetrics {
  // Tuples scanned from base (stored) tables — the paper's "input size".
  uint64_t input_tuples = 0;
  // Tuples produced by intermediate operators (join/filter outputs).
  uint64_t intermediate_tuples = 0;
  // Pairwise join comparisons, counted as |L|x|R| per join, matching the
  // accounting of the paper's Fig. 8 / Fig. 12.
  uint64_t join_comparisons = 0;
  // Tuples crossing partitions under hash repartitioning.
  uint64_t shuffled_tuples = 0;
  // Result tuples of the final operator.
  uint64_t output_tuples = 0;
  // High-water mark of simultaneously-live materialized Table bytes
  // (operator inputs + output at each operator boundary). A resource
  // gauge, not a flow counter: identical at every pool width because
  // every width materializes the same operator results.
  uint64_t peak_table_bytes = 0;

  void Clear() { *this = ExecMetrics(); }

  // The growth of the counters since `before` was snapshotted (profiling
  // attributes metric deltas to the operator subtree that ran between
  // the two snapshots).
  ExecMetrics DeltaSince(const ExecMetrics& before) const {
    ExecMetrics d;
    d.input_tuples = input_tuples - before.input_tuples;
    d.intermediate_tuples = intermediate_tuples - before.intermediate_tuples;
    d.join_comparisons = join_comparisons - before.join_comparisons;
    d.shuffled_tuples = shuffled_tuples - before.shuffled_tuples;
    d.output_tuples = output_tuples - before.output_tuples;
    // Peak is a high-water mark: the delta is how much this subtree
    // raised it (0 when it stayed under the prior peak).
    d.peak_table_bytes = peak_table_bytes - before.peak_table_bytes;
    return d;
  }

  ExecMetrics& operator+=(const ExecMetrics& other) {
    input_tuples += other.input_tuples;
    intermediate_tuples += other.intermediate_tuples;
    join_comparisons += other.join_comparisons;
    shuffled_tuples += other.shuffled_tuples;
    output_tuples += other.output_tuples;
    // Merging two queries' metrics keeps the larger high-water mark.
    if (other.peak_table_bytes > peak_table_bytes) {
      peak_table_bytes = other.peak_table_bytes;
    }
    return *this;
  }

  std::string ToString() const {
    return "input=" + std::to_string(input_tuples) +
           " intermediate=" + std::to_string(intermediate_tuples) +
           " comparisons=" + std::to_string(join_comparisons) +
           " shuffled=" + std::to_string(shuffled_tuples) +
           " output=" + std::to_string(output_tuples) +
           " peak_bytes=" + std::to_string(peak_table_bytes);
  }
};

// One executed plan operator (EXPLAIN ANALYZE entry). `millis` is
// inclusive of children; `depth` reconstructs the tree shape.
struct OperatorProfile {
  std::string label;
  int depth = 0;
  uint64_t output_rows = 0;
  double millis = 0.0;
  // Scan detail (empty/defaulted for non-scan operators): the table
  // Algorithm 1 chose, its layout family ("ExtVP", "VP", "TT",
  // "ExtVP-bitmap") and the catalog selectivity factor behind the
  // choice. `degraded` marks a quarantine-forced superset substitute.
  std::string table;
  std::string layout;
  double sf = 1.0;
  bool degraded = false;
  // Growth of the query's ExecMetrics while this operator (inclusive of
  // its children) ran.
  ExecMetrics delta;
  // Start offset relative to ExecContext::profile_origin, milliseconds.
  double start_ms = 0.0;
  // The optimizer's row estimate for this operator; < 0 means "not
  // annotated" (e.g. operators above the BGP pipeline).
  double estimated_rows = -1.0;
};

// One morsel/partition task executed while profiling a partitioned
// operator. `index` is the morsel or partition number (rendered as the
// trace lane), not a thread id — task-to-thread assignment is pool
// scheduling noise, the partition of work is what the plan determines.
struct TaskSpan {
  std::string label;
  size_t index = 0;
  double start_ms = 0.0;
  double millis = 0.0;
};

// Thread-safe collector for TaskSpans. Owned by whoever owns the query
// (e.g. core::S2Rdf::Execute) and attached to the ExecContext by
// pointer, keeping the context itself copyable. Pool workers append
// concurrently; one lock per morsel (>= thousands of rows) is noise.
class TaskSpanSink {
 public:
  void Record(std::string label, size_t index, MonotonicTime origin,
              MonotonicTime start, MonotonicTime end) {
    TaskSpan span;
    span.label = std::move(label);
    span.index = index;
    span.start_ms =
        std::chrono::duration<double, std::milli>(start - origin).count();
    span.millis =
        std::chrono::duration<double, std::milli>(end - start).count();
    MutexLock lock(&mu_);
    spans_.push_back(std::move(span));
  }

  // Drains the collected spans (single-threaded, after execution).
  std::vector<TaskSpan> Take() {
    MutexLock lock(&mu_);
    return std::move(spans_);
  }

 private:
  Mutex mu_;
  std::vector<TaskSpan> spans_ S2RDF_GUARDED_BY(mu_);
};

// Operators consult the interrupt state every this many rows, keeping
// the clock read off the per-row hot path.
inline constexpr size_t kInterruptCheckRows = 4096;

struct ExecContext {
  // Simulated cluster width for the shuffle meter; 9 workers matches the
  // paper's testbed. Execution itself sizes its fan-out from the input
  // (see FanOut in engine/operators.h).
  int num_partitions = 9;
  // EXPLAIN ANALYZE: record per-operator rows and timings.
  bool collect_profile = false;
  std::vector<OperatorProfile> profile;
  // Zero point for profile start offsets. Set by the query owner (or by
  // ExecutePlan on first use when left at the epoch default).
  MonotonicTime profile_origin{};
  // Optional sink for partitioned operators' task spans; only consulted
  // when collect_profile is set. Owned by the caller.
  TaskSpanSink* task_spans = nullptr;
  // Request-scoped trace id assigned at admission (HTTP endpoint) or by
  // the embedding caller; empty when untraced. Carried here so operator
  // spans, slow-query lines and Chrome traces all share one id.
  std::string trace_id;
  ExecMetrics metrics;

  // True when partitioned operators should record per-morsel TaskSpans.
  bool ProfileTasks() const {
    return collect_profile && task_spans != nullptr;
  }

  // --- Deadline & cancellation --------------------------------------------
  //
  // A context is owned by exactly one query. The executor checks the
  // interrupt state at every operator boundary and inside long row
  // loops; an interrupted operator abandons its partial output and
  // ExecutePlan returns `interrupt_status` (kDeadlineExceeded or
  // kCancelled) instead of a table.

  // Absolute deadline; only consulted when `has_deadline` is set.
  bool has_deadline = false;
  MonotonicTime deadline{};
  // Optional external cancellation signal (owned by the caller, may be
  // flipped from any thread).
  const std::atomic<bool>* cancel_flag = nullptr;
  // First observed interrupt reason; Ok while the query is healthy.
  // Written only by the query's own thread (via CheckInterrupt).
  Status interrupt_status;

  // Point-in-time check without recording: reads only immutable fields
  // and the atomic flag, so task-pool workers may call it.
  bool InterruptRequested() const {
    if (cancel_flag != nullptr &&
        cancel_flag->load(std::memory_order_relaxed)) {
      return true;
    }
    return has_deadline && MonotonicNow() >= deadline;
  }

  // Checks and records the interrupt reason. Must be called from the
  // query's owning thread only (it writes interrupt_status).
  bool CheckInterrupt() {
    if (!interrupt_status.ok()) return true;
    if (cancel_flag != nullptr &&
        cancel_flag->load(std::memory_order_relaxed)) {
      interrupt_status = CancelledError("query cancelled");
      return true;
    }
    if (has_deadline && MonotonicNow() >= deadline) {
      interrupt_status = DeadlineExceededError("query deadline exceeded");
      return true;
    }
    return false;
  }

  // Raises the materialized-bytes high-water mark to `bytes` (the
  // simultaneously-live Table bytes at an operator boundary).
  void AccountTableBytes(uint64_t bytes) {
    if (bytes > metrics.peak_table_bytes) metrics.peak_table_bytes = bytes;
  }

  // Adds the repartition-shuffle cost of moving `tuples` rows.
  void AccountShuffle(uint64_t tuples) {
    if (num_partitions > 1) {
      metrics.shuffled_tuples +=
          tuples * static_cast<uint64_t>(num_partitions - 1) /
          static_cast<uint64_t>(num_partitions);
    }
  }
};

// Records one TaskSpan covering its own lifetime — one morsel or
// partition task — when `enabled` and `ctx` profiles tasks.
class ScopedTaskSpan {
 public:
  ScopedTaskSpan(const ExecContext* ctx, bool enabled, const char* label,
                 size_t index)
      : ctx_(enabled && ctx != nullptr && ctx->ProfileTasks() ? ctx : nullptr),
        label_(label),
        index_(index),
        start_(ctx_ != nullptr ? MonotonicNow() : MonotonicTime{}) {}
  ~ScopedTaskSpan() {
    if (ctx_ != nullptr) {
      ctx_->task_spans->Record(label_, index_, ctx_->profile_origin, start_,
                               MonotonicNow());
    }
  }

  ScopedTaskSpan(const ScopedTaskSpan&) = delete;
  ScopedTaskSpan& operator=(const ScopedTaskSpan&) = delete;

 private:
  const ExecContext* ctx_;
  const char* label_;
  size_t index_;
  MonotonicTime start_;
};

}  // namespace s2rdf::engine

#endif  // S2RDF_ENGINE_EXEC_CONTEXT_H_
