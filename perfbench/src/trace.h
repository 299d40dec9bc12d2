#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

// In-memory span recorder for the traced run. The benchmark opens a
// span around each public call it makes into a layer (and the timing
// Env opens one around each file operation the program performs), so
// layer times are measured from outside the program. Spans stay in
// memory and are written once, at exit, as Chrome trace_event JSON
// (loads in Perfetto and chrome://tracing).

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root.
  uint64_t request = 0; // Request (or step) the span belongs to.
  std::string name;
  int64_t start_ns = 0;  // Relative to the recorder's origin.
  int64_t end_ns = 0;
  int thread = 0;        // Small per-thread index, for trace lanes.
};

// Self time of every span: its duration minus the union of the
// intervals its direct children cover (children may overlap when they
// ran on several threads). Keyed by span id, nanoseconds.
std::map<uint64_t, int64_t> SelfTimesNs(const std::vector<Span>& spans);

// Chrome trace_event JSON ("X" complete events, microsecond times).
std::string RenderChromeTrace(const std::vector<Span>& spans);

class SpanRecorder {
 public:
  SpanRecorder();

  // Opens a span; returns its id. `parent` 0 makes a root span.
  uint64_t Begin(const std::string& name, uint64_t parent, uint64_t request);
  void End(uint64_t id);

  // Records a finished span with explicit times (for replayed stage
  // splits reported by the program, e.g. a query's exec time).
  uint64_t Add(const std::string& name, uint64_t parent, uint64_t request,
               Clock::time_point start, Clock::time_point end);

  // The span the calling thread should parent new spans under: set by
  // ScopedSpan for the duration of a call, so the timing Env can hang
  // its file-operation spans under whatever public call caused them.
  // Threads other than the one that opened the scope (pool helpers)
  // fall back to the most recently opened scope.
  uint64_t CurrentParent() const;
  uint64_t CurrentRequest() const;

  std::vector<Span> Spans() const;
  int64_t NowNs() const;

 private:
  friend class ScopedSpan;
  int ThreadIndex();

  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::map<uint64_t, size_t> open_;  // id -> index in spans_.
  std::map<std::thread::id, int> threads_;
  // Innermost open scope per thread, plus the process-wide latest.
  std::map<std::thread::id, std::vector<std::pair<uint64_t, uint64_t>>>
      scopes_;
  std::pair<uint64_t, uint64_t> latest_scope_{0, 0};
  uint64_t next_id_ = 1;
};

// RAII span that also becomes the calling thread's current parent.
// A null recorder makes it a no-op, so untraced code paths share the
// traced code.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const std::string& name,
             uint64_t request = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint64_t id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  uint64_t id_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
