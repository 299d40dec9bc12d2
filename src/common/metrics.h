#ifndef S2RDF_COMMON_METRICS_H_
#define S2RDF_COMMON_METRICS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

// Process-observability primitives: named counters, gauges and
// log-bucketed histograms collected in a MetricsRegistry and rendered
// in the Prometheus text exposition format (version 0.0.4).
//
// Updates are designed for hot paths: a Counter::Increment or
// Histogram::Observe is a handful of relaxed atomic operations, no
// locks, no allocation. Registration (naming a metric) takes a mutex
// and is expected at setup time only; the returned pointers stay valid
// for the registry's lifetime.
//
// A registry is an instantiable object, not a global: the SPARQL
// endpoint owns one per server instance so tests and multi-endpoint
// processes never interleave counts. Code that wants process-global
// metrics can share one registry explicitly.

namespace s2rdf {

// Monotonically increasing count.
class Counter {
 public:
  void Increment(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t Value() const { return v_.load(std::memory_order_relaxed); }

  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

 private:
  std::atomic<uint64_t> v_{0};
};

// Fixed-boundary histogram. Buckets are cumulative in the exposition
// (Prometheus `le` semantics); internally each observation increments
// exactly one bucket counter plus count and sum.
class Histogram {
 public:
  // `bounds` are ascending upper bounds; the +Inf bucket is implicit.
  explicit Histogram(std::vector<double> bounds);

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Observe(double value);

  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  double Sum() const;
  const std::vector<double>& bounds() const { return bounds_; }
  // Cumulative count per bound plus the +Inf total, Prometheus-style.
  std::vector<uint64_t> CumulativeCounts() const;

 private:
  std::vector<double> bounds_;
  // bounds_.size() + 1 per-bucket counters (last = above all bounds).
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;
  std::atomic<uint64_t> count_{0};
  // Bit pattern of a double, added with a CAS loop.
  std::atomic<uint64_t> sum_bits_{0};
};

// `count` log-spaced bucket bounds: start, start*factor, start*factor^2...
std::vector<double> LogBuckets(double start, double factor, int count);

// The default latency bucket ladder: 100us .. ~104s in powers of 2.
std::vector<double> LatencySecondsBuckets();

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Registers (or, for an already-registered name of the same kind,
  // returns) a metric. Returned pointers live as long as the registry.
  Counter* AddCounter(const std::string& name, const std::string& help);
  Histogram* AddHistogram(const std::string& name, const std::string& help,
                          std::vector<double> bounds);
  // Registers a histogram someone else also owns (e.g. a long-lived pool
  // whose series must survive this registry): the registry shares
  // ownership, so neither side can outlive the other's pointer. An
  // already-registered name keeps its histogram.
  void ShareHistogram(const std::string& name, const std::string& help,
                      std::shared_ptr<Histogram> histogram);

  // A gauge is sampled at render time. `fn` must stay valid for the
  // registry's lifetime and must not call back into this registry.
  void AddGauge(const std::string& name, const std::string& help,
                std::function<uint64_t()> fn);

  // An info-style metric: a constant-1 gauge whose payload rides in its
  // labels, Prometheus convention for build/version identity, e.g.
  //   s2rdf_build_info{sha="1a2b3c",build="Release"} 1
  // `labels` is the pre-rendered label body (no braces); values must be
  // already quoted/escaped by the caller. Re-adding a name replaces its
  // labels.
  void AddInfo(const std::string& name, const std::string& help,
               std::string labels);

  // Prometheus text exposition (HELP/TYPE lines plus samples), metrics
  // in registration order. Gauge callbacks are evaluated here.
  std::string RenderPrometheus() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram, kInfo };
  struct Entry {
    std::string name;
    std::string help;
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::shared_ptr<Histogram> histogram;
    std::function<uint64_t()> gauge;
    std::string info_labels;
  };

  mutable Mutex mu_;
  // Entries are append-only; deque-like stability comes from the
  // unique_ptr indirection, so AddCounter results survive growth.
  std::vector<Entry> entries_ S2RDF_GUARDED_BY(mu_);
};

}  // namespace s2rdf

#endif  // S2RDF_COMMON_METRICS_H_
