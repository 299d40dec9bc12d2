#include "common/metrics.h"

#include <algorithm>
#include <bit>
#include <cstdio>

#include "common/check.h"
#include "common/mutex.h"

namespace s2rdf {

namespace {

// Renders a double the way Prometheus clients do: shortest form that
// round-trips reasonably ("0.001", "16384", "1.5e+09").
std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  S2RDF_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()));
  buckets_ = std::make_unique<std::atomic<uint64_t>[]>(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

void Histogram::Observe(double value) {
  size_t i = static_cast<size_t>(
      std::upper_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
  // upper_bound gives the first bound strictly greater; Prometheus `le`
  // is inclusive, so step back onto an exactly-equal bound.
  if (i > 0 && bounds_[i - 1] == value) --i;
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  uint64_t old = sum_bits_.load(std::memory_order_relaxed);
  uint64_t desired;
  do {
    desired = std::bit_cast<uint64_t>(std::bit_cast<double>(old) + value);
  } while (!sum_bits_.compare_exchange_weak(old, desired,
                                            std::memory_order_relaxed));
}

double Histogram::Sum() const {
  return std::bit_cast<double>(sum_bits_.load(std::memory_order_relaxed));
}

std::vector<uint64_t> Histogram::CumulativeCounts() const {
  std::vector<uint64_t> out(bounds_.size() + 1, 0);
  uint64_t running = 0;
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    running += buckets_[i].load(std::memory_order_relaxed);
    out[i] = running;
  }
  return out;
}

std::vector<double> LogBuckets(double start, double factor, int count) {
  S2RDF_CHECK(start > 0.0 && factor > 1.0 && count > 0);
  std::vector<double> bounds;
  bounds.reserve(static_cast<size_t>(count));
  double v = start;
  for (int i = 0; i < count; ++i) {
    bounds.push_back(v);
    v *= factor;
  }
  return bounds;
}

std::vector<double> LatencySecondsBuckets() {
  return LogBuckets(1e-4, 2.0, 21);  // 100us .. ~104.8s.
}

Counter* MetricsRegistry::AddCounter(const std::string& name,
                                     const std::string& help) {
  MutexLock lock(&mu_);
  for (Entry& e : entries_) {
    if (e.name == name) {
      S2RDF_CHECK(e.kind == Kind::kCounter);
      return e.counter.get();
    }
  }
  Entry e;
  e.name = name;
  e.help = help;
  e.kind = Kind::kCounter;
  e.counter = std::make_unique<Counter>();
  Counter* out = e.counter.get();
  entries_.push_back(std::move(e));
  return out;
}

Histogram* MetricsRegistry::AddHistogram(const std::string& name,
                                         const std::string& help,
                                         std::vector<double> bounds) {
  MutexLock lock(&mu_);
  for (Entry& e : entries_) {
    if (e.name == name) {
      S2RDF_CHECK(e.kind == Kind::kHistogram);
      return e.histogram.get();
    }
  }
  Entry e;
  e.name = name;
  e.help = help;
  e.kind = Kind::kHistogram;
  e.histogram = std::make_shared<Histogram>(std::move(bounds));
  Histogram* out = e.histogram.get();
  entries_.push_back(std::move(e));
  return out;
}

void MetricsRegistry::ShareHistogram(const std::string& name,
                                     const std::string& help,
                                     std::shared_ptr<Histogram> histogram) {
  MutexLock lock(&mu_);
  for (const Entry& e : entries_) {
    if (e.name == name) {
      S2RDF_CHECK(e.kind == Kind::kHistogram);
      return;
    }
  }
  Entry e;
  e.name = name;
  e.help = help;
  e.kind = Kind::kHistogram;
  e.histogram = std::move(histogram);
  entries_.push_back(std::move(e));
}

void MetricsRegistry::AddGauge(const std::string& name,
                               const std::string& help,
                               std::function<uint64_t()> fn) {
  MutexLock lock(&mu_);
  for (Entry& e : entries_) {
    if (e.name == name) {
      S2RDF_CHECK(e.kind == Kind::kGauge);
      e.gauge = std::move(fn);
      return;
    }
  }
  Entry e;
  e.name = name;
  e.help = help;
  e.kind = Kind::kGauge;
  e.gauge = std::move(fn);
  entries_.push_back(std::move(e));
}

void MetricsRegistry::AddInfo(const std::string& name,
                              const std::string& help, std::string labels) {
  MutexLock lock(&mu_);
  for (Entry& e : entries_) {
    if (e.name == name) {
      S2RDF_CHECK(e.kind == Kind::kInfo);
      e.info_labels = std::move(labels);
      return;
    }
  }
  Entry e;
  e.name = name;
  e.help = help;
  e.kind = Kind::kInfo;
  e.info_labels = std::move(labels);
  entries_.push_back(std::move(e));
}

std::string MetricsRegistry::RenderPrometheus() const {
  MutexLock lock(&mu_);
  std::string out;
  for (const Entry& e : entries_) {
    if (!e.help.empty()) out += "# HELP " + e.name + " " + e.help + "\n";
    switch (e.kind) {
      case Kind::kCounter:
        out += "# TYPE " + e.name + " counter\n";
        out += e.name + " " + std::to_string(e.counter->Value()) + "\n";
        break;
      case Kind::kGauge:
        out += "# TYPE " + e.name + " gauge\n";
        out += e.name + " " + std::to_string(e.gauge ? e.gauge() : 0) + "\n";
        break;
      case Kind::kInfo:
        out += "# TYPE " + e.name + " gauge\n";
        out += e.name + "{" + e.info_labels + "} 1\n";
        break;
      case Kind::kHistogram: {
        out += "# TYPE " + e.name + " histogram\n";
        const std::vector<double>& bounds = e.histogram->bounds();
        std::vector<uint64_t> cum = e.histogram->CumulativeCounts();
        for (size_t i = 0; i < bounds.size(); ++i) {
          out += e.name + "_bucket{le=\"" + FormatDouble(bounds[i]) + "\"} " +
                 std::to_string(cum[i]) + "\n";
        }
        out += e.name + "_bucket{le=\"+Inf\"} " +
               std::to_string(cum.back()) + "\n";
        out += e.name + "_sum " + FormatDouble(e.histogram->Sum()) + "\n";
        out += e.name + "_count " + std::to_string(e.histogram->Count()) +
               "\n";
        break;
      }
    }
  }
  return out;
}

}  // namespace s2rdf
