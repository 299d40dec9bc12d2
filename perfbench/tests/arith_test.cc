// Tests of the benchmark's own arithmetic: percentiles under the
// ten-samples-beyond rule, the knee search, span self time and the
// order-insensitive solution-bag digest.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>

#include "arith.h"
#include "trace.h"

namespace perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(PercentileTest, NearestRankOnShuffledInput) {
  std::vector<double> v = OneTo(200);
  std::shuffle(v.begin(), v.end(), std::mt19937(7));
  Percentile p50 = ComputePercentile(v, 0.5);
  EXPECT_EQ(p50.value, 100);
  EXPECT_EQ(p50.beyond, 100u);
  Percentile p90 = ComputePercentile(v, 0.9);
  EXPECT_EQ(p90.value, 180);
  EXPECT_EQ(p90.beyond, 20u);
  EXPECT_TRUE(p90.reportable);
}

TEST(PercentileTest, TenSamplesBeyondRule) {
  // 100 samples: p90 is rank 90 with exactly 10 beyond -> reportable;
  // 99 samples: rank 90 leaves 9 beyond -> not.
  EXPECT_TRUE(ComputePercentile(OneTo(100), 0.9).reportable);
  EXPECT_FALSE(ComputePercentile(OneTo(99), 0.9).reportable);
  // p99 needs 1000 samples.
  EXPECT_FALSE(ComputePercentile(OneTo(999), 0.99).reportable);
  EXPECT_TRUE(ComputePercentile(OneTo(1000), 0.99).reportable);
  // The median needs 20.
  EXPECT_FALSE(ComputePercentile(OneTo(19), 0.5).reportable);
  EXPECT_TRUE(ComputePercentile(OneTo(20), 0.5).reportable);
}

TEST(PercentileTest, FailuresLandBeyondEveryLimit) {
  std::vector<double> v = OneTo(100);
  for (int i = 0; i < 15; ++i) v[static_cast<size_t>(i)] = kFailedLatency;
  EXPECT_EQ(ComputePercentile(v, 0.9).value, kFailedLatency);
  EXPECT_LT(ComputePercentile(v, 0.5).value, kFailedLatency);
}

TEST(PercentileTest, MedianOfGroupMediansIsStableAcrossAGap) {
  // Three templates at ~1, ~2 and ~50 ms: the median template is the
  // 2 ms one, whatever the other two do.
  std::vector<double> v;
  std::vector<uint32_t> g;
  for (int i = 0; i < 10; ++i) {
    v.push_back(1.0 + 0.01 * i); g.push_back(0);
    v.push_back(2.0 + 0.01 * i); g.push_back(1);
    v.push_back(50.0 + i);       g.push_back(2);
  }
  EXPECT_DOUBLE_EQ(MedianOfGroupMedians(v, g, 3), 2.045);
  EXPECT_DOUBLE_EQ(MedianOfGroupMedians(v, g, 4), 2.045);  // Empty group.
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
}

TEST(PercentileTest, BestSegmentIgnoresStalledSegments) {
  // Two of five segments ran during a host stall.
  const std::vector<double> p90_ms = {1.3, 7.8, 1.25, 3.5, 1.4};
  EXPECT_DOUBLE_EQ(BestSegment(p90_ms, false), 1.25);
  const std::vector<double> rates = {3500, 1160, 3600, 1700, 3400};
  EXPECT_DOUBLE_EQ(BestSegment(rates, true), 3600);
  EXPECT_DOUBLE_EQ(BestSegment({}, true), 0.0);
}

// A synthetic M/M/1-like server: p90 grows as 1 / (1 - rate / capacity)
// and, past capacity, requests pile up.
RateProbe Synthetic(double rate, double capacity, double service_ms) {
  RateProbe p;
  if (rate >= capacity) {
    p.p90_ms = 1e9;
    p.backlog = true;
    return p;
  }
  p.p90_ms = service_ms * std::log(10.0) / (1.0 - rate / capacity);
  return p;
}

TEST(KneeTest, FindsTheSloCrossingWithinResolution) {
  const double capacity = 3000, service = 0.5, slo = 5.0;
  // p90 == slo at rate = capacity * (1 - service * ln10 / slo).
  const double truth = capacity * (1.0 - service * std::log(10.0) / slo);
  KneeOptions options;
  options.slo_p90_ms = slo;
  options.start_rate = 500;
  options.max_rate = 100000;
  options.resolution = 0.05;
  options.max_probes = 20;
  KneeResult r = SearchKnee(
      options, [&](double rate) { return Synthetic(rate, capacity, service); });
  EXPECT_LE(r.knee, truth);
  EXPECT_GE(r.knee, truth / 1.05);
  for (const RateProbe& p : r.probes) {
    EXPECT_EQ(p.passed, p.rate <= truth);
  }
}

TEST(KneeTest, GrowingBacklogFailsEvenUnderTheSlo) {
  // Latency never crosses the SLO here, but past 2000 req/s the
  // generator's lag grows: the knee must stop at the backlog.
  KneeOptions options;
  options.slo_p90_ms = 1e6;
  options.start_rate = 250;
  options.max_rate = 64000;
  options.resolution = 0.05;
  options.max_probes = 20;
  KneeResult r = SearchKnee(options, [](double rate) {
    RateProbe p;
    p.p90_ms = 1.0;
    std::vector<double> lag;
    for (int i = 0; i < 400; ++i) {
      lag.push_back(rate > 2000 ? 0.01 * i * (rate / 2000.0) : 0.05);
    }
    p.backlog = LagGrows(lag, 1.0);
    return p;
  });
  EXPECT_LE(r.knee, 2000);
  EXPECT_GE(r.knee, 2000 / 1.05);
}

TEST(KneeTest, StartRateFailingSearchesDown) {
  KneeOptions options;
  options.slo_p90_ms = 5;
  options.start_rate = 4000;
  options.max_rate = 8000;
  options.max_probes = 20;
  KneeResult r = SearchKnee(
      options, [](double rate) { return Synthetic(rate, 1000, 0.5); });
  EXPECT_GT(r.knee, 0);
  EXPECT_LT(r.knee, 1000);
}

TEST(LagTest, FlatLagIsNoBacklog) {
  std::vector<double> flat(100, 0.2);
  flat[99] = 50;  // One stall is not a trend.
  EXPECT_FALSE(LagGrows(flat, 1.0));
  std::vector<double> rising;
  for (int i = 0; i < 100; ++i) rising.push_back(0.1 * i);
  EXPECT_TRUE(LagGrows(rising, 1.0));
}

TEST(SpanTest, SelfTimeSubtractsUnionOfChildren) {
  std::vector<Span> spans;
  auto add = [&](uint64_t id, uint64_t parent, int64_t a, int64_t b) {
    Span s;
    s.id = id;
    s.parent = parent;
    s.start_ns = a;
    s.end_ns = b;
    spans.push_back(s);
  };
  add(1, 0, 0, 100);
  add(2, 1, 10, 30);   // Child.
  add(3, 1, 20, 50);   // Overlaps child 2 (another thread).
  add(4, 1, 90, 120);  // Runs past the parent: clipped to 90..100.
  add(5, 2, 12, 18);   // Grandchild: only counts against span 2.
  auto self = SelfTimesNs(spans);
  EXPECT_EQ(self[1], 100 - (40 + 10));
  EXPECT_EQ(self[2], 20 - 6);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[5], 6);
}

TEST(SpanTest, RecorderNestsScopesAndRendersChromeJson) {
  SpanRecorder rec;
  uint64_t outer = 0;
  {
    ScopedSpan a(&rec, "outer", 7);
    outer = a.id();
    ScopedSpan b(&rec, "inner \"quoted\"");
    EXPECT_EQ(rec.CurrentParent(), b.id());
  }
  std::vector<Span> spans = rec.Spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].parent, outer);
  EXPECT_EQ(spans[1].request, 7u);
  std::string json = RenderChromeTrace(spans);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("inner \\\"quoted\\\""), std::string::npos);
  EXPECT_EQ(rec.CurrentParent(), 0u);
}

const char kBag[] =
    R"({"head": {"vars": ["a"]}, "results": {"bindings": [)"
    R"({"a": {"type": "uri", "value": "http://x/{1}"}}, )"
    R"({"a": {"type": "literal", "value": "q\"}"}}, )"
    R"({"a": {"type": "uri", "value": "http://x/{1}"}}]}})";

TEST(DigestTest, OrderInsensitiveMultisetOfRows) {
  const char permuted[] =
      R"({"head": {"vars": ["a"]}, "results": {"bindings": [)"
      R"({"a": {"type": "uri", "value": "http://x/{1}"}}, )"
      R"({"a": {"type": "uri", "value": "http://x/{1}"}}, )"
      R"({"a": {"type": "literal", "value": "q\"}"}}]}})";
  const char fewer[] =
      R"({"head": {"vars": ["a"]}, "results": {"bindings": [)"
      R"({"a": {"type": "uri", "value": "http://x/{1}"}}, )"
      R"({"a": {"type": "literal", "value": "q\"}"}}]}})";
  BagDigest a = DigestSolutionBag(kBag);
  EXPECT_TRUE(a.ok);
  EXPECT_EQ(a.rows, 3u);
  EXPECT_EQ(a, DigestSolutionBag(permuted));
  EXPECT_FALSE(a == DigestSolutionBag(fewer));
  EXPECT_FALSE(DigestSolutionBag("not json").ok);
  const char empty[] = R"({"head": {"vars": []}, "results": {"bindings": []}})";
  EXPECT_TRUE(DigestSolutionBag(empty).ok);
  EXPECT_EQ(DigestSolutionBag(empty).rows, 0u);
}

}  // namespace
}  // namespace perfbench
