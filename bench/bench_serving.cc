// Open-loop serving benchmark: drives the real HTTP endpoint (socket
// accept loop, admission control, epoll workers — the full serving path)
// at fixed arrival rates and reports the latency distribution a client
// would see, queueing delay included.
//
// Open loop means arrivals are scheduled on a fixed clock, independent
// of completions: request i of a rate-R run is sent at t0 + i/R whether
// or not earlier requests finished. Unlike closed-loop (back-to-back)
// drivers this exposes coordinated omission — a slow request delays
// nothing behind it, so its queueing effect lands in the tail where an
// operator would see it.
//
// Latency is measured from the *scheduled* arrival time to the last
// response byte, so dispatch jitter also counts against the server the
// way it does for a real client. The workload is a fixed round-robin
// mix over the WatDiv L/S/F/C families.
//
// Gates (exit 1 on violation):
//   - every response must carry the X-S2RDF-Trace-Id header
//     (observability contract of the serving path);
//   - the error rate (connect failures, non-200s, 503 rejections) must
//     stay within kMaxErrorRate;
//   - when a recorded baseline exists (BENCH_serving.json in the cwd,
//     or $S2RDF_SERVING_BASELINE), the measured p999 per rate must stay
//     under the baseline's recorded p999_floor_ms and the error rate
//     under its error_rate + 0.5% — the regression gate check.sh runs
//     against the committed file.
//
// Output: human table on stderr, JSON on stdout
// (scripts/bench_json.sh captures it as BENCH_serving.json). The JSON
// records p999_floor_ms = measured p999 x 2.5 + 10 ms, the headroom
// future runs are held to.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "bench/bench_util.h"
#include "common/task_pool.h"
#include "core/s2rdf.h"
#include "server/sparql_endpoint.h"
#include "watdiv/generator.h"
#include "watdiv/queries.h"

namespace s2rdf::bench {
namespace {

// Arrival rates driven per run (requests/second). Fixed so the JSON
// schema — and the committed baseline — stays comparable across runs.
constexpr int kRates[] = {25, 50};

// Error budget intrinsic to the harness (no baseline needed): at these
// rates the endpoint must not reject or fail anything beyond noise.
constexpr double kMaxErrorRate = 0.01;

// Headroom recorded into p999_floor_ms: future runs fail the gate
// only past 2.5x the recorded tail plus an absolute 10 ms of slack.
// The multiplier catches real serving regressions; the absolute term
// absorbs single scheduler stalls, which dominate a p999 estimated
// from a few hundred samples (one 10 ms preemption of an oversubscribed
// worker IS the p999 at that sample count).
constexpr double kFloorHeadroom = 2.5;
constexpr double kFloorSlackMs = 10.0;

// Extra error rate a run may show over the recorded baseline.
constexpr double kErrorRateSlack = 0.005;

std::string UrlEncode(const std::string& in) {
  std::string out;
  out.reserve(in.size() * 3);
  for (unsigned char c : in) {
    if ((c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
        (c >= '0' && c <= '9') || c == '-' || c == '_' || c == '.' ||
        c == '~') {
      out += static_cast<char>(c);
    } else {
      char buf[4];
      std::snprintf(buf, sizeof(buf), "%%%02X", c);
      out += buf;
    }
  }
  return out;
}

// One blocking HTTP GET against 127.0.0.1:port. Returns false on any
// transport failure; *status_code / *has_trace reflect the response.
bool HttpGet(int port, const std::string& path_and_query, int* status_code,
             bool* has_trace) {
  *status_code = 0;
  *has_trace = false;
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return false;
  }
  std::string request = "GET " + path_and_query +
                        " HTTP/1.1\r\nHost: localhost\r\n"
                        "Connection: close\r\n\r\n";
  size_t written = 0;
  while (written < request.size()) {
    ssize_t n = write(fd, request.data() + written, request.size() - written);
    if (n <= 0) {
      close(fd);
      return false;
    }
    written += static_cast<size_t>(n);
  }
  std::string response;
  char buf[4096];
  while (true) {
    ssize_t n = read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    response.append(buf, static_cast<size_t>(n));
  }
  close(fd);
  if (response.compare(0, 9, "HTTP/1.1 ") != 0 || response.size() < 12) {
    return false;
  }
  *status_code = std::atoi(response.c_str() + 9);
  *has_trace = response.find("X-S2RDF-Trace-Id:") != std::string::npos;
  return true;
}

struct RateResult {
  int rps = 0;
  size_t requests = 0;
  size_t errors = 0;
  size_t missing_trace = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
  double max_ms = 0.0;
  bool within_floor = true;

  double ErrorRate() const {
    return requests > 0 ? static_cast<double>(errors) /
                              static_cast<double>(requests)
                        : 0.0;
  }
};

double Percentile(std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  size_t rank = static_cast<size_t>(q * static_cast<double>(sorted.size()));
  if (rank >= sorted.size()) rank = sorted.size() - 1;
  return sorted[rank];
}

// Recorded baseline for one rate, parsed from a previous run's JSON.
struct BaselineEntry {
  double p999_floor_ms = 0.0;
  double error_rate = 0.0;
  bool found = false;
};

// Minimal extraction from our own output format: finds the entry block
// for `rps` and pulls its p999_floor_ms / error_rate numbers.
BaselineEntry FindBaseline(const std::string& json, int rps) {
  BaselineEntry entry;
  std::string key = "\"rps\": " + std::to_string(rps) + ",";
  size_t pos = json.find(key);
  if (pos == std::string::npos) return entry;
  size_t end = json.find('}', pos);
  if (end == std::string::npos) return entry;
  std::string block = json.substr(pos, end - pos);
  auto number_after = [&block](const std::string& field, double* out) {
    size_t p = block.find(field);
    if (p == std::string::npos) return false;
    *out = std::atof(block.c_str() + p + field.size());
    return true;
  };
  bool have_floor = number_after("\"p999_floor_ms\": ", &entry.p999_floor_ms);
  bool have_err = number_after("\"error_rate\": ", &entry.error_rate);
  entry.found = have_floor && have_err;
  return entry;
}

RateResult DriveRate(int port, int rps, double seconds,
                     const std::vector<std::string>& paths) {
  const size_t total = static_cast<size_t>(rps * seconds);
  RateResult result;
  result.rps = rps;
  result.requests = total;

  std::vector<double> latencies(total, 0.0);
  std::vector<char> failed(total, 0);
  std::vector<char> traced(total, 0);
  std::atomic<size_t> next{0};

  const auto t0 = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(50);
  const auto period =
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(1.0 / rps));

  // Enough client threads that a slow response almost never delays the
  // next scheduled send (which would quietly re-close the loop).
  const size_t num_clients = std::min<size_t>(32, total);
  std::vector<std::thread> clients;
  clients.reserve(num_clients);
  for (size_t c = 0; c < num_clients; ++c) {
    clients.emplace_back([&, port] {
      while (true) {
        const size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= total) return;
        const auto scheduled = t0 + period * static_cast<int64_t>(i);
        std::this_thread::sleep_until(scheduled);
        int status = 0;
        bool has_trace = false;
        bool ok = HttpGet(port, paths[i % paths.size()], &status, &has_trace);
        const std::chrono::duration<double, std::milli> elapsed =
            std::chrono::steady_clock::now() - scheduled;
        latencies[i] = elapsed.count();
        failed[i] = (!ok || status != 200) ? 1 : 0;
        traced[i] = has_trace ? 1 : 0;
      }
    });
  }
  for (std::thread& t : clients) t.join();

  std::vector<double> ok_latencies;
  ok_latencies.reserve(total);
  for (size_t i = 0; i < total; ++i) {
    if (failed[i]) {
      ++result.errors;
      continue;
    }
    if (!traced[i]) ++result.missing_trace;
    ok_latencies.push_back(latencies[i]);
  }
  std::sort(ok_latencies.begin(), ok_latencies.end());
  result.p50_ms = Percentile(ok_latencies, 0.50);
  result.p99_ms = Percentile(ok_latencies, 0.99);
  result.p999_ms = Percentile(ok_latencies, 0.999);
  result.max_ms = ok_latencies.empty() ? 0.0 : ok_latencies.back();
  return result;
}

int Run() {
  watdiv::GeneratorOptions gen;
  gen.scale_factor = EnvDouble("S2RDF_BENCH_SF", 1.0);
  const double seconds = EnvDouble("S2RDF_BENCH_SERVING_SECONDS", 4.0);

  auto db = core::S2Rdf::Create(watdiv::Generate(gen), {});
  if (!db.ok()) {
    std::fprintf(stderr, "store build failed: %s\n",
                 db.status().ToString().c_str());
    return 1;
  }
  server::EndpointOptions options;
  options.num_workers = 4;
  options.queue_capacity = 64;
  server::SparqlEndpoint endpoint(db->get(), options);
  auto port = endpoint.Start(0);
  if (!port.ok()) {
    std::fprintf(stderr, "endpoint start failed: %s\n",
                 port.status().ToString().c_str());
    return 1;
  }

  // The request mix: one query per WatDiv family, pre-instantiated and
  // pre-encoded so client threads do no per-request work but the send.
  std::vector<std::string> paths;
  for (const char* name : {"L2", "S3", "F3", "C3"}) {
    const watdiv::QueryTemplate* tmpl = watdiv::FindQuery(name);
    if (tmpl == nullptr) continue;
    paths.push_back(
        "/sparql?query=" +
        UrlEncode(InstantiateFor(*tmpl, gen.scale_factor, 0)));
  }
  if (paths.empty()) {
    std::fprintf(stderr, "no workload queries found\n");
    return 1;
  }

  // Recorded baseline, if any: the committed BENCH_serving.json.
  std::string baseline_json;
  {
    const char* env = std::getenv("S2RDF_SERVING_BASELINE");
    // The committed baseline is harness bookkeeping, not store data:
    // it never goes through the fault-injected Env.
    std::ifstream in(env != nullptr ? env : "BENCH_serving.json",  // s2rdf-lint: allow(raw-io)
                     std::ios::binary);
    if (in) {
      std::stringstream buffer;
      buffer << in.rdbuf();
      baseline_json = buffer.str();
    }
  }

  std::vector<RateResult> results;
  bool all_ok = true;
  size_t missing_trace_total = 0;
  for (int rps : kRates) {
    RateResult r = DriveRate(*port, rps, seconds, paths);
    missing_trace_total += r.missing_trace;
    r.within_floor = r.ErrorRate() <= kMaxErrorRate;
    if (!baseline_json.empty()) {
      BaselineEntry baseline = FindBaseline(baseline_json, rps);
      if (baseline.found) {
        if (r.p999_ms > baseline.p999_floor_ms) r.within_floor = false;
        if (r.ErrorRate() > baseline.error_rate + kErrorRateSlack) {
          r.within_floor = false;
        }
      }
    }
    all_ok = all_ok && r.within_floor;
    results.push_back(r);
  }
  endpoint.Stop();
  if (missing_trace_total > 0) {
    std::fprintf(stderr,
                 "error: %zu responses lacked X-S2RDF-Trace-Id\n",
                 missing_trace_total);
    all_ok = false;
  }

  TablePrinter printer({"rate", "requests", "errors", "p50", "p99", "p999",
                        "max", "within floor"});
  for (const RateResult& r : results) {
    printer.AddRow({std::to_string(r.rps) + "/s", std::to_string(r.requests),
                    std::to_string(r.errors), FormatMs(r.p50_ms),
                    FormatMs(r.p99_ms), FormatMs(r.p999_ms),
                    FormatMs(r.max_ms), r.within_floor ? "yes" : "NO"});
  }
  std::fprintf(stderr,
               "Open-loop serving latency (%.0fs per rate, %zu-query mix, "
               "queueing delay included):\n",
               seconds, paths.size());
  printer.Print(stderr);

  std::printf("{\n");
  std::printf("  \"task_pool_parallelism\": %zu,\n",
              TaskPool::Shared()->ParallelismWidth());
  std::printf("  \"seconds_per_rate\": %.1f,\n", seconds);
  std::printf("  \"workload\": [\"L2\", \"S3\", \"F3\", \"C3\"],\n");
  std::printf("  \"floor_headroom\": %.1f,\n", kFloorHeadroom);
  std::printf("  \"floor_slack_ms\": %.1f,\n", kFloorSlackMs);
  std::printf("  \"entries\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const RateResult& r = results[i];
    std::printf("    {\"rps\": %d, \"requests\": %zu, \"errors\": %zu, "
                "\"error_rate\": %.4f, \"p50_ms\": %.3f, \"p99_ms\": %.3f, "
                "\"p999_ms\": %.3f, \"max_ms\": %.3f, "
                "\"p999_floor_ms\": %.3f, \"within_floor\": %s}%s\n",
                r.rps, r.requests, r.errors, r.ErrorRate(), r.p50_ms,
                r.p99_ms, r.p999_ms, r.max_ms,
                r.p999_ms * kFloorHeadroom + kFloorSlackMs,
                r.within_floor ? "true" : "false",
                i + 1 < results.size() ? "," : "");
  }
  std::printf("  ],\n");
  std::printf("  \"all_within_floor\": %s\n}\n", all_ok ? "true" : "false");

  return all_ok && !results.empty() ? 0 : 1;
}

}  // namespace
}  // namespace s2rdf::bench

int main() { return s2rdf::bench::Run(); }
