#ifndef PERFBENCH_HTTP_CLIENT_H_
#define PERFBENCH_HTTP_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "trace.h"

// The load generator: a blocking HTTP/1.1 client that keeps its
// connection open for as long as the server does, and the open- and
// closed-loop drivers built on it. Requests arrive as finished wire
// bytes, built at set-up, so a client thread does nothing per request
// but send and receive (and connect, when the server closed the last
// connection).

namespace perfbench {

struct HttpReply {
  bool transport_ok = false;
  int status = 0;
  bool has_trace_id = false;
  uint64_t body_bytes = 0;
  std::string body;  // Only when requested.
};

// Builds "GET /sparql?query=<encoded> HTTP/1.1" wire bytes. The request
// asks for nothing about the connection: HTTP/1.1's default, keep-alive,
// applies unless the server's reply says "Connection: close".
std::string BuildGetRequest(const std::string& query);

// One client connection to 127.0.0.1:port, reused across requests while
// the server keeps it open. Not thread-safe: one per client thread.
class HttpConnection {
 public:
  explicit HttpConnection(int port) : port_(port) {}
  ~HttpConnection() { Close(); }
  HttpConnection(const HttpConnection&) = delete;
  HttpConnection& operator=(const HttpConnection&) = delete;

  // Sends `wire` (connecting first when no connection is open) and reads
  // one reply, framed by its Content-Length. When the reply says
  // "Connection: close" or carries no Content-Length, reads on to EOF, so
  // the server closes first, and closes the connection. A request on a
  // reused connection that the server has closed in the meantime is
  // retried once on a fresh one.
  HttpReply Exchange(const std::string& wire, bool keep_body);

  bool open() const { return fd_ >= 0; }

 private:
  bool Connect();
  void Close();
  // One send and one reply on the current connection; `*silent` is set
  // when no reply byte arrived.
  HttpReply Attempt(const std::string& wire, bool keep_body, bool* silent);

  int port_;
  int fd_ = -1;
};

// What the oracle knows about one distinct request.
struct Expectation {
  uint64_t body_bytes = 0;
};

// One timed request.
struct Sample {
  double latency_ms = 0.0;  // Scheduled send -> last response byte.
  double lag_ms = 0.0;      // Scheduled send -> actual send.
  bool ok = false;          // 200, trace id present, body length right.
};

struct LoadResult {
  std::vector<Sample> samples;  // In schedule order.
  std::vector<uint32_t> sent;   // Request index of each sample.
  double window_s = 0.0;        // First scheduled send -> last completion.
  int threads = 0;
  int peak_connections = 0;     // Most connections open at once.
  uint64_t wrong_answers = 0;   // 200 replies with the wrong body length.
  uint64_t failures = 0;        // Transport errors and non-200 replies.
  uint64_t missing_trace = 0;

  double AchievedRate() const;
  std::vector<double> Latencies() const;  // Failures -> kFailedLatency.
  std::vector<double> Lags() const;
};

// Open loop, wrk2 style: request i is due at t0 + i / rate whether or
// not earlier requests finished, and is timed from that due time.
// `sequence[i]` indexes `wires` / `expect`. Thread t sends requests
// i = t, t + threads, ... on its own HttpConnection, so it holds at most
// one connection.
LoadResult DriveOpenLoop(int port, const std::vector<std::string>& wires,
                         const std::vector<Expectation>& expect,
                         const std::vector<uint32_t>& sequence, double rate,
                         int threads);

// Saturation: `threads` closed-loop clients send `sequence` back to back
// for `seconds`; AchievedRate() of the result is the completion rate.
LoadResult DriveSaturation(int port, const std::vector<std::string>& wires,
                           const std::vector<Expectation>& expect,
                           const std::vector<uint32_t>& sequence,
                           double seconds, int threads);

// Closed loop, one client on one HttpConnection: each request is sent
// when the previous one completed. Runs whole passes of `pass` requests
// until `seconds` have elapsed. Latency is the round trip. `sequence` is
// cycled.
LoadResult DriveClosedLoop(int port, const std::vector<std::string>& wires,
                           const std::vector<Expectation>& expect,
                           const std::vector<uint32_t>& sequence,
                           double seconds, size_t pass);

}  // namespace perfbench

#endif  // PERFBENCH_HTTP_CLIENT_H_
