#include "http_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "arith.h"

namespace perfbench {

namespace {

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

double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// Finds header `lower_name` in `lower_head` (a lowercased response head
// ending in "\r\n"); stores its value, without surrounding blanks.
bool FindHeader(const std::string& lower_head, const std::string& lower_name,
                std::string* value) {
  const size_t at = lower_head.find("\r\n" + lower_name + ":");
  if (at == std::string::npos) return false;
  auto blank = [&](size_t i) {
    return lower_head[i] == ' ' || lower_head[i] == '\t';
  };
  size_t begin = at + 3 + lower_name.size();
  size_t end = lower_head.find("\r\n", begin);
  while (begin < end && blank(begin)) ++begin;
  while (end > begin && blank(end - 1)) --end;
  *value = lower_head.substr(begin, end - begin);
  return true;
}

bool SendAll(int fd, const std::string& wire) {
  size_t written = 0;
  while (written < wire.size()) {
    // MSG_NOSIGNAL: a connection the server closed fails the send
    // instead of raising SIGPIPE.
    ssize_t n = send(fd, wire.data() + written, wire.size() - written,
                     MSG_NOSIGNAL);
    if (n <= 0) return false;
    written += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

std::string BuildGetRequest(const std::string& query) {
  return "GET /sparql?query=" + UrlEncode(query) +
         " HTTP/1.1\r\nHost: localhost\r\n\r\n";
}

bool HttpConnection::Connect() {
  fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port_));
  if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Close();
    return false;
  }
  return true;
}

void HttpConnection::Close() {
  if (fd_ >= 0) close(fd_);
  fd_ = -1;
}

HttpReply HttpConnection::Exchange(const std::string& wire, bool keep_body) {
  const bool reused = open();
  bool silent = false;
  HttpReply reply = Attempt(wire, keep_body, &silent);
  if (!reply.transport_ok && reused && silent) {
    reply = Attempt(wire, keep_body, &silent);
  }
  return reply;
}

HttpReply HttpConnection::Attempt(const std::string& wire, bool keep_body,
                                  bool* silent) {
  HttpReply reply;
  *silent = true;
  if (!open() && !Connect()) return reply;
  if (!SendAll(fd_, wire)) {
    Close();
    return reply;
  }
  // Keep the head (and the body only when asked); count the rest.
  std::string head;
  size_t head_end = std::string::npos;
  std::string lower;  // Lowercased head, up to its last "\r\n".
  bool framed = false;
  uint64_t content_length = 0;
  static thread_local std::vector<char> buf(1 << 16);
  while (head_end == std::string::npos || !framed ||
         reply.body_bytes < content_length) {
    ssize_t n = read(fd_, buf.data(), buf.size());
    if (n <= 0) break;
    *silent = false;
    if (head_end != std::string::npos) {
      reply.body_bytes += static_cast<uint64_t>(n);
      if (keep_body) reply.body.append(buf.data(), static_cast<size_t>(n));
      continue;
    }
    head.append(buf.data(), static_cast<size_t>(n));
    head_end = head.find("\r\n\r\n");
    if (head_end == std::string::npos) continue;
    reply.body_bytes = head.size() - (head_end + 4);
    if (keep_body) reply.body = head.substr(head_end + 4);
    lower = head.substr(0, head_end + 2);
    std::transform(lower.begin(), lower.end(), lower.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    std::string value;
    framed = FindHeader(lower, "content-length", &value);
    content_length = std::strtoull(value.c_str(), nullptr, 10);
  }
  if (head_end == std::string::npos || head.compare(0, 9, "HTTP/1.1 ") != 0 ||
      (framed && reply.body_bytes != content_length)) {
    Close();
    reply.body_bytes = 0;
    return reply;
  }
  reply.transport_ok = true;
  reply.status = std::atoi(head.c_str() + 9);
  std::string value;
  reply.has_trace_id = FindHeader(lower, "x-s2rdf-trace-id", &value);
  if (FindHeader(lower, "connection", &value) && value == "close") {
    // Let the server close first, as it would without framing.
    while (read(fd_, buf.data(), buf.size()) > 0) {
    }
    Close();
  } else if (!framed) {
    Close();  // Read to EOF already.
  }
  return reply;
}

double LoadResult::AchievedRate() const {
  return window_s > 0.0 ? static_cast<double>(samples.size()) / window_s
                        : 0.0;
}

std::vector<double> LoadResult::Latencies() const {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const Sample& s : samples) {
    out.push_back(s.ok ? s.latency_ms : kFailedLatency);
  }
  return out;
}

std::vector<double> LoadResult::Lags() const {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const Sample& s : samples) out.push_back(s.lag_ms);
  return out;
}

namespace {

// Shared bookkeeping of one drive.
struct DriveState {
  std::atomic<int> connections{0};  // Client connections open now.
  std::atomic<int> peak{0};
  std::atomic<uint64_t> wrong{0};
  std::atomic<uint64_t> failed{0};
  std::atomic<uint64_t> untraced{0};

  Sample Exchange(HttpConnection* conn, const std::string& wire,
                  const Expectation& e, Clock::time_point due) {
    Sample s;
    const auto sent = Clock::now();
    if (!conn->open()) {  // This exchange opens a connection.
      const int now = connections.fetch_add(1) + 1;
      int prev = peak.load();
      while (now > prev && !peak.compare_exchange_weak(prev, now)) {
      }
    }
    HttpReply r = conn->Exchange(wire, false);
    if (!conn->open()) connections.fetch_sub(1);
    const auto done = Clock::now();
    s.lag_ms = MillisBetween(due, sent);
    s.latency_ms = MillisBetween(due, done);
    if (!r.transport_ok || r.status != 200) {
      failed.fetch_add(1);
    } else if (!r.has_trace_id) {
      untraced.fetch_add(1);
    } else if (r.body_bytes != e.body_bytes) {
      wrong.fetch_add(1);
    } else {
      s.ok = true;
    }
    return s;
  }

  void Fill(LoadResult* result) const {
    result->peak_connections = peak.load();
    result->wrong_answers = wrong.load();
    result->failures = failed.load();
    result->missing_trace = untraced.load();
  }
};

}  // namespace

LoadResult DriveOpenLoop(int port, const std::vector<std::string>& wires,
                         const std::vector<Expectation>& expect,
                         const std::vector<uint32_t>& sequence, double rate,
                         int threads) {
  LoadResult result;
  result.threads = threads;
  result.samples.resize(sequence.size());
  result.sent = sequence;
  std::vector<Clock::time_point> finished(sequence.size());
  DriveState state;
  const auto t0 = Clock::now() + std::chrono::milliseconds(20);
  const auto period = std::chrono::duration<double>(1.0 / rate);
  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      HttpConnection conn(port);
      for (size_t i = static_cast<size_t>(t); i < sequence.size();
           i += static_cast<size_t>(threads)) {
        const auto due =
            t0 + std::chrono::duration_cast<Clock::duration>(
                     period * static_cast<double>(i));
        std::this_thread::sleep_until(due);
        const uint32_t r = sequence[i];
        result.samples[i] = state.Exchange(&conn, wires[r], expect[r], due);
        finished[i] = Clock::now();
      }
    });
  }
  for (std::thread& t : pool) t.join();
  state.Fill(&result);
  auto last = t0;
  for (const auto& f : finished) last = std::max(last, f);
  result.window_s = std::chrono::duration<double>(last - t0).count();
  return result;
}

LoadResult DriveSaturation(int port, const std::vector<std::string>& wires,
                           const std::vector<Expectation>& expect,
                           const std::vector<uint32_t>& sequence,
                           double seconds, int threads) {
  LoadResult result;
  result.threads = threads;
  DriveState state;
  const auto t0 = Clock::now();
  const auto end = t0 + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
  std::atomic<size_t> next{0};
  std::vector<std::vector<Sample>> per_thread(static_cast<size_t>(threads));
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      HttpConnection conn(port);
      while (Clock::now() < end) {
        const uint32_t r =
            sequence[next.fetch_add(1) % sequence.size()];
        per_thread[static_cast<size_t>(t)].push_back(
            state.Exchange(&conn, wires[r], expect[r], Clock::now()));
      }
    });
  }
  for (std::thread& t : pool) t.join();
  state.Fill(&result);
  for (auto& samples : per_thread) {
    result.samples.insert(result.samples.end(), samples.begin(),
                          samples.end());
  }
  result.window_s = std::chrono::duration<double>(Clock::now() - t0).count();
  return result;
}

LoadResult DriveClosedLoop(int port, const std::vector<std::string>& wires,
                           const std::vector<Expectation>& expect,
                           const std::vector<uint32_t>& sequence,
                           double seconds, size_t pass) {
  LoadResult result;
  result.threads = 1;
  DriveState state;
  HttpConnection conn(port);
  const auto t0 = Clock::now();
  const auto end = t0 + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
  for (size_t i = 0; i % pass != 0 || i == 0 || Clock::now() < end; ++i) {
    const uint32_t r = sequence[i % sequence.size()];
    result.sent.push_back(r);
    result.samples.push_back(
        state.Exchange(&conn, wires[r], expect[r], Clock::now()));
  }
  state.Fill(&result);
  result.window_s =
      std::chrono::duration<double>(Clock::now() - t0).count();
  return result;
}

}  // namespace perfbench
