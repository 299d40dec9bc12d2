#ifndef S2RDF_SERVER_HTTP_H_
#define S2RDF_SERVER_HTTP_H_

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "common/status.h"

// Minimal HTTP/1.1 plumbing for the SPARQL Protocol endpoint: request
// framing and parsing, response serialization, percent-decoding and
// query-string handling. Connections are persistent: HttpRequestStream
// frames the requests of one connection out of its byte stream in order
// (pipelined requests included), parsing each head once, and a response
// says `Connection: close` only when the connection ends after it. A
// request's body is framed by Content-Length alone; a request that
// carries Transfer-Encoding is refused, since guessing its length would
// desynchronize the stream. The endpoint sends a response as two
// buffers, Head() and the body, in one gathered write, so a large body
// is never copied; Serialize() joins them for callers that want one
// string.

namespace s2rdf::server {

struct HttpRequest {
  std::string method;                  // "GET", "POST", ...
  std::string path;                    // Path without the query string.
  std::string query_string;            // Raw text after '?'.
  std::string version;                 // "HTTP/1.1", "HTTP/1.0", ...
  std::map<std::string, std::string> headers;  // Lower-cased names.
  std::string body;

  // A header value, or "" when absent.
  std::string Header(const std::string& lower_name) const;

  // Whether the client lets the connection stay open after the answer:
  // HTTP/1.1 unless it says `Connection: close`, HTTP/1.0 only when it
  // says `Connection: keep-alive`.
  bool KeepAlive() const;
};

struct HttpResponse {
  int status_code = 200;
  std::string content_type = "text/plain; charset=utf-8";
  // Extra response headers (e.g. X-S2RDF-Trace-Id), emitted verbatim
  // after the built-in Content-Type/Content-Length/Connection trio.
  // Names that collide with the built-ins are skipped.
  std::map<std::string, std::string> headers;
  std::string body;
  // Emits `Connection: keep-alive` instead of `Connection: close`; the
  // transport sets it when the connection stays open after this answer.
  bool keep_alive = false;

  // Status line + headers + the blank line that ends them.
  std::string Head() const;
  // Head() + body.
  std::string Serialize() const;
};

// Parses the head + body of an HTTP/1.1 request: everything after the
// head is the body.
StatusOr<HttpRequest> ParseHttpRequest(std::string_view raw);

// Frames the requests of one connection out of its byte stream. Bytes
// are appended as they arrive; Next() yields the requests in order. Each
// head is parsed once, when its blank line arrives, and its body is
// waited for by Content-Length.
class HttpRequestStream {
 public:
  // Largest request, head plus body, that is accepted.
  static constexpr size_t kMaxRequestBytes = size_t{64} << 20;

  enum class Frame {
    kIncomplete,  // More bytes are needed.
    kRequest,     // *request holds the next request.
    kRefused,     // *refusal holds the answer; the stream cannot go on.
  };

  void Append(const char* data, size_t size);

  // Frames the next request and drops its bytes from the buffer. Refuses
  // a malformed head or a Content-Length that is not a non-negative
  // decimal (400), a request above kMaxRequestBytes (413), and any
  // Transfer-Encoding (501).
  Frame Next(HttpRequest* request, HttpResponse* refusal);

  // Bytes received that no returned request has consumed.
  size_t buffered() const { return buffer_.size(); }

 private:
  std::string buffer_;
  // Where the search for the head's blank line resumes.
  size_t scanned_ = 0;
  // The parsed head of the request whose body is still arriving, where
  // that body starts in buffer_, and its Content-Length.
  std::optional<HttpRequest> head_;
  size_t body_start_ = 0;
  size_t body_size_ = 0;
};

// Decodes %XX escapes and '+' (form encoding).
std::string PercentDecode(std::string_view encoded);

// Parses "a=1&b=2" (values percent-decoded).
std::map<std::string, std::string> ParseQueryString(std::string_view qs);

// Human-readable reason phrase for a status code.
std::string_view ReasonPhrase(int status_code);

}  // namespace s2rdf::server

#endif  // S2RDF_SERVER_HTTP_H_
