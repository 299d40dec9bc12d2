#ifndef S2RDF_SERVER_HTTP_H_
#define S2RDF_SERVER_HTTP_H_

#include <map>
#include <string>
#include <string_view>

#include "common/status.h"

// Minimal HTTP/1.1 plumbing for the SPARQL Protocol endpoint: request
// parsing, response serialization, percent-decoding and query-string
// handling. Deliberately small — one request per connection (every
// response says `Connection: close`), no keep-alive, no chunked
// encoding. The endpoint sends a response as two buffers, Head() and
// the body, in one gathered write, so a large body is never copied;
// Serialize() joins them for callers that want one string.

namespace s2rdf::server {

struct HttpRequest {
  std::string method;                  // "GET", "POST", ...
  std::string path;                    // Path without the query string.
  std::string query_string;            // Raw text after '?'.
  std::map<std::string, std::string> headers;  // Lower-cased names.
  std::string body;

  // A header value, or "" when absent.
  std::string Header(const std::string& lower_name) const;
};

struct HttpResponse {
  int status_code = 200;
  std::string content_type = "text/plain; charset=utf-8";
  // Extra response headers (e.g. X-S2RDF-Trace-Id), emitted verbatim
  // after the built-in Content-Type/Content-Length/Connection trio.
  // Names that collide with the built-ins are skipped.
  std::map<std::string, std::string> headers;
  std::string body;

  // Status line + headers + the blank line that ends them.
  std::string Head() const;
  // Head() + body.
  std::string Serialize() const;
};

// Parses the head + body of an HTTP/1.1 request. Requires the full
// request text (the server reads until Content-Length is satisfied).
StatusOr<HttpRequest> ParseHttpRequest(std::string_view raw);

// Decodes %XX escapes and '+' (form encoding).
std::string PercentDecode(std::string_view encoded);

// Parses "a=1&b=2" (values percent-decoded).
std::map<std::string, std::string> ParseQueryString(std::string_view qs);

// Human-readable reason phrase for a status code.
std::string_view ReasonPhrase(int status_code);

}  // namespace s2rdf::server

#endif  // S2RDF_SERVER_HTTP_H_
