#include "server/http.h"

#include <cctype>
#include <utility>

#include "common/strings.h"

namespace s2rdf::server {

namespace {

// Parses a request head: the request line and the header lines, without
// the blank line that ends them.
StatusOr<HttpRequest> ParseHead(std::string_view head) {
  HttpRequest request;
  size_t line_end = head.find("\r\n");
  std::string_view request_line =
      line_end == std::string_view::npos ? head : head.substr(0, line_end);
  std::vector<std::string> parts = StrSplit(request_line, ' ');
  if (parts.size() < 3) {
    return InvalidArgumentError("malformed HTTP request line");
  }
  request.method = parts[0];
  const std::string& target = parts[1];
  size_t question = target.find('?');
  if (question == std::string::npos) {
    request.path = target;
  } else {
    request.path = target.substr(0, question);
    request.query_string = target.substr(question + 1);
  }
  request.version = parts[2];

  size_t pos = line_end == std::string_view::npos ? head.size()
                                                  : line_end + 2;
  while (pos < head.size()) {
    size_t eol = head.find("\r\n", pos);
    if (eol == std::string_view::npos) eol = head.size();
    std::string_view line = head.substr(pos, eol - pos);
    pos = eol + 2;
    size_t colon = line.find(':');
    if (colon == std::string_view::npos) continue;
    std::string name(line.substr(0, colon));
    for (char& c : name) c = static_cast<char>(std::tolower(c));
    request.headers[name] =
        std::string(StripWhitespace(line.substr(colon + 1)));
  }
  return request;
}

HttpRequestStream::Frame Refuse(int status_code, std::string reason,
                                HttpResponse* refusal) {
  refusal->status_code = status_code;
  refusal->body = std::move(reason) + "\n";
  return HttpRequestStream::Frame::kRefused;
}

}  // namespace

std::string HttpRequest::Header(const std::string& lower_name) const {
  auto it = headers.find(lower_name);
  return it == headers.end() ? "" : it->second;
}

bool HttpRequest::KeepAlive() const {
  bool close = false;
  bool keep_alive = false;
  for (const std::string& token : StrSplit(Header("connection"), ',')) {
    std::string option(StripWhitespace(token));
    for (char& c : option) c = static_cast<char>(std::tolower(c));
    close = close || option == "close";
    keep_alive = keep_alive || option == "keep-alive";
  }
  if (close) return false;
  return version != "HTTP/1.0" || keep_alive;
}

std::string_view ReasonPhrase(int status_code) {
  switch (status_code) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 408:
      return "Request Timeout";
    case 413:
      return "Content Too Large";
    case 415:
      return "Unsupported Media Type";
    case 500:
      return "Internal Server Error";
    case 501:
      return "Not Implemented";
    case 503:
      return "Service Unavailable";
  }
  return "Unknown";
}

std::string HttpResponse::Head() const {
  std::string out = "HTTP/1.1 " + std::to_string(status_code) + " " +
                    std::string(ReasonPhrase(status_code)) + "\r\n";
  out += "Content-Type: " + content_type + "\r\n";
  out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  out += keep_alive ? "Connection: keep-alive\r\n" : "Connection: close\r\n";
  for (const auto& [name, value] : headers) {
    if (name == "Content-Type" || name == "Content-Length" ||
        name == "Connection") {
      continue;
    }
    out += name + ": " + value + "\r\n";
  }
  out += "\r\n";
  return out;
}

std::string HttpResponse::Serialize() const { return Head() + body; }

StatusOr<HttpRequest> ParseHttpRequest(std::string_view raw) {
  size_t head_end = raw.find("\r\n\r\n");
  if (head_end == std::string_view::npos) {
    return InvalidArgumentError("incomplete HTTP request head");
  }
  StatusOr<HttpRequest> request = ParseHead(raw.substr(0, head_end));
  if (request.ok()) request->body = std::string(raw.substr(head_end + 4));
  return request;
}

void HttpRequestStream::Append(const char* data, size_t size) {
  buffer_.append(data, size);
}

HttpRequestStream::Frame HttpRequestStream::Next(HttpRequest* request,
                                                 HttpResponse* refusal) {
  if (!head_.has_value()) {
    const size_t head_end = buffer_.find("\r\n\r\n", scanned_);
    if (head_end == std::string::npos) {
      if (buffer_.size() > kMaxRequestBytes) {
        return Refuse(413, "request head exceeds the size limit", refusal);
      }
      scanned_ = buffer_.size() < 3 ? 0 : buffer_.size() - 3;
      return Frame::kIncomplete;
    }
    StatusOr<HttpRequest> head =
        ParseHead(std::string_view(buffer_).substr(0, head_end));
    if (!head.ok()) return Refuse(400, head.status().ToString(), refusal);
    if (head->headers.count("transfer-encoding") > 0) {
      return Refuse(501,
                    "Transfer-Encoding is not supported; frame the body "
                    "with Content-Length",
                    refusal);
    }
    size_t body_size = 0;
    auto length = head->headers.find("content-length");
    if (length != head->headers.end()) {
      const std::string& digits = length->second;
      if (digits.empty() ||
          digits.find_first_not_of("0123456789") != std::string::npos) {
        return Refuse(400, "Content-Length must be a non-negative decimal",
                      refusal);
      }
      // Stops once past the limit, so no length can overflow.
      for (char digit : digits) {
        body_size = body_size * 10 + static_cast<size_t>(digit - '0');
        if (body_size > kMaxRequestBytes) break;
      }
    }
    body_start_ = head_end + 4;
    if (body_start_ > kMaxRequestBytes ||
        body_size > kMaxRequestBytes - body_start_) {
      return Refuse(413, "request exceeds the size limit", refusal);
    }
    head_ = std::move(*head);
    body_size_ = body_size;
    scanned_ = 0;
  }
  if (buffer_.size() - body_start_ < body_size_) return Frame::kIncomplete;
  *request = std::move(*head_);
  head_.reset();
  request->body.assign(buffer_, body_start_, body_size_);
  buffer_.erase(0, body_start_ + body_size_);
  return Frame::kRequest;
}

std::string PercentDecode(std::string_view encoded) {
  std::string out;
  out.reserve(encoded.size());
  for (size_t i = 0; i < encoded.size(); ++i) {
    char c = encoded[i];
    if (c == '+') {
      out += ' ';
    } else if (c == '%' && i + 2 < encoded.size() &&
               std::isxdigit(static_cast<unsigned char>(encoded[i + 1])) &&
               std::isxdigit(static_cast<unsigned char>(encoded[i + 2]))) {
      auto hex = [](char h) {
        if (h >= '0' && h <= '9') return h - '0';
        if (h >= 'a' && h <= 'f') return h - 'a' + 10;
        return h - 'A' + 10;
      };
      out += static_cast<char>(hex(encoded[i + 1]) * 16 +
                               hex(encoded[i + 2]));
      i += 2;
    } else {
      out += c;
    }
  }
  return out;
}

std::map<std::string, std::string> ParseQueryString(std::string_view qs) {
  std::map<std::string, std::string> out;
  size_t start = 0;
  while (start <= qs.size()) {
    size_t amp = qs.find('&', start);
    if (amp == std::string_view::npos) amp = qs.size();
    std::string_view pair = qs.substr(start, amp - start);
    if (!pair.empty()) {
      size_t eq = pair.find('=');
      if (eq == std::string_view::npos) {
        out[PercentDecode(pair)] = "";
      } else {
        out[PercentDecode(pair.substr(0, eq))] =
            PercentDecode(pair.substr(eq + 1));
      }
    }
    if (amp == qs.size()) break;
    start = amp + 1;
  }
  return out;
}

}  // namespace s2rdf::server
