#include "server/http.h"

#include <cctype>

#include "common/strings.h"

namespace s2rdf::server {

std::string HttpRequest::Header(const std::string& lower_name) const {
  auto it = headers.find(lower_name);
  return it == headers.end() ? "" : it->second;
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
  out += "Connection: close\r\n";
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
  std::string_view head = raw.substr(0, head_end);
  HttpRequest request;
  request.body = std::string(raw.substr(head_end + 4));

  size_t line_end = head.find("\r\n");
  std::string_view request_line =
      line_end == std::string_view::npos ? head : head.substr(0, line_end);
  std::vector<std::string> parts =
      StrSplit(std::string(request_line), ' ');
  if (parts.size() < 3) {
    return InvalidArgumentError("malformed HTTP request line");
  }
  request.method = parts[0];
  std::string target = parts[1];
  size_t question = target.find('?');
  if (question == std::string::npos) {
    request.path = target;
  } else {
    request.path = target.substr(0, question);
    request.query_string = target.substr(question + 1);
  }

  // Headers.
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
