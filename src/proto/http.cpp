#include "proto/http.hpp"

#include <algorithm>

#include "util/format.hpp"

namespace tts::proto {

namespace {

std::string_view reason_phrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 301: return "Moved Permanently";
    case 302: return "Found";
    case 400: return "Bad Request";
    case 403: return "Forbidden";
    case 404: return "Not Found";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

// Split a wire buffer into header block and body at the CRLFCRLF boundary.
struct Split {
  std::string head;
  std::string body;
};
std::optional<Split> split_head(std::span<const std::uint8_t> wire) {
  std::string text(wire.begin(), wire.end());
  std::size_t end = text.find("\r\n\r\n");
  if (end == std::string::npos) return std::nullopt;
  return Split{text.substr(0, end), text.substr(end + 4)};
}

std::optional<std::string> header_value(const std::string& head,
                                        std::string_view name) {
  std::size_t pos = 0;
  while (pos < head.size()) {
    std::size_t eol = head.find("\r\n", pos);
    std::string_view line(head.data() + pos,
                          (eol == std::string::npos ? head.size() : eol) - pos);
    std::size_t colon = line.find(':');
    if (colon != std::string_view::npos &&
        util::istarts_with(line.substr(0, colon), name) &&
        colon == name.size()) {
      std::string_view v = line.substr(colon + 1);
      while (!v.empty() && v.front() == ' ') v.remove_prefix(1);
      return std::string(v);
    }
    if (eol == std::string::npos) break;
    pos = eol + 2;
  }
  return std::nullopt;
}

}  // namespace

std::vector<std::uint8_t> HttpRequest::serialize() const {
  std::string out = method + " " + target + " HTTP/1.1\r\n";
  if (!host.empty()) out += "Host: " + host + "\r\n";
  out += "User-Agent: " + user_agent + "\r\n";
  out += "Accept: */*\r\nConnection: close\r\n\r\n";
  return std::vector<std::uint8_t>(out.begin(), out.end());
}

std::optional<HttpRequest> HttpRequest::parse(
    std::span<const std::uint8_t> wire) {
  auto split = split_head(wire);
  if (!split) return std::nullopt;
  std::size_t eol = split->head.find("\r\n");
  std::string request_line =
      eol == std::string::npos ? split->head : split->head.substr(0, eol);
  std::size_t sp1 = request_line.find(' ');
  std::size_t sp2 = request_line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos)
    return std::nullopt;
  if (request_line.substr(sp2 + 1).rfind("HTTP/", 0) != 0)
    return std::nullopt;
  HttpRequest req;
  req.method = request_line.substr(0, sp1);
  req.target = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
  req.host = header_value(split->head, "Host").value_or("");
  req.user_agent = header_value(split->head, "User-Agent").value_or("");
  return req;
}

std::vector<std::uint8_t> HttpResponse::serialize() const {
  // Every device HTTP reply comes through here: write the bytes straight
  // into the one buffer returned (the fixed head is under 160 bytes).
  std::vector<std::uint8_t> out;
  out.reserve(160 + server.size() + body.size());
  auto put = [&out](std::string_view s) {
    out.insert(out.end(), s.begin(), s.end());
  };
  put("HTTP/1.1 ");
  put(std::to_string(status));
  put(" ");
  put(reason_phrase(status));
  put("\r\n");
  if (!server.empty()) {
    put("Server: ");
    put(server);
    put("\r\n");
  }
  put("Content-Type: text/html; charset=utf-8\r\nContent-Length: ");
  put(std::to_string(body.size()));
  put("\r\nConnection: close\r\n\r\n");
  put(body);
  return out;
}

std::optional<HttpResponse> HttpResponse::parse(
    std::span<const std::uint8_t> wire) {
  auto split = split_head(wire);
  if (!split) return std::nullopt;
  if (split->head.rfind("HTTP/1.", 0) != 0) return std::nullopt;
  std::size_t sp = split->head.find(' ');
  if (sp == std::string::npos || sp + 4 > split->head.size())
    return std::nullopt;
  int status = 0;
  for (std::size_t i = sp + 1; i < sp + 4; ++i) {
    char c = split->head[i];
    if (c < '0' || c > '9') return std::nullopt;
    status = status * 10 + (c - '0');
  }
  HttpResponse resp;
  resp.status = status;
  resp.server = header_value(split->head, "Server").value_or("");
  resp.body = std::move(split->body);
  return resp;
}

std::string html_page(const std::string& title) {
  std::string out = "<!DOCTYPE html>\n<html><head>";
  if (!title.empty()) out += "<title>" + title + "</title>";
  out += "</head><body><h1>";
  out += title.empty() ? std::string("It works") : title;
  out += "</h1></body></html>\n";
  return out;
}

std::optional<std::string> extract_title(const std::string& html) {
  auto lower = util::to_lower(html);
  std::size_t open = lower.find("<title>");
  if (open == std::string::npos) return std::nullopt;
  std::size_t start = open + 7;
  std::size_t close = lower.find("</title>", start);
  if (close == std::string::npos) return std::nullopt;
  return html.substr(start, close - start);
}

}  // namespace tts::proto
