#include "common.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream out;
  out << in.rdbuf();
  return std::move(out).str();
}

void write_file(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write " + path);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) throw std::runtime_error("short write to " + path);
}

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

bool send_all_timed(int fd, std::string_view data, std::int64_t* blocked_ns) {
  while (!data.empty()) {
    const auto start = now_ns();
    const auto n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (blocked_ns != nullptr) *blocked_ns += now_ns() - start;
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

HttpClient::~HttpClient() { disconnect(); }

void HttpClient::disconnect() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buf_.clear();
}

bool HttpClient::ensure_connected() {
  if (fd_ >= 0) return true;
  fd_ = connect_loopback(port_);
  return fd_ >= 0;
}

namespace {

std::string lower(std::string_view text) {
  std::string out(text);
  for (auto& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

}  // namespace

bool HttpClient::read_response(Response& out, bool& keep_alive) {
  char chunk[65536];
  std::size_t header_end = std::string::npos;
  while ((header_end = buf_.find("\r\n\r\n")) == std::string::npos) {
    const auto n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
  const std::string head = lower(std::string_view(buf_).substr(0, header_end));
  if (head.rfind("http/1.1 ", 0) != 0) return false;
  out.status = std::atoi(head.c_str() + 9);
  std::size_t length = 0;
  keep_alive = true;
  std::size_t line = head.find("\r\n");
  while (line != std::string::npos && line < head.size()) {
    const auto next = head.find("\r\n", line + 2);
    const std::string_view field = std::string_view(head).substr(
        line + 2, (next == std::string::npos ? head.size() : next) - line - 2);
    if (field.rfind("content-length:", 0) == 0) {
      length = std::strtoull(std::string(field.substr(15)).c_str(), nullptr, 10);
    } else if (field.rfind("connection:", 0) == 0) {
      keep_alive = field.find("close") == std::string_view::npos;
    } else if (field.rfind("etag:", 0) == 0) {
      // Header values keep their case: re-read from the raw buffer.
      auto value = std::string_view(buf_).substr(line + 2 + 5, field.size() - 5);
      while (!value.empty() && value.front() == ' ') value.remove_prefix(1);
      out.etag = std::string(value);
    }
    line = next;
  }
  const std::size_t body_start = header_end + 4;
  while (buf_.size() < body_start + length) {
    const auto n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
  out.body = buf_.substr(body_start, length);
  buf_.erase(0, body_start + length);
  return true;
}

HttpClient::Response HttpClient::get(std::string_view target,
                                     std::string_view if_none_match) {
  std::string request = "GET ";
  request.append(target);
  request.append(" HTTP/1.1\r\nHost: 127.0.0.1\r\n");
  if (!if_none_match.empty()) {
    request.append("If-None-Match: ");
    request.append(if_none_match);
    request.append("\r\n");
  }
  request.append("\r\n");
  // A keep-alive connection the server has since closed fails on the
  // first attempt without having been processed; retry once on a fresh
  // connection. A failure on a fresh connection is a real one.
  for (int attempt = 0; attempt < 2; ++attempt) {
    const bool fresh = fd_ < 0;
    Response response;
    if (!ensure_connected()) return response;
    bool keep_alive = true;
    if (send_all_timed(fd_, request, nullptr) &&
        read_response(response, keep_alive)) {
      if (!keep_alive) disconnect();
      return response;
    }
    disconnect();
    if (fresh) return Response{};
  }
  return Response{};
}

double prom_value(std::string_view text, std::string_view series) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    auto end = text.find('\n', pos);
    if (end == std::string_view::npos) end = text.size();
    const auto line = text.substr(pos, end - pos);
    if (line.size() > series.size() && line.substr(0, series.size()) == series &&
        line[series.size()] == ' ') {
      return std::strtod(std::string(line.substr(series.size() + 1)).c_str(),
                         nullptr);
    }
    pos = end + 1;
  }
  return -1.0;
}

std::string prom_label(std::string_view text, std::string_view name,
                       std::string_view label, std::string_view match) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    auto end = text.find('\n', pos);
    if (end == std::string_view::npos) end = text.size();
    const auto line = text.substr(pos, end - pos);
    pos = end + 1;
    if (line.substr(0, name.size()) != name || line.size() <= name.size() ||
        line[name.size()] != '{') {
      continue;
    }
    if (!match.empty() && line.find(match) == std::string_view::npos) continue;
    const std::string key = std::string(label) + "=\"";
    const auto at = line.find(key);
    if (at == std::string_view::npos) continue;
    const auto close = line.find('"', at + key.size());
    if (line.substr(line.size() - 2) != " 1") continue;
    return std::string(line.substr(at + key.size(), close - at - key.size()));
  }
  return {};
}

SpanLog::Buffer& SpanLog::buffer() {
  std::lock_guard lock(mutex_);
  buffers_.push_back(std::make_unique<Buffer>());
  buffers_.back()->spans_.reserve(1 << 16);
  return *buffers_.back();
}

std::size_t SpanLog::span_count() const {
  std::lock_guard lock(mutex_);
  std::size_t count = 0;
  for (const auto& buffer : buffers_) count += buffer->spans_.size();
  return count;
}

std::map<std::string, SpanLog::Totals> SpanLog::totals() const {
  std::lock_guard lock(mutex_);
  std::map<std::string, Totals> out;
  for (const auto& buffer : buffers_) {
    const auto& spans = buffer->spans_;
    std::vector<std::int64_t> child_ns(spans.size(), 0);
    for (const auto& span : spans) {
      if (span.parent >= 0) {
        child_ns[static_cast<std::size_t>(span.parent)] +=
            span.end_ns - span.start_ns;
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const auto duration = spans[i].end_ns - spans[i].start_ns;
      auto& totals = out[spans[i].name];
      ++totals.count;
      totals.total_ns += duration;
      totals.self_ns += duration - child_ns[i];
      totals.durations_ms.push_back(ns_to_ms(duration));
    }
  }
  return out;
}

std::string Metrics::json() const {
  std::string out = "{";
  bool first = true;
  char number[64];
  for (const auto& [name, value] : values_) {
    std::snprintf(number, sizeof number, "%.9g", std::isfinite(value) ? value : 0.0);
    out += (first ? "\"" : ",\"") + name + "\":" + number;
    first = false;
  }
  for (const auto& [name, value] : text_) {
    std::string escaped;
    for (char c : value) {
      if (c == '"' || c == '\\') escaped += '\\';
      if (static_cast<unsigned char>(c) >= 0x20) escaped += c;
    }
    out += (first ? "\"" : ",\"") + name + "\":\"" + escaped + "\"";
    first = false;
  }
  return out + "}";
}

}  // namespace perfbench
