// Shared pieces of the benchmark programs: clocks, percentiles, a
// keep-alive HTTP/1.1 client, Prometheus text scraping, the in-memory
// span log of the traced run, and the metric/JSON output helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double ns_to_ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample;
/// 0 for an empty sample.
double quantile(std::vector<double> values, double q);

std::string read_file(const std::string& path);
void write_file(const std::string& path, std::string_view bytes);

/// Blocking TCP connection to 127.0.0.1:port; -1 on failure.
int connect_loopback(std::uint16_t port);
/// send() until done; adds the time spent inside send() to *blocked_ns.
bool send_all_timed(int fd, std::string_view data, std::int64_t* blocked_ns);

/// One keep-alive HTTP/1.1 connection. Reconnects transparently when
/// the server closed it (request cap, idle timeout); a refused or reset
/// connection is reported as status 0.
class HttpClient {
 public:
  explicit HttpClient(std::uint16_t port) : port_(port) {}
  ~HttpClient();
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  struct Response {
    int status = 0;  // 0 = transport failure
    std::string body;
    std::string etag;
  };
  Response get(std::string_view target, std::string_view if_none_match = {});

 private:
  bool ensure_connected();
  void disconnect();
  bool read_response(Response& out, bool& keep_alive);

  std::uint16_t port_;
  int fd_ = -1;
  std::string buf_;
};

/// Value of the first Prometheus sample whose line starts with `series`
/// (name plus optional label block), or -1 when absent.
double prom_value(std::string_view text, std::string_view series);
/// Label value `label` of the first sample of `name` whose value is 1
/// (the info-gauge convention of adscoped_simd / adscoped_net_backend).
std::string prom_label(std::string_view text, std::string_view name,
                       std::string_view label, std::string_view match = {});

/// Span log of the traced run: name, start, end, parent, batch/request
/// id. Spans stay in memory until the process summarizes them at exit.
class SpanLog {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int64_t parent;  // index into the same thread's buffer, or -1
    std::uint64_t id;
  };
  /// Per-thread buffer; cheap to append, merged by totals().
  class Buffer {
   public:
    std::int64_t begin(const char* name, std::uint64_t id,
                       std::int64_t parent = -1) {
      spans_.push_back({name, now_ns(), 0, parent, id});
      return static_cast<std::int64_t>(spans_.size() - 1);
    }
    void end(std::int64_t index) {
      spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
    }

   private:
    friend class SpanLog;
    std::vector<Span> spans_;
  };

  /// A buffer owned by the log; valid for the log's lifetime.
  Buffer& buffer();

  struct Totals {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    /// total_ns minus the time covered by direct child spans.
    std::int64_t self_ns = 0;
    std::vector<double> durations_ms;
  };
  std::map<std::string, Totals> totals() const;
  std::size_t span_count() const;

 private:
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// Ordered name -> value map printed as the benchmark's JSON objects.
class Metrics {
 public:
  void set(const std::string& name, double value) { values_[name] = value; }
  /// 0 when `name` was never set.
  double get(const std::string& name) const {
    const auto it = values_.find(name);
    return it == values_.end() ? 0.0 : it->second;
  }
  void set_text(const std::string& name, const std::string& value) {
    text_[name] = value;
  }
  std::string json() const;

 private:
  std::map<std::string, double> values_;
  std::map<std::string, std::string> text_;
};

}  // namespace perfbench
