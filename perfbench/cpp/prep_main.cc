// perfbench_prep — untimed set-up for the live workloads.
//
//   perfbench_prep --trace T.adst --out-dir D [--split 2]
//
// Re-orders the trace by timestamp (a live vantage point sees traffic in
// time order; `adscope gen` writes it household by household) and
// pre-encodes it as .adst wire bytes without an end marker:
//   D/ingest.<i>.wire  one stream per ingest connection, records split
//                      by subscriber (client address)
//   D/dash.wire        the whole trace as one stream
// Each .wire has a .idx of little-endian u64 pairs: (header_end, 0),
// then (end_offset, timestamp_ms) per record. D/prep.json summarizes.
#include <cstdio>
#include <cstring>
#include <ctime>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common.h"
#include "live/replay.h"
#include "trace/mmap_reader.h"
#include "trace/record.h"
#include "trace/writer.h"

namespace {

using namespace adscope;

struct EncodedStream {
  std::ostringstream bytes;
  trace::TraceEncoder encoder{bytes};
  std::string index;

  void note(std::uint64_t value, std::uint64_t timestamp_ms) {
    const std::uint64_t pair[2] = {value, timestamp_ms};
    index.append(reinterpret_cast<const char*>(pair), sizeof pair);
  }
  void meta(const trace::TraceMeta& meta) {
    encoder.on_meta(meta);
    note(static_cast<std::uint64_t>(bytes.tellp()), 0);
  }
  void http(const trace::HttpTransaction& txn) {
    encoder.on_http(txn);
    note(static_cast<std::uint64_t>(bytes.tellp()), txn.timestamp_ms);
  }
  void tls(const trace::TlsFlow& flow) {
    encoder.on_tls(flow);
    note(static_cast<std::uint64_t>(bytes.tellp()), flow.timestamp_ms);
  }
  void save(const std::string& prefix) {
    perfbench::write_file(prefix + ".wire", bytes.view());
    perfbench::write_file(prefix + ".idx", index);
  }
};

/// Routes each time-ordered record to the dashboard stream and to the
/// ingest stream of its subscriber.
class Splitter final : public trace::TraceSink {
 public:
  explicit Splitter(std::size_t split) {
    for (std::size_t i = 0; i < split; ++i) {
      ingest.push_back(std::make_unique<EncodedStream>());
    }
  }
  void on_meta(const trace::TraceMeta& meta) override {
    dash.meta(meta);
    for (auto& stream : ingest) stream->meta(meta);
  }
  void on_http(const trace::HttpTransaction& txn) override {
    if (first_ts == 0) first_ts = txn.timestamp_ms;
    dash.http(txn);
    ingest[route(txn.client_ip)]->http(txn);
  }
  void on_tls(const trace::TlsFlow& flow) override {
    if (first_ts == 0) first_ts = flow.timestamp_ms;
    dash.tls(flow);
    ingest[route(flow.client_ip)]->tls(flow);
  }

  EncodedStream dash;
  std::vector<std::unique_ptr<EncodedStream>> ingest;
  std::uint64_t first_ts = 0;

 private:
  // A multiplicative mix unrelated to the daemon's shard hash, so every
  // connection feeds every shard.
  std::size_t route(netdb::IpV4 ip) const {
    return static_cast<std::size_t>(
        ((static_cast<std::uint64_t>(ip) * 0x9E3779B97F4A7C15ULL) >> 32) %
        ingest.size());
  }
};

std::string arg(int argc, char** argv, const char* name, const char* fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return fallback;
}

}  // namespace

int main(int argc, char** argv) {
  const auto trace_path = arg(argc, argv, "--trace", "");
  const auto out_dir = arg(argc, argv, "--out-dir", "");
  const auto split = std::strtoull(arg(argc, argv, "--split", "2").c_str(),
                                   nullptr, 10);
  if (trace_path.empty() || out_dir.empty() || split == 0) {
    std::fprintf(stderr,
                 "usage: perfbench_prep --trace T --out-dir D [--split N]\n");
    return 2;
  }
  try {
    trace::MemoryTrace buffered;
    trace::MmapTraceReader(trace_path).replay(buffered);
    live::sort_by_time(buffered);
    Splitter splitter(split);
    live::replay_time_ordered(buffered, splitter);

    splitter.dash.save(out_dir + "/dash");
    std::string counts;
    for (std::size_t i = 0; i < split; ++i) {
      splitter.ingest[i]->save(out_dir + "/ingest." + std::to_string(i));
      counts += (i ? "," : "") +
                std::to_string(splitter.ingest[i]->encoder.records_written());
    }
    const auto day_s = static_cast<std::time_t>(splitter.first_ts / 1000);
    std::tm utc{};
    gmtime_r(&day_s, &utc);
    char day[16];
    std::strftime(day, sizeof day, "%Y-%m-%d", &utc);
    perfbench::write_file(
        out_dir + "/prep.json",
        "{\"records\":" +
            std::to_string(splitter.dash.encoder.records_written()) +
            ",\"first_ts_ms\":" + std::to_string(splitter.first_ts) +
            ",\"day\":\"" + day + "\",\"ingest_records\":[" + counts + "]}\n");
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench_prep: %s\n", error.what());
    return 1;
  }
  return 0;
}
