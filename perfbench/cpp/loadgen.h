// Load generator for the live workloads. One process, at most four
// threads and four connections; the same code drives the shipped
// adscoped (perfbench_loadgen) and the in-process daemon of the traced
// run (perfbench_traced).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

/// Pre-encoded .adst wire bytes (no end marker) plus, per record, the
/// offset one past its last byte and its timestamp. Written by
/// perfbench_prep as <name>.wire / <name>.idx.
struct WireStream {
  std::string bytes;
  std::uint64_t header_end = 0;  // end of magic + version + meta
  std::vector<std::uint64_t> end_offset;
  std::vector<std::uint64_t> timestamp_ms;

  static WireStream load(const std::string& prefix);
  std::size_t records() const { return end_offset.size(); }
};

struct IngestConfig {
  std::uint16_t ingest_port = 0;
  std::uint16_t http_port = 0;
  std::vector<const WireStream*> wires;  // one connection each
  /// The daemon's bucket width. The senders advance in rounds of a
  /// quarter bucket of trace time: round r is sent only once /metrics
  /// counts every record of rounds < r - 1 as ingested, so no
  /// connection's records reach the daemon more than three rounds (less
  /// than a bucket) behind another's. The daemon seals a bucket once the
  /// watermark is a bucket past it and drops later records for it as
  /// late.
  std::uint64_t bucket_s = 45;
  std::string gate_target;
};

struct IngestResult {
  std::uint64_t records_sent = 0;
  double ingest_s = 0;  // first byte sent -> all ingested, queues empty
  double send_blocked_share = 0;
  std::vector<double> queue_depth;  // /metrics samples
  std::uint64_t connections = 0;
  std::uint64_t send_errors = 0;
  std::uint64_t http_requests = 0;  // /metrics polls, gate, final scrape
  std::uint64_t http_failures = 0;
  std::string gate_body;
  std::string final_metrics;  // /metrics text after the final seal
  bool completed = false;
};

/// Streams every wire unpaced, detects completion from /metrics
/// (ingested == sent and empty queues), then sends one end marker to
/// force the final seal and fetches `gate_target`.
IngestResult run_ingest(const IngestConfig& config);

struct DashboardConfig {
  std::uint16_t ingest_port = 0;
  std::uint16_t http_port = 0;
  const WireStream* wire = nullptr;
  std::uint64_t records = 0;  // prefix of `wire` to send
  double rate = 30000;        // records per second, open loop
  std::uint64_t bucket_s = 45;
  std::uint64_t seed = 1;
  std::string day;  // UTC day of the first record, YYYY-MM-DD
  std::string gate_target;
};

inline constexpr const char* kQueryClasses[] = {
    "summary_latest", "summary_window", "users_all",  "infra_top",
    "traffic_range",  "rollup_users_daily", "buckets"};
inline constexpr std::size_t kQueryClassCount = 7;

/// Seeded target generator shared by the query clients and the traced
/// run's store probes. `lo`/`hi` bound the bucket ids a range may use.
class QueryMix {
 public:
  QueryMix(std::uint64_t seed, std::string day);
  /// Draws a class from the mix weights.
  std::size_t draw_class();
  std::string target(std::size_t query_class, std::uint64_t lo,
                     std::uint64_t hi);
  /// True for one request in eight.
  bool draw_revalidate();

 private:
  std::uint64_t next();
  double uniform();
  std::uint64_t state_;
  std::string day_;
};

struct DashboardResult {
  std::uint64_t records_sent = 0;
  std::vector<double> freshness_ms;
  std::vector<double> query_ms;
  std::vector<double> query_ms_by_class[kQueryClassCount];
  std::uint64_t queries_attempted = 0;  // the two query clients
  std::uint64_t queries_failed = 0;
  std::uint64_t revalidations = 0;
  std::uint64_t not_modified = 0;
  std::uint64_t polls = 0;  // freshness poller requests
  std::uint64_t poll_failures = 0;
  std::uint64_t freshness_reads = 0;  // sealable buckets
  std::uint64_t missed_buckets = 0;   // sealable, never seen by the poller
  std::uint64_t http_requests = 0;    // gate and final /metrics
  std::uint64_t http_failures = 0;
  double query_window_s = 0;
  std::vector<double> gen_late_ms;
  double send_blocked_share = 0;
  std::uint64_t send_errors = 0;
  std::string gate_body;
  std::string final_metrics;
  bool completed = false;
};

/// Paced ingest on one connection, two closed-loop query clients and a
/// /query/buckets freshness poller.
DashboardResult run_dashboard(const DashboardConfig& config);

/// The metrics both the untraced and the traced run report for a live
/// workload: end-to-end values, generator-side per-layer values, and the
/// raw counters the error accounting needs.
void summarize(const IngestResult& result, Metrics& out);
void summarize(const DashboardResult& result, Metrics& out);

}  // namespace perfbench
