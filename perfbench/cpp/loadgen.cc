#include "loadgen.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstring>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <thread>

namespace perfbench {

namespace {


void sleep_ms(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

/// Sends the end-of-stream marker (a lone kEnd tag) and waits until the
/// daemon closes the connection, which it does after sealing every
/// bucket and flushing the shard queues.
bool send_end_marker_and_wait(int fd) {
  const char end_tag = 0;
  if (!send_all_timed(fd, std::string_view(&end_tag, 1), nullptr)) return false;
  const auto deadline = now_ns() + 60'000'000'000LL;
  char sink[4096];
  while (now_ns() < deadline) {
    pollfd p{fd, POLLIN, 0};
    if (::poll(&p, 1, 100) <= 0) continue;
    const auto n = ::recv(fd, sink, sizeof sink, 0);
    if (n == 0) return true;
    if (n < 0 && errno != EINTR) return true;  // reset after close
  }
  return false;
}

std::vector<std::uint64_t> bucket_ids(std::string_view body) {
  std::vector<std::uint64_t> ids;
  std::size_t pos = 0;
  while ((pos = body.find("\"id\":", pos)) != std::string_view::npos) {
    pos += 5;
    ids.push_back(std::strtoull(std::string(body.substr(pos, 24)).c_str(),
                                nullptr, 10));
  }
  return ids;
}

}  // namespace

WireStream WireStream::load(const std::string& prefix) {
  WireStream wire;
  wire.bytes = read_file(prefix + ".wire");
  const auto index = read_file(prefix + ".idx");
  if (index.size() % 16 != 0 || index.size() < 16) {
    throw std::runtime_error("malformed index " + prefix + ".idx");
  }
  // First pair: (header_end, 0); then (end_offset, timestamp_ms) per record.
  const std::size_t pairs = index.size() / 16;
  std::uint64_t pair[2];
  std::memcpy(pair, index.data(), 16);
  wire.header_end = pair[0];
  wire.end_offset.reserve(pairs - 1);
  wire.timestamp_ms.reserve(pairs - 1);
  for (std::size_t i = 1; i < pairs; ++i) {
    std::memcpy(pair, index.data() + 16 * i, 16);
    wire.end_offset.push_back(pair[0]);
    wire.timestamp_ms.push_back(pair[1]);
  }
  if (wire.end_offset.empty() ? wire.header_end > wire.bytes.size()
                              : wire.end_offset.back() != wire.bytes.size()) {
    throw std::runtime_error("index does not cover " + prefix + ".wire");
  }
  return wire;
}

IngestResult run_ingest(const IngestConfig& config) {
  IngestResult result;
  const std::size_t n = config.wires.size();
  std::vector<int> fds;
  for (std::size_t i = 0; i < n; ++i) {
    const int fd = connect_loopback(config.ingest_port);
    if (fd < 0) {
      ++result.connections;
      ++result.send_errors;
      for (int open : fds) ::close(open);
      return result;
    }
    fds.push_back(fd);
    ++result.connections;
    result.records_sent += config.wires[i]->records();
  }

  // Round r holds the records with timestamps in [first + r * round_ms,
  // first + (r + 1) * round_ms); records_through[r] counts rounds <= r
  // over every connection.
  std::uint64_t first_ts = std::numeric_limits<std::uint64_t>::max(), last_ts = 0;
  for (const auto* wire : config.wires) {
    if (wire->records() == 0) continue;
    first_ts = std::min(first_ts, wire->timestamp_ms.front());
    last_ts = std::max(last_ts, wire->timestamp_ms.back());
  }
  if (last_ts < first_ts) first_ts = last_ts;
  const std::uint64_t round_ms = std::max<std::uint64_t>(1, config.bucket_s * 1000 / 4);
  const auto round_of = [&](std::uint64_t ts) {
    return static_cast<std::size_t>((ts - first_ts) / round_ms);
  };
  const std::size_t rounds = round_of(last_ts) + 1;
  std::vector<std::uint64_t> records_through(rounds, 0);
  for (const auto* wire : config.wires) {
    for (const auto ts : wire->timestamp_ms) ++records_through[round_of(ts)];
  }
  for (std::size_t r = 1; r < rounds; ++r) records_through[r] += records_through[r - 1];

  std::mutex mutex;
  std::condition_variable released;
  std::size_t allowed_rounds = 2;  // rounds [0, allowed) may be sent
  std::vector<std::int64_t> blocked_ns(n, 0), busy_ns(n, 0);
  std::atomic<std::uint64_t> send_errors{0};
  std::atomic<std::size_t> senders_done{0};

  auto sender = [&](std::size_t i) {
    const WireStream& wire = *config.wires[i];
    const auto start = now_ns();
    std::int64_t blocked = 0;
    bool ok = send_all_timed(
        fds[i], std::string_view(wire.bytes).substr(0, wire.header_end),
        &blocked);
    std::size_t k = 0;
    while (ok && k < wire.records()) {
      const auto round = round_of(wire.timestamp_ms[k]);
      {
        std::unique_lock lock(mutex);
        released.wait(lock, [&] { return round < allowed_rounds; });
      }
      const std::uint64_t begin = k == 0 ? wire.header_end : wire.end_offset[k - 1];
      std::size_t j = k;
      while (j < wire.records() && round_of(wire.timestamp_ms[j]) == round) ++j;
      ok = send_all_timed(
          fds[i],
          std::string_view(wire.bytes).substr(begin, wire.end_offset[j - 1] - begin),
          &blocked);
      k = j;
    }
    if (!ok) send_errors.fetch_add(1);
    {
      std::lock_guard lock(mutex);
      blocked_ns[i] = blocked;
      busy_ns[i] = now_ns() - start;
    }
    senders_done.fetch_add(1);
  };

  HttpClient metrics(config.http_port);
  const auto first_byte = now_ns();
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < n; ++i) threads.emplace_back(sender, i);

  const auto deadline = first_byte + 150'000'000'000LL;
  while (now_ns() < deadline) {
    const auto response = metrics.get("/metrics");
    const auto polled = now_ns();
    ++result.http_requests;
    if (response.status != 200) {
      ++result.http_failures;
      sleep_ms(1);
      continue;
    }
    const double ingested =
        prom_value(response.body, "adscoped_records_ingested_total");
    const double depth = prom_value(response.body, "adscoped_queue_depth");
    result.queue_depth.push_back(depth);
    {
      std::lock_guard lock(mutex);
      const auto before = allowed_rounds;
      while (allowed_rounds < rounds &&
             ingested >= static_cast<double>(records_through[allowed_rounds - 2])) {
        ++allowed_rounds;
      }
      if (allowed_rounds != before) released.notify_all();
    }
    if (senders_done.load() == n &&
        ingested >= static_cast<double>(result.records_sent) && depth == 0) {
      result.ingest_s = static_cast<double>(polled - first_byte) / 1e9;
      result.completed = true;
      break;
    }
    if (send_errors.load() > 0 && senders_done.load() == n) break;
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  if (!result.completed) {
    // Release any sender still waiting for a round.
    std::lock_guard lock(mutex);
    allowed_rounds = rounds;
    released.notify_all();
  }
  for (auto& thread : threads) thread.join();
  result.send_errors += send_errors.load();
  double share = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (busy_ns[i] > 0) {
      share += static_cast<double>(blocked_ns[i]) / static_cast<double>(busy_ns[i]);
    }
  }
  result.send_blocked_share = share / static_cast<double>(n);

  if (result.completed && !send_end_marker_and_wait(fds[0])) {
    ++result.send_errors;
    result.completed = false;
  }
  for (int fd : fds) ::close(fd);
  if (!config.gate_target.empty()) {
    const auto gate = metrics.get(config.gate_target);
    ++result.http_requests;
    if (gate.status != 200) ++result.http_failures;
    result.gate_body = gate.body;
  }
  const auto final_metrics = metrics.get("/metrics");
  ++result.http_requests;
  if (final_metrics.status != 200) ++result.http_failures;
  result.final_metrics = final_metrics.body;
  return result;
}

QueryMix::QueryMix(std::uint64_t seed, std::string day)
    : state_(seed * 0x9E3779B97F4A7C15ULL + 0x1234567ULL), day_(std::move(day)) {}

std::uint64_t QueryMix::next() {  // splitmix64
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double QueryMix::uniform() {
  return static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0);
}

// No measured dashboard traffic gives the classes' shares; these are
// assumed. The live panel (summary/latest) refreshes most, the bucket
// index, ranges and whole-history views less often. Equal shares were
// tried and put the median in the gap between the classes' latency
// bodies, where it moved by up to 40% from seed to seed; with the live
// panel at 60% the median falls inside one class's body. Every class's
// own median is reported beside the pooled one.
std::size_t QueryMix::draw_class() {
  static constexpr double kWeights[kQueryClassCount] = {0.60, 0.06, 0.05, 0.06,
                                                        0.08, 0.05, 0.10};
  double u = uniform();
  for (std::size_t c = 0; c < kQueryClassCount; ++c) {
    if (u < kWeights[c]) return c;
    u -= kWeights[c];
  }
  return kQueryClassCount - 1;
}

bool QueryMix::draw_revalidate() { return next() % 8 == 0; }

std::string QueryMix::target(std::size_t query_class, std::uint64_t lo,
                             std::uint64_t hi) {
  switch (query_class) {
    case 0: return "/query/summary/latest";
    case 1: return "/query/summary/*?window_s=3600";
    case 2: return "/query/users/*";
    case 3: return "/query/infra/*?top=10";
    case 4: {
      const std::uint64_t span = hi >= lo ? hi - lo + 1 : 1;
      auto a = lo + next() % span;
      auto b = lo + next() % span;
      if (a > b) std::swap(a, b);
      return "/query/traffic/@" + std::to_string(a) + "..@" + std::to_string(b);
    }
    case 5: return "/query/rollup/users-daily/" + day_;
    default: return "/query/buckets";
  }
}

DashboardResult run_dashboard(const DashboardConfig& config) {
  DashboardResult result;
  const WireStream& wire = *config.wire;
  const std::size_t records = std::min<std::size_t>(config.records, wire.records());
  const int fd = connect_loopback(config.ingest_port);
  if (fd < 0 || records == 0) {
    ++result.send_errors;
    if (fd >= 0) ::close(fd);
    return result;
  }

  const auto bucket_of = [&](std::size_t i) {
    return wire.timestamp_ms[i] / 1000 / config.bucket_s;
  };
  const std::uint64_t first_bucket = bucket_of(0);
  // Bucket b becomes sealable when the watermark enters bucket b + 2
  // (one bucket of allowed lateness); `trigger[b]` is the index of the
  // record whose arrival does that.
  std::vector<std::pair<std::uint64_t, std::size_t>> triggers;  // (b, index)
  {
    std::size_t trigger = 0;
    for (std::size_t i = 0; i < records; ++i) {
      const auto b = bucket_of(i);
      // Only buckets that hold records appear in /query/buckets.
      if (i > 0 && bucket_of(i - 1) == b) continue;
      while (trigger < records && bucket_of(trigger) < b + 2) ++trigger;
      if (trigger >= records) break;
      triggers.emplace_back(b, trigger);
    }
  }

  std::atomic<bool> ingest_done{false};
  std::atomic<bool> stop_poll{false};
  // Newest bucket id the poller saw, plus one (0 = none yet; bucket ids
  // start at 0 for traces whose timestamps start at the epoch).
  std::atomic<std::uint64_t> latest_bucket_end{0};
  std::mutex seen_mutex;
  std::vector<std::pair<std::uint64_t, std::int64_t>> seen;  // (bucket, ns)
  const double ns_per_record = 1e9 / config.rate;

  HttpClient poll_client(config.http_port);
  const auto t0 = now_ns() + 20'000'000;  // first record due 20 ms from now

  std::thread poller([&] {
    std::vector<bool> known;
    while (!stop_poll.load()) {
      const auto response = poll_client.get("/query/buckets");
      const auto at = now_ns();
      ++result.polls;
      if (response.status != 200) {
        ++result.poll_failures;
      } else {
        for (const auto id : bucket_ids(response.body)) {
          if (id < first_bucket) continue;
          const auto slot = id - first_bucket;
          if (slot >= known.size()) known.resize(slot + 1, false);
          if (!known[slot]) {
            known[slot] = true;
            std::lock_guard lock(seen_mutex);
            seen.emplace_back(id, at);
          }
          if (id + 1 > latest_bucket_end.load()) latest_bucket_end.store(id + 1);
        }
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  });

  struct ClientStats {
    std::vector<double> ms;
    std::vector<std::size_t> cls;
    std::uint64_t attempted = 0, failed = 0, revalidations = 0, not_modified = 0;
    std::int64_t first_ns = 0;
  };
  ClientStats client_stats[2];
  auto client = [&](int index) {
    ClientStats& stats = client_stats[index];
    HttpClient http(config.http_port);
    QueryMix mix(config.seed * 31 + static_cast<std::uint64_t>(index) + 1,
                 config.day);
    while (latest_bucket_end.load() == 0 && !ingest_done.load()) sleep_ms(1);
    stats.first_ns = now_ns();
    // The client's previous 200 answer per class, for revalidations.
    std::string last_target[kQueryClassCount], last_etag[kQueryClassCount];
    while (!ingest_done.load()) {
      const std::size_t query_class = mix.draw_class();
      std::string target;
      std::string etag;
      if (mix.draw_revalidate() && !last_etag[query_class].empty()) {
        target = last_target[query_class];
        etag = last_etag[query_class];
        ++stats.revalidations;
      } else {
        target = mix.target(query_class, first_bucket, latest_bucket_end.load() - 1);
      }
      const auto start = now_ns();
      const auto response = http.get(target, etag);
      const auto elapsed = now_ns() - start;
      ++stats.attempted;
      if (response.status == 200 || response.status == 304) {
        stats.ms.push_back(ns_to_ms(elapsed));
        stats.cls.push_back(query_class);
        if (response.status == 304) ++stats.not_modified;
        if (response.status == 200) {
          last_target[query_class] = target;
          last_etag[query_class] = response.etag;
        }
      } else {
        ++stats.failed;
      }
    }
  };
  std::thread clients[2] = {std::thread(client, 0), std::thread(client, 1)};

  // Paced open-loop sender: record k is due at t0 + k / rate. Each wake
  // sends every record due by then (at least 0.5 ms apart, so the send
  // rate stays far below the syscall budget).
  std::int64_t blocked = 0;
  bool ok = send_all_timed(fd, std::string_view(wire.bytes).substr(0, wire.header_end),
                           &blocked);
  std::size_t k = 0;
  const auto send_start = now_ns();
  std::int64_t last_send = 0;
  while (ok && k < records) {
    const auto due = t0 + static_cast<std::int64_t>(static_cast<double>(k) * ns_per_record);
    const auto wake = std::max(due, last_send + 500'000);
    const auto now0 = now_ns();
    if (wake > now0) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(wake - now0));
    }
    const auto now = now_ns();
    result.gen_late_ms.push_back(ns_to_ms(std::max<std::int64_t>(0, now - due)));
    auto upto = static_cast<std::size_t>(static_cast<double>(now - t0) / ns_per_record) + 1;
    upto = std::min(std::max(upto, k + 1), records);
    const std::uint64_t begin = k == 0 ? wire.header_end : wire.end_offset[k - 1];
    ok = send_all_timed(
        fd, std::string_view(wire.bytes).substr(begin, wire.end_offset[upto - 1] - begin),
        &blocked);
    last_send = now;
    k = upto;
  }
  const auto send_end = now_ns();
  ingest_done.store(true);
  for (auto& thread : clients) thread.join();
  if (!ok) ++result.send_errors;
  result.records_sent = k;
  result.send_blocked_share =
      send_end > send_start ? static_cast<double>(blocked) /
                                  static_cast<double>(send_end - send_start)
                            : 0.0;

  // Let the poller see the buckets the last records made sealable.
  const auto grace_end = now_ns() + 3'000'000'000LL;
  while (now_ns() < grace_end) {
    {
      std::lock_guard lock(seen_mutex);
      if (!triggers.empty() && seen.size() >= triggers.size()) break;
    }
    sleep_ms(5);
  }
  stop_poll.store(true);
  poller.join();

  std::int64_t first_query = 0;
  for (auto& stats : client_stats) {
    result.queries_attempted += stats.attempted;
    result.queries_failed += stats.failed;
    result.revalidations += stats.revalidations;
    result.not_modified += stats.not_modified;
    for (std::size_t i = 0; i < stats.ms.size(); ++i) {
      result.query_ms.push_back(stats.ms[i]);
      result.query_ms_by_class[stats.cls[i]].push_back(stats.ms[i]);
    }
    if (stats.first_ns > 0 && (first_query == 0 || stats.first_ns < first_query)) {
      first_query = stats.first_ns;
    }
  }
  result.query_window_s =
      first_query > 0 ? static_cast<double>(send_end - first_query) / 1e9 : 0.0;

  std::size_t missed = 0;
  for (const auto& [bucket, index] : triggers) {
    const auto due = t0 + static_cast<std::int64_t>(static_cast<double>(index) * ns_per_record);
    const auto it = std::find_if(seen.begin(), seen.end(),
                                 [&](const auto& s) { return s.first == bucket; });
    if (it == seen.end()) {
      ++missed;
      continue;
    }
    result.freshness_ms.push_back(ns_to_ms(it->second - due));
  }
  // A sealable bucket that never showed up is a failed freshness read.
  result.freshness_reads = triggers.size();
  result.missed_buckets = missed;

  if (ok && !send_end_marker_and_wait(fd)) ++result.send_errors;
  ::close(fd);
  if (!config.gate_target.empty()) {
    const auto gate = poll_client.get(config.gate_target);
    ++result.http_requests;
    if (gate.status != 200) ++result.http_failures;
    result.gate_body = gate.body;
  }
  const auto final_metrics = poll_client.get("/metrics");
  ++result.http_requests;
  if (final_metrics.status != 200) ++result.http_failures;
  result.final_metrics = final_metrics.body;
  result.completed = ok && result.send_errors == 0 && k == records;
  return result;
}

namespace {

/// Daemon-side counters from the final /metrics scrape.
void summarize_daemon(const std::string& text, Metrics& out) {
  const auto counter = [&](const char* series) {
    return std::max(0.0, prom_value(text, series));
  };
  out.set("records_ingested", counter("adscoped_records_ingested_total"));
  out.set("drops_late",
          counter("adscoped_records_dropped_total{reason=\"late\"}"));
  out.set("drops_pre_meta",
          counter("adscoped_records_dropped_total{reason=\"pre_meta\"}"));
  out.set("drops_closed",
          counter("adscoped_records_dropped_total{reason=\"closed\"}"));
  out.set("decode_errors", counter("adscoped_stream_decode_errors_total"));
  out.set("ingest_rejected",
          counter("adscoped_stream_connections_rejected_total"));
  const double hits = counter("adscoped_store_cache_hits_total");
  const double misses = counter("adscoped_store_cache_misses_total");
  out.set("store.cache_hits", hits);
  out.set("store.cache_misses", misses);
  out.set("store.cache_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0);
  out.set("store.retained_buckets", counter("adscoped_store_buckets"));
  out.set_text("simd", prom_label(text, "adscoped_simd", "level"));
  out.set_text("net_backend", prom_label(text, "adscoped_net_backend", "backend",
                                         "role=\"ingest\""));
}

}  // namespace

void summarize(const IngestResult& result, Metrics& out) {
  out.set("completed", result.completed ? 1 : 0);
  out.set("records_sent", static_cast<double>(result.records_sent));
  out.set("ingest_rps", result.ingest_s > 0
                            ? static_cast<double>(result.records_sent) / result.ingest_s
                            : 0);
  out.set("ingest_s", result.ingest_s);
  out.set("net.send_blocked_share", result.send_blocked_share);
  out.set("live.queue_depth_p50", quantile(result.queue_depth, 0.5));
  out.set("live.queue_depth_max", quantile(result.queue_depth, 1.0));
  out.set("queue_depth_samples", static_cast<double>(result.queue_depth.size()));
  out.set("send_errors", static_cast<double>(result.send_errors));
  out.set("http_failures", static_cast<double>(result.http_failures));
  // Operations: ingest connections and HTTP requests (records are not
  // operations; a lost record fails the zero-drop gate instead).
  out.set("ops_attempted",
          static_cast<double>(result.connections + result.http_requests));
  out.set("ops_failed",
          static_cast<double>(result.send_errors + result.http_failures));
  summarize_daemon(result.final_metrics, out);
}

void summarize(const DashboardResult& result, Metrics& out) {
  out.set("completed", result.completed ? 1 : 0);
  out.set("records_sent", static_cast<double>(result.records_sent));
  out.set("freshness_ms_p50", quantile(result.freshness_ms, 0.5));
  out.set("freshness_ms_p90", quantile(result.freshness_ms, 0.9));
  out.set("freshness_samples", static_cast<double>(result.freshness_ms.size()));
  out.set("query_ms_p50", quantile(result.query_ms, 0.5));
  out.set("query_ms_p99", quantile(result.query_ms, 0.99));
  out.set("query_samples", static_cast<double>(result.query_ms.size()));
  out.set("query_rps", result.query_window_s > 0
                           ? static_cast<double>(result.query_ms.size()) /
                                 result.query_window_s
                           : 0);
  for (std::size_t c = 0; c < kQueryClassCount; ++c) {
    out.set(std::string("query_ms_p50.") + kQueryClasses[c],
            quantile(result.query_ms_by_class[c], 0.5));
  }
  out.set("queries_attempted", static_cast<double>(result.queries_attempted));
  out.set("queries_failed", static_cast<double>(result.queries_failed));
  out.set("revalidations", static_cast<double>(result.revalidations));
  out.set("not_modified", static_cast<double>(result.not_modified));
  out.set("net.gen_late_ms_p99", quantile(result.gen_late_ms, 0.99));
  out.set("net.send_blocked_share", result.send_blocked_share);
  out.set("send_errors", static_cast<double>(result.send_errors));
  // Operations: the ingest connection, queries, freshness polls, one
  // freshness read per sealable bucket, the gate and final /metrics.
  out.set("ops_attempted",
          static_cast<double>(1 + result.queries_attempted + result.polls +
                              result.freshness_reads + result.http_requests));
  out.set("ops_failed",
          static_cast<double>(result.send_errors + result.queries_failed +
                              result.poll_failures + result.missed_buckets +
                              result.http_failures));
  summarize_daemon(result.final_metrics, out);
}

}  // namespace perfbench
