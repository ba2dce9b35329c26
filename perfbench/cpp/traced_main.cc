// perfbench_traced — the traced run: per-layer breakdown of every
// workload, in one process.
//
//   perfbench_traced --trace T.adst --prep-dir D --seed S --bucket-s B
//       --dash-records N --rate R --ingest-gate-out F1 --dash-gate-out F2
//       --gate-target T
//
// Links the libraries and wires them the way tools/adscope_cli.cc
// (`study`) and tools/adscoped.cc do, with spans (name, start, end,
// parent, batch or request id) around the calls into each layer's
// public functions. Spans stay in memory; the per-layer metrics are
// summarized from them at exit and printed as one JSON object. The
// stages, in order:
//   offline-study   mmap decode into a null sink; serial TraceStudy;
//                   4-shard ParallelTraceStudy; report rendering;
//                   FilterEngine::classify over the trace's requests
//   live-ingest     the in-process daemon fed by the load generator over
//                   loopback, then StreamDecoder -> LiveStudy in-process
//                   over the same wire bytes (decode vs push-blocked)
//   live-dashboard  the in-process daemon under the paced dashboard
//                   load, then cold/cached store probes per query class
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "core/parallel_study.h"
#include "core/report.h"
#include "core/study.h"
#include "http/mime.h"
#include "live/http_endpoint.h"
#include "live/live_study.h"
#include "live/stream_server.h"
#include "loadgen.h"
#include "sim/ecosystem.h"
#include "sim/listgen.h"
#include "store/store_service.h"
#include "trace/mmap_reader.h"
#include "trace/stream.h"
#include "util/socket.h"

namespace {

using namespace adscope;
using perfbench::now_ns;
using perfbench::ns_to_ms;

perfbench::SpanLog g_spans;
thread_local perfbench::SpanLog::Buffer* t_buffer = nullptr;

perfbench::SpanLog::Buffer& spans() {
  if (t_buffer == nullptr) t_buffer = &g_spans.buffer();
  return *t_buffer;
}

/// RAII span on the calling thread's buffer.
class Scope {
 public:
  Scope(const char* name, std::uint64_t id = 0, std::int64_t parent = -1)
      : buffer_(spans()), index_(buffer_.begin(name, id, parent)) {}
  ~Scope() { buffer_.end(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  std::int64_t index() const { return index_; }

 private:
  perfbench::SpanLog::Buffer& buffer_;
  std::int64_t index_;
};

struct Args {
  std::vector<std::pair<std::string, std::string>> named;
  std::string get(const std::string& name, const std::string& fallback = "") const {
    for (const auto& [key, value] : named) {
      if (key == name) return value;
    }
    return fallback;
  }
  std::uint64_t u64(const std::string& name, std::uint64_t fallback) const {
    const auto value = get(name);
    return value.empty() ? fallback : std::strtoull(value.c_str(), nullptr, 10);
  }
};

struct World {
  sim::Ecosystem ecosystem;
  sim::GeneratedLists lists;
  std::optional<adblock::FilterEngine> engine;
};

class NullBatchSink final : public trace::TraceBatchSink {
 public:
  void on_meta(const trace::TraceMeta&) override {}
  void on_http_batch(std::span<const trace::HttpTransactionView> batch) override {
    records += batch.size();
  }
  void on_tls_batch(std::span<const trace::TlsFlowView> batch) override {
    records += batch.size();
  }
  std::uint64_t records = 0;
};

/// Times every batch a reader hands to `inner` (one span per batch,
/// children of the enclosing feed span).
class TimedBatchSink final : public trace::TraceBatchSink {
 public:
  TimedBatchSink(trace::TraceBatchSink& inner, const char* name)
      : inner_(inner), name_(name) {}
  void on_meta(const trace::TraceMeta& meta) override { inner_.on_meta(meta); }
  void on_http_batch(std::span<const trace::HttpTransactionView> batch) override {
    Scope span(name_, batch_++, parent);
    inner_.on_http_batch(batch);
  }
  void on_tls_batch(std::span<const trace::TlsFlowView> batch) override {
    Scope span(name_, batch_++, parent);
    inner_.on_tls_batch(batch);
  }
  std::int64_t parent = -1;

 private:
  trace::TraceBatchSink& inner_;
  const char* name_;
  std::uint64_t batch_ = 0;
};

/// Times each record push into the live study (child of the decoder
/// feed span that delivered it).
class TimedLiveSink final : public trace::TraceSink {
 public:
  explicit TimedLiveSink(live::LiveStudy& study) : study_(study) {}
  void on_meta(const trace::TraceMeta& meta) override { study_.on_meta(meta); }
  void on_http(const trace::HttpTransaction& txn) override {
    Scope span("live.on_http", record_++, parent);
    study_.on_http(txn);
  }
  void on_tls(const trace::TlsFlow& flow) override {
    Scope span("live.on_http", record_++, parent);
    study_.on_tls(flow);
  }
  std::int64_t parent = -1;

 private:
  live::LiveStudy& study_;
  std::uint64_t record_ = 0;
};

double total_ms(const std::map<std::string, perfbench::SpanLog::Totals>& totals,
                const std::string& name) {
  const auto it = totals.find(name);
  return it == totals.end() ? 0.0 : ns_to_ms(it->second.total_ns);
}

double median_ms(const std::map<std::string, perfbench::SpanLog::Totals>& totals,
                 const std::string& name) {
  const auto it = totals.find(name);
  return it == totals.end() ? 0.0 : perfbench::quantile(it->second.durations_ms, 0.5);
}

/// The in-process daemon: LiveStudy + snapshot store + ingest server +
/// HTTP endpoint, wired as tools/adscoped.cc does, except that the
/// 100 ms maintain() tick runs on a benchmark thread so it can be timed.
class Daemon {
 public:
  Daemon(const World& world, const core::StudyOptions& study_options,
         std::uint64_t bucket_s, const char* maintain_span,
         const char* tree_ingest_span)
      : maintain_span_(maintain_span) {
    live::LiveStudyOptions options;
    options.study = study_options;
    options.threads = 2;
    options.bucket_seconds = bucket_s;
    options.window_buckets = (86400 + bucket_s - 1) / bucket_s;

    store::StoreServiceOptions store_options;
    store_options.tree.study = options.study;
    store_options.tree.bucket_seconds = bucket_s;
    store_options.tree.retention_buckets = options.window_buckets;
    store_options.cache.capacity_bytes = std::size_t{8} << 20;
    store_ = std::make_unique<store::StoreService>(store_options,
                                                   &world.ecosystem.asn_db());
    options.on_seal = [this, tree_ingest_span](std::uint64_t bucket_id,
                                               std::size_t shard,
                                               const core::TraceStudy& sealed) {
      Scope span(tree_ingest_span, bucket_id);
      store_->tree().ingest(bucket_id, shard, sealed);
    };
    study_ = std::make_unique<live::LiveStudy>(
        *world.engine, world.ecosystem.abp_registry(), options);
    store_->set_live_stats([this] {
      return store::LiveStats{study_->watermark_ms(), study_->records_ingested(),
                              study_->total_drops(), study_->current_bucket()};
    });

    live::StreamServerOptions ingest_options;
    ingest_options.auto_maintain = false;
    ingest_ = std::make_unique<live::TraceStreamServer>(
        *study_, util::ListenSocket::tcp(0, true), ingest_options);
    endpoint_ = std::make_unique<live::HttpEndpoint>(
        *study_, util::ListenSocket::tcp(0, true), &world.ecosystem.asn_db(),
        ingest_.get(), store_.get(), live::HttpEndpointOptions{});
    ingest_->start();
    endpoint_->start();
    ticker_ = std::thread([this] { tick_loop(); });
  }

  ~Daemon() {
    stop_.store(true);
    if (ticker_.joinable()) ticker_.join();
    endpoint_->stop();
    ingest_->stop();
    study_->close();
  }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  std::uint16_t ingest_port() const { return ingest_->port(); }
  std::uint16_t http_port() const { return endpoint_->port(); }
  store::StoreService& store() { return *store_; }
  live::LiveStudy& study() { return *study_; }

 private:
  // The reactor tick of TraceStreamServer: maintain() whenever the
  // watermark entered a new bucket. The flush waits until the shard
  // workers applied the seal, so the span covers the whole seal.
  void tick_loop() {
    std::uint64_t last_bucket = UINT64_MAX;
    while (!stop_.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      const auto bucket = study_->current_bucket();
      if (bucket != last_bucket && study_->records_ingested() > 0) {
        Scope span(maintain_span_, bucket);
        study_->maintain();
        study_->flush();
        last_bucket = bucket;
      }
    }
  }

  const char* maintain_span_;
  std::unique_ptr<store::StoreService> store_;
  std::unique_ptr<live::LiveStudy> study_;
  std::unique_ptr<live::TraceStreamServer> ingest_;
  std::unique_ptr<live::HttpEndpoint> endpoint_;
  std::atomic<bool> stop_{false};
  std::thread ticker_;
};

void offline_stage(const World& world, const std::string& trace_path,
                   perfbench::Metrics& out) {
  core::StudyOptions options;  // the CLI defaults
  const auto* asn_db = &world.ecosystem.asn_db();

  std::vector<double> decode_ns;
  std::uint64_t records = 0;
  for (int pass = 0; pass < 3; ++pass) {
    trace::MmapTraceReader reader(trace_path);
    NullBatchSink sink;
    const auto start = now_ns();
    {
      Scope span("trace.mmap_decode", static_cast<std::uint64_t>(pass));
      reader.replay_batches(sink);
    }
    records = sink.records;
    decode_ns.push_back(static_cast<double>(now_ns() - start) /
                        static_cast<double>(std::max<std::uint64_t>(1, records)));
  }
  out.set("trace.mmap_decode_ns", perfbench::quantile(decode_ns, 0.5));

  std::string serial_report;
  double serial_feed_finish_ms = 0;
  double serial_total_ms = 0;
  {
    trace::MmapTraceReader reader(trace_path);
    core::TraceStudy serial(*world.engine, world.ecosystem.abp_registry(), options);
    trace::HttpTransaction scratch;
    trace::BatchToRecordAdapter adapter(serial, scratch);
    TimedBatchSink timed(adapter, "core.serial_batch");
    const auto start = now_ns();
    {
      Scope feed("core.serial_feed");
      timed.parent = feed.index();
      reader.replay_batches(timed);
    }
    {
      Scope span("core.serial_finish");
      serial.finish();
    }
    serial_feed_finish_ms = ns_to_ms(now_ns() - start);
    {
      Scope span("core.serial_report");
      serial_report = core::render_full_report(serial.view(), asn_db);
    }
    serial_total_ms = ns_to_ms(now_ns() - start);
  }

  std::string sharded_report;
  double feed_ms = 0, finish_ms = 0, report_ms = 0;
  {
    trace::MmapTraceReader reader(trace_path);
    core::ParallelStudyOptions parallel_options;
    parallel_options.study = options;
    parallel_options.threads = 4;
    core::ParallelTraceStudy parallel(*world.engine,
                                      world.ecosystem.abp_registry(),
                                      parallel_options);
    TimedBatchSink timed(parallel, "core.dispatch");
    auto start = now_ns();
    {
      Scope feed("core.feed");
      timed.parent = feed.index();
      reader.replay_batches(timed);
    }
    feed_ms = ns_to_ms(now_ns() - start);
    start = now_ns();
    {
      Scope span("core.finish");
      parallel.finish();
    }
    finish_ms = ns_to_ms(now_ns() - start);
    start = now_ns();
    {
      Scope span("core.report");
      sharded_report = core::render_full_report(parallel.view(), asn_db);
    }
    report_ms = ns_to_ms(now_ns() - start);
    const auto& counters = parallel.classifier_counters();
    const auto lookups = counters.classify_cache_hits + counters.classify_cache_misses;
    out.set("adblock.cache_hit_ratio",
            lookups > 0 ? static_cast<double>(counters.classify_cache_hits) /
                              static_cast<double>(lookups)
                        : 0.0);
    out.set("adblock.cache_lookups", static_cast<double>(lookups));
  }
  const auto totals = g_spans.totals();
  const double dispatch_ms = total_ms(totals, "core.dispatch");
  const auto n = static_cast<double>(std::max<std::uint64_t>(1, records));
  out.set("core.dispatch_busy_share", feed_ms > 0 ? dispatch_ms / feed_ms : 0);
  out.set("core.dispatch_busy_ms", dispatch_ms);
  out.set("core.feed_ms", feed_ms);
  out.set("core.dispatch_ns", dispatch_ms * 1e6 / n);
  out.set("core.finish_ms", finish_ms);
  out.set("core.report_ms", report_ms);
  out.set("core.serial_ns", total_ms(totals, "core.serial_batch") * 1e6 / n);
  out.set("core.serial_feed_finish_ms", serial_feed_finish_ms);
  out.set("core.sharded_feed_finish_ms", feed_ms + finish_ms);
  out.set("core.parallel_speedup", serial_feed_finish_ms / (feed_ms + finish_ms));
  out.set("gate.reports_identical", serial_report == sharded_report ? 1 : 0);
  out.set("traced.study_rps", n / ((feed_ms + finish_ms + report_ms) / 1e3));
  out.set("traced.study_serial_rps", n / (serial_total_ms / 1e3));
}

void classify_stage(const World& world, const std::string& trace_path,
                    perfbench::Metrics& out) {
  // Every k-th request of the trace, built outside the timed loop.
  class Collector final : public trace::TraceSink {
   public:
    void on_meta(const trace::TraceMeta&) override {}
    void on_http(const trace::HttpTransaction& txn) override {
      if (seen_++ % 7 != 0) return;
      const auto type = http::type_from_mime(http::canonical_mime(txn.content_type));
      requests.push_back(adblock::make_request("http://" + txn.host + txn.uri,
                                               txn.referer, type));
    }
    void on_tls(const trace::TlsFlow&) override {}
    std::vector<adblock::Request> requests;

   private:
    std::uint64_t seen_ = 0;
  };
  Collector collector;
  trace::MmapTraceReader(trace_path).replay(collector);
  std::uint64_t ads = 0;
  std::int64_t busy = 0;
  constexpr std::size_t kBatch = 4096;
  for (std::size_t i = 0; i < collector.requests.size(); i += kBatch) {
    const auto end = std::min(collector.requests.size(), i + kBatch);
    const auto start = now_ns();
    {
      Scope span("adblock.classify", i / kBatch);
      for (std::size_t j = i; j < end; ++j) {
        ads += world.engine->classify(collector.requests[j]).is_ad() ? 1 : 0;
      }
    }
    busy += now_ns() - start;
  }
  const auto count = static_cast<double>(std::max<std::size_t>(1, collector.requests.size()));
  out.set("adblock.classify_ns", static_cast<double>(busy) / count);
  out.set("adblock.ad_ratio", static_cast<double>(ads) / count);
  out.set("adblock.classify_requests", count);
}

void ingest_stage(const World& world, const std::string& prep_dir,
                  std::uint64_t bucket_s, const std::string& gate_target,
                  const std::string& gate_out, perfbench::Metrics& out) {
  core::StudyOptions options;
  std::vector<perfbench::WireStream> wires;
  for (int i = 0; i < 2; ++i) {
    wires.push_back(perfbench::WireStream::load(prep_dir + "/ingest." +
                                                std::to_string(i)));
  }
  std::uint64_t records = 0;
  for (const auto& wire : wires) records += wire.records();

  perfbench::Metrics ingest;
  {
    Daemon daemon(world, options, bucket_s, "ingest.maintain",
                  "ingest.tree_ingest");
    perfbench::IngestConfig config;
    config.ingest_port = daemon.ingest_port();
    config.http_port = daemon.http_port();
    for (const auto& wire : wires) config.wires.push_back(&wire);
    config.bucket_s = bucket_s;
    config.gate_target = gate_target;
    const auto result = perfbench::run_ingest(config);
    perfbench::summarize(result, ingest);
    perfbench::write_file(gate_out, result.gate_body);
    out.set("ingest.completed", result.completed ? 1 : 0);
    out.set("ingest.ops_attempted", ingest.get("ops_attempted"));
    out.set("ingest.ops_failed", ingest.get("ops_failed"));
    out.set("ingest.drops", static_cast<double>(daemon.study().total_drops()));
    out.set("ingest.records_ingested",
            static_cast<double>(daemon.study().records_ingested()));
  }
  out.set("ingest.records_sent", static_cast<double>(records));
  // The generator- and /metrics-side values of the network run.
  for (const char* key : {"net.send_blocked_share", "live.queue_depth_p50",
                          "live.queue_depth_max"}) {
    out.set(key, ingest.get(key));
  }
  out.set("traced.ingest_rps", ingest.get("ingest_rps"));

  // In-process pass over the same wire bytes: the decoder's self time
  // versus the time blocked pushing into the live study's shard queues.
  {
    live::LiveStudyOptions live_options;
    live_options.study = options;
    live_options.threads = 2;
    live_options.bucket_seconds = bucket_s;
    live_options.window_buckets = UINT64_MAX;
    live::LiveStudy study(*world.engine, world.ecosystem.abp_registry(),
                          live_options);
    std::int64_t wall_ns[2] = {0, 0};
    auto feeder = [&](int i) {
      TimedLiveSink sink(study);
      trace::StreamDecoder decoder(sink);
      const auto& bytes = wires[static_cast<std::size_t>(i)].bytes;
      constexpr std::size_t kChunk = 64 * 1024;  // the server's read size
      const auto start = now_ns();
      for (std::size_t at = 0; at < bytes.size(); at += kChunk) {
        Scope span("trace.stream_feed", at / kChunk);
        sink.parent = span.index();
        decoder.feed(std::string_view(bytes).substr(at, kChunk));
      }
      wall_ns[i] = now_ns() - start;
    };
    std::thread a(feeder, 0), b(feeder, 1);
    a.join();
    b.join();
    study.close();
    const auto totals = g_spans.totals();
    const auto it = totals.find("trace.stream_feed");
    const double decode_self_ns =
        it == totals.end() ? 0.0 : static_cast<double>(it->second.self_ns);
    out.set("trace.stream_decode_ns",
            decode_self_ns / static_cast<double>(std::max<std::uint64_t>(1, records)));
    out.set("live.push_blocked_share",
            total_ms(totals, "live.on_http") * 1e6 /
                static_cast<double>(std::max<std::int64_t>(1, wall_ns[0] + wall_ns[1])));
  }
}

void dashboard_stage(const World& world, const std::string& prep_dir,
                     const Args& args, perfbench::Metrics& out) {
  core::StudyOptions options;
  const auto wire = perfbench::WireStream::load(prep_dir + "/dash");
  const auto bucket_s = args.u64("bucket-s", 45);
  Daemon daemon(world, options, bucket_s, "live.maintain", "store.tree_ingest");
  perfbench::DashboardConfig config;
  config.ingest_port = daemon.ingest_port();
  config.http_port = daemon.http_port();
  config.wire = &wire;
  config.records = args.u64("dash-records", wire.records());
  config.rate = static_cast<double>(args.u64("rate", 30000));
  config.bucket_s = bucket_s;
  config.seed = args.u64("seed", 1);
  config.day = args.get("day");
  config.gate_target = args.get("gate-target");
  const auto result = perfbench::run_dashboard(config);
  perfbench::write_file(args.get("dash-gate-out"), result.gate_body);
  perfbench::Metrics dashboard;
  perfbench::summarize(result, dashboard);
  out.set("dashboard.completed", result.completed ? 1 : 0);
  out.set("dashboard.ops_attempted", dashboard.get("ops_attempted"));
  out.set("dashboard.ops_failed", dashboard.get("ops_failed"));
  for (const char* query_class : perfbench::kQueryClasses) {
    const auto key = std::string("query_ms_p50.") + query_class;
    out.set(key, dashboard.get(key));
  }
  out.set("traced.freshness_ms_p50", perfbench::quantile(result.freshness_ms, 0.5));
  out.set("traced.freshness_ms_p90", perfbench::quantile(result.freshness_ms, 0.9));
  out.set("traced.query_ms_p50", perfbench::quantile(result.query_ms, 0.5));
  out.set("traced.query_ms_p99", perfbench::quantile(result.query_ms, 0.99));
  out.set("traced.query_rps",
          result.query_window_s > 0
              ? static_cast<double>(result.query_ms.size()) / result.query_window_s
              : 0);
  out.set("net.gen_late_ms_p99", perfbench::quantile(result.gen_late_ms, 0.99));
  out.set("dashboard.drops", static_cast<double>(daemon.study().total_drops()));
  const auto cache = daemon.store().cache_counters();
  out.set("store.cache_hit_ratio",
          cache.hits + cache.misses > 0
              ? static_cast<double>(cache.hits) /
                    static_cast<double>(cache.hits + cache.misses)
              : 0.0);
  out.set("store.retained_buckets",
          static_cast<double>(daemon.store().tree().bucket_count()));

  // A twin store without a response cache, so every query on it renders
  // cold. It is built here, after the timed run, by an in-process live
  // study fed the same sent records: after the final seal both trees
  // hold the same buckets.
  store::StoreServiceOptions probe_options;
  probe_options.tree.study = options;
  probe_options.tree.bucket_seconds = bucket_s;
  probe_options.tree.retention_buckets = (86400 + bucket_s - 1) / bucket_s;
  probe_options.cache.capacity_bytes = 0;
  store::StoreService probe_store(probe_options, &world.ecosystem.asn_db());
  live::LiveStudyOptions probe_live;
  probe_live.study = options;
  probe_live.threads = 2;
  probe_live.bucket_seconds = bucket_s;
  probe_live.window_buckets = probe_options.tree.retention_buckets;
  probe_live.on_seal = [&](std::uint64_t bucket_id, std::size_t shard,
                           const core::TraceStudy& sealed) {
    probe_store.tree().ingest(bucket_id, shard, sealed);
  };
  live::LiveStudy probe_study(*world.engine, world.ecosystem.abp_registry(),
                              probe_live);
  if (result.records_sent > 0) {
    trace::StreamDecoder decoder(probe_study);
    decoder.feed(std::string_view(wire.bytes).substr(
        0, wire.end_offset[result.records_sent - 1]));
  }
  probe_study.seal_all();
  probe_study.flush();
  probe_study.close();
  probe_store.set_live_stats([&] {
    return store::LiveStats{probe_study.watermark_ms(), probe_study.records_ingested(),
                            probe_study.total_drops(), probe_study.current_bucket()};
  });

  // Store probes in the final, sealed state: cold renders on the twin,
  // cached answers on the serving store, and the HTTP round trip of the
  // same cached target.
  auto& store = daemon.store();
  auto* probe = &probe_store;
  const auto lo = store.tree().min_bucket().value_or(0);
  const auto hi = store.tree().max_bucket().value_or(0);
  perfbench::QueryMix mix(args.u64("seed", 1) * 7 + 3, config.day);
  perfbench::HttpClient http(daemon.http_port());
  std::vector<double> overhead_ms;
  std::uint64_t probe_failures = 0;
  for (std::size_t c = 0; c < perfbench::kQueryClassCount; ++c) {
    std::vector<double> cold, cached;
    for (int i = 0; i < 5; ++i) {
      const auto target = mix.target(c, lo, hi);
      auto start = now_ns();
      const auto cold_response = probe->query(target);
      cold.push_back(ns_to_ms(now_ns() - start));
      store.query(target);  // fill the cache
      start = now_ns();
      const auto cached_response = store.query(target);
      const double direct = ns_to_ms(now_ns() - start);
      cached.push_back(direct);
      start = now_ns();
      const auto wire_response = http.get(target);
      overhead_ms.push_back(ns_to_ms(now_ns() - start) - direct);
      if (cold_response.status != 200 || cached_response.status != 200 ||
          wire_response.status != 200 || wire_response.body != cached_response.body) {
        ++probe_failures;
      }
    }
    out.set("store.query_cold_ms." + std::string(perfbench::kQueryClasses[c]),
            perfbench::quantile(cold, 0.5));
    out.set("store.query_cached_ms." + std::string(perfbench::kQueryClasses[c]),
            perfbench::quantile(cached, 0.5));
  }
  out.set("net.http_overhead_ms", perfbench::quantile(overhead_ms, 0.5));
  out.set("store.probe_failures", static_cast<double>(probe_failures));
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) {
      std::fprintf(stderr, "perfbench_traced: unexpected argument %s\n", argv[i]);
      return 2;
    }
    args.named.emplace_back(argv[i] + 2, argv[i + 1]);
  }
  const auto trace_path = args.get("trace");
  const auto prep_dir = args.get("prep-dir");
  if (trace_path.empty() || prep_dir.empty()) {
    std::fprintf(stderr, "perfbench_traced: --trace and --prep-dir required\n");
    return 2;
  }
  try {
    perfbench::Metrics metrics;
    const auto seed = args.u64("seed", 42);
    World world{sim::Ecosystem::generate(seed), {}, std::nullopt};
    world.lists = sim::generate_lists(world.ecosystem);
    const auto engine_start = now_ns();
    {
      Scope span("adblock.engine_build");
      world.engine.emplace(sim::make_engine(
          world.lists, sim::ListSelection{.easylist = true,
                                          .derivative = true,
                                          .easyprivacy = true,
                                          .acceptable_ads = true}));
    }
    metrics.set("adblock.engine_build_ms", ns_to_ms(now_ns() - engine_start));

    offline_stage(world, trace_path, metrics);
    classify_stage(world, trace_path, metrics);
    ingest_stage(world, prep_dir, args.u64("bucket-s", 45), args.get("gate-target"),
                 args.get("ingest-gate-out"), metrics);
    dashboard_stage(world, prep_dir, args, metrics);

    const auto totals = g_spans.totals();
    metrics.set("live.seal_ms", median_ms(totals, "live.maintain"));
    metrics.set("store.tree_ingest_ms", median_ms(totals, "store.tree_ingest"));
    metrics.set("live.drops",
                metrics.get("ingest.drops") + metrics.get("dashboard.drops"));
    metrics.set("spans", static_cast<double>(g_spans.span_count()));
    std::printf("%s\n", metrics.json().c_str());
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench_traced: %s\n", error.what());
    return 1;
  }
  return 0;
}
