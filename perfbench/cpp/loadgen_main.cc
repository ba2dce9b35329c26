// perfbench_loadgen — the load generator of the timed live runs.
//
//   perfbench_loadgen ingest --ingest-port P --http-port H --bucket-s B
//       --wire D/ingest.0 --wire D/ingest.1 --gate-target T --gate-out F
//   perfbench_loadgen dashboard --ingest-port P --http-port H --wire D/dash
//       --records N --rate R --bucket-s B --seed S --day YYYY-MM-DD
//       --gate-target T --gate-out F
//
// Prints one JSON object of results on stdout; the gate response body
// goes to the --gate-out file for run.py to compare.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "loadgen.h"

namespace {

struct Args {
  std::vector<std::pair<std::string, std::string>> named;
  std::string get(const std::string& name, const std::string& fallback = "") const {
    for (const auto& [key, value] : named) {
      if (key == name) return value;
    }
    return fallback;
  }
  std::vector<std::string> all(const std::string& name) const {
    std::vector<std::string> out;
    for (const auto& [key, value] : named) {
      if (key == name) out.push_back(value);
    }
    return out;
  }
  std::uint64_t u64(const std::string& name, std::uint64_t fallback) const {
    const auto value = get(name);
    return value.empty() ? fallback : std::strtoull(value.c_str(), nullptr, 10);
  }
};

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench_loadgen ingest|dashboard [options]\n");
    return 2;
  }
  const std::string mode = argv[1];
  Args args;
  for (int i = 2; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) {
      std::fprintf(stderr, "perfbench_loadgen: unexpected argument %s\n", argv[i]);
      return 2;
    }
    args.named.emplace_back(argv[i] + 2, argv[i + 1]);
  }
  try {
    perfbench::Metrics metrics;
    std::string gate_body;
    bool completed = false;
    if (mode == "ingest") {
      std::vector<perfbench::WireStream> wires;
      for (const auto& prefix : args.all("wire")) {
        wires.push_back(perfbench::WireStream::load(prefix));
      }
      perfbench::IngestConfig config;
      config.ingest_port = static_cast<std::uint16_t>(args.u64("ingest-port", 0));
      config.http_port = static_cast<std::uint16_t>(args.u64("http-port", 0));
      for (const auto& wire : wires) config.wires.push_back(&wire);
      config.gate_target = args.get("gate-target");
      config.bucket_s = args.u64("bucket-s", config.bucket_s);
      const auto result = perfbench::run_ingest(config);
      perfbench::summarize(result, metrics);
      gate_body = result.gate_body;
      completed = result.completed;
    } else if (mode == "dashboard") {
      const auto wire = perfbench::WireStream::load(args.get("wire"));
      perfbench::DashboardConfig config;
      config.ingest_port = static_cast<std::uint16_t>(args.u64("ingest-port", 0));
      config.http_port = static_cast<std::uint16_t>(args.u64("http-port", 0));
      config.wire = &wire;
      config.records = args.u64("records", wire.records());
      config.rate = static_cast<double>(args.u64("rate", 30000));
      config.bucket_s = args.u64("bucket-s", 45);
      config.seed = args.u64("seed", 1);
      config.day = args.get("day");
      config.gate_target = args.get("gate-target");
      const auto result = perfbench::run_dashboard(config);
      perfbench::summarize(result, metrics);
      gate_body = result.gate_body;
      completed = result.completed;
    } else {
      std::fprintf(stderr, "perfbench_loadgen: unknown mode %s\n", mode.c_str());
      return 2;
    }
    if (const auto out = args.get("gate-out"); !out.empty()) {
      perfbench::write_file(out, gate_body);
    }
    std::printf("%s\n", metrics.json().c_str());
    return completed ? 0 : 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench_loadgen: %s\n", error.what());
    return 1;
  }
}
