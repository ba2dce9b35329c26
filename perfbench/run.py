#!/usr/bin/env python3
"""End-to-end benchmark of adscope: the offline study and the live daemon.

Run from the repository root:

  python3 perfbench/run.py --workload offline-study --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --all --seed 1 --seconds 10     # every workload
  python3 perfbench/run.py --steady 10 --seconds 10        # spread per metric

The first run builds the shipped tools and the benchmark programs into
.bench_build/ (perfbench/CMakeLists.txt). Inputs are generated out of the
clock with `adscope gen` and cached per seed under .bench_build/inputs/.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics (end-to-end metrics with --trace 0, per-layer metrics with
--trace 1). perfbench/README.md lists the workloads and what each metric
means.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import socket
import statistics
import struct
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
INPUTS = os.path.join(ROOT, ".bench_build", "inputs")
RESULTS = os.path.join(ROOT, ".bench_build", "results")

# Workload parameters (fixed: later changes cite the workloads by name).
HOUSEHOLDS = 600          # RBN-2 trace, ~724k records, ~70 MB
PROBE_HOUSEHOLDS = 150    # same shape at a quarter of the size (side samples)
HOURS = 4
OFFLINE_SHARDS = 4
LIVE_SHARDS = 2
BUCKET_S = 45            # bucket wall period ~75 ms at DASH_RATE, off the 100 ms tick
DASH_RATE = 30000         # records/s, fixed; ~20% of the 2-shard ingest ceiling
SIDE_DASH_S = 6           # dashboard sample taken by the other workloads
SIDE_STUDIES = 4          # 4-shard and serial runs on the probe trace
SETUP_SAMPLES = 15
KEEP_INPUT_SETS = 20      # 10 seeds x (~250 MB main + ~20 MB probe); LRU eviction
GATE_TARGET = "/query/summary/*?fields=traffic,users"
PINNED_ENV = ("ADSCOPE_SIMD", "ADSCOPE_NET", "ADSCOPE_TEDDY")
WORKLOADS = ("offline-study", "live-ingest", "live-dashboard")
QUERY_CLASS_P50 = tuple("query_ms_p50." + c for c in (
    "summary_latest", "summary_window", "users_all", "infra_top", "traffic_range",
    "rollup_users_daily", "buckets"))
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    """A failure that ends the run without a result."""


def say(*parts):
    print(*parts, flush=True)


def child_env():
    return {k: v for k, v in os.environ.items() if k not in PINNED_ENV}


def binary(name):
    paths = {
        "adscope": os.path.join(BUILD, "adscope", "tools", "adscope"),
        "adscoped": os.path.join(BUILD, "adscope", "tools", "adscoped"),
    }
    return paths.get(name, os.path.join(BUILD, name))


# -- build -----------------------------------------------------------------

def check_sources():
    for rel in ("CMakeLists.txt", "src/CMakeLists.txt", "tools/adscoped.cc",
                "tools/adscope_cli.cc"):
        if not os.path.isfile(os.path.join(ROOT, rel)):
            raise BenchError(f"no adscope sources beside perfbench/ ({rel} missing)")


def build():
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            rc = subprocess.call(
                ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                stdout=log, stderr=subprocess.STDOUT, env=child_env())
            if rc != 0:
                raise BenchError(f"cmake configure failed (see {log_path})")
        rc = subprocess.call(
            ["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1), "--target",
             "adscope", "adscoped", "perfbench_prep", "perfbench_loadgen",
             "perfbench_traced"],
            stdout=log, stderr=subprocess.STDOUT, env=child_env())
    if rc != 0:
        with open(log_path) as log:
            sys.stderr.write("".join(log.readlines()[-30:]))
        raise BenchError(f"build failed (see {log_path})")


# -- environment -----------------------------------------------------------

def cpu_simd_level():
    flags = set()
    with open("/proc/cpuinfo") as cpuinfo:
        for line in cpuinfo:
            if line.startswith("flags"):
                flags = set(line.split(":", 1)[1].split())
                break
    if "avx2" in flags:
        return "avx2"
    return "sse2" if "sse2" in flags else "off"


def source_revision():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except OSError:
        pass
    # Not a git checkout: digest the sources the benchmark builds.
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def cpu_ticks():
    """(steal, total) jiffies over all CPUs from /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(v) for v in f.readline().split()[1:]]
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


class Environment:
    def __init__(self):
        self.ticks = cpu_ticks()
        self.nproc = os.cpu_count()
        self.cpu_simd = cpu_simd_level()
        self.simd = set()
        self.net = set()
        self.net_notes = set()
        self.revision = source_revision()

    def check(self):
        """Refuses to report when a downward clamp is in effect."""
        for level in self.simd:
            if level != self.cpu_simd:
                raise BenchError(f"SIMD clamped to {level} (CPU supports {self.cpu_simd})")
        for note in self.net_notes:
            if "ADSCOPE_NET" in note:
                raise BenchError(f"network backend clamped: {note}")

    def line(self):
        net = ",".join(sorted(self.net)) or "-"
        steal, total = (now - then for now, then in zip(cpu_ticks(), self.ticks))
        return (f"env: nproc={self.nproc} simd={','.join(sorted(self.simd)) or '-'} "
                f"net={net} io_uring={'yes' if 'uring' in self.net else 'no'} "
                f"steal={100.0 * steal / max(1, total):.1f}% revision={self.revision}")


# -- inputs ----------------------------------------------------------------

def run_checked(cmd, **kwargs):
    out = subprocess.run(cmd, capture_output=True, text=True, env=child_env(),
                         timeout=CHILD_TIMEOUT_S, **kwargs)
    if out.returncode != 0:
        raise BenchError(f"{os.path.basename(cmd[0])} failed: {out.stderr.strip()[-500:]}")
    return out.stdout


def inputs_for(seed, households, wires):
    """Seeded trace (+ meta-only trace and pre-encoded wire streams when
    `wires`), generated out of the clock."""
    path = os.path.join(INPUTS, f"s{seed}-h{households}-{HOURS}h")
    if os.path.isfile(os.path.join(path, "done")):
        os.utime(path)
        return path
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(INPUTS, exist_ok=True)
    older = sorted((os.path.join(INPUTS, d) for d in os.listdir(INPUTS)),
                   key=os.path.getmtime)
    for stale in older[:max(0, len(older) - KEEP_INPUT_SETS + 1)]:
        shutil.rmtree(stale, ignore_errors=True)
    os.makedirs(path)
    adscope = binary("adscope")
    run_checked([adscope, "gen", "--out", os.path.join(path, "trace.adst"),
                 "--households", str(households), "--hours", str(HOURS),
                 "--seed", str(seed)])
    if wires:
        run_checked([adscope, "gen", "--out", os.path.join(path, "meta.adst"),
                     "--households", "1", "--hours", "0", "--seed", str(seed)])
        run_checked([binary("perfbench_prep"), "--trace", os.path.join(path, "trace.adst"),
                     "--out-dir", path, "--split", str(LIVE_SHARDS)])
    open(os.path.join(path, "done"), "w").close()
    return path


def prep_info(path):
    with open(os.path.join(path, "prep.json")) as f:
        return json.load(f)


def reference(path, seed, records=None):
    """`adscope query` answer to GATE_TARGET over the whole trace, or over
    the first `records` records of the time-ordered dashboard stream."""
    name = (f"ref_ingest_b{BUCKET_S}.json" if records is None
            else f"ref_dash_{records}_b{BUCKET_S}.json")
    out_path = os.path.join(path, name)
    if os.path.isfile(out_path):
        with open(out_path) as f:
            return f.read()
    trace = os.path.join(path, "trace.adst")
    if records is not None:
        with open(os.path.join(path, "dash.idx"), "rb") as f:
            f.seek(16 * records)
            end, _ = struct.unpack("<QQ", f.read(16))
        trace = os.path.join(path, f"prefix_{records}.adst")
        with open(os.path.join(path, "dash.wire"), "rb") as src, open(trace, "wb") as dst:
            dst.write(src.read(end))
            dst.write(b"\x00")  # end marker
    body = run_checked([binary("adscope"), "query", "--trace", trace,
                        "--bucket-s", str(BUCKET_S), "--threads", str(LIVE_SHARDS),
                        "--seed", str(seed), GATE_TARGET])
    if records is not None:
        os.remove(trace)
    with open(out_path, "w") as f:
        f.write(body)
    return body


# -- process helpers -------------------------------------------------------

def run_measured(cmd, stdout_path):
    """Runs cmd; returns (wall seconds, exit code, peak RSS in MiB)."""
    with open(stdout_path, "w") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.DEVNULL,
                                env=child_env())
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def http_get(port, target, timeout=5.0):
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as s:
        s.sendall(f"GET {target} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                  "Connection: close\r\n\r\n".encode())
        data = b""
        while True:
            chunk = s.recv(65536)
            if not chunk:
                break
            data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), body.decode()


class Daemon:
    """adscoped under test; set-up time = spawn until the ingest port
    accepts and /healthz answers 200."""

    def __init__(self, seed, log_path):
        self.ingest_port = free_port()
        self.http_port = free_port()
        self.log = open(log_path, "w")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [binary("adscoped"), "--port", str(self.ingest_port),
             "--http-port", str(self.http_port), "--threads", str(LIVE_SHARDS),
             "--bucket-s", str(BUCKET_S), "--seed", str(seed), "--snapshot-out", ""],
            stdout=self.log, stderr=subprocess.STDOUT, env=child_env())
        deadline = start + 60
        ready = False
        while time.perf_counter() < deadline and self.proc.poll() is None:
            try:
                socket.create_connection(("127.0.0.1", self.ingest_port), timeout=1).close()
                ready = http_get(self.http_port, "/healthz")[0] == 200
            except OSError:
                ready = False
            if ready:
                break
            time.sleep(0.001)
        self.setup_s = time.perf_counter() - start
        if not ready:
            self.stop()
            raise BenchError("adscoped did not become ready")

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()
        with open(self.log.name) as f:
            return f.read()


def banner_notes(log_text):
    # "adscoped: net backend epoll — <why it is weaker than requested>"
    return [line.split("—", 1)[1].strip() for line in log_text.splitlines()
            if line.startswith("adscoped: net backend") and "—" in line]


# -- one run ---------------------------------------------------------------

class Run:
    """Samples and error accounting of one benchmark invocation."""

    def __init__(self, seed, seconds, env):
        self.seed = seed
        self.seconds = seconds
        self.env = env
        self.main = inputs_for(seed, HOUSEHOLDS, wires=True)
        self.probe = inputs_for(seed, PROBE_HOUSEHOLDS, wires=False)
        self.info = prep_info(self.main)
        self.workdir = os.path.join(RESULTS, f"s{seed}")
        os.makedirs(self.workdir, exist_ok=True)
        self.attempted = 0
        self.failed = 0
        self.gates = []  # (name, passed)
        self.samples = {}

    def add(self, name, value):
        self.samples.setdefault(name, []).append(value)

    def gate(self, name, passed):
        self.gates.append((name, bool(passed)))

    def operations(self, label, attempted, failed):
        """Counts one pass's operations; none of them may fail."""
        self.attempted += int(attempted)
        self.failed += int(failed)
        self.gate(f"{label}: no failed operation ({int(failed)} of {int(attempted)})",
                  failed == 0)

    def median(self, name):
        values = self.samples.get(name, [])
        return statistics.median(values) if values else 0.0

    # offline-study: `adscope study` serial and at 4 shards -------------
    def offline_series(self, inputs, seconds, sharded_runs, serial_runs):
        """Alternates `adscope study --threads 4` and serial runs, 4-shard
        first, until both counts are reached and `seconds` have passed.
        The 4-shard run oversubscribes the cores and is the noisier one,
        so it gets any odd run out."""
        trace = os.path.join(inputs, "trace.adst")
        base = [binary("adscope"), "study", "--trace", trace, "--seed", str(self.seed)]
        reports = {OFFLINE_SHARDS: [], 1: []}
        start = time.perf_counter()
        while (len(reports[OFFLINE_SHARDS]) < sharded_runs or len(reports[1]) < serial_runs
               or time.perf_counter() - start < seconds):
            threads = (OFFLINE_SHARDS if len(reports[OFFLINE_SHARDS]) <= len(reports[1])
                       else 1)
            cmd = base + (["--threads", str(threads)] if threads > 1 else [])
            out_path = os.path.join(self.workdir, f"study_{threads}.txt")
            wall, rc, rss = run_measured(cmd, out_path)
            self.attempted += 1
            if rc != 0:
                self.failed += 1
                raise BenchError(f"adscope study --threads {threads} exited {rc}")
            with open(out_path) as f:
                banner, _, report = f.read().partition("\n")
            reports[threads].append(report)
            for level in banner.split("(simd ")[1:]:
                self.env.simd.add(level.split(")")[0])
            records = int(banner.split()[1])  # "read N records from ..."
            if threads > 1:
                self.add("study_rps", records / wall)
                self.add("offline_rss_mb", rss)
            else:
                self.add("study_serial_rps", records / wall)
        serial = reports[1][0]
        self.gate("offline: 4-shard reports == serial report",
                  serial.strip() and all(r == serial for r in reports[OFFLINE_SHARDS] + reports[1]))

    def offline_setup(self):
        meta = os.path.join(self.main, "meta.adst")
        cmd = [binary("adscope"), "study", "--trace", meta, "--seed", str(self.seed),
               "--threads", str(OFFLINE_SHARDS)]
        for _ in range(SETUP_SAMPLES):
            wall, rc, _ = run_measured(cmd, os.path.join(self.workdir, "study_meta.txt"))
            self.attempted += 1
            if rc != 0:
                self.failed += 1
                raise BenchError("adscope study on the meta-only trace failed")
            self.add("offline_setup_s", wall)

    # live workloads ----------------------------------------------------
    def daemon(self):
        daemon = Daemon(self.seed, os.path.join(self.workdir, "adscoped.log"))
        self.add("live_setup_s", daemon.setup_s)
        return daemon

    def live_setup(self):
        """Tops the spawns of the measured passes up to SETUP_SAMPLES."""
        for _ in range(max(0, SETUP_SAMPLES - len(self.samples.get("live_setup_s", [])))):
            self.daemon().stop()

    def account_daemon(self, result, label):
        """Generator operations plus the daemon's own failure counters:
        decode errors, rejected ingest connections, and one failure per
        drop reason whose counter moved."""
        reasons = ("drops_late", "drops_pre_meta", "drops_closed")
        drops = sum(result[r] for r in reasons)
        self.operations(label, result["ops_attempted"],
                        result["ops_failed"] + result["decode_errors"]
                        + result["ingest_rejected"] + sum(result[r] > 0 for r in reasons))
        self.gate(f"{label}: records ingested == sent",
                  result["records_ingested"] == result["records_sent"])
        self.gate(f"{label}: zero drops", drops == 0)
        self.env.simd.add(result["simd"])
        self.env.net.add(result["net_backend"])

    def loadgen(self, args, label):
        cmd = [binary("perfbench_loadgen")] + args
        out = subprocess.run(cmd, capture_output=True, text=True, env=child_env(),
                             timeout=CHILD_TIMEOUT_S)
        lines = out.stdout.strip().splitlines()
        if not lines:
            raise BenchError(f"{label}: load generator failed: {out.stderr.strip()[-300:]}")
        result = json.loads(lines[-1])
        self.gate(f"{label}: load completed", out.returncode == 0 and result["completed"])
        return result

    def ingest_pass(self, compare):
        """One ingest pass; `compare` checks the final /query answer
        against `adscope query` (the workload's own passes: the reference
        costs more than the pass, so side passes skip it)."""
        daemon = self.daemon()
        gate_out = os.path.join(self.workdir, "gate_ingest.json")
        gate_args = ["--gate-target", GATE_TARGET, "--gate-out", gate_out] if compare else []
        try:
            result = self.loadgen(
                ["ingest", "--ingest-port", str(daemon.ingest_port),
                 "--http-port", str(daemon.http_port), "--bucket-s", str(BUCKET_S)]
                + sum((["--wire", os.path.join(self.main, f"ingest.{i}")]
                       for i in range(LIVE_SHARDS)), []) + gate_args, "live-ingest")
            self.add("ingest_rss_mb", daemon.peak_rss_mb())
        finally:
            log = daemon.stop()
        self.env.net_notes.update(banner_notes(log))
        self.account_daemon(result, "live-ingest")
        if compare:
            with open(gate_out) as f:
                body = f.read()
            self.gate("live-ingest: /query == adscope query after final seal",
                      body + "\n" == reference(self.main, self.seed))
        self.add("ingest_rps", result["ingest_rps"])
        return result

    def dashboard_pass(self, seconds, compare):
        """One dashboard pass of `seconds`; `compare` as in ingest_pass."""
        records = min(int(DASH_RATE * seconds), self.info["records"])
        daemon = self.daemon()
        gate_out = os.path.join(self.workdir, "gate_dash.json")
        gate_args = ["--gate-target", GATE_TARGET, "--gate-out", gate_out] if compare else []
        try:
            result = self.loadgen(
                ["dashboard", "--ingest-port", str(daemon.ingest_port),
                 "--http-port", str(daemon.http_port),
                 "--wire", os.path.join(self.main, "dash"), "--records", str(records),
                 "--rate", str(DASH_RATE), "--bucket-s", str(BUCKET_S),
                 "--seed", str(self.seed), "--day", self.info["day"]] + gate_args,
                "live-dashboard")
            self.add("dash_rss_mb", daemon.peak_rss_mb())
        finally:
            log = daemon.stop()
        self.env.net_notes.update(banner_notes(log))
        self.account_daemon(result, "live-dashboard")
        if compare:
            with open(gate_out) as f:
                body = f.read()
            self.gate("live-dashboard: /query == adscope query after final seal",
                      body + "\n" == reference(self.main, self.seed, records))
        for key in ("freshness_ms_p50", "freshness_ms_p90", "query_ms_p50",
                    "query_ms_p99", "query_rps") + QUERY_CLASS_P50:
            self.add(key, result[key])
        return result


def measure(workload, run):
    """Drives `workload` for run.seconds, then samples each other path (the
    offline study on the quarter-size probe trace, one ingest pass, a short
    dashboard), so every end-to-end metric is reported on every workload.
    Returns the end-to-end metrics."""
    if workload == "offline-study":
        run.offline_setup()
        run.offline_series(run.main, run.seconds, sharded_runs=2, serial_runs=2)
        run.ingest_pass(compare=False)
        run.dashboard_pass(SIDE_DASH_S, compare=False)
        setup = run.median("offline_setup_s")
        rss = run.median("offline_rss_mb")
    elif workload == "live-ingest":
        # Probe studies between the passes, so that the side samples are
        # spread over the run like the passes are.
        start = time.perf_counter()
        passes = 0
        while passes < 2 or time.perf_counter() - start < run.seconds:
            run.ingest_pass(compare=True)
            run.offline_series(run.probe, 0, 1, 1)
            passes += 1
        run.live_setup()
        setup = run.median("live_setup_s")
        rss = run.median("ingest_rss_mb")
        run.dashboard_pass(SIDE_DASH_S, compare=False)
    else:
        run.dashboard_pass(run.seconds, compare=True)
        run.live_setup()
        setup = run.median("live_setup_s")
        rss = run.median("dash_rss_mb")
        run.offline_series(run.probe, 0, SIDE_STUDIES, SIDE_STUDIES)
        run.ingest_pass(compare=False)
    metrics = {
        "setup_s": (setup, "s"),
        "study_rps": (run.median("study_rps"), "1/s"),
        "study_serial_rps": (run.median("study_serial_rps"), "1/s"),
        "ingest_rps": (run.median("ingest_rps"), "1/s"),
        "freshness_ms_p50": (run.median("freshness_ms_p50"), "ms"),
        "freshness_ms_p90": (run.median("freshness_ms_p90"), "ms"),
        "query_ms_p50": (run.median("query_ms_p50"), "ms"),
        "query_ms_p99": (run.median("query_ms_p99"), "ms"),
        "query_rps": (run.median("query_rps"), "1/s"),
        "peak_rss_mb": (rss, "MiB"),
        "ok_ratio": (1.0 - run.failed / max(1, run.attempted), "ratio"),
    }
    return metrics


TRACED_E2E = {
    "study_rps": "traced.study_rps",
    "study_serial_rps": "traced.study_serial_rps",
    "ingest_rps": "traced.ingest_rps",
    "freshness_ms_p50": "traced.freshness_ms_p50",
    "freshness_ms_p90": "traced.freshness_ms_p90",
    "query_ms_p50": "traced.query_ms_p50",
    "query_ms_p99": "traced.query_ms_p99",
    "query_rps": "traced.query_rps",
}


def traced(workload, run):
    """The traced in-process run: every per-layer metric."""
    dash_s = run.seconds if workload == "live-dashboard" else SIDE_DASH_S
    records = min(int(DASH_RATE * dash_s), run.info["records"])
    ingest_gate = os.path.join(run.workdir, "traced_gate_ingest.json")
    dash_gate = os.path.join(run.workdir, "traced_gate_dash.json")
    out = subprocess.run(
        [binary("perfbench_traced"), "--trace", os.path.join(run.main, "trace.adst"),
         "--prep-dir", run.main, "--seed", str(run.seed), "--bucket-s", str(BUCKET_S),
         "--dash-records", str(records), "--rate", str(DASH_RATE),
         "--day", run.info["day"], "--gate-target", GATE_TARGET,
         "--ingest-gate-out", ingest_gate, "--dash-gate-out", dash_gate],
        capture_output=True, text=True, env=child_env(), timeout=CHILD_TIMEOUT_S)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise BenchError(f"traced run failed: {out.stderr.strip()[-300:]}")
    values = json.loads(lines[-1])
    run.gate("traced: 4-shard report == serial report", values["gate.reports_identical"] == 1)
    run.gate("traced: live runs completed",
             values["ingest.completed"] == 1 and values["dashboard.completed"] == 1)
    run.gate("traced: zero drops", values["live.drops"] == 0)
    run.gate("traced: records ingested == sent",
             values["ingest.records_ingested"] == values["ingest.records_sent"])
    run.gate("traced: store probes answered", values["store.probe_failures"] == 0)
    with open(ingest_gate) as f:
        run.gate("traced: ingest /query == adscope query",
                 f.read() + "\n" == reference(run.main, run.seed))
    with open(dash_gate) as f:
        run.gate("traced: dashboard /query == adscope query",
                 f.read() + "\n" == reference(run.main, run.seed, records))
    run.operations("traced", values["ingest.ops_attempted"] + values["dashboard.ops_attempted"],
                   values["ingest.ops_failed"] + values["dashboard.ops_failed"])
    say("traced offline-study bases: "
        f"core.parallel_speedup = serial {values['core.serial_feed_finish_ms']:.1f} ms / "
        f"4-shard {values['core.sharded_feed_finish_ms']:.1f} ms (feed + finish); "
        f"core.dispatch_busy_share = {values['core.dispatch_busy_ms']:.1f} ms in "
        f"on_*_batch / {values['core.feed_ms']:.1f} ms feed wall; "
        f"adblock.cache_hit_ratio over {int(values['adblock.cache_lookups'])} lookups; "
        f"adblock.ad_ratio over {int(values['adblock.classify_requests'])} requests; "
        f"{int(values['spans'])} spans")
    return values


def result_line(correct, run, metrics):
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(max(1, run.attempted)),
        "failed": int(run.failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def one(workload, seed, seconds, trace):
    env = Environment()
    run = Run(seed, seconds, env)
    e2e = measure(workload, run)
    spec = load_spec()
    say(f"workload {workload} (seed {seed}, {seconds} s)")
    if trace:
        values = traced(workload, run)
        say("  traced values are full-trace in-process runs; on the live workloads"
            " the untraced study_* values come from the probe trace")
        say(f"  {'end-to-end metric':<20} {'untraced':>14} {'traced':>14}  unit")
        for name, (value, unit) in e2e.items():
            other = values.get(TRACED_E2E.get(name, ""), None)
            shown = f"{other:14.4f}" if other is not None else f"{'-':>14}"
            say(f"  {name:<20} {value:14.4f} {shown}  {unit}")
        metrics = {m["name"]: (values.get(m["name"], 0.0), m["unit"])
                   for m in spec["per_layer"]}
        for name, (value, unit) in metrics.items():
            say(f"  {name:<40} {value:14.6g} {unit}")
    else:
        metrics = e2e
        for name, (value, unit) in metrics.items():
            say(f"  {name:<20} {value:14.4f} {unit}")
        for name in QUERY_CLASS_P50:
            say(f"  {name:<40} {run.median(name):10.4f} ms")
    say(f"  error_ratio = {run.failed}/{max(1, run.attempted)} failed over attempted")
    correct = all(passed for _, passed in run.gates)
    for name, passed in run.gates:
        if not passed:
            say(f"  GATE FAILED: {name}")
    env.check()
    say("  " + env.line())
    with open(os.path.join(RESULTS, f"{workload}-s{seed}-t{int(trace)}.json"), "w") as f:
        json.dump({"env": env.line(), "gates": run.gates,
                   "metrics": {k: v for k, (v, _) in metrics.items()},
                   "samples": run.samples}, f, indent=1)
    return correct, run, metrics


def steady(args):
    """Repeats each workload over consecutive seeds and prints, per
    end-to-end metric, the median, quartiles and spread against its bound."""
    spec = load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    worst = 0.0
    for workload in workloads:
        values = {}
        for i in range(args.steady):
            seed = args.seed + i
            out = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, timeout=900)
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if out.returncode == 0 and lines else None
            if result is None or not result["correct"]:
                say(f"{workload} seed {seed}: FAILED\n{out.stdout[-2000:]}{out.stderr[-1000:]}")
                return 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            say(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()))
        say(f"\n{workload}: {args.steady} runs")
        say(f"  {'metric':<20} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} "
            f"{'bound':>6}  ok")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name, 0)
            ok = spread < bound
            worst = max(worst, spread / bound if bound else float("inf"))
            say(f"  {name:<20} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.4f} "
                f"{bound:6.3f}  {'yes' if ok else 'NO'}{' (< bound/3)' if spread < bound / 3 else ''}")
    say(f"\nworst spread / bound: {worst:.3f}")
    return 0 if worst < 1 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload (untraced) and report all gates")
    parser.add_argument("--steady", type=int, default=0, metavar="N",
                        help="repeat over N seeds and print each metric's spread")
    args = parser.parse_args()
    if not args.all and not args.steady and not args.workload:
        parser.error("--workload, --all or --steady is required")
    try:
        check_sources()
        build()
        os.makedirs(RESULTS, exist_ok=True)
        if args.steady:
            return steady(args)
        if args.all:
            all_correct = True
            for workload in WORKLOADS:
                correct, _, _ = one(workload, args.seed, args.seconds, False)
                all_correct = all_correct and correct
            say("all gates passed" if all_correct else "some gate FAILED")
            return 0 if all_correct else 1
        correct, run, metrics = one(args.workload, args.seed, args.seconds, bool(args.trace))
        print(result_line(correct, run, metrics), flush=True)
        return 0 if correct else 1
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
