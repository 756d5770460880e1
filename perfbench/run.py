#!/usr/bin/env python3
"""perfbench: the repository's benchmark (see perfbench/README.md).

One run of one workload:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
Every workload, end-to-end metrics only, as a table:
    python3 perfbench/run.py --all [--seed N] [--seconds S]
Toy-size self-test (every metric emitted with its unit; the oracle check
fires on a deliberately corrupted response):
    python3 perfbench/run.py --self-test

The program is built from source first (CMake, into .bench_build/perfbench
under the current directory). The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer metrics.
"""

import argparse
import json
import os
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(os.getcwd(), ".bench_build", "perfbench")
BIN = os.path.join(BUILD, "perfbench")
FIXTURES = os.path.join(BUILD, "fixtures")
RUNS = os.path.join(BUILD, "runs")

SERVE = ["serve-causer-churn", "serve-gru-catalog", "serve-gru-int8-reload"]
WORKLOADS = SERVE
# The training job (core::TrainCauser, then eval::Evaluate) runs inside the
# traced run of serve-causer-churn for its per-layer metrics.
TRAIN_JOB = "train-causer"

# name -> unit, for both metric sets (BENCHMARK.json holds the same list).
END_TO_END = {
    "p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Reported with every untraced run (table and result.json) but not gated:
# on the development VM their spread across seeds reached the 0.25 maximum
# bound (see perfbench/README.md).
REPORTED = {"p90_ms": "ms", "throughput_per_s": "1/s", "p99_ms": "ms"}
PER_LAYER = {
    "e2e.p99_ms": "ms",
    "serve.protocol.decode_us": "us",
    "serve.protocol.encode_us": "us",
    "serve.server.queue_wait_p50_ms": "ms",
    "serve.server.queue_wait_p99_ms": "ms",
    "serve.server.rejected_share": "fraction",
    "serve.engine.batch_size_mean": "requests",
    "serve.engine.batches": "count",
    "serve.engine.wait_ms": "ms",
    "serve.engine.advance_ms": "ms",
    "serve.engine.score_ms": "ms",
    "serve.session_store.acquire_us": "us",
    "serve.session_store.hit_ratio": "ratio",
    "serve.session_store.evictions": "count",
    "serve.session_store.bytes_per_session": "bytes",
    "serve.model_registry.reload_ms": "ms",
    "serve.model_registry.stale_rebuilds": "count",
    "serve.quant.rerank_candidates_per_batch": "count",
    "serve.gen_lag_p99_ms": "ms",
    "serve.fail_share": "fraction",
    "core.advance_us": "us",
    "core.score_us": "us",
    "models.advance_us": "us",
    "models.state_rep_us": "us",
    "tensor.kernels.topk_us": "us",
    "tensor.kernels.topk_gflops": "GFLOP/s",
    "tensor.kernels.topk_gbps": "GB/s",
    "tensor.kernels.topk_roofline": "fraction",
    "tensor.quant.topkq_us": "us",
    "tensor.quant.quantize_us": "us",
    "tensor.arena.bytes_per_step": "bytes",
    "core.train_step_ms": "ms",
    "core.steps": "count",
    "causal.matrix_exp_us": "us",
    "causal.matrix_exp_calls": "count",
    "eval.instances_per_s": "1/s",
    "common.thread_pool.busy_share": "fraction",
    "train.epoch_s": "s",
    "train.eval_s": "s",
    "train.ndcg_at_5": "ratio",
    "machine.stream_gbps": "GB/s",
    "machine.peak_gflops": "GFLOP/s",
    "trace.overhead_p50_ms": "ms",
    "trace.spans": "count",
}

# setup_s: besides the serving host, this many host processes set up (and
# quit at once) before the load and as many after it. Set-up speed varies
# from process to process and drifts over seconds on a shared VM; the
# median of the per-process medians, spread over the run, holds steady.
SETUP_PROBES = 4

# Per-process timeouts (seconds); a run must end well inside 180 s.
T_BUILD = 840
T_FIXTURE = 120
T_STEP = 150


class BenchError(Exception):
    pass


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def run_quiet(cmd, timeout, **kw):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          timeout=timeout, text=True, **kw)
    return proc.returncode, proc.stdout


def build():
    """Configures (once) and builds the perfbench target from source."""
    if not os.path.exists(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        raise BenchError("program sources not found next to perfbench/")
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    os.makedirs(BUILD, exist_ok=True)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        rc, out = run_quiet(["cmake", "-S", HERE, "-B", BUILD,
                             "-DCMAKE_BUILD_TYPE=Release"], T_BUILD)
        if rc != 0:
            sys.stderr.write(out)
            raise BenchError("cmake configure failed")
    rc, out = run_quiet(["cmake", "--build", BUILD, "-j", "4",
                         "--target", "perfbench"], T_BUILD)
    if rc != 0:
        sys.stderr.write(out[-20000:])
        raise BenchError("build failed")


def bench(*args):
    return [BIN] + list(args)


def git_commit():
    try:
        rc, out = run_quiet(["git", "-C", HERE, "rev-parse", "HEAD"], 10)
        return out.strip() if rc == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def read_json(path):
    with open(path) as f:
        return json.load(f)


class Host:
    """The serving host process, driven over its stdin."""

    def __init__(self, workload, toy, logpath):
        self.log = open(logpath, "w")
        cmd = bench("host", "--workload=" + workload, "--fixtures=" + FIXTURES)
        if toy:
            cmd.append("--toy")
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, stderr=self.log,
                                     text=True, bufsize=1)
        line = self.expect("READY", T_STEP)
        m = re.match(r"READY port=(\d+) setup_s=(\[.*\]) "
                     r"provenance=(\{.*\})$", line)
        if m is None:
            raise BenchError("host: bad READY line: " + line)
        self.port = int(m.group(1))
        self.setup_s = json.loads(m.group(2))
        self.provenance = json.loads(m.group(3))

    def expect(self, prefix, timeout):
        deadline = time.monotonic() + timeout
        while True:
            left = deadline - time.monotonic()
            if left <= 0:
                raise BenchError("host: timed out waiting for " + prefix)
            ready, _, _ = select.select([self.proc.stdout], [], [], left)
            if not ready:
                continue
            line = self.proc.stdout.readline()
            if not line:
                raise BenchError("host exited before " + prefix)
            if line.startswith(prefix):
                return line.strip()

    def cpu_s(self):
        """CPU time (user + system) the host process has used so far."""
        with open("/proc/%d/stat" % self.proc.pid) as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def command(self, text):
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        reply = self.expect("", T_STEP)
        if reply != "OK":
            raise BenchError("host: '%s' -> %s" % (text, reply))

    def quit(self):
        self.proc.stdin.write("quit\n")
        self.proc.stdin.flush()
        line = self.expect("DONE", T_STEP)
        self.proc.wait(timeout=T_STEP)
        self.log.close()
        fields = dict(kv.split("=", 1) for kv in line.split()[1:])
        if self.proc.returncode != 0:
            raise BenchError("host exited with %d" % self.proc.returncode)
        return fields

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        if not self.log.closed:
            self.log.close()


def load(workload, toy, seed, seconds, port, out, extra=()):
    cmd = bench("load", "--workload=" + workload, "--fixtures=" + FIXTURES,
                "--port=%d" % port, "--seed=%d" % seed,
                "--seconds=%s" % seconds, "--out=" + out, *extra)
    if toy:
        cmd.append("--toy")
    rc, text = run_quiet(cmd, T_STEP)
    sys.stderr.write(text)
    if not os.path.exists(out):
        raise BenchError("load generator failed (exit %d)" % rc)
    return rc, read_json(out)


def hist_quantile(entry, q):
    """Quantile of a registry histogram by linear interpolation in its
    buckets (seconds in, seconds out)."""
    total = entry.get("count", 0)
    if total == 0:
        return 0.0
    target = q * total
    seen = 0
    lower = 0.0
    for bucket in entry["buckets"]:
        le = bucket["le"]
        upper = float("inf") if le == "inf" else float(le)
        if seen + bucket["count"] >= target:
            if upper == float("inf"):
                return lower
            frac = (target - seen) / bucket["count"] if bucket["count"] else 0
            return lower + frac * (upper - lower)
        seen += bucket["count"]
        lower = upper
    return lower


def registry_metrics(path):
    """Per-layer serving metrics from the host's registry snapshot."""
    reg = {e["name"]: e for e in read_json(path)["metrics"]}

    def count(name):
        e = reg.get(name)
        if e is None:
            return 0.0
        return float(e.get("count", e.get("value", 0)))

    def total(name):
        e = reg.get(name)
        return float(e.get("sum", 0)) if e else 0.0

    def mean(name):
        c = count(name)
        return total(name) / c if c else 0.0

    queue = reg.get("server.queue_seconds", {"count": 0})
    batches = count("serve.batch_size")
    hits = count("serve.session_hits_total")
    misses = count("serve.session_misses_total")
    received = count("server.requests_total")
    rejected = (count("server.rejected_queue_full_total") +
                count("server.rejected_deadline_total") +
                count("server.rejected_shutdown_total"))
    busy_per_batch = ((total("serve.advance_seconds") +
                       total("serve.score_seconds")) / batches
                      if batches else 0.0)
    quant_batches = count("serve.quant.batches_total")
    return {
        "serve.server.queue_wait_p50_ms": 1e3 * hist_quantile(queue, 0.5),
        "serve.server.queue_wait_p99_ms": 1e3 * hist_quantile(queue, 0.99),
        "serve.server.rejected_share": rejected / received if received else 0,
        "serve.engine.batch_size_mean": mean("serve.batch_size"),
        "serve.engine.batches": batches,
        "serve.engine.wait_ms": max(
            0.0, 1e3 * (mean("serve.request_seconds") - busy_per_batch)),
        "serve.engine.advance_ms": 1e3 * mean("serve.advance_seconds"),
        "serve.engine.score_ms": 1e3 * mean("serve.score_seconds"),
        "serve.session_store.hit_ratio":
            hits / (hits + misses) if hits + misses else 0.0,
        "serve.session_store.evictions":
            count("serve.session_evictions_total"),
        "serve.model_registry.reload_ms": 1e3 * mean("serve.reload.seconds"),
        "serve.model_registry.stale_rebuilds":
            count("serve.reload.stale_rebuilds_total"),
        "serve.quant.rerank_candidates_per_batch":
            count("serve.quant.rerank_candidates_total") / quant_batches
            if quant_batches else 0.0,
    }


def layers(workload, toy, seed, rundir):
    out = os.path.join(rundir, "layers.json")
    cmd = bench("layers", "--workload=" + workload, "--fixtures=" + FIXTURES,
                "--seed=%d" % seed, "--out=" + out,
                "--spans-out=" + os.path.join(rundir, "layer_spans.json"))
    if toy:
        cmd.append("--toy")
    rc, text = run_quiet(cmd, T_STEP)
    if rc != 0:
        sys.stderr.write(text)
        raise BenchError("layer replay failed")
    return read_json(out)


def fixture(workload, toy):
    os.makedirs(FIXTURES, exist_ok=True)
    cmd = bench("fixture", "--workload=" + workload, "--fixtures=" + FIXTURES)
    if toy:
        cmd.append("--toy")
    rc, text = run_quiet(cmd, T_FIXTURE)
    if rc != 0:
        sys.stderr.write(text)
        raise BenchError("fixture generation failed")


def setup_probes(workload, toy, rundir, tag):
    """Per-process set-up times of SETUP_PROBES hosts that quit at once."""
    out = []
    for i in range(SETUP_PROBES):
        host = Host(workload, toy, os.path.join(rundir, "setup-%s%d.log" %
                                                (tag, i)))
        try:
            host.quit()
        finally:
            host.kill()
        out.append(host.setup_s)
    return out


def run_serve(workload, seed, seconds, trace, toy, rundir, corrupt=False):
    fixture(workload, toy)
    setups = [] if trace else setup_probes(workload, toy, rundir, "before")
    host = Host(workload, toy, os.path.join(rundir, "host.log"))
    host_cpu_s = None
    try:
        if not trace:
            extra = ["--corrupt"] if corrupt else []
            cpu0 = host.cpu_s()
            rc, res = load(workload, toy, seed, seconds, host.port,
                           os.path.join(rundir, "load.json"), extra)
            host_cpu_s = host.cpu_s() - cpu0
            done = host.quit()
        else:
            # Two halves on one host: untraced, then with the program's
            # registry on and the generator's spans recorded. Disjoint user
            # ids keep the second half's oracle histories independent.
            half = max(1.0, seconds / 2.0)
            rc0, plain = load(workload, toy, seed, half, host.port,
                              os.path.join(rundir, "load_plain.json"),
                              ["--mode=fixed"])
            host.command("metrics on")
            rc, res = load(workload, toy, seed, half, host.port,
                           os.path.join(rundir, "load.json"),
                           ["--mode=fixed", "--user-offset=16777216",
                            "--spans-out=" + os.path.join(rundir,
                                                          "spans.json")])
            rc = rc or rc0
            registry = os.path.join(rundir, "registry.json")
            host.command("dump " + registry)
            done = host.quit()
    finally:
        host.kill()
    setups.append(host.setup_s)
    if not trace:
        setups += setup_probes(workload, toy, rundir, "after")
    train_ok, train_metrics, train_detail = True, {}, {}
    if trace and workload == "serve-causer-churn":
        train_ok, train_metrics, train_detail = train_layers(toy, rundir)
    fixed = res["fixed"]
    attempted = res["attempted"]
    failed = res["failed"]
    correct = rc == 0 and res["mismatches"] == 0 and res["valid"]
    samples = {"p50_ms": fixed["samples"], "p90_ms": fixed["samples"],
               "p99_ms": fixed["samples"],
               "setup_s": sum(len(s) for s in setups)}
    if not trace:
        metrics = {
            "p50_ms": fixed["p50_ms"],
            "p90_ms": fixed["p90_windowed_ms"],
            "setup_s": statistics.median(statistics.median(s)
                                         for s in setups),
            "peak_rss_mb": int(done["peak_rss_kb"]) / 1024.0,
            "throughput_per_s": res["max_qps_slo_interp"],
            "p99_ms": fixed["p99_windowed_ms"],
        }
        samples["throughput_per_s"] = len(res["phases"]) - 1
    else:
        attempted += plain["attempted"]
        failed += plain["failed"]
        correct = correct and plain["mismatches"] == 0 and plain["valid"]
        metrics = dict.fromkeys(PER_LAYER, 0.0)
        metrics.update(registry_metrics(registry))
        lay = layers(workload, toy, seed, rundir)
        metrics.update({k: v for k, v in lay.items() if k in PER_LAYER})
        spans = read_json(os.path.join(rundir, "spans.json"))
        metrics["trace.spans"] = float(sum(len(s) for s in spans) +
                                       lay["spans"])
        metrics["serve.gen_lag_p99_ms"] = fixed["gen_lag_p99_ms"]
        metrics["e2e.p99_ms"] = fixed["p99_windowed_ms"]
        metrics["serve.fail_share"] = failed / attempted if attempted else 0
        metrics["trace.overhead_p50_ms"] = (fixed["p50_ms"] -
                                            plain["fixed"]["p50_ms"])
        metrics.update(train_metrics)
        correct = correct and train_ok
    done["provenance"] = host.provenance
    detail = {"load": res, "setup_s": setups, "host": done,
              "train": train_detail}
    if host_cpu_s is not None:
        # Server CPU per request sent, over the whole load: the figure that
        # shows whether the idlers (below) take CPU from the program.
        detail["host_cpu_ms_per_request"] = (1e3 * host_cpu_s /
                                             max(1, attempted))
    return correct, attempted, failed, metrics, samples, detail


def train_layers(toy, rundir, corrupt=False):
    """The training job: TrainCauser on the Foursquare-shaped split, then 5
    full-ranking Evaluate passes, with the program's registry on. A replica
    retrains the same inputs at one thread afterwards: finite loss and
    bit-identical NDCG@5 are checked. Returns (correct, per-layer metrics,
    detail)."""
    primary = os.path.join(rundir, "train.json")
    replica = os.path.join(rundir, "train_replica.json")
    base = bench("train", "--workload=" + TRAIN_JOB)
    if toy:
        base.append("--toy")
    cmd_p = base + ["--threads=2", "--metrics", "--out=" + primary]
    cmd_r = base + ["--threads=1", "--out=" + replica]
    if corrupt:
        cmd_r.append("--corrupt")
    with open(os.path.join(rundir, "train.log"), "w") as logf:
        rcs = [subprocess.run(c, stdout=logf, stderr=logf,
                              timeout=T_STEP).returncode
               for c in (cmd_p, cmd_r)]
    if not (os.path.exists(primary) and os.path.exists(replica)):
        raise BenchError("training failed (exit %s)" % rcs)
    p, r = read_json(primary), read_json(replica)
    same_ndcg = p["ndcg_hex"] == r["ndcg_hex"]
    correct = (rcs == [0, 0] and p["loss_finite"] and r["loss_finite"] and
               same_ndcg and p["ndcg_at_5"] > 0)
    if not same_ndcg:
        log("NDCG@5 differs between runs of the same inputs: %s vs %s" %
            (p["ndcg_hex"], r["ndcg_hex"]))
    metrics = {k: v for k, v in p.items() if k in PER_LAYER}
    metrics["train.epoch_s"] = statistics.median(p["epoch_s"])
    metrics["train.eval_s"] = statistics.median(p["eval_s"])
    metrics["train.ndcg_at_5"] = p["ndcg_at_5"]
    return correct, metrics, {"train": p, "replica": r}


# Keeps every CPU out of the idle (halt) state while a workload runs: one
# SCHED_IDLE busy loop per CPU. SCHED_IDLE threads run only when nothing
# else is runnable and give way at once to any woken thread. They stop a
# virtual machine's idle CPUs from halting, whose wake-up latency (several
# ms, varying with the host's load) would otherwise dominate a request path
# that sleeps and wakes at every hop. So the quoted latencies leave out that
# VM wake-up cost. Every result records how many ran ("idlers") and the
# server's CPU time per request; --no-idlers runs without them.
IDLER = """
import os, sys
cpu = int(sys.argv[1])
try:
    os.sched_setaffinity(0, {cpu})
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
except (AttributeError, OSError):
    sys.exit(0)
yield_ = os.sched_yield
while True:
    yield_()
"""


class Idlers:
    def __init__(self, enabled):
        self.cpus = sorted(os.sched_getaffinity(0)) if enabled else []
        self.procs = []

    def __enter__(self):
        for cpu in self.cpus:
            self.procs.append(subprocess.Popen(
                [sys.executable, "-c", IDLER, str(cpu)],
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL))
        return self

    def __exit__(self, *exc):
        for p in self.procs:
            p.kill()
        for p in self.procs:
            p.wait()
        return False


def run_dir(workload, seed, trace, toy):
    return os.path.join(RUNS, "%s-s%d-t%d%s" % (workload, seed, trace,
                                                 "-toy" if toy else ""))


def run_workload(workload, seed, seconds, trace, toy=False, corrupt=False,
                 idlers=True):
    rundir = run_dir(workload, seed, trace, toy)
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    idle = Idlers(idlers)
    with idle:
        out = run_serve(workload, seed, seconds, trace, toy, rundir, corrupt)
    correct, attempted, failed, metrics, samples, detail = out
    units = PER_LAYER if trace else END_TO_END
    result = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]}
                    for k in units},
    }
    reported = {k: {"value": float(metrics[k]), "unit": u}
                for k, u in REPORTED.items() if k in metrics}
    provenance = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "toy": toy, "git_commit": git_commit(),
        "connections": 2, "server_workers": 2, "pool_threads": 2,
        "idlers": len(idle.cpus), "samples": samples,
    }
    if "host_cpu_ms_per_request" in detail:
        provenance["host_cpu_ms_per_request"] = (
            detail["host_cpu_ms_per_request"])
    # nproc, ISA tier and source, build type, as the serving host saw them.
    provenance.update(detail["host"]["provenance"])
    with open(os.path.join(rundir, "result.json"), "w") as f:
        json.dump({"result": result, "reported": reported,
                   "provenance": provenance, "detail": detail}, f, indent=1)
    return result, reported, samples, provenance


def print_table(workload, result, reported, samples):
    print("%s (correct=%s attempted=%d failed=%d)" % (
        workload, result["correct"], result["attempted"], result["failed"]))
    rows = list(result["metrics"].items())
    rows += [(k + " (not gated)", m) for k, m in reported.items()]
    for name, m in rows:
        n = samples.get(name.split()[0])
        print("  %-40s %14.6g %-9s %s" % (name, m["value"], m["unit"],
                                          "n=%d" % n if n else ""))


def mismatches(workload, trace, names):
    """Oracle mismatches the generator counted in a toy run's load files."""
    rundir = run_dir(workload, 1, trace, True)
    return sum(read_json(os.path.join(rundir, n))["mismatches"] for n in names)


def self_test():
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, _, _, _ = run_workload(workload, 1, 2, trace, toy=True)
            names = PER_LAYER if trace else END_TO_END
            missing = [n for n in names if n not in result["metrics"] or
                       result["metrics"][n]["unit"] != names[n]]
            loads = ["load_plain.json", "load.json"] if trace else ["load.json"]
            clean = mismatches(workload, trace, loads) == 0
            good = result["correct"] and not missing and clean
            log("self-test %s trace=%d: %s%s" % (
                workload, trace, "ok" if good else "FAILED",
                " missing %s" % missing if missing else ""))
            ok = ok and good
        # One response has one score bit flipped after it arrived: the
        # oracle must count exactly that one, and the run must fail.
        result, _, _, _ = run_workload(workload, 1, 2, 0, toy=True,
                                       corrupt=True)
        fired = (not result["correct"] and
                 mismatches(workload, 0, ["load.json"]) == 1)
        log("self-test %s corrupted response caught as 1 mismatch: %s" % (
            workload, "ok" if fired else "FAILED"))
        ok = ok and fired
    rundir = os.path.join(RUNS, "train-corrupt-toy")
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    correct, _, detail = train_layers(True, rundir, corrupt=True)
    fired = (not correct and
             detail["train"]["ndcg_hex"] != detail["replica"]["ndcg_hex"])
    log("self-test training replica NDCG@5 mismatch caught: %s" % (
        "ok" if fired else "FAILED"))
    ok = ok and fired
    print("self-test " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    # SIGTERM unwinds like an error, so every child process is stopped and
    # waited for on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--no-idlers", action="store_true",
                    help="run without the SCHED_IDLE loops (for comparison)")
    args = ap.parse_args()
    if not (args.workload or args.all or args.self_test):
        ap.error("one of --workload, --all, --self-test is required")
    try:
        build()
        os.makedirs(RUNS, exist_ok=True)
        if args.self_test:
            return self_test()
        if args.all:
            bad = False
            for workload in WORKLOADS:
                result, reported, samples, _ = run_workload(
                    workload, args.seed, args.seconds, args.trace,
                    idlers=not args.no_idlers)
                print_table(workload, result, reported, samples)
                bad = bad or not result["correct"]
            return 1 if bad else 0
        result, reported, samples, provenance = run_workload(
            args.workload, args.seed, args.seconds, args.trace,
            idlers=not args.no_idlers)
        print(json.dumps({"provenance": provenance}))
        print_table(args.workload, result, reported, samples)
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    except (BenchError, subprocess.SubprocessError, OSError, KeyError,
            ValueError) as e:
        log("error: %s" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
