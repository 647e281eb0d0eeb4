#!/usr/bin/env python3
"""Repository benchmark runner (see BENCHMARK.json).

    python3 zkbench/run.py --workload exchange|transfer|audit \
        --seed N --seconds S --trace 0|1
    python3 zkbench/run.py --self-test

Run from the root of a checkout. Builds the zkbench program from source
(zkbench/CMakeLists.txt, into $CARGO_TARGET_DIR or .bench_build), then
runs PROCESSES processes of the workload, one after the other, against a
fresh deployment each. Untraced, every process sets up and then times
its share (1/PROCESSES) of the --seconds window; the metrics pool the
ops of all of them, so the window is spread over the whole run instead
of one stretch of it. Traced, the first processes stop after set-up and
the fixed exact-count prefix and the last one times the whole window.
It prints, as the last line of standard output, one JSON object:
{"correct", "attempted", "failed", "metrics"} with every end_to_end
metric of BENCHMARK.json (--trace 0) or every per_layer metric
(--trace 1). End-to-end timings are given at a nominal host speed (see
HOST_REF_NOMINAL_MS); the measured ones are logged on standard error.

`correct` is false when any output check of any process failed, or when
the exact counts of the processes (same seed) differ. --self-test feeds
deliberately wrong expectations and exits 0 only if the checks catch
them.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Pinned pool size (ZKDET_THREADS counts the calling thread, so this caps
# the process's compute threads), clamped to the machine.
THREADS = min(4, os.cpu_count() or 1)
# Processes per run; set-up time is their median.
PROCESSES = 3
# Latency tail per workload, fixed; zkbench/README.md gives each one's
# per-run sample count and why it sits where it does.
TAIL_PERCENTILE = {"exchange": 60.0, "transfer": 75.0, "audit": 90.0}
# Host-speed reference: the time of one host_ref_ms() sample
# (zkbench/src/harness.cpp, a fixed Montgomery-multiplication chain)
# on the 4-vCPU host this benchmark was tuned on, in its fast state.
# End-to-end timings are reported at that host speed: every stretch of
# the window, and every op in it, is divided by the mean of the two
# samples around it over this value; set-up by the mean of the samples
# before and after it.
HOST_REF_NOMINAL_MS = 2.5
# Every process of one run must end within this many seconds of the
# first one starting (the build before it is not counted).
RUN_BUDGET_S = 170


def log(msg):
    print(f"zkbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(base, "zkbench")


def build():
    """Configures (once) and builds the benchmark; False on failure."""
    bdir = build_dir()
    jobs = str(THREADS)
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(bdir, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", bdir, "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def run_process(args, index, mode, seconds, deadline, inject=None):
    """Runs one zkbench process in a fresh work directory; returns its report."""
    workdir = os.path.join(".bench_work", f"{os.getpid()}-{index}")
    shutil.rmtree(workdir, ignore_errors=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("ZKDET_")}
    env.update(ZKDET_THREADS=str(THREADS), ZKDET_REPLICAS="1",
               ZKDET_REPL_TRANSPORT="socket")
    # Only the timed window is traced; set-up samples run untraced.
    trace = args.trace if mode == "run" else 0
    cmd = [os.path.join(build_dir(), "zkbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds),
           "--trace", str(trace), "--mode", mode, "--workdir", workdir]
    if inject:
        cmd += ["--inject", inject]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"zkbench run exceeded its {RUN_BUDGET_S}s budget")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(".bench_work")
        except OSError:
            pass
    if proc.returncode != 0:
        raise RuntimeError(f"zkbench process exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def percentile(xs, p):
    """Nearest-rank percentile, matching the C++ program's."""
    xs = sorted(xs)
    idx = int(p / 100.0 * (len(xs) - 1) + 0.5)
    return xs[min(idx, len(xs) - 1)]


def host_factors(report):
    """How much slower than nominal the host ran, per window sample
    interval and for set-up, in one process."""
    w = report["window_ref_ms"]
    window = [(w[i] + w[i + 1]) / 2 if i + 1 < len(w) else w[i]
              for i in range(len(w))]
    setup = (statistics.median(report["setup_ref_ms"]) + w[0]) / 2
    return ([x / HOST_REF_NOMINAL_MS for x in window],
            setup / HOST_REF_NOMINAL_MS)


def aggregate(workload, reports, trace, spec):
    """Checks and metrics of one run. Untraced, the window is the union of
    every process's share; traced, it is the last process's."""
    timed = [reports[-1]] if trace else reports
    failures = [f"{c['name']}: {c['detail']}" for r in reports
                for c in r["checks"] if not c["ok"]]
    for r in reports[1:]:
        if r["exact"] != reports[0]["exact"]:
            failures.append(f"exact counts differ between processes of one "
                            f"seed: {reports[0]['exact']} vs {r['exact']}")
    lat = [x for r in timed for x in r["latencies_ms"]]
    window_s = sum(r["window_s"] for r in timed)
    attempted = sum(r["attempted"] for r in timed)
    failed = sum(r["failed"] for r in timed)
    if not lat or attempted < 1:
        failures.append("no completed op in the window")
    if failed:
        failures.append(f"{failed} of {attempted} ops failed")
    for msg in failures:
        log(f"CHECK FAILED: {msg}")

    ops = len(lat)
    factors = [host_factors(r) for r in reports]
    if trace:
        full = reports[-1]
        layers = dict(full["layers"])
        layers["process.cpu_ms_per_op"] = full["cpu_ms"] / ops if ops else 0.0
        layers["host.ref_ms"] = statistics.median(full["window_ref_ms"])
        values = {m["name"]: layers.get(m["name"], 0.0) for m in spec["per_layer"]}
        extra = {k: v for k, v in layers.items() if k not in values}
        if extra:
            log(f"{workload}: further trace figures {extra}")
        metrics_spec = spec["per_layer"]
    else:
        # Timings at the nominal host speed (see HOST_REF_NOMINAL_MS).
        norm_lat = [x / f[i] for r, (f, _) in zip(timed, factors)
                    for x, i in zip(r["latencies_ms"], r["op_ref"])]
        norm_window_s = sum(span / f_i for r, (f, _) in zip(timed, factors)
                            for span, f_i in zip(r["window_ref_span_ms"], f)) / 1e3
        values = {
            "setup_s": statistics.median(r["setup_s"] / f_setup
                                         for r, (_, f_setup) in zip(reports, factors)),
            "ops_per_s": ops / norm_window_s if norm_window_s > 0 else 0.0,
            "gas_per_op": sum(r["gas"] for r in timed) / ops if ops else 0.0,
            "latency_tail_ms": (percentile(norm_lat, TAIL_PERCENTILE[workload])
                                if lat else 0.0),
            "success_ratio": (attempted - failed) / attempted if attempted else 0.0,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reports),
        }
        metrics_spec = spec["end_to_end"]
    # Measured (not normalized) figures and the median, which is logged,
    # not reported: zkbench/README.md says why.
    p50 = statistics.median(lat) if lat else 0.0
    tail = percentile(lat, TAIL_PERCENTILE[workload]) if lat else 0.0
    log(f"{workload}: {ops} ops in {window_s:.2f}s over {len(timed)} "
        f"process(es), set-up samples {[round(r['setup_s'], 3) for r in reports]}, "
        f"host factors {[round(statistics.median(f), 3) for f, _ in factors]}, "
        f"threads {THREADS}, "
        f"measured latency p50 {p50:.4f} ms tail {tail:.4f} ms, "
        f"{ops / window_s if window_s > 0 else 0.0:.4f} op/s, "
        f"exact {reports[-1]['exact']}")
    return {
        "correct": not failures,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics_spec},
    }


def self_test():
    """Each deliberately wrong expectation must make its run incorrect."""
    cases = [("transfer", "wrong-balance"), ("audit", "corrupt-proof")]
    ok = True
    for workload, inject in cases:
        args = argparse.Namespace(workload=workload, seed=1, seconds=2, trace=0)
        rep = run_process(args, 0, "run", args.seconds,
                          time.monotonic() + RUN_BUDGET_S, inject)
        bit = [c["name"] for c in rep["checks"] if not c["ok"]]
        log(f"self-test {workload}/{inject}: failed checks {bit}")
        ok = ok and bool(bit)
    print(json.dumps({"self_test": "pass" if ok else "FAIL"}))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(TAIL_PERCENTILE))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("the repository sources (src/) are missing; nothing to benchmark")
        return 1
    with open(spec_path) as f:
        spec = json.load(f)
    if not build():
        log("build failed")
        return 1
    if args.self_test:
        return self_test()
    if not args.workload:
        ap.error("--workload is required")

    deadline = time.monotonic() + RUN_BUDGET_S
    if args.trace:
        reports = [run_process(args, i, "setup", 0, deadline)
                   for i in range(PROCESSES - 1)]
        reports.append(run_process(args, PROCESSES - 1, "run", args.seconds,
                                   deadline))
    else:
        share = args.seconds / PROCESSES
        reports = [run_process(args, i, "run", share, deadline)
                   for i in range(PROCESSES)]
    print(json.dumps(aggregate(args.workload, reports, args.trace, spec)))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, ValueError) as e:
        log(f"error: {e}")
        sys.exit(1)
