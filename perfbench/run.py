#!/usr/bin/env python3
"""axnn benchmark: one command per run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call builds the library and the
benchmark program from source (perfbench/CMakeLists.txt) into the build
directory ($CARGO_TARGET_DIR, default .bench_build), runs the benchmark's
helper tests, and fills the model weight cache (an untimed preparation that
trains stage-1 ResNet-20 once). Later calls reuse all three while the
sources are unchanged.

Each run executes the workload in a fresh process and relays its output. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; --trace 0 reports the end-to-end metrics of
BENCHMARK.json, --trace 1 the per-layer ones. The exit code is nonzero when
a correctness gate failed, the build or preparation failed, or the run's
metrics do not match BENCHMARK.json.
"""
import argparse
import fcntl
import hashlib
import json
import math
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170  # one workload process; the build and preparation are extra


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def source_fingerprint(out_dir):
    """Hash of every source file the build reads (path, size, mtime)."""
    h = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), BENCH_DIR):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames
                                 if not os.path.join(dirpath, d).startswith(out_dir))
            for name in sorted(filenames):
                p = os.path.join(dirpath, name)
                st = os.stat(p)
                h.update(f"{os.path.relpath(p, ROOT)}:{st.st_size}:{st.st_mtime_ns}\n".encode())
    return h.hexdigest()


def run_logged(cmd, log_path, what):
    with open(log_path, "w") as log:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
    if proc.returncode != 0:
        with open(log_path) as log:
            tail = log.readlines()[-30:]
        sys.stderr.write("".join(tail))
        fail(f"{what} failed (exit {proc.returncode}); log: {log_path}")


def ensure_built(out):
    """Build, test the helpers and fill the weight cache, once per source state."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/; run from a full checkout")
    os.makedirs(out, exist_ok=True)
    binary = os.path.join(out, "axbench")
    stamp = os.path.join(out, "ready.stamp")
    with open(os.path.join(out, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        fp = source_fingerprint(out)
        if os.path.isfile(binary) and os.path.isfile(stamp):
            with open(stamp) as f:
                if f.read() == fp:
                    return binary
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        run_logged(["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                   os.path.join(out, "configure.log"), "configure")
        run_logged(["cmake", "--build", out, "-j", jobs], os.path.join(out, "build.log"),
                   "build")
        tests = os.path.join(out, "axbench_tests")
        if os.path.isfile(tests):
            run_logged([tests], os.path.join(out, "tests.log"), "benchmark helper tests")
        run_logged([binary, "--prepare", "--cache-dir", os.path.join(out, "axnn_cache")],
                   os.path.join(out, "prepare.log"), "weight-cache preparation")
        with open(stamp, "w") as f:
            f.write(fp)
    return binary


def check_result(line, spec, trace):
    """Validate the run's JSON line against BENCHMARK.json; return it parsed."""
    try:
        res = json.loads(line)
    except json.JSONDecodeError:
        fail("the run printed no result line")
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(res)} are not correct/attempted/failed/metrics")
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = res["metrics"]
    if set(got) != set(want):
        missing, extra = sorted(set(want) - set(got)), sorted(set(got) - set(want))
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, unexpected {extra}")
    for name, unit in want.items():
        v = got[name]["value"]
        if got[name]["unit"] != unit or not isinstance(v, (int, float)) or not math.isfinite(v):
            fail(f"metric {name} = {got[name]} does not match unit {unit} or is not finite")
    return res


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description="axnn benchmark (see perfbench/README.md)")
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seconds < 1 or args.seed < 0:
        fail("--seconds must be >= 1 and --seed >= 0")

    out = build_dir()
    binary = ensure_built(out)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--cache-dir", os.path.join(out, "axnn_cache")]
    if args.trace:
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, f"{args.workload}-{args.seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")  # subprocess.run killed and reaped it
    lines = proc.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]), flush=True)
    if proc.returncode not in (0, 1):
        fail(f"benchmark process failed (exit {proc.returncode})")
    res = check_result(lines[-1], spec, args.trace)
    print(json.dumps(res), flush=True)
    if proc.returncode != 0 or not res["correct"]:
        fail(f"correctness gate failed ({res['failed']} failed operations)")


if __name__ == "__main__":
    main()
