#!/usr/bin/env python3
"""Run one workload of the PathLog benchmark, or the sensitivity check.

    python3 perfbench/run.py --workload serve_read --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --sensitivity [--seeds 1,2,3] [--seconds 20]

Run from the root of a source tree. The first call builds the `pathlog`
executable and the benchmark driver with dune into `.bench_build` (or
`$CARGO_TARGET_DIR` when set); later calls reuse that build. The last line
of standard output is the workload's JSON result (see README.md).
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("serve_read", "serve_write")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def refuse_engine_env():
    # both silently change the engine under measurement
    for var in ("PATHLOG_JOBS", "PATHLOG_FAULTS"):
        if var in os.environ:
            fail(f"refusing to run with {var} set: it changes the engine")


def build():
    for need in ("dune-project", "bin", "lib"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"no {need} here: run from the root of a PathLog source tree")
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    cmd = ["dune", "build", "--root", ROOT, "--build-dir", build_dir,
           "./perfbench/plbench.exe", "./bin/pathlog_cli.exe"]
    r = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        fail("build failed")
    return (os.path.join(build_dir, "default", "perfbench", "plbench.exe"),
            os.path.join(build_dir, "default", "bin", "pathlog_cli.exe"))


def one_cpu():
    """Pin the calling process to one of the CPUs it may use. The driver
    and the servers it spawns inherit it: one request is in flight at a
    time, and a client and server left to the scheduler ran on one CPU in
    some runs and on two in others, 2.3x apart in throughput."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_workload(bench, exe, workload, seed, seconds, trace, faults=None,
                 capture=False):
    """Run the driver once; returns its exit code and, with `capture`, its
    parsed JSON result."""
    run_dir = os.path.join(".bench_run", f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(os.path.join(ROOT, run_dir), ignore_errors=True)
    os.makedirs(os.path.join(ROOT, ".bench_run"), exist_ok=True)
    cmd = [bench, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--exe", exe, "--dir", run_dir]
    if faults:
        cmd += ["--faults", faults]
    proc = subprocess.Popen(cmd, cwd=ROOT, preexec_fn=one_cpu,
                            stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # SIGTERM lets the driver kill its server children on the way out
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        print(f"perfbench: {workload} timed out", file=sys.stderr)
        return 1, None
    finally:
        shutil.rmtree(os.path.join(ROOT, run_dir), ignore_errors=True)
    result = None
    if capture and proc.returncode == 0:
        result = json.loads(out.decode().strip().splitlines()[-1])
    return proc.returncode, result


# Delay-only faults change no answer, only time. Each must move the named
# metrics of the named workload beyond their bounds, and leave the other
# workload within its bounds.
SENSITIVITY = [
    ("wal_fsync", "seed=1;wal_fsync:delay@1:5",
     {"serve_write": ["assert_p50_ms", "retract_p50_ms"]}, ["serve_read"]),
    ("wire_write", "seed=1;wire_write:delay@1:1",
     {"serve_read": ["query_p50_ms"]}, []),
]


def sensitivity(bench, exe, seeds, seconds):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    def paired(workload, faults):
        """Medians of unfaulted and faulted runs. The two alternate on each
        seed, and which goes first alternates too: the host's speed drifts
        over minutes, and both sides must see the same host."""
        runs = {None: [], faults: []}
        for i, seed in enumerate(seeds):
            for f in ((None, faults) if i % 2 == 0 else (faults, None)):
                code, res = run_workload(bench, exe, workload, seed, seconds, 0,
                                         f, capture=True)
                if code != 0 or not res["correct"]:
                    fail(f"{workload} with faults {f!r} failed or was wrong")
                runs[f].append(res["metrics"])
        return [{k: statistics.median(r[k]["value"] for r in rs) for k in rs[0]}
                for rs in (runs[None], runs[faults])]

    def worse(name, base, new):
        b = bounds[name]
        change = (new - base) / base
        return change if b["better"] == "lower" else -change

    ok = True
    for label, faults, must_move, must_hold in SENSITIVITY:
        for workload, names in must_move.items():
            base, got = paired(workload, faults)
            for name in names:
                w = worse(name, base[name], got[name])
                moved = w > bounds[name]["bound"]
                ok &= moved
                print(f"{label:10s} {workload:11s} {name:18s} "
                      f"{base[name]:10.4f} -> {got[name]:10.4f} "
                      f"({w:+.1%}, bound {bounds[name]['bound']:.0%}) "
                      f"{'moved' if moved else 'DID NOT MOVE'}")
        for workload in must_hold:
            base, got = paired(workload, faults)
            for name, b in bounds.items():
                if name == "setup_s":
                    continue
                w = worse(name, base[name], got[name])
                held = w <= b["bound"]
                ok &= held
                print(f"{label:10s} {workload:11s} {name:18s} "
                      f"{base[name]:10.4f} -> {got[name]:10.4f} "
                      f"({w:+.1%}, bound {b['bound']:.0%}) "
                      f"{'held' if held else 'MOVED'}")
    print("sensitivity: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--sensitivity", action="store_true",
                    help="arm one delay-only fault at a time and check the "
                         "metrics it must move")
    ap.add_argument("--seeds", default="1,2,3",
                    help="seeds for --sensitivity, comma-separated")
    args = ap.parse_args()
    refuse_engine_env()
    if not args.sensitivity and not args.workload:
        ap.error("--workload or --sensitivity is required")
    bench, exe = build()
    if args.sensitivity:
        seeds = [int(s) for s in args.seeds.split(",")]
        sys.exit(sensitivity(bench, exe, seeds, args.seconds))
    code, _ = run_workload(bench, exe, args.workload, args.seed, args.seconds,
                           args.trace)
    sys.exit(code)


if __name__ == "__main__":
    main()
