#!/usr/bin/env python3
"""Run one benchmark workload of ngdlib and print its result.

Run from the repository root:

    python3 perfbench/run.py --workload batch_dense --seed 1 --seconds 25 --trace 0

`--workload all` runs every workload of BENCHMARK.json, one after another.

The script builds perfbench/ and the library it links into
$CARGO_TARGET_DIR (default .bench_build), generates the workload's
inputs from the seed in one process, measures the workload in a second
process, checks the reported metrics against BENCHMARK.json, and prints a
readable report. Its last line is the JSON result:
{"correct", "attempted", "failed", "metrics"}. The exit code is 0 only
when every operation succeeded and every oracle agreed.

--scale shrinks the inputs and --corrupt damages one result on purpose;
both exist for perfbench/test_bench.py.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DRIVER = "perfbench_workloads"
# Both steps together must end well inside the 180 s a run may take.
PREPARE_TIMEOUT_S = 60
RUN_TIMEOUT_S = 110


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_bench():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return d if d.is_absolute() else ROOT / d


def build(out):
    """Configures and builds the workload driver; returns its path. Both
    steps are incremental, so a built tree costs about a second."""
    out.mkdir(parents=True, exist_ok=True)
    with open(out / ".lock", "w", encoding="utf-8") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True, timeout=300)
        subprocess.run(
            ["cmake", "--build", str(out), "--target", DRIVER, "-j4"],
            stdout=sys.stderr, check=True, timeout=800)
    return out / DRIVER


def source_digest():
    """sha256 over the library and benchmark sources: identifies the code
    measured when the checkout is not a git repository."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in (ROOT / "src", BENCH_DIR):
        files += sorted(p for p in top.rglob("*") if p.is_file()
                        and p.suffix in (".h", ".cc", ".py", ".txt"))
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    """HEAD of the checkout, or None when the checkout is not itself the
    top of a git repository."""
    try:
        r = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = r.stdout.split()
    if r.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def validate(metrics, bench, trace):
    """Problems with a report's metrics against BENCHMARK.json: every
    listed metric present with its unit and a finite numeric value."""
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    problems = []
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            problems.append(f"metric {m['name']} missing")
        elif got.get("unit") != m["unit"]:
            problems.append(f"metric {m['name']} has unit {got.get('unit')}, "
                            f"BENCHMARK.json says {m['unit']}")
        elif not isinstance(got.get("value"), (int, float)) or \
                got["value"] != got["value"] or abs(got["value"]) == float("inf"):
            problems.append(f"metric {m['name']} has no finite value")
    return problems


def result_line(report, bench, trace):
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    correct = report["failed"] == 0 and all(report["checks"].values())
    return {
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m["name"]: report["metrics"][m["name"]] for m in wanted},
    }


def print_report(report, trace):
    m = report["metrics"]
    print(f"perfbench {report['workload']}  seed={report['seed']}  "
          f"trace={report['trace']}  scale={report['scale']}")
    print("provenance: " + json.dumps({k: report[k] for k in (
        "nproc", "threads", "compiler", "build_type", "git_commit",
        "source_digest", "flush_policy") if k in report}))
    print("sizes: " + json.dumps(report["sizes"]))
    print("checks: " + json.dumps(report["checks"]))
    if trace:
        for name, v in m.items():
            print(f"  {name:34s} {v['value']:.6g} {v['unit']}")
        return
    n_setup, n_ops = int(m["setup_samples"]["value"]), int(m["op_samples"]["value"])
    named = ["setup_s", "detect_s_p50", "epoch_ms_p50", "epoch_ms_p95",
             "updates_per_s", "peak_rss_mb", "fail_ratio"]
    for name in named:
        if name not in m:
            continue
        n = n_setup if name == "setup_s" else n_ops
        print(f"  {name:14s} {m[name]['value']:.6g} {m[name]['unit']}  (n={n})")


def main():
    bench = load_bench()
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"],
                    help="one workload, or all of them one after another")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--corrupt", action="store_true")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0 or args.scale <= 0:
        ap.error("--seed must be >= 0, --seconds and --scale > 0")

    out = build_dir()
    try:
        driver = build(out)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        log(f"perfbench: build failed: {e}")
        return 2
    if args.workload != "all":
        return run_workload(args, args.workload, driver, out, bench)
    codes = [run_workload(args, name, driver, out, bench) for name in names]
    return max(codes)


def run_workload(args, workload, driver, out, bench):
    """Prepares and measures one workload, each step in its own process,
    and prints its summary and result line; returns the exit code."""
    work = out / "work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    common = ["--workload", workload, "--seed", str(args.seed),
              "--dir", str(work), "--scale", repr(args.scale)]
    try:
        subprocess.run([str(driver), "prepare"] + common,
                       stdout=sys.stderr, check=True, timeout=PREPARE_TIMEOUT_S)
        run = subprocess.run(
            [str(driver), "run"] + common +
            ["--seconds", repr(args.seconds), "--trace", str(args.trace)] +
            (["--corrupt"] if args.corrupt else []),
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        log(f"perfbench: {workload} failed: {e}")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = run.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"perfbench: {workload} printed no report "
            f"(exit {run.returncode})")
        return 1
    report["git_commit"] = git_commit()
    report["source_digest"] = source_digest()
    problems = validate(report["metrics"], bench, args.trace)
    if problems:
        log("perfbench: report does not match BENCHMARK.json: " +
            "; ".join(problems))
        return 3
    print_report(report, args.trace)
    result = result_line(report, bench, args.trace)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] and run.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
