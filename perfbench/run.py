#!/usr/bin/env python3
"""The repository benchmark: build, run one workload, check, report.

    python3 perfbench/run.py --workload fig11 --seed 0x5eed --seconds 20 \\
        --trace 0

Run from the repository root. Builds the simulator and the harness from
source (Release) into $CARGO_TARGET_DIR, default .bench_build, runs
bsp-perfbench on the workload, and prints every metric by name with its
unit. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones. Exits non-zero when the
build fails or when an output is wrong. See perfbench/README.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # leave nothing behind in the checkout
import metrics  # noqa: E402

WORKLOADS = ("fig11", "sampled", "ffwd_sweep", "serve_sweep")
HARNESS_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures once, then (re)builds bsp-perfbench and its workers."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "bsp-perfbench", "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if r.returncode != 0:
            log(r.stdout[-4000:])
            log(f"run.py: build step failed: {' '.join(cmd)}")
            return False
    return True


def run_harness(cmd):
    """Runs the harness in its own process group; on timeout the whole
    group (harness and its worker subprocesses) is killed and reaped."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, start_new_session=True)
    try:
        return proc.wait(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log(f"run.py: harness exceeded {HARNESS_TIMEOUT_S}s")
        return -1


def fmt(v):
    return "n/a" if v is None else f"{v:.6g}"


def report_run(run, raw, trace):
    """Prints one workload's figures; returns its metrics dict."""
    wl = run["workload"]
    print(f"== {wl} (digest {run['digest']}, "
          f"{'correct' if run['correct'] else 'WRONG'}) ==")
    for c in run["checks"]:
        if not c["ok"]:
            print(f"  check FAILED: {c['name']} {c['detail']}")
    for failure in sorted({f for r in run["reps"] for f in r["failures"]}):
        print(f"  failed: {failure}")
    if not trace:
        for name, value, unit in metrics.issue_table(run, raw["peak_rss_mb"]):
            print(f"  {name:<48} {fmt(value):>14} {unit}")
        return metrics.end_to_end(run, raw["peak_rss_mb"])
    spans = raw["spans"]
    layer = metrics.per_layer(run, spans)
    for name, value in layer.items():
        print(f"  {name:<48} {fmt(value):>14} {metrics.PER_LAYER[name]}")
    print("  spans: name, count, total s, self s")
    for name, row in sorted(metrics.span_summary(spans).items()):
        print(f"    {name:<40} {row['count']:>6} {row['total_s']:>10.4f} "
              f"{row['self_s']:>10.4f}")
    return layer


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", default="0x5eed")
    ap.add_argument("--fig11-seed", default="0x5eed",
                    help="seed of fig11's programs, which do not follow "
                         "--seed (see perfbench/README.md)")
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--allow-non-release", action="store_true",
                    help="time a build directory configured as "
                         "another build type anyway")
    args = ap.parse_args()
    seed = int(args.seed, 0)

    repo = HERE.parent
    if not (repo / "CMakeLists.txt").is_file() or not (repo / "src").is_dir():
        log(f"run.py: no repository sources next to {HERE}")
        return 2
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = build_dir.resolve()
    t0 = time.monotonic()
    if not build(build_dir):
        return 1
    log(f"run.py: build ready in {time.monotonic() - t0:.1f}s")

    out_dir = build_dir / "perfbench-out"
    out_dir.mkdir(parents=True, exist_ok=True)
    raw_path = out_dir / f"{args.workload}-seed{seed:#x}-trace{args.trace}.json"
    raw_path.unlink(missing_ok=True)
    cmd = [str(build_dir / "bsp-perfbench"), "--workload", args.workload,
           "--seed", str(seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--fig11-seed", str(int(args.fig11_seed, 0)),
           "--tools", str(build_dir / "repo" / "tools"),
           "--work", str(build_dir / "perfbench-work"),
           "--out", str(raw_path)]
    if args.allow_non_release:
        cmd.append("--allow-non-release")
    if run_harness(cmd) != 0 or not raw_path.is_file():
        log("run.py: harness failed")
        return 1
    raw = json.loads(raw_path.read_text())

    prov = raw["provenance"]
    prov["git_sha"] = git_sha(repo)
    print("provenance: " + json.dumps(prov, sort_keys=True))
    correct = all(r["correct"] for r in raw["runs"])
    attempted = sum(r["attempted"] for run in raw["runs"] for r in run["reps"])
    failed = sum(r["failed"] for run in raw["runs"] for r in run["reps"])
    units = metrics.PER_LAYER if args.trace else {
        k: u for k, (u, _) in metrics.END_TO_END.items()}
    out = {}
    for run in raw["runs"]:
        values = report_run(run, raw, args.trace)
        prefix = "" if args.workload != "all" else run["workload"] + "."
        for name, value in values.items():
            out[prefix + name] = {"value": value, "unit": units[name]}
    print(f"raw results and spans: {raw_path}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0 if correct and failed == 0 else 1


def git_sha(repo):
    """HEAD's sha when `repo` is itself a git checkout, else 'unknown'."""
    def git(*args):
        r = subprocess.run(["git", "-C", str(repo), *args],
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else ""
    try:
        if Path(git("rev-parse", "--show-toplevel") or "/").resolve() != repo:
            return "unknown"
        return git("rev-parse", "HEAD") or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


if __name__ == "__main__":
    sys.exit(main())
