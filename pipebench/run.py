#!/usr/bin/env python3
"""Pipeline benchmark: build the pipebench binary from source, run one
workload, check its outputs, and print every metric with its unit.

Usage (from the root of a checkout):

    python3 pipebench/run.py --workload kn_dense --seed 1 --seconds 25 --trace 0

--trace 0 prints the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics. The exit status is 0 only when every
check passed. --tiny and --fault exist for the benchmark's own tests
(pipebench/test_pipebench.py).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "pipebench"
TRACE_DIR = ROOT / ".bench_build" / "pipebench-traces"
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure and build the Release binary; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no library sources at {ROOT / 'src'}")
    # The compiler's temporary files stay inside the checkout too.
    tmp = BUILD_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = {**os.environ, "TMPDIR": str(tmp)}
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    for cmd in (["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", str(BUILD_DIR), "-j", jobs]):
        # Build chatter goes to stderr: stdout's last line is the result.
        subprocess.run(cmd, check=True, stdout=sys.stderr, env=env, timeout=850)
    return BUILD_DIR / "pipebench"


def fingerprint(seed, build_info):
    cpu = mem = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal"):
                mem = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if got.returncode == 0:
            commit = got.stdout.strip()
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "mem_total": mem, "compiler": build_info.get("compiler"),
            "build_type": build_info.get("build_type"), "commit": commit,
            "seed": seed}


def engine_metrics(profiles, prefix):
    """sim.<prefix>.* from RoundProfile JSONL files: per-file sums over
    rounds, then the median over files (one file per traced pass)."""
    per_file = []
    for path in profiles:
        t = dict.fromkeys(("step", "merge", "admit", "quiesce", "busy",
                           "wait", "busy_max", "busy_mean"), 0.0)
        for line in Path(path).read_text().splitlines():
            row = json.loads(line)
            if "round" not in row:
                continue
            busy = row["busy_ns"]
            for k in ("step", "merge", "admit", "quiesce"):
                t[k] += row[f"{k}_ns"] / 1e9
            t["busy"] += sum(busy) / 1e9
            t["wait"] += (len(busy) * row["step_ns"] - sum(busy)) / 1e9
            if busy:
                t["busy_max"] += max(busy)
                t["busy_mean"] += sum(busy) / len(busy)
        per_file.append(t)

    def med(f):
        return statistics.median(map(f, per_file)) if per_file else 0.0

    return {
        f"sim.{prefix}.step_s": med(lambda t: t["step"]),
        f"sim.{prefix}.merge_s": med(lambda t: t["merge"]),
        f"sim.{prefix}.admit_s": med(lambda t: t["admit"]),
        f"sim.{prefix}.quiesce_s": med(lambda t: t["quiesce"]),
        f"sim.{prefix}.lane_busy_s": med(lambda t: t["busy"]),
        f"sim.{prefix}.lane_wait_s": med(lambda t: t["wait"]),
        f"sim.{prefix}.busy_imbalance": med(
            lambda t: t["busy_max"] / t["busy_mean"] if t["busy_mean"] else 0.0),
    }


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test sizes (the benchmark's own tests)")
    ap.add_argument("--fault", default="none",
                    choices=("none", "drop-edges", "perturb-output"),
                    help="inject a defect the correctness gate must catch")
    args = ap.parse_args()
    if args.seconds < 1 or args.seed < 0:
        ap.error("--seconds must be >= 1 and --seed >= 0")

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    binary = build()

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--fault", args.fault]
    if args.tiny:
        cmd.append("--tiny")
    if args.trace:
        shutil.rmtree(TRACE_DIR, ignore_errors=True)
        TRACE_DIR.mkdir(parents=True)
        cmd += ["--trace-dir", str(TRACE_DIR)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"pipebench exited {proc.returncode} without a result")
    res = json.loads(lines[-1])
    problems = list(res["failures"])
    if proc.returncode != 0 and not problems:
        problems.append(f"pipebench exited {proc.returncode}")

    values = {**res["e2e"], **res["layer"]}
    if args.trace:
        values.update(engine_metrics(res["sampler_profiles"], "sampler"))
        values.update(engine_metrics(res["bcast_profiles"], "bcast"))
        lint = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "trace_lint.py"),
             *res["artifacts"]], stdout=subprocess.PIPE, text=True)
        if lint.returncode != 0:
            problems.append("trace artifacts failed trace_lint: " +
                            lint.stdout.strip().replace("\n", "; "))

    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            problems.append(f"metric {m['name']} was not measured")
            continue
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    fp = fingerprint(args.seed, res["build"])
    print(f"fingerprint: {json.dumps(fp, sort_keys=True)}")
    print(f"workload: {args.workload}  n={res['n']:.0f}  lanes={res['lanes']:.0f}"
          f"  determinism baseline at {res['cross_lanes']:.0f} lane(s)")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    if "pipeline_passes" in values and not args.trace:
        passes = int(values["pipeline_passes"])
        print(f"  (pipeline_s_tail is p90 of {passes} timed passes, "
              f"{passes // 10} beyond it)")
        print(f"  (timings scaled to the host gauge's reference speed; "
              f"gauge median {values['gauge_s'] * 1e3:.4g} ms, raw pipeline "
              f"median {values['raw_pipeline_s']:.6g} s, raw setup median "
              f"{values['raw_setup_s']:.6g} s)")
    attempted, failed = int(res["attempted"]), int(res["failed"])
    if problems and failed == 0:
        failed = 1
    print(f"  fail_rate {failed / max(1, attempted):.6g} fraction "
          f"({failed} of {attempted} passes)")
    for p in problems:
        print(f"  FAILED: {p}")
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, subprocess.SubprocessError,
            json.JSONDecodeError, KeyError) as e:
        log(f"pipebench: {e}")
        sys.exit(2)
