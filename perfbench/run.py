#!/usr/bin/env python3
"""Outside-in benchmark of the pilot middleware (see README.md).

Builds hoh_bench from this directory (which compiles ../src)
into .bench_build/ at the repository root, runs it, checks its outputs and
prints the metrics.

  python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
      One workload in one child process. The last line of standard output
      is one JSON object {"correct", "attempted", "failed", "metrics"}:
      every end-to-end metric of BENCHMARK.json with --trace 0, every
      per-layer metric with --trace 1.

  python3 perfbench/run.py [--seconds S] [--scale bench|full] [--json FILE]
      All four workloads, an untraced pass then a traced pass, each
      workload in its own child process. Prints `workload metric value
      unit` lines and writes one JSON document with end_to_end, layers,
      pins and ops per workload. Besides the workloads' own checks, every
      metric BENCHMARK.json names must be reported and the spans must
      account for 95-100% of the traced wall time.

  python3 perfbench/run.py --smoke [--binary PATH]
      The same at ~1/20 scale with one round per pass: a quick check.

The exit status is non-zero on any correctness failure.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ["kmeans_inproc", "kmeans_socket", "kmeans_yarn", "tenant_overload"]
CHILD_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds hoh_bench; returns its path."""
    cmds = []
    if not (BUILD / "CMakeCache.txt").exists():
        cmds.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    cmds.append(["cmake", "--build", str(BUILD), "-j", jobs,
                 "--target", "hoh_bench"])
    for cmd in cmds:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            raise SystemExit("run.py: build failed: " + " ".join(cmd))
    return BUILD / "hoh_bench"


def run_child(binary, workload, seed, seconds, trace, scale):
    cmd = [str(binary), "--workload", workload, "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--scale", scale]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"run.py: {workload}: hoh_bench timed out")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise SystemExit(f"run.py: {workload}: hoh_bench exited "
                         f"{proc.returncode} without a result")
    return json.loads(lines[-1])


def check_pins(doc, pins):
    """Deterministic outputs at the workload's default seed must repeat."""
    expected = pins.get(doc["scale"], {}).get(doc["workload"])
    if expected is None or expected["seed"] != doc["seed"]:
        return []
    errors = []
    got = doc.get("pins", {})
    for key, want in expected.items():
        if key == "seed":
            continue
        have = got.get(key)
        same = (isinstance(want, (int, float)) and isinstance(have, (int, float))
                and math.isclose(have, want, rel_tol=1e-9, abs_tol=1e-12))
        if not same and have != want:
            errors.append(f"pin {key}: expected {want}, got {have}")
    return errors


def metrics_of(doc, section, spec):
    """The metrics BENCHMARK.json lists for one section, with their units."""
    reported = doc.get(section, {})
    out, errors = {}, []
    for m in spec:
        got = reported.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            errors.append(f"metric {m['name']} ({m['unit']}) not reported")
        else:
            out[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    return out, errors


def contract_run(args, spec, pins):
    binary = args.binary or build()
    doc = run_child(binary, args.workload, args.seed, args.seconds, args.trace,
                    args.scale)
    errors = list(doc["errors"]) + check_pins(doc, pins)
    section, names = (("layers", spec["per_layer"]) if args.trace
                      else ("end_to_end", spec["end_to_end"]))
    metrics, missing = metrics_of(doc, section, names)
    for e in errors + missing:
        log(f"{args.workload}: {e}")
    if missing:
        return 1
    # A wrong output is reported through "correct"; only a run that
    # produced no result exits non-zero.
    attempted = doc["ops"]["attempted"]
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": attempted if errors else doc["ops"]["failed"],
        "metrics": metrics,
    }))
    return 0


def all_run(args, spec, pins):
    binary = args.binary or build()
    seconds = 0 if args.smoke else args.seconds
    report, ok = {}, True
    for trace in (False, True):
        for w in WORKLOADS:
            doc = run_child(binary, w, args.seed, seconds, trace, args.scale)
            errors = list(doc["errors"]) + check_pins(doc, pins)
            entry = report.setdefault(w, {"errors": []})
            entry["errors"] += errors
            entry["pins"] = doc.get("pins", {})
            entry.setdefault("ops", {"attempted": 0, "failed": 0})
            for k in ("attempted", "failed"):
                entry["ops"][k] += doc["ops"][k]
            if trace:
                entry["layers"] = doc.get("layers", {})
                entry["dominant_layer"] = doc.get("dominant_layer")
                entry["errors"] += metrics_of(doc, "layers",
                                              spec["per_layer"])[1]
                # The spans must account for the timed phase's wall time.
                frac = entry["layers"].get("trace.attributed_frac")
                if not (frac and 0.95 <= frac["value"] <= 1.0):
                    entry["errors"].append(f"trace.attributed_frac {frac}")
            else:
                entry["end_to_end"] = doc.get("end_to_end", {})
                entry["errors"] += metrics_of(doc, "end_to_end",
                                              spec["end_to_end"])[1]
    for w, entry in report.items():
        for section in ("end_to_end", "layers"):
            for name, m in entry.get(section, {}).items():
                print(f"{w} {name} {m['value']:.10g} {m['unit']}")
        for k, v in entry["ops"].items():
            print(f"{w} ops_{k} {v} count")
        print(f"{w} dominant_layer {entry.get('dominant_layer')}")
        for e in entry["errors"]:
            log(f"{w}: FAIL {e}")
            ok = False
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=2, sort_keys=True)
                                   + "\n")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("bench", "full", "smoke"),
                   default="bench")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--json")
    p.add_argument("--binary", help="prebuilt hoh_bench (skips the build)")
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    pins = json.loads((HERE / "pins.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.smoke:
        args.scale = "smoke"
    if args.workload:
        return contract_run(args, spec, pins)
    return all_run(args, spec, pins)


if __name__ == "__main__":
    sys.exit(main())
