#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench_main from source (CMake, into .bench_build/perfbench),
runs it with the workload's parameters from perfbench/workloads.json, checks
the correctness gate and the request accounting (every phase: sent = ok +
shed + failed), and prints one JSON line as the last line of stdout:

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics; with
--trace 1 its per_layer metrics (a layer a workload does not use reads 0).
Exits nonzero, printing no result, when the build fails, the gate trips, a
metric is missing or not finite (a latency percentile that falls on failed,
shed or unsent requests), or the accounting does not add up. The full result, with
run identity (CPU, nproc, num backend, KRR mode, seed, build type), is kept
in .bench_build/perfbench/results/.
"""
import argparse
import json
import math
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        raise RuntimeError(f"repository sources not found under {ROOT}")
    jobs = str(min(4, os.cpu_count() or 1))
    # Configure every time (cheap once cached) so a changed CMakeLists or
    # target is picked up before the build asks for it.
    subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                    "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "--target",
                    "perfbench_main", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return BUILD / "perfbench_main"


def binary_args(workload, seed, seconds, trace, tiny, extra):
    spec = json.loads((HERE / "workloads.json").read_text())
    if workload not in spec["workloads"]:
        raise RuntimeError(f"unknown workload {workload}")
    wl = spec["workloads"][workload]
    params = dict(spec["common"])
    params.update(wl["params"])
    if tiny:
        params.update(wl.get("tiny", {}))
        params["setup_reps"] = 1
    args = [f"--workload={workload}", f"--seed={seed}",
            f"--seconds={seconds}", f"--trace={trace}",
            f"--out_dir={BUILD / 'out'}"]
    args += [f"--{k}={v}" for k, v in params.items()]
    return args + extra


def run_binary(binary, args):
    proc = subprocess.run([str(binary)] + args, stdout=subprocess.PIPE,
                          text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark binary exited with {proc.returncode}")
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines:
        raise RuntimeError("benchmark binary printed no result")
    return json.loads(lines[-1])


def check_accounting(result):
    attempted = failed = 0
    for phase in result["phases"]:
        if phase["sent"] != phase["ok"] + phase["shed"] + phase["failed"]:
            raise RuntimeError(f"phase {phase['name']}: sent {phase['sent']} "
                               f"!= ok + shed + failed")
        attempted += phase["sent"]
        failed += phase["shed"] + phase["failed"]
    if attempted < 1:
        raise RuntimeError("no operation was attempted")
    return attempted, failed


def select_metrics(result, bench, trace):
    metrics = {}
    if trace:
        for m in bench["per_layer"]:
            got = result["layers"].get(m["name"], {"value": 0.0,
                                                   "unit": m["unit"]})
            metrics[m["name"]] = got
    else:
        for m in bench["end_to_end"]:
            if m["name"] not in result["e2e"]:
                raise RuntimeError(f"end-to-end metric {m['name']} missing")
            metrics[m["name"]] = result["e2e"][m["name"]]
    for name, got in metrics.items():
        want = next(m["unit"] for m in bench["end_to_end"] + bench["per_layer"]
                    if m["name"] == name)
        if got["unit"] != want:
            raise RuntimeError(f"{name}: unit {got['unit']} != {want}")
        # The binary writes +inf (a percentile past the failed, shed or
        # unsent operations, which count as missing any limit) as null.
        if got["value"] is None or not math.isfinite(got["value"]):
            raise RuntimeError(f"{name} is not a finite number: too many "
                               f"operations failed, were shed or went unsent")
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small sizes from workloads.json (self-test)")
    ap.add_argument("--tamper-probe", action="store_true",
                    help="corrupt one re-scored probe; the gate must trip")
    ap.add_argument("--stall-scoring", action="store_true",
                    help="delay every scoring request so open-loop phases "
                    "run over their backlog; their unsent requests must "
                    "count as failed")
    args = ap.parse_args()
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        binary = build()
        extra = (["--tamper_probe"] if args.tamper_probe else []) + \
            (["--stall_scoring"] if args.stall_scoring else [])
        result = run_binary(binary, binary_args(
            args.workload, args.seed, args.seconds, args.trace, args.tiny,
            extra))
        if result["errors"]:
            raise RuntimeError("correctness gate: " + "; ".join(result["errors"]))
        attempted, failed = check_accounting(result)
        metrics = select_metrics(result, bench, args.trace)
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log(f"FAILED: {e}")
        return 1
    results = BUILD / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
     ).write_text(json.dumps(result, indent=1))
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
