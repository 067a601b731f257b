#!/usr/bin/env python3
"""The repository benchmark: one command that builds rheabench, runs one
workload of rhea::Simulation, checks its outputs, and prints every metric
by name with its unit. The last line of stdout is one JSON object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json,
with --trace 1 the per-layer ones. Run from the repository root:

  python3 perfbench/run.py --workload convection --seed 1 --seconds 45 --trace 0

See perfbench/README.md for the workloads and the metrics.
"""

import argparse
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import metrics  # noqa: E402

HERE = Path(__file__).resolve().parent
WORKLOADS = ("convection", "transport")
RUN_TIMEOUT_S = 170  # rheabench itself; the build has its own budget


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    """Configure and build rheabench from the library sources; returns the
    binary's path. Output goes to a log in the build directory."""
    if not (HERE.parent / "src" / "CMakeLists.txt").is_file():
        fail("library sources not found next to perfbench/ (need src/)")
    out = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve() / "rheabench"
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    with open(log, "w") as f:
        for cmd in (["cmake", "-S", str(HERE), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=Release"],
                    ["cmake", "--build", str(out), "--target", "rheabench",
                     "-j", str(min(4, os.cpu_count() or 1))]):
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT).returncode:
                sys.stderr.write(log.read_text()[-4000:])
                fail("build failed: " + " ".join(cmd))
    return out / "rheabench", out


def inputs(workload, seed):
    """The seeded input of a workload, as rheabench arguments: the phases of
    the convective perturbation, or the start angle of the front."""
    rng = random.Random(seed)
    if workload == "transport":
        return ["--front-angle", repr(rng.uniform(0.0, 2.0 * math.pi))]
    # Phase shifts of up to +-0.002 rad move the plumes by up to 0.003 (x)
    # and 0.001 (y): a new input that keeps the workload's size and
    # convergence behaviour. At +-0.01 rad, 0 to 3 of the 16 MINRES solves,
    # which end near rtol, flipped between converged and not from seed to
    # seed.
    return ["--phase-x", repr(rng.uniform(-0.002, 0.002)),
            "--phase-y", repr(rng.uniform(-0.002, 0.002))]


def run_rheabench(binary, args, out):
    """Run rheabench, returning its JSON records by kind."""
    cmd = [str(binary), "--workload", args.workload,
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(out)]
    cmd += inputs(args.workload, args.seed)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("rheabench exceeded %d s" % RUN_TIMEOUT_S, 1)
    sys.stderr.write(proc.stderr)
    (out / "records.jsonl").write_text(proc.stdout)
    records = {"episode": [], "traced": [], "host": []}
    for line in proc.stdout.splitlines():
        if line.startswith("{"):
            rec = json.loads(line)
            records[rec["kind"]].append(rec)
    return proc.returncode, records


def load_spans(path):
    by_rank = {}
    with open(path) as f:
        for line in f:
            s = json.loads(line)
            by_rank.setdefault(s["rank"], []).append(s)
    return by_rank


def report(name, value, unit, note=""):
    print("  %-30s %14.6g %-6s %s" % (name, value, unit, note))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    t0 = time.monotonic()
    binary, build_dir = build()
    print("perfbench: built in %.1f s" % (time.monotonic() - t0))
    out = build_dir / "runs" / ("%s-%d-%d" % (args.workload, args.seed, args.trace))
    rc, rec = run_rheabench(binary, args, out)

    episodes, host = rec["episode"], rec["host"]
    failures = [f for ep in episodes for f in ep["failures"]]
    failures += [f for t in rec["traced"] for f in t["failures"]]
    if rc != 0 and not failures:
        failures.append("rheabench exited with code %d" % rc)
    if not episodes or not host:
        failures.append("rheabench printed no result")
    attempted = max(1, sum(len(ep["steps"]) for ep in episodes))
    convection = args.workload != "transport"

    result = {}
    if not failures:
        h = host[0]
        ws = h["working_set"]
        print("host: nproc %d, L3 %.1f MiB; %s working set: fem %.1f MiB, "
              "AMG %.1f MiB (%.2fx L3)"
              % (h["nproc"], h["l3_bytes"] / metrics.MIB, args.workload,
                 ws["fem_bytes"] / metrics.MIB, ws["amg_bytes"] / metrics.MIB,
                 (ws["fem_bytes"] + ws["amg_bytes"]) / h["l3_bytes"]))
        if args.trace == 0:
            print("%s, seed %d: %d episode(s)" % (args.workload, args.seed, len(episodes)))
            for name, (v, unit, n) in metrics.end_to_end(episodes, h, convection).items():
                report(name, v, unit, "(median of %d)" % n)
                result[name] = {"value": v, "unit": unit}
            for i, ep in enumerate(episodes):
                n, f = metrics.episode_operations(ep, convection)
                print("  episode %d: %d of %d %s failed" % (
                    i + 1, f, n, "MINRES solves" if convection else "steps"))
        else:
            traced = rec["traced"][0]
            failures += metrics.same_work(episodes[0], traced)
            spans = load_spans(out / "spans.jsonl")
            print("traced %s, seed %d: wall = layer self times + remainder" %
                  (args.workload, args.seed))
            for step, (wall, layers, rem) in sorted(metrics.step_ledger(spans[0]).items()):
                print("  step %2d: %.6f s = %.6f s layers + %.6f s remainder"
                      % (step, wall, layers, rem))
                if abs(wall - layers - rem) > 1e-9 * max(1.0, wall):
                    failures.append("step %d ledger does not sum" % step)
            for name, (v, unit) in metrics.per_layer(episodes[0], traced, spans, h).items():
                report(name, v, unit)
                result[name] = {"value": v, "unit": unit}
    for f in failures:
        print("CHECK FAILED: " + f)

    correct = not failures and all(math.isfinite(m["value"]) for m in result.values())
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": result if correct else {}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
