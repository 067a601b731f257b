#!/usr/bin/env python3
"""Gate machine-readable BENCH_*.json results in CI.

Two schemas are understood, detected from the file contents:

bench_amg_setup (cases[].setup_ns_per_nnz): the two-pass Galerkin setup
is linear in nnz, so the per-nonzero setup cost must stay flat as the
problem grows. Fails when the highest-level setup_ns_per_nnz exceeds
--max-ratio times the lowest-level value, which is how CI catches a
superlinear regression (e.g. reintroducing a scan or a per-entry hash
map on the setup path).

bench_apply (cases[].speedup + solvers[]): the batched SoA apply must
beat the scalar reference by --min-speedup on its best case (the
Stokes-shaped 4-component operator) with no case regressing below 1x
by more than the noise floor; the reduced-synchronization Krylov loops
must issue at most --max-sync reductions per iteration and the fused
multi-value reductions must not change iteration counts by more than
--max-iter-delta versus one-reduction-per-dot.

bench_amr (cases[].extract_speedup): the hashed mesh extraction must
beat the per-corner reference by --min-extract-speedup at the largest
problem size; every case on which no repartition happened must reuse a
strictly positive fraction of elements via the incremental path
(> --min-reuse) without falling back; and the reported AMR share of
the full step time must be finite.

bench_memory (cases[].memory, the telemetry memory block written by
obs::analysis::memory_json): accounted memory per dof must not grow with
refinement level — the paper's memory-per-core-bounded claim.
Fails when the highest level's bytes/dof exceeds --max-mem-ratio times
the lowest level's, for the total and for every subsystem that carries
at least --min-mem-share of the highest level's footprint (fixed-size
overheads like the obs ring buffers legitimately shrink per dof, and
surface terms like mesh.halo shrink too; only growth is a leak).
"""

import argparse
import json
import sys


def check_amg_setup(data, args) -> int:
    cases = [c for c in data.get("cases", [])
             if "setup_ns_per_nnz" in c and "level" in c]
    if len(cases) < 2:
        print(f"check_bench: need at least two levels, got {len(cases)}")
        return 1

    lo = min(cases, key=lambda c: c["level"])
    hi = max(cases, key=lambda c: c["level"])
    if lo["setup_ns_per_nnz"] <= 0:
        print("check_bench: lowest-level setup_ns_per_nnz is not positive")
        return 1
    ratio = hi["setup_ns_per_nnz"] / lo["setup_ns_per_nnz"]

    for c in sorted(cases, key=lambda c: c["level"]):
        print(f"  level {c['level']}: {c['setup_ns_per_nnz']:.1f} ns/nnz "
              f"(n_dof={c.get('n_dof', '?')}, setup={c.get('setup_s', 0):.3f}s, "
              f"refresh/setup={c.get('refresh_over_setup', 0):.3f})")
    verdict = "PASS" if ratio <= args.max_ratio else "FAIL"
    print(f"check_bench: level {hi['level']} vs level {lo['level']} "
          f"setup_ns_per_nnz ratio = {ratio:.2f} "
          f"(max allowed {args.max_ratio:.2f}): {verdict}")
    return 0 if ratio <= args.max_ratio else 1


def check_apply(data, args) -> int:
    ok = True
    cases = [c for c in data.get("cases", []) if "speedup" in c]
    if not cases:
        print("check_bench: no apply cases found")
        return 1
    for c in cases:
        print(f"  ncomp={c.get('ncomp', '?')}: scalar "
              f"{c.get('scalar_ns_per_element', 0):.1f} ns/el, batched "
              f"{c.get('batched_ns_per_element', 0):.1f} ns/el, "
              f"speedup {c['speedup']:.2f}x")
        if c["speedup"] < args.min_case_speedup:
            print(f"check_bench: FAIL ncomp={c.get('ncomp', '?')} regressed "
                  f"below {args.min_case_speedup:.2f}x")
            ok = False
    best = max(c["speedup"] for c in cases)
    verdict = "PASS" if best >= args.min_speedup else "FAIL"
    print(f"check_bench: best apply speedup = {best:.2f}x "
          f"(min required {args.min_speedup:.2f}): {verdict}")
    ok = ok and best >= args.min_speedup

    solvers = data.get("solvers", [])
    if not solvers:
        print("check_bench: FAIL no solver sync records")
        return 1
    for s in solvers:
        name = s.get("solver", "?")
        per = s.get("sync_per_iter", 1e9)
        delta = abs(s.get("iters_fused", 0) - s.get("iters_reference", 0))
        line_ok = per <= args.max_sync and delta <= args.max_iter_delta
        print(f"  {name}: {s.get('iters_fused', '?')} iters, "
              f"{per:.3f} syncs/iter (max {args.max_sync:.1f}), "
              f"fused-vs-reference iteration delta {delta} "
              f"(max {args.max_iter_delta}): "
              f"{'PASS' if line_ok else 'FAIL'}")
        ok = ok and line_ok
    return 0 if ok else 1


def check_amr(data, args) -> int:
    import math

    cases = [c for c in data.get("cases", [])
             if "extract_speedup" in c and "level" in c]
    if not cases:
        print("check_bench: no amr cases found")
        return 1
    cases.sort(key=lambda c: c["level"])
    ok = True
    for c in cases:
        print(f"  level {c['level']}: reference "
              f"{c.get('reference_s', 0) * 1e3:.1f} ms, hashed "
              f"{c.get('hashed_s', 0) * 1e3:.1f} ms, speedup "
              f"{c['extract_speedup']:.2f}x "
              f"(elements={c.get('elements', '?')})")
        if "reuse_fraction" in c:
            rf = c["reuse_fraction"]
            repart = c.get("repartitioned", False)
            fb = c.get("fallback", False)
            print(f"    incremental: {c.get('incremental_s', 0) * 1e3:.1f} ms,"
                  f" reuse {rf:.1%}, repartitioned={repart}, fallback={fb}")
            if not repart:
                if fb:
                    print(f"check_bench: FAIL level {c['level']}: incremental "
                          f"path fell back without a repartition")
                    ok = False
                if rf <= args.min_reuse:
                    print(f"check_bench: FAIL level {c['level']}: reuse "
                          f"fraction {rf:.3f} not above {args.min_reuse:.3f} "
                          f"on a non-repartitioning adapt")
                    ok = False

    top = cases[-1]
    verdict = "PASS" if top["extract_speedup"] >= args.min_extract_speedup \
        else "FAIL"
    print(f"check_bench: level {top['level']} extract speedup = "
          f"{top['extract_speedup']:.2f}x "
          f"(min required {args.min_extract_speedup:.2f}): {verdict}")
    ok = ok and top["extract_speedup"] >= args.min_extract_speedup

    share = data.get("amr_share")
    if isinstance(share, dict):
        s = share.get("share")
        if not isinstance(s, (int, float)) or not math.isfinite(s):
            print(f"check_bench: FAIL amr_share.share not finite: {s!r}")
            ok = False
        else:
            print(f"check_bench: AMR share of step time = {s:.1%} "
                  f"(amr {share.get('amr_s', 0):.3f}s of "
                  f"{share.get('step_s', 0):.3f}s)")
    else:
        print("check_bench: FAIL missing amr_share block")
        ok = False
    return 0 if ok else 1


def check_memory(data, args) -> int:
    cases = [c for c in data.get("cases", [])
             if "bytes_per_dof" in c.get("memory", {}) and "level" in c]
    if len(cases) < 2:
        print(f"check_bench: need at least two levels, got {len(cases)}")
        return 1
    cases.sort(key=lambda c: c["level"])
    ok = True
    for c in cases:
        mem = c["memory"]
        acc = mem.get("accounted", {})
        total = acc.get("total_bytes", 0)
        if c.get("n_dof", 0) <= 0 or total <= 0:
            print(f"check_bench: FAIL level {c['level']}: empty accounting "
                  f"(n_dof={c.get('n_dof')}, total_bytes={total})")
            ok = False
        print(f"  level {c['level']}: {mem['bytes_per_dof']:.1f} bytes/dof "
              f"(n_dof={c.get('n_dof', '?')}, accounted={total}, "
              f"imbalance={acc.get('imbalance', 0):.3f})")

    lo, hi = cases[0]["memory"], cases[-1]["memory"]
    lo_level, hi_level = cases[0]["level"], cases[-1]["level"]
    if lo["bytes_per_dof"] <= 0:
        print("check_bench: lowest-level bytes_per_dof is not positive")
        return 1
    ratio = hi["bytes_per_dof"] / lo["bytes_per_dof"]
    verdict = "PASS" if ratio <= args.max_mem_ratio else "FAIL"
    print(f"check_bench: level {hi_level} vs level {lo_level} total "
          f"bytes/dof ratio = {ratio:.2f} "
          f"(max allowed {args.max_mem_ratio:.2f}): {verdict}")
    ok = ok and ratio <= args.max_mem_ratio

    def sub_bpd(mem):
        return {s["name"]: s.get("bytes_per_dof", 0.0)
                for s in mem.get("subsystems", [])}

    hi_total = sum(s.get("bytes", 0) for s in hi.get("subsystems", []))
    lo_sub, hi_sub = sub_bpd(lo), sub_bpd(hi)
    for s in hi.get("subsystems", []):
        name = s["name"]
        share = s.get("bytes", 0) / hi_total if hi_total > 0 else 0.0
        if share < args.min_mem_share:
            continue  # too small to gate; noise and fixed overheads
        if name not in lo_sub or lo_sub[name] <= 0:
            print(f"  subsystem {name}: new at level {hi_level} "
                  f"({share:.0%} share) — no baseline, skipped")
            continue
        r = hi_sub[name] / lo_sub[name]
        line_ok = r <= args.max_mem_ratio
        print(f"  subsystem {name}: {lo_sub[name]:.1f} -> "
              f"{hi_sub[name]:.1f} bytes/dof, ratio {r:.2f} "
              f"({share:.0%} of footprint): "
              f"{'PASS' if line_ok else 'FAIL'}")
        ok = ok and line_ok
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("bench_json", nargs="?", default="BENCH_amg_setup.json",
                    help="bench output file (default: BENCH_amg_setup.json)")
    ap.add_argument("--max-ratio", type=float, default=3.0,
                    help="amg_setup: highest-vs-lowest level ns/nnz bound")
    ap.add_argument("--min-speedup", type=float, default=2.0,
                    help="apply: required best-case batched-vs-scalar speedup")
    ap.add_argument("--min-case-speedup", type=float, default=0.9,
                    help="apply: per-case floor (no real regression; 0.9 "
                    "leaves room for timer noise on small operators)")
    ap.add_argument("--max-sync", type=float, default=2.0,
                    help="apply: max Krylov synchronization rounds per "
                    "iteration")
    ap.add_argument("--max-iter-delta", type=int, default=2,
                    help="apply: max fused-vs-reference iteration count "
                    "difference")
    ap.add_argument("--max-mem-ratio", type=float, default=1.5,
                    help="memory: highest-vs-lowest level bytes/dof bound")
    ap.add_argument("--min-mem-share", type=float, default=0.05,
                    help="memory: minimum share of the highest level's "
                    "footprint for a subsystem to be gated")
    ap.add_argument("--min-extract-speedup", type=float, default=2.0,
                    help="amr: required hashed-vs-reference extraction "
                    "speedup at the largest level")
    ap.add_argument("--min-reuse", type=float, default=0.0,
                    help="amr: reuse fraction on non-repartitioning adapts "
                    "must be strictly above this")
    args = ap.parse_args()

    try:
        with open(args.bench_json, encoding="utf-8") as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"check_bench: cannot read {args.bench_json}: {e}")
        return 1

    cases = data.get("cases", [])
    if any("extract_speedup" in c for c in cases):
        return check_amr(data, args)
    if any("speedup" in c for c in cases):
        return check_apply(data, args)
    if any("setup_ns_per_nnz" in c for c in cases):
        return check_amg_setup(data, args)
    if any("memory" in c for c in cases):
        return check_memory(data, args)
    print(f"check_bench: unrecognized schema in {args.bench_json}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
