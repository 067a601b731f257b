#!/usr/bin/env python3
"""Validate an alps telemetry JSONL stream and/or a flight-recorder bundle.

JSONL mode (default):
  * every line parses as a JSON object,
  * required keys are present with finite numeric values
    (step, time, dt, elements, dofs, partition_imbalance,
    nusselt, v_rms, t_min, t_max, t_mean),
  * "step" is strictly increasing, "time" non-decreasing, "dt" > 0,
  * "per_level" is a list of non-negative ints summing to "elements",
  * solver fields appear together and only on steps that solved Stokes:
    "picard_iterations", "amg_vcycles" (non-negative ints) and a
    "solves" array with one {status, iterations, relres} entry per
    Picard iteration (a known status token, iterations >= 0, relres a
    finite number >= 0, or null only for a non_finite solve),
  * optional "timings" blocks (per-step phase seconds) carry a bool
    "adapted" and non-negative finite phase entries, with the AMR
    phases (extract in particular) at zero on non-adapting steps, and
    the extraction reuse statistics, when present, are non-negative
    counts plus a bool fallback flag,
  * optional "latency" blocks (per-phase histogram quantiles) carry,
    per phase, a positive sample count and quantiles ordered
    p50 <= p95 <= p99 <= max with max <= sum <= count * max,
  * optional "memory" blocks obey the accounting invariants: imbalance
    >= 1, min <= mean <= max <= hwm, the accounted and RSS high-water
    marks never decrease across records, accounted total <= global RSS
    (per-rank accounting can never exceed what the OS charges the
    process times ranks), and an {"available": false} RSS object carries
    no numeric fields (no fabricated zeros),
  * optional "critical_path" / "wait_states" blocks (always both):
    length_s >= mean_s >= 0; per phase cp_s >= mean_s >= 0, imbalance
    >= 1 and the critical rank in [0, ranks); all wait buckets >= 0 and,
    per phase, late_sender_s + transfer_s + collective_s no more than
    the rank-summed wall_s (late_receiver_s is excluded: it is queue time
    hidden by the receiver's own work and may span phase boundaries);
    overlap, when present, in [0, 1]; blamed_rank, when present, in
    [0, ranks) with blamed_s > 0,
  * optional: --min-records N requires at least N records; --min-steps N
    requires every record to carry the analysis blocks and at least N
    such records; --ranks N overrides the records' "ranks" field;
    --expect-slow-rank N requires some phase of some step to blame rank
    N for late-sender time (the slow-rank test hook).

Bundle mode (--dump-dir DIR): the flight-recorder layout written by
obs::panic_dump is present and parses — reason.txt (non-empty),
trace.json / counters.json / phases.json / residuals.json (valid JSON),
telemetry_tail.jsonl (every line passes the record checks above, except
that the physics diagnostics may be null, as a non-finite value is
written; the tail may be empty but never malformed) and memory.json (the
memory block checks above, with the high-water marks continuing from the
tail's).

Usage:
  check_telemetry.py rhea_telemetry.jsonl --min-records 4
  check_telemetry.py alps_telemetry.jsonl --ranks 4 --min-steps 2 \
      --expect-slow-rank 1
  check_telemetry.py --dump-dir alps_dump
"""

import argparse
import json
import math
import os
import sys

PHYSICS = ["nusselt", "v_rms", "t_min", "t_max", "t_mean"]
REQUIRED = [
    "step", "time", "dt", "elements", "dofs", "partition_imbalance",
] + PHYSICS


def fail(msg: str) -> None:
    print(f"check_telemetry: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def _num(obj, key, where):
    v = obj.get(key)
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        fail(f"{where}: \"{key}\" is not numeric: {v!r}")
    if not math.isfinite(v):
        fail(f"{where}: \"{key}\" is not finite: {v!r}")
    return v


def check_memory_block(mem, where, hwm_state) -> None:
    """Validate one record's "memory" block against the accounting
    invariants; hwm_state carries the previous record's high-water marks
    (they must never decrease across a run)."""
    if not isinstance(mem, dict):
        fail(f"{where}: \"memory\" is not an object")
    if not isinstance(mem.get("available"), bool):
        fail(f"{where}: memory.available is not a bool")
    if not mem["available"]:
        return
    acc = mem.get("accounted")
    if not isinstance(acc, dict):
        fail(f"{where}: memory.accounted missing or not an object")
    amin = _num(acc, "min_bytes", where)
    amed = _num(acc, "median_bytes", where)
    amax = _num(acc, "max_bytes", where)
    amean = _num(acc, "mean_bytes", where)
    ahwm = _num(acc, "hwm_bytes", where)
    aimb = _num(acc, "imbalance", where)
    if not (0 <= amin <= amed <= amax):
        fail(f"{where}: accounted min/median/max out of order "
             f"({amin}/{amed}/{amax})")
    if not (amin <= amean <= amax):
        fail(f"{where}: accounted mean {amean} outside [{amin}, {amax}]")
    if ahwm < amax:
        fail(f"{where}: accounted hwm {ahwm} below current max {amax}")
    if aimb < 1:
        fail(f"{where}: accounted imbalance {aimb} < 1")
    if ahwm < hwm_state.get("acc", 0):
        fail(f"{where}: accounted hwm {ahwm} decreased "
             f"(previous {hwm_state['acc']})")
    hwm_state["acc"] = ahwm

    rss = mem.get("rss")
    if not isinstance(rss, dict):
        fail(f"{where}: memory.rss missing or not an object")
    if not isinstance(rss.get("available"), bool):
        fail(f"{where}: memory.rss.available is not a bool")
    if not rss["available"]:
        if len(rss) != 1:
            fail(f"{where}: rss has available:false mixed with other "
                 f"fields: {sorted(rss)}")
        return
    rmin = _num(rss, "min_bytes", where)
    rmax = _num(rss, "max_bytes", where)
    rhwm = _num(rss, "hwm_bytes", where)
    rimb = _num(rss, "imbalance", where)
    if not (0 < rmin <= rmax <= rhwm):
        fail(f"{where}: rss min/max/hwm out of order "
             f"({rmin}/{rmax}/{rhwm})")
    if rimb < 1:
        fail(f"{where}: rss imbalance {rimb} < 1")
    if rhwm < hwm_state.get("rss", 0):
        fail(f"{where}: rss hwm {rhwm} decreased "
             f"(previous {hwm_state['rss']})")
    hwm_state["rss"] = rhwm
    total = acc.get("total_bytes")
    if isinstance(total, (int, float)) and total > rmax:
        fail(f"{where}: accounted total {total} exceeds RSS {rmax}")


def check_latency_block(lat, where) -> None:
    """Validate one record's "latency" block: per-phase quantiles from
    the merged cross-rank histograms. Quantiles are nearest-rank, so they
    must be monotone in q and bounded by the exact max; the sum of count
    samples is bounded by [max, count * max]."""
    if not isinstance(lat, dict):
        fail(f"{where}: \"latency\" is not an object")
    phases = lat.get("phases")
    if not isinstance(phases, list):
        fail(f"{where}: latency.phases missing or not a list")
    seen = set()
    for p in phases:
        if not isinstance(p, dict) or not isinstance(p.get("phase"), str):
            fail(f"{where}: latency phase entry malformed: {p!r}")
        name = p["phase"]
        if name in seen:
            fail(f"{where}: latency phase {name!r} duplicated")
        seen.add(name)
        count = p.get("count")
        if not isinstance(count, int) or count < 1:
            fail(f"{where}: latency.{name}.count not a positive int: "
                 f"{count!r}")
        s = _num(p, "sum_s", where)
        p50 = _num(p, "p50_s", where)
        p95 = _num(p, "p95_s", where)
        p99 = _num(p, "p99_s", where)
        mx = _num(p, "max_s", where)
        if not (0 <= p50 <= p95 <= p99 <= mx):
            fail(f"{where}: latency.{name} quantiles out of order "
                 f"({p50}/{p95}/{p99}/{mx})")
        # FP slack: sum accumulates count rounded terms.
        if not (mx <= s * (1 + 1e-9) + 1e-12):
            fail(f"{where}: latency.{name} sum {s} below max {mx}")
        if s > count * mx * (1 + 1e-9) + 1e-12:
            fail(f"{where}: latency.{name} sum {s} exceeds "
                 f"count * max = {count * mx}")


TIMING_KEYS = [
    "mark", "coarsen_refine", "balance", "partition", "extract",
    "interpolate", "transfer", "time_integration", "stokes",
]


def check_timings_block(t, where) -> None:
    """Validate one record's "timings" block: the AMR cycle phase seconds
    are non-negative, and phases that only run inside an adaptation
    (extraction above all) are zero on non-adapting steps."""
    if not isinstance(t, dict):
        fail(f"{where}: \"timings\" is not an object")
    if not isinstance(t.get("adapted"), bool):
        fail(f"{where}: timings.adapted is not a bool")
    for key in TIMING_KEYS:
        v = _num(t, key, where)
        if v < -1e-9:
            fail(f"{where}: timings.{key} is negative: {v}")
    if not t["adapted"]:
        for key in ("mark", "coarsen_refine", "balance", "partition",
                    "extract", "interpolate", "transfer"):
            if t[key] > 1e-6:
                fail(f"{where}: timings.{key} = {t[key]} on a "
                     f"non-adapting step")
    else:
        for key in ("extract_reused", "extract_recomputed"):
            if key in t and _num(t, key, where) < 0:
                fail(f"{where}: timings.{key} is negative")
        if ("extract_fallback" in t
                and not isinstance(t["extract_fallback"], bool)):
            fail(f"{where}: timings.extract_fallback is not a bool")


SOLVE_STATUSES = {"converged", "max_iterations", "stagnated", "diverged",
                  "non_finite"}


def _count(obj, key, where):
    v = obj.get(key)
    if not isinstance(v, int) or isinstance(v, bool) or v < 0:
        fail(f"{where}: \"{key}\" is not a non-negative int: {v!r}")
    return v


def check_solver_fields(rec, where) -> None:
    """Solver fields describe this step's Stokes solve only: all three
    or none, one "solves" entry per Picard iteration."""
    present = [k for k in ("picard_iterations", "amg_vcycles", "solves")
               if k in rec]
    if not present:
        return
    if len(present) != 3:
        fail(f"{where}: partial solver fields {present}")
    _count(rec, "amg_vcycles", where)
    solves = rec["solves"]
    if not isinstance(solves, list) or not solves:
        fail(f"{where}: \"solves\" is not a non-empty list")
    if _count(rec, "picard_iterations", where) != len(solves):
        fail(f"{where}: picard_iterations {rec['picard_iterations']} != "
             f"{len(solves)} solves")
    for s in solves:
        if not isinstance(s, dict) or s.get("status") not in SOLVE_STATUSES:
            fail(f"{where}: malformed solves entry {s!r}")
        _count(s, "iterations", where)
        if s.get("relres") is None and s["status"] == "non_finite":
            continue
        if _num(s, "relres", where) < 0:
            fail(f"{where}: negative relres in {s!r}")


EPS = 1e-9   # absolute slack for float roundtrip through JSON
REL = 1.02   # 2% relative slack on the bucket <= wall invariant


def check_analysis_blocks(rec, where, ranks) -> set:
    """Validate the critical_path and wait_states blocks; returns the
    ranks blamed for late-sender time."""
    cp, ws = rec["critical_path"], rec["wait_states"]
    for key in ("length_s", "mean_s", "imbalance", "phases"):
        if key not in cp:
            fail(f"{where}: critical_path is missing \"{key}\"")
    if cp["mean_s"] < -EPS or cp["length_s"] < cp["mean_s"] - EPS:
        fail(f"{where}: critical_path length_s {cp['length_s']} < "
             f"mean_s {cp['mean_s']}")
    for ph in cp["phases"]:
        name = ph.get("phase", "?")
        if ph["mean_s"] < -EPS or ph["cp_s"] < ph["mean_s"] - EPS:
            fail(f"{where} phase {name}: cp_s {ph['cp_s']} < "
                 f"mean_s {ph['mean_s']}")
        if ph["imbalance"] < 1.0 - 1e-6:
            fail(f"{where} phase {name}: imbalance {ph['imbalance']} < 1")
        if not 0 <= ph["rank"] < ranks:
            fail(f"{where} phase {name}: critical rank {ph['rank']} "
                 f"outside [0, {ranks})")
    if "phases" not in ws:
        fail(f"{where}: wait_states is missing \"phases\"")
    blamed = set()
    for ph in ws["phases"]:
        name = ph.get("phase", "?")
        for b in ("late_sender_s", "transfer_s", "late_receiver_s",
                  "collective_s", "wall_s", "max_blocked_s"):
            if b not in ph:
                fail(f"{where} phase {name}: missing \"{b}\"")
            if ph[b] < -EPS:
                fail(f"{where} phase {name}: {b} = {ph[b]} < 0")
        blocked = ph["late_sender_s"] + ph["transfer_s"] + ph["collective_s"]
        if blocked > ph["wall_s"] * REL + EPS:
            fail(f"{where} phase {name}: blocked buckets sum to "
                 f"{blocked} > wall_s {ph['wall_s']}")
        if "overlap" in ph and not -EPS <= ph["overlap"] <= 1 + EPS:
            fail(f"{where} phase {name}: overlap {ph['overlap']} "
                 f"outside [0, 1]")
        if "blamed_rank" in ph:
            if not 0 <= ph["blamed_rank"] < ranks:
                fail(f"{where} phase {name}: blamed_rank "
                     f"{ph['blamed_rank']} outside [0, {ranks})")
            if ph.get("blamed_s", 0) <= 0:
                fail(f"{where} phase {name}: blamed_rank present but "
                     f"blamed_s = {ph.get('blamed_s')}")
            blamed.add(ph["blamed_rank"])
    return blamed


class RecordState:
    """What the record checks carry from one record to the next."""

    def __init__(self):
        self.prev_step = None
        self.prev_time = None
        self.hwm = {}
        self.mem = self.timings = self.latency = self.analyzed = 0
        self.blamed = set()


def check_record(line, where, args, st, null_physics=False) -> None:
    """Validate one telemetry line; st carries the cross-record state.
    With null_physics the physics diagnostics may be null: a dying run's
    records (the flight-recorder tail) carry non-finite values, which the
    writer turns into null, and /status has none without telemetry."""
    try:
        rec = json.loads(line)
    except json.JSONDecodeError as e:
        fail(f"{where}: not valid JSON: {e}")
    if not isinstance(rec, dict):
        fail(f"{where}: record is not a JSON object")
    for key in REQUIRED:
        if key not in rec:
            fail(f"{where}: missing required key \"{key}\"")
        v = rec[key]
        if null_physics and key in PHYSICS and v is None:
            continue
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            fail(f"{where}: \"{key}\" is not numeric: {v!r}")
        if not math.isfinite(v):
            fail(f"{where}: \"{key}\" is not finite: {v!r}")
    if st.prev_step is not None and rec["step"] <= st.prev_step:
        fail(f"{where}: step {rec['step']} not strictly increasing "
             f"(previous {st.prev_step})")
    if st.prev_time is not None and rec["time"] < st.prev_time:
        fail(f"{where}: time {rec['time']} decreased "
             f"(previous {st.prev_time})")
    if rec["dt"] <= 0:
        fail(f"{where}: dt {rec['dt']} is not positive")
    per_level = rec.get("per_level")
    if per_level is not None:
        if (not isinstance(per_level, list)
                or any(not isinstance(n, int) or n < 0 for n in per_level)):
            fail(f"{where}: \"per_level\" is not a list of "
                 f"non-negative ints")
        if sum(per_level) != rec["elements"]:
            fail(f"{where}: per_level sums to {sum(per_level)}, "
                 f"elements says {rec['elements']}")
    if "memory" in rec:
        check_memory_block(rec["memory"], where, st.hwm)
        st.mem += 1
    if "timings" in rec:
        check_timings_block(rec["timings"], where)
        st.timings += 1
    if "latency" in rec:
        check_latency_block(rec["latency"], where)
        st.latency += 1
    check_solver_fields(rec, where)
    blocks = [k for k in ("critical_path", "wait_states") if k in rec]
    if blocks or args.min_steps is not None:
        if len(blocks) != 2:
            fail(f"{where}: step {rec['step']} needs both "
                 f"critical_path and wait_states, has {blocks}")
        ranks = args.ranks if args.ranks > 0 else rec.get("ranks", 1)
        st.blamed |= check_analysis_blocks(rec, where, ranks)
        st.analyzed += 1
    st.prev_step, st.prev_time = rec["step"], rec["time"]


def read_lines(path: str):
    try:
        with open(path, encoding="utf-8") as f:
            return [ln for ln in f.read().splitlines() if ln.strip()]
    except OSError as e:
        fail(f"cannot read {path}: {e}")


def check_jsonl(path: str, args) -> None:
    lines = read_lines(path)
    if len(lines) < args.min_records:
        fail(f"{path}: expected >= {args.min_records} records, "
             f"found {len(lines)}")

    st = RecordState()
    for i, line in enumerate(lines, start=1):
        check_record(line, f"{path}:{i}", args, st)

    if st.analyzed < (args.min_steps or 0):
        fail(f"{path}: expected >= {args.min_steps} analyzed step records, "
             f"found {st.analyzed}")
    if args.expect_slow_rank >= 0 and args.expect_slow_rank not in st.blamed:
        fail(f"{path}: no phase blamed rank {args.expect_slow_rank} for "
             f"late-sender time (blamed: {sorted(st.blamed)})")

    print(f"check_telemetry: OK: {len(lines)} records in {path}, "
          f"steps {lines and json.loads(lines[0])['step']}..{st.prev_step}, "
          f"{st.mem} with memory blocks, "
          f"{st.timings} with timings blocks, "
          f"{st.latency} with latency blocks, "
          f"{st.analyzed} with analysis blocks"
          + (f", blamed ranks {sorted(st.blamed)}" if st.blamed else ""))


def load_json(path: str):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except OSError as e:
        fail(f"cannot read {path}: {e}")
    except json.JSONDecodeError as e:
        fail(f"{path} is not valid JSON: {e}")


def check_bundle(dump_dir: str, args) -> None:
    if not os.path.isdir(dump_dir):
        fail(f"dump dir {dump_dir} does not exist")

    reason = os.path.join(dump_dir, "reason.txt")
    try:
        with open(reason, encoding="utf-8") as f:
            text = f.read().strip()
    except OSError as e:
        fail(f"cannot read {reason}: {e}")
    if not text:
        fail(f"{reason} is empty")

    for name in ("trace.json", "counters.json", "phases.json",
                 "residuals.json"):
        load_json(os.path.join(dump_dir, name))

    tail = os.path.join(dump_dir, "telemetry_tail.jsonl")
    tail_lines = read_lines(tail)
    st = RecordState()
    for i, line in enumerate(tail_lines, start=1):
        check_record(line, f"{tail}:{i}", args, st, null_physics=True)

    memory = os.path.join(dump_dir, "memory.json")
    check_memory_block(load_json(memory), memory, st.hwm)

    print(f"check_telemetry: OK: bundle in {dump_dir} "
          f"(reason: {text.splitlines()[0]!r}, "
          f"{len(tail_lines)} telemetry tail records)")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("jsonl", nargs="?", help="telemetry JSONL stream")
    ap.add_argument("--min-records", type=int, default=1,
                    help="minimum number of JSONL records expected")
    ap.add_argument("--min-steps", type=int, default=None,
                    help="require the analysis blocks on every record and "
                    "at least this many records")
    ap.add_argument("--ranks", type=int, default=0,
                    help="expected rank count (default: from the records)")
    ap.add_argument("--expect-slow-rank", type=int, default=-1,
                    help="require some phase to blame this rank")
    ap.add_argument("--dump-dir",
                    help="validate a flight-recorder bundle directory")
    args = ap.parse_args()

    if not args.jsonl and not args.dump_dir:
        fail("nothing to check: pass a JSONL file and/or --dump-dir")
    if args.jsonl:
        check_jsonl(args.jsonl, args)
    if args.dump_dir:
        check_bundle(args.dump_dir, args)


if __name__ == "__main__":
    main()
