"""Arithmetic of the benchmark: medians and counts, the failure share,
span self times, and the end-to-end and per-layer metrics built from the
records rheabench prints. Pure functions; test_metrics.py covers them."""

import statistics

MIB = 1024.0 * 1024.0


def median(values):
    """Median of a non-empty sample (mean of the middle pair when even)."""
    if not values:
        raise ValueError("median of an empty sample")
    return statistics.median(values)


def fail_frac(failed, attempted):
    """Failure share of one episode, (failed + 1) / (attempted + 2).

    This is the rule-of-succession estimate of the failure probability: it
    moves with failed / attempted, and it is never exactly 0 (or 1), which
    the benchmark's relative bounds need. The raw counts are printed next
    to it.
    """
    if attempted < 0 or failed < 0 or failed > attempted:
        raise ValueError("need 0 <= failed <= attempted")
    return (failed + 1.0) / (attempted + 2.0)


# ---------------------------------------------------------------------------
# Spans


def self_times(spans):
    """Self time of every span: its duration minus the durations of its
    direct children. `spans` is a list of dicts with id, parent, start and
    end from one rank; returns {id: seconds}."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] >= 0:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def step_ledger(spans):
    """Per traced step of one rank: the step's wall time, the summed self
    times of the layer spans under it, and the unattributed remainder
    (the step span's own self time). Returns {step: (wall, layers,
    remainder)}; wall == layers + remainder up to rounding."""
    own = self_times(spans)
    ledger = {}
    for s in spans:
        if s["step"] < 1:
            continue
        wall, layers, rem = ledger.get(s["step"], (0.0, 0.0, 0.0))
        if s["name"] == "step":
            wall += s["end"] - s["start"]
            rem += own[s["id"]]
        else:
            layers += own[s["id"]]
        ledger[s["step"]] = (wall, layers, rem)
    return ledger


def layer_calls(spans, name):
    """Self times of every call of layer `name` in the traced steps or, for
    a layer the steps never call, in the unit-cost section after them."""
    own = self_times(spans)
    calls = [own[s["id"]] for s in spans if s["name"] == name and s["step"] >= 1]
    return calls or [own[s["id"]] for s in spans
                     if s["name"] == name and s["step"] == -1]


def barrier_wait_per_step(spans_by_rank):
    """Median over steps of the mean over ranks of the time each rank sat
    in the barriers after layer calls."""
    per_step = {}
    for spans in spans_by_rank.values():
        waits = {}
        for s in spans:
            if s["step"] >= 1 and s["name"] == "par.barrier":
                waits[s["step"]] = waits.get(s["step"], 0.0) + s["end"] - s["start"]
        for step, w in waits.items():
            per_step.setdefault(step, []).append(w)
    return median([sum(v) / len(v) for v in per_step.values()])


# ---------------------------------------------------------------------------
# End-to-end metrics of untraced episodes


def episode_operations(ep, convection):
    """(attempted, failed) operations of one episode for the failure share:
    MINRES solves in convection mode (failed unless converged), steps in
    transport (a step that throws or trips a check fails the run)."""
    if convection:
        solves = list(ep["setup_solves"])
        for st in ep["steps"]:
            solves.extend(st["solves"])
        return len(solves), sum(1 for s in solves if not s["converged"])
    return len(ep["steps"]), len(ep["failures"])


def step_samples(ep):
    """(non-adapting, adapting) step wall times of one episode. The first
    step is left out: it runs no Stokes solve, initialize() already did."""
    plain, adapt = [], []
    for i, st in enumerate(ep["steps"]):
        if st["adapted"]:
            adapt.append(st["wall_s"])
        elif i > 0:
            plain.append(st["wall_s"])
    return plain, adapt


def end_to_end(episodes, host, convection):
    """The end-to-end metrics of one run: {name: (value, unit, count)}."""
    setups, runs, plain, adapt, fails = [], [], [], [], []
    for ep in episodes:
        setups.extend(ep["setup_s"])
        runs.append(sum(st["wall_s"] for st in ep["steps"]))
        p, a = step_samples(ep)
        plain.extend(p)
        adapt.extend(a)
        attempted, failed = episode_operations(ep, convection)
        fails.append(fail_frac(failed, attempted))
    return {
        "setup_s": (median(setups), "s", len(setups)),
        "run_s": (median(runs), "s", len(runs)),
        "step_s": (median(plain), "s", len(plain)),
        "adapt_step_s": (median(adapt), "s", len(adapt)),
        "peak_rss_mb": (host["peak_rss_bytes"] / MIB, "MiB", 1),
        "fail_frac": (median(fails), "ratio", len(fails)),
    }


def same_work(untraced, traced):
    """Mismatches between the untraced and traced episode: per-step element
    counts and every MINRES iteration count must be identical."""
    def iters(ep):
        out = [s["iters"] for s in ep["setup_solves"]]
        for st in ep["steps"]:
            out.extend(s["iters"] for s in st["solves"])
        return out

    bad = []
    el_u = [st["elements"] for st in untraced["steps"]]
    el_t = [st["elements"] for st in traced["steps"]]
    if el_u != el_t:
        bad.append("element counts differ: %s vs %s" % (el_u, el_t))
    if iters(untraced) != iters(traced):
        bad.append("MINRES iterations differ: %s vs %s"
                   % (iters(untraced), iters(traced)))
    return bad


# ---------------------------------------------------------------------------
# Per-layer metrics of a traced run

# Layers timed as the median self time of one call, by span name.
CALL_LAYERS = [
    ("octree.mark_s", "octree.mark"),
    ("octree.adapt_s", "octree.adapt"),
    ("forest.balance_s", "forest.balance"),
    ("forest.partition_s", "forest.partition"),
    ("mesh.ghost_s", "mesh.ghost"),
    ("mesh.extract_s", "mesh.extract"),
    ("mesh.interpolate_s", "mesh.interpolate"),
    ("mesh.fields_s", "mesh.fields"),
    ("rhea.indicator_s", "rhea.indicator"),
    ("stokes.viscosity_s", "stokes.viscosity"),
    ("stokes.setup_s", "stokes.setup"),
    ("stokes.solve_s", "stokes.solve"),
    ("energy.setup_s", "energy.setup"),
    ("energy.dt_s", "energy.dt"),
    ("energy.step_s", "energy.step"),
    ("obs.analyze_step_s", "obs.analyze_step"),
    ("obs.analyze_memory_s", "obs.analyze_memory"),
]


def per_layer(untraced, traced, spans_by_rank, host):
    """The per-layer metrics of one traced run: {name: (value, unit)}."""
    spans = spans_by_rank[0]
    units = traced["units"]
    out = {}
    for metric, name in CALL_LAYERS:
        out[metric] = (median(layer_calls(spans, name)), "s")

    steps = traced["steps"]
    nsteps = len(steps)
    adapts = max(1, traced["adapts"])
    out["octree.elements"] = (steps[-1]["elements"], "count")
    out["forest.balance_added"] = (traced["balance_added"] / adapts, "count")
    out["forest.partitions"] = (traced["partitions"], "count")
    extracted = traced["extract_reused"] + traced["extract_recomputed"]
    out["mesh.extract_reuse_frac"] = (
        traced["extract_reused"] / extracted if extracted else 0.0, "ratio")
    n = units["n_global"]
    out["mesh.bytes_per_dof"] = (units["mesh_bytes"] / n, "B")

    # Solver layers: the solves of the traced steps (transport: the unit
    # section's one isoviscous Picard iteration).
    solves = [s for st in steps for s in st["solves"]] + traced["unit_solves"]
    updates = sum(1 for st in steps if st["solves"]) + (1 if traced["unit_solves"] else 0)
    out["stokes.picard_iters"] = (len(solves) / updates, "count")

    apply_s = median(units["apply_s"])
    vcycle_s = median(units["vcycle_s"])
    out["amg.setup_s"] = (median(units["amg_setup_s"]), "s")
    out["amg.refresh_s"] = (median(units["amg_refresh_s"]), "s")
    out["amg.vcycle_s"] = (vcycle_s, "s")
    out["amg.vcycle_ns_per_nnz"] = (1e9 * vcycle_s / units["amg_nnz"], "ns")
    out["amg.levels"] = (units["amg_levels"], "count")
    out["amg.operator_complexity"] = (units["amg_complexity"], "ratio")
    out["amg.bytes_per_dof"] = (units["amg_bytes"] / n, "B")
    # Computed bytes of one 4-component apply: the element matrices plus
    # reading x and writing y once.
    apply_bytes = units["fem_plan_bytes"] + 2 * 4 * 8 * n
    out["fem.apply_s"] = (apply_s, "s")
    out["fem.apply_ns_per_dof"] = (1e9 * apply_s / n, "ns")
    out["fem.apply_gbs"] = (apply_bytes / apply_s / 1e9, "GB/s")
    out["fem.bytes_per_dof"] = (units["fem_bytes"] / n, "B")

    solve_calls = layer_calls(spans, "stokes.solve")
    iters = [s["iters"] for s in solves]
    out["la.minres_iters_mean"] = (sum(iters) / len(iters), "count")
    out["la.minres_iters_max"] = (max(iters), "count")
    per_iter = [t / s["iters"] for t, s in zip(solve_calls, solves) if s["iters"]]
    out["la.minres_s_per_iter"] = (median(per_iter), "s")
    # Share of a solve not explained by its operator applies and V-cycles,
    # over the solves on the final mesh (after the last adaptation).
    last = max([i for i, st in enumerate(steps) if st["adapted"]] or [0])
    final = [s for st in steps[last:] for s in st["solves"]] + traced["unit_solves"]
    final_t = solve_calls[-len(final):]
    fracs = [1.0 - s["iters"] * (apply_s + 3.0 * vcycle_s) / t
             for s, t in zip(final, final_t)]
    out["la.minres_unattributed_frac"] = (median(fracs), "ratio")
    out["la.relres_final"] = (median([s["relres"] for s in solves]), "ratio")

    out["obs.telemetry_bytes_per_step"] = (
        untraced["telemetry_bytes"] / len(untraced["steps"]), "B")
    out["obs.unaccounted_mb"] = (traced["unaccounted_bytes"] / MIB, "MiB")

    comm = traced["comm"]
    out["par.p2p_msgs_per_step"] = (sum(c["p2p_msgs"] for c in comm) / nsteps, "count")
    out["par.p2p_bytes_per_step"] = (sum(c["p2p_bytes"] for c in comm) / nsteps, "B")
    out["par.collectives_per_step"] = (
        sum(c["collectives"] for c in comm) / nsteps, "count")
    out["par.barrier_wait_s"] = (barrier_wait_per_step(spans_by_rank), "s")

    ledger = step_ledger(spans)
    out["trace.remainder_s"] = (median([r for _, _, r in ledger.values()]), "s")
    out["trace.overhead_s"] = (
        sum(st["wall_s"] for st in steps)
        - sum(st["wall_s"] for st in untraced["steps"]), "s")

    ws = host["working_set"]
    l3 = host["l3_bytes"]
    out["host.nproc"] = (host["nproc"], "count")
    out["host.l3_mib"] = (l3 / MIB, "MiB")
    out["ws.fem_mib"] = (ws["fem_bytes"] / MIB, "MiB")
    out["ws.amg_mib"] = (ws["amg_bytes"] / MIB, "MiB")
    out["ws.over_l3"] = ((ws["fem_bytes"] + ws["amg_bytes"]) / l3, "ratio")
    return out
