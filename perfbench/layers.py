"""Per-layer metrics of a traced run, named as in BENCHMARK.json ``per_layer``.

Two traced passes feed them.  The *boundary* pass wraps only the entry points
of each layer (a few thousand calls per pass), so its times are close to
untraced ones; it gives the baseline rows (kernel us/round, enumeration ms by
roster size, the dynamic500-type2 engine/summarize/CSV split) and keeps its
spans for a Chrome trace file.  The *full* pass wraps every public function
and gives call counts, self times and the ratios below.
"""
from __future__ import annotations

import os
import statistics

#: Low-call-count entry points wrapped in the boundary pass.
BOUNDARY = (
    "scenarios.get_scenario", "scenarios.run_scenario", "engine.run_simulation",
    "metrics.summarize", "cli.write_trace", "cli.write_summary",
    "model.SystemConfig.save", "oracle.enumerate_transitions",
    "oracle.reach_probability", "oracle.find_escape",
    "oracle.sample_round_keys", "oracle.compare_engine_distribution",
    "reputation.check_property1", "reputation.find_property2_counterexample",
)


def _round(tracer, args, result, exc, dt):
    if result is not None:
        outcome = result[2]
        c = tracer.counters
        c["rounds"] += 1
        c["audited_rounds"] += outcome.audited
        c["tie_rounds"] += outcome.tie_broken


def _simulation(tracer, args, result, exc, dt):
    if result is not None and args[0].n == 9:
        tracer.counters["n9_sim_s"] += dt
        tracer.counters["n9_sim_rounds"] += len(result)


def _enumerate(tracer, args, result, exc, dt):
    if result is None:
        return
    c = tracer.counters
    n = len(result.state.p_c)
    c["branches"] += len(result.successors)
    c[f"enumerate_s.n{n}"] += dt
    c[f"enumerate_calls.n{n}"] += 1
    if tracer.active("oracle.reach_probability"):
        c["states_expanded"] += 1


def _cheater_sets(tracer, args, result, exc, dt):
    if result is not None:
        tracer.counters["cheater_sets_nonzero"] += len(result)
        tracer.counters["cheater_sets_total"] += 2 ** len(args[0].p_c)


def _bounded(tracer, args, result, exc, dt):
    if exc is not None and hasattr(exc, "lower_bound"):
        tracer.counters["bound_errors"] += 1
        if exc.lower_bound is not None:
            tracer.counters["reach_gap"] += 1.0 - exc.lower_bound


def _written(path_index):
    def hook(tracer, args, result, exc, dt):
        if exc is None:
            tracer.counters["bytes_written"] += os.path.getsize(args[path_index])
    return hook


HOOKS = {
    "engine.round_successor": _round,
    "engine.run_simulation": _simulation,
    "oracle.enumerate_transitions": _enumerate,
    "oracle.cheater_set_probabilities": _cheater_sets,
    "oracle.reach_probability": _bounded,
    "oracle.find_escape": _bounded,
    "cli.write_trace": _written(0),
    "cli.write_summary": _written(0),
    "model.SystemConfig.save": _written(1),
}


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def derived(full, boundary, untraced, traced_wall, untraced_wall, seeds_per_op):
    """Every per-layer metric that is not a plain span field.

    `untraced` maps op label -> list of untraced op times; `seeds_per_op`
    is the number of seeds one catalog op runs.
    """
    c, b = full.counters, boundary.counters
    rounds = c["rounds"]
    out = {
        "engine.weighted_majority_per_unaudited_round": _ratio(
            full.calls["engine.weighted_majority"], rounds - c["audited_rounds"]),
        "engine.audited_frac": _ratio(c["audited_rounds"], rounds),
        "engine.tie_frac": _ratio(c["tie_rounds"], rounds),
        "cli.bytes_written": c["bytes_written"],
        "oracle.branches": c["branches"],
        "oracle.nonzero_cheater_set_ratio": _ratio(c["cheater_sets_nonzero"],
                                                   c["cheater_sets_total"]),
        "oracle.states_expanded": c["states_expanded"],
        "oracle.bound_errors": c["bound_errors"],
        "oracle.reach_gap": c["reach_gap"],
        "trace_overhead": _ratio(traced_wall, untraced_wall),
        "baseline.kernel_us_per_round_n9": 1e6 * _ratio(b["n9_sim_s"], b["n9_sim_rounds"]),
    }
    for n in (3, 6, 8, 10):
        out[f"baseline.enumerate_ms_n{n}"] = 1e3 * _ratio(b[f"enumerate_s.n{n}"],
                                                          b[f"enumerate_calls.n{n}"])
    for suite in ("property1", "property2", "lemma1", "transitions", "closed-sets"):
        times = untraced.get(suite)
        out[f"baseline.verify_{suite.replace('-', '_')}_s"] = (
            statistics.median(times) if times else 0.0)
    split = {"engine": ("engine.run_simulation",), "summarize": ("metrics.summarize",),
             "csv": ("cli.write_trace", "cli.write_summary", "model.SystemConfig.save")}
    op = next((i for i, s in enumerate(boundary.spans) if s[0] == "op:dynamic500-type2"),
              None)
    below = boundary.descendants(op) if op is not None else []
    for part, names in split.items():
        spent = sum(end - start for name, start, end, _ in below if name in names)
        out[f"baseline.dynamic500_type2_{part}_s_per_seed"] = spent / seeds_per_op
    return out


def per_layer(names, full, extra):
    """Metric values for `names`: `extra` first, else `<span>.calls|self_s|s`."""
    fields = {"calls": full.calls, "self_s": full.self_s, "s": full.total_s}
    out = {}
    for name in names:
        if name in extra:
            out[name] = extra[name]
        else:
            span, _, field = name.rpartition(".")
            out[name] = fields[field][span]
    return out
