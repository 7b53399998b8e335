#!/usr/bin/env python3
"""repsim benchmark.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 20 --trace 0

Run from the root of a repsim checkout; the package is imported from its
``src/``.  One process, one thread, a closed loop: the next operation starts
only after the last one returned.  Operations are repeated in passes over the
workload's inputs for about ``--seconds`` (at least one pass).

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
runs one untraced pass as reference, then one boundary-traced and one fully
traced pass, and reports the per-layer metrics.  Human-readable detail and the
machine context go to stderr; the last stdout line is the JSON result.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
SETUP_PROBES = 2


def load_repsim():
    sys.path.insert(0, str(SRC))
    import repsim
    import repsim.cli  # noqa: F401  (not imported by the package itself)
    if not Path(repsim.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"repsim imported from {repsim.__file__}, not {SRC}")
    return repsim


def nearest_rank(values, q):
    """The q-quantile as an observed value (nearest-rank definition)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_pass(workload, ops, tracer=None, check=True):
    """One closed-loop pass; returns {label: (seconds, digest)} and failures.

    Outputs are digested after every operation; their invariants are checked
    only when `check` is set, since a later pass must reproduce the digests.
    """
    results, failures = {}, []
    for op in ops:
        workload.prepare(op)
        try:
            t0 = time.perf_counter()
            if tracer is None:
                out = workload.run(op)
            else:
                with tracer.span(f"op:{op[0]}"):
                    out = workload.run(op)
            seconds = time.perf_counter() - t0
            digest = workload.digest(op, out)
            bad = workload.check(op, out) if check else []
        except Exception:
            seconds = time.perf_counter() - t0
            digest, bad = None, [traceback.format_exc()]
        results[op[0]] = (seconds, digest)
        if bad:
            failures.append(f"{op[0]}: " + "; ".join(bad))
        out = None
    return results, failures


def run_passes(workload, ops, seconds):
    """Untraced passes for about `seconds`, never fewer than one: another pass
    starts while at least half a pass's time is left."""
    passes, failures = [], []
    start = time.perf_counter()
    while True:
        results, bad = run_pass(workload, ops, check=not passes)
        passes.append(results)
        failures += bad
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / len(passes) > seconds:
            return passes, failures


def pass_wall(results):
    return sum(seconds for seconds, _ in results.values())


def mismatches(reference, results, what):
    return [f"{key}: {what} digest {results[key][1]} != {reference[key]}"
            for key in reference if results.get(key, (0, None))[1] != reference[key]]


def setup_probe(args) -> float:
    """Setup time of a fresh interpreter: import repsim, make the inputs."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", args.workload, "--seed", str(args.seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def context(repsim) -> dict:
    import numpy
    import scipy
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                                capture_output=True, text=True).stdout.strip() or None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "repsim": repsim.__version__, "commit": commit,
            "src_sha256": src.hexdigest()[:16], "machine": platform.machine()}


def end_to_end(workload, ops, passes, setups) -> dict:
    walls = [pass_wall(results) for results in passes]
    if workload.pass_is_op:
        op_s = walls
    else:
        # each operation's median over the passes, then percentiles across them
        op_s = [statistics.median(p[op[0]][0] for p in passes) for op in ops]
    wall = statistics.median(walls)
    report = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "op_ms_p50": 1e3 * nearest_rank(op_s, 0.50),
        "op_ms_p88": 1e3 * nearest_rank(op_s, 0.88),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    rounds = sum(workload.seed_rounds(op) for op in ops)
    info = {"passes": len(passes), "ops": len(ops), "pass_walls_s": walls,
            "setup_samples_s": setups}
    if rounds:
        info["seed_rounds_per_s"] = rounds / wall
    return report, info


def traced(repsim, workload, ops, passes, names, seed):
    """Boundary-traced and fully traced passes -> per-layer metrics."""
    import layers
    from tracer import Tracer

    failures = []
    reference = {key: digest for key, (_, digest) in passes[0].items()}
    with Tracer(keep_spans=True).install(repsim, layers.BOUNDARY, layers.HOOKS) as boundary:
        results, bad = run_pass(workload, ops, boundary, check=False)
    failures += bad + mismatches(reference, results, "boundary-traced")
    spans_dir = ROOT / ".perfbench"
    spans_dir.mkdir(exist_ok=True)
    boundary.write_chrome_trace(spans_dir / f"spans-{workload.name}-seed{seed}.json")
    with Tracer().install(repsim, None, layers.HOOKS) as full:
        results, bad = run_pass(workload, ops, full, check=False)
    failures += bad + mismatches(reference, results, "traced")
    untraced = {}
    for p in passes:
        for key, (seconds, _) in p.items():
            untraced.setdefault(key, []).append(seconds)
    extra = layers.derived(
        full, boundary, untraced, traced_wall=pass_wall(results),
        untraced_wall=statistics.median(pass_wall(p) for p in passes),
        seeds_per_op=getattr(workload, "seeds_per_preset", 1))
    return layers.per_layer(names, full, extra), failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only time the setup and print the seconds")
    parser.add_argument("--record", action="store_true",
                        help="store this seed's output digests in golden.json")
    args = parser.parse_args(argv)

    if not (SRC / "repsim" / "__init__.py").is_file():
        print(f"perfbench: no repsim sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    t0 = time.perf_counter()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench" / f"work-{os.getpid()}"
    repsim = load_repsim()
    workload = WORKLOADS[args.workload](repsim, workdir)
    ops = workload.inputs(args.seed)
    own_setup = time.perf_counter() - t0
    if args.setup_probe:
        print(repr(own_setup))
        return 0
    if not args.trace:
        setups = [own_setup] + [setup_probe(args) for _ in range(SETUP_PROBES)]

    workdir.mkdir(parents=True, exist_ok=True)
    try:
        # a traced run needs one untraced pass as its reference
        passes, failures = run_passes(workload, ops, 0 if args.trace else args.seconds)
        reference = {key: digest for key, (_, digest) in passes[0].items()}
        for results in passes[1:]:
            failures += mismatches(reference, results, "repeat-pass")
        golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
        recorded = golden.get(workload.name, {})
        recorded = recorded.get(str(args.seed), recorded.get("*"))
        if recorded is not None:
            failures += mismatches(recorded, passes[0], "golden")
        if args.trace:
            names = [m["name"] for m in spec["per_layer"]]
            metrics, bad = traced(repsim, workload, ops, passes, names, args.seed)
            failures += bad
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            info = {}
        else:
            metrics, info = end_to_end(workload, ops, passes, setups)
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.record and not failures:
        key = "*" if workload.name == "verify" else str(args.seed)
        golden.setdefault(workload.name, {})[key] = reference
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")

    attempted = len(ops) * (len(passes) + 2 * args.trace)
    for msg in failures:
        print(f"FAIL {msg}", file=sys.stderr)
    print(json.dumps({"workload": workload.name, "seed": args.seed, "trace": args.trace,
                      "context": context(repsim), **info}), file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name:55s} {value:14.6g} {units[name]}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures, "attempted": attempted,
        "failed": min(len(failures), attempted),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
