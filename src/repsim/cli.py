"""Command-line front end: run scenarios, verify claims, dump traces.

Subcommands:

* run            -- execute a scenario or config file, write CSV traces,
                    a per-round summary and a replayable manifest
* verify         -- machine-check the ordering properties, the closed-set
                    lemma instances and engine/enumerator agreement
* list-scenarios -- print the preset catalog

Trace and summary files are deterministic byte-for-byte for a fixed
manifest; they contain no timestamps or machine information.
"""
from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace
from itertools import chain
from pathlib import Path

import numpy as np

from . import oracle, reputation as rep, scenarios
from .model import SETTINGS, ConfigError, SystemConfig, located

FMT = "%.10g"


#: Text of a 0/1 field, indexed by the field.
_BIT_TEXT = np.array(["0", "1"], dtype=object)


def _texts(floats: np.ndarray) -> np.ndarray:
    """`FMT % x` of every element of the 2-d float array `floats`, as an object
    array of its shape.  Each distinct bit pattern is formatted once: keyed by
    bits, not by value, -0.0 (printed -0) stays apart from 0.0.  Only values
    whose bits differ from the value above them in their column are looked up;
    the others take the text above them."""
    bits = floats.T.view(np.uint64)
    new = np.ones(bits.shape, dtype=bool)
    np.not_equal(bits[:, 1:], bits[:, :-1], out=new[:, 1:])
    values, where = np.unique(bits[new], return_inverse=True)
    texts = np.array([FMT % x for x in values.view(float).tolist()], dtype=object)
    # a column's first value is always new, so the fill stays inside its column
    return texts[where[np.cumsum(new) - 1]].reshape(bits.shape).T


def _write_rows(path: Path, header: list, columns: list):
    """The header, then one line per row of the text columns side by side."""
    lines = map(",".join, np.column_stack(columns).tolist())
    path.write_text("\n".join(chain([",".join(header)], lines, [""])))


def write_trace(path: Path, seed: int, cols: dict):
    """One line per round of the trace's columns `cols` (`metrics.trace_columns`).
    Each distinct bit pattern among the file's floats is formatted once
    (`_texts`), so a p_a of -0.0 still prints -0."""
    rounds, n = cols["p_c"].shape
    header = (["seed", "round", "audited", "accepted_correct", "tie", "p_a",
               "reputation_ratio"]
              + [f"p_c_{i}" for i in range(n)]
              + [f"rho_{i}" for i in range(n)]
              + [f"cheated_{i}" for i in range(n)])
    flags = np.column_stack([cols["audited"], cols["correct"], cols["tie"]])
    floats = np.column_stack([cols["p_a"], cols["reputation_ratio"], cols["p_c"], cols["rho"]])
    _write_rows(path, header, [np.full(rounds, str(seed), dtype=object),
                               np.array(list(map(str, cols["round"].tolist())), dtype=object),
                               _BIT_TEXT[flags.astype(np.intp)], _texts(floats),
                               _BIT_TEXT[cols["cheated"].astype(np.intp)]])


def write_summary(path: Path, summary, n: int):
    """One line per round of the summary's columns; each distinct float of the
    file is formatted once (`_texts`)."""
    header = (["round", "p_a", "audit_rate", "correct_rate", "reputation_ratio"]
              + [f"p_c_{i}" for i in range(n)] + [f"rho_{i}" for i in range(n)])
    floats = np.column_stack([summary.p_a, summary.audit_rate, summary.correct_rate,
                              summary.reputation_ratio, summary.p_c.T, summary.rho.T])
    rounds = np.array(list(map(str, range(len(floats)))), dtype=object)
    _write_rows(path, header, [rounds, _texts(floats)])


#: Config key (of `model.SETTINGS`, or a worker's) -> the run flag setting it;
#: `build_parser` declares each flag once, typed by its key's `SETTINGS` entry.
FLAGS = {"horizon": "horizon", "p_a": "pa0", "p_a_min": "pamin", "tau": "tau",
         "alpha_m": "alpha", "alpha_w": "alpha", "wpc": "wpc", "wct": "wct",
         "wby": "wby", "aspiration": "aspiration"}


def _apply_overrides(config: SystemConfig, args) -> SystemConfig:
    """The config with the flags applied.  A ConfigError names the flag that
    set its key, or else the flag that set its bound (`model.located`)."""
    flags = {"seeds": "seeds", "scheme": "scheme", "epsilon": "epsilon", **FLAGS}
    given = {k: getattr(args, f) for k, f in flags.items() if getattr(args, f) is not None}
    where = {k: f"--{flags[k]}" for k in given}
    roster = {k: given.pop(k) for k in ("wby", "aspiration") if k in given}
    if roster:   # a worker's keys set every worker
        try:
            config = replace(config, workers=[replace(w, **roster) for w in config.workers])
        except ConfigError as exc:
            raise located(exc, where) from None
    return config.updated(given, where)


def cmd_run(args) -> int:
    if (args.scenario is None) == (args.config is None):
        print("run: give exactly one of --scenario or --config", file=sys.stderr)
        return 2
    try:
        if args.scenario is not None:
            config = scenarios.get_scenario(args.scenario)
            name = args.scenario
        else:
            config = SystemConfig.from_text(Path(args.config).read_text())
            name = Path(args.config).stem
        config = _apply_overrides(config, args)
        summary = scenarios.run_scenario(config)[0]
    except (OSError, ValueError) as exc:
        print(f"run: {exc}", file=sys.stderr)
        return 1
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        for seed, cols in summary.columns.items():
            write_trace(out / f"trace_seed{seed}.csv", seed, cols)
        write_summary(out / "summary.csv", summary, config.n)
        (out / "manifest.txt").write_text(config.to_text())
    except OSError as exc:
        print(f"run: {exc}", file=sys.stderr)
        return 1
    conv = [c for c in summary.convergence_rounds if c is not None]
    print(f"{name}: {len(summary.seeds)} seeds, horizon {config.horizon}, "
          f"converged {len(conv)}/{len(summary.seeds)}"
          + (f" (median round {sorted(conv)[len(conv) // 2]})" if conv else ""))
    print(f"wrote {out}/trace_seed<k>.csv, {out}/summary.csv, {out}/manifest.txt")
    return 0


def _verdict(line: str, good: bool) -> bool:
    print(f"{line} {'PASS' if good else 'FAIL'}")
    return good


def _verify_property1(args) -> bool:
    n = 9
    horizon = 500 if args.horizon is None else args.horizon
    ok = True
    for name in ("type1", "type2", "type3"):
        scheme = rep.scheme_from_name(name)
        holds = all(rep.check_property1(scheme, x, n - x, horizon) for x in range(1, n))
        print(f"property1 {name}: {'PASS' if holds else 'FAIL'} "
              f"(all splits of {n} workers)")
        ok &= holds
    return ok


def _verify_property2(args) -> bool:
    ok = True
    for name in ("type1", "type2", "type3"):
        scheme = rep.scheme_from_name(name)
        hit = rep.find_property2_counterexample(scheme, max_aud=args.max_aud,
                                                max_set_size=args.max_set_size)
        # type 2 preserves the ordering under a joint audit; types 1 and 3 do not
        good = (hit is None) == (name == "type2")
        if hit is None:
            ok &= _verdict(f"property2 {name}: no counterexample within bounds", good)
        else:
            ok &= _verdict(f"property2 {name}: counterexample at aud={hit.aud} "
                           f"X={hit.x_counts} Y={hit.y_counts} "
                           f"({hit.rho_x_before:.4g}>{hit.rho_y_before:.4g} then "
                           f"{hit.rho_x_after:.4g}<={hit.rho_y_after:.4g})", good)
    return ok


def _verify_lemma1(args) -> bool:
    closed = scenarios.trap_is_closed()
    reach = (scenarios.trap_reach_probability() if args.horizon is None
             else scenarios.trap_reach_probability(args.horizon))
    return _verdict(f"lemma1: all-cheat set closed={closed}, reach probability "
                    f"{'exact' if reach.lower == reach.upper else 'lower bound'} "
                    f"{reach.lower:.6g}", closed and reach.lower > 0.0)


def _verify_transitions(args) -> bool:
    config = scenarios.mixed_roster()
    try:
        report = oracle.compare_engine_distribution(config, config.initial_state(),
                                                    samples=args.samples,
                                                    significance=args.significance)
    except ValueError as exc:   # too few samples for a test: no verdict
        print(f"repsim verify: error: argument --samples: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
    return _verdict(f"transitions: chi2={report.statistic:.3f} p={report.p_value:.4g} "
                    f"over {report.bins} bins, {report.samples} samples", report.passed)


def _verify_closed_sets(args) -> bool:
    closed = scenarios.trap_is_closed()
    ok = _verdict(f"closed-sets: all-cheat untruthful set closed={closed}", closed)
    config, seed, predicate, project = scenarios.all_honest_set()
    closed = oracle.find_escape(config, [seed], predicate, project=project) is None
    ok &= _verdict(f"closed-sets: covered honest set (type 2) closed={closed}", closed)
    config, seed, predicate, project = scenarios.all_honest_set(covered=False)
    escape = oracle.find_escape(config, [seed], predicate, project=project)
    ok &= _verdict(f"closed-sets: uncovered honest set closed={escape is None}",
                   escape is not None)
    return ok


VERIFY_SUITES = {
    "property1": _verify_property1,
    "property2": _verify_property2,
    "lemma1": _verify_lemma1,
    "transitions": _verify_transitions,
    "closed-sets": _verify_closed_sets,
}


def cmd_verify(args) -> int:
    suites = VERIFY_SUITES if args.suite == "all" else {args.suite: VERIFY_SUITES[args.suite]}
    ok = True
    for name, fn in suites.items():
        try:
            ok &= fn(args)
        except oracle.OracleBoundError as exc:
            print(f"{name}: resource bound exceeded: {exc}", file=sys.stderr)
            ok = False
    return 0 if ok else 1


def cmd_list_scenarios(args) -> int:
    print("\n".join(scenarios.list_scenarios()))
    return 0


def _checked(cast, accept, expected: str):
    """An argparse type: `cast(text)` if `accept` takes it, else a one-line error."""
    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value
    return parse


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `repsim` parser, built once per process: `parse_args` leaves it as it is."""
    parser = argparse.ArgumentParser(
        prog="repsim",
        description="Reputation-based master-worker computing simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario or config file")
    run.add_argument("--scenario")
    run.add_argument("--config")
    run.add_argument("--seeds", help="space/comma separated seed list")
    run.add_argument("--scheme", choices=rep.SCHEME_NAMES)
    run.add_argument("--epsilon", type=float)
    for flag in dict.fromkeys(FLAGS.values()):
        keys = [k for k, f in FLAGS.items() if f == flag]
        kind = SETTINGS[keys[0]][1] if keys[0] in SETTINGS else float
        run.add_argument(f"--{flag}", type=kind, help="sets " + " and ".join(keys))
    run.add_argument("--out", default="out")

    verify = sub.add_parser("verify", help="check properties and lemma instances")
    verify.add_argument("suite", choices=sorted(VERIFY_SUITES) + ["all"])
    positive = _checked(int, lambda x: x > 0, "a positive integer")
    verify.add_argument("--max-aud", type=positive, default=10)
    verify.add_argument("--max-set-size", type=positive, default=3)
    verify.add_argument("--horizon", type=positive)
    verify.add_argument("--samples", type=positive, default=100_000)
    verify.add_argument("--significance", default=0.01, type=_checked(
        float, lambda x: 0.0 < x < 1.0, "a number strictly between 0 and 1"))

    sub.add_parser("list-scenarios", help="print the preset catalog")
    return parser


def main(argv=None) -> int:
    """Parse `argv` and run its command, looked up by name at call time: the
    cached parser holds no command function, so a replaced `cmd_run` runs."""
    args = build_parser().parse_args(argv)
    return globals()["cmd_" + args.command.replace("-", "_")](args)


if __name__ == "__main__":
    sys.exit(main())
