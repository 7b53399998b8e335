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
import sys
from dataclasses import asdict, replace
from pathlib import Path

from . import metrics, oracle, reputation as rep, scenarios
from .model import ExactState, SystemConfig, parse_seeds

FMT = "%.10g"


def _f(x: float) -> str:
    return FMT % x


def write_trace(path: Path, seed: int, trace, n: int):
    header = (["seed", "round", "audited", "accepted_correct", "tie", "p_a",
               "reputation_ratio"]
              + [f"p_c_{i}" for i in range(n)]
              + [f"rho_{i}" for i in range(n)]
              + [f"cheated_{i}" for i in range(n)])
    lines = [",".join(header)]
    for o in trace:
        row = [str(seed), str(o.round), str(int(o.audited)),
               str(int(o.accepted_correct)), str(int(o.tie_broken)),
               _f(o.p_a_after), _f(metrics.reputation_ratio(o))]
        row += [_f(p) for p in o.p_c_after]
        row += [_f(r) for r in o.reputations_after]
        row += [str(int(i in o.cheater_set)) for i in range(n)]
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n")


def write_summary(path: Path, summary, n: int):
    header = (["round", "p_a", "audit_rate", "correct_rate", "reputation_ratio"]
              + [f"p_c_{i}" for i in range(n)] + [f"rho_{i}" for i in range(n)])
    lines = [",".join(header)]
    for r in range(len(summary.p_a)):
        row = [str(r), _f(summary.p_a[r]), _f(summary.audit_rate[r]),
               _f(summary.correct_rate[r]), _f(summary.reputation_ratio[r])]
        row += [_f(summary.p_c[i, r]) for i in range(n)]
        row += [_f(summary.rho[i, r]) for i in range(n)]
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n")


def _apply_overrides(config: SystemConfig, args) -> SystemConfig:
    if args.seeds is not None:
        config.seeds = parse_seeds(args.seeds, "--seeds")
    if args.horizon is not None:
        config.horizon = args.horizon
    if args.scheme is not None or args.epsilon is not None:
        name = args.scheme or config.scheme.name
        # a scheme named again keeps its parameters; --epsilon overrides
        params = asdict(config.scheme) if name == config.scheme.name else {}
        if args.epsilon is not None:
            params["epsilon"] = args.epsilon
        config.scheme = rep.scheme_from_name(name, **params)
    for attr, val in (("tau", args.tau), ("wpc", args.wpc), ("wct", args.wct),
                      ("p_a0", args.pa0), ("p_a_min", args.pamin)):
        if val is not None:
            setattr(config, attr, val)
    if args.alpha is not None:
        config.alpha_m = config.alpha_w = args.alpha
    if args.wby is not None:
        config.workers = [replace(w, wby=args.wby) for w in config.workers]
    if args.aspiration is not None:
        config.workers = [replace(w, aspiration=args.aspiration)
                          for w in config.workers]
    return config.validate()


def cmd_run(args) -> int:
    if (args.scenario is None) == (args.config is None):
        print("run: give exactly one of --scenario or --config", file=sys.stderr)
        return 2
    try:
        if args.scenario is not None:
            config = scenarios.get_scenario(args.scenario)
            name = args.scenario
        else:
            config = SystemConfig.from_file(args.config)
            name = Path(args.config).stem
        config = _apply_overrides(config, args)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        summary, traces = scenarios.run_scenario(config)
    except (OSError, ValueError, KeyError) as exc:
        print(f"run: {exc}", file=sys.stderr)
        return 1
    n = config.n
    for seed, trace in traces.items():
        write_trace(out / f"trace_seed{seed}.csv", seed, trace, n)
    summary = replace(summary, name=name)
    write_summary(out / "summary.csv", summary, n)
    config.save(out / "manifest.txt")
    conv = [c for c in summary.convergence_rounds if c is not None]
    print(f"{name}: {len(traces)} seeds, horizon {config.horizon}, "
          f"converged {len(conv)}/{len(traces)}"
          + (f" (median round {sorted(conv)[len(conv) // 2]})" if conv else ""))
    print(f"wrote {out}/trace_seed<k>.csv, {out}/summary.csv, {out}/manifest.txt")
    return 0


def _verify_property1(args) -> bool:
    n = 9
    ok = True
    for name in ("type1", "type2", "type3"):
        scheme = rep.scheme_from_name(name)
        holds = all(rep.check_property1(scheme, x, n - x, horizon=args.horizon or 500)
                    for x in range(1, n))
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
        expect_counterexample = name != "type2"
        good = (hit is not None) == expect_counterexample
        if hit is None:
            print(f"property2 {name}: no counterexample within bounds "
                  f"{'PASS' if good else 'FAIL'}")
        else:
            print(f"property2 {name}: counterexample at aud={hit.aud} "
                  f"X={hit.x_counts} Y={hit.y_counts} "
                  f"({hit.rho_x_before:.4g}>{hit.rho_y_before:.4g} then "
                  f"{hit.rho_x_after:.4g}<={hit.rho_y_after:.4g}) "
                  f"{'PASS' if good else 'FAIL'}")
        ok &= good
    return ok


def _verify_lemma1(args) -> bool:
    config, trap, trapped = scenarios.all_cheat_trap()
    closed = oracle.check_closed(config, [trap], trapped)
    try:
        prob = oracle.reach_probability(config, oracle.state_from_config(config),
                                        trapped, horizon=args.horizon or 200,
                                        max_states=5000)
        note = "exact"
    except oracle.OracleBoundError as exc:
        prob, note = exc.lower_bound, "lower bound"
    good = closed and prob > 0.0
    print(f"lemma1: all-cheat set closed={closed}, "
          f"reach probability {note} {prob:.6g} {'PASS' if good else 'FAIL'}")
    return good


def _mixed_state() -> tuple:
    cfg = scenarios.get_scenario("rational9-type2-pc1")
    cfg.workers = [replace(w, p_c0=p) for w, p in zip(cfg.workers[:3], (0.3, 0.5, 0.8))]
    cfg.validate()
    return cfg, oracle.state_from_config(cfg)


def _verify_transitions(args) -> bool:
    config, state = _mixed_state()
    report = oracle.compare_engine_distribution(config, state,
                                                samples=args.samples,
                                                significance=args.significance)
    print(f"transitions: chi2={report.statistic:.3f} p={report.p_value:.4g} "
          f"over {report.bins} bins, {report.samples} samples "
          f"{'PASS' if report.passed else 'FAIL'}")
    return report.passed


def _verify_closed_sets(args) -> bool:
    ok = True

    config, trap, trapped = scenarios.all_cheat_trap()
    closed = oracle.check_closed(config, [trap], trapped)
    print(f"closed-sets: all-cheat untruthful set closed={closed} "
          f"{'PASS' if closed else 'FAIL'}")
    ok &= closed

    covered = scenarios.get_scenario("rational9-type2-pc1")
    covered.workers = covered.workers[:3]
    covered.validate()
    honest = ExactState(p_a=0.5, aud=1, p_c=(0.0, 0.0, 0.0),
                        v=(1, 1, 1), beta=(0.0, 0.0, 0.0))
    closed = oracle.check_closed(
        covered, [honest], lambda s: all(p == 0.0 for p in s.p_c),
        project=lambda s: (s.p_a, s.p_c, tuple(s.aud - v for v in s.v)))
    print(f"closed-sets: covered honest set (type 2) closed={closed} "
          f"{'PASS' if closed else 'FAIL'}")
    ok &= closed

    uncovered = scenarios.get_scenario("rational9-type2-pc1")
    uncovered.workers = [replace(w, wby=0.1) for w in uncovered.workers[:3]]
    uncovered.validate()
    escape = oracle.find_escape(
        uncovered, [honest], lambda s: all(p == 0.0 for p in s.p_c),
        project=lambda s: (s.p_a, s.p_c, tuple(s.aud - v for v in s.v)))
    good = escape is not None
    print(f"closed-sets: uncovered honest set closed={escape is None} "
          f"{'PASS' if good else 'FAIL'}")
    ok &= good
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repsim",
        description="Reputation-based master-worker computing simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario or config file")
    run.add_argument("--scenario")
    run.add_argument("--config")
    run.add_argument("--seeds", help="space/comma separated seed list")
    run.add_argument("--horizon", type=int)
    run.add_argument("--scheme", choices=rep.SCHEME_NAMES)
    run.add_argument("--epsilon", type=float)
    run.add_argument("--tau", type=float)
    run.add_argument("--wpc", type=float)
    run.add_argument("--wby", type=float)
    run.add_argument("--wct", type=float)
    run.add_argument("--alpha", type=float, help="sets both learning rates")
    run.add_argument("--aspiration", type=float)
    run.add_argument("--pa0", type=float)
    run.add_argument("--pamin", type=float)
    run.add_argument("--out", default="out")
    run.set_defaults(fn=cmd_run)

    verify = sub.add_parser("verify", help="check properties and lemma instances")
    verify.add_argument("suite", choices=sorted(VERIFY_SUITES) + ["all"])
    verify.add_argument("--max-aud", type=int, default=10)
    verify.add_argument("--max-set-size", type=int, default=3)
    verify.add_argument("--horizon", type=int)
    verify.add_argument("--samples", type=int, default=100_000)
    verify.add_argument("--significance", type=float, default=0.01)
    verify.set_defaults(fn=cmd_verify)

    ls = sub.add_parser("list-scenarios", help="print the preset catalog")
    ls.set_defaults(fn=lambda args: (print("\n".join(scenarios.list_scenarios())), 0)[1])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
