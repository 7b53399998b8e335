"""Named experiment presets and the scenario runner.

The catalog packages the simulation grid: rational-only rosters, malicious
against rational mixes, altruistic against malicious mixes, partial-coverage
variants and the round-500 dynamic role change.  Scenario names of the
presets follow `<roster>-<scheme>[-knobs]`; `list_scenarios()` enumerates
them all.
"""
from __future__ import annotations

from dataclasses import replace

from . import metrics, oracle, reputation as rep
from .engine import run_simulation
from .model import ConfigError, ExactState, RoleChange, SystemConfig, WorkerSpec, WorkerType

#: Initial cheat probability used by the partial-coverage presets: the
#: exponential scheme is exercised from the worst case, the others from 0.5.
_COVERAGE_PC0 = {"type1": 0.5, "type2": 1.0, "type3": 0.5, "none": 0.5}

UNCOVERED_WBY = 0.1


def _workers(entries):
    out = []
    for wtype, count, p_c0, wby in entries:
        out += [WorkerSpec(wtype=wtype, p_c0=p_c0, wby=wby) for _ in range(count)]
    return out


def _config(scheme_name, workers, **overrides):
    return SystemConfig(scheme=rep.scheme_from_name(scheme_name),
                        workers=workers, **overrides)


def _build_catalog():
    cat = {}
    rat, mal, alt = WorkerType.RATIONAL, WorkerType.MALICIOUS, WorkerType.ALTRUISTIC

    for scheme in rep.SCHEME_NAMES:
        for p_c0, tag in ((0.5, "pc05"), (1.0, "pc1")):
            cat[f"rational9-{scheme}-{tag}"] = _config(
                scheme, _workers([(rat, 9, p_c0, 1.0)]))

        for n_mal, n_rat in ((4, 5), (5, 4), (8, 1)):
            cat[f"mal{n_mal}-rat{n_rat}-{scheme}"] = _config(
                scheme, _workers([(mal, n_mal, 1.0, 1.0), (rat, n_rat, 1.0, 1.0)]))

        for n_alt, n_mal in ((5, 4), (4, 5), (1, 8)):
            cat[f"alt{n_alt}-mal{n_mal}-{scheme}"] = _config(
                scheme, _workers([(alt, n_alt, 0.0, 1.0), (mal, n_mal, 1.0, 1.0)]))

        p_c0 = _COVERAGE_PC0[scheme]
        for tau in (0.1, 0.5):
            for wpc in (0.0, 1.0):
                knobs = f"tau{tau:g}" + ("" if wpc == 0.0 else "-wpc1")
                cat[f"cov1of9-{scheme}-{knobs}"] = _config(
                    scheme, _workers([(rat, 1, p_c0, 1.0),
                                      (rat, 8, p_c0, UNCOVERED_WBY)]),
                    tau=tau, wpc=wpc)
                cat[f"cov5of9-{scheme}-{knobs}"] = _config(
                    scheme, _workers([(rat, 5, p_c0, 1.0),
                                      (rat, 4, p_c0, UNCOVERED_WBY)]),
                    tau=tau, wpc=wpc)
                cat[f"mal4rat5cov1-{scheme}-{knobs}"] = _config(
                    scheme, _workers([(mal, 4, 1.0, 1.0),
                                      (rat, 1, p_c0, 1.0),
                                      (rat, 4, p_c0, UNCOVERED_WBY)]),
                    tau=tau, wpc=wpc)

        cat[f"dynamic500-{scheme}"] = _config(
            scheme, _workers([(rat, 9, 1.0, 1.0)]), horizon=2000,
            role_changes=[RoleChange(round=500, worker=i, new_type=mal)
                          for i in range(5)])
    return cat


_CATALOG = _build_catalog()


def list_scenarios() -> list:
    return sorted(_CATALOG)


def get_scenario(name: str) -> SystemConfig:
    """Fresh config for a named preset (τ may stand for tau); unknown names
    list the alternatives."""
    key = name.strip().replace("τ", "tau")
    if key not in _CATALOG:
        raise ConfigError(f"unknown scenario {name!r}; known scenarios:\n  "
                          + "\n  ".join(list_scenarios()), "scenario")
    cfg = _CATALOG[key]
    return replace(cfg, workers=list(cfg.workers),
                   role_changes=list(cfg.role_changes))


def run_scenario(name_or_config):
    """Run every seed and aggregate. Returns (ScenarioSummary, traces dict)."""
    config = (name_or_config if isinstance(name_or_config, SystemConfig)
              else get_scenario(name_or_config))
    config.validate()
    traces = {seed: run_simulation(config, seed) for seed in config.seeds}
    return metrics.summarize(config, traces), traces


# -- the claims `repsim verify`, demo 05 and the acceptance tests check -------

def all_cheat_trap():
    """The all-cheat trap without an audit floor: (config, trap, predicate).

    Three rational workers under type 2 with p_a and its floor at 0: once
    every worker cheats with certainty, no audit ever happens again, so the
    set `predicate` describes is closed, and it is reachable from the
    config's p_c = 0.5 start.
    """
    config = SystemConfig(workers=[WorkerSpec(p_c0=0.5) for _ in range(3)],
                          scheme=rep.Type2(), p_a0=0.0, p_a_min=0.0).validate()
    trap = ExactState(p_a=0.0, aud=0, p_c=(1.0,) * 3, v=(0,) * 3, beta=(0.0,) * 3)
    return config, trap, lambda s: s.p_a == 0.0 and all(p == 1.0 for p in s.p_c)


def trap_is_closed() -> bool:
    """Whether no transition leaves the all-cheat trap."""
    config, trap, trapped = all_cheat_trap()
    return oracle.find_escape(config, [trap], trapped) is None


def trap_reach_probability(horizon: int = 200) -> oracle.Reach:
    """The `oracle.Reach` of the trap from its config's start within `horizon`
    rounds, on a 5,000-state budget.  Exact for the chain on the
    `GRID_DECIMALS` (12-decimal) grid, which counts a p_c one or two ulps
    below 1 as trapped a round before `repsim run` does."""
    config, _, trapped = all_cheat_trap()
    return oracle.reach_probability(config, config.initial_state(), trapped,
                                    horizon, max_states=5000)


def all_honest_set(covered: bool = True):
    """Three type 2 workers that stopped cheating: (config, seed, predicate,
    project).  The seed follows one all-truthful audit; type 2 sees only
    aud - v, so `project` keeps that.  The set is closed for covered workers
    and has an escape for uncovered ones (wby `UNCOVERED_WBY`)."""
    wby = 1.0 if covered else UNCOVERED_WBY
    config = _config("type2", _workers([(WorkerType.RATIONAL, 3, 1.0, wby)])).validate()
    seed = ExactState(p_a=0.5, aud=1, p_c=(0.0,) * 3, v=(1,) * 3, beta=(0.0,) * 3)
    return (config, seed, lambda s: all(p == 0.0 for p in s.p_c),
            lambda s: (s.p_a, s.p_c, tuple(s.aud - v for v in s.v)))


def mixed_roster() -> SystemConfig:
    """Three rational type 2 workers at p_c 0.3, 0.5 and 0.8: the roster whose
    one-round distribution the engine's sampler is tested against."""
    return _config("type2", [WorkerSpec(p_c0=p) for p in (0.3, 0.5, 0.8)]).validate()
