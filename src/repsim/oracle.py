"""Exact enumeration of the round-to-round Markov chain on small rosters.

States are canonicalized to a fixed 12-decimal grid so that successor states
produced along different paths merge.  Successors are computed through the
same `round_successor` kernel the stochastic engine uses; the oracle only
adds exact branch probabilities (cheater subsets x audit outcome, with ties
split into two half-weighted branches).
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace
from typing import Callable, Optional

from scipy import stats

from . import engine
from .model import ExactState, SystemConfig

PROB_TOL = 1e-12
DEFAULT_MAX_WORKERS = 10


class OracleBoundError(RuntimeError):
    """Enumeration exceeded its configured budget."""

    def __init__(self, message, lower_bound=None):
        super().__init__(message)
        self.lower_bound = lower_bound


@dataclass
class TransitionDistribution:
    state: ExactState
    successors: list   # of (probability, Branch, ExactState)

    def total(self) -> float:
        return sum(p for p, _, _ in self.successors)


def state_from_config(config: SystemConfig) -> ExactState:
    return config.initial_state().canonical()


def cheater_set_probabilities(state: ExactState):
    """(subset, probability) for every cheater set with non-zero mass."""
    n = len(state.p_c)
    out = []
    for bits in itertools.product((False, True), repeat=n):
        prob = 1.0
        for i, cheats in enumerate(bits):
            prob *= state.p_c[i] if cheats else 1.0 - state.p_c[i]
            if prob == 0.0:
                break
        if prob > 0.0:
            out.append((frozenset(i for i, c in enumerate(bits) if c), prob))
    return out


def enumerate_transitions(config: SystemConfig, state: ExactState,
                          max_workers: int = DEFAULT_MAX_WORKERS) -> TransitionDistribution:
    """Exact one-step distribution from `state`.

    Ties in the unaudited weighted majority split into two half-probability
    branches instead of consuming randomness.  Raises RuntimeError when the
    branch masses miss 1 by more than PROB_TOL.
    """
    n = len(config.workers)
    if n > max_workers:
        raise OracleBoundError(f"roster of {n} exceeds the enumeration "
                               f"bound of {max_workers} workers")
    state = state.canonical()
    successors = []

    def step(cheaters, audited, honest_wins=True):
        succ, branch, _ = engine.round_successor(config, state, cheaters, audited,
                                                 lambda: honest_wins)
        return branch, succ.canonical()

    for cheaters, p_f in cheater_set_probabilities(state):
        if state.p_a > 0.0:
            successors.append((state.p_a * p_f, *step(cheaters, True)))
        p_no_audit = (1.0 - state.p_a) * p_f
        if p_no_audit > 0.0:
            branch, succ = step(cheaters, False)
            if branch.tie_outcome is None:
                successors.append((p_no_audit, branch, succ))
            else:
                successors.append((0.5 * p_no_audit, branch, succ))
                successors.append((0.5 * p_no_audit,
                                   *step(cheaters, False, honest_wins=False)))

    dist = TransitionDistribution(state=state, successors=successors)
    total = dist.total()
    if abs(total - 1.0) > PROB_TOL:
        raise RuntimeError(f"successor mass {total!r} is not 1 within {PROB_TOL}")
    return dist


def reach_probability(config: SystemConfig, start: ExactState,
                      predicate: Callable[[ExactState], bool], horizon: int,
                      max_states: int = 200_000) -> float:
    """Exact probability that `predicate` holds at or before `horizon`.

    Breadth-first expansion with state merging; predicate states absorb.
    If the frontier outgrows `max_states`, raises OracleBoundError carrying
    the probability mass already absorbed (a valid lower bound).
    """
    start = start.canonical()
    if predicate(start):
        return 1.0
    frontier = {start: 1.0}
    absorbed = 0.0
    cache = {}
    for _ in range(horizon):
        nxt: dict = {}
        for state, mass in frontier.items():
            dist = cache.get(state)
            if dist is None:
                dist = cache[state] = enumerate_transitions(config, state)
            for prob, _, succ in dist.successors:
                if predicate(succ):
                    absorbed += mass * prob
                else:
                    nxt[succ] = nxt.get(succ, 0.0) + mass * prob
        frontier = nxt
        if len(frontier) > max_states:
            raise OracleBoundError(
                f"state budget of {max_states} exceeded "
                f"(lower bound so far: {absorbed:.6g})", lower_bound=absorbed)
        if not frontier:
            break
    return absorbed


def find_escape(config: SystemConfig, seeds, predicate,
                max_states: int = 100_000, project=None):
    """First transition leaving the predicate set, or None if it is closed.

    Explores the set reachable from `seeds` while the predicate holds.
    `project` optionally maps states to a smaller invariant signature for
    merging (e.g. dropping absolute audit counts for schemes that only see
    count differences).
    """
    key_of = project if project is not None else (lambda s: s)
    frontier = [s.canonical() for s in seeds]
    seen = {key_of(s) for s in frontier}
    while frontier:
        state = frontier.pop()
        if not predicate(state):
            raise ValueError("seed/reached state outside the candidate set")
        for _, branch, succ in enumerate_transitions(config, state).successors:
            if not predicate(succ):
                return state, branch, succ
            key = key_of(succ)
            if key not in seen:
                seen.add(key)
                if len(seen) > max_states:
                    raise OracleBoundError(
                        f"state budget of {max_states} exceeded")
                frontier.append(succ)
    return None


def check_closed(config: SystemConfig, seeds, predicate,
                 max_states: int = 100_000, project=None) -> bool:
    """True iff no enumerated in-set state has a successor outside the set."""
    return find_escape(config, seeds, predicate, max_states, project) is None


def sample_round_keys(config: SystemConfig, state: ExactState, samples: int,
                      seed: int = 0, p_a_scale: float = 1.0) -> dict:
    """Engine one-round outcomes from `state`, counted by Branch.

    `p_a_scale` deliberately mis-scales the audit probability; anything but
    1.0 yields a corrupted sampler for mutation testing.
    """
    state = state.canonical()
    state = replace(state, p_a=min(1.0, state.p_a * p_a_scale))
    rng = random.Random(seed)
    counts: dict = {}
    for _ in range(samples):
        _, branch, _ = engine.run_round(config, state, rng)
        counts[branch] = counts.get(branch, 0) + 1
    return counts


@dataclass
class FitReport:
    statistic: float
    p_value: float
    passed: bool
    samples: int
    bins: int


def compare_engine_distribution(config: SystemConfig, state: ExactState,
                                samples: int = 100_000,
                                significance: float = 0.01, seed: int = 0,
                                counts: Optional[dict] = None) -> FitReport:
    """Chi-square goodness of fit of engine sampling vs. exact enumeration.

    Bins are the branches (cheater set, audited, tie outcome).  Bins with
    expected count below 5 are pooled before the test.  Pass `counts` to
    test a pre-binned (possibly corrupted) sample instead of the engine's.
    """
    state = state.canonical()
    expected_probs: dict = {}
    for prob, branch, _ in enumerate_transitions(config, state).successors:
        expected_probs[branch] = expected_probs.get(branch, 0.0) + prob
    if counts is None:
        counts = sample_round_keys(config, state, samples, seed=seed)
    total = sum(counts.values())

    unexpected = set(counts) - set(expected_probs)
    if unexpected:
        # impossible outcomes observed: certain failure
        return FitReport(statistic=float("inf"), p_value=0.0, passed=False,
                         samples=total, bins=len(expected_probs))

    observed, expected, pool_obs, pool_exp = [], [], 0.0, 0.0
    for key, prob in expected_probs.items():
        exp = prob * total
        obs = counts.get(key, 0)
        if exp < 5.0:
            pool_obs += obs
            pool_exp += exp
        else:
            observed.append(obs)
            expected.append(exp)
    if pool_exp > 0.0:
        observed.append(pool_obs)
        expected.append(pool_exp)
    statistic, p_value = stats.chisquare(observed, expected)
    return FitReport(statistic=float(statistic), p_value=float(p_value),
                     passed=bool(p_value >= significance), samples=total,
                     bins=len(observed))
