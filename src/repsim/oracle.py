"""Exact enumeration of the round-to-round Markov chain on small rosters.

States are canonicalized to a fixed 12-decimal grid so that successor states
produced along different paths merge; the probabilities are exact for that
grid chain.  `enumerate_transitions` tabulates each worker's (honest,
cheated) cells from the engine's own rules and reads every cheater
set's successors off one row of their `itertools.product`, with exact
branch probabilities (cheater subsets x audit outcome, ties split into two
half-weighted branches).  `sample_round_keys` draws the same branches the
way `engine.run_simulation` does, for the chi-square comparison.
"""
from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable

from . import engine, reputation as rep
from .model import GRID_DECIMALS, ConfigError, ExactState, SystemConfig

PROB_TOL = 1e-12
MAX_WORKERS = 10
#: States `find_escape` explores before it gives up.
MAX_STATES = 100_000


class OracleBoundError(RuntimeError):
    """A query outgrew a hard bound: `MAX_WORKERS` workers, or `find_escape`'s
    `MAX_STATES` states.  A reach query's budget is not one: it answers."""


@dataclass(frozen=True)
class Reach:
    """A reach query's answer: the probability lies in [lower, upper], exact
    when lower == upper.  `hits[r]` is the mass first absorbed at round r (0:
    the start state), so len(hits) - 1 rounds were expanded and sum(hits) is
    `lower` up to rounding.  `states` counts the distinct states enumerated."""

    lower: float
    upper: float
    hits: tuple
    states: int


@dataclass(frozen=True)
class Branch:
    """One stochastic outcome of a round: who cheated, audit and tie result."""

    cheaters: frozenset
    audited: bool
    tie_outcome: bool | None = None   # honest camp won the coin flip


@dataclass
class TransitionDistribution:
    state: ExactState
    successors: list   # of (probability, Branch, ExactState)

    def total(self) -> float:
        return sum(p for p, _, _ in self.successors)


@functools.lru_cache(maxsize=8)
def _cheater_sets(n: int) -> tuple:
    """All 2^n cheater sets of an n-roster, in `itertools.product` order."""
    return tuple(frozenset(itertools.compress(range(n), bits))
                 for bits in itertools.product((False, True), repeat=n))


def cheater_set_probabilities(state: ExactState):
    """(subset, probability) for every cheater set with non-zero mass.

    Sets come in `itertools.product` order; each probability is a product
    over the workers taken in index order.
    """
    probs = map(functools.partial(math.prod, start=1.0),
                itertools.product(*[(1.0 - p, p) for p in state.p_c]))
    return [(s, p) for s, p in zip(_cheater_sets(len(state.p_c)), probs) if p > 0.0]


def enumerate_transitions(config: SystemConfig, state: ExactState) -> TransitionDistribution:
    """Exact one-step distribution from `state`.

    Ties in the unaudited weighted majority split into two half-probability
    branches.  Raises OracleBoundError past MAX_WORKERS workers, ConfigError
    on role changes (the chain has none), RuntimeError if the masses miss 1
    by over PROB_TOL.  Exact for the chain on the `GRID_DECIMALS` (12-decimal)
    grid, not for the float chain `repsim run` steps: a p_c one or two ulps
    below 1 counts as trapped here one round earlier.

    Each worker's (honest, cheated) cells, tabulated once per state from the
    engine's roster-wide rules, hold its part of every column: camp
    reputations (through `engine.reread_underflow`), p_c after either camp
    won and, if p_a > 0, post-audit reputations, p_c, v and beta.  The p_c
    columns are two `engine.worker_update` calls per branch, one with every
    worker's honest step of the `engine.settle` table and one with its
    cheated step.  A cheater set's row is one of the cells'
    `itertools.product`; its columns are summed into camp weights in worker
    order, as the engine adds, or kept as the successor's tuples.  Where
    every post-audit reputation reads 0.0, p_a comes from `engine._audit`,
    which re-reads them.
    """
    n = len(config.workers)
    if n > MAX_WORKERS:
        raise OracleBoundError(f"roster of {n} exceeds the enumeration "
                               f"bound of {MAX_WORKERS} workers")
    if config.role_changes:
        raise ConfigError("the oracle's chain has no role changes", "role_change")
    state = state.canonical()
    scheme, p_a, aud = config.scheme, state.p_a, state.aud + 1
    masses = dict(cheater_set_probabilities(state))
    rho = engine.reread_underflow(scheme, state.v, state.beta,
                                  rep.values(scheme, state.v, state.aud, state.beta))
    p_c_next = {}   # per branch, one (honest, cheated) pair of canonical p_c per worker
    for branch, (_, steps) in engine.settle(config).items():
        honest, cheated = (engine.worker_update(state.p_c, column) for column in zip(*steps))
        p_c_next[branch] = [(round(h, GRID_DECIMALS), round(c, GRID_DECIMALS))
                            for h, c in zip(honest, cheated)]
    # per column, one (honest, cheated) pair per worker
    columns = [[(r, 0.0) for r in rho], [(0.0, r) for r in rho],
               p_c_next[False, True], p_c_next[False, False]]
    audited = p_a > 0.0
    if audited:
        # an audit update reads only the worker's own counts, so one audit
        # that catches no one and one that catches everyone give every cell
        truthful, caught = (rep.audit_updates(scheme, state.v, state.beta, cheaters)
                            for cheaters in ((), range(n)))
        rho_audited = list(zip(*(rep.values(scheme, v, aud, beta)
                                 for v, beta in (truthful, caught))))
        columns += [[(0.0, c) for _, c in rho_audited], rho_audited,
                    p_c_next[True, True], list(zip(truthful[0], caught[0])),
                    [(round(h, GRID_DECIMALS), round(c, GRID_DECIMALS))
                     for h, c in zip(truthful[1], caught[1])]]
    cells = [tuple(zip(*pairs)) for pairs in zip(*columns)]

    def unaudited(p_c):
        return ExactState(p_a, state.aud, p_c, state.v, state.beta)

    successors = []
    for cheaters, row in zip(_cheater_sets(n), itertools.product(*cells)):
        p_f = masses.get(cheaters)
        if p_f is None:
            continue
        if audited:
            (rho_honest, rho_cheat, p_c_honest, p_c_cheat,
             rho_cheat_audited, rho_total, p_c, v, beta) = zip(*row)
            rho_total = sum(rho_total)
            if rho_total == 0.0:
                p_a_next = engine._audit(config, p_a, state.aud, state.v, state.beta,
                                         cheaters, sorted(cheaters))[0]
            else:
                p_a_next = engine.master_update(config, p_a, sum(rho_cheat_audited), rho_total)
            successors.append((p_a * p_f, Branch(cheaters, True),
                               ExactState(round(p_a_next, GRID_DECIMALS), aud, p_c, v, beta)))
        else:
            rho_honest, rho_cheat, p_c_honest, p_c_cheat = zip(*row)
        p_no_audit = (1.0 - p_a) * p_f
        if p_no_audit <= 0.0:
            continue
        rho_honest, rho_cheat = sum(rho_honest), sum(rho_cheat)
        if rho_honest == rho_cheat:
            successors.append((0.5 * p_no_audit, Branch(cheaters, False, True),
                               unaudited(p_c_honest)))
            successors.append((0.5 * p_no_audit, Branch(cheaters, False, False),
                               unaudited(p_c_cheat)))
        else:
            p_c = p_c_honest if rho_honest > rho_cheat else p_c_cheat
            successors.append((p_no_audit, Branch(cheaters, False), unaudited(p_c)))

    dist = TransitionDistribution(state=state, successors=successors)
    total = dist.total()
    if abs(total - 1.0) > PROB_TOL:
        raise RuntimeError(f"successor mass {total!r} is not 1 within {PROB_TOL}")
    return dist


def reach_probability(config: SystemConfig, start: ExactState,
                      predicate: Callable[[ExactState], bool], horizon: int,
                      max_states: int = 200_000) -> Reach:
    """The `Reach` of `predicate` at or before `horizon`, for the chain on the
    `GRID_DECIMALS` grid (see `enumerate_transitions`).

    Breadth-first expansion with state merging; predicate states absorb.
    The answer is exact (lower == upper) when the horizon ends or the
    frontier empties.  If the frontier outgrows `max_states`, the query stops
    there: `lower` is the mass absorbed, `upper` that plus the frontier's.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    start = start.canonical()
    if predicate(start):
        return Reach(1.0, 1.0, (1.0,), 0)
    frontier, absorbed, hits, cache = {start: 1.0}, 0.0, [0.0], {}
    for _ in range(horizon):
        hits.append(0.0)
        nxt: dict = {}
        for state, mass in frontier.items():
            dist = cache.get(state)
            if dist is None:
                dist = cache[state] = enumerate_transitions(config, state)
            for prob, _, succ in dist.successors:
                if predicate(succ):
                    absorbed += mass * prob
                    hits[-1] += mass * prob
                else:
                    nxt[succ] = nxt.get(succ, 0.0) + mass * prob
        frontier = nxt
        if len(frontier) > max_states:
            upper = min(1.0, absorbed + sum(frontier.values()))
            return Reach(absorbed, upper, tuple(hits), len(cache))
        if not frontier:
            break
    return Reach(absorbed, absorbed, tuple(hits), len(cache))


def find_escape(config: SystemConfig, seeds, predicate, project=None):
    """First transition leaving the predicate set, or None if it is closed.

    Explores the set reachable from `seeds` while the predicate holds.
    `project` optionally maps states to a smaller invariant signature for
    merging (e.g. dropping absolute audit counts for schemes that only see
    count differences).  Raises OracleBoundError past MAX_STATES states.
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
                if len(seen) > MAX_STATES:
                    raise OracleBoundError(
                        f"state budget of {MAX_STATES} exceeded")
                frontier.append(succ)
    return None


def sample_round_keys(config: SystemConfig, state: ExactState, samples: int,
                      seed: int = 0) -> dict:
    """Engine one-round outcomes from `state`, counted by Branch.

    Every sample is one `engine._draw_branch` from `state`, the step each
    round of `engine.run_simulation` draws; the state never moves, so its vote
    weights, camp sums and fixed pattern are read once and nothing is settled.
    """
    state = state.canonical()
    rng, fixed = random.Random(seed), engine.fixed_pattern(state.p_c)
    reputations = rep.values(config.scheme, state.v, state.aud, state.beta)
    weights = engine.reread_underflow(config.scheme, state.v, state.beta, reputations)
    camps, votes, counts = {}, {}, {}
    for _ in range(samples):
        entry, audited, tie, honest_win = engine._draw_branch(
            rng, state.p_a, state.p_c, fixed, weights, camps, votes)
        key = (entry[0], audited, honest_win if tie else None)
        counts[key] = counts.get(key, 0) + 1
    return {Branch(*key): count for key, count in counts.items()}


def chi2_sf(x: float, k: int) -> float:
    """P(X >= x) for X chi-square with integer `k` >= 1 degrees of freedom:
    with h = x/2, the sum of e^-h · h^a / Γ(a+1) over a = 0, 1, …, k/2 - 1 for
    even k, and erfc(√h) plus that sum over a = ½, 3/2, …, k/2 - 1 for odd k
    (Abramowitz & Stegun §26.4), capped at 1, which rounding passes near x = 0.
    Each term is the exp of its logarithm: past h ≈ 709 e^-h underflows and
    h^a overflows, and a test over a couple of thousand bins lands there."""
    h = x / 2.0
    if h <= 0.0:   # x = 0, or a subnormal x that halves to 0
        return 1.0
    log_h, odd = math.log(h), k % 2
    terms = (math.exp(a * log_h - h - math.lgamma(a + 1))
             for a in (odd / 2 + i for i in range(k // 2)))
    return min(sum(terms, math.erfc(math.sqrt(h)) if odd else 0.0), 1.0)


@dataclass
class FitReport:
    statistic: float
    p_value: float
    passed: bool
    samples: int
    bins: int


def compare_engine_distribution(config: SystemConfig, state: ExactState,
                                samples: int = 100_000,
                                significance: float = 0.01) -> FitReport:
    """Chi-square goodness of fit of engine sampling (`sample_round_keys` at
    seed 0) vs. exact enumeration.

    Bins are the branches (cheater set, audited, tie outcome).  Bins with
    expected count below 5 are pooled; ValueError if that leaves fewer than
    2.  The p-value is `chi2_sf` at bins - 1 degrees of freedom.
    """
    state = state.canonical()
    expected_probs: dict = {}
    for prob, branch, _ in enumerate_transitions(config, state).successors:
        expected_probs[branch] = expected_probs.get(branch, 0.0) + prob
    counts = sample_round_keys(config, state, samples)
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
    if len(observed) < 2:
        raise ValueError(f"{total} samples pool into {len(observed)} chi-square bin; "
                         "the test needs at least 2")
    statistic = sum((o - e) ** 2 / e for o, e in zip(observed, expected))
    p_value = chi2_sf(statistic, len(observed) - 1)
    return FitReport(statistic=statistic, p_value=p_value, passed=p_value >= significance,
                     samples=total, bins=len(observed))
