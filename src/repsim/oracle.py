"""Exact enumeration of the round-to-round Markov chain on small rosters.

States are canonicalized to a fixed 12-decimal grid so that successor states
produced along different paths merge.  Successors are the states the
engine's round produces, built from its own scalar rules tabulated per
worker (see `enumerate_transitions`); the oracle adds exact branch
probabilities (cheater subsets x audit outcome, with ties split into two
half-weighted branches).  `sample_round_keys` draws the same branches the
way `engine.run_simulation` does, for the chi-square comparison.
"""
from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy import stats

from . import engine, reputation as rep
from .engine import Branch
from .model import GRID_DECIMALS, ExactState, SystemConfig

PROB_TOL = 1e-12
MAX_WORKERS = 10


class OracleBoundError(RuntimeError):
    """Enumeration exceeded its configured budget.

    A bounded reachability query carries what it had resolved: the mass
    already absorbed (`lower_bound`), that plus the mass still on the
    frontier (`upper_bound`), and the number of rounds it expanded.
    """

    def __init__(self, message, lower_bound=None, upper_bound=None, rounds=None):
        super().__init__(message)
        self.lower_bound = lower_bound
        self.upper_bound = upper_bound
        self.rounds = rounds


@dataclass
class TransitionDistribution:
    state: ExactState
    successors: list   # of (probability, Branch, ExactState)

    def total(self) -> float:
        return sum(p for p, _, _ in self.successors)


@functools.lru_cache(maxsize=8)
def _cheater_table(n: int):
    """All 2^n cheater sets of an n-roster, in `itertools.product` order.

    Returns (bits, sets, row): the (2^n x n) boolean bit-matrix, the same
    sets as frozensets, and frozenset -> row of `bits`.
    """
    bits = np.array(list(itertools.product((False, True), repeat=n)),
                    dtype=bool).reshape(2 ** n, n)
    bits.flags.writeable = False
    sets = tuple(frozenset(np.flatnonzero(b).tolist()) for b in bits)
    return bits, sets, {s: k for k, s in enumerate(sets)}


def cheater_set_probabilities(state: ExactState):
    """(subset, probability) for every cheater set with non-zero mass.

    Sets come in `itertools.product` order; each probability is a product
    over the workers taken in index order.
    """
    bits, sets, _ = _cheater_table(len(state.p_c))
    prob = np.ones(len(sets))
    for i, p_c in enumerate(state.p_c):
        prob *= np.where(bits[:, i], p_c, 1.0 - p_c)
    rows = np.flatnonzero(prob > 0.0)
    return list(zip([sets[k] for k in rows.tolist()], prob[rows].tolist()))


def _worker_sums(cheat, honest, cheated):
    """Per row of `cheat`, the sum over workers of `honest[i]` or `cheated[i]`.

    Workers are added one at a time in index order, as `rep.aggregate` adds
    them: np.sum, @ or einsum add in another order and round differently,
    which would move ties and the bits of p_a.
    """
    acc = np.zeros(len(cheat))
    for i in range(cheat.shape[1]):
        acc += np.where(cheat[:, i], cheated[i], honest[i])
    return acc


def _pick(table, cheat):
    """Per row of `cheat`, the tuple of `table[i][cheated]` over workers i.

    The table holds the kernel's own Python objects (an object array keeps
    ints ints), so successors equal and repr as the kernel's.
    """
    cols = np.empty((2, len(table)), dtype=object)
    cols[0], cols[1] = zip(*table)
    return list(map(tuple, np.where(cheat, cols[1], cols[0]).tolist()))


def _next_p_c(config, state, audited, honest_won=False):
    """Per worker, canonical p_c after a round for (honest, cheated).

    An audited round has no majority; after a vote a worker is in the
    majority iff its camp won, and `honest_won` says which camp did.
    """
    honest, cheated = (
        engine.worker_update(state.p_c, engine.settle(config, cheaters, audited,
                                                      honest_won)[2])
        for cheaters in (frozenset(), frozenset(range(config.n))))
    return [(round(h, GRID_DECIMALS), round(c, GRID_DECIMALS))
            for h, c in zip(honest, cheated)]


def _audited_successors(config, state, sets, cheat):
    """Canonical successor of each row's audited branch.  Where every
    post-audit reputation underflowed, the row's p_a comes from
    `engine._audit` itself, which re-reads the camps."""
    scheme, aud = config.scheme, state.aud + 1
    counts = [[rep.audit_update(scheme, v, b, truthful=not c) for c in (False, True)]
              for v, b in zip(state.v, state.beta)]
    rho = [[rep.value(scheme, v, aud, b) for v, b in pair] for pair in counts]
    rho_cheat = _worker_sums(cheat, [0.0] * len(rho), [r[1] for r in rho]).tolist()
    rho_total = _worker_sums(cheat, [r[0] for r in rho], [r[1] for r in rho]).tolist()
    v = _pick([[v for v, _ in pair] for pair in counts], cheat)
    beta = _pick([[round(b, GRID_DECIMALS) for _, b in pair] for pair in counts], cheat)
    p_c = _pick(_next_p_c(config, state, audited=True), cheat)
    out = []
    for k, total in enumerate(rho_total):
        if total == 0.0:
            cheaters = sets[k][0]
            p_a = engine._audit(config, state.p_a, state.aud, state.v, state.beta,
                                cheaters, sorted(cheaters))[0]
        else:
            p_a = engine.master_update(config, state.p_a, rho_cheat[k], total)
        out.append(ExactState(round(p_a, GRID_DECIMALS), aud, p_c[k], v[k], beta[k]))
    return out


def enumerate_transitions(config: SystemConfig, state: ExactState) -> TransitionDistribution:
    """Exact one-step distribution from `state`.

    Ties in the unaudited weighted majority split into two half-probability
    branches instead of consuming randomness.  Raises OracleBoundError past
    MAX_WORKERS workers, RuntimeError if the masses miss 1 by over PROB_TOL.

    Given the audit flag, a worker's successor entries depend only on whether
    it cheated and, after a vote, on which camp won, so they are tabulated
    once per state from the engine's scalar rules; only the camp sums, the
    vote and the master's update are computed per cheater set, over the
    cheater bit-matrix.  Once every reputation has underflowed, each row's
    vote goes through `engine._camp_weights`, as the engine's does.
    """
    n = len(config.workers)
    if n > MAX_WORKERS:
        raise OracleBoundError(f"roster of {n} exceeds the enumeration "
                               f"bound of {MAX_WORKERS} workers")
    state = state.canonical()
    sets = cheater_set_probabilities(state)
    bits, _, row = _cheater_table(n)
    cheat = bits[[row[cheaters] for cheaters, _ in sets]]

    audited = (_audited_successors(config, state, sets, cheat) if state.p_a > 0.0
               else None)
    rho = rep.values(config.scheme, state.v, state.aud, state.beta)
    rho_honest = _worker_sums(cheat, rho, [0.0] * n)
    rho_cheat = _worker_sums(cheat, [0.0] * n, rho)
    tie = (rho_honest == rho_cheat).tolist()
    honest_wins = (rho_honest > rho_cheat).tolist()
    if not any(rho):
        for k, (cheaters, _) in enumerate(sets):
            honest_k, cheat_k = engine._camp_weights(
                config.scheme, state.v, state.beta, rho,
                ([i for i in range(n) if i not in cheaters], sorted(cheaters)))
            tie[k], honest_wins[k] = honest_k == cheat_k, honest_k > cheat_k
    won = {hw: _pick(_next_p_c(config, state, False, honest_won=hw), cheat)
           for hw in (True, False)}

    def unaudited(k, honest_win):
        return ExactState(state.p_a, state.aud, won[honest_win][k], state.v, state.beta)

    successors = []
    for k, (cheaters, p_f) in enumerate(sets):
        if audited is not None:
            successors.append((state.p_a * p_f, Branch(cheaters, True), audited[k]))
        p_no_audit = (1.0 - state.p_a) * p_f
        if p_no_audit <= 0.0:
            continue
        if tie[k]:
            successors.append((0.5 * p_no_audit, Branch(cheaters, False, True),
                               unaudited(k, True)))
            successors.append((0.5 * p_no_audit, Branch(cheaters, False, False),
                               unaudited(k, False)))
        else:
            successors.append((p_no_audit, Branch(cheaters, False),
                               unaudited(k, honest_wins[k])))

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
    the probability mass already absorbed (a valid lower bound), that plus
    the frontier's mass (an upper bound) and the rounds expanded.
    """
    start = start.canonical()
    if predicate(start):
        return 1.0
    frontier = {start: 1.0}
    absorbed = 0.0
    cache = {}
    for rounds in range(1, horizon + 1):
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
            upper = min(1.0, absorbed + sum(frontier.values()))
            raise OracleBoundError(
                f"state budget of {max_states} exceeded after {rounds} rounds "
                f"(bounds so far: {absorbed:.6g} to {upper:.6g})",
                lower_bound=absorbed, upper_bound=upper, rounds=rounds)
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
                      seed: int = 0) -> dict:
    """Engine one-round outcomes from `state`, counted by Branch.

    Every sample is one `engine._draw_branch` from `state`, the step each
    round of `engine.run_simulation` draws; the state never moves, so its
    reputations and camp weights are computed once and nothing is settled.
    """
    state = state.canonical()
    draw = random.Random(seed).random
    reputations = rep.values(config.scheme, state.v, state.aud, state.beta)
    camps, votes, counts = {}, {}, {}
    for _ in range(samples):
        entry, audited, tie, honest_win = engine._draw_branch(
            draw, config.scheme, state.p_a, state.p_c, state.v, state.beta,
            reputations, camps, votes)
        key = (entry[0], audited, honest_win if tie else None)
        counts[key] = counts.get(key, 0) + 1
    return {Branch(*key): count for key, count in counts.items()}


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
    expected count below 5 are pooled before the test; ValueError if that
    leaves fewer than 2, too few samples for a test.  Pass `counts` to test
    a pre-binned (possibly corrupted) sample instead of the engine's.
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
    if len(observed) < 2:
        raise ValueError(f"{total} samples pool into {len(observed)} chi-square bin; "
                         "the test needs at least 2")
    statistic, p_value = stats.chisquare(observed, expected)
    return FitReport(statistic=float(statistic), p_value=float(p_value),
                     passed=bool(p_value >= significance), samples=total,
                     bins=len(observed))
