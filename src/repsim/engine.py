"""Round loop: strategy draws, auditing, weighted majority and learning.

The actual state update lives in `round_successor`, a pure function of
(config, state, cheater set, audited flag, tie coin).  The stochastic
engine and the exact Markov enumerator both call it, so their successor
states agree bit-for-bit.  The chain state is `model.ExactState`; the
per-worker constants and the master's knobs are read from the config.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Optional

from . import reputation as rep
from .model import (FIXED_PC, ExactState, RoundOutcome, SystemConfig,
                    WorkerType, clamp, compute_payoffs)


@dataclass(frozen=True)
class Branch:
    """One stochastic outcome of a round: who cheated, audit and tie result."""

    cheaters: frozenset
    audited: bool
    tie_outcome: Optional[bool] = None   # honest camp won the coin flip


def decide_strategies(state: ExactState, rng: random.Random) -> frozenset:
    """Draw this round's cheater set, one uniform per worker in index order.

    Altruistic and malicious workers hold p_c at 0 and 1, so the same
    Bernoulli draw covers all three types (and keeps the stream length
    independent of the type mix).
    """
    return frozenset(i for i, p_c in enumerate(state.p_c) if rng.random() < p_c)


def _camp_weights(scheme, v, beta, reps, camps):
    """Sum of `reps` over each camp in `camps` (sequences of worker indices).

    Workers add in index order from 0, as `rep.aggregate` adds them.  When
    every camp reads 0.0, every reputation involved underflowed (type 2
    after ~1075 audits).  Type 2 depends only on aud - v, so reading it at
    aud = max(v) divides every value by the same eps^(aud - max(v)): the
    camps keep their ratio, and the camp holding the best-validated worker
    is positive, so an empty camp never ties a non-empty one.
    """
    weights = [sum(map(reps.__getitem__, members)) for members in camps]
    if not any(weights):
        top = rep.values(scheme, v, max(v), beta)
        weights = [sum(map(top.__getitem__, members)) for members in camps]
    return weights


def weighted_majority(scheme, state: ExactState, cheaters: frozenset, reps=None):
    """Aggregate reputations of the two camps (`reps`: those of `state`, if known).

    Returns (rho_honest, rho_cheat, tie).  All cheaters return one identical
    wrong value, so the vote is camp-against-camp.
    """
    reps = reps or rep.values(scheme, state.v, state.aud, state.beta)
    honest = [i for i in range(len(reps)) if i not in cheaters]
    rho_honest, rho_cheat = _camp_weights(scheme, state.v, state.beta, reps,
                                          (honest, sorted(cheaters)))
    return rho_honest, rho_cheat, rho_honest == rho_cheat


def master_update(config: SystemConfig, p_a: float, rho_cheat: float,
                  rho_total: float) -> float:
    """Audit-probability reinforcement; call only after an audit."""
    if rho_total <= 0:
        raise ValueError("total reputation must be positive in an audited round")
    return clamp(p_a + config.alpha_m * (rho_cheat / rho_total - config.tau),
                 config.p_a_min, 1.0)


def worker_update(spec, p_c: float, payoff: float, cheated: bool,
                  alpha_w: float) -> float:
    """Aspiration-based probability update; non-rational workers pass through."""
    if spec.wtype is not WorkerType.RATIONAL:
        return p_c
    s = -1.0 if cheated else 1.0
    return clamp(p_c - alpha_w * (payoff - spec.aspiration) * s, 0.0, 1.0)


def _roster(config: SystemConfig):
    """Per-config constants of a round: every worker's reward, and whether it learns."""
    return ([w.wby for w in config.workers],
            [w.wtype is WorkerType.RATIONAL for w in config.workers])


def round_successor(config: SystemConfig, state: ExactState, cheaters: frozenset,
                    audited: bool, tie_coin=None, reputations=None, roster=None):
    """Pure one-round transition.

    `tie_coin` is a zero-argument callable that resolves a reputation tie in
    an unaudited round (True: the honest camp wins); it is called only when
    a tie actually occurs.  A run passes what it already has: the workers'
    `reputations` in `state` (the last `reputations_after`) and `roster`.
    Returns (state', branch, outcome) with outcome.round left at -1.
    """
    scheme, n = config.scheme, config.n
    wbys, learns = roster or _roster(config)

    if audited:
        v, beta = zip(*(rep.audit_update(scheme, state.v[i], state.beta[i],
                                         truthful=i not in cheaters)
                        for i in range(n)))
        aud = state.aud + 1
        reputations = rep.values(scheme, v, aud, beta)
        rho_cheat, rho_total = _camp_weights(scheme, v, beta, reputations,
                                             (sorted(cheaters), range(n)))
        p_a = master_update(config, state.p_a, rho_cheat, rho_total)
        majority = frozenset()
        accepted_correct, branch = True, Branch(cheaters, True)
    else:
        reputations = reputations or rep.values(scheme, state.v, state.aud, state.beta)
        rho_honest, rho_cheat, tie = weighted_majority(scheme, state, cheaters,
                                                       reputations)
        if tie:
            if tie_coin is None:
                raise ValueError("tie occurred but no tie coin was supplied")
            honest_win = bool(tie_coin())
            branch = Branch(cheaters, False, honest_win)
        else:
            honest_win = rho_honest > rho_cheat
            branch = Branch(cheaters, False)
        majority = frozenset(range(n)) - cheaters if honest_win else frozenset(cheaters)
        accepted_correct = honest_win
        p_a, aud, v, beta = state.p_a, state.aud, state.v, state.beta

    payoffs = compute_payoffs(n, cheaters, audited, majority, wbys, config.wpc, config.wct)
    p_c = tuple([worker_update(spec, p, pay, i in cheaters, config.alpha_w) if learn else p
                 for i, (spec, p, pay, learn)
                 in enumerate(zip(config.workers, state.p_c, payoffs, learns))])

    outcome = RoundOutcome(
        round=-1,
        cheater_set=cheaters,
        audited=audited,
        majority_set=majority,
        tie_broken=branch.tie_outcome is not None,
        accepted_correct=accepted_correct,
        payoffs=payoffs,
        reputations_after=reputations,
        p_a_after=p_a,
        p_c_after=p_c,
    )
    return ExactState(p_a, aud, p_c, v, beta), branch, outcome


def run_round(config: SystemConfig, state: ExactState, rng: random.Random,
              reputations=None, roster=None):
    """One sampled round; returns round_successor's (state', branch, outcome).

    RNG draw order is fixed: n strategy uniforms (ascending index), one
    audit uniform, then one tie uniform only if a tie actually occurs.
    """
    cheaters = decide_strategies(state, rng)
    audited = rng.random() < state.p_a
    return round_successor(config, state, cheaters, audited,
                           lambda: rng.random() < 0.5, reputations, roster)


def apply_role_changes(config: SystemConfig, state: ExactState, round_: int):
    """Swap worker types scheduled for `round_`: returns (config', state').

    Validation counts and error rates are retained; only the type (and, for
    the predefined types, the cheat probability) changes.
    """
    due = [rc for rc in config.role_changes if rc.round == round_]
    if not due:
        return config, state
    workers, p_c = list(config.workers), list(state.p_c)
    for rc in due:
        workers[rc.worker] = replace(workers[rc.worker], wtype=rc.new_type)
        p_c[rc.worker] = FIXED_PC.get(rc.new_type, p_c[rc.worker])
    return replace(config, workers=workers), replace(state, p_c=tuple(p_c))


def run_simulation(config: SystemConfig, seed: int) -> list:
    """Full deterministic run: one trace of RoundOutcome per round.

    Reputations pass from round to round; the roster changes with the roles.
    """
    config.validate()
    rng = random.Random(seed)
    state = config.initial_state()
    change_rounds = {rc.round for rc in config.role_changes}
    trace, reputations, roster = [], None, _roster(config)
    for r in range(config.horizon):
        if r in change_rounds:
            config, state = apply_role_changes(config, state, r)
            roster = _roster(config)
        state, _, outcome = run_round(config, state, rng, reputations, roster)
        outcome.round = r
        reputations = outcome.reputations_after
        trace.append(outcome)
    return trace
