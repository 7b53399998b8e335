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


def _camp(scheme, v, beta, aud: int, members) -> float:
    """Aggregate reputation of the workers listed in `members`."""
    return rep.aggregate(scheme, ((v[i], beta[i]) for i in members), aud)


def weighted_majority(scheme, state: ExactState, cheaters: frozenset):
    """Aggregate reputations of the two camps.

    Returns (rho_honest, rho_cheat, tie).  All cheaters return one identical
    wrong value, so the vote is camp-against-camp.
    """
    n, v, beta, aud = len(state.v), state.v, state.beta, state.aud
    rho_honest = _camp(scheme, v, beta, aud, (i for i in range(n) if i not in cheaters))
    rho_cheat = _camp(scheme, v, beta, aud, (i for i in range(n) if i in cheaters))
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


def _audit_weights(scheme, v, beta, aud: int, cheaters: frozenset):
    """(rho_cheat, rho_total) after an audit, for the master's update."""
    n = len(v)
    rho_cheat = _camp(scheme, v, beta, aud, (i for i in range(n) if i in cheaters))
    rho_total = _camp(scheme, v, beta, aud, range(n))
    if rho_total == 0.0:
        # Every reputation underflowed (type 2 after ~1075 audits).  Type 2
        # depends only on aud - v, so reading it at aud = max(v) divides
        # every value by the same eps^(aud - max(v)) and keeps the share.
        aud = max(v)
        rho_cheat = _camp(scheme, v, beta, aud, (i for i in range(n) if i in cheaters))
        rho_total = _camp(scheme, v, beta, aud, range(n))
    return rho_cheat, rho_total


def round_successor(config: SystemConfig, state: ExactState, cheaters: frozenset,
                    audited: bool, tie_coin=None):
    """Pure one-round transition.

    `tie_coin` is a zero-argument callable that resolves a reputation tie in
    an unaudited round (True: the honest camp wins); it is called only when
    a tie actually occurs.  Returns (state', branch, outcome) where
    outcome.round is left at -1 for the caller to fill in.
    """
    scheme = config.scheme
    n = config.n

    if audited:
        v, beta = zip(*(rep.audit_update(scheme, state.v[i], state.beta[i],
                                         truthful=i not in cheaters)
                        for i in range(n)))
        aud = state.aud + 1
        rho_cheat, rho_total = _audit_weights(scheme, v, beta, aud, cheaters)
        p_a = master_update(config, state.p_a, rho_cheat, rho_total)
        majority = frozenset()
        accepted_correct, branch = True, Branch(cheaters, True)
    else:
        rho_honest, rho_cheat, tie = weighted_majority(scheme, state, cheaters)
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

    payoffs = compute_payoffs(n, cheaters, audited, majority,
                              [w.wby for w in config.workers], config.wpc, config.wct)
    p_c = tuple(worker_update(spec, state.p_c[i], payoffs[i], cheated=i in cheaters,
                              alpha_w=config.alpha_w)
                for i, spec in enumerate(config.workers))

    outcome = RoundOutcome(
        round=-1,
        cheater_set=cheaters,
        audited=audited,
        majority_set=majority,
        tie_broken=branch.tie_outcome is not None,
        accepted_correct=accepted_correct,
        payoffs=payoffs,
        reputations_after=tuple(rep.value(scheme, v[i], aud, beta[i]) for i in range(n)),
        p_a_after=p_a,
        p_c_after=p_c,
    )
    return ExactState(p_a, aud, p_c, v, beta), branch, outcome


def run_round(config: SystemConfig, state: ExactState, rng: random.Random):
    """One sampled round; returns round_successor's (state', branch, outcome).

    RNG draw order is fixed: n strategy uniforms (ascending index), one
    audit uniform, then one tie uniform only if a tie actually occurs.
    """
    cheaters = decide_strategies(state, rng)
    audited = rng.random() < state.p_a
    return round_successor(config, state, cheaters, audited,
                           lambda: rng.random() < 0.5)


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
    """Full deterministic run: one trace of RoundOutcome per round."""
    config.validate()
    rng = random.Random(seed)
    state = config.initial_state()
    trace = []
    for r in range(config.horizon):
        config, state = apply_role_changes(config, state, r)
        state, _, outcome = run_round(config, state, rng)
        outcome.round = r
        trace.append(outcome)
    return trace
