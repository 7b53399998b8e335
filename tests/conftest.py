import contextlib
import functools
import io
import math
from itertools import chain
from operator import attrgetter
from typing import Sequence

import numpy as np
import pytest

from repsim import cli, engine, reputation as rep
from repsim.metrics import reputation_ratio
from repsim.model import ExactState, RoundOutcome, SystemConfig, WorkerSpec, WorkerType
from repsim.oracle import Branch
from repsim.reputation import scheme_from_name


def make_config(n=3, scheme="none", p_c0=0.5, wby=1.0, **overrides):
    """Small roster with uniform workers; keyword overrides go to SystemConfig."""
    workers = [WorkerSpec(wtype=WorkerType.RATIONAL, p_c0=p_c0, wby=wby)
               for _ in range(n)]
    cfg = SystemConfig(workers=workers, scheme=scheme_from_name(scheme), **overrides)
    return cfg.validate()


@functools.lru_cache(maxsize=None)
def verify_stdout(suite):
    """(exit code, stdout) of `repsim verify <suite>` at the CLI defaults,
    run once per test session: the CLI tests pin the text, the acceptance
    tests read their verdicts from it."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", suite])
    return code, out.getvalue()


@pytest.fixture
def three_workers():
    return make_config()


# -- the reference reputation rules: one worker at a time ----------------------
# The scalar rules `repsim.reputation` applied per worker before its rules
# took whole rosters, kept unchanged (the methods as functions of the scheme)
# so the roster-wide `values` and `audit_updates` are checked bit for bit.

def _keep_beta(self, beta: float, truthful: bool) -> float:
    return beta


def _type1_formula(self, v: int, aud: int, beta: float) -> float:
    return (v + 1) / (aud + 2)


def _type2_formula(self, v: int, aud: int, beta: float) -> float:
    return self.epsilon ** (aud - v)


def _type3_formula(self, v: int, aud: int, beta: float) -> float:
    if beta > self.error_bound:
        return 0.001
    return 1.0 - math.sqrt(beta / self.error_bound)


def _type3_beta_update(self, beta: float, truthful: bool) -> float:
    if not truthful:
        return beta + self.increment
    return beta * self.decay if self.decay else 0.0   # an inf beta: inf * 0 is NaN


def _none_formula(self, v: int, aud: int, beta: float) -> float:
    return 0.5


REFERENCE_FORMULA = {rep.Type1: _type1_formula, rep.Type2: _type2_formula,
                     rep.Type3: _type3_formula, rep.NoReputation: _none_formula}
REFERENCE_BETA_UPDATE = {rep.Type3: _type3_beta_update}


def reference_value(scheme, v: int, aud: int, beta: float = 0.0) -> float:
    """Reputation of a single worker given its audit counts.

    Before the first audit every scheme reports 0.5, matching the uniform
    initialization of the master's algorithm.
    """
    if v > aud:
        raise ValueError(f"validation count {v} exceeds audit count {aud}")
    return 0.5 if aud == 0 else REFERENCE_FORMULA[type(scheme)](scheme, v, aud, beta)


def reference_audit_update(scheme, v: int, beta: float, truthful: bool):
    """Post-audit counts for one worker: returns (v', beta')."""
    return v + truthful, REFERENCE_BETA_UPDATE.get(type(scheme), _keep_beta)(scheme, beta,
                                                                            truthful)


# -- the reference payoff and learning rule: one branch at a time --------------
# `model.compute_payoffs`, `engine.learning_step` and `engine.settle` as they
# settled one branch of one cheater set before `engine.settle` tabulated the
# whole roster, kept unchanged (but for their names) so the table is checked
# bit for bit.

def reference_payoffs(n: int, cheaters: frozenset, audited: bool,
                      majority: frozenset, wbys: Sequence[float],
                      wpc: float, wct: float) -> tuple:
    """Net per-worker payoff for one round.

    Audited rounds: caught cheaters pay `wpc`, everyone else earns their
    reward.  Unaudited rounds: only the weighted majority earns.  Honest
    workers then pay the computing cost; the result is the net value the
    learning rule consumes.
    """
    if audited and majority:
        raise ValueError("majority must be empty in an audited round")
    payoffs = []
    for i in range(n):
        if audited:
            pi = -wpc if i in cheaters else wbys[i]
        else:
            pi = wbys[i] if i in majority else 0.0
        if i not in cheaters:
            pi -= wct
        payoffs.append(pi)
    return tuple(payoffs)


def reference_learning_step(spec, payoff: float, cheated: bool, alpha_w: float) -> float:
    """How far a round lowers a worker's cheat probability, before the clamp:
    aspiration-based for rational workers, 0 for the others."""
    if spec.wtype is not WorkerType.RATIONAL or alpha_w == 0.0:
        return 0.0
    return alpha_w * (payoff - spec.aspiration) * (-1.0 if cheated else 1.0)


def reference_settle(config: SystemConfig, cheaters: frozenset, audited: bool,
                     honest_win: bool):
    """A branch's (majority, payoffs, learning steps).  An audited round has
    no majority; after a vote the winning camp is the majority."""
    n = config.n
    if audited:
        majority = frozenset()
    else:
        majority = frozenset(range(n)) - cheaters if honest_win else frozenset(cheaters)
    payoffs = reference_payoffs(n, cheaters, audited, majority,
                                [w.wby for w in config.workers], config.wpc, config.wct)
    steps = [reference_learning_step(spec, pay, i in cheaters, config.alpha_w)
             for i, (spec, pay) in enumerate(zip(config.workers, payoffs))]
    return majority, payoffs, steps


def pick_branch(rules: dict, cheaters: frozenset, audited: bool, honest_win: bool):
    """(majority, payoffs, learning steps) of one branch, picked from the
    `engine.settle` table `rules` as `run_simulation` picks a newly settled
    branch: each worker's pair by its cheat flag, and the majority from the
    camps (none if audited, else the winning camp)."""
    payoffs, steps = rules[audited, honest_win]
    honest = [i for i in range(len(payoffs)) if i not in cheaters]
    majority = frozenset() if audited else frozenset(honest) if honest_win else cheaters
    return (majority, tuple([pair[i in cheaters] for i, pair in enumerate(payoffs)]),
            [pair[i in cheaters] for i, pair in enumerate(steps)])


# -- the test reference: one round stepped from a whole state -------------------
# The engine draws and settles rounds from per-roster tables (`run_simulation`)
# and the oracle tabulates them per worker; both are compared against this
# straight-line round, which applies the engine's rule functions once each.

def weighted_majority(scheme, state: ExactState, cheaters: frozenset, reps=None):
    """Aggregate vote weights of the two camps (`reps`: the reputations of
    `state`, if known), each camp added in index order.

    Returns (rho_honest, rho_cheat, tie).  All cheaters return one identical
    wrong value, so the vote is camp-against-camp.
    """
    reps = reps or rep.values(scheme, state.v, state.aud, state.beta)
    weights = engine.reread_underflow(scheme, state.v, state.beta, reps)
    rho_honest = sum(w for i, w in enumerate(weights) if i not in cheaters)
    rho_cheat = sum(w for i, w in enumerate(weights) if i in cheaters)
    return rho_honest, rho_cheat, rho_honest == rho_cheat


def round_successor(config: SystemConfig, state: ExactState, cheaters: frozenset,
                    audited: bool, tie_coin=None):
    """Pure one-round transition.

    `tie_coin` is a zero-argument callable that resolves a reputation tie in
    an unaudited round (True: the honest camp wins); it is called only when
    a tie actually occurs.  Returns (state', branch, outcome).
    """
    if audited:
        p_a, aud, v, beta, reputations, _ = engine._audit(
            config, state.p_a, state.aud, state.v, state.beta, cheaters, sorted(cheaters))
        honest_win, branch = True, Branch(cheaters, True)
    else:
        reputations = rep.values(config.scheme, state.v, state.aud, state.beta)
        rho_honest, rho_cheat, tie = weighted_majority(config.scheme, state, cheaters,
                                                       reputations)
        if tie:
            if tie_coin is None:
                raise ValueError("tie occurred but no tie coin was supplied")
            honest_win = bool(tie_coin())
            branch = Branch(cheaters, False, honest_win)
        else:
            honest_win = rho_honest > rho_cheat
            branch = Branch(cheaters, False)
        p_a, aud, v, beta = state.p_a, state.aud, state.v, state.beta

    _, _, steps = pick_branch(engine.settle(config), cheaters, audited, honest_win)
    p_c = engine.worker_update(state.p_c, steps)
    outcome = RoundOutcome(cheaters, audited, branch.tie_outcome is not None, honest_win,
                           reputations, p_a, p_c)
    return ExactState(p_a, aud, p_c, v, beta), branch, outcome


def run_round(config: SystemConfig, state: ExactState, rng):
    """One sampled round; returns round_successor's (state', branch, outcome).

    RNG draw order: n strategy uniforms (ascending index), one audit
    uniform, then one tie uniform only if a tie actually occurs.
    """
    cheaters = frozenset(i for i, p in enumerate(state.p_c) if rng.random() < p)
    audited = rng.random() < state.p_a
    return round_successor(config, state, cheaters, audited, lambda: rng.random() < 0.5)


# -- the reference trace columns: one read per round ---------------------------
# `metrics.trace_columns` as it read every round's tuples and cheater set
# before it read each shared object once, kept unchanged so the new one is
# checked byte for byte.

def reference_trace_columns(trace, n: int) -> dict:
    """A list of RoundOutcome as numpy columns, (rounds,) or (rounds, n) each."""
    rounds = len(trace)

    def per_round(attr, dtype):
        return np.fromiter(map(attrgetter(attr), trace), dtype, rounds)

    def per_worker(attr):
        flat = chain.from_iterable(map(attrgetter(attr), trace))
        return np.fromiter(flat, float, rounds * n).reshape(rounds, n)

    sets = [o.cheater_set for o in trace]
    cheated = np.zeros((rounds, n), dtype=bool)
    cheated[np.repeat(np.arange(rounds), list(map(len, sets))),
            list(chain.from_iterable(sets))] = True
    rho = per_worker("reputations_after")
    return {"round": np.fromiter(range(rounds), int, rounds),
            "audited": per_round("audited", bool),
            "correct": per_round("accepted_correct", bool),
            "tie": per_round("tie_broken", bool), "p_a": per_round("p_a_after", float),
            "p_c": per_worker("p_c_after"), "rho": rho, "cheated": cheated,
            "reputation_ratio": reputation_ratio(rho, cheated)}
