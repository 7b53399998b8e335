"""Round loop: strategy draws, auditing, weighted majority and learning.

`_draw_branch` turns one round's uniforms into a branch (cheat pattern, audit
flag, vote) from the vote weights, which `reread_underflow` reads off the
reputations each time they change: at the start of a run and in `_audit`.
When every p_c is 0 or 1 no uniform can move the cheat pattern, so the draw
step advances the generator past the strategy uniforms (`fixed_pattern`).
`run_simulation` steps the chain from it, settling each branch once per
roster and updating p_c only when it differs from the branch's last input;
the oracle's sampler counts its branches from one fixed state.  The chain
state is `model.ExactState`; the knobs are read from the config.
"""
from __future__ import annotations

import random
from dataclasses import replace

from . import reputation as rep
from .model import (FIXED_PC, RoundOutcome, SystemConfig, WorkerType, clamp,
                    compute_payoffs)


def decide_strategies(p_c, draw) -> tuple:
    """This round's cheat pattern: one uniform from `draw` per worker in index
    order, and worker i cheats iff its uniform is below p_c[i].

    Altruistic and malicious workers hold p_c at 0 and 1, so the same
    Bernoulli draw covers all three types (and keeps the stream length
    independent of the type mix).
    """
    return tuple([draw() < p for p in p_c])


def fixed_pattern(p_c):
    """`decide_strategies`' pattern for any uniforms if each p_c is 0 or 1, else None."""
    return tuple([p == 1 for p in p_c]) if {0, 1}.issuperset(p_c) else None


def reread_underflow(scheme, v, beta, reps) -> tuple:
    """The vote weights of `reps`: `reps`, unless every one reads 0.0 (type 2
    after ~1075 audits).  No reputation is negative and the two camps cover
    every worker, so that is exactly when both camps would sum to 0.0.  Then
    the reputations read again at aud = max(v).  Type 2 depends only on
    aud - v, so that divides every value by the same eps^(aud - max(v)):
    camps keep their ratio, and the best-validated worker reads above 0.0,
    so an empty camp never ties a non-empty one.  If they still all read 0.0
    (type 3, every beta at error_bound), equal reputations weigh 1.0 each."""
    if any(reps):
        return reps
    reps = rep.values(scheme, v, max(v), beta)
    return reps if any(reps) else (1.0,) * len(reps)


def _draw_branch(rng, p_a, p_c, pattern, weights, camps, votes):
    """One round's branch from the uniforms of the `random.Random` `rng`.

    Draw order: n strategy uniforms (ascending index), one audit uniform,
    then one tie uniform only if the vote ties; a `fixed_pattern(p_c)`
    `pattern` skips the first n with one `getrandbits(64 * n)`, the 2n
    32-bit words of n `random()` calls.  `camps` keeps each cheat pattern's
    (cheater set, honest indices, cheater indices, settled branches);
    `votes` keeps each pattern's camp sums of `weights`, added in index
    order (see `reputation`), so it must be emptied when they change.
    Returns (camps entry, audited, tie, honest_win).
    """
    if pattern is None:
        pattern = decide_strategies(p_c, rng.random)
    else:
        rng.getrandbits(64 * len(p_c))
    entry = camps.get(pattern)
    if entry is None:
        entry = camps[pattern] = (frozenset(i for i, c in enumerate(pattern) if c),
                                  [i for i, c in enumerate(pattern) if not c],
                                  [i for i, c in enumerate(pattern) if c], {})
    if rng.random() < p_a:
        return entry, True, False, True
    rho = votes.get(pattern)
    if rho is None:
        rho = votes[pattern] = [sum(map(weights.__getitem__, members))
                                for members in entry[1:3]]
    rho_honest, rho_cheat = rho
    tie = rho_honest == rho_cheat
    return entry, False, tie, rng.random() < 0.5 if tie else rho_honest > rho_cheat


def master_update(config: SystemConfig, p_a: float, rho_cheat: float,
                  rho_total: float) -> float:
    """Audit-probability reinforcement; call only after an audit."""
    if rho_total <= 0:
        raise ValueError("total reputation must be positive in an audited round")
    return clamp(p_a + config.alpha_m * (rho_cheat / rho_total - config.tau),
                 config.p_a_min, 1.0)


def learning_step(spec, payoff: float, cheated: bool, alpha_w: float) -> float:
    """How far a round lowers a worker's cheat probability, before the clamp:
    aspiration-based for rational workers, 0 for the others."""
    if spec.wtype is not WorkerType.RATIONAL or alpha_w == 0.0:
        return 0.0
    return alpha_w * (payoff - spec.aspiration) * (-1.0 if cheated else 1.0)


def worker_update(p_c: tuple, steps) -> tuple:
    """Every worker's cheat probability after its learning step, in [0, 1]."""
    return tuple([clamp(p - step, 0.0, 1.0) for p, step in zip(p_c, steps)])


def _audit(config: SystemConfig, p_a, aud, v, beta, cheaters, cheat):
    """An audited round's (p_a', aud', v', beta', reputations', weights'):
    the master reads the cheaters' share of the new vote weights.  `cheat`
    lists `cheaters` in index order."""
    scheme = config.scheme
    v, beta = rep.audit_updates(scheme, v, beta, cheaters)
    reputations = rep.values(scheme, v, aud + 1, beta)
    weights = reread_underflow(scheme, v, beta, reputations)
    p_a = master_update(config, p_a, sum(map(weights.__getitem__, cheat)), sum(weights))
    return p_a, aud + 1, v, beta, reputations, weights


def settle(config: SystemConfig, cheaters: frozenset, audited: bool, honest_win: bool):
    """A branch's (majority, payoffs, learning steps).  An audited round has
    no majority; after a vote the winning camp is the majority."""
    n = config.n
    if audited:
        majority = frozenset()
    else:
        majority = frozenset(range(n)) - cheaters if honest_win else frozenset(cheaters)
    payoffs = compute_payoffs(n, cheaters, audited, majority,
                              [w.wby for w in config.workers], config.wpc, config.wct)
    steps = [learning_step(spec, pay, i in cheaters, config.alpha_w)
             for i, (spec, pay) in enumerate(zip(config.workers, payoffs))]
    return majority, payoffs, steps


def apply_role_changes(config: SystemConfig, p_c: tuple, round_: int):
    """Swap worker types scheduled for `round_`: returns (config', p_c').

    Only the type (and, for the predefined types, the cheat probability)
    changes; validation counts and error rates are left as they are.
    """
    due = [rc for rc in config.role_changes if rc.round == round_]
    if not due:
        return config, p_c
    workers, p_c = list(config.workers), list(p_c)
    for rc in due:
        workers[rc.worker] = replace(workers[rc.worker], wtype=rc.new_type)
        p_c[rc.worker] = FIXED_PC.get(rc.new_type, p_c[rc.worker])
    return replace(config, workers=workers), tuple(p_c)


def run_simulation(config: SystemConfig, seed: int) -> list:
    """Full deterministic run: one trace of RoundOutcome per round.

    A worker's payoff and learning step depend only on whether it cheated,
    the audit flag and which camp won, so each branch (cheat pattern,
    audited, honest_win) is settled once per roster; the table is rebuilt at
    a role change.  A settled branch keeps its last `worker_update` input
    and output, and a round whose p_c equals that input takes that output,
    not the input: `clamp` maps -0.0 and 0.0 alike to 0.0, and no p_c is
    NaN.  The vote weights are read when the reputations change, and camp
    sums are kept per cheat pattern until an audit changes a weight; an
    audit that leaves them equal keeps the old tuple and its sums, and one
    that leaves the reputations equal keeps the old reputation tuple.  No
    reputation is -0.0 and a NaN never equals itself, so equal tuples hold
    the same floats, and equal weights are added in the same order.
    `fixed_pattern` is read when p_c is set: at the start, at a role change
    and beside each `worker_update` output of a settled branch.
    Per round are left `_draw_branch`, `_audit` and p_c off a fixed point.
    """
    config.validate()
    rng = random.Random(seed)
    scheme = config.scheme
    state = config.initial_state()
    p_a, aud, p_c, v, beta = state.p_a, state.aud, state.p_c, state.v, state.beta
    reputations = rep.values(scheme, v, aud, beta)
    weights = reread_underflow(scheme, v, beta, reputations)
    change_rounds = {rc.round for rc in config.role_changes}
    table, votes, trace, fixed = {}, {}, [], fixed_pattern(p_c)
    for r in range(config.horizon):
        if r in change_rounds:
            config, p_c = apply_role_changes(config, p_c, r)
            table, fixed = {}, fixed_pattern(p_c)
        (cheaters, _, cheat, branches), audited, tie, honest_win = _draw_branch(
            rng, p_a, p_c, fixed, weights, table, votes)
        if audited:
            p_a, aud, v, beta, reps, new = _audit(config, p_a, aud, v, beta, cheaters, cheat)
            reputations = reputations if reps == reputations else reps
            if new != weights:
                weights, votes = new, {}
        settled = branches.get((audited, honest_win))
        if settled is None:
            settled = branches[audited, honest_win] = [
                *settle(config, cheaters, audited, honest_win), None, None, None]
        if p_c != settled[3]:
            out = worker_update(p_c, settled[2])
            settled[3:] = p_c, out, fixed_pattern(out)
        majority, payoffs, _, _, p_c, fixed = settled
        trace.append(RoundOutcome(r, cheaters, audited, majority, tie, honest_win,
                                  payoffs, reputations, p_a, p_c))
    return trace
