"""Round loop: strategy draws, auditing, weighted majority and learning.

`_draw_branch` turns one round's uniforms into a branch (cheat pattern, audit
flag, vote) from the vote weights, which `vote_weights` reads with the
reputations each time they change: at the start of a run and in `_audit`.
When every p_c is 0 or 1 no uniform can move the cheat pattern, so the draw
step advances the generator past the strategy uniforms (`fixed_pattern`).
`run_simulation` records each round as its branch and the chain state
(`model.ExactState`) after it, picking each branch's learning steps once per
roster from the `settle` table and updating p_c only when it differs from
the branch's last input; the oracle's sampler counts its branches from one
fixed state.  The knobs are read from the config.
"""
from __future__ import annotations

import random
from dataclasses import replace

from . import reputation as rep
from .model import FIXED_PC, RoundOutcome, SystemConfig, WorkerType, clamp


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


def vote_weights(scheme, v, aud, beta) -> tuple:
    """(reputations, vote weights) of the counts: the same tuple twice, unless
    every reputation reads 0.0 (type 2 after ~1075 audits).  No reputation is
    negative and the two camps cover every worker, so that is exactly when
    both camps would sum to 0.0.  Then the weights read again at aud = max(v).
    Type 2 depends only on aud - v, so that divides every value by the same
    eps^(aud - max(v)): camps keep their ratio, and the best-validated worker
    reads above 0.0, so an empty camp never ties a non-empty one.  If they
    still all read 0.0 (type 3, every beta at error_bound), equal reputations
    weigh 1.0 each."""
    reps = rep.values(scheme, v, aud, beta)
    if any(reps):
        return reps, reps
    weights = rep.values(scheme, v, max(v), beta)
    return reps, weights if any(weights) else (1.0,) * len(reps)


def _draw_branch(rng, p_a, p_c, pattern, weights, camps):
    """One round's branch from the uniforms of the `random.Random` `rng`.

    Draw order: n strategy uniforms (ascending index), one audit uniform,
    then one tie uniform only if the vote ties; a `fixed_pattern(p_c)`
    `pattern` skips the first n with one `getrandbits(64 * n)`, the 2n
    32-bit words of n `random()` calls.  `camps` keeps each cheat pattern's
    [cheater set, honest indices, cheater indices, settled branches, weights,
    camp sums]: the sums of those weights, added in index order (see
    `reputation`), taken again when `weights` is another tuple.
    Returns (camps entry, audited, tie, honest_win).
    """
    if pattern is None:
        pattern = decide_strategies(p_c, rng.random)
    else:
        rng.getrandbits(64 * len(p_c))
    entry = camps.get(pattern)
    if entry is None:
        entry = camps[pattern] = [frozenset(i for i, c in enumerate(pattern) if c),
                                  [i for i, c in enumerate(pattern) if not c],
                                  [i for i, c in enumerate(pattern) if c], {}, None, None]
    if rng.random() < p_a:
        return entry, True, False, True
    if entry[4] is not weights:
        entry[4:] = weights, [sum(map(weights.__getitem__, members)) for members in entry[1:3]]
    rho_honest, rho_cheat = entry[5]
    tie = rho_honest == rho_cheat
    return entry, False, tie, rng.random() < 0.5 if tie else rho_honest > rho_cheat


def master_update(config: SystemConfig, p_a: float, rho_cheat: float,
                  rho_total: float) -> float:
    """Audit-probability reinforcement; call only after an audit."""
    if rho_total <= 0:
        raise ValueError("total reputation must be positive in an audited round")
    return clamp(p_a + config.alpha_m * (rho_cheat / rho_total - config.tau),
                 config.p_a_min, 1.0)


def worker_update(p_c: tuple, steps) -> tuple:
    """Every worker's cheat probability after its learning step, in [0, 1]."""
    return tuple([clamp(p - step, 0.0, 1.0) for p, step in zip(p_c, steps)])


def _audit(config: SystemConfig, p_a, aud, v, beta, cheaters, cheat):
    """An audited round's (p_a', aud', v', beta', reputations', weights'):
    the master reads the cheaters' share of the new vote weights.  `cheat`
    lists `cheaters` in index order."""
    scheme = config.scheme
    v, beta = rep.audit_updates(scheme, v, beta, cheaters)
    reputations, weights = vote_weights(scheme, v, aud + 1, beta)
    p_a = master_update(config, p_a, sum(map(weights.__getitem__, cheat)), sum(weights))
    return p_a, aud + 1, v, beta, reputations, weights


def settle(config: SystemConfig) -> dict:
    """Who earns what and how far each worker learns: (audited, honest_win) ->
    (payoffs, learning steps), one (honest, cheated) pair per worker; an
    audited round's honest_win is True.  Audited, caught cheaters pay `wpc`
    and the others earn their reward; after a vote only the winning camp
    earns.  Honest workers then pay the computing cost: a losing one earns
    0.0 - wct, 0.0 at wct = 0, where a caught cheater's -wpc reads -0.0.
    A rational worker's step lowers its p_c, before the clamp, by alpha_w
    times its payoff above its aspiration (raises it, if it cheated); the
    other types' step is 0.  No trace stores payoffs: this is their one rule."""
    wpc, wct, alpha_w = config.wpc, config.wct, config.alpha_w
    table = {}
    for audited, honest_win in ((True, True), (False, True), (False, False)):
        payoffs = [(w.wby - wct, -wpc if audited else 0.0) if honest_win
                   else (0.0 - wct, w.wby) for w in config.workers]
        table[audited, honest_win] = payoffs, [
            (alpha_w * (honest - w.aspiration) * 1.0, alpha_w * (cheated - w.aspiration) * -1.0)
            if w.wtype is WorkerType.RATIONAL and alpha_w != 0.0 else (0.0, 0.0)
            for w, (honest, cheated) in zip(config.workers, payoffs)]
    return table


def apply_role_changes(config: SystemConfig, p_c: tuple, round_: int):
    """Swap worker types scheduled for `round_`: returns (config', p_c').

    Only the type (and, for the predefined types, the cheat probability)
    changes; validation counts and error rates are left as they are.
    """
    due = [rc for rc in config.role_changes if rc.round == round_]
    workers, p_c = list(config.workers), list(p_c)
    for rc in due:
        workers[rc.worker] = replace(workers[rc.worker], wtype=rc.new_type)
        p_c[rc.worker] = FIXED_PC.get(rc.new_type, p_c[rc.worker])
    return replace(config, workers=workers), tuple(p_c)


def run_simulation(config: SystemConfig, seed: int) -> list:
    """Full deterministic run: one trace of RoundOutcome per round.

    A worker's learning step depends only on whether it cheated, the audit
    flag and which camp won, so `settle` tabulates it at the start and at a
    role change, and each branch (cheat pattern, audited, honest_win) picks
    its steps from that table once, by cheat flag (as a reader picks that
    round's payoffs).  A settled branch keeps its last
    `worker_update` input and output, and a round whose p_c equals that
    input takes that output, not the input: `clamp` maps -0.0 and 0.0 alike
    to 0.0, and no p_c is NaN.  The vote weights are read when the
    reputations change, and each cheat pattern's camp sums are tagged with
    the weights tuple they came from; an audit that leaves the weights equal
    keeps the old tuple, so no pattern sums again, and one that leaves the
    reputations equal keeps the old reputation tuple.  No reputation is -0.0
    and a NaN never equals itself, so equal tuples hold the same floats, and
    equal weights are added in the same order.
    `fixed_pattern` is read when p_c is set: at the start, at a role change
    and beside each `worker_update` output of a settled branch.
    Per round are left `_draw_branch`, `_audit` and p_c off a fixed point.
    """
    config.validate()
    rng = random.Random(seed)
    scheme = config.scheme
    state = config.initial_state()
    p_a, aud, p_c, v, beta = state.p_a, state.aud, state.p_c, state.v, state.beta
    reputations, weights = vote_weights(scheme, v, aud, beta)
    change_rounds = {rc.round for rc in config.role_changes}
    table, trace, fixed, rules = {}, [], fixed_pattern(p_c), settle(config)
    for r in range(config.horizon):
        if r in change_rounds:
            config, p_c = apply_role_changes(config, p_c, r)
            table, fixed, rules = {}, fixed_pattern(p_c), settle(config)
        (cheaters, _, cheat, branches, _, _), audited, tie, honest_win = _draw_branch(
            rng, p_a, p_c, fixed, weights, table)
        if audited:
            p_a, aud, v, beta, reps, new = _audit(config, p_a, aud, v, beta, cheaters, cheat)
            reputations = reputations if reps == reputations else reps
            weights = weights if new == weights else new
        settled = branches.get((audited, honest_win))
        if settled is None:
            settled = branches[audited, honest_win] = [
                [pair[i in cheaters] for i, pair in enumerate(rules[audited, honest_win][1])],
                None, None, None]
        if p_c != settled[1]:
            out = worker_update(p_c, settled[0])
            settled[1:] = p_c, out, fixed_pattern(out)
        _, _, p_c, fixed = settled
        trace.append(RoundOutcome(cheaters, audited, tie, honest_win, reputations, p_a, p_c))
    return trace
