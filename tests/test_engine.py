import math
import random
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from repsim import engine, oracle, reputation as rep, scenarios
from repsim.model import (MAX_ROSTER, SETTINGS, ExactState, RoleChange, SystemConfig,
                          WorkerSpec, WorkerType)
from conftest import (make_config, pick_branch, reference_settle, round_successor, run_round,
                      weighted_majority)

TOL = 1e-12


def successor(cfg, cheaters, audited, tie_coin=None):
    return round_successor(cfg, cfg.initial_state(), frozenset(cheaters), audited,
                           tie_coin)


class TestLearningDeltas:
    """The six one-round cheat-probability updates, at the default knobs.

    Rosters use the constant reputation scheme so the majority is decided
    by camp size alone (3 workers: two cheaters win, one loses).
    """

    # (cheater set, audited, worker index, expected p_c delta)
    CASES = [
        (frozenset({0}), True, 0, -0.01),        # caught cheating
        (frozenset({0}), True, 1, -0.08),        # honest under audit
        (frozenset({0, 1}), False, 0, +0.09),    # cheated, cheaters won
        (frozenset({0}), False, 0, -0.01),       # cheated, cheaters lost
        (frozenset({0, 1}), False, 2, +0.02),    # honest, honest lost
        (frozenset({0}), False, 2, -0.08),       # honest, honest won
    ]

    @pytest.mark.parametrize("cheaters,audited,idx,delta", CASES)
    def test_delta(self, cheaters, audited, idx, delta):
        cfg = make_config(n=3, scheme="none", p_c0=0.5)
        state, _, _ = successor(cfg, cheaters, audited)
        assert abs(state.p_c[idx] - (0.5 + delta)) < TOL

    def test_punishment_deepens_caught_penalty(self):
        cfg = make_config(n=3, scheme="none", p_c0=0.5, wpc=1.0)
        state, _, _ = successor(cfg, {0}, True)
        assert abs(state.p_c[0] - (0.5 - 0.11)) < TOL

    def test_probabilities_clamped(self):
        cfg = make_config(n=3, scheme="none", p_c0=0.995)
        state, _, _ = successor(cfg, {0, 1}, False)
        assert state.p_c[0] == 1.0
        low = make_config(n=3, scheme="none", p_c0=0.005)
        state, _, _ = successor(low, {0}, True)
        assert state.p_c[1] == 0.0

    def test_non_rational_workers_never_learn(self):
        cfg = make_config(n=3, scheme="none")
        cfg.workers[0] = WorkerSpec(wtype=WorkerType.MALICIOUS)
        cfg.workers[1] = WorkerSpec(wtype=WorkerType.ALTRUISTIC)
        state, _, _ = successor(cfg, {0}, True)
        assert state.p_c[0] == 1.0
        assert state.p_c[1] == 0.0

    def test_zero_worker_rate_never_learns(self):
        # payoff - aspiration overflows to inf here; 0 * inf must not move p_c
        cfg = SystemConfig(workers=[WorkerSpec(WorkerType.RATIONAL, 0.5, -1e308, 1e308)] * 3,
                           alpha_w=0.0, horizon=3, seeds=(1,)).validate()
        trace = engine.run_simulation(cfg, seed=1)
        assert [o.p_c_after for o in trace] == [(0.5, 0.5, 0.5)] * 3


class TestMasterUpdate:
    def test_reinforcement(self):
        cfg = SystemConfig(tau=0.5, alpha_m=0.1)
        p_a = engine.master_update(cfg, 0.5, rho_cheat=0.9, rho_total=1.0)
        assert abs(p_a - (0.5 + 0.1 * (0.9 - 0.5))) < TOL

    def test_floor_and_ceiling(self):
        cfg = SystemConfig(p_a_min=0.01, tau=0.5, alpha_m=0.1)
        assert engine.master_update(cfg, 0.011, 0.0, 1.0) == 0.01
        cfg = SystemConfig(tau=0.0, alpha_m=1.0)
        assert engine.master_update(cfg, 0.99, 1.0, 1.0) == 1.0

    def test_zero_total_rejected(self):
        with pytest.raises(ValueError):
            engine.master_update(SystemConfig(), 0.5, 0.0, 0.0)

    def test_audit_refreshes_reputations_before_ratio(self):
        # first audit, worker 0 caught: the ratio uses the post-audit values
        # 0.5/(0.5+1), not the uniform pre-audit 0.5/1.0
        cfg = make_config(n=2, scheme="type2", p_c0=0.5)
        state, _, _ = successor(cfg, {0}, True)
        assert abs(state.p_a - 0.48333333333333334) < TOL
        assert state.aud == 1
        assert state.v == (0, 1)

    def test_underflowed_type2_share_stays_exact(self):
        # 3 malicious workers: every reputation is 0.5**aud, which reaches
        # 0.0 after ~1075 audits; the cheaters' share must still read 1
        cfg = SystemConfig(workers=[WorkerSpec(WorkerType.MALICIOUS, 1.0)] * 3,
                           scheme=rep.Type2(), horizon=1500, seeds=(1,)).validate()
        trace = engine.run_simulation(cfg, seed=1)
        assert len(trace) == 1500
        assert all(r == 0.0 for r in trace[-1].reputations_after)
        assert all(cfg.p_a_min <= o.p_a_after <= 1.0 for o in trace)
        assert trace[-1].p_a_after == 1.0


class TestUnderflowedVote:
    """Once every type 2 reputation reads 0.0, the vote re-reads the camps
    at aud = max(v) instead of calling a 0.0-vs-0.0 tie."""

    def test_all_cheat_rounds_never_accepted_correct(self):
        # tau = 1 keeps p_a at 0.5, so unaudited rounds continue after every
        # reputation has underflowed (from round 2120 on seed 1)
        cfg = SystemConfig(workers=[WorkerSpec(WorkerType.MALICIOUS, 1.0)] * 3,
                           scheme=rep.Type2(), tau=1.0, horizon=3000,
                           seeds=(1,)).validate()
        trace = engine.run_simulation(cfg, seed=1)
        assert all(r == 0.0 for r in trace[2120].reputations_after)
        unaudited = [o for o in trace[2120:] if not o.audited]
        assert unaudited
        assert not any(o.accepted_correct or o.tie_broken for o in unaudited)

    def test_best_validated_camp_wins(self):
        state = ExactState(p_a=0.5, aud=1200, p_c=(0.5,) * 3, v=(5, 3, 3),
                           beta=(0.0,) * 3)
        # every reputation underflows, but worker 0's stands 4 to 1 over the others
        assert rep.values(rep.Type2(), state.v, state.aud, state.beta) == (0.0,) * 3
        assert weighted_majority(rep.Type2(), state, frozenset({1, 2})) == (
            1.0, 0.5, False)
        assert weighted_majority(rep.Type2(), state, frozenset({0, 1, 2})) == (
            0.0, 1.5, False)


def draw_branch(cfg, rng):
    """The engine's draw step, once from the config's start state."""
    s = cfg.initial_state()
    weights = engine.reread_underflow(cfg.scheme, s.v, s.beta,
                                      rep.values(cfg.scheme, s.v, s.aud, s.beta))
    return engine._draw_branch(rng, s.p_a, s.p_c, engine.fixed_pattern(s.p_c), weights,
                               {}, {})


class TestRoundRng:
    """Draw order: n strategy uniforms, one audit uniform, tie coin on demand."""

    def test_no_tie_draw_count(self):
        cfg = make_config(n=3, scheme="none", p_c0=0.0, p_a0=0.5)
        rng = random.Random(11)
        draw_branch(cfg, rng)
        mirror = random.Random(11)
        for _ in range(4):
            mirror.random()
        assert rng.random() == mirror.random()

    def test_tie_consumes_extra_draw(self):
        cfg = make_config(n=2, scheme="none", p_c0=1.0, p_a0=0.0, p_a_min=0.0)
        cfg.workers[1] = WorkerSpec(wtype=WorkerType.ALTRUISTIC)
        rng = random.Random(11)
        _, audited, tie, _ = draw_branch(cfg, rng)
        assert tie and not audited
        mirror = random.Random(11)
        for _ in range(4):
            mirror.random()
        assert rng.random() == mirror.random()

    def test_missing_tie_coin_rejected(self):
        cfg = make_config(n=2, scheme="none")
        with pytest.raises(ValueError):
            successor(cfg, {0}, False)


def test_role_change_keeps_audit_record():
    # a role change sees only the roster and p_c, so it cannot touch the
    # audit record; the whole-run tests below rebuild that record across one
    cfg = make_config(n=2, scheme="type2", p_c0=0.3)
    cfg.role_changes = [RoleChange(round=0, worker=0,
                                   new_type=WorkerType.MALICIOUS)]
    p_c = cfg.initial_state().p_c
    new_cfg, new_p_c = engine.apply_role_changes(cfg, p_c, 0)
    assert new_cfg.workers[0].wtype is WorkerType.MALICIOUS
    assert cfg.workers[0].wtype is WorkerType.RATIONAL
    assert new_p_c == (1.0, 0.3)
    assert engine.apply_role_changes(cfg, p_c, 1) == (cfg, p_c)


def test_run_simulation_deterministic():
    cfg = make_config(n=4, scheme="type2", p_c0=1.0, horizon=60)
    a = engine.run_simulation(cfg, seed=5)
    b = engine.run_simulation(cfg, seed=5)
    assert a == b
    c = engine.run_simulation(cfg, seed=6)
    assert a != c


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 4),
       p_c0=st.floats(0.0, 1.0),
       scheme=st.sampled_from(["type1", "type2", "type3", "none"]),
       seed=st.integers(0, 10_000))
def test_run_invariants(n, p_c0, scheme, seed):
    cfg = make_config(n=n, scheme=scheme, p_c0=p_c0, horizon=30)
    trace = engine.run_simulation(cfg, seed)
    assert len(trace) == 30
    rules = engine.settle(cfg)
    for o in trace:
        assert cfg.p_a_min <= o.p_a_after <= 1.0
        assert all(0.0 <= p <= 1.0 for p in o.p_c_after)
        assert all(0.0 <= r <= 1.0 for r in o.reputations_after)
        majority, payoffs, _ = pick_branch(rules, o.cheater_set, o.audited, o.accepted_correct)
        assert len(payoffs) == n
        if o.audited:
            assert o.accepted_correct and not majority and not o.tie_broken
        else:   # the camp that won the vote weighs no less than the other
            rho = [sum(o.reputations_after[i] for i in range(n) if (i in majority) == won)
                   for won in (True, False)]
            assert rho[0] >= rho[1] and (rho[0] == rho[1]) == o.tie_broken


def assert_kernel_invariants(cfg, trace):
    """Per round: v <= aud, and reputations_after equal to rep.values of the
    counts rebuilt from the trace's audited rounds and cheater sets."""
    scheme, n = cfg.scheme, cfg.n
    v, beta, aud = (0,) * n, (scheme.beta_init,) * n, 0
    for o in trace:
        if o.audited:
            aud += 1
            v, beta = rep.audit_updates(scheme, v, beta, o.cheater_set)
        assert all(v_i <= aud for v_i in v)
        assert o.reputations_after == rep.values(scheme, v, aud, beta)


#: Every scheme at its defaults and at its bounds: type 2 with epsilon next to
#: 0 and next to 1, type 3 starting at its error bound, where an audit that
#: finds everyone truthful leaves every reputation at 0.0 under decay 1.
SCHEMES = [rep.Type1(), rep.Type2(), rep.Type3(), rep.NoReputation(),
           rep.Type2(epsilon=math.nextafter(0.0, 1.0)),
           rep.Type2(epsilon=math.nextafter(1.0, 0.0)),
           rep.Type3(error_bound=0.05, beta_init=0.05, decay=0.0),
           rep.Type3(error_bound=0.05, beta_init=0.05, decay=1.0)]


@st.composite
def mixed_configs(draw):
    n = draw(st.integers(1, 5))
    workers = [WorkerSpec(wtype=draw(st.sampled_from(list(WorkerType))),
                          p_c0=draw(st.floats(0.0, 1.0)),
                          wby=draw(st.sampled_from([1.0, 0.1])))
               for _ in range(n)]
    changes = draw(st.lists(st.builds(RoleChange, st.integers(0, 150),
                                      st.integers(0, n - 1),
                                      st.sampled_from(list(WorkerType))), max_size=3))
    p_a_min = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    return SystemConfig(workers=workers, scheme=draw(st.sampled_from(SCHEMES)),
                        p_a0=draw(st.floats(p_a_min, 1.0)), p_a_min=p_a_min,
                        tau=draw(st.floats(0.0, 1.0)), horizon=draw(st.integers(0, 200)),
                        seeds=(1,), role_changes=changes).validate()


def stepped_trace(cfg, seed):
    """run_simulation's trace from the test reference round: nothing carried
    over between rounds, roles checked every round."""
    rng, state, trace = random.Random(seed), cfg.initial_state(), []
    for r in range(cfg.horizon):
        cfg, p_c = engine.apply_role_changes(cfg, state.p_c, r)
        state = replace(state, p_c=p_c)
        state, _, outcome = run_round(cfg, state, rng)
        trace.append(outcome)
    return trace


def assert_same_trace(trace, reference):
    """Round by round, the same repr: -0.0 == 0.0, yet the two print
    differently in a trace file."""
    assert len(trace) == len(reference)
    for got, want in zip(trace, reference):
        assert repr(got) == repr(want)


@settings(max_examples=60, deadline=None)
@given(cfg=mixed_configs(), seed=st.integers(0, 10_000))
# three altruists under type 3 at its error bound: every reputation reads 0.0
# from the first audit on
@example(cfg=SystemConfig(workers=[WorkerSpec(WorkerType.ALTRUISTIC)] * 3, scheme=SCHEMES[-1],
                          horizon=50, seeds=(1,)), seed=1)
# two rational workers that never learn, starting at -0.0: their first
# update prints 0, so a round at the fixed point must not hand on the input
@example(cfg=SystemConfig(workers=[WorkerSpec(WorkerType.RATIONAL, -0.0)] * 2
                          + [WorkerSpec(WorkerType.MALICIOUS, 1.0)] * 2,
                          scheme=rep.NoReputation(), alpha_w=0.0, horizon=50, seeds=(1,)),
         seed=1)
def test_kernel_invariants(cfg, seed):
    trace = engine.run_simulation(cfg, seed)
    assert len(trace) == cfg.horizon
    assert_kernel_invariants(cfg, trace)
    assert_same_trace(trace, stepped_trace(cfg, seed))
    # the exact chain from the initial state and from one audited successor,
    # for the starting roster: the oracle rejects role changes
    chain = replace(cfg, role_changes=[])
    dist = oracle.enumerate_transitions(chain, cfg.initial_state())
    audited = [state for _, branch, state in dist.successors if branch.audited]
    for dist in [dist] + [oracle.enumerate_transitions(chain, s) for s in audited[:1]]:
        assert abs(dist.total() - 1.0) <= oracle.PROB_TOL


def test_kernel_invariants_underflowed_type2():
    # three malicious workers: p_a climbs to 1 and every reputation reads
    # 0.0 from about audit 1075 on
    cfg = SystemConfig(workers=[WorkerSpec(WorkerType.MALICIOUS, 1.0)] * 3,
                       scheme=rep.Type2(), horizon=1200, seeds=(1,)).validate()
    trace = engine.run_simulation(cfg, seed=1)
    assert trace[-1].reputations_after == (0.0, 0.0, 0.0)
    assert_kernel_invariants(cfg, trace)
    assert_same_trace(trace, stepped_trace(cfg, 1))

    # three rational workers that never learn, audited at p_a 0.8: both camps
    # vote after the underflow, which a 0.0-vs-0.0 reading would call a tie
    cfg = SystemConfig(workers=[WorkerSpec(WorkerType.RATIONAL, 0.9)] * 3,
                       scheme=rep.Type2(), alpha_w=0.0, tau=1.0, p_a0=0.8,
                       p_a_min=0.8, horizon=2000, seeds=(1,)).validate()
    trace = engine.run_simulation(cfg, seed=1)
    assert any(trace[1506].reputations_after)
    assert not any(r for o in trace[1507:] for r in o.reputations_after)
    split = [o for o in trace[1507:] if not o.audited and 0 < len(o.cheater_set) < 3]
    assert len(split) == 37
    assert not any(o.tie_broken for o in split)
    assert sum(o.accepted_correct for o in split) == 12
    assert_kernel_invariants(cfg, trace)
    assert_same_trace(trace, stepped_trace(cfg, 1))


def test_kernel_invariants_dynamic500_type2():
    # five workers turn malicious at round 500: the branch tables are rebuilt
    cfg = scenarios.get_scenario("dynamic500-type2")
    assert cfg.role_changes and cfg.horizon > 500
    trace = engine.run_simulation(cfg, seed=1)
    assert len(trace) == cfg.horizon
    assert_kernel_invariants(cfg, trace)
    assert_same_trace(trace, stepped_trace(cfg, 1))


def alt4_mal4_none(horizon):
    """Four altruistic against four malicious workers, no reputation: the
    camps weigh the same, so every unaudited round ties."""
    return SystemConfig(workers=[WorkerSpec(WorkerType.ALTRUISTIC, 0.0)] * 4
                        + [WorkerSpec(WorkerType.MALICIOUS, 1.0)] * 4,
                        scheme=rep.NoReputation(), horizon=horizon, seeds=(1,)).validate()


@pytest.mark.parametrize("cfg", [scenarios.get_scenario("dynamic500-none"), alt4_mal4_none(2000)],
                         ids=["dynamic500-none", "alt4-mal4-none"])
def test_kernel_invariants_constant_weights(cfg):
    # audits that leave every vote weight as it was, and ties between them
    assert cfg.horizon == 2000
    trace = engine.run_simulation(cfg, seed=1)
    assert_kernel_invariants(cfg, trace)
    assert_same_trace(trace, stepped_trace(cfg, 1))


def count_strategy_draws(monkeypatch):
    """The p_c of every `decide_strategies` call from here on."""
    calls, decide = [], engine.decide_strategies
    monkeypatch.setattr(engine, "decide_strategies",
                        lambda p_c, draw: calls.append(p_c) or decide(p_c, draw))
    return calls


def test_fixed_points_skip_worker_update(monkeypatch):
    # no worker learns, so each settled branch updates p_c once; every p_c
    # is 0 or 1, so no round draws a strategy
    cfg, calls = alt4_mal4_none(2000), []
    update = engine.worker_update
    monkeypatch.setattr(engine, "worker_update", lambda *args: calls.append(args) or update(*args))
    draws = count_strategy_draws(monkeypatch)
    trace = engine.run_simulation(cfg, seed=1)
    branches = {(o.cheater_set, o.audited, o.accepted_correct) for o in trace}
    assert 0 < len(calls) <= len(branches)
    assert draws == []
    assert sum(o.tie_broken for o in trace) > 500
    assert_same_trace(trace, stepped_trace(cfg, 1))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, MAX_ROSTER), seed=st.integers(0, 2 ** 64))
@example(n=1, seed=0)
@example(n=MAX_ROSTER, seed=1)
def test_getrandbits_skips_the_strategy_uniforms(n, seed):
    # the fixed-pattern draw advances the generator as far as n random() calls
    skipped, drawn = random.Random(seed), random.Random(seed)
    skipped.getrandbits(64 * n)
    for _ in range(n):
        drawn.random()
    assert skipped.getstate() == drawn.getstate()


#: The cheat probabilities that fix a worker's strategy, -0.0 and the int 1
#: among them.
EXTREMES = st.sampled_from([0.0, -0.0, 1.0, 1])
UNIFORMS = st.floats(0.0, 1.0, exclude_max=True) | st.sampled_from([0.0, math.nextafter(1.0, 0.0)])


@settings(max_examples=200, deadline=None)
@given(p_c=st.lists(EXTREMES, min_size=1, max_size=12), data=st.data())
def test_fixed_pattern_is_every_uniforms_pattern(p_c, data):
    uniforms = data.draw(st.lists(UNIFORMS, min_size=len(p_c), max_size=len(p_c)))
    assert engine.fixed_pattern(tuple(p_c)) == engine.decide_strategies(
        tuple(p_c), iter(uniforms).__next__)


@settings(max_examples=200, deadline=None)
@given(p_c=st.lists(EXTREMES, max_size=11), inner=st.floats(0.0, 1.0, exclude_min=True,
                                                            exclude_max=True),
       data=st.data())
def test_fixed_pattern_none_inside_unit_interval(p_c, inner, data):
    p_c.insert(data.draw(st.integers(0, len(p_c))), inner)
    assert engine.fixed_pattern(tuple(p_c)) is None


def test_strategies_drawn_until_rational_workers_settle(monkeypatch):
    cfg = scenarios.get_scenario("mal4-rat5-type2")
    reference = stepped_trace(cfg, 1)
    calls = count_strategy_draws(monkeypatch)
    trace = engine.run_simulation(cfg, seed=1)
    assert_same_trace(trace, reference)
    # the p_c each round draws from; the rational workers settle at `settled`
    entering = [cfg.initial_state().p_c] + [o.p_c_after for o in trace[:-1]]
    free = [engine.fixed_pattern(p_c) is None for p_c in entering]
    settled = max(r for r, f in enumerate(free) if f) + 1
    assert 0 < settled < cfg.horizon // 2
    assert calls == [p_c for p_c, f in zip(entering, free) if f]


def test_fixed_pattern_read_when_p_c_is_set(monkeypatch):
    # once at the start and once per worker_update output, never per round
    cfg, patterns, updates = scenarios.get_scenario("dynamic500-type2"), [], []
    fixed, update = engine.fixed_pattern, engine.worker_update
    monkeypatch.setattr(engine, "fixed_pattern", lambda p_c: patterns.append(p_c) or fixed(p_c))
    monkeypatch.setattr(engine, "worker_update", lambda *args: updates.append(args) or update(*args))
    engine.run_simulation(cfg, seed=1)
    changes = {rc.round for rc in cfg.role_changes}
    assert changes and 0 < len(updates) < cfg.horizon
    assert len(patterns) == 1 + len(changes) + len(updates)


def test_equal_audit_keeps_reputation_tuple():
    trace = engine.run_simulation(scenarios.get_scenario("dynamic500-none"), seed=1)
    first = next(r for r, o in enumerate(trace) if o.audited)
    assert first < 10
    assert len({id(o.reputations_after) for o in trace[first:]}) == 1


#: Payoff and learning knobs, 0.0 among them: at wpc = 0 a caught cheater
#: earns -0.0, at wct = 0 a losing honest worker 0.0 - 0.0.
KNOBS = st.sampled_from([0.0, 0.1, 1.0]) | st.floats(0.0, 10.0)


@settings(max_examples=100, deadline=None)
@given(workers=st.lists(st.builds(WorkerSpec, st.sampled_from(list(WorkerType)),
                                  aspiration=st.sampled_from([0.0, -0.0, 0.1, -0.5])
                                  | st.floats(-10.0, 10.0), wby=KNOBS),
                        min_size=1, max_size=5),
       wpc=KNOBS, wct=KNOBS, alpha_w=KNOBS)
@example(workers=[WorkerSpec(), WorkerSpec(WorkerType.MALICIOUS, aspiration=-0.5)],
         wpc=0.0, wct=0.1, alpha_w=0.1)
@example(workers=[WorkerSpec(), WorkerSpec(WorkerType.ALTRUISTIC, wby=0.0)],
         wpc=1.0, wct=0.0, alpha_w=0.1)
def test_settle_table_is_the_reference_rule(workers, wpc, wct, alpha_w):
    # every branch of every cheater set, picked from one table, bit for bit
    config = SystemConfig(workers=workers, wpc=wpc, wct=wct, alpha_w=alpha_w)
    rules = engine.settle(config)
    for cheaters in oracle._cheater_sets(len(workers)):
        for audited, honest_win in ((True, True), (False, True), (False, False)):
            assert repr(pick_branch(rules, cheaters, audited, honest_win)) == repr(
                reference_settle(config, cheaters, audited, honest_win))


def test_settle_runs_once_per_roster(monkeypatch):
    # once at the start and once per role change, and once per oracle call
    calls, settle = [], engine.settle
    monkeypatch.setattr(engine, "settle", lambda config: calls.append(config) or settle(config))
    cfg = scenarios.get_scenario("dynamic500-type2")
    engine.run_simulation(cfg, seed=1)
    assert len({rc.round for rc in cfg.role_changes}) == 1 and len(calls) == 2
    calls.clear()
    cfg = make_config(3, "type2", p_c0=0.5)
    for _ in range(2):
        oracle.enumerate_transitions(cfg, cfg.initial_state())
    assert len(calls) == 2


#: Values at the bounds of the float settings and the type 3 parameters:
#: zero, the least subnormal, a default-sized value, one and near the largest.
BOUNDS = (0.0, 5e-324, 0.05, 1.0, 1e308)


@st.composite
def type3_at_bounds(draw):
    """Three rational workers at p_c0 0.5 under type 3, every float of
    `SETTINGS` and every type 3 parameter drawn from `BOUNDS` in its range."""
    values = {}
    for key in sorted(SETTINGS, key=lambda k: isinstance(SETTINGS[k][2], str)):
        attr, kind, lo, hi = SETTINGS[key]
        lo = values[lo] if isinstance(lo, str) else lo
        if kind is float:
            values[attr] = draw(st.sampled_from([b for b in BOUNDS if lo <= b <= hi]))
    scheme = rep.Type3(**{attr: draw(st.sampled_from(BOUNDS[1:] if attr == "error_bound"
                                                     else BOUNDS))
                          for attr in rep.scheme_params(rep.Type3).values()})
    return SystemConfig(workers=[WorkerSpec()] * 3, scheme=scheme, horizon=40, seeds=(1,),
                        **values).validate()


@settings(max_examples=60, deadline=None)
@given(cfg=type3_at_bounds())
# a caught worker's beta overflows to inf; a truthful audit under decay 0
# then made it inf * 0, a NaN reputation from round 7 on
@example(cfg=SystemConfig(workers=[WorkerSpec()] * 3,
                          scheme=rep.Type3(beta_init=1e308, increment=1e308, decay=0.0),
                          horizon=40, seeds=(1,)))
def test_type3_trace_finite_at_bounds(cfg):
    rules = engine.settle(cfg)
    for o in engine.run_simulation(cfg, seed=1):
        _, payoffs, _ = pick_branch(rules, o.cheater_set, o.audited, o.accepted_correct)
        assert all(map(math.isfinite, (*payoffs, *o.reputations_after,
                                       o.p_a_after, *o.p_c_after))), o
