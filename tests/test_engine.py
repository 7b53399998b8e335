import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repsim import engine, reputation as rep
from repsim.model import ExactState, RoleChange, SystemConfig, WorkerSpec, WorkerType
from conftest import make_config

TOL = 1e-12


def successor(cfg, cheaters, audited, tie_coin=None):
    return engine.round_successor(cfg, cfg.initial_state(), frozenset(cheaters),
                                  audited, tie_coin)


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
        assert rep.value(rep.Type2(), 5, 1200) == 0.0
        assert engine.weighted_majority(rep.Type2(), state, frozenset({1, 2})) == (
            1.0, 0.5, False)
        assert engine.weighted_majority(rep.Type2(), state, frozenset({0, 1, 2})) == (
            0.0, 1.5, False)


class TestRoundRng:
    """Draw order: n strategy uniforms, one audit uniform, tie coin on demand."""

    def test_no_tie_draw_count(self):
        cfg = make_config(n=3, scheme="none", p_c0=0.0, p_a0=0.5)
        rng = random.Random(11)
        engine.run_round(cfg, cfg.initial_state(), rng)
        mirror = random.Random(11)
        for _ in range(4):
            mirror.random()
        assert rng.random() == mirror.random()

    def test_tie_consumes_extra_draw(self):
        cfg = make_config(n=2, scheme="none", p_c0=1.0, p_a0=0.0, p_a_min=0.0)
        cfg.workers[1] = WorkerSpec(wtype=WorkerType.ALTRUISTIC)
        rng = random.Random(11)
        _, branch, out = engine.run_round(cfg, cfg.initial_state(), rng)
        assert out.tie_broken and branch.tie_outcome is not None
        mirror = random.Random(11)
        for _ in range(4):
            mirror.random()
        assert rng.random() == mirror.random()

    def test_missing_tie_coin_rejected(self):
        cfg = make_config(n=2, scheme="none")
        with pytest.raises(ValueError):
            successor(cfg, {0}, False)


def test_role_change_keeps_audit_record():
    cfg = make_config(n=2, scheme="type2", p_c0=0.3)
    cfg.role_changes = [RoleChange(round=0, worker=0,
                                   new_type=WorkerType.MALICIOUS)]
    state = replace(cfg.initial_state(), aud=4, v=(4, 2))
    new_cfg, new_state = engine.apply_role_changes(cfg, state, 0)
    assert new_cfg.workers[0].wtype is WorkerType.MALICIOUS
    assert cfg.workers[0].wtype is WorkerType.RATIONAL
    assert new_state.p_c == (1.0, 0.3)
    assert new_state.v == (4, 2) and new_state.aud == 4
    assert engine.apply_role_changes(cfg, state, 1) == (cfg, state)


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
    for o in trace:
        assert cfg.p_a_min <= o.p_a_after <= 1.0
        assert all(0.0 <= p <= 1.0 for p in o.p_c_after)
        assert all(0.0 <= r <= 1.0 for r in o.reputations_after)
        assert len(o.payoffs) == n
        if o.audited:
            assert o.accepted_correct and not o.majority_set
