from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repsim import oracle
from repsim.engine import Branch
from repsim.model import WorkerSpec
from conftest import make_config

TOL = 1e-12


def exact_state(cfg):
    return oracle.state_from_config(cfg)


def mixed_config():
    cfg = make_config(n=3, scheme="type2", p_c0=1.0)
    cfg.workers = [replace(w, p_c0=p)
                   for w, p in zip(cfg.workers, (0.3, 0.5, 0.8))]
    return cfg.validate()


class TestCheaterSets:
    def test_all_subsets_enumerated(self):
        state = exact_state(mixed_config())
        sets = oracle.cheater_set_probabilities(state)
        assert len(sets) == 8
        assert abs(sum(p for _, p in sets) - 1.0) < TOL

    def test_degenerate_probabilities_prune(self):
        cfg = make_config(n=2, scheme="none", p_c0=1.0)
        sets = oracle.cheater_set_probabilities(exact_state(cfg))
        assert sets == [(frozenset({0, 1}), 1.0)]


class TestEnumeration:
    def test_distribution_sums_to_one(self):
        dist = oracle.enumerate_transitions(mixed_config(), exact_state(mixed_config()))
        assert abs(dist.total() - 1.0) < TOL

    def test_deterministic_state_single_branch(self):
        cfg = make_config(n=2, scheme="none", p_c0=1.0, p_a0=1.0)
        dist = oracle.enumerate_transitions(cfg, exact_state(cfg))
        assert len(dist.successors) == 1
        prob, branch, _ = dist.successors[0]
        assert prob == 1.0 and branch.audited

    def test_tie_splits_into_half_branches(self):
        cfg = make_config(n=2, scheme="none", p_a0=0.0, p_a_min=0.0)
        cfg.workers = [WorkerSpec(p_c0=1.0), WorkerSpec(p_c0=0.0)]
        cfg.validate()
        dist = oracle.enumerate_transitions(cfg, exact_state(cfg))
        outcomes = sorted((b.tie_outcome, p) for p, b, _ in dist.successors)
        assert outcomes == [(False, 0.5), (True, 0.5)]

    def test_mass_defect_raises(self, monkeypatch):
        # a cheater-set table that loses a tenth of the mass must be caught
        # by a check that python -O keeps
        real = oracle.cheater_set_probabilities
        monkeypatch.setattr(oracle, "cheater_set_probabilities",
                            lambda state: [(f, 0.9 * p) for f, p in real(state)])
        cfg = mixed_config()
        with pytest.raises(RuntimeError, match="mass"):
            oracle.enumerate_transitions(cfg, exact_state(cfg))

    def test_roster_bound(self):
        cfg = make_config(n=3, scheme="none")
        with pytest.raises(oracle.OracleBoundError):
            oracle.enumerate_transitions(cfg, exact_state(cfg), max_workers=2)

    @settings(max_examples=30, deadline=None)
    @given(p_cs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3),
           p_a0=st.floats(0.0, 1.0),
           scheme=st.sampled_from(["type1", "type2", "type3", "none"]))
    def test_total_mass_always_one(self, p_cs, p_a0, scheme):
        cfg = make_config(n=len(p_cs), scheme=scheme, p_a0=p_a0, p_a_min=0.0)
        cfg.workers = [replace(w, p_c0=p) for w, p in zip(cfg.workers, p_cs)]
        cfg.validate()
        dist = oracle.enumerate_transitions(cfg, exact_state(cfg))
        assert abs(dist.total() - 1.0) < TOL


class TestReachProbability:
    def single_worker(self):
        return make_config(n=1, scheme="none", p_c0=0.5,
                           p_a0=0.0, p_a_min=0.0)

    def test_immediate_hit(self):
        cfg = self.single_worker()
        assert oracle.reach_probability(cfg, exact_state(cfg),
                                        lambda s: True, horizon=5) == 1.0

    def test_hand_computed_mass(self):
        # lone worker, never audited: cheating wins every vote, so
        # p_c moves +0.09 on a cheat and -0.08 on an honest round
        cfg = self.single_worker()
        pred = lambda s: s.p_c[0] > 0.55
        start = exact_state(cfg)
        assert abs(oracle.reach_probability(cfg, start, pred, 1) - 0.5) < TOL
        assert abs(oracle.reach_probability(cfg, start, pred, 2) - 0.5) < TOL
        expected3 = 0.5 + 0.5 * 0.42 * 0.51
        assert abs(oracle.reach_probability(cfg, start, pred, 3) - expected3) < TOL

    def test_budget_carries_lower_bound(self):
        cfg = make_config(n=3, scheme="type2", p_c0=0.5)
        with pytest.raises(oracle.OracleBoundError) as exc:
            oracle.reach_probability(cfg, exact_state(cfg),
                                     lambda s: all(p == 0.0 for p in s.p_c),
                                     horizon=50, max_states=50)
        assert 0.0 <= exc.value.lower_bound <= 1.0


class TestClosedSets:
    def test_all_cheat_closed_without_audits(self):
        cfg = make_config(n=2, scheme="none", p_c0=1.0, p_a0=0.0, p_a_min=0.0)
        state = exact_state(cfg)
        assert oracle.check_closed(cfg, [state],
                                   lambda s: all(p == 1.0 for p in s.p_c))

    def test_escape_reported(self):
        # auditing punishes the cheaters, so the all-cheat set leaks
        cfg = make_config(n=2, scheme="none", p_c0=1.0, p_a0=1.0)
        got = oracle.find_escape(cfg, [exact_state(cfg)],
                                 lambda s: all(p == 1.0 for p in s.p_c))
        assert got is not None
        state, branch, succ = got
        assert branch.audited and any(p < 1.0 for p in succ.p_c)

    def test_seed_outside_set_rejected(self):
        cfg = make_config(n=2, scheme="none", p_c0=0.5)
        with pytest.raises(ValueError):
            oracle.find_escape(cfg, [exact_state(cfg)],
                               lambda s: all(p == 1.0 for p in s.p_c))


class TestEngineAgreement:
    def test_sampler_matches_enumeration(self):
        cfg = mixed_config()
        report = oracle.compare_engine_distribution(cfg, exact_state(cfg),
                                                    samples=20_000)
        assert report.passed
        assert report.samples == 20_000

    def test_corrupted_sampler_detected(self):
        cfg = mixed_config()
        state = exact_state(cfg)
        counts = oracle.sample_round_keys(cfg, state, 20_000, p_a_scale=0.5)
        report = oracle.compare_engine_distribution(cfg, state, counts=counts)
        assert not report.passed

    def test_impossible_outcome_is_certain_failure(self):
        cfg = mixed_config()
        state = exact_state(cfg)
        counts = {Branch(frozenset({0, 1, 2}), True, True): 100}
        report = oracle.compare_engine_distribution(cfg, state, counts=counts)
        assert not report.passed and report.p_value == 0.0
