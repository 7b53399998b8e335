import itertools
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repsim import engine, oracle, reputation as rep
from repsim.engine import Branch
from repsim.model import FIXED_PC, ExactState, SystemConfig, WorkerSpec, WorkerType
from conftest import make_config

# the enumerator must avoid a division by zero, not silence it
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

TOL = 1e-12
SCHEMES = ["type1", "type2", "type3", "none"]


def exact_state(cfg):
    return oracle.state_from_config(cfg)


def reference_cheater_sets(state):
    """Cheater sets with non-zero mass, one product per set over the workers
    in index order, in `itertools.product` order."""
    out = []
    for bits in itertools.product((False, True), repeat=len(state.p_c)):
        prob = 1.0
        for p_c, cheats in zip(state.p_c, bits):
            prob *= p_c if cheats else 1.0 - p_c
        if prob > 0.0:
            out.append((frozenset(i for i, c in enumerate(bits) if c), prob))
    return out


def reference_successors(config, state):
    """One-step distribution with one kernel call per branch (and a second
    for the losing side of a tie), in the enumerator's order."""
    state = state.canonical()
    successors = []

    def step(cheaters, audited, honest_wins=True):
        succ, branch, _ = engine.round_successor(config, state, cheaters, audited,
                                                 lambda: honest_wins)
        return branch, succ.canonical()

    for cheaters, p_f in oracle.cheater_set_probabilities(state):
        if state.p_a > 0.0:
            successors.append((state.p_a * p_f, *step(cheaters, True)))
        p_no_audit = (1.0 - state.p_a) * p_f
        if p_no_audit > 0.0:
            branch, succ = step(cheaters, False)
            if branch.tie_outcome is None:
                successors.append((p_no_audit, branch, succ))
            else:
                successors.append((0.5 * p_no_audit, branch, succ))
                successors.append((0.5 * p_no_audit,
                                   *step(cheaters, False, honest_wins=False)))
    return successors


def assert_matches_reference(config, state):
    got = oracle.enumerate_transitions(config, state).successors
    want = reference_successors(config, state)
    assert got == want
    assert repr(got) == repr(want)   # same Python types, as the digests see them


UNIT = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)


@st.composite
def chain_states(draw):
    """A config and a state it can be in: any scheme, n <= 5, worker types
    mixed, p_a and p_c at 0, at 1 or in between, and audit counts up to one
    far past type 2's underflow."""
    scheme = rep.scheme_from_name(draw(st.sampled_from(SCHEMES)))
    types = draw(st.lists(st.sampled_from(list(WorkerType)), min_size=1, max_size=5))
    workers = [WorkerSpec(t, draw(UNIT), wby=draw(st.sampled_from([0.1, 1.0])))
               for t in types]
    config = SystemConfig(workers=workers, scheme=scheme, p_a_min=0.0,
                          wpc=draw(st.sampled_from([0.0, 0.5]))).validate()
    aud = draw(st.sampled_from([0, 1, 2, 3, 1100]))
    n = len(workers)
    beta = (tuple(draw(st.floats(0.0, 0.3)) for _ in range(n))
            if isinstance(scheme, rep.Type3) else (scheme.beta_init,) * n)
    state = ExactState(p_a=draw(UNIT), aud=aud,
                       p_c=tuple(FIXED_PC.get(w.wtype, w.p_c0) for w in workers),
                       v=tuple(draw(st.sampled_from([0, aud]) | st.integers(0, aud))
                               for _ in range(n)), beta=beta)
    return config, state


def tie_heavy_config():
    """Even camps under the constant scheme: every two-against-two split ties."""
    return make_config(n=4, scheme="none", p_c0=0.5, p_a0=0.3)


def underflowed_state():
    """Three type 2 workers whose reputations all read 0.0, before and after
    an audit, with worker 1 the best validated."""
    config = make_config(n=3, scheme="type2", p_c0=0.5)
    return config, ExactState(p_a=0.4, aud=1200, p_c=(0.3, 0.5, 0.8), v=(3, 5, 3),
                              beta=(0.0,) * 3)


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

    @settings(max_examples=100, deadline=None)
    @given(p_cs=st.lists(UNIT, min_size=1, max_size=6))
    def test_equals_reference(self, p_cs):
        state = ExactState(p_a=0.5, aud=0, p_c=tuple(p_cs), v=(0,) * len(p_cs),
                           beta=(0.0,) * len(p_cs))
        got = oracle.cheater_set_probabilities(state)
        assert got == reference_cheater_sets(state)
        assert repr(got) == repr(reference_cheater_sets(state))

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


class TestReferenceAgreement:
    """The tabulated enumerator equals the per-branch kernel loop exactly."""

    @settings(max_examples=150, deadline=None)
    @given(chain_states())
    def test_equals_reference(self, case):
        assert_matches_reference(*case)

    @pytest.mark.parametrize("p_a", [0.0, 0.3, 1.0])
    def test_tie_heavy_roster(self, p_a):
        config = tie_heavy_config()
        state = replace(exact_state(config), p_a=p_a)
        assert_matches_reference(config, state)
        if p_a < 1.0:
            ties = [b for _, b, _ in oracle.enumerate_transitions(config, state).successors
                    if b.tie_outcome is not None]
            assert len(ties) == 2 * 6   # C(4, 2) splits, each in two halves

    def test_underflowed_type2_state(self):
        config, state = underflowed_state()
        assert all(rep.value(config.scheme, v, state.aud + 1) == 0.0 for v in state.v)
        assert_matches_reference(config, state)
        dist = oracle.enumerate_transitions(config, state)
        # the camp holding worker 1 wins every unaudited vote
        assert all(b.tie_outcome is None for _, b, _ in dist.successors)


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
        bound = exc.value
        assert 0.0 <= bound.lower_bound <= bound.upper_bound <= 1.0
        # the same query without a budget absorbs exactly as much over the
        # rounds the bounded one expanded
        assert 1 <= bound.rounds < 50
        assert oracle.reach_probability(cfg, exact_state(cfg),
                                        lambda s: all(p == 0.0 for p in s.p_c),
                                        horizon=bound.rounds) == bound.lower_bound
        assert bound.upper_bound - bound.lower_bound == pytest.approx(
            frontier_mass(cfg, lambda s: all(p == 0.0 for p in s.p_c), bound.rounds),
            abs=TOL)


def frontier_mass(config, predicate, rounds):
    """Mass not yet absorbed by `predicate` after `rounds` rounds from the
    config's start, summed over the states that carry it."""
    frontier = {exact_state(config): 1.0}
    for _ in range(rounds):
        nxt = {}
        for state, mass in frontier.items():
            for prob, _, succ in oracle.enumerate_transitions(config, state).successors:
                if not predicate(succ):
                    nxt[succ] = nxt.get(succ, 0.0) + mass * prob
        frontier = nxt
    return sum(frontier.values())


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

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_every_scheme_matches_enumeration(self, scheme):
        # four workers some audits on, so the camps weigh differently
        cfg = make_config(n=4, scheme=scheme)
        cfg.workers = [replace(w, p_c0=p) for w, p in zip(cfg.workers, (0.2, 0.4, 0.6, 0.8))]
        cfg.validate()
        state = replace(exact_state(cfg), p_a=0.3, aud=2, v=(2, 1, 1, 0),
                        beta=(0.0, 0.02, 0.04, 0.2) if scheme == "type3"
                        else exact_state(cfg).beta)
        report = oracle.compare_engine_distribution(cfg, state, samples=20_000)
        assert report.passed, (report.statistic, report.p_value)

    def test_tie_heavy_roster_matches_enumeration(self):
        cfg = tie_heavy_config()
        state = exact_state(cfg)
        report = oracle.compare_engine_distribution(cfg, state, samples=20_000)
        assert report.passed, (report.statistic, report.p_value)
        counts = oracle.sample_round_keys(cfg, state, 20_000)
        assert sum(c for b, c in counts.items() if b.tie_outcome is not None) > 0

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
