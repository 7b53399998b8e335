import itertools
import math
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repsim import oracle, reputation as rep, scenarios
from repsim.oracle import Branch
from repsim.model import (FIXED_PC, ConfigError, ExactState, RoleChange, SystemConfig,
                          WorkerSpec, WorkerType)
from conftest import make_config, round_successor, run_round

# the enumerator must avoid a division by zero, not silence it
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

TOL = 1e-12
SCHEMES = ["type1", "type2", "type3", "none"]


def exact_state(cfg):
    return cfg.initial_state().canonical()


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
    """One-step distribution with one reference round per branch (and a
    second for the losing side of a tie), in the enumerator's order."""
    state = state.canonical()
    successors = []

    def step(cheaters, audited, honest_wins=True):
        succ, branch, _ = round_successor(config, state, cheaters, audited,
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


def underflowed_state(n=3):
    """n <= 8 type 2 workers whose reputations all read 0.0, before and after
    an audit, with worker 1 the best validated; every p_c lies inside (0, 1),
    so every cheater set is live."""
    config = make_config(n=n, scheme="type2", p_c0=0.5)
    p_c = (0.3, 0.5, 0.8, 0.2, 0.6, 0.4, 0.7, 0.9)[:n]
    return config, ExactState(p_a=0.4, aud=1200, p_c=p_c, v=(3, 5, 3, 4, 0, 2, 1, 3)[:n],
                              beta=(0.0,) * n)


class TestCheaterSets:
    def test_all_subsets_enumerated(self):
        state = exact_state(scenarios.mixed_roster())
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
        cfg = scenarios.mixed_roster()
        dist = oracle.enumerate_transitions(cfg, exact_state(cfg))
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
        cfg = scenarios.mixed_roster()
        with pytest.raises(RuntimeError, match="mass"):
            oracle.enumerate_transitions(cfg, exact_state(cfg))

    def test_roster_bound(self):
        cfg = make_config(n=oracle.MAX_WORKERS + 1, scheme="none")
        with pytest.raises(oracle.OracleBoundError, match="bound of 10 workers"):
            oracle.enumerate_transitions(cfg, exact_state(cfg))

    def test_role_changes_rejected(self):
        # the chain has no role changes: an answer would be for another chain
        cfg = make_config(n=3, scheme="type2", p_c0=0.0,
                          role_changes=[RoleChange(1, 0, WorkerType.MALICIOUS)])
        with pytest.raises(ConfigError, match="role change") as exc:
            oracle.reach_probability(cfg, exact_state(cfg), lambda s: s.p_c[0] == 1.0, 5)
        assert exc.value.key == "role_change"
        cfg = scenarios.get_scenario("dynamic500-type2")
        with pytest.raises(ConfigError, match="role change"):
            oracle.enumerate_transitions(cfg, exact_state(cfg))

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

    @pytest.mark.parametrize("n,scheme,aud", [(8, "type1", 1), (8, "type2", 2),
                                              (8, "type3", 3), (8, "none", 2),
                                              (10, "type2", 3)])
    def test_wide_roster(self, n, scheme, aud):
        # the longest product rows: every cheater set is live
        rng = random.Random(n * 10 + aud)
        config = make_config(n=n, scheme=scheme)
        beta = tuple(rng.uniform(0.0, 0.3) if scheme == "type3"
                     else config.scheme.beta_init for _ in range(n))
        state = ExactState(p_a=0.37, aud=aud,
                           p_c=tuple(rng.uniform(0.05, 0.95) for _ in range(n)),
                           v=tuple(rng.randint(0, aud) for _ in range(n)), beta=beta)
        assert len(oracle.cheater_set_probabilities(state)) == 2 ** n
        assert_matches_reference(config, state)

    def test_underflowed_type2_state(self):
        for n in (3, 8):   # at 8, the fallback runs for all 256 cheater sets
            config, state = underflowed_state(n)
            assert len(oracle.cheater_set_probabilities(state)) == 2 ** n
            assert all(r == 0.0 for r in rep.values(config.scheme, state.v, state.aud + 1,
                                                    state.beta))
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
        reach = oracle.reach_probability(cfg, exact_state(cfg), lambda s: True, horizon=5)
        assert (reach.lower, reach.upper, reach.hits) == (1.0, 1.0, (1.0,))

    def test_hand_computed_mass(self):
        # lone worker, never audited: cheating wins every vote, so
        # p_c moves +0.09 on a cheat and -0.08 on an honest round
        cfg = self.single_worker()
        pred = lambda s: s.p_c[0] > 0.55
        start = exact_state(cfg)
        assert abs(oracle.reach_probability(cfg, start, pred, 1).lower - 0.5) < TOL
        assert abs(oracle.reach_probability(cfg, start, pred, 2).lower - 0.5) < TOL
        expected3 = 0.5 + 0.5 * 0.42 * 0.51
        assert abs(oracle.reach_probability(cfg, start, pred, 3).lower - expected3) < TOL

    def test_frontier_empties(self):
        # p_a pinned at 1 audits the first round, so all the mass is absorbed
        # there and the query stops before its horizon
        cfg = make_config(n=3, scheme="type2", p_a0=1.0, p_a_min=1.0)
        reach = oracle.reach_probability(cfg, exact_state(cfg), lambda s: s.aud >= 1, 5)
        assert reach == oracle.Reach(1.0, 1.0, (0.0, 1.0), 1)

    def test_negative_horizon_rejected(self):
        cfg = self.single_worker()
        with pytest.raises(ValueError, match="horizon must be >= 0, got -3"):
            oracle.reach_probability(cfg, exact_state(cfg), lambda s: False, horizon=-3)
        assert oracle.reach_probability(cfg, exact_state(cfg), lambda s: False,
                                        horizon=0) == oracle.Reach(0.0, 0.0, (0.0,), 0)

    def test_budget_carries_lower_bound(self):
        cfg = make_config(n=3, scheme="type2", p_c0=0.5)
        cleared = lambda s: all(p == 0.0 for p in s.p_c)
        bound = oracle.reach_probability(cfg, exact_state(cfg), cleared,
                                         horizon=50, max_states=50)
        assert 0.0 <= bound.lower < bound.upper <= 1.0   # the budget ran out
        # the same query without a budget absorbs exactly as much over the
        # rounds the bounded one expanded
        rounds = len(bound.hits) - 1
        assert 1 <= rounds < 50
        assert oracle.reach_probability(cfg, exact_state(cfg), cleared,
                                        horizon=rounds).lower == bound.lower
        assert bound.upper - bound.lower == pytest.approx(
            frontier_mass(cfg, cleared, rounds), abs=TOL)

    @pytest.mark.parametrize("horizon,max_states,exact", [(3, 200_000, True), (5, 1, False)])
    def test_record_invariants(self, monkeypatch, horizon, max_states, exact):
        # the lone worker of test_hand_computed_mass; a one-state budget runs
        # out in round 2, after round 1 absorbed half the mass
        cfg, calls = self.single_worker(), []
        enumerate_transitions = oracle.enumerate_transitions
        monkeypatch.setattr(oracle, "enumerate_transitions",
                            lambda *args: calls.append(args) or enumerate_transitions(*args))
        reach = oracle.reach_probability(cfg, exact_state(cfg), lambda s: s.p_c[0] > 0.55,
                                         horizon, max_states=max_states)
        assert reach.lower <= reach.upper and (reach.lower == reach.upper) == exact
        assert reach.lower > 0.0
        assert math.fsum(reach.hits) == pytest.approx(reach.lower, abs=TOL)
        assert reach.states == len(calls)

    def test_default_lemma1_record(self):
        # the 5,000-state budget runs out at round 10 of 200
        reach = scenarios.trap_reach_probability()
        assert (reach.states, len(reach.hits) - 1, reach.upper) == (7321, 10, 1.0)
        assert f"{reach.lower:.6g}" == "0.255871"


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
        assert oracle.find_escape(cfg, [state],
                                  lambda s: all(p == 1.0 for p in s.p_c)) is None

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
        cfg = scenarios.mixed_roster()
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

    def test_widest_roster_matches_enumeration(self):
        # 2,300 bins and a statistic near 2,300: past where e^(-x/2) underflows
        cfg = make_config(n=oracle.MAX_WORKERS, scheme="type2", p_c0=0.5)
        report = oracle.compare_engine_distribution(cfg, exact_state(cfg))
        assert report.bins > 2000 and report.statistic > 1500
        assert report.passed, (report.statistic, report.p_value)

    def test_corrupted_sampler_detected(self, monkeypatch):
        cfg = scenarios.mixed_roster()
        state = exact_state(cfg)
        # a sampler that audits half as often as the state says
        counts = oracle.sample_round_keys(cfg, replace(state, p_a=0.5 * state.p_a), 20_000)
        monkeypatch.setattr(oracle, "sample_round_keys", lambda *args: counts)
        report = oracle.compare_engine_distribution(cfg, state)
        assert not report.passed

    def test_too_few_samples_rejected(self):
        cfg = scenarios.mixed_roster()
        with pytest.raises(ValueError, match="needs at least 2"):
            oracle.compare_engine_distribution(cfg, exact_state(cfg), samples=20)

    def test_impossible_outcome_is_certain_failure(self, monkeypatch):
        cfg = scenarios.mixed_roster()
        state = exact_state(cfg)
        counts = {Branch(frozenset({0, 1, 2}), True, True): 100}
        monkeypatch.setattr(oracle, "sample_round_keys", lambda *args: counts)
        report = oracle.compare_engine_distribution(cfg, state)
        assert not report.passed and report.p_value == 0.0


def reference_sample(config, state, samples, seed=0):
    """sample_round_keys through the test reference round, one per sample."""
    state, rng, counts = state.canonical(), random.Random(seed), {}
    for _ in range(samples):
        _, branch, _ = run_round(config, state, rng)
        counts[branch] = counts.get(branch, 0) + 1
    return counts


def sampler_states():
    mixed = scenarios.mixed_roster()
    start = exact_state(mixed)
    tie_heavy = tie_heavy_config()
    type2 = make_config(n=3, scheme="type2", p_c0=0.5)
    return {
        "mixed": (mixed, start),
        "mixed-p_a-0.6": (mixed, replace(start, p_a=0.6 * start.p_a)),
        "tie-heavy": (tie_heavy, exact_state(tie_heavy)),
        "underflowed": underflowed_state(),
        "underflowed-best-first": (type2, ExactState(p_a=0.5, aud=1200, p_c=(0.5,) * 3,
                                                     v=(5, 3, 3), beta=(0.0,) * 3)),
    }


@pytest.mark.parametrize("name", list(sampler_states()))
def test_sampler_counts_equal_reference(name):
    config, state = sampler_states()[name]
    assert oracle.sample_round_keys(config, state, 5_000, seed=3) == reference_sample(
        config, state, 5_000, seed=3)


def poisson_tail(h: int, m: int) -> float:
    """e^-h · Σ_{i<m} h^i/i!, the chi-square tail at x = 2h with k = 2m
    degrees of freedom, for integers h and m >= 1.  The sum times (m-1)! is
    an exact integer, so only the logarithms of it and of (m-1)! and the
    final exp round: about 1e-12 relative at m = 2,000."""
    term, total = math.factorial(m - 1), 0
    for i in range(m):   # term == (m-1)!/i! · h^i, exactly
        total += term
        term = term * h // (i + 1)
    return math.exp(math.log(total) - math.log(math.factorial(m - 1)) - h)


class TestChi2Tail:
    @pytest.mark.parametrize("x", [1e-300, 0.01, 1.0, 7.5, 40.0, 1500.0])
    def test_one_and_two_degrees(self, x):
        assert oracle.chi2_sf(x, 1) == math.erfc(math.sqrt(x / 2))
        assert oracle.chi2_sf(x, 2) == math.exp(-x / 2)

    @pytest.mark.parametrize("k", [1, 2, 9, 4000])
    def test_zero_is_certain(self, k):
        assert oracle.chi2_sf(0.0, k) == 1.0
        assert oracle.chi2_sf(5e-324, k) == 1.0   # halves to 0.0

    @pytest.mark.parametrize("x,k,tail", [
        (3.841458820694124, 1, 0.05), (6.634896601021217, 1, 0.01),
        (5.991464547107979, 2, 0.05), (9.210340371976182, 2, 0.01),
        (18.307038053275146, 10, 0.05), (23.209251158954356, 10, 0.01),
        (124.34211340400407, 100, 0.05), (135.80672317102676, 100, 0.01),
    ])
    def test_critical_values(self, x, k, tail):
        assert oracle.chi2_sf(x, k) == pytest.approx(tail, rel=0, abs=1e-12)

    @pytest.mark.parametrize("x", [3800, 4000, 4200])
    def test_large_even_k_exact(self, x):
        # h = 1,900 to 2,100: e^-h is 0.0 in floats and h^i/i! overflows, so
        # the product form reads nan or 0 here
        assert math.exp(-x / 2) == 0.0
        assert oracle.chi2_sf(float(x), 4000) == pytest.approx(
            poisson_tail(x // 2, 2000), rel=1e-10)

    @settings(max_examples=200, deadline=None)
    @given(x=st.floats(0.0, 15_000.0), y=st.floats(0.0, 15_000.0),
           k=st.integers(1, 5000))
    def test_monotone_probability(self, x, y, k):
        # within 1e-10 relative, the accuracy the tail is checked to above
        lo, hi = sorted((x, y))
        at_lo, at_hi = oracle.chi2_sf(lo, k), oracle.chi2_sf(hi, k)
        assert 0.0 <= at_hi <= at_lo * (1 + 1e-10)
        assert at_lo <= 1.0
        assert at_lo <= oracle.chi2_sf(lo, k + 1) * (1 + 1e-10)


def test_imports_numpy_only():
    """repsim, its CLI and a chi-square check load no package outside the
    standard library but numpy, the one dependency: a statistics library
    imported for the p-value would cost every process about a second."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    code = ("import sys\n"
            "before = {m.split('.')[0] for m in sys.modules}\n"
            "import repsim, repsim.cli\n"
            "from repsim import oracle, scenarios\n"
            "cfg = scenarios.mixed_roster()\n"
            "report = oracle.compare_engine_distribution(cfg, cfg.initial_state(),\n"
            "                                            samples=2_000)\n"
            "loaded = {m.split('.')[0] for m in sys.modules} - before\n"
            "print(report.bins > 1, sorted(loaded - set(sys.stdlib_module_names)))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True ['numpy', 'repsim']\n"
