from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repsim import engine, metrics, scenarios
from repsim.model import RoundOutcome
from conftest import make_config, reference_trace_columns


def outcome(correct=True, p_a=0.01, audited=False,
            cheaters=frozenset(), reps=(), p_cs=()):
    return RoundOutcome(cheater_set=frozenset(cheaters), audited=audited,
                        tie_broken=False, accepted_correct=correct,
                        reputations_after=tuple(reps), p_a_after=p_a, p_c_after=tuple(p_cs))


def test_reputation_ratio_signs():
    o = outcome(cheaters={1}, reps=(0.5, 0.25), p_cs=(0.0, 1.0))
    cols = metrics.trace_columns([o], 2)
    assert metrics.reputation_ratio(cols["rho"], cols["cheated"]) == pytest.approx([0.125])


def reference_convergence(cols, p_a_min, start=0):
    """The round-by-round reading of `metrics.detect_convergence`: a run of
    qualifying rounds counted backwards from the end of the trace."""
    ok = [bool(c and p <= p_a_min + metrics.P_A_SLACK)
          for c, p in zip(cols["correct"], cols["p_a"])]
    best = None
    run = 0
    for r in range(len(ok) - 1, start - 1, -1):
        run = run + 1 if ok[r] else 0
        if run >= metrics.WINDOW:
            best = r
    return best


def columns(correct, p_a):
    """The two columns `detect_convergence` reads."""
    return {"correct": np.array(correct, dtype=bool), "p_a": np.array(p_a, dtype=float)}


class TestDetectConvergence:
    def cols(self, flips):
        """300 rounds at p_a 0.01, correct except at the listed indices."""
        return columns([r not in flips for r in range(300)], [0.01] * 300)

    def test_earliest_window(self):
        found = metrics.detect_convergence(self.cols({49}), 0.01)
        assert found == 50
        assert type(found) is int   # a numpy scalar would print as np.int64(50)

    def test_gap_restarts_window(self):
        assert metrics.detect_convergence(self.cols({49, 120}), 0.01) == 121
        # 99 good rounds between two flips are one short of a window
        assert metrics.detect_convergence(self.cols({49, 149}), 0.01) == 150

    def test_start_offset(self):
        assert metrics.detect_convergence(self.cols({49}), 0.01, start=130) == 130

    def test_none_when_no_window_fits(self):
        flips = set(range(0, 300, 90))
        assert metrics.detect_convergence(self.cols(flips), 0.01) is None
        # the last window must fit whole before the end
        assert metrics.detect_convergence(self.cols(set(range(200))), 0.01) == 200
        assert metrics.detect_convergence(self.cols(set(range(201))), 0.01) is None

    def test_negative_start_rejected(self):
        # a negative start would slice from the end of the trace
        with pytest.raises(ValueError, match="start must be >= 0, got -50"):
            metrics.detect_convergence(self.cols(set()), 0.01, start=-50)

    def test_audit_probability_gate(self):
        cols = columns([True] * 300, [0.5 if r < 120 else 0.012 for r in range(300)])
        assert metrics.detect_convergence(cols, 0.01) == 120
        above = columns([True] * 300, [0.01 + metrics.P_A_SLACK + 0.001] * 300)
        assert metrics.detect_convergence(above, 0.01) is None

    # runs of equal rounds, so that windows of 100 both fit and break
    runs = st.lists(st.tuples(st.integers(1, 200) | st.sampled_from([99, 100, 101]),
                              st.sampled_from([True, True, False]),
                              st.sampled_from([0.0, 0.01, 0.015, 0.016, 0.5])), max_size=6)

    @settings(max_examples=200, deadline=None)
    @given(runs, st.integers(0, 300), st.sampled_from([0.0, 0.01]))
    def test_matches_reference(self, runs, start, p_a_min):
        cols = columns([c for k, c, _ in runs for _ in range(k)],
                       [p for k, _, p in runs for _ in range(k)])
        assert (metrics.detect_convergence(cols, p_a_min, start)
                == reference_convergence(cols, p_a_min, start))


def test_summarize_shapes_and_means():
    cfg = make_config(n=2, scheme="type2", p_c0=1.0, horizon=50)
    summary, traces = scenarios.run_scenario(replace(cfg, seeds=(1, 2, 3)))
    assert summary.seeds == (1, 2, 3)
    assert summary.p_a.shape == (50,)
    assert summary.p_c.shape == (2, 50)
    assert len(summary.convergence_rounds) == 3
    assert np.all(summary.audit_rate >= 0) and np.all(summary.audit_rate <= 1)
    # per-round mean over seeds, spot-checked against the raw traces
    r0 = np.mean([traces[s][0].p_a_after for s in (1, 2, 3)])
    assert summary.p_a[0] == pytest.approx(r0)


def assert_same_columns(trace, n):
    got, want = metrics.trace_columns(trace, n), reference_trace_columns(trace, n)
    assert got.keys() == want.keys()
    for key, column in want.items():
        assert got[key].dtype == column.dtype, key
        assert got[key].shape == column.shape, key
        assert got[key].tobytes() == column.tobytes(), key


def test_columns_match_reference_on_catalog():
    for name in scenarios.list_scenarios():
        cfg = scenarios.get_scenario(name)
        assert_same_columns(engine.run_simulation(cfg, seed=1), cfg.n)


@st.composite
def shared_traces(draw):
    """Traces whose rounds pick their p_c tuples, reputation tuples and cheater
    sets from small pools, either the pool's object or an equal copy."""
    n = draw(st.integers(1, 4))
    floats = st.sampled_from([0.0, -0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)
    vectors = st.lists(st.lists(floats, min_size=n, max_size=n).map(tuple),
                       min_size=1, max_size=3)
    p_cs, reps = draw(vectors), draw(vectors)
    sets = draw(st.lists(st.sets(st.integers(0, n - 1)).map(frozenset), min_size=1,
                         max_size=3))
    sets.append(frozenset(range(n)))   # an all-cheat round

    def pick(pool, copy):
        obj = draw(st.sampled_from(pool))
        return copy(obj) if draw(st.booleans()) else obj

    trace = [RoundOutcome(cheater_set=pick(sets, lambda s: frozenset(set(s))),
                          audited=draw(st.booleans()),
                          tie_broken=draw(st.booleans()), accepted_correct=draw(st.booleans()),
                          reputations_after=pick(reps, lambda t: tuple(list(t))),
                          p_a_after=draw(floats), p_c_after=pick(p_cs, lambda t: tuple(list(t))))
             for _ in range(draw(st.integers(0, 30)))]
    return trace, n


#: One worker that cheats in every round of a shared set, at a shared p_c of -0.0.
ALL_CHEAT, MINUS_ZERO = frozenset({0}), (-0.0,)


@settings(max_examples=200, deadline=None)
@given(shared_traces())
@example(([], 2))
@example(([outcome(cheaters=ALL_CHEAT, reps=(0.5,), p_cs=MINUS_ZERO),
           outcome(cheaters=ALL_CHEAT, reps=(0.5,), p_cs=MINUS_ZERO),
           outcome(reps=(0.0,), p_cs=[0.0]), outcome(reps=(0.5,), p_cs=[-0.0])], 1))
def test_columns_match_reference_on_shared_objects(case):
    assert_same_columns(*case)
