from dataclasses import replace

import numpy as np
import pytest

from repsim import metrics, scenarios
from repsim.model import RoundOutcome
from conftest import make_config


def outcome(r=0, correct=True, p_a=0.01, audited=False,
            cheaters=frozenset(), reps=(), p_cs=()):
    return RoundOutcome(round=r, cheater_set=frozenset(cheaters),
                        audited=audited, majority_set=frozenset(),
                        tie_broken=False, accepted_correct=correct,
                        payoffs=(), reputations_after=tuple(reps),
                        p_a_after=p_a, p_c_after=tuple(p_cs))


def test_reputation_ratio_signs():
    o = outcome(cheaters={1}, reps=(0.5, 0.25), p_cs=(0.0, 1.0))
    cols = metrics.trace_columns([o], 2)
    assert metrics.reputation_ratio(cols["rho"], cols["cheated"]) == pytest.approx([0.125])


class TestDetectConvergence:
    def trace(self, flips):
        """300 rounds, correct except at the listed indices."""
        return [outcome(r=r, correct=r not in flips) for r in range(300)]

    def test_earliest_window(self):
        assert metrics.detect_convergence(self.trace({49}), 0.01) == 50

    def test_gap_restarts_window(self):
        assert metrics.detect_convergence(self.trace({49, 120}), 0.01) == 121

    def test_start_offset(self):
        assert metrics.detect_convergence(self.trace({49}), 0.01, start=130) == 130

    def test_none_when_no_window_fits(self):
        flips = set(range(0, 300, 90))
        assert metrics.detect_convergence(self.trace(flips), 0.01) is None

    def test_audit_probability_gate(self):
        trace = [outcome(r=r, p_a=0.5 if r < 120 else 0.012) for r in range(300)]
        assert metrics.detect_convergence(trace, 0.01) == 120
        above = [outcome(r=r, p_a=0.01 + metrics.P_A_SLACK + 0.001) for r in range(300)]
        assert metrics.detect_convergence(above, 0.01) is None


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
