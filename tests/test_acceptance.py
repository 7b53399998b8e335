"""End-to-end acceptance checks, one test per release criterion.

Each test pins its tolerances inline.  Reference values are computed by
independent re-implementations (fractions, explicit exponentials) rather
than by calling back into the code under test.
"""
import functools
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from repsim import cli, metrics, oracle, reputation as rep, scenarios
from repsim.model import SystemConfig, WorkerSpec
from conftest import round_successor, verify_stdout

EXACT = 1e-12


@functools.lru_cache(maxsize=None)
def run(name):
    summary, traces = scenarios.run_scenario(name)
    return summary, traces


def convergence_rounds(summary):
    return summary.convergence_rounds


# -- 1. formula exactness ---------------------------------------------------

def ref_value(scheme, v, aud, beta, epsilon=0.5):
    """README reputation after `aud` audits, `v` validated, error rate `beta`.

    A fraction for type 1, an exact power of epsilon for type 2, and for
    type 3 the value against the bound A = 0.05 with the 0.001 pin.  Every
    scheme reads 0.5 before the first audit.
    """
    if aud == 0:
        return 0.5
    if scheme == "type1":
        return float(Fraction(v + 1, aud + 2))
    if scheme == "type2":
        return float(Fraction(epsilon) ** (aud - v))
    return 0.001 if beta > 0.05 else 1.0 - math.sqrt(beta / 0.05)


def reference_cases():
    cases = []
    for aud in range(7):
        for v in range(aud + 1):
            cases.append((rep.Type1(), v, aud, 0.0,
                          ref_value("type1", v, aud, 0.0)))
            for eps in (0.5, 0.3):
                cases.append((rep.Type2(epsilon=eps), v, aud, 0.0,
                              ref_value("type2", v, aud, 0.0, eps)))
    scheme = rep.Type3()
    beta = 0.1
    for k in range(20):
        cases.append((scheme, k, k, beta, ref_value("type3", k, k, beta)))
        beta *= 0.95
    for j in range(1, 6):
        beta = 0.1 + 0.1 * j
        cases.append((scheme, 0, j, beta, ref_value("type3", 0, j, beta)))
    return cases


def test_reputation_formulas_match_reference_grid():
    cases = reference_cases()
    assert len(cases) >= 50
    for scheme, v, aud, beta, expected in cases:
        (got,) = rep.values(scheme, (v,), aud, (beta,))
        assert abs(got - expected) < EXACT, (scheme, v, aud, beta)


# -- 2. one-round learning deltas ------------------------------------------

def test_cheat_probability_transition_deltas():
    """All six (strategy, audit, vote) combinations at the default knobs.

    alpha=0.1, aspiration=0.1, reward=1, cost=0.1, no punishment; the
    constant scheme makes the 2-cheater camp win and the 1-cheater camp
    lose on an unaudited vote.
    """
    cases = [
        (frozenset({0}), True, 0, -0.1 * (0.1 + 0.0)),          # caught
        (frozenset({0}), True, 1, 0.1 * (0.1 - (1.0 - 0.1))),   # honest, audited
        (frozenset({0, 1}), False, 0, 0.1 * (1.0 - 0.1)),       # cheaters won
        (frozenset({0}), False, 0, -0.1 * 0.1),                 # cheaters lost
        (frozenset({0, 1}), False, 2, 0.1 * (0.1 + 0.1)),       # honest lost
        (frozenset({0}), False, 2, 0.1 * (0.1 - (1.0 - 0.1))),  # honest won
    ]
    cfg = SystemConfig(workers=[WorkerSpec(p_c0=0.5) for _ in range(3)],
                       scheme=rep.NoReputation()).validate()
    for cheaters, audited, idx, delta in cases:
        state, _, _ = round_successor(cfg, cfg.initial_state(), cheaters, audited)
        assert abs(state.p_c[idx] - (0.5 + delta)) < EXACT, (cheaters, audited, idx)


# -- 3-5. the claims `repsim verify` checks ---------------------------------
# Each claim's setup and expected verdict are defined once, in `repsim.cli`
# and `repsim.scenarios`; these criteria read the verdicts from the suites'
# stdout at the CLI defaults, whose text `tests/test_cli.py` pins.

def assert_verify_passes(suite, lines):
    code, out = verify_stdout(suite)
    assert code == 0 and len(out.splitlines()) == lines, out
    assert all(line.endswith(" PASS") or ": PASS " in line
               for line in out.splitlines()), out
    return out


def test_limit_ordering_and_its_preservation():
    assert_verify_passes("property1", 3)
    assert_verify_passes("property2", 3)


# -- 4. the all-cheat trap without an audit floor ---------------------------

def test_all_cheat_set_closed_and_reachable():
    out = assert_verify_passes("lemma1", 1)
    assert "closed=True" in out
    prob = float(out.split("reach probability ")[1].split()[-2])
    assert prob > 0.0


# -- 5. engine vs. exact one-round distribution -----------------------------

def test_engine_matches_exact_distribution(monkeypatch):
    assert_verify_passes("transitions", 1)
    cfg = scenarios.mixed_roster()
    state = cfg.initial_state()
    # a sampler that audits at 0.6 times the state's p_a
    corrupted = oracle.sample_round_keys(cfg, replace(state, p_a=0.6 * state.p_a), 100_000)
    monkeypatch.setattr(oracle, "sample_round_keys", lambda *args: corrupted)
    bad = oracle.compare_engine_distribution(cfg, state, significance=0.01)
    assert not bad.passed


# -- 6. nine covered rationals settle ---------------------------------------

def test_covered_rationals_converge_and_audits_bottom_out():
    summary, _ = run("rational9-type2-pc1")
    conv = convergence_rounds(summary)
    assert sum(c is not None for c in conv) >= 9, conv
    assert abs(summary.p_a[-1] - 0.01) <= 0.005, summary.p_a[-1]


# -- 7. malicious majority --------------------------------------------------

def test_malicious_majority_tamed_or_audited_forever():
    summary, _ = run("mal5-rat4-type2")
    conv = convergence_rounds(summary)
    assert sum(c is not None and c < 500 for c in conv) >= 9, conv
    flat, _ = run("mal5-rat4-none")
    assert float(np.mean(flat.p_a[900:1000])) > 0.9, np.mean(flat.p_a[900:1000])


# -- 8. one covered worker among nine: type2 and type3 converge, type1 not --

def test_partial_coverage_separates_the_schemes():
    """Eight uncovered workers hover near p_c = 0.5 and are caught on about
    half of their audits.  Type 2 shrinks their reputations exponentially
    and type 3 pins them at 0.001 once their error rate passes the bound,
    so the single honest worker ends up outweighing them; the linear ratio
    of type 1 never falls far enough."""
    type2, _ = run("cov1of9-type2-tau0.5")
    conv2 = convergence_rounds(type2)
    assert sum(c is not None for c in conv2) >= 9, conv2

    type1, _ = run("cov1of9-type1-tau0.5")
    conv1 = convergence_rounds(type1)
    assert sum(c is None for c in conv1) >= 8, conv1
    trailing = float(np.mean(type1.correct_rate[-500:]))
    assert trailing < 1.0, trailing

    type3, _ = run("cov1of9-type3-tau0.5")
    conv3 = convergence_rounds(type3)
    assert sum(c is not None for c in conv3) >= 8, (
        "error-rate scheme failed to converge with a single covered worker; "
        f"per-seed detection rounds: {conv3}")


# -- 9. five defect at round 500: both recover, type2 no later than type1 ---

def reconvergence(name):
    columns = run(name)[0].columns
    cfg = scenarios.get_scenario(name)
    return [metrics.detect_convergence(columns[s], cfg.p_a_min, start=500)
            for s in sorted(columns)]


def test_dynamic_change_recovery():
    """Where the defection breaks the vote, the loyal workers learn to cheat
    too and p_a climbs to 1 under either scheme.  Recovery then waits for
    the defectors' share of the total reputation to fall below tau: like
    1/aud under type 1, by half per audit under type 2."""
    re1 = reconvergence("dynamic500-type1")
    re2 = reconvergence("dynamic500-type2")
    assert sum(c is not None for c in re1) >= 8, re1
    assert sum(c is not None for c in re2) >= 8, re2
    mean1 = float(np.mean([c for c in re1 if c is not None]))
    mean2 = float(np.mean([c for c in re2 if c is not None]))
    assert mean2 <= mean1, (
        "exponential scheme was expected to recover no later than the "
        f"linear-ratio one, got means {mean2:.1f} vs {mean1:.1f} "
        f"(per-seed: {re2} vs {re1})")


# -- 8, 9. the traced reputations follow the documented rules --------------

def rebuild_reputations(scheme, trace):
    """Per-round reputations rebuilt from the audited rounds and cheater sets.

    Counts audits and validations, and moves the type 3 error rate by the
    README rule (start 0.1, truthful *= 0.95, cheat += 0.1); `ref_value`
    turns them into reputations at the default constants.
    """
    n = len(trace[0].reputations_after)
    aud, v, beta = 0, [0] * n, [0.1] * n
    rows = []
    for o in trace:
        if o.audited:
            aud += 1
            for i in range(n):
                truthful = i not in o.cheater_set
                v[i] += truthful
                beta[i] = beta[i] * 0.95 if truthful else beta[i] + 0.1
        rows.append(tuple(ref_value(scheme, v[i], aud, beta[i])
                          for i in range(n)))
    return rows


@pytest.mark.parametrize("name", ["cov1of9-type3-tau0.5",
                                  "dynamic500-type1", "dynamic500-type2"])
def test_traced_reputations_match_reference_rebuild(name):
    _, traces = run(name)
    scheme = name.split("-")[1]
    for seed, trace in sorted(traces.items()):
        rebuilt = rebuild_reputations(scheme, trace)
        for r, (o, expected) in enumerate(zip(trace, rebuilt)):
            for got, exp in zip(o.reputations_after, expected):
                assert abs(got - exp) <= EXACT * exp, (seed, r, got, exp)


def test_single_covered_worker_outweighs_pinned_cheaters():
    """Over the last 500 rounds of every seed the eight uncovered workers sit
    at the 0.001 pin and worker 0 outweighs all of them together, so the
    camp holding worker 0 wins every unaudited vote.  The detection round
    is no passing window: from it to the horizon the master receives the
    correct result in every round, at its audit floor."""
    name = "cov1of9-type3-tau0.5"
    cfg = scenarios.get_scenario(name)
    uncovered = [i for i, w in enumerate(cfg.workers)
                 if w.wby < w.aspiration + cfg.wct]
    assert uncovered == list(range(1, 9))
    summary, traces = run(name)
    for seed, conv in zip(summary.seeds, summary.convergence_rounds):
        trace = traces[seed]
        for r, o in enumerate(trace[-500:], len(trace) - 500):
            reps = o.reputations_after
            assert all(reps[i] == 0.001 for i in uncovered), (seed, r)
            assert reps[0] > 0.001 * len(uncovered), (seed, r, reps[0])
        assert conv is not None, seed
        assert all(o.accepted_correct and o.p_a_after <= cfg.p_a_min + 0.005
                   for o in trace[conv:]), (seed, conv)


# -- 10. byte-identical reruns ----------------------------------------------

def test_traces_are_deterministic(tmp_path):
    args = ["run", "--scenario", "mal4-rat5-type2", "--seeds", "1 2"]
    assert cli.main(args + ["--out", str(tmp_path / "a")]) == 0
    assert cli.main(args + ["--out", str(tmp_path / "b")]) == 0
    for p in sorted((tmp_path / "a").iterdir()):
        assert p.read_bytes() == (tmp_path / "b" / p.name).read_bytes(), p.name
