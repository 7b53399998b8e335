
import itertools
import math
import re
from dataclasses import replace

import pytest
from conftest import reference_audit_update, reference_value
from hypothesis import example, given, strategies as st

import repsim
from repsim import model, reputation as rep

TOL = 1e-12


def test_scheme_name_round_trip():
    for name in rep.SCHEME_NAMES:
        assert rep.scheme_from_name(name).name == name
    with pytest.raises(rep.ConfigError) as exc:
        rep.scheme_from_name("type9")
    assert exc.value.key == "scheme"
    assert replace(rep.scheme_from_name("type3"), decay=0.9) == rep.Type3(decay=0.9)
    with pytest.raises(rep.ConfigError, match="epsilon") as exc:
        model.SystemConfig().updated({"scheme": "type1", "epsilon": "0.3"}, {})
    assert exc.value.key == "epsilon"


def test_validate_scheme_bounds():
    with pytest.raises(rep.ConfigError) as exc:
        rep.Type2(epsilon=1.0)
    assert exc.value.key == "epsilon"
    with pytest.raises(rep.ConfigError) as exc:
        rep.Type3(error_bound=0.0)
    assert exc.value.key == "error_bound"
    with pytest.raises(rep.ConfigError) as exc:
        replace(rep.Type3(), beta_init=-0.1)
    assert exc.value.key == "beta_init"


def test_one_config_error_class():
    assert repsim.ConfigError is model.ConfigError is rep.ConfigError
    assert issubclass(rep.ConfigError, ValueError)


class TestValue:
    def test_all_schemes_start_at_half(self):
        for name in rep.SCHEME_NAMES:
            assert rep.values(rep.scheme_from_name(name), (0, 0), 0, (0.1, 0.0)) == (0.5, 0.5)

    def test_linear_ratio(self):
        (got,) = rep.values(rep.Type1(), (3,), 7, (0.0,))
        assert abs(got - 4 / 9) < TOL
        (got,) = rep.values(rep.Type1(), (0,), 5, (0.0,))
        assert abs(got - 1 / 7) < TOL

    def test_exponential(self):
        partial, full = rep.values(rep.Type2(), (2, 5), 5, (0.0, 0.0))
        assert abs(partial - 0.125) < TOL
        (got,) = rep.values(rep.Type2(epsilon=0.3), (1,), 4, (0.0,))
        assert abs(got - 0.027) < TOL
        assert full == 1.0

    def test_error_rate_pinned_above_bound(self):
        assert rep.values(rep.Type3(), (0,), 1, (0.0500000001,)) == (0.001,)

    def test_error_rate_after_clean_streak(self):
        # beta = 0.1 * 0.95^14 is the first value below the 0.05 bound
        beta = 0.1 * 0.95 ** 14
        assert abs(beta - 0.04876749791155296) < TOL
        (got,) = rep.values(rep.Type3(), (14,), 14, (beta,))
        assert abs(got - 0.012401924753263294) < TOL
        assert rep.values(rep.Type3(), (13,), 13, (0.1 * 0.95 ** 13,)) == (0.001,)

    def test_v_above_aud_rejected(self):
        with pytest.raises(ValueError, match="validation count 3 exceeds audit count 2"):
            rep.values(rep.Type1(), (1, 3, 4), 2, (0.0,) * 3)

    @given(aud=st.integers(0, 60), deficit=st.integers(0, 60),
           beta=st.floats(0.0, 1.0))
    def test_values_stay_in_unit_interval(self, aud, deficit, beta):
        v = max(0, aud - deficit)
        for name in rep.SCHEME_NAMES:
            got = rep.values(rep.scheme_from_name(name), (v, aud), aud, (beta, 0.0))
            assert all(0.0 <= val <= 1.0 for val in got)

    @given(aud=st.integers(1, 40), shift=st.integers(0, 20),
           deficit=st.integers(0, 12))
    def test_exponential_depends_only_on_deficit(self, aud, shift, deficit):
        aud = max(aud, deficit)
        (a,) = rep.values(rep.Type2(), (aud - deficit,), aud, (0.0,))
        (b,) = rep.values(rep.Type2(), (aud + shift - deficit,), aud + shift, (0.0,))
        assert abs(a - b) < TOL


def test_audit_update():
    assert rep.audit_updates(rep.Type1(), (3, 3), (0.0, 0.0), {1}) == ((4, 3), (0.0, 0.0))
    v, beta = rep.audit_updates(rep.Type3(), (0, 0), (0.1, 0.1), {1})
    assert v == (1, 0)
    assert abs(beta[0] - 0.095) < TOL and abs(beta[1] - 0.2) < TOL


def test_aggregate_empty_is_zero():
    assert rep.values(rep.Type2(), (), 5, ()) == ()
    assert sum(rep.values(rep.Type2(), (), 5, ())) == 0.0


# -- the roster-wide rules against the per-worker reference (conftest) ---------

#: Type 3 error rates at the edges: none, at the bound, overflowing on the
#: next cheat, and overflowed.
EDGE_BETAS = [0.0, 0.05, 1e308, math.inf]


@st.composite
def schemes(draw):
    kind = draw(st.sampled_from(rep.SCHEME_NAMES))
    if kind == "type2":
        return rep.Type2(epsilon=draw(st.sampled_from([0.5, 0.3, math.nextafter(1.0, 0.0)])
                                      | st.floats(1e-3, 0.999)))
    if kind == "type3":
        return rep.Type3(error_bound=draw(st.sampled_from([0.05, 1.0]) | st.floats(1e-6, 2.0)),
                         decay=draw(st.sampled_from([0.0, 0.95, 1.0]) | st.floats(0.0, 2.0)),
                         increment=draw(st.sampled_from([0.1, 1e308]) | st.floats(0.0, 1.0)))
    return rep.scheme_from_name(kind)


@st.composite
def rosters(draw):
    """(scheme, v, aud, beta, cheaters) for 1-10 workers and aud up to 3,000
    (type 2 deficits past 1,075 underflow to 0.0); sometimes one count
    exceeds aud."""
    scheme = draw(schemes())
    n = draw(st.integers(1, 10))
    aud = draw(st.sampled_from([0, 1, 1075, 1076, 3000]) | st.integers(0, 3000))
    v = draw(st.lists(st.sampled_from([0, aud]) | st.integers(0, aud),
                      min_size=n, max_size=n))
    if draw(st.booleans()):
        v[draw(st.integers(0, n - 1))] = aud + draw(st.integers(1, 3))
    edge = EDGE_BETAS + [scheme.error_bound] if isinstance(scheme, rep.Type3) else EDGE_BETAS
    beta = draw(st.lists(st.sampled_from(edge) | st.floats(0.0, 1.0), min_size=n, max_size=n))
    cheaters = frozenset(draw(st.sets(st.integers(0, n - 1))))
    return scheme, tuple(v), aud, tuple(beta), cheaters


def hexes(floats):
    return [float.hex(x) for x in floats]


@given(rosters())
@example((rep.Type1(), (1,), 0, (0.0,), frozenset()))             # v > aud = 0
@example((rep.Type2(), (0, 4, 0), 2, (0.0,) * 3, frozenset({1})))  # v > aud, not first
@example((rep.Type2(), (0, 1924, 3000), 3000, (0.0,) * 3, frozenset()))
@example((rep.Type3(decay=0.0), (0, 0, 0, 0), 1, (0.0, 0.05, 1e308, math.inf),
          frozenset({2})))
def test_roster_rules_match_per_worker_reference(case):
    """`values` and `audit_updates` equal the per-worker rules in conftest,
    float for float by `float.hex`, and raise where they raise."""
    scheme, v, aud, beta, cheaters = case
    try:
        want = [reference_value(scheme, x, aud, b) for x, b in zip(v, beta)]
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            rep.values(scheme, v, aud, beta)
    else:
        assert hexes(rep.values(scheme, v, aud, beta)) == hexes(want)
    want_v, want_beta = zip(*(reference_audit_update(scheme, x, b, truthful=i not in cheaters)
                              for i, (x, b) in enumerate(zip(v, beta))))
    got_v, got_beta = rep.audit_updates(scheme, v, beta, cheaters)
    assert got_v == want_v and all(type(x) is int for x in got_v)
    assert hexes(got_beta) == hexes(want_beta)


class TestProperty1:
    """X always truthful, Y never: X's aggregate eventually dominates."""

    @pytest.mark.parametrize("name", ["type1", "type2", "type3"])
    def test_holds_even_when_outnumbered(self, name):
        scheme = rep.scheme_from_name(name)
        assert rep.check_property1(scheme, x_size=1, y_size=8, horizon=500)

    def test_constant_scheme_cannot_order(self):
        assert not rep.check_property1(rep.NoReputation(), 1, 2, horizon=100)

    def test_bad_horizon(self):
        with pytest.raises(ValueError):
            rep.check_property1(rep.Type1(), 1, 1, horizon=0)


class TestProperty2:
    """Does one joint truthful audit preserve the aggregate ordering?"""

    def test_exponential_preserves_ordering(self):
        assert rep.find_property2_counterexample(rep.Type2()) is None

    def test_linear_ratio_flips(self):
        hit = rep.find_property2_counterexample(rep.Type1())
        assert hit is not None
        assert hit.rho_x_before > hit.rho_y_before
        assert hit.rho_x_after <= hit.rho_y_after

    def test_known_linear_ratio_flip(self):
        # two workers at 2/3 beat three at 1/2; one clean audit levels them
        scheme = rep.Type1()
        x, y = ((1, 1), (0.0,) * 2), ((0, 0, 0), (0.0,) * 3)
        assert sum(rep.values(scheme, x[0], 1, x[1])) > sum(rep.values(scheme, y[0], 1, y[1]))
        x2, y2 = (rep.audit_updates(scheme, *roster, ()) for roster in (x, y))
        assert sum(rep.values(scheme, x2[0], 2, x2[1])) <= sum(rep.values(scheme, y2[0], 2, y2[1]))

    def test_error_rate_flips(self):
        hit = rep.find_property2_counterexample(rep.Type3())
        assert hit is not None
        assert hit.rho_x_after <= hit.rho_y_after

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            rep.find_property2_counterexample(rep.Type1(), max_aud=0)

    @pytest.mark.parametrize("scheme", [rep.Type1(), rep.Type2(), rep.Type3(),
                                        rep.NoReputation()], ids=lambda s: s.name)
    @pytest.mark.parametrize("bounds", [(1, 1, 0), (3, 2, 8), (5, 3, 12), (2, 4, 5)])
    def test_search_matches_nested_loop(self, scheme, bounds):
        max_aud, max_set_size, beta_depth = bounds
        hit = rep.find_property2_counterexample(scheme, max_aud, max_set_size, beta_depth)
        want = reference_property2_search(scheme, max_aud, max_set_size, beta_depth)
        assert repr(hit) == repr(want)


def _aggregate(scheme, aud, counts, audited=False):
    """The summed reputation of per-worker (v, beta) `counts`, after one
    all-truthful audit if `audited`."""
    v, beta = zip(*counts)
    if audited:
        (v, beta), aud = rep.audit_updates(scheme, v, beta, ()), aud + 1
    return sum(rep.values(scheme, v, aud, beta))


def _reference_flip(scheme, aud, x_counts, y_counts):
    rho_x = _aggregate(scheme, aud, x_counts)
    rho_y = _aggregate(scheme, aud, y_counts)
    if rho_x <= rho_y:
        return None
    rho_x_after = _aggregate(scheme, aud, x_counts, audited=True)
    rho_y_after = _aggregate(scheme, aud, y_counts, audited=True)
    if rho_x_after > rho_y_after:
        return None
    return rep.Property2Counterexample(aud, tuple(x_counts), tuple(y_counts),
                                       rho_x, rho_y, rho_x_after, rho_y_after)


def reference_property2_search(scheme, max_aud, max_set_size, beta_depth):
    """The property-2 search as a nested loop over every (X, Y) pair, each
    aggregate computed per pair, schemes told apart by type."""
    def multisets(values):
        for size in range(1, max_set_size + 1):
            yield from itertools.combinations_with_replacement(values, size)

    if isinstance(scheme, rep.NoReputation):
        return None
    if isinstance(scheme, rep.Type3):
        betas = [scheme.beta_init * scheme.decay ** k for k in range(beta_depth + 1)]
        groups = [(1, [(0, b) for b in betas])]
    else:
        groups = [(aud, [(v, 0.0) for v in range(aud + 1)])
                  for aud in range(1, max_aud + 1)]
    for aud, counts in groups:
        for x_counts in multisets(counts):
            for y_counts in multisets(counts):
                hit = _reference_flip(scheme, aud, x_counts, y_counts)
                if hit is not None:
                    return hit
    return None
