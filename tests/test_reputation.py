
import itertools

import pytest
from hypothesis import given, strategies as st

import repsim
from repsim import model, reputation as rep

TOL = 1e-12


def test_scheme_name_round_trip():
    for name in rep.SCHEME_NAMES:
        assert rep.scheme_from_name(name).name == name
    with pytest.raises(rep.ConfigError) as exc:
        rep.scheme_from_name("type9")
    assert exc.value.key == "scheme"
    assert rep.scheme_from_name("type3", decay=0.9) == rep.Type3(decay=0.9)
    with pytest.raises(rep.ConfigError, match="epsilon") as exc:
        rep.scheme_from_name("type1", epsilon=0.3)
    assert exc.value.key == "epsilon"


def test_validate_scheme_bounds():
    with pytest.raises(rep.ConfigError) as exc:
        rep.Type2(epsilon=1.0)
    assert exc.value.key == "epsilon"
    with pytest.raises(rep.ConfigError) as exc:
        rep.Type3(error_bound=0.0)
    assert exc.value.key == "error_bound"
    with pytest.raises(rep.ConfigError) as exc:
        rep.scheme_from_name("type3", beta_init=-0.1)
    assert exc.value.key == "beta_init"


def test_one_config_error_class():
    assert repsim.ConfigError is model.ConfigError is rep.ConfigError
    assert issubclass(rep.ConfigError, ValueError)


class TestValue:
    def test_all_schemes_start_at_half(self):
        for name in rep.SCHEME_NAMES:
            assert rep.value(rep.scheme_from_name(name), 0, 0, beta=0.1) == 0.5

    def test_linear_ratio(self):
        assert abs(rep.value(rep.Type1(), 3, 7) - 4 / 9) < TOL
        assert abs(rep.value(rep.Type1(), 0, 5) - 1 / 7) < TOL

    def test_exponential(self):
        assert abs(rep.value(rep.Type2(), 2, 5) - 0.125) < TOL
        assert abs(rep.value(rep.Type2(epsilon=0.3), 1, 4) - 0.027) < TOL
        assert rep.value(rep.Type2(), 5, 5) == 1.0

    def test_error_rate_pinned_above_bound(self):
        assert rep.value(rep.Type3(), 0, 1, beta=0.0500000001) == 0.001

    def test_error_rate_after_clean_streak(self):
        # beta = 0.1 * 0.95^14 is the first value below the 0.05 bound
        beta = 0.1 * 0.95 ** 14
        assert abs(beta - 0.04876749791155296) < TOL
        got = rep.value(rep.Type3(), 14, 14, beta=beta)
        assert abs(got - 0.012401924753263294) < TOL
        assert rep.value(rep.Type3(), 13, 13, beta=0.1 * 0.95 ** 13) == 0.001

    def test_v_above_aud_rejected(self):
        with pytest.raises(ValueError):
            rep.value(rep.Type1(), 3, 2)

    @given(aud=st.integers(0, 60), deficit=st.integers(0, 60),
           beta=st.floats(0.0, 1.0))
    def test_values_stay_in_unit_interval(self, aud, deficit, beta):
        v = max(0, aud - deficit)
        for name in rep.SCHEME_NAMES:
            val = rep.value(rep.scheme_from_name(name), v, aud, beta=beta)
            assert 0.0 <= val <= 1.0

    @given(aud=st.integers(1, 40), shift=st.integers(0, 20),
           deficit=st.integers(0, 12))
    def test_exponential_depends_only_on_deficit(self, aud, shift, deficit):
        aud = max(aud, deficit)
        a = rep.value(rep.Type2(), aud - deficit, aud)
        b = rep.value(rep.Type2(), aud + shift - deficit, aud + shift)
        assert abs(a - b) < TOL


def test_audit_update():
    assert rep.audit_update(rep.Type1(), 3, 0.0, truthful=True) == (4, 0.0)
    assert rep.audit_update(rep.Type1(), 3, 0.0, truthful=False) == (3, 0.0)
    v, beta = rep.audit_update(rep.Type3(), 0, 0.1, truthful=True)
    assert (v, abs(beta - 0.095) < TOL) == (1, True)
    v, beta = rep.audit_update(rep.Type3(), 0, 0.1, truthful=False)
    assert (v, abs(beta - 0.2) < TOL) == (0, True)


def test_aggregate_empty_is_zero():
    assert rep.aggregate(rep.Type2(), [], 5) == 0.0


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
        x, y = [(1, 0.0)] * 2, [(0, 0.0)] * 3
        assert rep.aggregate(scheme, x, 1) > rep.aggregate(scheme, y, 1)
        x2 = [rep.audit_update(scheme, v, b, truthful=True) for v, b in x]
        y2 = [rep.audit_update(scheme, v, b, truthful=True) for v, b in y]
        assert rep.aggregate(scheme, x2, 2) <= rep.aggregate(scheme, y2, 2)

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


def _reference_flip(scheme, aud, x_counts, y_counts):
    rho_x = rep.aggregate(scheme, x_counts, aud)
    rho_y = rep.aggregate(scheme, y_counts, aud)
    if rho_x <= rho_y:
        return None
    x_after = [rep.audit_update(scheme, v, b, truthful=True) for v, b in x_counts]
    y_after = [rep.audit_update(scheme, v, b, truthful=True) for v, b in y_counts]
    rho_x_after = rep.aggregate(scheme, x_after, aud + 1)
    rho_y_after = rep.aggregate(scheme, y_after, aud + 1)
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
