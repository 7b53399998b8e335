import re
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repsim.model import (MAX_ROSTER, SETTINGS, ConfigError, ExactState, RoleChange,
                          SystemConfig, WorkerSpec, WorkerType, clamp)
from repsim import engine, model, reputation as rep
from conftest import pick_branch


def test_clamp():
    assert clamp(0.5, 0.0, 1.0) == 0.5
    assert clamp(-3.0, 0.0, 1.0) == 0.0
    assert clamp(7.0, 0.0, 1.0) == 1.0


SPECIAL = [0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 1e-300, -1e-300,
           float("inf"), float("-inf"), float("nan")]


@settings(max_examples=300)
@given(x=st.floats() | st.sampled_from(SPECIAL),
       lo=st.sampled_from(SPECIAL) | st.floats(),
       hi=st.sampled_from(SPECIAL) | st.floats())
def test_clamp_is_max_of_min(x, lo, hi):
    # the same bits as the builtin form, NaN and signed zeros included
    assert repr(clamp(x, lo, hi)) == repr(max(lo, min(hi, x)))


class TestComputePayoffs:
    """A branch's payoffs, picked from the `engine.settle` table."""

    @staticmethod
    def branch(wbys, wpc, cheaters, audited, honest_win=True):
        config = SystemConfig(workers=[WorkerSpec(wby=w) for w in wbys], wpc=wpc, wct=0.1)
        return pick_branch(engine.settle(config), frozenset(cheaters), audited, honest_win)

    def test_audited_round(self):
        # caught cheaters pay wpc, honest workers earn reward minus cost
        majority, p, _ = self.branch([1.0, 1.0, 0.1], 2.0, {0}, True)
        assert p == (-2.0, 0.9, 0.0) and majority == frozenset()

    def test_unaudited_majority_earns(self):
        majority, p, _ = self.branch([1.0, 1.0, 1.0], 0.0, {0}, False)
        assert p == (0.0, 0.9, 0.9) and majority == {1, 2}

    def test_unaudited_cheaters_win(self):
        majority, p, _ = self.branch([1.0, 1.0, 1.0], 0.0, {0, 1}, False, honest_win=False)
        assert p == (1.0, 1.0, -0.1) and majority == {0, 1}


class TestConfigValidation:
    def test_defaults_valid(self):
        cfg = SystemConfig().validate()
        assert cfg.n == 9
        assert cfg.seeds == tuple(range(1, 11))

    def test_pa0_below_floor(self):
        with pytest.raises(ConfigError):
            SystemConfig(p_a0=0.005, p_a_min=0.01).validate()

    def test_empty_roster(self):
        with pytest.raises(ConfigError):
            SystemConfig(workers=[]).validate()

    @pytest.mark.parametrize("knob", ["wpc", "wct"])
    def test_negative_payoff_magnitude(self, knob):
        with pytest.raises(ConfigError):
            SystemConfig(**{knob: -1.0}).validate()

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("knob", ["alpha_m", "alpha_w", "wpc", "wct", "wby",
                                      "aspiration"])
    def test_non_finite_number_named(self, knob, value):
        with pytest.raises(ConfigError, match=f"^{knob} must be a finite number"):
            if knob in ("wby", "aspiration"):   # a WorkerSpec checks its own numbers
                WorkerSpec(**{knob: value})
            else:
                SystemConfig(**{knob: value}).validate()

    def test_empty_seed_list(self):
        with pytest.raises(ConfigError):
            SystemConfig(seeds=()).validate()

    def test_role_change_bounds(self):
        cfg = SystemConfig(role_changes=[RoleChange(10, 99, WorkerType.MALICIOUS)])
        with pytest.raises(ConfigError):
            cfg.validate()


def test_initial_workers_fix_pc_and_beta():
    cfg = SystemConfig(workers=[WorkerSpec(wtype=WorkerType.MALICIOUS, p_c0=0.3),
                                WorkerSpec(wtype=WorkerType.ALTRUISTIC, p_c0=0.3),
                                WorkerSpec(wtype=WorkerType.RATIONAL, p_c0=0.3)],
                       scheme=rep.Type3())
    state = cfg.initial_state()
    assert state == ExactState(p_a=0.5, aud=0, p_c=(1.0, 0.0, 0.3), v=(0, 0, 0),
                               beta=(0.1, 0.1, 0.1))  # from the scheme's beta_init
    assert SystemConfig(scheme=rep.Type2()).initial_state().beta == (0.0,) * 9


def floats(lo=None, hi=None, **kw):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, **kw)


SCHEME_PARAMS = {
    "type1": {},
    "type2": {"epsilon": floats(0.0, 1.0, exclude_min=True, exclude_max=True)},
    "type3": {"error_bound": floats(0.0, exclude_min=True), "beta_init": floats(0.0),
              "decay": floats(0.0), "increment": floats(0.0)},
    "none": {},
}


@st.composite
def valid_configs(draw):
    """SystemConfigs with arbitrary valid floats, -0.0 and extremes included
    (a config holds finite numbers only)."""
    name = draw(st.sampled_from(sorted(SCHEME_PARAMS)))
    params = {key: draw(strategy) for key, strategy in SCHEME_PARAMS[name].items()}
    workers = draw(st.lists(st.builds(
        WorkerSpec, wtype=st.sampled_from(list(WorkerType)), p_c0=floats(0.0, 1.0),
        aspiration=floats(), wby=floats(0.0)), min_size=1, max_size=4))
    p_a_min = draw(floats(0.0, 1.0))
    cfg = SystemConfig(
        workers=workers, scheme=replace(rep.scheme_from_name(name), **params),
        wpc=draw(floats(0.0)), wct=draw(floats(0.0)), alpha_w=draw(floats(0.0)),
        alpha_m=draw(floats(0.0)), p_a0=draw(floats(p_a_min, 1.0)), p_a_min=p_a_min,
        tau=draw(floats(0.0, 1.0)), horizon=draw(st.integers(0, 10_000)),
        seeds=tuple(draw(st.lists(st.integers(0, 10**6), min_size=1, max_size=3,
                                  unique=True))),
        role_changes=[RoleChange(r, draw(st.integers(0, len(workers) - 1)), t)
                      for r, t in draw(st.lists(st.tuples(
                          st.integers(0, 100), st.sampled_from(list(WorkerType))),
                          max_size=2))])
    return cfg.validate()


class TestConfigText:
    def test_round_trip(self):
        cfg = SystemConfig(
            workers=[WorkerSpec(p_c0=1.0), WorkerSpec(wby=0.1)],
            scheme=rep.Type2(epsilon=0.25), tau=0.3, wpc=1.0, horizon=42,
            seeds=(3, 5),
            role_changes=[RoleChange(7, 1, WorkerType.MALICIOUS)])
        assert SystemConfig.from_text(cfg.to_text()) == cfg

    def test_round_trip_type3(self):
        cfg = SystemConfig(scheme=rep.Type3(error_bound=0.1, beta_init=0.2))
        assert SystemConfig.from_text(cfg.to_text()) == cfg

    def test_round_trip_beyond_ten_digits(self):
        # %.10g would write 0.3333333333, which reads back as another tau
        cfg = SystemConfig(tau=1 / 3, workers=[WorkerSpec(p_c0=0.1 + 0.2)])
        text = cfg.to_text()
        assert "tau = 0.3333333333333333\n" in text
        assert "worker = rational 0.30000000000000004 0.1 1\n" in text
        assert SystemConfig.from_text(text) == cfg

    def test_ten_digit_values_keep_their_text(self):
        text = SystemConfig(tau=0.123456789, p_a0=-0.0, p_a_min=-0.0).to_text()
        assert "tau = 0.123456789\n" in text
        assert "p_a = -0\np_a_min = -0\n" in text

    @settings(max_examples=200, deadline=None)
    @given(cfg=valid_configs())
    def test_round_trip_property(self, cfg):
        text = cfg.to_text()
        back = SystemConfig.from_text(text)
        assert back == cfg
        assert back.to_text() == text

    def test_worker_repeat_suffix(self):
        cfg = SystemConfig.from_text("worker = rational 1.0 0.1 1.0 x4\n"
                                     "worker = malicious\n")
        assert cfg.n == 5
        assert [w.wtype for w in cfg.workers].count(WorkerType.MALICIOUS) == 1
        assert all(w.p_c0 == 1.0 for w in cfg.workers[:4])

    def test_comments_and_blank_lines(self):
        cfg = SystemConfig.from_text("# a comment\n\nhorizon = 7  # trailing\n")
        assert cfg.horizon == 7

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            SystemConfig.from_text("frobnicate = 1\n")

    def test_bad_worker_type(self):
        with pytest.raises(ConfigError):
            SystemConfig.from_text("worker = sneaky\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError):
            SystemConfig.from_text("horizon 7\n")

    @pytest.mark.parametrize("text,line", [
        ("worker = rational 1.0 x2\nworker = rational x0\n", 2),
        ("horizon = 5\nseeds =\n", 2),
        ("seeds = 1\nhorizon = 5\nhorizon = 7\n", 3),
        ("scheme = type1\nepsilon = 0.3\n", 2),
        ("beta_decay = 0.9\n", 1),
        ("scheme = type3\nepsilon = 0.3\n", 2),
        ("horizon = 5\nseeds = 1 2 1\n", 2),
        ("horizon = 5\nseeds = 3 -3\n", 2),
        ("seeds = 1 x\n", 1),
        ("horizon = 5\nrole_change = 5 x malicious\n", 2),
        ("horizon = 5.5\n", 1),
        ("seeds = 1\ntau = half\n", 2),
        ("scheme = type2\nepsilon = 0,3\n", 2),
        ("scheme = type3\nbeta_decay = -1\n", 2),
        ("scheme = type3\nbeta_increment = -0.5\n", 2),
        ("scheme = type3\nerror_bound = nan\n", 2),
        ("scheme = type3\nbeta_init = nan\n", 2),
        ("scheme = type3\nerror_bound = inf\n", 2),
        ("worker =\n", 1),
        ("worker = rational abc\n", 1),
        ("worker = rational 0.5 0.1 1 2\n", 1),
        ("role_change = 5 0\n", 1),
        ("role_change = 5 0 sneaky\n", 1),
        ("worker = rational x\u00b2\n", 1),
    ], ids=["repeat-count-zero", "empty-seeds", "repeated-key",
            "type1-epsilon", "type2-beta-decay", "type3-epsilon",
            "repeated-seed", "negative-seed", "malformed-seed", "malformed-role-change",
            "malformed-horizon", "malformed-float", "malformed-scheme-parameter",
            "type3-negative-decay", "type3-negative-increment", "type3-nan-bound",
            "type3-nan-beta-init", "type3-infinite-bound", "empty-worker",
            "malformed-worker-number", "worker-four-numbers", "role-change-two-fields",
            "role-change-bad-type", "superscript-repeat-count"])
    def test_rejected_with_line(self, text, line):
        with pytest.raises(ConfigError, match=f"^line {line}: "):
            SystemConfig.from_text(text)

    def test_malformed_number_named(self):
        with pytest.raises(ConfigError, match="^line 1: role_change: expected an integer, got 'x'$"):
            SystemConfig.from_text("role_change = 5 x malicious\n")

    def test_repeated_seeds_rejected_in_code(self):
        with pytest.raises(ConfigError, match="seed 1 is repeated"):
            SystemConfig(seeds=(1, 2, 1)).validate()

    def test_roster_bound_rejected_in_code(self):
        with pytest.raises(ConfigError, match=f"^at most {MAX_ROSTER} workers") as exc:
            SystemConfig(workers=[WorkerSpec()] * (MAX_ROSTER + 1)).validate()
        assert exc.value.key == "worker"
        SystemConfig(workers=[WorkerSpec()] * MAX_ROSTER).validate()

    def test_roster_bound_checked_per_line(self, monkeypatch):
        # the line whose workers cross the bound is named; later lines are not read
        monkeypatch.setattr(model, "MAX_ROSTER", 10)
        with pytest.raises(ConfigError,
                           match=r"^line 2: at most 10 workers are allowed, got 12$"):
            SystemConfig.from_text("worker = rational x6\nworker = rational x6\n"
                                   "worker = sneaky\n")

    def test_readme_block_names_every_key(self):
        # the README's example config parses, sets every master setting and
        # names every scheme parameter
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
        SystemConfig.from_text(block)
        set_keys = {line.split("=")[0].strip() for line in block.splitlines()
                    if "=" in line.split("#")[0]}
        assert set(SETTINGS) | {"scheme", "seeds", "worker", "role_change"} <= set_keys
        assert rep.PARAM_KEYS <= set(re.findall(r"\w+", block))

    def test_scheme_parameters_not_given_keep_defaults(self):
        cfg = SystemConfig.from_text("scheme = type3\nbeta_decay = 0.9\n")
        assert cfg.scheme == rep.Type3(decay=0.9)
