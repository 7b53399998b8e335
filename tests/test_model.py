import pytest

from repsim.model import (ConfigError, ExactState, RoleChange, SystemConfig,
                          WorkerSpec, WorkerType, clamp, compute_payoffs,
                          is_covered)
from repsim import reputation as rep


def test_clamp():
    assert clamp(0.5, 0.0, 1.0) == 0.5
    assert clamp(-3.0, 0.0, 1.0) == 0.0
    assert clamp(7.0, 0.0, 1.0) == 1.0


class TestComputePayoffs:
    def test_audited_round(self):
        # caught cheaters pay wpc, honest workers earn reward minus cost
        p = compute_payoffs(3, frozenset({0}), True, frozenset(),
                            wbys=[1.0, 1.0, 0.1], wpc=2.0, wct=0.1)
        assert p == (-2.0, 0.9, 0.0)

    def test_unaudited_majority_earns(self):
        p = compute_payoffs(3, frozenset({0}), False, frozenset({1, 2}),
                            wbys=[1.0, 1.0, 1.0], wpc=0.0, wct=0.1)
        assert p == (0.0, 0.9, 0.9)

    def test_unaudited_cheaters_win(self):
        p = compute_payoffs(3, frozenset({0, 1}), False, frozenset({0, 1}),
                            wbys=[1.0, 1.0, 1.0], wpc=0.0, wct=0.1)
        assert p == (1.0, 1.0, -0.1)

    def test_audited_with_majority_rejected(self):
        with pytest.raises(ValueError):
            compute_payoffs(2, frozenset(), True, frozenset({0}),
                            wbys=[1.0, 1.0], wpc=0.0, wct=0.1)


def test_is_covered_boundary():
    covered = WorkerSpec(wby=0.2, aspiration=0.1)
    uncovered = WorkerSpec(wby=0.19, aspiration=0.1)
    assert is_covered(covered, wct=0.1)
    assert not is_covered(uncovered, wct=0.1)


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
    ], ids=["repeat-count-zero", "empty-seeds", "repeated-key",
            "type1-epsilon", "type2-beta-decay", "type3-epsilon"])
    def test_rejected_with_line(self, text, line):
        with pytest.raises(ConfigError, match=f"^line {line}: "):
            SystemConfig.from_text(text)

    def test_scheme_parameters_not_given_keep_defaults(self):
        cfg = SystemConfig.from_text("scheme = type3\nbeta_decay = 0.9\n")
        assert cfg.scheme == rep.Type3(decay=0.9)
