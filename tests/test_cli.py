import math
import re
from dataclasses import replace
from itertools import chain
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repsim import cli, metrics, oracle, scenarios
from repsim.model import (MAX_ROSTER, SETTINGS, ConfigError, RoundOutcome, SystemConfig,
                          WorkerSpec, WorkerType)
from repsim.reputation import scheme_from_name
from conftest import verify_stdout


def run_cli(*argv):
    return cli.main(list(argv))


def read_dir(path: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def test_list_scenarios(capsys):
    assert run_cli("list-scenarios") == 0
    out = capsys.readouterr().out.splitlines()
    assert "rational9-type2-pc1" in out


def test_command_looked_up_after_parser_built(monkeypatch):
    # the parser is cached; the command it runs must still be read at call time
    run_cli("list-scenarios")
    monkeypatch.setattr(cli, "cmd_run", lambda args: 7)
    assert run_cli("run", "--scenario", "x") == 7


def test_run_requires_one_source(tmp_path):
    assert run_cli("run", "--out", str(tmp_path)) == 2
    assert run_cli("run", "--scenario", "x", "--config", "y") == 2


def test_run_unknown_scenario(tmp_path, capsys):
    assert run_cli("run", "--scenario", "bogus", "--out", str(tmp_path)) == 1
    # the message itself, not its repr with escaped newlines
    err = capsys.readouterr().err
    assert err.startswith("run: unknown scenario 'bogus'; known scenarios:\n")
    assert "\\" not in err


def test_run_writes_expected_files(tmp_path):
    code = run_cli("run", "--scenario", "rational9-type2-pc1",
                   "--horizon", "80", "--seeds", "1,2", "--out", str(tmp_path))
    assert code == 0
    names = {p.name for p in tmp_path.iterdir()}
    assert names == {"trace_seed1.csv", "trace_seed2.csv",
                     "summary.csv", "manifest.txt"}
    header = (tmp_path / "trace_seed1.csv").read_text().splitlines()[0]
    cols = header.split(",")
    assert cols[:7] == ["seed", "round", "audited", "accepted_correct",
                       "tie", "p_a", "reputation_ratio"]
    assert len(cols) == 7 + 3 * 9
    rows = (tmp_path / "trace_seed1.csv").read_text().splitlines()[1:]
    assert len(rows) == 80


def test_reruns_are_byte_identical(tmp_path):
    args = ("run", "--scenario", "mal4-rat5-type2", "--horizon", "120",
            "--seeds", "1 2 3")
    assert run_cli(*args, "--out", str(tmp_path / "a")) == 0
    assert run_cli(*args, "--out", str(tmp_path / "b")) == 0
    assert read_dir(tmp_path / "a") == read_dir(tmp_path / "b")


def test_manifest_replays_identically(tmp_path):
    assert run_cli("run", "--scenario", "cov1of9-type2-tau0.5",
                   "--horizon", "100", "--seeds", "4",
                   "--out", str(tmp_path / "a")) == 0
    assert run_cli("run", "--config", str(tmp_path / "a" / "manifest.txt"),
                   "--out", str(tmp_path / "b")) == 0
    a, b = read_dir(tmp_path / "a"), read_dir(tmp_path / "b")
    assert a["trace_seed4.csv"] == b["trace_seed4.csv"]
    assert a["manifest.txt"] == b["manifest.txt"]


def test_overrides_land_in_manifest(tmp_path):
    assert run_cli("run", "--scenario", "rational9-type1-pc05",
                   "--horizon", "50", "--seeds", "1", "--tau", "0.3",
                   "--wby", "0.2", "--out", str(tmp_path)) == 0
    manifest = (tmp_path / "manifest.txt").read_text()
    assert "tau = 0.3" in manifest
    assert "worker = rational 0.5 0.1 0.2" in manifest


def test_config_file_run(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("scheme = none\nhorizon = 40\nseeds = 2\n"
                   "worker = rational 1.0 0.1 1.0 x3\n")
    assert run_cli("run", "--config", str(cfg),
                   "--out", str(tmp_path / "out")) == 0
    assert (tmp_path / "out" / "trace_seed2.csv").exists()


@pytest.mark.parametrize("extra,epsilon", [
    (("--epsilon", "0.5"), "0.5"),
    (("--scheme", "type2"), "0.3"),
    (("--scheme", "type2", "--epsilon", "0.25"), "0.25"),
], ids=["epsilon-overrides-config", "scheme-keeps-epsilon", "both"])
def test_epsilon_override_against_config(tmp_path, extra, epsilon):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("scheme = type2\nepsilon = 0.3\nhorizon = 20\nseeds = 1\n")
    assert run_cli("run", "--config", str(cfg), *extra,
                   "--out", str(tmp_path / "out")) == 0
    manifest = (tmp_path / "out" / "manifest.txt").read_text()
    assert f"epsilon = {epsilon}\n" in manifest


def test_bad_config_is_reported_not_raised(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("horizon = 20\nseeds =\n")
    assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "out")) == 1
    assert "line 2" in capsys.readouterr().err
    assert run_cli("run", "--scenario", "rational9-type1-pc05", "--epsilon", "0.3",
                   "--out", str(tmp_path / "out")) == 1


@pytest.mark.parametrize("seeds,message", [
    ("1 1", "--seeds: seed 1 is repeated"),
    ("1 x", "--seeds: expected an integer, got 'x'"),
    ("", "--seeds: at least one seed is required"),
    ("3 -3", "--seeds: seeds must be >= 0, got -3"),
], ids=["repeated", "malformed", "empty", "negative"])
def test_bad_seeds_named_by_flag(tmp_path, capsys, seeds, message):
    assert run_cli("run", "--scenario", "rational9-type2-pc1", "--horizon", "30",
                   "--seeds", seeds, "--out", str(tmp_path / "out")) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags,message", [
    (("--pa0", "2"), "--pa0: p_a must lie in [p_a_min, 1], got 2.0"),
    (("--pamin", "2"), "--pamin: p_a_min must lie in [0, 1], got 2.0"),
    (("--pamin", "0.6"), "--pamin: p_a must lie in [p_a_min, 1], got 0.5"),
    (("--tau", "-0.5"), "--tau: tau must lie in [0, 1], got -0.5"),
    (("--wpc", "-1"), "--wpc: wpc must be a finite number >= 0, got -1.0"),
    (("--wct", "nan"), "--wct: wct must be a finite number >= 0, got nan"),
    (("--alpha", "inf"), "--alpha: alpha_m must be a finite number >= 0, got inf"),
    (("--horizon", "-3"), "--horizon: horizon must be a finite number >= 0, got -3"),
    (("--wby", "-1"), "--wby: wby must be a finite number >= 0, got -1.0"),
    (("--aspiration", "nan"), "--aspiration: aspiration must be a finite number, got nan"),
    (("--epsilon", "2"), "--epsilon: type 2 epsilon must lie strictly inside (0, 1), got 2.0"),
    (("--scheme", "type3", "--epsilon", "0.3"),
     "--epsilon: scheme type3 takes no parameter 'epsilon'"),
], ids=["pa0", "pamin", "pamin-above-p-a", "tau", "wpc", "wct", "alpha", "horizon",
        "wby", "aspiration", "epsilon", "epsilon-on-type3"])
def test_bad_flag_named(tmp_path, capsys, flags, message):
    assert run_cli("run", "--scenario", "rational9-type2-pc1", *flags,
                   "--out", str(tmp_path / "out")) == 1
    assert capsys.readouterr().err == f"run: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text,message", [
    ("scheme = type3\nepsilon = 0.3\n", "line 2: scheme type3 takes no parameter 'epsilon'"),
    ("horizon = 20\nseeds = 3 -3\n", "line 2: seeds must be >= 0, got -3"),
], ids=["epsilon-on-type3", "negative-seed"])
def test_bad_config_line_named(tmp_path, capsys, text, message):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(text)
    assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "out")) == 1
    assert capsys.readouterr().err == f"run: {message}\n"
    assert not (tmp_path / "out").exists()


#: Per config key: settings that a config file and the run flags both accept,
#: then settings that both reject (`--alpha` sets both learning rates).
AGREEMENT = {
    "horizon": ({"horizon": "7"}, {"horizon": "-3"}),
    "p_a": ({"p_a": "0.25"}, {"p_a": "2"}),
    "p_a_min": ({"p_a_min": "0.005"}, {"p_a_min": "0.6"}),
    "tau": ({"tau": "0.3"}, {"tau": "-0.5"}),
    "alpha_m": ({"alpha_m": "0.2", "alpha_w": "0.2"}, {"alpha_m": "inf", "alpha_w": "inf"}),
    "alpha_w": ({"alpha_m": "0.3", "alpha_w": "0.3"}, {"alpha_m": "nan", "alpha_w": "nan"}),
    "wpc": ({"wpc": "1.5"}, {"wpc": "-1"}),
    "wct": ({"wct": "0.2"}, {"wct": "inf"}),
    "seeds": ({"seeds": "3,4"}, {"seeds": "1 x"}),
    "scheme": ({"scheme": "type3"}, {"scheme": "type1", "epsilon": "0.3"}),
    "epsilon": ({"epsilon": "0.25"}, {"epsilon": "2"}),
}
BASE = "worker = rational 0.5 0.1 1 x3\n"


def from_file(settings: dict) -> SystemConfig:
    return SystemConfig.from_text(BASE + "".join(f"{k} = {v}\n" for k, v in settings.items()))


def from_flags(settings: dict) -> SystemConfig:
    flags = {f"--{cli.FLAGS.get(k, k)}": v for k, v in settings.items()}
    args = cli.build_parser().parse_args(["run", *chain.from_iterable(flags.items())])
    return cli._apply_overrides(SystemConfig.from_text(BASE), args)


def test_agreement_covers_every_key():
    assert set(AGREEMENT) == set(SETTINGS) | {"seeds", "scheme", "epsilon"}


@pytest.mark.parametrize("key", list(AGREEMENT))
def test_front_ends_agree(key):
    accepted, rejected = AGREEMENT[key]
    text = from_file(accepted).to_text()
    assert text == from_flags(accepted).to_text() != SystemConfig.from_text(BASE).to_text()
    reasons = []
    for build in (from_file, from_flags):
        with pytest.raises(ConfigError) as exc:
            build(rejected)
        reasons.append(str(exc.value).split(": ", 1))
    (line, in_file), (flag, by_flag) = reasons
    assert re.fullmatch(r"line \d+", line) and flag.startswith("--")
    assert in_file == by_flag


@pytest.mark.parametrize("source,key", [
    (("--config", "scheme = type3\nbeta_decay = -1\n"), "beta_decay"),
    (("--config", "scheme = type3\nbeta_increment = -0.5\n"), "beta_increment"),
    (("--config", "scheme = type3\nerror_bound = nan\n"), "error_bound"),
    (("--config", "scheme = type3\nbeta_init = nan\n"), "beta_init"),
    (("--config", "worker = rational 0.5 nan\n"), "aspiration"),
    (("--config", "alpha_w = nan\n"), "alpha_w"),
    (("--scenario", "rational9-type2-pc05", "--alpha", "nan"), "alpha_m"),
    (("--scenario", "rational9-type2-pc05", "--aspiration", "nan"), "aspiration"),
    (("--scenario", "rational9-type2-pc05", "--wct", "inf"), "wct"),
], ids=["type3-negative-decay", "type3-negative-increment", "type3-nan-bound",
        "type3-nan-beta-init", "nan-aspiration", "nan-alpha-w", "flag-nan-alpha",
        "flag-nan-aspiration", "flag-inf-wct"])
def test_non_finite_rejected_before_run(tmp_path, capsys, source, key):
    if source[0] == "--config":
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(source[1])
        source = ("--config", str(cfg))
    assert run_cli("run", *source, "--horizon", "30", "--out", str(tmp_path / "out")) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("run: ") and key in err[0]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text,line,key", [
    ("tau = 2\n", 1, "tau"),
    ("seeds = 1\nalpha_m = nan\n", 2, "alpha_m"),
    ("horizon = -3\n", 1, "horizon"),
    ("seeds = 1\nworker = rational 1.5\n", 2, "worker"),
    ("worker = rational x2\nrole_change = 5 0 malicious\nrole_change = 5 7 malicious\n",
     3, "role_change"),
    ("seeds = 1\np_a_min = 0.2\np_a = 0.1\n", 3, "p_a"),
    ("seeds = 1\np_a_min = 0.6\n", 2, "p_a"),
    ("p_a_min = 2\np_a = 0.5\n", 1, "p_a_min"),
    ("scheme = type3\nbeta_decay = -1\nerror_bound = 0.1\n", 2, "beta_decay"),
    (f"seeds = 1\nworker = rational x{MAX_ROSTER + 1}\n", 2, "worker"),
    (f"worker = rational x{MAX_ROSTER // 2 + 1}\nworker = malicious x{MAX_ROSTER // 2}\n"
     "seeds = 1\n", 2, "worker"),
], ids=["tau", "nan-alpha-m", "horizon", "worker-p-c0", "role-change-worker",
        "p-a-below-floor", "floor-above-default-p-a", "floor-above-1",
        "scheme-parameter", "repeat-count-above-roster-bound", "roster-above-bound"])
def test_config_rejection_names_line_and_key(tmp_path, capsys, text, line, key):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(text)
    assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "out")) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"run: line {line}: ") and key in err[0]
    assert not (tmp_path / "out").exists()


def test_type3_at_its_error_bound_runs(tmp_path):
    # every beta sits at error_bound, so every reputation reads 0.0 after an
    # audit: the master weighs the workers equally
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("scheme = type3\nerror_bound = 0.05\nbeta_init = 0.05\n"
                   "beta_decay = 1\nworker = altruistic x3\nhorizon = 50\nseeds = 1\n")
    assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "out")) == 0
    assert {p.name for p in (tmp_path / "out").iterdir()} == {
        "trace_seed1.csv", "summary.csv", "manifest.txt"}


@pytest.mark.parametrize("name", ["trace_seed1.csv", "summary.csv", "manifest.txt"])
def test_failed_write_is_one_line(tmp_path, capsys, name):
    (tmp_path / name).mkdir()
    assert run_cli("run", "--scenario", "rational9-type2-pc05", "--seeds", "1",
                   "--out", str(tmp_path)) == 1
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("run: ") and name in err


def test_failed_run_creates_no_out_dir(tmp_path, capsys, monkeypatch):
    def fail(config):
        raise ValueError("engine failure")
    monkeypatch.setattr(scenarios, "run_scenario", fail)
    assert run_cli("run", "--scenario", "rational9-type2-pc1",
                   "--out", str(tmp_path / "out")) == 1
    assert capsys.readouterr().err == "run: engine failure\n"
    assert not (tmp_path / "out").exists()


#: `repsim verify <suite>` stdout at the CLI defaults, as first recorded.
VERIFY_STDOUT = {
    "property1":
        "property1 type1: PASS (all splits of 9 workers)\n"
        "property1 type2: PASS (all splits of 9 workers)\n"
        "property1 type3: PASS (all splits of 9 workers)\n",
    "property2":
        "property2 type1: counterexample at aud=1 X=((1, 0.0), (1, 0.0)) "
        "Y=((0, 0.0), (0, 0.0), (0, 0.0)) (1.333>1 then 1.5<=1.5) PASS\n"
        "property2 type2: no counterexample within bounds PASS\n"
        "property2 type3: counterexample at aud=1 X=((0, 0.046329123015975304),) "
        "Y=((0, 0.04876749791155296), (0, 0.04876749791155296)) "
        "(0.03741>0.0248 then 0.06178<=0.07482) PASS\n",
    "lemma1":
        "lemma1: all-cheat set closed=True, reach probability lower bound 0.255871 PASS\n",
    "transitions":
        "transitions: chi2=10.874 p=0.7614 over 16 bins, 100000 samples PASS\n",
    "closed-sets":
        "closed-sets: all-cheat untruthful set closed=True PASS\n"
        "closed-sets: covered honest set (type 2) closed=True PASS\n"
        "closed-sets: uncovered honest set closed=False PASS\n",
}


@pytest.mark.parametrize("suite", list(VERIFY_STDOUT))
def test_verify_suites_pass(suite):
    assert verify_stdout(suite) == (0, VERIFY_STDOUT[suite])


def test_verify_lemma1_exact_within_budget(capsys):
    # eight rounds never outgrow the 5,000-state budget: the answer is exact
    assert run_cli("verify", "lemma1", "--horizon", "8") == 0
    assert capsys.readouterr().out == (
        "lemma1: all-cheat set closed=True, reach probability exact 0.129541 PASS\n")


def test_verify_reports_spent_escape_budget(capsys, monkeypatch):
    # `find_escape`'s budget is a hard bound: one stderr line, no verdict
    monkeypatch.setattr(oracle, "MAX_STATES", 1)
    assert run_cli("verify", "closed-sets") == 1
    assert capsys.readouterr().err == (
        "closed-sets: resource bound exceeded: state budget of 1 exceeded\n")


@pytest.mark.parametrize("suite,flag,value", [
    ("lemma1", "--horizon", "0"),
    ("property1", "--horizon", "-5"),
    ("property2", "--max-aud", "0"),
    ("property2", "--max-aud", "abc"),
    ("property2", "--max-set-size", "0"),
    ("transitions", "--samples", "0"),
    # too few for a chi-square test: pooling leaves one bin
    ("transitions", "--samples", "1"),
    ("transitions", "--samples", "20"),
    ("transitions", "--significance", "2"),
])
def test_verify_rejects_bad_flags(capsys, suite, flag, value):
    with pytest.raises(SystemExit) as exc:
        run_cli("verify", suite, flag, value)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.splitlines()[-1].startswith(f"repsim verify: error: argument {flag}: ")


def test_verify_few_samples_still_tested(capsys):
    assert run_cli("verify", "transitions", "--samples", "200") == 0
    assert capsys.readouterr().out == (
        "transitions: chi2=15.929 p=0.1945 over 13 bins, 200 samples PASS\n")


# -- reference writers: every field formatted on its own -------------------------

def _f(x: float) -> str:
    return "%.10g" % x


def reference_write_trace(path: Path, seed: int, trace, n: int):
    header = (["seed", "round", "audited", "accepted_correct", "tie", "p_a",
               "reputation_ratio"]
              + [f"p_c_{i}" for i in range(n)]
              + [f"rho_{i}" for i in range(n)]
              + [f"cheated_{i}" for i in range(n)])
    lines = [",".join(header)]
    for round_, o in enumerate(trace):
        ratio = sum(r * (-1.0 if i in o.cheater_set else 1.0)
                    for i, r in enumerate(o.reputations_after)) / n
        row = [str(seed), str(round_), str(int(o.audited)),
               str(int(o.accepted_correct)), str(int(o.tie_broken)),
               _f(o.p_a_after), _f(ratio)]
        row += [_f(p) for p in o.p_c_after]
        row += [_f(r) for r in o.reputations_after]
        row += [str(int(i in o.cheater_set)) for i in range(n)]
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n")


def reference_write_summary(path: Path, summary, n: int):
    header = (["round", "p_a", "audit_rate", "correct_rate", "reputation_ratio"]
              + [f"p_c_{i}" for i in range(n)] + [f"rho_{i}" for i in range(n)])
    lines = [",".join(header)]
    for r in range(len(summary.p_a)):
        row = [str(r), _f(summary.p_a[r]), _f(summary.audit_rate[r]),
               _f(summary.correct_rate[r]), _f(summary.reputation_ratio[r])]
        row += [_f(summary.p_c[i, r]) for i in range(n)]
        row += [_f(summary.rho[i, r]) for i in range(n)]
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n")


def _config(scheme, *groups, **knobs):
    workers = [WorkerSpec(wtype, p_c) for wtype, p_c, count in groups
               for _ in range(count)]
    return SystemConfig(workers=workers, scheme=scheme_from_name(scheme),
                        **knobs).validate()


ALT, MAL = WorkerType.ALTRUISTIC, WorkerType.MALICIOUS
WRITER_CASES = {
    # ties in half the unaudited rounds
    "tie-heavy": _config("none", (ALT, 0.0, 2), (MAL, 1.0, 2), horizon=400),
    # every type 2 reputation reads 0.0 from about audit 1075 on
    "underflowed-type2": _config("type2", (MAL, 1.0, 3), horizon=1200),
    # five workers turn malicious at round 500
    "dynamic500": scenarios.get_scenario("dynamic500-type2"),
    # no audit ever happens, so p_a stays -0.0
    "negative-zero": _config("none", (ALT, 0.0, 2), (MAL, 1.0, 1), p_a0=-0.0,
                             p_a_min=-0.0, horizon=50),
    # no round at all: header-only files
    "horizon-zero": _config("type2", (ALT, 0.0, 2), (MAL, 1.0, 1), horizon=0),
}


def _written(write, path, *args) -> bytes:
    write(path, *args)
    return path.read_bytes()


@pytest.mark.parametrize("case", list(WRITER_CASES))
def test_writers_match_reference(tmp_path, case):
    summary, traces = scenarios.run_scenario(replace(WRITER_CASES[case], seeds=(1, 2)))
    n = WRITER_CASES[case].n
    for seed, trace in traces.items():
        got = _written(cli.write_trace, tmp_path / "t.csv", seed, summary.columns[seed])
        assert got == _written(reference_write_trace, tmp_path / "r.csv", seed, trace, n)
    got_summary = _written(cli.write_summary, tmp_path / "s.csv", summary, n)
    assert got_summary == _written(reference_write_summary, tmp_path / "r.csv", summary, n)
    if case == "negative-zero":
        # -0.0 == 0.0, but the trace prints -0 and the seed mean prints 0
        assert {row.split(b",")[5] for row in got.splitlines()[1:]} == {b"-0"}
        assert {row.split(b",")[1] for row in got_summary.splitlines()[1:]} == {b"0"}
    if case == "horizon-zero":
        assert got.count(b"\n") == got_summary.count(b"\n") == 1


#: Floats the writers must print as `reference_write_*` do: both zeros, the
#: least subnormal, both sides of `%.10g`'s switch to exponent form, and
#: pairs whose bits differ past the 10th significant digit (same text).
EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324,
               1e-4, 9.99999999995e-05, 9.999999999e-05,      # 0.0001 0.0001 9.999999999e-05
               9999999999.0, 9999999999.5, 1e10,              # 9999999999 1e+10 1e+10
               0.1, math.nextafter(0.1, 1.0), 1 / 3, math.nextafter(1 / 3, 0.0), 1.0]
# bounded so that a trace's reputation ratio, a sum of up to four, stays finite
edge_floats = st.sampled_from(EDGE_FLOATS) | st.floats(-1e300, 1e300)


@st.composite
def edge_traces(draw):
    n = draw(st.integers(1, 4))
    per_worker = st.lists(edge_floats, min_size=n, max_size=n).map(tuple)
    trace = [RoundOutcome(frozenset(draw(st.sets(st.integers(0, n - 1)))),
                          draw(st.booleans()), draw(st.booleans()), draw(st.booleans()),
                          draw(per_worker), draw(edge_floats), draw(per_worker))
             for _ in range(draw(st.integers(0, 6)))]
    return n, trace


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=edge_traces(), seed=st.integers(0, 10_000))
def test_write_trace_matches_reference_on_edge_values(tmp_path, case, seed):
    n, trace = case
    got = _written(cli.write_trace, tmp_path / "t.csv", seed, metrics.trace_columns(trace, n))
    assert got == _written(reference_write_trace, tmp_path / "r.csv", seed, trace, n)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n=st.integers(1, 4), data=st.data())
def test_write_summary_matches_reference_on_edge_values(tmp_path, n, data):
    rows = data.draw(st.lists(st.lists(edge_floats, min_size=4 + 2 * n, max_size=4 + 2 * n),
                              max_size=6))
    table = np.array(rows, dtype=float).reshape(len(rows), 4 + 2 * n)
    summary = metrics.ScenarioSummary(
        seeds=(1,), p_a=table[:, 0], audit_rate=table[:, 1], correct_rate=table[:, 2],
        reputation_ratio=table[:, 3], p_c=table[:, 4:4 + n].T, rho=table[:, 4 + n:].T,
        convergence_rounds=(None,), total_audits=0.0, columns={})
    got = _written(cli.write_summary, tmp_path / "s.csv", summary, n)
    assert got == _written(reference_write_summary, tmp_path / "r.csv", summary, n)
