from pathlib import Path

import pytest

from repsim import cli


def run_cli(*argv):
    return cli.main(list(argv))


def read_dir(path: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def test_list_scenarios(capsys):
    assert run_cli("list-scenarios") == 0
    out = capsys.readouterr().out.splitlines()
    assert "rational9-type2-pc1" in out


def test_run_requires_one_source(tmp_path):
    assert run_cli("run", "--out", str(tmp_path)) == 2
    assert run_cli("run", "--scenario", "x", "--config", "y") == 2


def test_run_unknown_scenario(tmp_path):
    assert run_cli("run", "--scenario", "bogus", "--out", str(tmp_path)) == 1


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


@pytest.mark.parametrize("suite", ["property2", "closed-sets"])
def test_verify_suites_pass(suite):
    assert run_cli("verify", suite) == 0
