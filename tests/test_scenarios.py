from dataclasses import replace

import pytest

from repsim import scenarios
from repsim.model import ConfigError, WorkerType


def test_catalog_covers_the_grid():
    names = scenarios.list_scenarios()
    assert names == sorted(names)
    for expected in ("rational9-type2-pc1", "mal5-rat4-none",
                     "alt1-mal8-type1", "cov1of9-type2-tau0.5",
                     "mal4rat5cov1-type3-tau0.1-wpc1", "dynamic500-type2"):
        assert expected in names


def test_get_scenario_returns_fresh_copies():
    a = scenarios.get_scenario("rational9-type2-pc1")
    a.workers.pop()
    b = scenarios.get_scenario("rational9-type2-pc1")
    assert b.n == 9


def test_unknown_scenario_lists_alternatives():
    with pytest.raises(ConfigError, match="rational9-type2-pc1"):
        scenarios.get_scenario("nope")


def test_tau_symbol_accepted():
    cfg = scenarios.get_scenario("cov1of9-type2-τ0.1")
    assert cfg.tau == 0.1


def test_coverage_roster():
    cfg = scenarios.get_scenario("cov1of9-type1-tau0.5")
    wbys = [w.wby for w in cfg.workers]
    assert wbys == [1.0] + [scenarios.UNCOVERED_WBY] * 8


def test_dynamic_scenario_switches_five_workers():
    cfg = scenarios.get_scenario("dynamic500-type1")
    assert cfg.horizon == 2000
    assert [rc.worker for rc in cfg.role_changes] == [0, 1, 2, 3, 4]
    assert all(rc.round == 500 and rc.new_type is WorkerType.MALICIOUS
               for rc in cfg.role_changes)


def test_run_scenario_seed_override():
    config = replace(scenarios.get_scenario("mal8-rat1-type2"), seeds=(7,))
    summary, traces = scenarios.run_scenario(config)
    assert set(traces) == {7}
    assert len(traces[7]) == 1000
