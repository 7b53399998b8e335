"""Golden traces: the sha256 of every file `repsim run` writes.

Six runs cover every scheme, a partial-coverage roster with punishment, the
round-500 role change and a tie-heavy roster (four altruistic against four
malicious workers, no reputation), each at its full horizon with seeds 1 and
2.  One more case hashes every `RoundOutcome` field of all 84 presets at
seed 1, so the rosters those six runs leave out are guarded too.  A change
that alters one byte of a trace, a summary or a manifest, or one bit of an
outcome, fails here; record new hashes only with a change that documents why the
simulator's output moved.
"""
import hashlib

import pytest

from repsim import cli, engine, scenarios
from repsim.engine import run_simulation
from conftest import pick_branch

TIES_CONFIG = ("scheme = none\n"
               "worker = altruistic x4\n"
               "worker = malicious x4\n")

GOLDEN = {
    "rational9-type1-pc05": {
        "manifest.txt":
            "e2b5ee1b03a9049ce6503cc65054fb57b9ec272f0dfabbb193cce16cf7fd4b4d",
        "summary.csv":
            "de9ad8ace43827645a6a165f31a0d412c1a7418b30de4ed9a11be17154708b0e",
        "trace_seed1.csv":
            "b7d7a1858fad17a5c3acd4c8570f2faa803779897ff34c9fdd630a5708d2647e",
        "trace_seed2.csv":
            "fce9aa1e1fd8fe5cad82d14688dd706f4e7c6c079585f263b09a41a1424c3b2d",
    },
    "mal5-rat4-type2": {
        "manifest.txt":
            "bbe28ae8c7f18b55b0c3b6208b30a491830cb77f1524fbef5a71795d0b98493f",
        "summary.csv":
            "e490bc93c81011445fd25b02f815fccade49a4d98b955936eeb0d9b69d2dc85f",
        "trace_seed1.csv":
            "e05cb819b44dbc02ff63bd3b03b726f312c411ea37762d1a29d89a0ccd870671",
        "trace_seed2.csv":
            "b09209e965738475420a4ae394f67231366ad0dc0144b5c4035d4ae405d6f755",
    },
    "cov1of9-type3-tau0.5-wpc1": {
        "manifest.txt":
            "6e4fe859009194131a90d21cb2628ac56875469eb2eda77abbe329b29031cd23",
        "summary.csv":
            "a39c7ad9eabbf2ea83474fd7c67cc8868fb93f9b51036030fa61d3a9cbaefeb7",
        "trace_seed1.csv":
            "fe6c7e9c6a2c6db1dc049949a8a525914597b14e6f7b9bf8b4a560f31761b47b",
        "trace_seed2.csv":
            "50dc43c68864e152282541120d858dd960086b759888b871398d174dca422e36",
    },
    "alt5-mal4-none": {
        "manifest.txt":
            "e399dcf0a5b8c7933481f586fb5f28ff032ddb0fdbe64395c0b8c452cabca650",
        "summary.csv":
            "ae2dfd4754a83b5ec26314caa895cef8615b42f7924106f28e1d1265a3701530",
        "trace_seed1.csv":
            "c4bf775c2e99e89ac4bcb88e83eb1acd876d85c6a133af91471bde44edba8e0d",
        "trace_seed2.csv":
            "dcb20ffe7d863c499af7b3782b00280b5a6fdb69fe6c6aa5cf180ca2bbf1764a",
    },
    "dynamic500-type2": {
        "manifest.txt":
            "7491262777938b69121d2410aaed5d2b5eb3e929d719a52c5c8de006f300245b",
        "summary.csv":
            "910fc6121a10675e1d4319708a66b541b696a448ee80872139be6a6fadfa47ce",
        "trace_seed1.csv":
            "d76f4e64d16c1056a8778a838a631087dd9ffe36697eae441a26e042730212fd",
        "trace_seed2.csv":
            "8709694e127efca77a23f087b99bc75120904be369c732d63cd47830d7443dab",
    },
    "alt4-mal4-none": {
        "manifest.txt":
            "9fb61733a009b25c56ad5e4f195011cbabe5882538dcdb25418b48c7d92439cb",
        "summary.csv":
            "a381b86e3493557c1cd096ce24393b2f970e64ee514f62801e9f834895b9fa76",
        "trace_seed1.csv":
            "7d4bdada3bc60792124f8903e80bbfef3ffd663f0ab0bbce0cd8ac1dea9b8a43",
        "trace_seed2.csv":
            "7acd4954574aadd18468f757ebeed13b94d8cf109aa08995e19a9f8644596b16",
    },
}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_run_output_matches_golden_hashes(name, tmp_path):
    if name == "alt4-mal4-none":
        config = tmp_path / "ties.txt"
        config.write_text(TIES_CONFIG)
        source = ["--config", str(config)]
    else:
        source = ["--scenario", name]
    out = tmp_path / "out"
    assert cli.main(["run", *source, "--seeds", "1 2", "--out", str(out)]) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(out.iterdir())}
    assert got == GOLDEN[name]


def _outcome_text(config, trace) -> str:
    """Every RoundOutcome field of a trace of `config`, with each round's
    index, majority and payoffs (`pick_branch` from the `engine.settle` table
    of the roster that ran it), one round per line, floats by `float.hex`
    and sets sorted.  Rounds share their tuples, so each tuple is written
    once per identity (the trace keeps it alive, so no id is reused)."""
    written, branches, p_c = {}, {}, config.initial_state().p_c

    def hexes(values):
        text = written.get(id(values))
        if text is None:
            text = written[id(values)] = ",".join(map(float.hex, values))
        return text

    lines = []
    for r, o in enumerate(trace):
        if any(rc.round == r for rc in config.role_changes):
            config, p_c = engine.apply_role_changes(config, p_c, r)
            branches = {}
        key = o.cheater_set, o.audited, o.accepted_correct
        if key not in branches:
            majority, payoffs, _ = pick_branch(engine.settle(config), *key)
            branches[key] = sorted(majority), ",".join(map(float.hex, payoffs))
        majority, payoffs = branches[key]
        lines.append(f"{r}|{sorted(o.cheater_set)}|{o.audited}|{majority}|"
                     f"{o.tie_broken}|{o.accepted_correct}|{payoffs}|"
                     f"{hexes(o.reputations_after)}|{o.p_a_after.hex()}|{hexes(o.p_c_after)}\n")
    return "".join(lines)


CATALOG_SHA256 = "69483b904b7d77959fab4a827a3f560598183bc04504c5d571b64c11cb9d115d"


def test_catalog_outcomes_match_golden_hash():
    """Every field of every round of the 84 presets at seed 1 and their full
    horizon: the rosters the file-level hashes above leave out."""
    digest = hashlib.sha256()
    for name in scenarios.list_scenarios():
        digest.update(f"{name}\n".encode())
        config = scenarios.get_scenario(name)
        digest.update(_outcome_text(config, run_simulation(config, 1)).encode())
    assert digest.hexdigest() == CATALOG_SHA256
