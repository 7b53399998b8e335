"""Trace metrics: reputation ratio, convergence detection, summaries."""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from typing import Optional, Sequence

import numpy as np

#: `detect_convergence`: rounds in a row that must pass, and how far above
#: its floor p_a may sit in them.
WINDOW = 100
P_A_SLACK = 0.005


def reputation_ratio(rho: np.ndarray, cheated: np.ndarray) -> np.ndarray:
    """Signed mean reputation per round of (rounds, n) columns: sum of rho_i *
    (+1 honest / -1 cheat) over n, adding workers in index order from 0."""
    acc = np.zeros(len(rho))
    for i in range(rho.shape[1]):
        acc += np.where(cheated[:, i], -rho[:, i], rho[:, i])
    return acc / rho.shape[1]


def trace_columns(trace: Sequence, n: int) -> dict:
    """A list of RoundOutcome as numpy columns, (rounds,) or (rounds, n) each.
    Each distinct p_c tuple, reputation tuple and cheater set (by `id`: rounds
    share them) is read once, and its row fanned out to the rounds holding it."""
    rounds = len(trace)

    def per_round(attr, dtype):
        return np.fromiter(map(attrgetter(attr), trace), dtype, rounds)

    def distinct(attr):   # (the distinct objects, each round's index among them)
        objs = list(map(attrgetter(attr), trace))
        _, first, inverse = np.unique(np.fromiter(map(id, objs), np.uint64, rounds),
                                      return_index=True, return_inverse=True)
        return [objs[i] for i in first.tolist()], inverse

    def per_worker(attr):
        rows, inverse = distinct(attr)
        flat = chain.from_iterable(rows)
        return np.fromiter(flat, float, len(rows) * n).reshape(len(rows), n)[inverse]

    sets, inverse = distinct("cheater_set")
    cheated = np.zeros((len(sets), n), dtype=bool)
    cheated[np.repeat(np.arange(len(sets)), list(map(len, sets))),
            list(chain.from_iterable(sets))] = True
    cheated = cheated[inverse]
    rho = per_worker("reputations_after")
    return {"round": per_round("round", int), "audited": per_round("audited", bool),
            "correct": per_round("accepted_correct", bool),
            "tie": per_round("tie_broken", bool), "p_a": per_round("p_a_after", float),
            "p_c": per_worker("p_c_after"), "rho": rho, "cheated": cheated,
            "reputation_ratio": reputation_ratio(rho, cheated)}


def detect_convergence(cols: dict, p_a_min: float, start: int = 0) -> Optional[int]:
    """Earliest round r >= start opening `WINDOW` correct, cheap rounds in a
    row of one trace's columns (`trace_columns`).

    A round qualifies when the accepted value is correct and the audit
    probability sits within `P_A_SLACK` of its floor.  Returns None when no
    window fits before the end of the trace.
    """
    if start < 0:
        raise ValueError(f"start must be >= 0, got {start}")
    bad = ~(cols["correct"][start:] & (cols["p_a"][start:] <= p_a_min + P_A_SLACK))
    fails = np.concatenate(([0], np.cumsum(bad)))   # fails[j]: failures before start + j
    opens = np.flatnonzero(fails[WINDOW:] == fails[:-WINDOW])
    return int(start + opens[0]) if len(opens) else None


@dataclass
class ScenarioSummary:
    """Seed-averaged per-round series plus per-seed convergence diagnostics."""

    seeds: tuple
    p_a: np.ndarray                 # (horizon,)
    audit_rate: np.ndarray
    correct_rate: np.ndarray
    reputation_ratio: np.ndarray
    p_c: np.ndarray                 # (n, horizon)
    rho: np.ndarray                 # (n, horizon)
    convergence_rounds: tuple       # per-seed Optional[int]
    total_audits: float             # mean over seeds
    columns: dict                   # seed -> trace_columns of its trace


def summarize(config, traces: dict) -> ScenarioSummary:
    """Arithmetic per-round means of the per-seed traces; each seed's columns
    add onto zeros in seed order, the order a round-by-round loop adds in."""
    seeds, horizon, n = tuple(traces), config.horizon, config.n
    sums = {key: np.zeros(horizon) for key in ("p_a", "audited", "correct",
                                                "reputation_ratio")}
    sums.update(p_c=np.zeros((horizon, n)), rho=np.zeros((horizon, n)))
    conv, audits, columns = [], 0, {}
    for seed in seeds:
        cols = columns[seed] = trace_columns(traces[seed], n)
        for key, total in sums.items():
            total += cols[key]
        audits += np.count_nonzero(cols["audited"])
        conv.append(detect_convergence(cols, config.p_a_min))
    mean = {key: total / len(seeds) for key, total in sums.items()}
    return ScenarioSummary(seeds=seeds, p_a=mean["p_a"],
                           audit_rate=mean["audited"], correct_rate=mean["correct"],
                           reputation_ratio=mean["reputation_ratio"],
                           p_c=mean["p_c"].T, rho=mean["rho"].T,
                           convergence_rounds=tuple(conv),
                           total_audits=audits / len(seeds), columns=columns)
