"""The benchmark workloads: inputs, one timed operation, and checks.

Each workload turns the benchmark seed into a list of operations, tuples
whose first element is the operation's label.  `run` is
the timed call into repsim; `digest` and `check` look at its output
afterwards, outside the timed region.  Everything here calls repsim through
module attributes (``scenarios.run_scenario``, ``cli.main`` ...) so that the
tracer's wrappers see every call.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
import re
import shutil

import numpy as np

SCHEMES = ("type1", "type2", "type3", "none")


def _sha(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk if isinstance(chunk, bytes) else chunk.encode())
    return h.hexdigest()[:16]


def _quiet(fn, *args):
    """Call `fn` with stdout captured; returns (result, captured text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        result = fn(*args)
    return result, buf.getvalue()


# -- trace checks shared by `catalog` and `long-run` ----------------------------

def expected_reputations(scheme, audited, cheated):
    """Reputation after each round, rebuilt from the audit history.

    v (truthful audits) only counts audited rounds, so v <= aud holds by
    construction; a kernel that loses track of either count shows up here.
    """
    aud = np.cumsum(audited)[:, None].astype(float)
    v = np.cumsum(audited[:, None] & ~cheated, axis=0).astype(float)
    kind = type(scheme).__name__
    if kind == "Type1":
        return (v + 1.0) / (aud + 2.0)
    if kind == "Type2":
        return np.where(aud == 0, 0.5, scheme.epsilon ** (aud - v))
    if kind == "Type3":
        # table[k]: reputations after the k-th audit
        beta = np.full(cheated.shape[1], scheme.beta_init)
        table = [np.full(cheated.shape[1], 0.5)]
        for r in np.flatnonzero(audited):
            beta = np.where(cheated[r], beta + scheme.increment, beta * scheme.decay)
            table.append(np.where(beta > scheme.error_bound, 0.001,
                                  1.0 - np.sqrt(beta / scheme.error_bound)))
        return np.array(table)[np.cumsum(audited)]
    return np.full(cheated.shape, 0.5)


def trace_violations(config, cols, rtol) -> list:
    """Kernel invariants of one per-seed trace given as columns."""
    bad = []
    audited, tie, correct = cols["audited"], cols["tie"], cols["correct"]
    if len(audited) != config.horizon:
        bad.append(f"{len(audited)} rounds, expected {config.horizon}")
        return bad
    p_a, p_c, rho = cols["p_a"], cols["p_c"], cols["rho"]
    slack = rtol * 10
    if not ((p_a >= config.p_a_min - slack) & (p_a <= 1 + slack)).all():
        bad.append("p_a outside [p_a_min, 1]")
    if not ((p_c >= -slack) & (p_c <= 1 + slack)).all():
        bad.append("p_c outside [0, 1]")
    if (tie & audited).any() or not correct[audited].all():
        bad.append("audited round with a tie or a wrong accepted answer")
    want = expected_reputations(config.scheme, audited, cols["cheated"])
    if not np.allclose(rho, want, rtol=rtol, atol=rtol):
        bad.append("reputations disagree with the audit history (v <= aud)")
    return bad


def outcome_columns(trace) -> dict:
    """Columns of an in-memory trace (a list of round outcomes)."""
    return {
        "audited": np.array([o.audited for o in trace], dtype=bool),
        "tie": np.array([o.tie_broken for o in trace], dtype=bool),
        "correct": np.array([o.accepted_correct for o in trace], dtype=bool),
        "p_a": np.array([o.p_a_after for o in trace]),
        "p_c": np.array([o.p_c_after for o in trace]),
        "rho": np.array([o.reputations_after for o in trace]),
        "cheated": np.array([[i in o.cheater_set for i in range(len(o.p_c_after))]
                             for o in trace], dtype=bool),
    }


def csv_columns(path, n) -> dict:
    """Columns of a `repsim run` trace file."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {
        "audited": data[:, 2] == 1, "correct": data[:, 3] == 1,
        "tie": data[:, 4] == 1, "p_a": data[:, 5],
        "p_c": data[:, 7:7 + n], "rho": data[:, 7 + n:7 + 2 * n],
        "cheated": data[:, 7 + 2 * n:7 + 3 * n] == 1,
    }


# -- workloads ------------------------------------------------------------------

class Workload:
    """Defaults: nothing to prepare before an operation, no simulated rounds,
    latency taken per operation."""

    pass_is_op = False

    def __init__(self, repsim, workdir):
        self.repsim = repsim

    def prepare(self, op):
        pass

    def seed_rounds(self, op) -> int:
        return 0


class Catalog(Workload):
    """Every preset through the `repsim run` path, CSV files included.

    Why: it is the north-star end-to-end path; nine-worker rosters, 1,000 to
    2,000 rounds and two seeds per preset keep engine, metrics and cli busy
    while the oracle sits idle, so a seed-batched kernel shows here.
    """

    name = "catalog"
    seeds_per_preset = 2

    def __init__(self, repsim, workdir):
        super().__init__(repsim, workdir)
        self.out = workdir / "run"

    def inputs(self, seed):
        rng = random.Random(seed)
        ops = []
        for name in self.repsim.scenarios.list_scenarios():
            seeds = tuple(rng.sample(range(1, 1_000_000), self.seeds_per_preset))
            config = self.repsim.scenarios.get_scenario(name)
            config.seeds = seeds
            ops.append((name, config))
        return ops

    def seed_rounds(self, op) -> int:
        return op[1].horizon * len(op[1].seeds)

    def prepare(self, op):
        shutil.rmtree(self.out, ignore_errors=True)

    def run(self, op):
        name, config = op
        argv = ["run", "--scenario", name, "--out", str(self.out),
                "--seeds", " ".join(map(str, config.seeds))]
        return _quiet(self.repsim.cli.main, argv)[0]

    def digest(self, op, rc):
        files = sorted(self.out.iterdir()) if self.out.is_dir() else []
        return _sha(f.name.encode() + f.read_bytes() for f in files)

    def check(self, op, rc):
        name, config = op
        if rc != 0:
            return [f"repsim run exited {rc}"]
        n, bad = config.n, []
        traces = []
        for seed in config.seeds:
            cols = csv_columns(self.out / f"trace_seed{seed}.csv", n)
            bad += trace_violations(config, cols, rtol=1e-9)
            traces.append(cols)
        summary = np.loadtxt(self.out / "summary.csv", delimiter=",",
                             skiprows=1, ndmin=2)
        mean_p_a = np.mean([c["p_a"] for c in traces], axis=0)
        mean_p_c = np.mean([c["p_c"] for c in traces], axis=0)
        if not (np.allclose(summary[:, 1], mean_p_a, rtol=1e-9, atol=1e-9)
                and np.allclose(summary[:, 5:5 + n], mean_p_c, rtol=1e-9, atol=1e-9)):
            bad.append("summary.csv is not the per-seed mean")
        manifest = (self.out / "manifest.txt").read_text()
        if self.repsim.model.SystemConfig.from_text(manifest).to_text() != manifest:
            bad.append("manifest.txt does not replay")
        return bad


class LongRun(Workload):
    """One seed, 20,000 rounds, through `run_scenario` without CSV.

    Why: with a single seed there is nothing to batch across, so a
    seed-batched kernel must not lose here, and trace memory grows with the
    horizon.  The three rosters cover the kernel's branches: audit-heavy
    (dynamic500-none), audit-light (dynamic500-type2) and tie-heavy (four
    altruistic against four malicious workers, no reputation).
    """

    name = "long-run"
    horizon = 20_000

    def inputs(self, seed):
        m = self.repsim.model
        rng = random.Random(seed)
        ops = [(preset, self.repsim.scenarios.get_scenario(preset))
               for preset in ("dynamic500-none", "dynamic500-type2")]
        ties = m.SystemConfig(
            scheme=self.repsim.reputation.scheme_from_name("none"),
            workers=[m.WorkerSpec(m.WorkerType.ALTRUISTIC, 0.0)] * 4
            + [m.WorkerSpec(m.WorkerType.MALICIOUS, 1.0)] * 4)
        ops.append(("alt4-mal4-none", ties))
        for _, config in ops:
            config.horizon = self.horizon
            config.seeds = (rng.randrange(1, 1_000_000),)
        return [(f"{name}-h{self.horizon}", config) for name, config in ops]

    def seed_rounds(self, op) -> int:
        return op[1].horizon

    def run(self, op):
        return self.repsim.scenarios.run_scenario(op[1])

    def digest(self, op, result):
        (trace,) = result[1].values()
        return _sha(f"{sorted(o.cheater_set)}|{o.audited:d}|{o.tie_broken:d}|"
                    f"{o.p_a_after!r}|{o.p_c_after!r}|{o.reputations_after!r}\n"
                    for o in trace)

    def check(self, op, result):
        config = op[1]
        summary, traces = result
        (trace,) = traces.values()
        cols = outcome_columns(trace)
        bad = trace_violations(config, cols, rtol=1e-12)
        if not (np.array_equal(summary.p_a, cols["p_a"])
                and np.array_equal(summary.p_c, cols["p_c"].T)):
            bad.append("summary is not the per-seed mean")
        return bad


class Verify(Workload):
    """The five `repsim verify` suites at their CLI defaults.

    Why: oracle reachability, the property-2 search and the 100k-sample
    chi-square sampler dominate while CSV writing is idle; every roster has
    n = 3 (8 cheater sets), so fixed costs of a batched enumerator show.
    The suites are fixed; the seed only sets their order.  Suite costs differ
    a thousandfold and their order by time flips under load, so latency is
    taken per pass (`repsim verify all`) rather than per suite.
    """

    name = "verify"
    pass_is_op = True
    suites = ("property1", "property2", "lemma1", "transitions", "closed-sets")
    #: Numbers the suites printed when the benchmark was written.
    recorded = {"lemma1": r"reach probability lower bound 0\.255871 ",
                "transitions": r"chi2=10\.874 "}

    def inputs(self, seed):
        order = [(suite,) for suite in self.suites]
        random.Random(seed).shuffle(order)
        return order

    def run(self, op):
        return _quiet(self.repsim.cli.main, ["verify", op[0]])

    def digest(self, op, result):
        return _sha([result[1]])

    def check(self, op, result):
        suite, (rc, text) = op[0], result
        lines = text.splitlines()
        bad = [] if rc == 0 else [f"repsim verify {suite} exited {rc}"]
        if not lines or not all(re.search(r" PASS\b", line) for line in lines):
            bad.append(f"{suite}: verdicts {lines!r}")
        pattern = self.recorded.get(suite)
        if pattern and not re.search(pattern, text):
            bad.append(f"{suite}: recorded number {pattern!r} not in {text!r}")
        return bad


class WideOracle(Workload):
    """`enumerate_transitions` on generated mixed-p_c states at n = 6, 8, 10.

    Why: this is the 2^n fan-out `verify` never reaches.  Every scheme gets
    a start state (aud = 0, where all reputations tie at 0.5) and a state
    some audits on (aud > 0); all p_c lie strictly inside (0, 1), so every
    cheater set has mass.
    """

    name = "wide-oracle"
    sizes = (6, 8, 10)

    def inputs(self, seed):
        m, rep, oracle = self.repsim.model, self.repsim.reputation, self.repsim.oracle
        rng = random.Random(seed)
        ops = []
        for n in self.sizes:
            for scheme_name in SCHEMES:
                scheme = rep.scheme_from_name(scheme_name)
                p_c = [round(rng.uniform(0.05, 0.95), 6) for _ in range(n)]
                config = m.SystemConfig(scheme=scheme, seeds=(1,),
                                        workers=[m.WorkerSpec(p_c0=p) for p in p_c])
                config.validate()
                beta0 = getattr(scheme, "beta_init", 0.0)
                start = oracle.ExactState(p_a=round(rng.uniform(0.05, 0.95), 6), aud=0,
                                          p_c=tuple(p_c), v=(0,) * n, beta=(beta0,) * n)
                ops.append((f"n{n}-{scheme_name}-start", config, start))
                aud = rng.randint(1, 3)
                v, beta = [], []
                for _ in range(n):
                    history = [rng.random() < 0.6 for _ in range(aud)]
                    b = beta0
                    if scheme_name == "type3":
                        for truthful in history:
                            b = b * scheme.decay if truthful else b + scheme.increment
                    v.append(sum(history))
                    beta.append(b)
                on = oracle.ExactState(
                    p_a=round(rng.uniform(0.05, 0.95), 6), aud=aud,
                    p_c=tuple(round(rng.uniform(0.05, 0.95), 6) for _ in range(n)),
                    v=tuple(v), beta=tuple(beta))
                ops.append((f"n{n}-{scheme_name}-aud{aud}", config, on))
        return ops

    def run(self, op):
        return self.repsim.oracle.enumerate_transitions(op[1], op[2])

    def digest(self, op, dist):
        rows = sorted((tuple(sorted(b.cheaters)), b.audited, repr(b.tie_outcome),
                       repr(p), repr(s)) for p, b, s in dist.successors)
        return _sha(repr(row) + "\n" for row in rows)

    def check(self, op, dist):
        _, config, state = op
        bad = []
        total = math.fsum(p for p, _, _ in dist.successors)
        if abs(total - 1.0) > self.repsim.oracle.PROB_TOL:
            bad.append(f"mass {total!r} is not 1")
        for p, branch, s in dist.successors:
            if not (p > 0.0 and config.p_a_min <= s.p_a <= 1.0
                    and all(0.0 <= q <= 1.0 for q in s.p_c)
                    and s.aud == state.aud + branch.audited
                    and all(v <= s.aud for v in s.v)):
                bad.append(f"bad successor {s!r} with probability {p!r}")
                break
        return bad


WORKLOADS = {w.name: w for w in (Catalog, LongRun, Verify, WideOracle)}
