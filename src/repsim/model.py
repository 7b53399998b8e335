"""Domain types, configuration and the payoff calculus.

Everything here is a plain value type: the engine and the exact enumerator
share these objects and the `compute_payoffs` function so that a round has a
single definition of who earns what.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Sequence

from . import reputation as rep


class ConfigError(ValueError):
    """Raised when a SystemConfig (or config file) is invalid."""


class WorkerType(Enum):
    RATIONAL = "rational"
    ALTRUISTIC = "altruistic"
    MALICIOUS = "malicious"


#: Decimals `ExactState.canonical` keeps, so that states reached along
#: different paths merge.
GRID_DECIMALS = 12

#: Cheat probability forced by a predefined behavior; rational workers float.
FIXED_PC = {WorkerType.ALTRUISTIC: 0.0, WorkerType.MALICIOUS: 1.0}


def clamp(x: float, lo: float, hi: float) -> float:
    return max(lo, min(hi, x))


@dataclass(frozen=True)
class WorkerSpec:
    """Immutable per-worker configuration entry."""

    wtype: WorkerType = WorkerType.RATIONAL
    p_c0: float = 0.5
    aspiration: float = 0.1
    wby: float = 1.0


@dataclass(frozen=True)
class ExactState:
    """Hashable chain state: <p_a, aud, p_c*, v*, beta*>.

    The sampling engine steps it with raw floats; the exact oracle merges
    states reached along different paths through `canonical`.
    """

    p_a: float
    aud: int
    p_c: tuple
    v: tuple
    beta: tuple

    def canonical(self) -> "ExactState":
        """The state rounded to `GRID_DECIMALS` decimals."""
        return ExactState(p_a=round(self.p_a, GRID_DECIMALS), aud=self.aud,
                          p_c=tuple(round(p, GRID_DECIMALS) for p in self.p_c),
                          v=self.v,
                          beta=tuple(round(b, GRID_DECIMALS) for b in self.beta))


@dataclass(frozen=True)
class RoleChange:
    """Scheduled type switch: applied at the start of `round`."""

    round: int
    worker: int
    new_type: WorkerType


@dataclass
class RoundOutcome:
    """Record of one executed round."""

    round: int
    cheater_set: frozenset
    audited: bool
    majority_set: frozenset
    tie_broken: bool
    accepted_correct: bool
    payoffs: tuple
    reputations_after: tuple
    p_a_after: float
    p_c_after: tuple


def is_covered(worker, wct: float) -> bool:
    """True iff honest work can satisfy the worker's aspiration."""
    return worker.wby >= worker.aspiration + wct


def compute_payoffs(n: int, cheaters: frozenset, audited: bool,
                    majority: frozenset, wbys: Sequence[float],
                    wpc: float, wct: float) -> tuple:
    """Net per-worker payoff for one round.

    Audited rounds: caught cheaters pay `wpc`, everyone else earns their
    reward.  Unaudited rounds: only the weighted majority earns.  Honest
    workers then pay the computing cost; the result is the net value the
    learning rule consumes.
    """
    if audited and majority:
        raise ValueError("majority must be empty in an audited round")
    payoffs = []
    for i in range(n):
        if audited:
            pi = -wpc if i in cheaters else wbys[i]
        else:
            pi = wbys[i] if i in majority else 0.0
        if i not in cheaters:
            pi -= wct
        payoffs.append(pi)
    return tuple(payoffs)


@dataclass
class SystemConfig:
    """Full experiment parameterization.

    Defaults reproduce the common simulation setup: 9 covered rational
    workers, p_a(0)=0.5, p_a_min=0.01, tau=0.5, both learning rates 0.1,
    aspiration 0.1, reward 1, cost 0.1, no punishment, horizon 1000 and
    seeds 1..10.
    """

    workers: list = field(default_factory=lambda: [WorkerSpec() for _ in range(9)])
    wpc: float = 0.0
    wct: float = 0.1
    alpha_w: float = 0.1
    p_a0: float = 0.5
    p_a_min: float = 0.01
    tau: float = 0.5
    alpha_m: float = 0.1
    scheme: object = field(default_factory=rep.Type2)
    horizon: int = 1000
    seeds: tuple = tuple(range(1, 11))
    role_changes: list = field(default_factory=list)

    def validate(self):
        if not self.workers:
            raise ConfigError("at least one worker is required")
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"seed {_repeated(self.seeds)} is repeated")
        if self.horizon < 0:
            raise ConfigError("horizon must be non-negative")
        if not 0.0 <= self.p_a_min <= 1.0:
            raise ConfigError("p_a_min must lie in [0, 1]")
        if not self.p_a_min <= self.p_a0 <= 1.0:
            raise ConfigError("p_a0 must lie in [p_a_min, 1]")
        if not 0.0 <= self.tau <= 1.0:
            raise ConfigError("tau must lie in [0, 1]")
        if self.alpha_m < 0 or self.alpha_w < 0:
            raise ConfigError("learning rates must be non-negative")
        if self.wpc < 0 or self.wct < 0:
            raise ConfigError("payoff magnitudes must be non-negative")
        for w in self.workers:
            if not 0.0 <= w.p_c0 <= 1.0:
                raise ConfigError("initial cheat probability must lie in [0, 1]")
            if w.wby < 0:
                raise ConfigError("rewards must be non-negative")
        for rc in self.role_changes:
            if not 0 <= rc.worker < len(self.workers):
                raise ConfigError(f"role change targets unknown worker {rc.worker}")
            if rc.round < 0:
                raise ConfigError("role change round must be non-negative")
        return self

    @property
    def n(self) -> int:
        return len(self.workers)

    def initial_state(self) -> ExactState:
        """Round-0 chain state: predefined types pin p_c, beta starts at the
        scheme's initial error rate."""
        n = self.n
        return ExactState(p_a=self.p_a0, aud=0,
                          p_c=tuple(FIXED_PC.get(w.wtype, w.p_c0) for w in self.workers),
                          v=(0,) * n, beta=(self.scheme.beta_init,) * n)

    # -- plain-text serialization ------------------------------------------

    def to_text(self) -> str:
        scheme = self.scheme
        lines = [f"scheme = {scheme.name}"]
        lines += [f"{key} = {getattr(scheme, attr):.10g}"
                  for key, attr in rep.scheme_params(scheme).items()]
        lines += [
            f"horizon = {self.horizon}",
            f"p_a = {self.p_a0:.10g}",
            f"p_a_min = {self.p_a_min:.10g}",
            f"tau = {self.tau:.10g}",
            f"alpha_m = {self.alpha_m:.10g}",
            f"alpha_w = {self.alpha_w:.10g}",
            f"wpc = {self.wpc:.10g}",
            f"wct = {self.wct:.10g}",
            "seeds = " + " ".join(str(s) for s in self.seeds),
        ]
        for w in self.workers:
            lines.append(f"worker = {w.wtype.value} {w.p_c0:.10g} "
                         f"{w.aspiration:.10g} {w.wby:.10g}")
        for rc in self.role_changes:
            lines.append(f"role_change = {rc.round} {rc.worker} {rc.new_type.value}")
        return "\n".join(lines) + "\n"

    def save(self, path):
        Path(path).write_text(self.to_text())

    @classmethod
    def from_text(cls, text: str) -> "SystemConfig":
        """Parse the key/value config format (see README for the schema)."""
        raw: dict = {}   # key -> (value, line number)
        workers: list = []
        role_changes: list = []
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key == "worker":
                workers.extend(_parse_worker(value, lineno))
            elif key == "role_change":
                role_changes.append(_parse_role_change(value, lineno))
            elif key in raw:
                raise ConfigError(f"line {lineno}: {key!r} is already set "
                                  f"on line {raw[key][1]}")
            else:
                raw[key] = (value, lineno)
        name, lineno = raw.pop("scheme", ("type2", 0))
        try:
            scheme_cls = rep.scheme_class(name)
            takes = rep.scheme_params(scheme_cls)
            params = {}
            for key in [k for k in raw if k in rep.PARAM_KEYS]:
                value, lineno = raw.pop(key)
                if key not in takes:
                    raise ConfigError(f"scheme {scheme_cls.name} takes no {key!r}")
                params[takes[key]] = _parse_number(float, value, key)
            scheme = scheme_cls(**params)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
        cfg = cls(scheme=scheme)
        if workers:
            cfg.workers = workers
        if role_changes:
            cfg.role_changes = role_changes
        simple = {
            "horizon": int, "p_a": float, "p_a_min": float, "tau": float,
            "alpha_m": float, "alpha_w": float, "wpc": float, "wct": float,
        }
        rename = {"p_a": "p_a0"}
        for key, (value, lineno) in raw.items():
            if key == "seeds":
                cfg.seeds = parse_seeds(value, f"line {lineno}: seeds")
            elif key in simple:
                setattr(cfg, rename.get(key, key),
                        _parse_number(simple[key], value, f"line {lineno}: {key}"))
            else:
                raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        return cfg.validate()

    @classmethod
    def from_file(cls, path) -> "SystemConfig":
        return cls.from_text(Path(path).read_text())


def _parse_worker(value: str, lineno: int) -> list:
    # "type [p_c0 [aspiration [wby]]] [xN]"
    toks = value.split()
    if not toks:
        raise ConfigError(f"line {lineno}: empty worker entry")
    count = 1
    if len(toks) > 1 and toks[-1].startswith("x") and toks[-1][1:].isdigit():
        count = int(toks.pop()[1:])
        if count < 1:
            raise ConfigError(f"line {lineno}: worker repeat count must be at least 1")
    try:
        wtype = WorkerType(toks[0])
    except ValueError:
        raise ConfigError(f"line {lineno}: unknown worker type {toks[0]!r}") from None
    try:
        nums = [float(t) for t in toks[1:]]
    except ValueError:
        raise ConfigError(f"line {lineno}: bad numeric field in worker entry") from None
    defaults = [0.5, 0.1, 1.0]
    nums += defaults[len(nums):]
    if len(nums) != 3:
        raise ConfigError(f"line {lineno}: worker entry takes at most 3 numbers")
    spec = WorkerSpec(wtype=wtype, p_c0=nums[0], aspiration=nums[1], wby=nums[2])
    return [spec] * count


def _parse_role_change(value: str, lineno: int) -> RoleChange:
    toks = value.split()
    if len(toks) != 3:
        raise ConfigError(f"line {lineno}: role_change takes 'round worker type'")
    try:
        new_type = WorkerType(toks[2])
    except ValueError:
        raise ConfigError(f"line {lineno}: unknown worker type {toks[2]!r}") from None
    where = f"line {lineno}: role_change"
    return RoleChange(round=_parse_number(int, toks[0], where),
                      worker=_parse_number(int, toks[1], where), new_type=new_type)


def _parse_number(kind, text: str, where: str):
    """`text` read as `kind` (int or float); `where` names it in the error."""
    try:
        return kind(text)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"{where}: expected {what}, got {text!r}") from None


def parse_seeds(text: str, where: str) -> tuple:
    """Distinct integer seeds from a space- or comma-separated list."""
    seeds = tuple(_parse_number(int, tok, where) for tok in text.replace(",", " ").split())
    if not seeds:
        raise ConfigError(f"{where}: needs at least one seed")
    if len(set(seeds)) != len(seeds):
        raise ConfigError(f"{where}: seed {_repeated(seeds)} is repeated")
    return seeds


def _repeated(seeds) -> int:
    return next(s for k, s in enumerate(seeds) if s in seeds[:k])
