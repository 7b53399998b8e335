"""Domain types and configuration.

Everything here is a plain value type that the engine and the exact
enumerator share; who earns what in a round is stated once, in
`engine.settle`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum

from . import reputation as rep
from .reputation import ConfigError


class WorkerType(Enum):
    RATIONAL = "rational"
    ALTRUISTIC = "altruistic"
    MALICIOUS = "malicious"


#: Decimals `ExactState.canonical` keeps, so that states reached along
#: different paths merge.
GRID_DECIMALS = 12

#: Cheat probability forced by a predefined behavior; rational workers float.
FIXED_PC = {WorkerType.ALTRUISTIC: 0.0, WorkerType.MALICIOUS: 1.0}

#: Most workers a roster may hold: about 1,000x the catalog's nine.
MAX_ROSTER = 10_000


def clamp(x: float, lo: float, hi: float) -> float:
    """max(lo, min(hi, x)), without the two builtin calls: the same value for
    every input (NaN reads hi, -0.0 at lo = 0.0 reads lo)."""
    x = x if x < hi else hi
    return x if x > lo else lo


def _check(key, x, lo, hi, low=None):
    """ConfigError tagged `key` unless `x` is a finite number in [lo, hi];
    `low` is the name of `lo` when a string."""
    if not (lo <= x <= hi and -math.inf < x < math.inf):   # NaN fails both
        low = low if isinstance(low, str) else f"{lo:g}"
        floor = f" >= {low}" if lo > -math.inf else ""
        rule = f"lie in [{low}, {hi:g}]" if hi < math.inf else f"be a finite number{floor}"
        raise ConfigError(f"{key} must {rule}, got {x!r}", key)


@dataclass(frozen=True)
class WorkerSpec:
    """Immutable per-worker configuration entry."""

    wtype: WorkerType = WorkerType.RATIONAL
    p_c0: float = 0.5
    aspiration: float = 0.1
    wby: float = 1.0

    def __post_init__(self):
        _check("p_c0", self.p_c0, 0.0, 1.0)
        _check("wby", self.wby, 0.0, math.inf)
        _check("aspiration", self.aspiration, -math.inf, math.inf)


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


@dataclass(slots=True)
class RoundOutcome:
    """One round: its branch (cheat pattern, audit flag, vote) and the chain
    state after it; its index, majority and payoffs (`engine.settle`) follow
    from those.  A trace holds one per round, so it has slots; rounds share
    cheater sets and, at a fixed point of the learning rule, p_c tuples."""

    cheater_set: frozenset
    audited: bool
    tie_broken: bool
    accepted_correct: bool
    reputations_after: tuple
    p_a_after: float
    p_c_after: tuple


#: The master's settings in manifest order: config key -> (attribute, type,
#: lowest value, highest value).  A lowest value that is a string names the
#: setting (key and attribute alike) whose value bounds it.
SETTINGS = {
    "horizon": ("horizon", int, 0, math.inf),
    "p_a": ("p_a0", float, "p_a_min", 1.0),
    "p_a_min": ("p_a_min", float, 0.0, 1.0),
    "tau": ("tau", float, 0.0, 1.0),
    "alpha_m": ("alpha_m", float, 0.0, math.inf),
    "alpha_w": ("alpha_w", float, 0.0, math.inf),
    "wpc": ("wpc", float, 0.0, math.inf),
    "wct": ("wct", float, 0.0, math.inf),
}


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
        """The config itself, or a ConfigError tagged with the config key it
        rejects (("role_change", k) for the k-th role change)."""
        if not self.workers:
            raise ConfigError("at least one worker is required", "worker")
        if self.n > MAX_ROSTER:
            raise ConfigError(f"at most {MAX_ROSTER} workers are allowed, got {self.n}",
                              "worker")
        if not self.seeds:
            raise ConfigError("at least one seed is required", "seeds")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"seed {_repeated(self.seeds)} is repeated", "seeds")
        if min(self.seeds) < 0:   # random.Random seeds by abs(): -3 would rerun 3
            raise ConfigError(f"seeds must be >= 0, got {min(self.seeds)}", "seeds")
        # a setting bounded by another's value is checked after it
        for key in sorted(SETTINGS, key=lambda k: isinstance(SETTINGS[k][2], str)):
            attr, _, lo, hi = SETTINGS[key]
            bound = getattr(self, lo) if isinstance(lo, str) else lo
            _check(key, getattr(self, attr), bound, hi, lo)
        for k, rc in enumerate(self.role_changes):
            if not (rc.round >= 0 and 0 <= rc.worker < self.n):
                raise ConfigError(f"role_change {rc.round} {rc.worker}: the round must be "
                                  f">= 0 and the worker below {self.n}", ("role_change", k))
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
        lines += [f"{key} = {_num(getattr(scheme, attr))}"
                  for key, attr in rep.scheme_params(scheme).items()]
        lines += [f"{key} = {(str if kind is int else _num)(getattr(self, attr))}"
                  for key, (attr, kind, _, _) in SETTINGS.items()]
        lines.append("seeds = " + " ".join(str(s) for s in self.seeds))
        lines += [f"worker = {w.wtype.value} {_num(w.p_c0)} {_num(w.aspiration)} "
                  f"{_num(w.wby)}" for w in self.workers]
        lines += [f"role_change = {rc.round} {rc.worker} {rc.new_type.value}"
                  for rc in self.role_changes]
        return "\n".join(lines) + "\n"

    def updated(self, settings: dict, where: dict) -> "SystemConfig":
        """A validated copy with `settings` (config key -> its text, or a value
        of the key's type) applied: the scheme (named again, it keeps its
        parameters), its parameters, then the seeds and the `SETTINGS` keys.
        A ConfigError names its source in `where` (`located`)."""
        settings = dict(settings)
        try:
            name = settings.pop("scheme", self.scheme.name)
            scheme = self.scheme if name == self.scheme.name else rep.scheme_from_name(name)
            for key in [k for k in settings if k in rep.PARAM_KEYS]:
                attr = rep.scheme_params(scheme).get(key)
                if attr is None:
                    raise ConfigError(f"scheme {scheme.name} takes no parameter {key!r}", key)
                number = _parse_number(float, settings.pop(key), key)
                scheme = replace(scheme, **{attr: number})
            config = replace(self, scheme=scheme)
            for key, value in settings.items():
                if key == "seeds":
                    config.seeds = parse_seeds(value)
                elif key in SETTINGS:
                    attr, kind, _, _ = SETTINGS[key]
                    setattr(config, attr, _parse_number(kind, value, key))
                else:
                    raise ConfigError(f"unknown config key {key!r}", key)
            return config.validate()
        except ConfigError as exc:
            raise located(exc, where) from None

    @classmethod
    def from_text(cls, text: str) -> "SystemConfig":
        """Parse the key/value config format (see README for the schema).
        Every ConfigError names the line of the key it rejects."""
        raw, where, workers, role_changes = {}, {}, [], []   # where: key -> "line N"
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key == "worker":
                workers.extend(_parse_worker(value, lineno, len(workers)))
            elif key == "role_change":
                where[key, len(role_changes)] = f"line {lineno}"
                role_changes.append(_parse_role_change(value, lineno))
            elif key in raw:
                raise ConfigError(f"line {lineno}: {key!r} is already set on {where[key]}")
            else:
                raw[key], where[key] = value, f"line {lineno}"
        config = cls(role_changes=role_changes)
        config.workers = workers or config.workers
        return config.updated(raw, where)


def located(exc: ConfigError, where: dict) -> ConfigError:
    """`exc` prefixed with the source `where` (config key -> "line 3" or "--pa0")
    gives for its key, or else for the setting bounding it (p_a_min bounds
    p_a); `exc` itself when `where` has neither."""
    bound = SETTINGS[exc.key][2] if exc.key in SETTINGS else None
    source = where.get(exc.key, where.get(bound))
    return exc if source is None else ConfigError(f"{source}: {exc}", exc.key)


def _num(x: float) -> str:
    """`%.10g` when that reads back as `x`, else the shortest round-trip repr."""
    return f"{x:.10g}" if float(f"{x:.10g}") == x else repr(x)


def _parse_worker(value: str, lineno: int, roster: int) -> list:
    # "type [p_c0 [aspiration [wby]]] [xN]", after `roster` workers
    toks = value.split()
    if not toks:
        raise ConfigError(f"line {lineno}: empty worker entry")
    count = 1
    if len(toks) > 1 and toks[-1].startswith("x") and toks[-1][1:].isdecimal():
        count = int(toks.pop()[1:])
        if count < 1:
            raise ConfigError(f"line {lineno}: worker repeat count must be at least 1")
    if roster + count > MAX_ROSTER:
        raise ConfigError(f"line {lineno}: at most {MAX_ROSTER} workers are allowed, "
                          f"got {roster + count}")
    try:
        wtype = WorkerType(toks[0])
    except ValueError:
        raise ConfigError(f"line {lineno}: unknown worker type {toks[0]!r}") from None
    try:
        nums = [float(t) for t in toks[1:]]
    except ValueError:
        raise ConfigError(f"line {lineno}: bad numeric field in worker entry") from None
    if len(nums) > 3:
        raise ConfigError(f"line {lineno}: worker entry takes at most 3 numbers")
    try:
        return [WorkerSpec(wtype, *nums)] * count
    except ConfigError as exc:
        raise ConfigError(f"line {lineno}: worker: {exc}", "worker") from None


def _parse_role_change(value: str, lineno: int) -> RoleChange:
    toks = value.split()
    if len(toks) != 3:
        raise ConfigError(f"line {lineno}: role_change takes 'round worker type'")
    try:   # keyword arguments evaluate in the order written: the type first
        return RoleChange(new_type=WorkerType(toks[2]),
                          round=_parse_number(int, toks[0], "role_change"),
                          worker=_parse_number(int, toks[1], "role_change"))
    except ConfigError as exc:
        raise ConfigError(f"line {lineno}: role_change: {exc}", "role_change") from None
    except ValueError:
        raise ConfigError(f"line {lineno}: unknown worker type {toks[2]!r}") from None


def _parse_number(kind, text, key: str):
    """`text` read as `kind` (int or float), or a ConfigError keyed `key`."""
    try:
        return kind(text)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"expected {what}, got {text!r}", key) from None


def parse_seeds(text: str) -> tuple:
    """The integer seeds of a space- or comma-separated list; `validate` checks them."""
    return tuple(_parse_number(int, tok, "seeds") for tok in text.replace(",", " ").split())


def _repeated(seeds) -> int:
    return next(s for k, s in enumerate(seeds) if s in seeds[:k])
