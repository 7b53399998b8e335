"""Reputation schemes and their ordering-property checkers.

Three metrics are supported plus a constant baseline:

* type 1 -- linear validation ratio (v+1)/(aud+2)
* type 2 -- exponential decay epsilon^(aud-v)
* type 3 -- error-rate driven: the audit outcome moves an error rate beta
  (truthful: beta *= 0.95, cheating: beta += 0.1) and reputation is
  1 - sqrt(beta/A), pinned at 0.001 once beta exceeds the bound A
* none   -- constant 0.5, reducing weighted majority to simple majority

Every rule here is pure and takes a whole roster at once: per-worker counts
`v` and error rates `beta` in worker order, and the audit count `aud` they
share.  `values` gives every worker's reputation and `audit_updates` the
counts after one audit, so the engine, the exact enumerator and the property
checks evaluate reputation identically.  Wherever reputations are summed
(camp weights, aggregates, the master's cheater share) they are added left
to right in worker order, with `sum`: another order (`np.sum`, `@`) rounds
differently and would move ties and the bits of `p_a`.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np


class ConfigError(ValueError):
    """An invalid setting; `key` names the config key it rejects."""

    def __init__(self, message: str, key=None):
        super().__init__(message)
        self.key = key


class Scheme:
    """What every scheme shares: no error rate, and audits leave it alone.

    A scheme is a frozen dataclass whose fields are its parameters (with
    their defaults), whose class attribute `name` is its config name, and
    whose `formulas(v, aud, beta)` gives every worker's reputation once at
    least one audit happened.
    A field's `key` metadata names it in config files when that differs
    from the field name; a bad parameter raises a ConfigError keyed by it.
    """

    beta_init = 0.0

    def beta_updates(self, beta: Sequence, cheaters) -> tuple:
        return tuple(beta)

    def property2_candidates(self, max_aud: int, beta_depth: int) -> list:
        """(aud, per-worker (v, beta) candidates) groups the property-2
        search runs over: every audit count aud <= max_aud with every v <= aud."""
        return [(aud, [(v, 0.0) for v in range(aud + 1)])
                for aud in range(1, max_aud + 1)]


@dataclass(frozen=True)
class Type1(Scheme):
    name = "type1"

    def formulas(self, v: Sequence, aud: int, beta: Sequence) -> tuple:
        return tuple([(x + 1) / (aud + 2) for x in v])


@dataclass(frozen=True)
class Type2(Scheme):
    name = "type2"
    epsilon: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ConfigError("type 2 epsilon must lie strictly inside (0, 1), "
                              f"got {self.epsilon!r}", "epsilon")

    def formulas(self, v: Sequence, aud: int, beta: Sequence) -> tuple:
        return tuple([self.epsilon ** (aud - x) for x in v])


@dataclass(frozen=True)
class Type3(Scheme):
    name = "type3"
    error_bound: float = 0.05
    beta_init: float = 0.1
    decay: float = field(default=0.95, metadata={"key": "beta_decay"})
    increment: float = field(default=0.1, metadata={"key": "beta_increment"})

    def __post_init__(self):
        for key, attr in scheme_params(self).items():
            x = getattr(self, attr)
            if not math.isfinite(x) or x < 0.0:   # `x < 0.0` alone lets NaN through
                raise ConfigError(f"type 3 {key} must be a finite number >= 0, got {x!r}", key)
        if self.error_bound == 0.0:
            raise ConfigError("type 3 error_bound must be positive", "error_bound")

    def formulas(self, v: Sequence, aud: int, beta: Sequence) -> tuple:
        bound = self.error_bound
        return tuple([0.001 if b > bound else 1.0 - math.sqrt(b / bound) for b in beta])

    def beta_updates(self, beta: Sequence, cheaters) -> tuple:
        # a zero decay sets 0.0: an inf beta times 0 is NaN
        return tuple([b + self.increment if i in cheaters else b * self.decay if self.decay
                      else 0.0 for i, b in enumerate(beta)])

    def property2_candidates(self, max_aud: int, beta_depth: int) -> list:
        """One audit count, over the error rates of all-truthful histories of
        length <= beta_depth (cheating only pushes the rate further above
        the bound, where reputation is pinned)."""
        return [(1, [(0, self.beta_init * self.decay ** k) for k in range(beta_depth + 1)])]


@dataclass(frozen=True)
class NoReputation(Scheme):
    name = "none"

    def formulas(self, v: Sequence, aud: int, beta: Sequence) -> tuple:
        return (0.5,) * len(v)


_CLASSES = {cls.name: cls for cls in (Type1, Type2, Type3, NoReputation)}
SCHEME_NAMES = tuple(_CLASSES)


def scheme_params(scheme) -> dict:
    """Config key -> field name for every parameter of a scheme or its class."""
    return {f.metadata.get("key", f.name): f.name for f in fields(scheme)}


#: Config keys of every scheme's parameters.
PARAM_KEYS = frozenset(key for cls in _CLASSES.values() for key in scheme_params(cls))


def scheme_from_name(name: str):
    """The named scheme at its class defaults."""
    cls = _CLASSES.get(name.strip().lower())
    if cls is None:
        raise ConfigError(f"unknown reputation scheme {name!r}; choose from {SCHEME_NAMES}",
                          "scheme")
    return cls()


def values(scheme, v: Sequence, aud: int, beta: Sequence) -> tuple:
    """Every worker's reputation, in worker order, given its validation count
    in `v`, its error rate in `beta` and the shared audit count `aud`.

    A count above `aud` raises ValueError (naming the first), also at
    aud = 0.  Before the first audit every scheme reports 0.5, matching the
    uniform initialization of the master's algorithm.
    """
    if v and max(v) > aud:
        raise ValueError(f"validation count {next(x for x in v if x > aud)} "
                         f"exceeds audit count {aud}")
    return (0.5,) * len(v) if aud == 0 else scheme.formulas(v, aud, beta)


def audit_updates(scheme, v: Sequence, beta: Sequence, cheaters) -> tuple:
    """A roster's (v', beta') after one audit that catches the workers whose
    indices are in `cheaters`; every other worker gains a validation."""
    return (tuple([x + (i not in cheaters) for i, x in enumerate(v)]),
            scheme.beta_updates(beta, cheaters))


def check_property1(scheme, x_size: int, y_size: int, horizon: int) -> bool:
    """Limit-ordering check under the always-audit witness schedule.

    X workers are truthful in every audit and Y workers never are.  True
    iff there is an r* within the horizon after which the aggregate
    reputation of X strictly exceeds that of Y through the horizon.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    x_v, x_beta = (0,) * x_size, (scheme.beta_init,) * x_size
    y_v, y_beta = (0,) * y_size, (scheme.beta_init,) * y_size
    last_violation = 0
    for r in range(1, horizon + 1):
        x_v, x_beta = audit_updates(scheme, x_v, x_beta, ())
        y_v, y_beta = audit_updates(scheme, y_v, y_beta, range(y_size))
        if sum(values(scheme, x_v, r, x_beta)) <= sum(values(scheme, y_v, r, y_beta)):
            last_violation = r
    return last_violation < horizon


@dataclass(frozen=True)
class Property2Counterexample:
    """State where one all-truthful audit flips the aggregate ordering."""

    aud: int
    x_counts: tuple          # per-worker (v, beta)
    y_counts: tuple
    rho_x_before: float
    rho_y_before: float
    rho_x_after: float
    rho_y_after: float


def _count_multisets(candidates: Sequence, max_set_size: int):
    for size in range(1, max_set_size + 1):
        yield from itertools.combinations_with_replacement(candidates, size)


def find_property2_counterexample(scheme, max_aud: int = 10,
                                  max_set_size: int = 3,
                                  beta_depth: int = 40):
    """Search for a state violating order preservation under a joint audit.

    X and Y run over multisets of at most max_set_size workers drawn from
    the scheme's `property2_candidates`.  Each multiset's aggregate before
    and after one all-truthful audit is computed once; pairs are compared
    X-major in multiset order.  Returns the first counterexample, or None.
    """
    if max_aud < 1 or max_set_size < 1:
        raise ValueError("bounds must be at least 1")
    for aud, candidates in scheme.property2_candidates(max_aud, beta_depth):
        sets = list(_count_multisets(candidates, max_set_size))
        rosters = [tuple(zip(*m)) for m in sets]
        before = [sum(values(scheme, v, aud, beta)) for v, beta in rosters]
        rosters = [audit_updates(scheme, v, beta, ()) for v, beta in rosters]
        after = [sum(values(scheme, v, aud + 1, beta)) for v, beta in rosters]
        before_col, after_col = np.array(before), np.array(after)
        for x in range(len(sets)):
            flips = np.flatnonzero((before[x] > before_col) & (after[x] <= after_col))
            if len(flips):
                y = int(flips[0])
                return Property2Counterexample(aud, sets[x], sets[y], before[x],
                                               before[y], after[x], after[y])
    return None
