"""Span tracer that wraps repsim's public functions from outside the package.

Nothing under ``src/`` knows about tracing: `Tracer.install` replaces module
attributes (``repsim.reputation.value``, ``repsim.engine.round_successor``,
``repsim.oracle.ExactState.canonical`` ...) with timing wrappers and
`Tracer.uninstall` puts the originals back.  A function imported by name into
another repsim module (``engine.compute_payoffs``) is replaced there too, so
every call path is seen.

Each call is a span: name, start, end, parent.  Self time is a span's
duration minus the time covered by its child spans; it is accumulated on a
stack as spans close, so a pass with millions of leaf calls needs no span
log.  With ``keep_spans=True`` every span is also kept in memory and can be
written out once the pass has ended (`write_chrome_trace`).
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import json
import time
from collections import defaultdict

#: The repo's modules are the layers.
LAYERS = ("reputation", "model", "engine", "metrics", "scenarios", "oracle", "cli")


def public_callables(package):
    """(span name, owner, attribute, function) for every public function and
    plain public method defined in one of the layer modules."""
    out = []
    for layer in LAYERS:
        module = getattr(package, layer)
        for attr, obj in sorted(vars(module).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                out.append((f"{layer}.{attr}", module, attr, obj))
            elif inspect.isclass(obj):
                for meth, fn in sorted(vars(obj).items()):
                    if not meth.startswith("_") and inspect.isfunction(fn):
                        out.append((f"{layer}.{attr}.{meth}", obj, meth, fn))
    return out


class Tracer:
    """Per-name call counts, total and self time, plus hook counters."""

    def __init__(self, keep_spans: bool = False):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(float)
        self.spans = [] if keep_spans else None   # [name, start, end, parent]
        self._stack = []                          # [name, start, child_s, span index]
        self._patches = []

    # -- spans -------------------------------------------------------------

    def _enter(self, name):
        index = -1
        if self.spans is not None:
            parent = self._stack[-1][3] if self._stack else -1
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent])
        frame = [name, 0.0, 0.0, index]
        self._stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def _exit(self, frame):
        end = time.perf_counter()
        name, start, child_s, index = frame
        self._stack.pop()
        duration = end - start
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - child_s
        if self._stack:
            self._stack[-1][2] += duration
        if index >= 0:
            span = self.spans[index]
            span[1], span[2] = start, end
        return duration

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself."""
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame)

    def active(self, name) -> bool:
        return any(frame[0] == name for frame in self._stack)

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name, fn, hook):
        enter, exit_ = self._enter, self._exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                duration = exit_(frame)
                if hook is not None:
                    hook(self, args, None, exc, duration)
                raise
            duration = exit_(frame)
            if hook is not None:
                hook(self, args, result, None, duration)
            return result

        return wrapper

    def install(self, package, names=None, hooks=None):
        """Wrap the layer functions of `package` (all, or only `names`).

        ``hooks[name](tracer, args, result, exc, duration)`` runs after each
        call of `name` and may add to `tracer.counters`.
        """
        hooks = hooks or {}
        modules = [package] + [getattr(package, layer) for layer in LAYERS]
        for name, owner, attr, fn in public_callables(package):
            if names is not None and name not in names:
                continue
            wrapper = self._wrap(name, fn, hooks.get(name))
            owners = [owner] if inspect.isclass(owner) else modules
            for target in owners:
                if vars(target).get(attr) is fn:
                    self._patches.append((target, attr, fn))
                    setattr(target, attr, wrapper)
        return self

    def uninstall(self):
        for target, attr, fn in reversed(self._patches):
            setattr(target, attr, fn)
        self._patches.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- output ------------------------------------------------------------

    def descendants(self, index):
        """Spans below span `index` (spans are stored in start order)."""
        inside = {index}
        out = []
        for i in range(index + 1, len(self.spans)):
            if self.spans[i][3] in inside:
                inside.add(i)
                out.append(self.spans[i])
        return out

    def write_chrome_trace(self, path):
        """Kept spans as Chrome trace-event JSON (chrome://tracing, Perfetto)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        events = [{"name": name, "ph": "X", "pid": 1, "tid": 1,
                   "ts": (start - t0) * 1e6, "dur": (end - start) * 1e6,
                   "args": {"id": i, "parent": parent}}
                  for i, (name, start, end, parent) in enumerate(self.spans)]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events}, fh)
