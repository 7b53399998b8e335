import contextlib
import functools
import io

import pytest

from repsim import cli
from repsim.model import SystemConfig, WorkerSpec, WorkerType
from repsim.reputation import scheme_from_name


def make_config(n=3, scheme="none", p_c0=0.5, wby=1.0, **overrides):
    """Small roster with uniform workers; keyword overrides go to SystemConfig."""
    workers = [WorkerSpec(wtype=WorkerType.RATIONAL, p_c0=p_c0, wby=wby)
               for _ in range(n)]
    cfg = SystemConfig(workers=workers, scheme=scheme_from_name(scheme), **overrides)
    return cfg.validate()


@functools.lru_cache(maxsize=None)
def verify_stdout(suite):
    """(exit code, stdout) of `repsim verify <suite>` at the CLI defaults,
    run once per test session: the CLI tests pin the text, the acceptance
    tests read their verdicts from it."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", suite])
    return code, out.getvalue()


@pytest.fixture
def three_workers():
    return make_config()
