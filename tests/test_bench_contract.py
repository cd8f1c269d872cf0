"""The benchmark tracer's contract with the package.

`bench/tracer.py` wraps each entry in its `TARGETS` by replacing the
attribute on its owner, so every name must stay a module or class attribute
that callers look up at call time.  A refactor that moves or inlines one of
them breaks the per-layer trace without failing any other test.
"""

import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("padmm_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_is_an_owner_attribute(tracer):
    for owner, attr, _ in tracer.TARGETS:
        assert attr in owner.__dict__, f"{owner.__name__}.{attr}"


def test_install_then_uninstall_restores_originals(tracer):
    from padmm import engine

    targets = [(owner, attr) for owner, attr, _ in tracer.TARGETS] + [(engine, "minimize")]
    originals = [owner.__dict__[attr] for owner, attr in targets]
    t = tracer.Tracer()
    t.install()
    try:
        assert all(owner.__dict__[attr] is not original
                   for (owner, attr), original in zip(targets, originals))
    finally:
        t.uninstall()
    for (owner, attr), original in zip(targets, originals):
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr}"
