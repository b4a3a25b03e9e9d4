"""The benchmark's tracer resolves every name it wraps.

``bench/tracer.py`` replaces each function it lists in ``TRACED``, found by
module and attribute path, for the length of a traced run.  A deleted or
renamed name would break every traced benchmark run; installing the tracer
here turns that into a test failure.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(module_name, path):
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


def test_install_wraps_every_traced_name_and_uninstall_restores_it():
    tracer = load_tracer()
    names = [(module, path) for _, module, path, _ in tracer.TRACED]
    originals = [resolve(*name) for name in names]
    traced = tracer.Tracer()
    try:
        traced.install()
        wrapped = [resolve(*name) for name in names]
    finally:
        traced.uninstall()
    assert [getattr(w, "__wrapped__", None) for w in wrapped] == originals
    assert [resolve(*name) for name in names] == originals
