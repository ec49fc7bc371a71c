"""The benchmark's tracer wraps program functions by (module, attribute)
name, so every name it lists must stay a callable attribute of its module."""

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_wrapped_name_is_a_callable_of_its_module(monkeypatch):
    # bench/run.py imports the tracer with bench/ on sys.path.
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    sites = [site for _, _, layer_sites in tracing.WRAPPED for site in layer_sites]
    missing = [f"{module.__name__}.{attr}" for module, attr in sites
               if not callable(getattr(module, attr, None))]
    assert sites and not missing
