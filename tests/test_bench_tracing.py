"""The bench tracer wraps functions of the package by name, so a renamed
or deleted function would break the traced bench run; every name it
wraps must resolve.  The tracer is read from bench/, not changed."""

import importlib.util
import pathlib

_TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    missing = [f"{tracing._owner_name(owner)}.{attr}" for _, owner, attr in tracing.TARGETS
               if not (attr in owner if isinstance(owner, dict) else hasattr(owner, attr))]
    assert missing == []
