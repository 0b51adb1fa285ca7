"""The benchmark tracer resolves every function family it counts.

bench/spans.py names library functions by their qualified names, and its
Tracer refuses to start when one is missing.  Building it here, without
running it, makes a deleted or renamed family member fail this suite, not
only a benchmark run.  The module is loaded from its file and writes no
bytecode cache beside it.
"""

import importlib
import importlib.util
import os
import sys
from pathlib import Path

import mpmath
import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _layer_modules(spans):
    return {
        name: importlib.import_module(f"lpiso.{name}")
        for name in spans.LAYERS
        if name not in ("bench", "mpmath")
    }


def test_every_family_member_resolves(spans):
    before = sys.gettrace()
    spans.Tracer(_layer_modules(spans), os.path.dirname(mpmath.__file__))
    assert sys.gettrace() is before  # built, not installed


def test_a_missing_member_is_refused(spans, monkeypatch):
    families = dict(spans.FAMILIES)
    families["certify"] = families["certify"] + [("extension_engine", "no_such_function")]
    monkeypatch.setattr(spans, "FAMILIES", families)
    with pytest.raises(LookupError, match="extension_engine.no_such_function"):
        spans.Tracer(_layer_modules(spans), os.path.dirname(mpmath.__file__))
