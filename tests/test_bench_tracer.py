"""The benchmark tracer resolves every function family it counts.

bench/spans.py names library functions by their qualified names, and its
Tracer refuses to start when one is missing.  Building it here, without
running it, makes a deleted or renamed family member fail this suite, not
only a benchmark run.  The hook also reads the parameters of two families
from each call's frame locals by name (_pow_key and _oracle_key), so a
renamed parameter is caught here too.  The module is loaded from its file
and writes no bytecode cache beside it.
"""

import importlib
import importlib.util
import os
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from lpiso.presentations import GenCombo, StandardPresentation
from lpiso.scalar_core import DyadicInterval, PExponent, pow_enclosure

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


# one value of each frame local the keys read, of the type the hook reads
_SAMPLE_LOCALS = {
    "base": DyadicInterval.point(Fraction(1, 2)),
    "p": PExponent.from_fraction(Fraction(3, 2)),
    "k": 8,
    "num": Fraction(1),
    "over_p": False,
    "combo": GenCombo.single(0),
    "f": GenCombo.single(0),
    "self": object(),
    "pres": object(),
}


def _key_of_call(key, code):
    """key applied to the frame locals a call of code starts with: its
    parameters, each bound to a sample value.  A KeyError names a local the
    key reads that code does not take."""
    params = code.co_varnames[: code.co_argcount + code.co_kwonlyargcount]
    return key({name: _SAMPLE_LOCALS.get(name, object()) for name in params})


def _family_codes(spans, family):
    modules = _layer_modules(spans)
    for mod_name, qual in spans.FAMILIES[family]:
        for code in spans._module_codes(modules[mod_name]):
            if code.co_qualname == qual:
                yield code


@pytest.mark.parametrize("family, key", [("pow", "_pow_key"), ("oracle", "_oracle_key")])
def test_keyed_families_take_the_locals_the_hook_reads(spans, family, key):
    codes = list(_family_codes(spans, family))
    assert len(codes) >= len(spans.FAMILIES[family])
    for code in codes:
        _key_of_call(getattr(spans, key), code)


@pytest.mark.parametrize(
    "key, code, old, new",
    [
        ("_pow_key", pow_enclosure.__code__, "over_p", "over"),
        ("_oracle_key", StandardPresentation.norm_approx.__code__, "k", "prec"),
    ],
)
def test_a_renamed_parameter_is_refused(spans, key, code, old, new):
    names = list(code.co_varnames)
    names[names.index(old)] = new
    with pytest.raises(KeyError, match=old):
        _key_of_call(getattr(spans, key), code.replace(co_varnames=tuple(names)))
