"""Correctness gate: every op's output is checked before it counts.

CLI ops are checked on their JSON report: exit code and status, the
structure each command promises (unit count, distinct atom coordinates, a
witness for every generator, granted certificates), and, for the default
seed, the SHA-256 of the report bytes against ``golden.json``.  A hard case
must print the documented JSON error with exit code 1; a traceback is a
harness error.

Kernel ops are checked against an independent evaluation in mpmath's
floating context at several times the requested precision: every enclosure
must contain the reference value and be no wider than ``2^-k``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from mpmath import cos, mp, mpf, pi, power


@dataclass
class Outcome:
    correct: bool  # the op gave the output the benchmark expects of it
    failed: bool  # typed error or wrong output: counts in fail_ratio
    units: int = 0  # certified unit vectors delivered
    error: Optional[str] = None  # typed error name, when there was one
    detail: str = ""


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _wrong(detail: str, error: Optional[str] = None) -> Outcome:
    return Outcome(correct=False, failed=True, error=error, detail=detail)


# ---------------------------------------------------------------------------
# CLI reports
# ---------------------------------------------------------------------------


def _flag(op, name: str, default: int) -> int:
    argv = op.argv
    return int(argv[argv.index(name) + 1]) if name in argv else default


def _check_isometry(result: dict, units: int) -> str:
    got = result["units"]
    if len(got) != units:
        return f"{len(got)} units, {units} requested"
    coords = [u["atom_coordinate"] for u in got]
    if None in coords or len(set(coords)) != len(coords):
        return f"atom coordinates not distinct: {coords}"
    witnesses = result["witnesses"]
    if sorted(witnesses, key=int) != [str(j) for j in range(units)]:
        return "a generator has no witness"
    if not all(witnesses.values()):
        return "an empty witness"
    if result["provisional"]:
        return "provisional result"
    return ""


def _check_structure(op, report: dict) -> str:
    result = report["result"]
    if op.kind == "synthesize":
        return _check_isometry(result, op.units)
    if op.kind == "adversarial-identity":
        return _check_isometry(result, _flag(op, "--n", 3))
    if op.kind == "chains":
        statuses = [lim["status"] for lim in result["limits"]]
        if not result["chains"] or "exact" not in statuses:
            return "no exact chain limit"
        if any(s not in ("exact", "zero") for s in statuses):
            return f"chain limit statuses {statuses}"
        return ""
    if op.kind == "disintegrate":
        stages = result["stages"]
        if len(stages) != _flag(op, "--stages", 3) + 1:
            return f"{len(stages)} stage records"
        for st in stages[1:]:
            if not all(st["certificate"]["flags"].values()):
                return f"stage {st['index']} certificate not granted"
        return ""
    k = Fraction(1, 2 ** _flag(op, "--k", 8))
    if op.kind == "adversarial-e0":
        if Fraction(result["transparent_residual"]["hi"]) >= k:
            return "e_0 residual above 2^-k"
        return ""
    if op.kind == "adversarial-scale":
        scale = Fraction(result["scale"])
        target = result["target"]
        if not Fraction(target["lo"]) - k <= scale <= Fraction(target["hi"]) + k:
            return "recovered scale off target by more than 2^-k"
        return ""
    return f"no structural check for {op.kind}"


def check_cli(op, rc: Optional[int], stdout: str, golden: Optional[str]) -> Outcome:
    """Judge one CLI op.  ``rc`` is None when the op raised (a traceback)."""
    if rc is None:
        return _wrong("harness error: the CLI raised instead of reporting")
    try:
        report = json.loads(stdout)
    except ValueError:
        return _wrong("stdout is not one JSON report")
    status = report.get("status")
    if rc == 1 and status == "error":
        error = report.get("error", {})
        err = error.get("type")
        if op.expect_error is None or err != op.expect_error:
            return _wrong(f"unexpected typed error {err}: {error.get('message')}", err)
        if golden is not None and digest(stdout) != golden:
            return _wrong("error report differs from the golden digest", err)
        return Outcome(correct=True, failed=True, error=err, detail="expected failure")
    if rc != 0 or status != "ok":
        return _wrong(f"exit code {rc}, status {status!r}")
    problem = _check_structure(op, report)
    if problem:
        return _wrong(problem)
    # a hard case that starts to succeed is checked structurally only
    if golden is not None and op.expect_error is None and digest(stdout) != golden:
        return _wrong("report differs from the golden digest")
    return Outcome(correct=True, failed=False, units=op.units)


# ---------------------------------------------------------------------------
# kernel calls
# ---------------------------------------------------------------------------


def _mp(q: Fraction):
    return mpf(q.numerator) / q.denominator


def _to_fraction(x) -> Fraction:
    man, exp = x.man_exp
    man = int(man)
    return Fraction(man * 2**exp) if exp >= 0 else Fraction(man, 2 ** (-exp))


def _abs_sq(parts) -> Fraction:
    re, im = parts
    return re * re + im * im


def _pow_abs(parts, p):
    return power(_mp(_abs_sq(parts)), p / 2)


def _sum_parts(a, b, sign: int):
    return (a[0] + sign * b[0], a[1] + sign * b[1])


def _norm_power(vec: dict, p):
    return sum((_pow_abs(v, p) for v in vec.values()), mpf(0))


def _vec_combine(f: dict, g: dict, sign: int) -> dict:
    out = dict(f)
    for n, v in g.items():
        out[n] = _sum_parts(out.get(n, (Fraction(0), Fraction(0))), v, sign)
    return {n: v for n, v in out.items() if v != (0, 0)}


def _lamperti_den(p):
    return abs(4 - 2 * power(2, p / 2))


def _sigma1(a, b, c, d):
    return abs(2 * (a + b) - (c + d))


def kernel_reference(item: dict) -> dict:
    """Reference values of one kernel op, from the definitions in mp floats."""
    k = item["k"]
    p = _mp(Fraction(item["p"]))
    kind = item["kind"]
    if kind in ("sigma", "lamperti-check"):
        z, w = item["z"], item["w"]
        s1 = _sigma1(
            _pow_abs(z, p), _pow_abs(w, p),
            _pow_abs(_sum_parts(z, w, -1), p), _pow_abs(_sum_parts(z, w, 1), p),
        )
        out = {"sigma": s1 / _lamperti_den(p)}
        if kind == "lamperti-check":
            out["min_power"] = min(_pow_abs(z, p), _pow_abs(w, p))
        return out
    if kind == "objective":
        t = _mp(item["t"])
        c = cos(pi * _mp(item["theta_over_pi"]))
        plus = power(max(1 + 2 * t * c + t * t, mpf(0)), p / 2)
        minus = power(max(1 - 2 * t * c + t * t, mpf(0)), p / 2)
        value = 2 + 2 * power(t, p) - plus - minus
        return {"objective": -value if p > 2 else value, "floor": _lamperti_den(p) - mpf(2) ** -k}
    f, g = item["f"], item["g"]
    nf, ng = _norm_power(f, p), _norm_power(g, p)
    diff, total = _norm_power(_vec_combine(f, g, -1), p), _norm_power(_vec_combine(f, g, 1), p)
    return {"norm": power(nf, 1 / p), "sigma1": _sigma1(nf, ng, diff, total)}


def _encloses(box, ref: Fraction, slack: Fraction) -> bool:
    return box.lo - slack <= ref <= box.hi + slack


def check_kernel(op, output) -> Outcome:
    item, k = op.meta, op.meta["k"]
    target = Fraction(1, 2**k)
    if op.kind == "lamperti-check":
        boxes = dict(zip(("sigma", "min_power"), output))
    elif op.kind == "norm-sigma1":
        boxes = dict(zip(("norm", "sigma1"), output))
    elif op.kind == "objective":
        boxes = {"objective": output}
    else:
        boxes = {"sigma": output}
    with mp.workprec(4 * k + 256):
        ref = kernel_reference(item)
        ref = {name: _to_fraction(mpf(v)) for name, v in ref.items()}
    # the reference is off by far less than this; it only absorbs that error
    slack = target / 2**64
    for name, box in boxes.items():
        if box.width > target:
            return _wrong(f"{name} enclosure wider than 2^-{k}")
        if not _encloses(box, ref[name], slack):
            return _wrong(f"{name} enclosure misses the reference value")
    if op.kind == "objective" and boxes["objective"].lo < ref["floor"] - slack:
        return _wrong("objective lower bound below |4 - 2 sqrt(2)^p| - 2^-k")
    if op.kind == "lamperti-check":
        s, m = boxes["sigma"], boxes["min_power"]
        if m.lo > s.hi + Fraction(1, 2 ** (k - 2)):
            return _wrong("min(|z|^p, |w|^p) <= sigma(z, w) not certified")
    return Outcome(correct=True, failed=False)


def kernel_text(output) -> str:
    """Canonical text of a kernel op's enclosures, for digests."""
    boxes = output if isinstance(output, tuple) else (output,)
    return ";".join(f"{b.lo}|{b.hi}" for b in boxes)
