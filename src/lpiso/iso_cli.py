"""End-to-end isometry synthesis and the command-line surface.

The synthesis pipeline: build a staged disintegration against the norm
oracle, partition its domain into almost norm-maximizing chains, take the
chain infima, drop the zero ones, and normalize.  The surviving unit
vectors are disjointly supported and generate the space, so mapping the
n-th coordinate vector to the n-th unit extends to a surjective isometry;
the returned object carries computable approximations of the units plus
certificates for unit norms, pairwise disjointness (through the sigma
functional), and generator coverage with explicit witnesses.

The oracle reductions go the other way: from an enumerated set's
presentation, synthesize the first coordinate vector (so the identity map
is computable relative to the set), and conversely read the set's
characteristic real off any unimodular multiple of that vector.  Recovery
of the exponent itself uses two disjoint units: their sum has norm
2^(1/p).

Every command emits one JSON report with certificates and a precision
ledger; reports are deterministic byte-for-byte for fixed inputs.  Exit
codes: 0 all certificates granted, 2 provisional (a chain limit its source
could not certify, or an oracle reduction asked of a set declared
`--staged`, whose membership is known only through its stages), 1 typed
failure, malformed arguments included.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from .chain_partition import CHAIN_SEARCH_STAGES, chain_limit, partition_chains
from .errors import (
    BudgetExhaustedError,
    IndexOutOfRangeError,
    InvalidInputError,
    LpisoError,
    PrecisionExhaustedError,
    ProvisionalError,
)
from .extension_engine import (
    approximate_extend,
    build_disintegration,
    certify_ball,
    empty_map,
)
from .lp_vectors import FinSuppVector, atom_witness, norm_p, norm_per_precision, sigma1_from_norms
from .presentations import (
    AdversarialPresentation,
    CeSet,
    ComputableVector,
    GenCombo,
    Presentation,
    bits_for,
    presentation_from_descriptor,
)
from .scalar_core import (
    MAX_WORKING_PREC,
    CReal,
    DyadicInterval,
    GaussianRational,
    PExponent,
    _padded_norm,
    _width_target,
    ceil_log2,
    format_fraction,
    lamperti_objective,
    log2_enclosure,
    parse_fraction,
    refine,
    sigma_scalar,
    sigma1_scalar,
    abs_pow,
)
from .tree_maps import (
    TreeMap,
    _round_gauss,
    distance_bound,
    index_pairs,
    project_to_strong_hom,
    residual_norm,
    validate_partial_disintegration,
)

# ---------------------------------------------------------------------------
# the synthesized isometry
# ---------------------------------------------------------------------------


@dataclass
class UnitRecord:
    index: int
    chain_id: int
    atom_coordinate: Optional[int]  # transparent peek, when available
    vector: ComputableVector


@dataclass
class IsometryApprox:
    """Approximation of the isometry sending coordinate j to unit u_j."""

    pres: Presentation
    units: List[UnitRecord]
    pairwise_sigma1_bits: int
    generation_bits: int
    witnesses: Dict[int, Dict[int, GaussianRational]]  # j -> unit index -> coeff
    provisional: bool
    ledger: Dict[str, int] = field(default_factory=dict)

    def unit(self, j: int) -> ComputableVector:
        return self.units[j].vector

    def __len__(self) -> int:
        return len(self.units)

    def to_json(self) -> dict:
        return {
            "units": [
                {
                    "index": u.index,
                    "chain": u.chain_id,
                    "atom_coordinate": u.atom_coordinate,
                    "unit_norm_bits": self.pairwise_sigma1_bits,
                }
                for u in self.units
            ],
            "pairwise_sigma1_bits": self.pairwise_sigma1_bits,
            "generation_bits": self.generation_bits,
            "witnesses": {
                str(j): {str(m): str(z) for m, z in sorted(w.items())}
                for j, w in sorted(self.witnesses.items())
            },
            "provisional": self.provisional,
            "ledger": dict(sorted(self.ledger.items())),
        }


def _normalize(vec: ComputableVector, cert_bits: int) -> ComputableVector:
    kk = max(4, cert_bits // 2)
    while True:
        lo = vec.norm_enclosure(kk).lo
        if lo > 0:
            break
        kk *= 2
        if kk > 1 << 12:
            raise PrecisionExhaustedError("cannot normalize: norm not certified positive")
    inv_bits = bits_for(lo) + 1  # 1/||v|| <= 2^inv_bits
    return vec.over_norm_of(vec, inv_bits)


def _transparent_atom_peek(
    vec: ComputableVector, prec: int
) -> Tuple[Optional[int], Optional[GaussianRational]]:
    snap = vec.transparent(prec)
    if not snap.entries:
        return None, None
    coord, coeff = max(snap.entries.items(), key=lambda kv: kv[1].abs_sq())
    rest = snap - FinSuppVector.basis(coord, coeff)
    if norm_p(rest, vec.pres.p, prec).hi < _width_target(max(2, prec - 4)):
        return coord, coeff
    return None, None


def _rounded_norm(vec: ComputableVector, k: int) -> DyadicInterval:
    """Enclosure of ||vec||, width <= 2**-k, queried on a dyadic rounding.

    Reads vec.approx(k + 2), as vec.norm_enclosure(k) does, and rounds each
    real and imaginary part to the nearest multiple of 2^-m with
    m = k + 3 + ceil_log2(B), B the sum of the presentation's
    generator_norm_bound over the support.
    Each coefficient moves by at most 2^-(m+1) sqrt(2) < 2^-m, so the
    combination moves by less than 2^-m B <= 2^-(k+3).  The oracle's
    enclosure of the rounded combination at k + 2, padded by 2^-(k+2)
    (approximation) plus 2^-(k+3) (rounding), therefore holds the true
    norm, and its width is 2^-(k+2) + 2^-(k+1) + 2^-(k+2) = 2^-k.
    """
    combo = vec.approx(k + 2)
    m = k + 3 + ceil_log2(sum(vec.pres.generator_norm_bound(j) for j in combo.entries))
    rounded = GenCombo({j: _round_gauss(z, m) for j, z in combo.entries.items()})
    inner = vec.pres.norm_enclosure(rounded, k + 2)
    return _padded_norm(inner.lo, inner.hi, _width_target(k + 2) + _width_target(k + 3))


def _certify_pairwise(
    units: Sequence[ComputableVector], pres: Presentation, cert_bits: int
) -> None:
    """Certify every pair of units disjoint: its sigma1, computed from norm
    queries only, must clear 2^-cert_bits; PrecisionExhaustedError if not.

    Every norm read here (each unit's, once per precision and shared by its
    pairs, and those of a - b and a + b) comes from `_rounded_norm`, so the
    oracle sees short dyadic coefficients instead of the unit's long
    rationals, and the whole loop shares one `pow_enclosure` memo.  Only
    this check rounds.  `ComputableVector.norm_enclosure`,
    `reciprocal_norm`, `over_norm_of`, `_normalize`, the atom peek and the
    generation witnesses read the unrounded approximations: they make the
    unit coefficients and the witness strings the report prints, which the
    rounding therefore leaves unchanged.  `synthesize_isometry` hands in
    views that read each unit at one precision (see there).
    """
    def norm_of(vec: ComputableVector) -> Callable[[int], DyadicInterval]:
        return lambda kk: _rounded_norm(vec, kk)

    with pres.p.shared_powers():
        unit_norms = [norm_per_precision(norm_of(vec)) for vec in units]
        for i, j in index_pairs(len(units)):
            a, b = units[i], units[j]
            box = sigma1_from_norms(
                unit_norms[i],
                unit_norms[j],
                norm_of(a - b),
                norm_of(a + b),
                pres.p,
                cert_bits + 2,
            )
            if box.hi >= _width_target(cert_bits):
                raise PrecisionExhaustedError(
                    f"pairwise sigma1 certificate failed for units {i}, {j}"
                )


def _stages_built(stages: int) -> int:
    """The stages a chain search is built on when `stages` are asked for:
    at least 3, since spare stages keep the normalized root's tail bound
    ahead of the stage-bound precision the chain searches start from."""
    return max(stages, 3)


def synthesize_isometry(
    pres: Presentation,
    n_units: int,
    *,
    cert_bits: int = 12,
    generation_bits: Optional[int] = None,
) -> IsometryApprox:
    """Produce n_units certified disjointly supported unit vectors.

    Pipeline: staged disintegration, chain partition, chain limits, zero
    filtering, normalization.  Certificates: every unit's norm encloses 1
    within 2^-cert_bits, every pairwise sigma1 upper bound clears
    2^-cert_bits, and each of the first n_units generators is approximated
    within 2^-generation_bits (n_units when None) by an explicitly
    witnessed combination.  Every certificate reads a unit through
    `unit.at_least(peek_prec + 1)`, so all of them, the atom peek included,
    share the one approximation the peek makes; a finer request still
    reaches the unit.  The pairwise check reads its norms on dyadic
    roundings of those approximations, inside one shared power memo (see
    `_certify_pairwise`).  The records hold the raw units, which `apply`
    reads at its own precisions.
    """
    gen_bits = n_units if generation_bits is None else generation_bits
    peek_prec = max(gen_bits, cert_bits) + 8

    n_stages = _stages_built(n_units)
    source = build_disintegration(pres, n_stages).chain_source()
    partition = partition_chains(source, stage_budget=n_stages)

    provisional = False
    units: List[UnitRecord] = []
    # one backdoor peek per unit: its atom coordinate, and the coefficient
    # the generation witnesses divide by (first unit on each coordinate)
    atom_of: Dict[int, Tuple[int, GaussianRational]] = {}
    views: List[ComputableVector] = []
    for cid in range(len(partition.chains)):
        if len(units) >= n_units:
            break
        lim = chain_limit(source, partition, cid, cert_bits + 4)
        if lim.status == "zero":
            continue
        if lim.status == "provisional":
            provisional = True
            continue
        unit = _normalize(lim.vector, cert_bits)
        view = unit.at_least(peek_prec + 1)  # the precision the peek reads
        box = view.norm_enclosure(cert_bits + 2)
        if not (box.lo >= 1 - _width_target(cert_bits) and box.hi <= 1 + _width_target(cert_bits)):
            raise PrecisionExhaustedError("unit norm certificate failed")
        atom_coord, coeff = _transparent_atom_peek(unit, peek_prec)
        if atom_coord is not None and atom_coord not in atom_of:
            atom_of[atom_coord] = (len(units), coeff)
        units.append(UnitRecord(len(units), cid, atom_coord, unit))
        views.append(view)
    if len(units) < n_units:
        raise BudgetExhaustedError(
            f"only {len(units)} nonzero chain limits at {n_units} stages",
            budget=n_units,
        )

    _certify_pairwise(views, pres, cert_bits)

    # generator coverage with explicit witnesses over the units
    witnesses: Dict[int, Dict[int, GaussianRational]] = {}
    for j in range(n_units):
        beta = atom_witness(pres.generator_vector(j, peek_prec), atom_of)
        terms = [(views[m], z) for m, z in beta.items()]
        upper = residual_norm(pres, j, terms, gen_bits + 2).hi
        if upper >= _width_target(gen_bits):
            raise PrecisionExhaustedError(
                f"generation witness for generator {j} missed 2^-{gen_bits}"
            )
        witnesses[j] = beta

    ledger = {
        "stages": n_units,
        "cert_bits": cert_bits,
        "generation_bits": gen_bits,
        "chain_search": CHAIN_SEARCH_STAGES,
    }
    return IsometryApprox(
        pres, units, cert_bits, gen_bits, witnesses, provisional, ledger
    )


def apply_isometry(iso: IsometryApprox, x: FinSuppVector, k: int) -> GenCombo:
    """Image of a finitely supported vector under the synthesized isometry."""
    if any(n >= len(iso.units) for n in x.support()):
        raise IndexOutOfRangeError(
            f"vector touches coordinates beyond the {len(iso.units)} synthesized units"
        )
    if x.is_zero():
        return GenCombo({})
    acc: Optional[ComputableVector] = None
    for n, z in sorted(x.entries.items()):
        term = iso.unit(n).scale_gauss(z)
        acc = term if acc is None else acc + term
    return acc.approx(k)


# ---------------------------------------------------------------------------
# oracle reductions
# ---------------------------------------------------------------------------


def recover_scale_from_atom(
    v: ComputableVector, q0: Fraction, k: int
) -> Fraction:
    """Read (1 - gamma)^(-1/p) off a vector approximating a unimodular
    multiple of the zeroth coordinate vector.

    q0 must dominate the target; the query precision k' makes
    2^-k' q0 <= 2^-(k+1), and the zeroth coefficient's modulus is then
    within 2^-(k+1) of the target.
    """
    if q0 < 1:
        raise ValueError("q0 must be at least 1")
    k_query = k + 1 + ceil_log2(q0)
    combo = v.approx(k_query)
    alpha0 = combo[0]
    return CReal.sqrt_of_fraction(alpha0.abs_sq()).approx(k + 1)


def identity_reduction(
    ce: CeSet, p: PExponent, n_units: int, k: int
) -> IsometryApprox:
    """The first coordinate vectors as computable combinations over the
    adversarial presentation: the identity map, computed relative to the
    enumerated set (a set without a membership oracle ends in
    NoBackdoorError)."""
    pres = AdversarialPresentation(ce, p)
    units: List[UnitRecord] = []
    witnesses: Dict[int, Dict[int, GaussianRational]] = {}
    for j in range(n_units):
        combo = pres.e0_combo(k) if j == 0 else GenCombo.single(j)
        vec = ComputableVector.constant(combo, pres)
        box = vec.norm_enclosure(k + 2)
        # the true norm is within 2^-k of 1; the enclosure must agree
        if box.hi < 1 - _width_target(k) or box.lo > 1 + _width_target(k):
            raise PrecisionExhaustedError(f"unit norm for e_{j} not certified")
        units.append(UnitRecord(j, j, j, vec))
        witnesses[j] = {j: GaussianRational.one()}
    return IsometryApprox(
        pres,
        units,
        pairwise_sigma1_bits=k,
        generation_bits=k,
        witnesses=witnesses,
        provisional=False,
        ledger={"k": k, "n_units": n_units},
    )


def recover_p(
    pres: Presentation,
    k_bits: int,
) -> DyadicInterval:
    """Enclose the exponent from the norm of the sum of two disjoint units:
    the sum's norm is 2^(1/p)."""
    iso = synthesize_isometry(pres, 2, cert_bits=max(12, k_bits + 8))
    u, v = iso.unit(0), iso.unit(1)
    total = u + v

    def attempt(kk: int) -> Optional[DyadicInterval]:
        norm_box = total.norm_enclosure(kk)
        if norm_box.lo <= 1:
            return None
        log_box = log2_enclosure(norm_box, kk)
        if log_box.lo <= 0:
            return None
        out = log_box.reciprocal()
        return out if out.fits(k_bits) else None

    return refine(
        attempt,
        max(10, k_bits + 6),
        what="exponent recovery ran out of precision",
        cap=1 << 12,
    )


# ---------------------------------------------------------------------------
# CLI plumbing
# ---------------------------------------------------------------------------


T = TypeVar("T")


def _parse(what: str, fn: Callable[..., T], *args) -> T:
    """fn(*args), with a malformed input reported as InvalidInputError."""
    try:
        return fn(*args)
    except (ValueError, TypeError, KeyError, AttributeError, OSError) as exc:
        raise InvalidInputError(f"bad {what}: {exc}") from exc


def _load_json_arg(text: str) -> dict:
    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as fh:
            return json.load(fh)
    return json.loads(text)


def _exponent(text: str) -> PExponent:
    return PExponent.from_fraction(parse_fraction(text))


def _tree_map_arg(text: str, p: PExponent) -> TreeMap:
    return TreeMap.from_json(_load_json_arg(text), p)


def _interval_json(box: DyadicInterval) -> dict:
    return {"lo": format_fraction(box.lo), "hi": format_fraction(box.hi)}


def _emit(report: dict) -> int:
    try:
        print(json.dumps(report, indent=2, sort_keys=True), flush=True)
    except BrokenPipeError:
        # the reader is gone: keep the flush at exit from raising again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    status = report.get("status", "ok")
    return {"ok": 0, "provisional": 2}.get(status, 1)


def _p_from_args(args) -> PExponent:
    return _parse("--p", _exponent, args.p)


def _pres_from_args(args) -> Presentation:
    desc = _parse("--pres", _load_json_arg, args.pres)
    default_p = _p_from_args(args) if getattr(args, "p", None) else None
    return _parse("--pres", presentation_from_descriptor, desc, default_p)


# integer options that count something or set a precision: never negative
_COUNT_OPTIONS = (
    "k", "n", "stages", "units", "cert_bits", "generation_bits",
    "theta_steps", "k_bits",
)
# beyond the refinement cap no enclosure can certify, and 2^-bits figures
# would pass Python's int-to-str digit limit
_PRECISION_OPTIONS = ("k", "cert_bits", "generation_bits", "k_bits")


def _check_counts(args) -> None:
    for name in _COUNT_OPTIONS:
        value = getattr(args, name, None)
        if value is None:
            continue
        option = "--" + name.replace("_", "-")
        if value < 0:
            raise InvalidInputError(f"{option} must be >= 0, got {value}")
        if name in _PRECISION_OPTIONS and value > MAX_WORKING_PREC:
            raise InvalidInputError(f"{option} must be <= {MAX_WORKING_PREC}, got {value}")


def _cmd_sigma(args) -> dict:
    p = _p_from_args(args)
    z = _parse("--z", GaussianRational.parse, args.z)
    w = _parse("--w", GaussianRational.parse, args.w)
    s1 = sigma1_scalar(z, w, p, args.k)
    result = {"sigma1": _interval_json(s1)}
    if p.exact != 2:
        result["sigma"] = _interval_json(sigma_scalar(z, w, p, args.k))
    return {"inputs": {"p": args.p, "z": str(z), "w": str(w), "k": args.k}, "result": result}


def _cmd_lamperti_check(args) -> dict:
    p = _p_from_args(args)
    z = _parse("--z", GaussianRational.parse, args.z)
    w = _parse("--w", GaussianRational.parse, args.w)
    s = sigma_scalar(z, w, p, args.k)
    m = abs_pow(z, p, args.k).min_with(abs_pow(w, p, args.k))
    certified = m.lo <= s.hi + 4 * _width_target(args.k)
    strict = m.hi <= s.lo
    return {
        "inputs": {"p": args.p, "z": str(z), "w": str(w), "k": args.k},
        "result": {
            "sigma": _interval_json(s),
            "min_power": _interval_json(m),
            "strictly_below": strict,
        },
        "certificates": [{"name": "min_below_sigma", "granted": bool(certified)}],
        "status": "ok" if certified else "error",
    }


# the most cells lamperti-grid evaluates the objective on, one evaluation
# each: about nine times the default 65 x 113 grid
MAX_GRID_CELLS = 1 << 16


def _cmd_lamperti_grid(args) -> dict:
    p = _p_from_args(args)
    theta_steps = args.theta_steps
    t_step = _parse("--t-step", parse_fraction, args.t_step)
    t_max = _parse("--t-max", parse_fraction, args.t_max)
    if theta_steps < 1 or t_step <= 0:
        raise InvalidInputError("--theta-steps must be >= 1 and --t-step > 0")
    # the grid starts at t = 1: below that it would hold no cell
    if t_max < 1:
        raise InvalidInputError(f"--t-max must be >= 1, got {t_max}")
    cells = (theta_steps + 1) * ((t_max - 1) // t_step + 1)
    if cells > MAX_GRID_CELLS:
        raise InvalidInputError(f"the grid has {cells} cells, more than {MAX_GRID_CELLS}")
    best: Optional[Tuple[Fraction, Fraction]] = None
    best_box: Optional[DyadicInterval] = None
    for i in range(theta_steps + 1):
        theta = Fraction(i, theta_steps)
        t = Fraction(1)
        while t <= t_max:
            box = lamperti_objective(theta, t, p, args.k)
            if best_box is None or box.mid < best_box.mid:
                best_box, best = box, (theta, t)
            t += t_step
    return {
        "inputs": {
            "p": args.p,
            "theta_steps": theta_steps,
            "t_step": str(t_step),
            "t_max": str(t_max),
            "k": args.k,
        },
        "result": {
            "cells": cells,
            "minimum": _interval_json(best_box),
            "argmin": {"theta_over_pi": format_fraction(best[0]), "t": format_fraction(best[1])},
        },
    }


def _cmd_validate_tree(args) -> dict:
    p = _p_from_args(args)
    psi = _parse("--tree", _tree_map_arg, args.tree, p)
    verdict = validate_partial_disintegration(psi)
    return {
        "inputs": {"p": args.p},
        "result": {"status": verdict.status, "witness": verdict.witness},
        "status": "ok" if not verdict.is_no else "error",
    }


def _cmd_project_hom(args) -> dict:
    p = _p_from_args(args)
    phi = _parse("--phi", _tree_map_arg, args.phi, p)
    psi = _parse("--psi", _tree_map_arg, args.psi, p)
    if not phi.tree.is_subtree_of(psi.tree):
        raise InvalidInputError("the --phi tree is not a subtree of the --psi tree")
    bound = distance_bound(phi, psi, args.k)
    out = project_to_strong_hom(phi, psi, args.k)
    return {
        "inputs": {"p": args.p, "k": args.k},
        "result": {
            "bound_power": _interval_json(bound),
            "projection": out.to_json(),
        },
    }


def _cmd_extend(args) -> dict:
    pres = _pres_from_args(args)
    phi = _parse("--phi", _tree_map_arg, args.phi, pres.p) if args.phi else empty_map(pres)
    rec = approximate_extend(phi, args.n, args.k, pres)
    return {
        "inputs": {"n": args.n, "k": args.k, "pres": pres.descriptor()},
        "result": {
            "tree": rec.phi_hat.tree.to_json(),
            "certificate": certify_ball(rec.accepted).to_json(),
            "radius_bits": rec.ball_bits,
            "exact": pres.exact_arithmetic,
        },
    }


def _cmd_disintegrate(args) -> dict:
    pres = _pres_from_args(args)
    staged = build_disintegration(pres, args.stages)
    return {
        "inputs": {"stages": args.stages, "pres": pres.descriptor()},
        "result": staged.report(),
    }


def _cmd_chains(args) -> dict:
    pres = _pres_from_args(args)
    source = build_disintegration(pres, _stages_built(args.stages)).chain_source()
    partition = partition_chains(source, stage_budget=args.stages)
    limits = []
    provisional = False
    for cid in range(len(partition.chains)):
        lim = chain_limit(source, partition, cid, args.k)
        provisional = provisional or lim.status == "provisional"
        limits.append(
            {
                "chain": cid,
                "status": lim.status,
                "norm_power": _interval_json(lim.norm_power),
            }
        )
    return {
        "inputs": {"stages": args.stages, "k": args.k, "pres": pres.descriptor()},
        "result": {
            "chains": partition.report(source, args.k),
            "limits": limits,
        },
        "status": "provisional" if provisional else "ok",
    }


def _cmd_synthesize(args) -> dict:
    pres = _pres_from_args(args)
    iso = synthesize_isometry(
        pres, args.units, cert_bits=args.cert_bits, generation_bits=args.generation_bits
    )
    return {
        "inputs": {"units": args.units, "pres": pres.descriptor()},
        "result": iso.to_json(),
        "status": "provisional" if iso.provisional else "ok",
    }


def _cmd_apply(args) -> dict:
    pres = _pres_from_args(args)
    x = _parse("--vector", lambda text: FinSuppVector.from_json(_load_json_arg(text)), args.vector)
    iso = synthesize_isometry(pres, args.units, cert_bits=args.cert_bits)
    combo = apply_isometry(iso, x, args.k)
    return {
        "inputs": {"vector": x.to_json(), "k": args.k, "pres": pres.descriptor()},
        "result": {"combo": combo.to_json()},
        "status": "provisional" if iso.provisional else "ok",
    }


# every reduction reads the set's membership oracle, which a set declared
# `--staged` (known only through its stages) does not offer
_STAGED_REFUSALS = {
    "e0": "a staged set cannot certify the tail cut-off for e_0",
    "scale": "a staged set cannot certify the scale (1-gamma)^(-1/p)",
    "identity": "a staged set cannot decide the membership the identity reduction reads",
}


def _cmd_adversarial(args) -> dict:
    ce = _parse("--ce", lambda text: CeSet.from_json(_load_json_arg(text)), args.ce)
    p = _p_from_args(args)
    if args.staged:
        raise ProvisionalError(_STAGED_REFUSALS[args.what])
    inputs = {"p": args.p, "k": args.k, "ce": ce.to_json()}
    if args.what == "e0":
        pres = AdversarialPresentation(ce, p)
        combo, info = pres.e0_combo_info(args.k)
        vec = pres.transparent_eval(combo, args.k + 4)
        resid = norm_p(vec - FinSuppVector.basis(0), p, args.k + 4)
        result = {
            "combo": combo.to_json(),
            "constants": info,
            "transparent_residual": _interval_json(resid),
        }
        return {"inputs": inputs, "result": result}
    if args.what == "scale":
        pres = AdversarialPresentation(ce, p)
        combo = pres.e0_combo(args.k + 2)
        vec = ComputableVector.constant(combo, pres)
        inv_root = pres._root_one_minus_gamma(Fraction(1, 4), invert=True)
        q0 = inv_root.hi + 1
        value = recover_scale_from_atom(vec, q0, args.k)
        result = {
            "scale": format_fraction(value),
            "q0": format_fraction(q0),
            "target": _interval_json(inv_root),
        }
        return {"inputs": inputs, "result": result}
    # args.what == "identity": each reduction has its own required subparser
    iso = identity_reduction(ce, p, args.n, args.k)
    return {"inputs": {**inputs, "n": args.n}, "result": iso.to_json()}


def _cmd_recover_p(args) -> dict:
    pres = _pres_from_args(args)
    box = recover_p(pres, args.k_bits)
    return {
        "inputs": {"pres": pres.descriptor(), "k_bits": args.k_bits},
        "result": {"p": _interval_json(box)},
    }


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a malformed argv as InvalidInputError, so it gets the JSON
    error report and exit 1 rather than usage text and exit 2, the
    provisional code; -h still prints help and exits 0."""

    def error(self, message: str):
        raise InvalidInputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="lpiso",
        description="Certified arithmetic and isometry synthesis over norm-oracle presentations",
    )
    parser.add_argument(
        "--verbose", action="store_true", help="trace tried balls on stderr"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, p_default="1", *, precision=True):
        sp.add_argument("--p", default=p_default, help="exponent as a fraction, e.g. 3/2")
        if precision:
            sp.add_argument("--k", type=int, default=20, help="precision: errors below 2^-k")

    sp = sub.add_parser("sigma", help="sigma functionals of two scalars")
    add_common(sp)
    sp.add_argument("--z", required=True)
    sp.add_argument("--w", required=True)
    sp.set_defaults(fn=_cmd_sigma)

    sp = sub.add_parser("lamperti-check", help="certify min(|z|^p,|w|^p) <= sigma(z,w)")
    add_common(sp, p_default="3/2")
    sp.add_argument("--z", required=True)
    sp.add_argument("--w", required=True)
    sp.set_defaults(fn=_cmd_lamperti_check)

    sp = sub.add_parser("lamperti-grid", help="grid minimum of the objective")
    add_common(sp)
    sp.add_argument("--theta-steps", type=int, default=64)
    sp.add_argument("--t-max", default="8")
    sp.add_argument("--t-step", default="1/16")
    sp.set_defaults(fn=_cmd_lamperti_grid, k=14)

    sp = sub.add_parser("validate-tree", help="partial-disintegration verdict")
    add_common(sp, precision=False)
    sp.add_argument("--tree", required=True, help="JSON or @file")
    sp.set_defaults(fn=_cmd_validate_tree)

    sp = sub.add_parser("project-hom", help="project onto strong homomorphisms")
    add_common(sp)
    sp.add_argument("--phi", required=True)
    sp.add_argument("--psi", required=True)
    sp.set_defaults(fn=_cmd_project_hom)

    sp = sub.add_parser("extend", help="certified approximate extension")
    add_common(sp)
    sp.add_argument("--pres", default='{"type":"standard"}')
    sp.add_argument("--phi", default=None)
    sp.add_argument("--n", type=int, default=1)
    sp.set_defaults(fn=_cmd_extend, k=4)

    sp = sub.add_parser("disintegrate", help="staged disintegration report")
    add_common(sp, precision=False)
    sp.add_argument("--pres", default='{"type":"standard"}')
    sp.add_argument("--stages", type=int, default=3)
    sp.set_defaults(fn=_cmd_disintegrate)

    sp = sub.add_parser("chains", help="chain partition and limits")
    add_common(sp)
    sp.add_argument("--pres", default='{"type":"standard"}')
    sp.add_argument("--stages", type=int, default=3)
    sp.set_defaults(fn=_cmd_chains, k=8)

    sp = sub.add_parser("synthesize", help="disjoint unit vectors with certificates")
    add_common(sp, precision=False)
    sp.add_argument("--pres", default='{"type":"standard"}')
    sp.add_argument("--units", type=int, default=4)
    sp.add_argument("--cert-bits", type=int, default=12)
    sp.add_argument("--generation-bits", type=int, default=None)
    sp.set_defaults(fn=_cmd_synthesize)

    sp = sub.add_parser("apply", help="apply the synthesized isometry to a vector")
    add_common(sp)
    sp.add_argument("--pres", default='{"type":"standard"}')
    sp.add_argument("--units", type=int, default=4)
    sp.add_argument("--cert-bits", type=int, default=12)
    sp.add_argument("--vector", required=True)
    sp.set_defaults(fn=_cmd_apply, k=10)

    sp = sub.add_parser("adversarial", help="oracle reductions")
    reductions = sp.add_subparsers(dest="what", required=True)
    for what, help_text in (
        ("e0", "a combination within 2^-k of the coordinate vector e_0"),
        ("scale", "the scale (1-gamma)^(-1/p) read off the atom"),
        ("identity", "the first n coordinate vectors as combinations: the identity map"),
    ):
        rp = reductions.add_parser(what, help=help_text)
        add_common(rp)
        rp.add_argument("--ce", default='{"kind":"explicit","elements":[1]}')
        if what == "identity":
            rp.add_argument("--n", type=int, default=3)
        rp.add_argument(
            "--staged",
            action="store_true",
            help="the set is known only through its stages: every reduction is refused",
        )
        rp.set_defaults(fn=_cmd_adversarial, k=8)

    sp = sub.add_parser("recover-p", help="recover the exponent from the oracle")
    sp.add_argument("--pres", required=True)
    sp.add_argument("--p", default=None, help="only used when the descriptor omits it")
    sp.add_argument("--k-bits", type=int, default=6)
    sp.set_defaults(fn=_cmd_recover_p)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command and print its report.  A handler returns only its
    `inputs`, `result`, any `certificates` and the `status` it decides
    (else "ok"); this adds `command` (`adversarial-<what>` for a reduction)."""
    parser = build_parser()
    # the subcommand is recorded before its own options are parsed, so an
    # argument error names it; it stays None when argv names none
    args = argparse.Namespace(command=None)
    # --verbose sends the library's INFO lines to stderr for this run only,
    # whatever logging the caller has configured
    log = logging.getLogger("lpiso")
    handlers, level, propagate = log.handlers, log.level, log.propagate
    try:
        parser.parse_args(argv, args)
        if args.verbose:
            handler = logging.StreamHandler(sys.stderr)
            handler.setFormatter(logging.Formatter("%(message)s"))
            log.handlers = [*handlers, handler]
            log.setLevel(logging.INFO)
            log.propagate = False
        _check_counts(args)
        report = args.fn(args)
    except ProvisionalError as exc:
        return _emit({"command": args.command, "status": "provisional", "detail": str(exc)})
    except LpisoError as exc:
        return _emit(
            {
                "command": args.command,
                "status": "error",
                "error": {"type": type(exc).__name__, "message": str(exc)},
            }
        )
    finally:
        log.handlers, log.propagate = handlers, propagate
        log.setLevel(level)
    command = f"adversarial-{args.what}" if args.command == "adversarial" else args.command
    return _emit({"command": command, "status": "ok", **report})


if __name__ == "__main__":
    sys.exit(main())
