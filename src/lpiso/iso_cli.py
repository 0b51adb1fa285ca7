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
ledger; reports are deterministic byte-for-byte for fixed inputs and
budgets.  Exit codes: 0 all certificates granted, 2 provisional (a staged
oracle tainted the result), 1 typed failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from .chain_partition import chain_limit, partition_chains
from .errors import (
    BudgetExhaustedError,
    IndexOutOfRangeError,
    InvalidInputError,
    LpisoError,
    NoBackdoorError,
    PrecisionExhaustedError,
    ProvisionalError,
)
from .extension_engine import (
    SearchBudget,
    approximate_extend,
    build_disintegration,
    empty_map,
)
from .lp_vectors import FinSuppVector, norm_p, sigma1_from_norms
from .presentations import (
    CeSet,
    ComputableVector,
    GenCombo,
    OracleAdapter,
    Presentation,
    bits_for,
    build_adversarial,
    presentation_from_descriptor,
)
from .scalar_core import (
    CReal,
    DyadicInterval,
    GaussianRational,
    PExponent,
    _width_target,
    format_fraction,
    lamperti_objective,
    log2_enclosure,
    parse_fraction,
    sigma_scalar,
    sigma1_scalar,
    abs_pow,
)
from .tree_maps import (
    TreeMap,
    _gauss_bound_bits,
    distance_bound,
    project_to_strong_hom,
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
    unit_norm_bits: int
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
                    "unit_norm_bits": u.unit_norm_bits,
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


@dataclass
class SynthesisBudget:
    cert_bits: int = 12
    generation_bits: Optional[int] = None  # defaults to the unit count
    search: SearchBudget = field(default_factory=SearchBudget)
    chain_search: int = 4096


def _default_oracle(pres: Presentation) -> OracleAdapter:
    ce = getattr(pres, "ce", None)
    if ce is not None and ce.decide is not None:
        return OracleAdapter(ce, "transparent")
    return OracleAdapter(CeSet.explicit([1]), "transparent")


def _normalize(vec: ComputableVector, cert_bits: int) -> Tuple[ComputableVector, int]:
    kk = max(4, cert_bits // 2)
    while True:
        lo = vec.norm_enclosure(kk).lo
        if lo > 0:
            break
        kk *= 2
        if kk > 1 << 12:
            raise PrecisionExhaustedError("cannot normalize: norm not certified positive")
    inv_bits = bits_for(lo) + 1  # 1/||v|| <= 2^inv_bits

    def inv_fn(k: int) -> DyadicInterval:
        kk = max(4, k)
        while True:
            box = vec.norm_enclosure(kk)
            if box.lo > 0:
                out = box.reciprocal()
                if out.width <= _width_target(k):
                    return out
            kk += max(4, kk // 2)
            if kk > 1 << 14:
                raise PrecisionExhaustedError("normalization ran out of precision")

    inv = CReal.from_interval_fn(inv_fn, name="unit-scale")
    return vec.scale_creal(inv, inv_bits), inv_bits


def _transparent_atom_peek(
    vec: ComputableVector, prec: int
) -> Tuple[Optional[int], Optional[GaussianRational]]:
    try:
        snap = vec.transparent(prec)
    except NoBackdoorError:
        return None, None
    if not snap.entries:
        return None, None
    coord, coeff = max(snap.entries.items(), key=lambda kv: kv[1].abs_sq())
    rest = snap - FinSuppVector.basis(coord, coeff)
    if norm_p(rest, vec.pres.p, prec).hi < _width_target(max(2, prec - 4)):
        return coord, coeff
    return None, None


def synthesize_isometry(
    pres: Presentation,
    n_units: int,
    budget: Optional[SynthesisBudget] = None,
    oracle: Optional[OracleAdapter] = None,
) -> IsometryApprox:
    """Produce n_units certified disjointly supported unit vectors.

    Pipeline: staged disintegration, chain partition, chain limits, zero
    filtering, normalization.  Certificates: every unit's norm encloses 1
    within 2^-cert_bits, every pairwise sigma1 upper bound clears
    2^-cert_bits, and each of the first n_units generators is approximated
    within 2^-generation_bits by an explicitly witnessed combination.
    """
    budget = budget or SynthesisBudget()
    oracle = oracle or _default_oracle(pres)
    cert_bits = budget.cert_bits
    gen_bits = budget.generation_bits or n_units

    # a couple of spare stages keep the normalized root's tail bound ahead
    # of the stage-bound precision the chain searches start from
    n_stages = max(n_units, 3)
    staged = build_disintegration(pres, n_stages, budget.search)
    source = staged.chain_source()
    partition = partition_chains(
        source, stage_budget=n_stages, search_budget=budget.chain_search
    )

    provisional = oracle.provisional
    units: List[UnitRecord] = []
    for cid in range(len(partition.chains)):
        if len(units) >= n_units:
            break
        lim = chain_limit(source, partition, cid, oracle, cert_bits + 4)
        if lim.status == "zero":
            continue
        if lim.status == "provisional":
            provisional = True
            continue
        unit, inv_bits = _normalize(lim.vector, cert_bits)
        box = unit.norm_enclosure(cert_bits + 2)
        if not (box.lo >= 1 - _width_target(cert_bits) and box.hi <= 1 + _width_target(cert_bits)):
            raise PrecisionExhaustedError("unit norm certificate failed")
        atom_coord, _ = _transparent_atom_peek(unit, cert_bits + 8)
        units.append(UnitRecord(len(units), cid, atom_coord, cert_bits, unit))
    if len(units) < n_units:
        raise BudgetExhaustedError(
            f"only {len(units)} nonzero chain limits at {n_units} stages",
            budget=n_units,
        )

    # pairwise disjointness through sigma1 (norm queries only)
    for i in range(len(units)):
        for j in range(i + 1, len(units)):
            a, b = units[i].vector, units[j].vector
            box = sigma1_from_norms(
                lambda kk: a.norm_enclosure(kk),
                lambda kk: b.norm_enclosure(kk),
                lambda kk: (a - b).norm_enclosure(kk),
                lambda kk: (a + b).norm_enclosure(kk),
                pres.p,
                cert_bits + 2,
            )
            if box.hi >= _width_target(cert_bits):
                raise PrecisionExhaustedError(
                    f"pairwise sigma1 certificate failed for units {i}, {j}"
                )

    # generator coverage with explicit witnesses
    witnesses: Dict[int, Dict[int, GaussianRational]] = {}
    if pres.has_backdoor:
        peek_prec = max(gen_bits, cert_bits) + 8
        atom_of: Dict[int, Tuple[int, GaussianRational]] = {}
        for rec in units:
            coord, coeff = _transparent_atom_peek(rec.vector, peek_prec)
            if coord is not None and coord not in atom_of:
                atom_of[coord] = (rec.index, coeff)
        for j in range(n_units):
            target = pres.generator_vector(j, peek_prec)
            beta: Dict[int, GaussianRational] = {}
            for coord, z in target.entries.items():
                if coord in atom_of:
                    m, lam = atom_of[coord]
                    coeff = z * lam.conj().scale(1 / lam.abs_sq())
                    beta[m] = beta.get(m, GaussianRational.zero()) + coeff
            # flatten into one formal combination with explicit error padding
            size_bits = max(1, len(beta)).bit_length()
            combo = GenCombo.single(j)
            pad = Fraction(0)
            for m, z in beta.items():
                inner_k = gen_bits + 4 + size_bits + _gauss_bound_bits(z)
                combo = combo - units[m].vector.approx(inner_k).scale(z)
                pad += _width_target(gen_bits + 4 + size_bits)
            upper = pres.norm_enclosure(combo, gen_bits + 4).hi + pad
            if upper >= _width_target(gen_bits):
                raise PrecisionExhaustedError(
                    f"generation witness for generator {j} missed 2^-{gen_bits}"
                )
            witnesses[j] = beta

    ledger = {
        "stages": n_units,
        "cert_bits": cert_bits,
        "generation_bits": gen_bits,
        "chain_search": budget.chain_search,
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


def compute_e0_wrt_F(oracle: OracleAdapter, p: PExponent, k: int) -> GenCombo:
    """A combination within 2**-k of the zeroth coordinate vector, over the
    adversarial presentation of the oracle's set.

    Staged adapters cannot certify the cut-off or the characteristic-real
    bounds, so they are rejected as provisional rather than mis-certified.
    """
    if oracle.provisional:
        raise ProvisionalError(
            "a staged adapter cannot certify the tail cut-off for e_0"
        )
    pres = build_adversarial(oracle.ce, p)
    return pres.e0_combo(k)


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
    extra = 0
    while Fraction(2) ** extra < q0:
        extra += 1
    k_query = k + 1 + extra
    combo = v.approx(k_query)
    alpha0 = combo[0]
    return CReal.sqrt_of_fraction(alpha0.abs_sq()).approx(k + 1)


def identity_reduction(
    oracle: OracleAdapter, p: PExponent, n_units: int, k: int
) -> IsometryApprox:
    """The first coordinate vectors as computable combinations over the
    adversarial presentation: the identity map, computed relative to the
    enumerated set."""
    if oracle.provisional:
        raise ProvisionalError("identity reduction needs a transparent adapter")
    pres = build_adversarial(oracle.ce, p)
    units: List[UnitRecord] = []
    witnesses: Dict[int, Dict[int, GaussianRational]] = {}
    for j in range(n_units):
        combo = pres.e0_combo(k) if j == 0 else GenCombo.single(j)
        vec = ComputableVector.constant(combo, pres, f"e_{j}")
        box = vec.norm_enclosure(k + 2)
        # the true norm is within 2^-k of 1; the enclosure must agree
        if box.hi < 1 - _width_target(k) or box.lo > 1 + _width_target(k):
            raise PrecisionExhaustedError(f"unit norm for e_{j} not certified")
        units.append(UnitRecord(j, j, j, k, vec))
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
    k_bits: int = 6,
    budget: Optional[SynthesisBudget] = None,
) -> DyadicInterval:
    """Enclose the exponent from the norm of the sum of two disjoint units:
    the sum's norm is 2^(1/p)."""
    budget = budget or SynthesisBudget(cert_bits=max(12, k_bits + 8))
    iso = synthesize_isometry(pres, 2, budget)
    u, v = iso.unit(0), iso.unit(1)
    total = u + v
    kk = max(10, k_bits + 6)
    while True:
        norm_box = total.norm_enclosure(kk)
        if norm_box.lo > 1:
            log_box = log2_enclosure(norm_box, kk)
            if log_box.lo > 0:
                out = log_box.reciprocal()
                if out.width <= _width_target(k_bits):
                    return out
        kk += max(4, kk // 2)
        if kk > 1 << 12:
            raise PrecisionExhaustedError("exponent recovery ran out of precision")


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
    print(json.dumps(report, indent=2, sort_keys=True))
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
    "theta_steps", "stage_budget", "k_bits",
)


def _check_counts(args) -> None:
    for name in _COUNT_OPTIONS:
        value = getattr(args, name, None)
        if value is not None and value < 0:
            option = "--" + name.replace("_", "-")
            raise InvalidInputError(f"{option} must be >= 0, got {value}")


def _cmd_sigma(args) -> int:
    p = _p_from_args(args)
    z = _parse("--z", GaussianRational.parse, args.z)
    w = _parse("--w", GaussianRational.parse, args.w)
    s1 = sigma1_scalar(z, w, p, args.k)
    report = {
        "command": "sigma",
        "inputs": {"p": args.p, "z": str(z), "w": str(w), "k": args.k},
        "result": {"sigma1": _interval_json(s1)},
        "status": "ok",
    }
    if p.exact != 2:
        report["result"]["sigma"] = _interval_json(sigma_scalar(z, w, p, args.k))
    return _emit(report)


def _cmd_lamperti_check(args) -> int:
    p = _p_from_args(args)
    z = _parse("--z", GaussianRational.parse, args.z)
    w = _parse("--w", GaussianRational.parse, args.w)
    s = sigma_scalar(z, w, p, args.k)
    m = abs_pow(z, p, args.k).min_with(abs_pow(w, p, args.k))
    certified = m.lo <= s.hi + 4 * _width_target(args.k)
    strict = m.hi <= s.lo
    report = {
        "command": "lamperti-check",
        "inputs": {"p": args.p, "z": str(z), "w": str(w), "k": args.k},
        "result": {
            "sigma": _interval_json(s),
            "min_power": _interval_json(m),
            "strictly_below": strict,
        },
        "certificates": [{"name": "min_below_sigma", "granted": bool(certified)}],
        "status": "ok" if certified else "error",
    }
    return _emit(report)


def _cmd_lamperti_grid(args) -> int:
    p = _p_from_args(args)
    theta_steps = args.theta_steps
    t_step = _parse("--t-step", parse_fraction, args.t_step)
    t_max = _parse("--t-max", parse_fraction, args.t_max)
    if theta_steps < 1 or t_step <= 0:
        raise InvalidInputError("--theta-steps must be >= 1 and --t-step > 0")
    best: Optional[Tuple[Fraction, Fraction]] = None
    best_box: Optional[DyadicInterval] = None
    theta = Fraction(0)
    cells = 0
    for i in range(theta_steps + 1):
        theta = Fraction(i, theta_steps)
        t = Fraction(1)
        while t <= t_max:
            box = lamperti_objective(theta, t, p, args.k)
            cells += 1
            if best_box is None or box.mid < best_box.mid:
                best_box, best = box, (theta, t)
            t += t_step
    report = {
        "command": "lamperti-grid",
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
        "status": "ok",
    }
    return _emit(report)


def _cmd_validate_tree(args) -> int:
    p = _p_from_args(args)
    psi = _parse("--tree", _tree_map_arg, args.tree, p)
    verdict = validate_partial_disintegration(psi, args.k)
    report = {
        "command": "validate-tree",
        "inputs": {"p": args.p, "k": args.k},
        "result": {"status": verdict.status, "witness": verdict.witness},
        "status": "ok" if not verdict.is_no else "error",
    }
    return _emit(report)


def _cmd_project_hom(args) -> int:
    p = _p_from_args(args)
    phi = _parse("--phi", _tree_map_arg, args.phi, p)
    psi = _parse("--psi", _tree_map_arg, args.psi, p)
    bound = distance_bound(phi, psi, args.k)
    out = project_to_strong_hom(phi, psi, args.k)
    report = {
        "command": "project-hom",
        "inputs": {"p": args.p, "k": args.k},
        "result": {
            "bound_power": _interval_json(bound),
            "projection": out.to_json(),
        },
        "status": "ok",
    }
    return _emit(report)


def _cmd_extend(args) -> int:
    pres = _pres_from_args(args)
    if args.phi:
        phi_map = _parse("--phi", _tree_map_arg, args.phi, pres.p)
        values = {
            node: ComputableVector.constant(
                pres.encode_vector(phi_map.value(node), args.k + 6), pres
            )
            for node in phi_map.nodes()
        }
        phi = TreeMap(phi_map.tree, values, pres.p, pres)
    else:
        phi = empty_map(pres)
    result = approximate_extend(phi, args.n, args.k, pres)
    report = {
        "command": "extend",
        "inputs": {"n": args.n, "k": args.k, "pres": pres.descriptor()},
        "result": result.to_json(),
        "status": "ok",
    }
    return _emit(report)


def _cmd_disintegrate(args) -> int:
    pres = _pres_from_args(args)
    staged = build_disintegration(pres, args.stages)
    report = {
        "command": "disintegrate",
        "inputs": {"stages": args.stages, "pres": pres.descriptor()},
        "result": staged.report(),
        "status": "ok",
    }
    return _emit(report)


def _cmd_chains(args) -> int:
    pres = _pres_from_args(args)
    staged = build_disintegration(pres, args.stages)
    source = staged.chain_source()
    partition = partition_chains(source, stage_budget=args.stages)
    oracle = _default_oracle(pres)
    limits = []
    provisional = False
    for cid in range(len(partition.chains)):
        lim = chain_limit(source, partition, cid, oracle, args.k)
        provisional = provisional or lim.status == "provisional"
        limits.append(
            {
                "chain": cid,
                "status": lim.status,
                "norm_power": _interval_json(lim.norm_power),
            }
        )
    report = {
        "command": "chains",
        "inputs": {"stages": args.stages, "k": args.k, "pres": pres.descriptor()},
        "result": {
            "chains": partition.report(source, args.k),
            "limits": limits,
        },
        "status": "provisional" if provisional else "ok",
    }
    return _emit(report)


def _cmd_synthesize(args) -> int:
    pres = _pres_from_args(args)
    budget = SynthesisBudget(cert_bits=args.cert_bits, generation_bits=args.generation_bits)
    iso = synthesize_isometry(pres, args.units, budget)
    report = {
        "command": "synthesize",
        "inputs": {"units": args.units, "pres": pres.descriptor()},
        "result": iso.to_json(),
        "status": "provisional" if iso.provisional else "ok",
    }
    return _emit(report)


def _cmd_apply(args) -> int:
    pres = _pres_from_args(args)
    x = _parse("--vector", lambda text: FinSuppVector.from_json(_load_json_arg(text)), args.vector)
    budget = SynthesisBudget(cert_bits=args.cert_bits)
    iso = synthesize_isometry(pres, args.units, budget)
    combo = apply_isometry(iso, x, args.k)
    report = {
        "command": "apply",
        "inputs": {"vector": x.to_json(), "k": args.k, "pres": pres.descriptor()},
        "result": {"combo": combo.to_json()},
        "status": "provisional" if iso.provisional else "ok",
    }
    return _emit(report)


def _adversarial_pres(args) -> Tuple[OracleAdapter, PExponent]:
    ce = _parse("--ce", lambda text: CeSet.from_json(_load_json_arg(text)), args.ce)
    mode = "staged" if args.staged else "transparent"
    oracle = OracleAdapter(ce, mode, stage_budget=args.stage_budget)
    return oracle, _p_from_args(args)


def _cmd_adversarial(args) -> int:
    oracle, p = _adversarial_pres(args)
    if args.what == "e0":
        combo = compute_e0_wrt_F(oracle, p, args.k)
        pres = build_adversarial(oracle.ce, p)
        _, info = pres.e0_combo_info(args.k)
        result = {"combo": combo.to_json(), "constants": info}
        if pres.has_backdoor:
            vec = pres.transparent_eval(combo, args.k + 4)
            resid = norm_p(vec - FinSuppVector.basis(0), p, args.k + 4)
            result["transparent_residual"] = _interval_json(resid)
        report = {
            "command": "adversarial-e0",
            "inputs": {"p": args.p, "k": args.k, "ce": oracle.ce.to_json()},
            "result": result,
            "status": "ok",
        }
        return _emit(report)
    if args.what == "scale":
        pres = build_adversarial(oracle.ce, p)
        combo = pres.e0_combo(args.k + 2)
        vec = ComputableVector.constant(combo, pres, "e0")
        inv_root = pres._root_one_minus_gamma(Fraction(1, 4), invert=True)
        q0 = inv_root.hi + 1
        value = recover_scale_from_atom(vec, q0, args.k)
        report = {
            "command": "adversarial-scale",
            "inputs": {"p": args.p, "k": args.k, "ce": oracle.ce.to_json()},
            "result": {
                "scale": format_fraction(value),
                "q0": format_fraction(q0),
                "target": _interval_json(inv_root),
            },
            "status": "ok",
        }
        return _emit(report)
    if args.what == "identity":
        iso = identity_reduction(oracle, p, args.n, args.k)
        report = {
            "command": "adversarial-identity",
            "inputs": {"p": args.p, "k": args.k, "n": args.n, "ce": oracle.ce.to_json()},
            "result": iso.to_json(),
            "status": "provisional" if iso.provisional else "ok",
        }
        return _emit(report)
    raise ValueError(f"unknown adversarial subcommand {args.what!r}")


def _cmd_recover_p(args) -> int:
    pres = _pres_from_args(args)
    box = recover_p(pres, args.k_bits)
    report = {
        "command": "recover-p",
        "inputs": {"pres": pres.descriptor(), "k_bits": args.k_bits},
        "result": {"p": _interval_json(box)},
        "status": "ok",
    }
    return _emit(report)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lpiso",
        description="Certified arithmetic and isometry synthesis over norm-oracle presentations",
    )
    parser.add_argument(
        "--verbose", action="store_true", help="trace certified balls on stderr"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, p_default="1"):
        sp.add_argument("--p", default=p_default, help="exponent as a fraction, e.g. 3/2")
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
    add_common(sp)
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
    add_common(sp)
    sp.add_argument("--pres", default='{"type":"standard"}')
    sp.add_argument("--stages", type=int, default=3)
    sp.set_defaults(fn=_cmd_disintegrate)

    sp = sub.add_parser("chains", help="chain partition and limits")
    add_common(sp)
    sp.add_argument("--pres", default='{"type":"standard"}')
    sp.add_argument("--stages", type=int, default=3)
    sp.set_defaults(fn=_cmd_chains, k=8)

    sp = sub.add_parser("synthesize", help="disjoint unit vectors with certificates")
    add_common(sp)
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
    sp.add_argument("what", choices=["e0", "scale", "identity"])
    add_common(sp)
    sp.add_argument("--ce", default='{"kind":"explicit","elements":[1]}')
    sp.add_argument("--n", type=int, default=3)
    sp.add_argument("--staged", action="store_true")
    sp.add_argument("--stage-budget", type=int, default=64)
    sp.set_defaults(fn=_cmd_adversarial, k=8)

    sp = sub.add_parser("recover-p", help="recover the exponent from the oracle")
    sp.add_argument("--pres", required=True)
    sp.add_argument("--p", default=None, help="only used when the descriptor omits it")
    sp.add_argument("--k-bits", type=int, default=6)
    sp.set_defaults(fn=_cmd_recover_p)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "verbose", False):
        import logging

        logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    try:
        _check_counts(args)
        return args.fn(args)
    except ProvisionalError as exc:
        print(
            json.dumps(
                {
                    "command": args.command,
                    "status": "provisional",
                    "detail": str(exc),
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 2
    except LpisoError as exc:
        print(
            json.dumps(
                {
                    "command": args.command,
                    "status": "error",
                    "error": {"type": type(exc).__name__, "message": str(exc)},
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
