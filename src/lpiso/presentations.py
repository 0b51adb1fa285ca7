"""Norm-oracle presentations of the sequence space.

A presentation is a generating family reachable only through one query:
"approximate the norm of this formal rational combination of generators to
within 2**-k".  Three families are provided:

  * the standard presentation (generators are the coordinate vectors);
  * rotated presentations (every generator multiplied by one unimodular
    Gaussian-rational scalar) whose oracle answers are bitwise identical
    to the standard ones;
  * adversarial presentations built from an enumerated set C: the zeroth
    generator hides the set's characteristic real gamma = sum 2^-c in its
    coordinates, yet its norm formula needs only finitely many enumerated
    elements.

Each presentation here also carries a transparent backdoor (coordinates of
any combination, to any precision) used by tests and by guided searches.
The opaque surface never touches it.  Presentation's transparent_eval,
generator_vector, generator_tail_norm_bound and encode_vector are its only
reads, and each answers or raises NoBackdoorError; over a set without a
membership oracle, the adversarial reads that need no membership answer.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .errors import (
    EnumerationStalledError,
    NoBackdoorError,
    PrecisionExhaustedError,
    ZeroInCeSetError,
)
from .lp_vectors import FinSuppVector, norm_p
from .scalar_core import (
    GAUSS_ONE,
    MAX_WORKING_PREC,
    DyadicInterval,
    GaussianRational,
    PExponent,
    ZERO_INTERVAL,
    _exact_power,
    _padded_norm,
    _width_target,
    abs_pow,
    ceil_log2,
    format_fraction,
    parse_fraction,
    pow_enclosure,
    refine,
)


def bits_for(tol: Fraction) -> int:
    """Smallest k >= 0 with 2**-k <= tol (tol must be positive)."""
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    return ceil_log2(Fraction(1) / tol)


class GenCombo(FinSuppVector):
    """Formal rational combination of a presentation's generators.

    Structurally a sparse map generator-index -> Gaussian rational; it only
    acquires meaning through a presentation's norm oracle or backdoor.
    """

    def to_json(self) -> dict:
        return {"coeffs": {str(n): str(z) for n, z in sorted(self.entries.items())}}

    @staticmethod
    def single(j: int) -> "GenCombo":
        return GenCombo({j: GAUSS_ONE})


# ---------------------------------------------------------------------------
# enumerated sets
# ---------------------------------------------------------------------------

# the last stage an enumeration is asked for before it counts as stalled
ENUMERATION_STAGES = 1 << 16


class CeSet:
    """A monotone stage enumeration of a set of positive naturals.

    Desk-scale stand-in for a c.e. set: explicitly listed finite sets and
    decidable infinite sets with a stage schedule.  The one-to-one
    enumeration c_0, c_1, ... is derived from first appearance.
    """

    def __init__(
        self,
        stage_fn: Callable[[int], frozenset],
        *,
        decide: Optional[Callable[[int], bool]] = None,
        complete_size: Optional[int],
        label: str = "ce-set",
    ):
        self._stage_fn = stage_fn
        self.decide = decide
        self.complete_size = complete_size
        self.label = label
        self._enumerated: List[int] = []
        self._seen: set = set()
        self._cursor = 0

    @staticmethod
    def explicit(elements: Sequence[int], stages: Optional[Sequence[Sequence[int]]] = None) -> "CeSet":
        elems = list(dict.fromkeys(elements))
        if stages is None:
            stages = [elems[: i + 1] for i in range(len(elems))]
        frozen = [frozenset(s) for s in stages]
        for e in elems + [e for s in frozen for e in s]:
            # 0 passes here: the adversarial presentation refuses it with its
            # own typed error
            if isinstance(e, bool) or not isinstance(e, int) or e < 0:
                raise ValueError(f"set elements must be natural numbers, got {e!r}")
        for a, b in zip(frozen, frozen[1:]):
            if not a <= b:
                raise ValueError("stages must be monotone")
        full = frozenset(elems)
        if (frozen[-1] if frozen else frozenset()) != full:
            raise ValueError("last stage must list every element")

        def stage(t: int) -> frozenset:
            if not frozen:
                return frozenset()
            return frozen[min(t, len(frozen) - 1)]

        return CeSet(
            stage,
            decide=lambda n: n in full,
            complete_size=len(elems),
            label="{" + ",".join(map(str, elems)) + "}",
        )

    @staticmethod
    def from_predicate(pred: Callable[[int], bool], label: str) -> "CeSet":
        """Decidable infinite set; stage t reveals membership of 0..t."""

        def stage(t: int) -> frozenset:
            return frozenset(n for n in range(t + 1) if pred(n))

        return CeSet(stage, decide=pred, complete_size=None, label=label)

    # -- enumeration ----------------------------------------------------------

    def stage(self, t: int) -> frozenset:
        return self._stage_fn(t)

    def _advance_to(self, count: int) -> None:
        while len(self._enumerated) < count:
            if self.complete_size is not None and len(self._enumerated) >= self.complete_size:
                return
            if self._cursor > ENUMERATION_STAGES:
                raise EnumerationStalledError(
                    f"{self.label}: fewer than {count} elements after stage {ENUMERATION_STAGES}"
                )
            for n in sorted(self.stage(self._cursor)):
                if n not in self._seen:
                    self._seen.add(n)
                    self._enumerated.append(n)
            self._cursor += 1

    def element(self, n: int) -> Optional[int]:
        """c_n, or None when the set is known complete with <= n elements."""
        self._advance_to(n + 1)
        if n < len(self._enumerated):
            return self._enumerated[n]
        if self.complete_size is not None:
            return None
        raise EnumerationStalledError(f"{self.label}: element {n} unavailable")

    def elements_prefix(self, count: int) -> List[int]:
        out = []
        for n in range(count):
            c = self.element(n)
            if c is None:
                break
            out.append(c)
        return out

    def contains_zero(self) -> bool:
        if self.decide is not None:
            return self.decide(0)
        return 0 in self.stage(64)

    # -- the characteristic real ----------------------------------------------

    def gamma_enclosure(self, k: int) -> DyadicInterval:
        """Two-sided enclosure of gamma, width <= 2**-k (needs decidability)."""
        if self.decide is None:
            raise NoBackdoorError(f"{self.label}: gamma needs decidable membership")
        bound = k + 1
        # the members up to `bound`, summed as one integer over 2^bound
        low = Fraction(
            sum(1 << (bound - n) for n in range(1, bound + 1) if self.decide(n)), 1 << bound
        )
        if self.complete_size is not None:
            known = self.elements_prefix(self.complete_size)
            if all(c <= bound for c in known):
                return DyadicInterval.point(low)
        # members beyond `bound` contribute at most sum_{n > bound} 2^-n
        return DyadicInterval(low, low + Fraction(1, 2**bound))

    def to_json(self) -> dict:
        if self.complete_size is not None:
            self._advance_to(self.complete_size)
            return {"kind": "explicit", "elements": list(self._enumerated)}
        return {"kind": "named", "name": self.label}

    @staticmethod
    def from_json(data: dict) -> "CeSet":
        kind = data.get("kind", "explicit")
        _check_keys(data, kind, _CE_SET_KEYS, "ce-set")
        if kind == "explicit":
            return CeSet.explicit(data["elements"], data.get("stages"))
        if kind == "named":
            name = data["name"]
            if name not in NAMED_CE_SETS:
                raise ValueError(f"unknown named set {name!r}")
            return NAMED_CE_SETS[name]()
        raise ValueError(f"unknown ce-set kind {kind!r}")


# the keys each ce-set kind reads, then the ones it needs; any other key is
# refused, and a needed key that is missing is named
_CE_SET_KEYS = {
    "explicit": ({"kind", "elements", "stages"}, ("elements",)),
    "named": ({"kind", "name"}, ("name",)),
}


def _check_keys(data: dict, kind, table: dict, what: str) -> None:
    """ValueError naming the keys of data that `kind` does not read, or else
    the keys it needs that data lacks; an unknown kind is left to the caller."""
    entry = table.get(kind) if isinstance(kind, str) else None
    if entry is None:
        return
    keys, needed = entry
    if not data.keys() <= keys:
        raise ValueError(f"unknown {kind} {what} keys {sorted(data.keys() - keys)}")
    missing = [key for key in needed if key not in data]
    if missing:
        raise ValueError(f"missing {kind} {what} keys {missing}")


NAMED_CE_SETS = {
    "odds": lambda: CeSet.from_predicate(lambda n: n % 2 == 1, "odds"),
    "evens-from-2": lambda: CeSet.from_predicate(lambda n: n >= 2 and n % 2 == 0, "evens-from-2"),
}


# ---------------------------------------------------------------------------
# presentations
# ---------------------------------------------------------------------------


# the generator norm bounds only scale rounding grids and triangle bounds:
# a coarse query certifies them
_GEN_BOUND_PREC = 4


class Presentation:
    """Interface: an exponent plus a norm oracle over formal combinations."""

    def __init__(self, p: PExponent):
        self.p = p
        # j -> generator_norm_bound(j), one entry per generator asked about
        self._gen_bounds: Dict[int, Fraction] = {}

    def norm_approx(self, combo: GenCombo, k: int) -> Fraction:
        """Rational q with |q - ||combo|| | < 2**-k."""
        raise NotImplementedError

    def norm_enclosure(self, combo: GenCombo, k: int) -> DyadicInterval:
        """Enclosure of ||combo||, width <= 2**-k, built from one oracle call."""
        q = self.norm_approx(combo, k + 1)
        return _padded_norm(q, q, _width_target(k + 1))

    def generator_norm_bound(self, j: int) -> Fraction:
        """A certified upper bound on ||f_j||: the top of one low-precision
        oracle enclosure, asked once per generator."""
        bound = self._gen_bounds.get(j)
        if bound is None:
            bound = self._gen_bounds[j] = self.norm_enclosure(
                GenCombo.single(j), _GEN_BOUND_PREC
            ).hi
        return bound

    @property
    def exact_arithmetic(self) -> bool:
        """Whether snapshots and encodings are exact rational arithmetic."""
        return False

    def generator_atom(self, j: int) -> Optional[int]:
        """The one coordinate generator j is supported on, if it is an atom."""
        return None

    def transparent_eval(self, combo: GenCombo, k: int) -> FinSuppVector:
        """Backdoor: standard coordinates of combo within 2**-k."""
        raise NoBackdoorError(f"{type(self).__name__} has no transparent backdoor")

    def generator_vector(self, j: int, k: int) -> FinSuppVector:
        """Backdoor: standard-coordinate approximation of generator j."""
        return self.transparent_eval(GenCombo.single(j), k)

    def generator_tail_norm_bound(self, j: int, cutoff: int) -> Fraction:
        """Backdoor: upper bound on the norm of generator j beyond index `cutoff`."""
        raise NoBackdoorError(f"{type(self).__name__} has no transparent backdoor")

    def encode_vector(self, v: FinSuppVector, k: int) -> GenCombo:
        """Backdoor: a combination within 2**-k of the transparent vector v."""
        raise NoBackdoorError(f"{type(self).__name__} has no transparent backdoor")

    def descriptor(self) -> dict:
        raise NotImplementedError

    def __str__(self):
        return f"{self.descriptor()}"


def _entry_bound_bits(z: GaussianRational) -> int:
    """Smallest b >= 0 with |z| <= 2**b."""
    return (ceil_log2(z.abs_sq()) + 1) // 2


class StandardPresentation(Presentation):
    """Generators are the coordinate vectors themselves."""

    def norm_approx(self, combo: GenCombo, k: int) -> Fraction:
        box = norm_p(combo, self.p, k + 2)
        return box.mid

    @property
    def exact_arithmetic(self) -> bool:
        return True

    def generator_atom(self, j: int) -> Optional[int]:
        return j

    def transparent_eval(self, combo: GenCombo, k: int) -> FinSuppVector:
        return FinSuppVector(combo.entries)

    def generator_tail_norm_bound(self, j: int, cutoff: int) -> Fraction:
        return Fraction(0) if j <= cutoff else Fraction(1)

    def encode_vector(self, v: FinSuppVector, k: int) -> GenCombo:
        return GenCombo(v.entries)

    def descriptor(self) -> dict:
        out = {"type": "standard"}
        if self.p.exact is not None:
            out["p"] = format_fraction(self.p.exact)
        return out


class RotatedPresentation(StandardPresentation):
    """Generators zeta * e_j for one unimodular Gaussian rational zeta.

    The norm of a combination does not see zeta, so the oracle is literally
    the standard one; only the backdoor knows the rotation.
    """

    def __init__(self, p: PExponent, zeta: GaussianRational):
        if zeta.abs_sq() != 1:
            raise ValueError("zeta must be unimodular (|zeta|^2 = 1 exactly)")
        super().__init__(p)
        self.zeta = zeta

    def norm_approx(self, combo: GenCombo, k: int) -> Fraction:
        # the inherited oracle, under this class's own name: bench/spans.py
        # resolves the oracle family by qualified name
        return super().norm_approx(combo, k)

    def transparent_eval(self, combo: GenCombo, k: int) -> FinSuppVector:
        return FinSuppVector(combo.entries).scale(self.zeta)

    def encode_vector(self, v: FinSuppVector, k: int) -> GenCombo:
        # zeta^-1 = conj(zeta) for unimodular zeta
        return GenCombo(v.scale(self.zeta.conj()).entries)

    def descriptor(self) -> dict:
        out = {"type": "rotated", "zeta": str(self.zeta)}
        if self.p.exact is not None:
            out["p"] = format_fraction(self.p.exact)
        return out


class AdversarialPresentation(Presentation):
    """The presentation whose zeroth generator encodes an enumerated set.

    f_0 = (1 - gamma)^(1/p) e_0 + sum_n 2^(-c_n/p) e_(n+1)  (enumeration order),
    f_(n+1) = e_(n+1), gamma = sum over the set of 2^-n.  The norm of
    alpha_0 f_0 + ... + alpha_M f_M is computed from finitely many
    enumerated elements only: its p-th power is

        |alpha_0|^p + sum_j E_j,
        E_j = |alpha_0 2^(-c_(j-1)/p) + alpha_j|^p - |alpha_0|^p 2^(-c_(j-1)).

    For a finite set, coefficients beyond the last element see no overlap
    with f_0 and E_j degenerates to |alpha_j|^p.
    """

    def __init__(self, ce: CeSet, p: PExponent):
        if ce.contains_zero():
            raise ZeroInCeSetError(f"{ce.label} contains 0")
        super().__init__(p)
        self.ce = ce
        # (k, e0_combo_info(k)) of the last call: encoding a snapshot's nodes
        # asks for the same k over and over, and one entry cannot grow
        self._e0_last: Optional[tuple] = None

    # -- oracle ---------------------------------------------------------------

    def _scale_factor(self, c: int, k: int) -> DyadicInterval:
        """Enclosure of 2^(-c/p), width <= 2**-k."""
        return pow_enclosure(DyadicInterval.point(Fraction(1, 2**c)), self.p, k, over_p=True)

    def _interaction_term(
        self, a0: GaussianRational, quad: Tuple[Fraction, Fraction, Fraction], c: int, k: int
    ) -> DyadicInterval:
        """E_j enclosure at s = 2^(-c/p): |a0 s + aj|^p - |a0|^p 2^-c.

        quad holds the exact coefficients of |a0 s + aj|^2 =
        |a0|^2 s^2 + 2 Re(a0 conj(aj)) s + |aj|^2, highest first.
        """
        s2, s1, s0 = quad

        def attempt(kk: int) -> Optional[DyadicInterval]:
            s = self._scale_factor(c, kk)
            sq = (s * s).scale(s2) + s.scale(s1) + DyadicInterval.point(s0)
            if sq.lo < 0:
                sq = DyadicInterval(Fraction(0), max(sq.hi, Fraction(0)))
            main = pow_enclosure(sq, self.p, kk, num=Fraction(1, 2))
            sub = abs_pow(a0, self.p, kk).scale(Fraction(1, 2**c))
            out = main - sub
            return out if out.fits(k) else None

        return refine(attempt, k + 3, what="interaction term exceeded the precision cap")

    def norm_power_enclosure(self, combo: GenCombo, k: int) -> DyadicInterval:
        """Enclosure of ||combo||^p from enumerated elements only."""
        if combo.is_zero():
            return ZERO_INTERVAL
        a0 = combo[0]
        a0_sq = a0.abs_sq()
        top = combo.max_index()
        # the nonzero terms j >= 1 in coordinate order, as (c, aj, quad):
        # c is None where f_0 does not overlap coordinate j and the term is
        # |aj|^p; otherwise quad holds _interaction_term's constants
        terms: List[tuple] = []
        for j in range(1, top + 1):
            aj = combo[j]
            c = self.ce.element(j - 1) if not a0.is_zero() else None
            if c is None:
                # no overlap with f_0 at this coordinate
                if not aj.is_zero():
                    terms.append((None, aj, None))
                continue
            if aj.is_zero():
                continue  # E_j = |a0 s|^p - |a0|^p 2^-c = 0 exactly
            terms.append((c, aj, (a0_sq, 2 * (a0 * aj.conj()).re, aj.abs_sq())))

        def attempt(kk: int) -> Optional[DyadicInterval]:
            total = abs_pow(a0, self.p, kk)
            for c, aj, quad in terms:
                if c is None:
                    total = total + abs_pow(aj, self.p, kk)
                else:
                    total = total + self._interaction_term(a0, quad, c, kk)
            if total.lo < 0:
                total = DyadicInterval(Fraction(0), max(total.hi, Fraction(0)))
            return total if total.fits(k) else None

        return refine(
            attempt,
            k + (top + 2).bit_length() + 1,
            what="adversarial norm exceeded the precision cap",
        )

    def norm_approx(self, combo: GenCombo, k: int) -> Fraction:
        """Rational within 2**-k of ||combo||."""
        if combo.is_zero():
            return Fraction(0)

        def attempt(kk: int) -> Optional[Fraction]:
            power = self.norm_power_enclosure(combo, kk)
            box = pow_enclosure(power, self.p, kk, over_p=True)
            return box.mid if box.fits(k + 1) else None

        return refine(attempt, k + 2, what="adversarial norm root exceeded the precision cap")

    # -- backdoor ---------------------------------------------------------------

    @property
    def exact_arithmetic(self) -> bool:
        return self.p.exact == 1 and self.ce.complete_size is not None

    def generator_atom(self, j: int) -> Optional[int]:
        return j if j >= 1 else None

    def _prefix_for_tail(self, tail_power_tol: Fraction) -> List[int]:
        """Enumerated elements whose complement tail of gamma is <= tail_power_tol."""
        gb = bits_for(tail_power_tol) + 4
        gamma_hi = self.ce.gamma_enclosure(gb).hi
        prefix: List[int] = []
        # the prefix's weight is partial / 2^bound, one integer over the
        # largest element so far; loop while gamma_hi - weight > tail_power_tol
        need = gamma_hi - tail_power_tol
        partial, bound = 0, 0
        while partial * need.denominator < need.numerator << bound:
            c = self.ce.element(len(prefix))
            if c is None:
                break  # complete set fully enumerated; remaining tail is 0
            prefix.append(c)
            if c > bound:
                partial <<= c - bound
                bound = c
            partial += 1 << (bound - c)
            if len(prefix) > 1 << 16:
                raise PrecisionExhaustedError("tail of gamma did not shrink")
        return prefix

    def _root_one_minus_gamma(self, tol: Fraction, invert: bool = False) -> DyadicInterval:
        """Enclosure of (1-gamma)^(1/p) (or its reciprocal), width <= tol."""
        gb = max(8, bits_for(tol))
        while True:
            gamma_box = self.ce.gamma_enclosure(gb)
            one_minus = DyadicInterval(max(1 - gamma_box.hi, Fraction(0)), 1 - gamma_box.lo)
            if one_minus.lo > 0:
                box = pow_enclosure(one_minus, self.p, gb, over_p=True)
                if invert:
                    box = box.reciprocal()
                if box.width <= tol:
                    return box
            gb *= 2
            if gb > MAX_WORKING_PREC:
                raise PrecisionExhaustedError("(1-gamma)^(1/p) refinement exceeded the cap")

    def f0_vector(self, k: int) -> FinSuppVector:
        """Transparent approximation of f_0 within 2**-k (rational entries)."""
        target = _width_target(k)
        ph = self.p.upper_int()
        # dropped tail: norm <= tail_power^(1/p) <= tail_power^(1/ph) for tail <= 1
        tail_tol = _exact_power(target / 4, ph)
        prefix = self._prefix_for_tail(tail_tol)
        per_entry = target / 4 / (len(prefix) + 1)
        entry_bits = bits_for(per_entry)
        entries: Dict[int, GaussianRational] = {
            0: GaussianRational.of(self._root_one_minus_gamma(per_entry).mid)
        }
        for idx, c in enumerate(prefix):
            entries[idx + 1] = GaussianRational.of(self._scale_factor(c, entry_bits).mid)
        return FinSuppVector(entries)

    def transparent_eval(self, combo: GenCombo, k: int) -> FinSuppVector:
        a0 = combo[0]
        out = FinSuppVector.zero()
        if not a0.is_zero():
            out = out + self.f0_vector(k + 1 + _entry_bound_bits(a0)).scale(a0)
        rest = FinSuppVector({j: z for j, z in combo.entries.items() if j >= 1})
        return out + rest

    def generator_tail_norm_bound(self, j: int, cutoff: int) -> Fraction:
        if j >= 1:
            return Fraction(0) if j <= cutoff else Fraction(1)
        if cutoff < 0:
            return Fraction(1)
        # ||f_0 beyond cutoff||^p = gamma minus the weights of the first
        # `cutoff` enumerated elements (coordinates 1..cutoff)
        gamma_hi = self.ce.gamma_enclosure(cutoff + 16).hi
        seen = self.ce.elements_prefix(cutoff)
        tail_power = max(gamma_hi - sum((Fraction(1, 2**c) for c in seen), Fraction(0)), Fraction(0))
        if tail_power == 0:
            return Fraction(0)
        return pow_enclosure(DyadicInterval.point(tail_power), self.p, 8, over_p=True).hi

    def e0_combo(self, k: int) -> GenCombo:
        return self.e0_combo_info(k)[0]

    def e0_combo_info(self, k: int) -> tuple:
        """A combination within 2**-k of the coordinate vector e_0, plus the
        constants the construction fixed (echoed for reproducibility).

        Realizes q1 [f_0 - sum_{n=1}^{N1-1} r_n f_n] with rational r_n close
        to 2^(-c_(n-1)/p) and q1 close to (1-gamma)^(-1/p); decidable
        membership stands in for the oracle the construction relativizes to.
        The result is shared with the next call at the same k; callers must
        not mutate it.
        """
        if self._e0_last is not None and self._e0_last[0] == k:
            return self._e0_last[1]
        target = _width_target(k)
        m_bound = self._root_one_minus_gamma(Fraction(1, 4), invert=True).hi + 1
        ph = self.p.upper_int()
        # residual tail of f_0 carried into g, rescaled by at most m_bound
        tail_tol = _exact_power(target / 4 / m_bound, ph)
        prefix = self._prefix_for_tail(tail_tol)
        n1 = max(3, len(prefix) + 1)
        prefix = self.ce.elements_prefix(n1 - 1)
        # q1 and the r_n each within a slice of the remaining budget
        slice_tol = target / 4 / (n1 + 1)
        q1 = self._root_one_minus_gamma(slice_tol, invert=True).mid
        coeffs: Dict[int, GaussianRational] = {0: GaussianRational.of(q1)}
        r_tol = slice_tol / (abs(q1) + 1)
        for n in range(1, n1):
            if n - 1 >= len(prefix):
                break
            r = self._scale_factor(prefix[n - 1], bits_for(r_tol)).mid
            coeffs[n] = GaussianRational.of(-q1 * r)
        info = {
            "q1": format_fraction(q1),
            "M": format_fraction(m_bound),
            "N1": n1,
            "prefix": list(prefix),
        }
        self._e0_last = (k, (GenCombo(coeffs), info))
        return self._e0_last[1]

    def encode_vector(self, v: FinSuppVector, k: int) -> GenCombo:
        out = GenCombo({})
        z0 = v[0]
        if not z0.is_zero():
            out = out + self.e0_combo(k + 1 + _entry_bound_bits(z0)).scale(z0)
        rest = GenCombo({j: z for j, z in v.entries.items() if j >= 1})
        return out + rest

    def descriptor(self) -> dict:
        out = {"type": "adversarial", "ce": self.ce.to_json()}
        if self.p.exact is not None:
            out["p"] = format_fraction(self.p.exact)
        return out


# ---------------------------------------------------------------------------
# module-level operation surface
# ---------------------------------------------------------------------------


def norm_approx(pres: Presentation, f: GenCombo, k: int) -> Fraction:
    return pres.norm_approx(f, k)


def transparent_eval(pres: Presentation, f: GenCombo, k: int) -> FinSuppVector:
    return pres.transparent_eval(f, k)


# the keys each presentation type reads, then the ones it needs (p may also
# come from the caller's default); see _check_keys
_DESCRIPTOR_KEYS = {
    "standard": ({"type", "p"}, ()),
    "rotated": ({"type", "p", "zeta"}, ("zeta",)),
    "adversarial": ({"type", "p", "ce"}, ("ce",)),
}


def presentation_from_descriptor(data: dict, default_p: Optional[PExponent] = None) -> Presentation:
    kind = data.get("type", "standard")
    _check_keys(data, kind, _DESCRIPTOR_KEYS, "descriptor")
    if "p" in data:
        p = PExponent.from_fraction(parse_fraction(data["p"]))
    elif default_p is not None:
        p = default_p
    else:
        raise ValueError("presentation descriptor needs an exponent p")
    if kind == "standard":
        return StandardPresentation(p)
    if kind == "rotated":
        return RotatedPresentation(p, GaussianRational.parse(data["zeta"]))
    if kind == "adversarial":
        return AdversarialPresentation(CeSet.from_json(data["ce"]), p)
    raise ValueError(f"unknown presentation type {kind!r}")


# ---------------------------------------------------------------------------
# computable vectors
# ---------------------------------------------------------------------------


class ComputableVector:
    """A vector known through combinations: approx(k) is within 2**-k of it.

    Approximators must be pure; answers are memoized.  The vector carries
    its presentation as ``pres``, the one place a tree map or chain source
    finds it, so norms can be taken without extra plumbing.
    """

    def __init__(self, approx: Callable[[int], GenCombo], pres: Presentation):
        self._approx = approx
        self.pres = pres
        self._memo: Dict[int, GenCombo] = {}

    def approx(self, k: int) -> GenCombo:
        if k < 0:
            raise ValueError("precision must be >= 0")
        if k not in self._memo:
            self._memo[k] = self._approx(k)
        return self._memo[k]

    @staticmethod
    def constant(combo: GenCombo, pres: Presentation) -> "ComputableVector":
        return ComputableVector(lambda k: combo, pres)

    def at_least(self, floor: int) -> "ComputableVector":
        """This vector read no coarser than approx(floor), through its memo:
        an approximation within 2**-floor is within 2**-k for every k <= floor."""
        return ComputableVector(lambda k: self.approx(max(k, floor)), self.pres)

    def norm_enclosure(self, k: int) -> DyadicInterval:
        combo = self.approx(k + 2)
        inner = self.pres.norm_enclosure(combo, k + 2)
        return _padded_norm(inner.lo, inner.hi, _width_target(k + 2))

    def reciprocal_norm(self, k: int) -> DyadicInterval:
        """Enclosure of 1/||self||, width <= 2**-k; the norm must be nonzero."""

        def attempt(kk: int) -> Optional[DyadicInterval]:
            box = self.norm_enclosure(kk)
            if box.lo <= 0:
                return None
            out = box.reciprocal()
            return out if out.fits(k) else None

        return refine(
            attempt,
            max(4, k),
            what="reciprocal norm refinement exceeded its cap",
            cap=1 << 14,
        )

    def transparent(self, k: int) -> FinSuppVector:
        """Backdoor coordinates within 2**-k (transparent presentations only)."""
        return self.pres.transparent_eval(self.approx(k + 1), k + 1)

    def __add__(self, other: "ComputableVector") -> "ComputableVector":
        if other.pres is not self.pres:
            raise ValueError("cannot mix presentations")
        return ComputableVector(lambda k: self.approx(k + 1) + other.approx(k + 1), self.pres)

    def __sub__(self, other: "ComputableVector") -> "ComputableVector":
        if other.pres is not self.pres:
            raise ValueError("cannot mix presentations")
        return ComputableVector(lambda k: self.approx(k + 1) - other.approx(k + 1), self.pres)

    def scale_gauss(self, z: GaussianRational) -> "ComputableVector":
        bits = _entry_bound_bits(z)
        return ComputableVector(lambda k: self.approx(k + bits + 1).scale(z), self.pres)

    def over_norm_of(self, w: "ComputableVector", inv_bits: int) -> "ComputableVector":
        """This vector divided by ||w||, where 1/||w|| <= 2**inv_bits."""
        norm_bits_cache: Dict[str, int] = {}

        def approx(k: int) -> GenCombo:
            if "bits" not in norm_bits_cache:
                norm_bits_cache["bits"] = ceil_log2(self.norm_enclosure(2).hi + 1)
            extra = norm_bits_cache["bits"]
            q = w.reciprocal_norm(k + 3 + extra).mid
            return self.approx(k + 2 + inv_bits).scale(GaussianRational.of(q))

        return ComputableVector(approx, self.pres)
