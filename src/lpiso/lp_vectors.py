"""Finitely supported vectors over the Gaussian rationals.

This is the transparent model of the sequence space: supports are exact
index sets, the order f <= g ("f agrees with g on its support and vanishes
elsewhere") is decidable, and norms come back as certified enclosures.

sigma1 on vectors is deliberately computed from the four norms
||f||, ||g||, ||f-g||, ||f+g|| only, so the identical formula can be run
against an opaque norm oracle (sigma1_from_norms).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, Hashable, Iterable, Mapping, Optional, Tuple

from .scalar_core import (
    GAUSS_ZERO,
    DyadicInterval,
    GaussianRational,
    PExponent,
    ZERO_INTERVAL,
    _exact_sum,
    abs_pow,
    pow_enclosure,
    refine,
)


class FinSuppVector:
    """Sparse map index -> GaussianRational with no stored zeros."""

    __slots__ = ("entries",)

    def __init__(self, entries: Mapping[int, GaussianRational]):
        clean: Dict[int, GaussianRational] = {}
        for n, z in entries.items():
            if not isinstance(n, int) or n < 0:
                raise ValueError(f"indices must be nonnegative integers, got {n!r}")
            if not z.is_zero():
                clean[int(n)] = z
        self.entries = clean

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def zero() -> "FinSuppVector":
        return FinSuppVector({})

    @staticmethod
    def basis(n: int, coeff: GaussianRational = GaussianRational.one()) -> "FinSuppVector":
        return FinSuppVector({n: coeff})

    # -- structure ------------------------------------------------------------

    def support(self) -> frozenset:
        return frozenset(self.entries)

    def __getitem__(self, n: int) -> GaussianRational:
        return self.entries.get(n, GAUSS_ZERO)

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other) -> bool:
        return isinstance(other, FinSuppVector) and self.entries == other.entries

    def __hash__(self):
        return hash(frozenset(self.entries.items()))

    def _built(self, entries: Dict[int, GaussianRational]) -> "FinSuppVector":
        """A vector of this type on validated indices holding no zero."""
        out = object.__new__(type(self))
        out.entries = entries
        return out

    def _plus(self, items) -> "FinSuppVector":
        """This vector plus nonzero entries at validated indices; an entry
        whose sum cancels is dropped, so no zero is stored."""
        out = dict(self.entries)
        for n, z in items:
            s = out.get(n)
            if s is None:
                out[n] = z
            elif (s := s + z).is_zero():
                del out[n]
            else:
                out[n] = s
        return self._built(out)

    def __add__(self, other: "FinSuppVector") -> "FinSuppVector":
        return self._plus(other.entries.items())

    def __sub__(self, other: "FinSuppVector") -> "FinSuppVector":
        return self._plus((n, -z) for n, z in other.entries.items())

    def scale(self, z: GaussianRational) -> "FinSuppVector":
        if z.is_zero():
            return self._built({})
        # a product of nonzero Gaussian rationals is nonzero
        return self._built({n: v * z for n, v in self.entries.items()})

    def restrict(self, indices: Iterable[int]) -> "FinSuppVector":
        keep = set(indices)
        return type(self)({n: z for n, z in self.entries.items() if n in keep})

    def restrict_below(self, cutoff: int) -> "FinSuppVector":
        """Keep coordinates with index <= cutoff."""
        return type(self)({n: z for n, z in self.entries.items() if n <= cutoff})

    def max_index(self) -> int:
        """Largest supported index; -1 for the zero vector."""
        return max(self.entries, default=-1)

    def __str__(self) -> str:
        if not self.entries:
            return "0"
        return " + ".join(f"({self.entries[n]})e_{n}" for n in sorted(self.entries))

    def to_json(self) -> dict:
        return {"entries": {str(n): str(z) for n, z in sorted(self.entries.items())}}

    @staticmethod
    def from_json(data: dict) -> "FinSuppVector":
        return FinSuppVector(
            {int(n): GaussianRational.parse(s) for n, s in data["entries"].items()}
        )


# ---------------------------------------------------------------------------
# support calculus
# ---------------------------------------------------------------------------


def is_disjointly_supported(f: FinSuppVector, g: FinSuppVector) -> bool:
    """Exact support intersection test; sigma1 vanishes exactly on such pairs."""
    small, large = (f, g) if len(f.entries) <= len(g.entries) else (g, f)
    return all(n not in large.entries for n in small.entries)


def precedes(f: FinSuppVector, g: FinSuppVector) -> bool:
    """f <= g in the agreement order: f(n) = 0 whenever g(n) != f(n).

    Equivalent to g - f and f being disjointly supported.
    """
    return all(g[n] == z for n, z in f.entries.items())


def is_atom(f: FinSuppVector) -> bool:
    """Atoms of the order are the nonzero multiples of a single basis vector."""
    return len(f.entries) == 1


def atom_witness(
    f: FinSuppVector, atoms: Mapping[int, Tuple[Hashable, GaussianRational]]
) -> Dict[Hashable, GaussianRational]:
    """The coefficients that rebuild f from atoms on the coordinates they
    cover: atoms maps a coordinate n to (holder, lam), the holder carrying
    the atom lam e_n, and each covered entry gives holder -> f(n) / lam.
    A coordinate with no atom, or whose lam is zero (an atom entry a finer
    snapshot has zeroed), stays uncovered.  Each holder carries one
    coordinate, so no coefficient is accumulated."""
    out: Dict[Hashable, GaussianRational] = {}
    for n, z in f.entries.items():
        atom = atoms.get(n)
        if atom is not None and not atom[1].is_zero():
            out[atom[0]] = z / atom[1]
    return out


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


def norm_power_p(f: FinSuppVector, p: PExponent, k: int) -> DyadicInterval:
    """Enclosure of ||f||_p^p = sum |f(n)|^p, width <= 2**-k."""
    if f.is_zero():
        return ZERO_INTERVAL
    shift = max(1, len(f.entries)).bit_length()

    def attempt(kk: int) -> Optional[DyadicInterval]:
        out = DyadicInterval.sum(abs_pow(z, p, kk) for z in f.entries.values())
        return out if out.fits(k) else None

    return refine(attempt, k + shift, what="norm^p refinement exceeded the precision cap")


def norm_p(f: FinSuppVector, p: PExponent, k: int) -> DyadicInterval:
    """Enclosure of ||f||_p, width <= 2**-k.

    Exact lane: at p = 1 exactly with every entry real, the norm is the
    rational sum of |f(n)|, returned as a point without refinement.  The
    general path returns that same point there (each |f(n)|^1 is an exact
    point and the 1/p root of a rational sum is the sum), so the lane moves
    no answer; any imaginary part or any other p takes the general path.
    """
    if f.is_zero():
        return ZERO_INTERVAL
    if p.exact == 1:
        moduli = []
        for z in f.entries.values():
            if z.im:
                break  # a complex entry: |z| may be irrational
            moduli.append(abs(z.re))
        else:
            return DyadicInterval.point(_exact_sum(moduli))

    def attempt(kk: int) -> Optional[DyadicInterval]:
        out = pow_enclosure(norm_power_p(f, p, kk), p, kk, over_p=True)
        return out if out.fits(k) else None

    return refine(attempt, k + 2, what="norm refinement exceeded the precision cap")


NormFn = Callable[[int], DyadicInterval]


def norm_per_precision(norm: NormFn) -> NormFn:
    """norm, evaluated once per precision: one vector's norm shared by its pairs."""
    memo: Dict[int, DyadicInterval] = {}

    def fn(kk: int) -> DyadicInterval:
        if kk not in memo:
            memo[kk] = norm(kk)
        return memo[kk]

    return fn


def sigma1_from_norms(
    norm_f: NormFn,
    norm_g: NormFn,
    norm_diff: NormFn,
    norm_sum: NormFn,
    p: PExponent,
    k: int,
) -> DyadicInterval:
    """|2(||f||^p + ||g||^p) - (||f-g||^p + ||f+g||^p)| from norm enclosures only.

    Each argument maps a precision request to an enclosure of the
    corresponding norm (not its p-th power); this is the shape a norm
    oracle naturally provides.
    """

    def attempt(kk: int) -> Optional[DyadicInterval]:
        terms = []
        for fn in (norm_f, norm_g, norm_diff, norm_sum):
            box = fn(kk)
            if box.lo < 0:
                box = DyadicInterval(Fraction(0), max(box.hi, Fraction(0)))
            terms.append(pow_enclosure(box, p, kk))
        a, b, c, d = terms
        out = ((a + b).scale(2) - (c + d)).abs()
        return out if out.fits(k) else None

    return refine(attempt, k + 4, what="sigma1-from-norms exceeded the precision cap")


def sigma1_vec(f: FinSuppVector, g: FinSuppVector, p: PExponent, k: int) -> DyadicInterval:
    """sigma1 on vectors, computed through the four norms only."""
    return sigma1_from_norms(
        lambda kk: norm_p(f, p, kk),
        lambda kk: norm_p(g, p, kk),
        lambda kk: norm_p(f - g, p, kk),
        lambda kk: norm_p(f + g, p, kk),
        p,
        k,
    )

