"""Exact scalars, certified interval enclosures, and the scalar sigma functionals.

Ground rules that the rest of the package relies on:

  * scalars are Gaussian rationals (exact rational real/imaginary parts);
  * every analytic quantity is returned as a DyadicInterval that provably
    contains it, never as a float.  Known exception: mpmath 1.3.0's mpf_exp
    can round an exact approximation "up" to a value below exp(x), so the
    top of an enclosure through mpi_exp (a power of a base very near 1) can
    fall one ulp short (tests/test_integer_audit.py, TestMpmathDirectedRounding);
  * precision requests are integers k meaning "width at most 2**-k";
  * refinement is monotone: asking for a larger k yields a sub-interval.

Transcendental enclosures (exp, log, cos, pi) call mpmath.libmp.libmpi's
interval functions on (lo, hi) tuples of binary floats at an explicit
precision, and set no mpmath global precision; _interval_from_mpi, the one
place that trusts mpmath, turns the dyadic endpoints into exact Fractions,
so no precision is lost in transit.  Rational fast paths bypass mpmath
entirely.
"""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, Optional, Tuple, TypeVar, Union

from mpmath.libmp import from_int, from_rational, mpf_div, round_ceiling, round_floor
from mpmath.libmp.libmpi import mpi_cos, mpi_div, mpi_exp, mpi_log, mpi_mul, mpi_pi

from .errors import InvalidInputError, PEqualsTwoError, PrecisionExhaustedError

RationalLike = Union[Fraction, int]

#: hard cap (in bits) for adaptive refinement loops; hitting it raises
#: PrecisionExhaustedError or, for p-vs-2 separation, PEqualsTwoError.
MAX_WORKING_PREC = 8192

#: initial guard bits added on top of a target precision k.
GUARD_BITS = 24

#: largest bit length an exact power q**n, or an mpmath endpoint turned
#: into a Fraction, may reach: a larger one (such as 2**(10**2466) at
#: p = 1e2466) is refused with PrecisionExhaustedError before it is built
MAX_EXACT_POWER_BITS = 1 << 20

T = TypeVar("T")


def refine(
    attempt: Callable[[int], Optional[T]],
    kk: int,
    *,
    what: str,
    cap: int = MAX_WORKING_PREC,
    error: type = PrecisionExhaustedError,
) -> T:
    """The first non-None attempt(kk), growing kk by max(4, kk // 2) per miss.

    This is the package's one adaptive-refinement schedule: each caller
    supplies its start precision and cap.  Once kk passes the cap,
    error(what) is raised (PrecisionExhaustedError unless the caller names
    another typed failure).
    """
    while True:
        out = attempt(kk)
        if out is not None:
            return out
        kk += max(4, kk // 2)
        if kk > cap:
            raise error(what)


def _to_fraction(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


#: largest |exponent| a decimal literal such as '1e3' may carry: Fraction
#: builds 10**exponent in full, and 10**2466 < 2**MAX_WORKING_PREC.
MAX_DECIMAL_EXPONENT = 2466


def parse_fraction(text: str) -> Fraction:
    """Parse 'num/den' or 'num' (unicode minus tolerated); a zero
    denominator, or a decimal exponent past MAX_DECIMAL_EXPONENT, is a
    ValueError like any other malformed literal."""
    text = text.strip().replace("−", "-")
    mark = max(text.rfind("e"), text.rfind("E"))
    if mark >= 0:
        try:
            exponent = int(text[mark + 1:])
        except ValueError:
            exponent = 0  # not an exponent: Fraction refuses the literal
        if abs(exponent) > MAX_DECIMAL_EXPONENT:
            raise ValueError(
                f"decimal exponent {exponent} in {text!r} is past {MAX_DECIMAL_EXPONENT}"
            )
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in {text!r}") from exc


def ceil_log2(q: RationalLike) -> int:
    """Smallest b >= 0 with q <= 2**b, exactly (0 for every q <= 1)."""
    q = _to_fraction(q)
    if q <= 1:
        return 0
    n, d = q.numerator, q.denominator
    b = n.bit_length() - d.bit_length()  # 2**(b-1) < q < 2**(b+1)
    return b if n <= d << b else b + 1


def format_fraction(q: Fraction) -> str:
    """'num/den', or 'num' for an integer; InvalidInputError when a part is
    past Python's int-to-str digit limit (a figure such as 3**10000 that an
    input like --p 1e4 makes exactly)."""
    q = Fraction(q)
    try:
        if q.denominator == 1:
            return str(q.numerator)
        return f"{q.numerator}/{q.denominator}"
    except ValueError as exc:
        raise InvalidInputError(
            f"a {max(abs(q.numerator), q.denominator).bit_length()}-bit figure is past "
            f"the {sys.get_int_max_str_digits()}-digit limit for printing an integer"
        ) from exc


# ---------------------------------------------------------------------------
# Gaussian rationals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaussianRational:
    """Complex number with exact rational real and imaginary parts."""

    re: Fraction
    im: Fraction

    def __post_init__(self):
        object.__setattr__(self, "re", _to_fraction(self.re))
        object.__setattr__(self, "im", _to_fraction(self.im))

    @staticmethod
    def of(re: RationalLike, im: RationalLike = 0) -> "GaussianRational":
        return GaussianRational(_to_fraction(re), _to_fraction(im))

    @staticmethod
    def one() -> "GaussianRational":
        return _gauss(Fraction(1), Fraction(0))

    # Real lane: a zero imaginary part is skipped, never multiplied or added,
    # so real * real is one Fraction product and real * complex two.  Every
    # lane returns the general formula's values.

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        a, b = self.im, other.im
        if not b.numerator:
            return _gauss(self.re + other.re, a)
        if not a.numerator:
            return _gauss(self.re + other.re, b)
        return _gauss(self.re + other.re, a + b)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        a, b = self.im, other.im
        if not b.numerator:
            return _gauss(self.re - other.re, a)
        if not a.numerator:
            return _gauss(self.re - other.re, -b)
        return _gauss(self.re - other.re, a - b)

    def __neg__(self) -> "GaussianRational":
        im = self.im
        return _gauss(-self.re, -im if im.numerator else im)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        a, b, c, d = self.re, self.im, other.re, other.im
        if not b.numerator:
            if not d.numerator:
                return _gauss(a * c, b)
            return _gauss(a * c, a * d)
        if not d.numerator:
            return _gauss(a * c, b * c)
        return _gauss(a * c - b * d, a * d + b * c)

    def __truediv__(self, other: "GaussianRational") -> "GaussianRational":
        """Exact quotient; ZeroDivisionError when other is zero."""
        return self * other.conj().scale(1 / other.abs_sq())

    def scale(self, q: RationalLike) -> "GaussianRational":
        q = _to_fraction(q)
        im = self.im
        return _gauss(self.re * q, im * q if im.numerator else im)

    def conj(self) -> "GaussianRational":
        im = self.im
        return _gauss(self.re, -im) if im.numerator else self

    def abs_sq(self) -> Fraction:
        """|z|^2, exact."""
        re, im = self.re, self.im
        if not im.numerator:
            return re * re
        return re * re + im * im

    def is_zero(self) -> bool:
        return not self.re.numerator and not self.im.numerator

    def __str__(self) -> str:
        if self.im == 0:
            return format_fraction(self.re)
        im_part = format_fraction(abs(self.im)) + "i"
        sign = "-" if self.im < 0 else "+"
        if self.re == 0:
            return ("-" if self.im < 0 else "") + im_part
        return f"{format_fraction(self.re)}{sign}{im_part}"

    @staticmethod
    def parse(text: str) -> "GaussianRational":
        """Parse '3', '1/2', 'i', '-1/2+1/2i', '2i', '1/4-3i', '1e-5i'."""
        s = text.strip().replace("−", "-").replace(" ", "")
        if not s:
            raise ValueError("empty scalar literal")
        if not s.endswith("i"):
            return GaussianRational(parse_fraction(s), Fraction(0))
        body = s[:-1]
        # find the split between real and imaginary parts: the last +/- that
        # is neither the leading sign nor a decimal exponent's sign
        split = -1
        for idx in range(len(body) - 1, 0, -1):
            if body[idx] in "+-" and body[idx - 1] not in "eE":
                split = idx
                break
        if split == -1:
            im_txt = body
            re_txt = ""
        else:
            re_txt, im_txt = body[:split], body[split:]
        if im_txt in ("", "+"):
            im = Fraction(1)
        elif im_txt == "-":
            im = Fraction(-1)
        else:
            im = parse_fraction(im_txt)
        re = parse_fraction(re_txt) if re_txt else Fraction(0)
        return GaussianRational(re, im)


def _gauss(re: Fraction, im: Fraction) -> GaussianRational:
    """GaussianRational(re, im) unchecked, for parts that are Fractions by construction."""
    out = object.__new__(GaussianRational)
    fields = out.__dict__
    fields["re"], fields["im"] = re, im
    return out


GAUSS_ZERO = _gauss(Fraction(0), Fraction(0))
GAUSS_ONE = GaussianRational.one()
GAUSS_I = GaussianRational.of(0, 1)

#: the four Gaussian-integer units, used in invariance tests
UNIMODULAR_UNITS = (
    GAUSS_ONE,
    -GAUSS_ONE,
    GAUSS_I,
    -GAUSS_I,
)


# ---------------------------------------------------------------------------
# Dyadic intervals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DyadicInterval:
    """Closed interval [lo, hi] with exact rational endpoints.

    Endpoints coming out of the mpmath backend are dyadic; exact rational
    fast paths may produce non-dyadic endpoints, which is harmless since
    all arithmetic here is exact.  Invariant: lo <= hi, and every operation
    returns an interval containing the exact image of its inputs.
    """

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", _to_fraction(self.lo))
        object.__setattr__(self, "hi", _to_fraction(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"inverted interval [{self.lo}, {self.hi}]")

    @staticmethod
    def point(q: RationalLike) -> "DyadicInterval":
        q = _to_fraction(q)
        return _trusted(q, q)

    # -- queries ------------------------------------------------------------

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def fits(self, k: int) -> bool:
        """width <= 2**-k, decided on the endpoints' integers."""
        lo, hi = self.lo, self.hi
        lo_d, hi_d = lo.denominator, hi.denominator
        return (hi.numerator * lo_d - lo.numerator * hi_d) << k <= hi_d * lo_d

    @property
    def mid(self) -> Fraction:
        if self.is_point():
            return self.lo
        return (self.lo + self.hi) / 2

    def contains(self, q: RationalLike) -> bool:
        q = _to_fraction(q)
        return self.lo <= q <= self.hi

    def encloses(self, other: "DyadicInterval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def is_point(self) -> bool:
        lo, hi = self.lo, self.hi
        return lo.numerator == hi.numerator and lo.denominator == hi.denominator

    def separated_from_zero(self) -> bool:
        return self.lo > 0 or self.hi < 0

    # -- arithmetic (exact, containment-preserving) --------------------------
    #
    # Point lane: when every operand has lo is hi (as point() builds it), one
    # endpoint is computed and returned as both, so chained point arithmetic
    # stays on the lane; the value equals the general formula's.

    def __add__(self, other: "DyadicInterval") -> "DyadicInterval":
        a, b = self.lo, other.lo
        if a is self.hi and b is other.hi:
            q = a + b
            return _trusted(q, q)
        return _trusted(a + b, self.hi + other.hi)

    def __sub__(self, other: "DyadicInterval") -> "DyadicInterval":
        a, b = self.lo, other.lo
        if a is self.hi and b is other.hi:
            q = a - b
            return _trusted(q, q)
        return _trusted(a - other.hi, self.hi - b)

    def __neg__(self) -> "DyadicInterval":
        lo = self.lo
        if lo is self.hi:
            q = -lo
            return _trusted(q, q)
        return _trusted(-self.hi, -lo)

    def __mul__(self, other: "DyadicInterval") -> "DyadicInterval":
        a, b = self.lo, other.lo
        if a is self.hi and b is other.hi:
            q = a * b
            return _trusted(q, q)
        products = (
            a * b,
            a * other.hi,
            self.hi * b,
            self.hi * other.hi,
        )
        return _trusted(min(products), max(products))

    def scale(self, q: RationalLike) -> "DyadicInterval":
        q = _to_fraction(q)
        lo = self.lo
        if lo is self.hi:
            v = lo * q
            return _trusted(v, v)
        if q >= 0:
            return _trusted(lo * q, self.hi * q)
        return _trusted(self.hi * q, lo * q)

    def shift(self, q: RationalLike) -> "DyadicInterval":
        q = _to_fraction(q)
        return _trusted(self.lo + q, self.hi + q)

    def abs(self) -> "DyadicInterval":
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return -self
        return _trusted(Fraction(0), max(-self.lo, self.hi))

    def reciprocal(self) -> "DyadicInterval":
        if not self.separated_from_zero():
            raise ZeroDivisionError("reciprocal of an interval containing 0")
        lo = self.lo
        if lo is self.hi:
            q = 1 / lo
            return _trusted(q, q)
        return _trusted(1 / self.hi, 1 / lo)

    def max_with(self, other: "DyadicInterval") -> "DyadicInterval":
        """Enclosure of max(x, y) for x in self, y in other."""
        return _trusted(max(self.lo, other.lo), max(self.hi, other.hi))

    def min_with(self, other: "DyadicInterval") -> "DyadicInterval":
        return _trusted(min(self.lo, other.lo), min(self.hi, other.hi))

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi}]"

    @staticmethod
    def sum(items) -> "DyadicInterval":
        items = list(items)
        return _trusted(_exact_sum([it.lo for it in items]), _exact_sum([it.hi for it in items]))


def _trusted(lo: Fraction, hi: Fraction) -> DyadicInterval:
    """DyadicInterval(lo, hi) unchecked, for Fractions with lo <= hi by construction."""
    out = object.__new__(DyadicInterval)
    fields = out.__dict__
    fields["lo"], fields["hi"] = lo, hi
    return out


ZERO_INTERVAL = DyadicInterval.point(0)


def _width_target(k: int) -> Fraction:
    return Fraction(1, 2**k)


def _exact_sum(values: List[Fraction]) -> Fraction:
    """sum(values), exactly: when every denominator is a power of two, as one
    integer over the largest of them, which skips a gcd per addition."""
    dens = [v.denominator for v in values]
    if any(d & (d - 1) for d in dens):
        return sum(values, Fraction(0))
    shift = max(dens, default=1).bit_length()
    total = sum(v.numerator << (shift - d.bit_length()) for v, d in zip(values, dens))
    return Fraction(total, 1 << (shift - 1))


def _padded_norm(lo: Fraction, hi: Fraction, pad: Fraction) -> DyadicInterval:
    """[max(lo - pad, 0), hi + pad] for lo <= hi and pad >= 0, a widened
    norm enclosure; ValueError when even its top is negative."""
    low, top = lo - pad, hi + pad
    if top.numerator < 0:
        raise ValueError(f"inverted interval [0, {top}]")
    return _trusted(low if low.numerator > 0 else Fraction(0), top)


# ---------------------------------------------------------------------------
# mpmath bridge
# ---------------------------------------------------------------------------


def _mpi_from_fraction(q: Fraction, prec: int):
    """The (lo, hi) mpf tuple enclosing q at prec bits, rounded outward
    exactly as from_rational rounds each endpoint."""
    num, den = from_int(q.numerator), from_int(q.denominator)
    return mpf_div(num, den, prec, round_floor), mpf_div(num, den, prec, round_ceiling)


def _fraction_from_mpf(t) -> Fraction:
    """The exact value of an mpf tuple; PrecisionExhaustedError on inf, -inf
    or nan (a zero mantissa with a nonzero exponent), which no bound stands
    for, and on a binary exponent past MAX_EXACT_POWER_BITS either way."""
    sign, man, exp, _ = t
    if not man:
        if exp:
            raise PrecisionExhaustedError("an mpmath enclosure has an infinite or nan endpoint")
        return Fraction(0)
    if abs(exp) >= MAX_EXACT_POWER_BITS:
        raise PrecisionExhaustedError(
            f"an mpmath enclosure endpoint passes MAX_EXACT_POWER_BITS = {MAX_EXACT_POWER_BITS} bits"
        )
    man = -int(man) if sign else int(man)
    return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)


def _interval_from_mpi(x) -> DyadicInterval:
    return _trusted(_fraction_from_mpf(x[0]), _fraction_from_mpf(x[1]))


# ---------------------------------------------------------------------------
# Computable reals
# ---------------------------------------------------------------------------


class CReal:
    """A real given by a rational approximation function with modulus 2**-k.

    The approximator must be pure: the same k always yields the same
    rational (answers are memoized, which also keeps successive queries
    consistent).  No exact comparisons are ever made on CReals; callers
    separate values only "certifiably at precision k".
    """

    def __init__(self, approx: Callable[[int], Fraction], name: str):
        self._approx = approx
        self._memo: dict[int, Fraction] = {}
        self.name = name

    def approx(self, k: int) -> Fraction:
        if k < 0:
            raise ValueError("precision k must be >= 0")
        if k not in self._memo:
            self._memo[k] = _to_fraction(self._approx(k))
        return self._memo[k]

    def enclosure(self, k: int) -> DyadicInterval:
        q = self.approx(k)
        w = _width_target(k)
        return DyadicInterval(q - w, q + w)

    @staticmethod
    def from_fraction(q: RationalLike, name: Optional[str] = None) -> "CReal":
        q = _to_fraction(q)
        return CReal(lambda k: q, name or format_fraction(q))

    @staticmethod
    def from_interval_fn(fn: Callable[[int], DyadicInterval], name: str = "creal") -> "CReal":
        """Wrap a function producing enclosures of width <= 2**-k."""

        def approx(k: int) -> Fraction:
            box = fn(k + 1)
            return box.mid

        return CReal(approx, name)

    @staticmethod
    def sqrt_of_fraction(a: RationalLike) -> "CReal":
        """sqrt(a) for rational a >= 0 via integer square roots (no floats)."""
        a = _to_fraction(a)
        if a < 0:
            raise ValueError("sqrt of a negative rational")

        def box(k: int) -> DyadicInterval:
            # scale so that sqrt(a) = isqrt(a * 4**m) / 2**m, floor version
            m = k + 2
            scaled = a * (4**m)
            root_lo = math.isqrt(scaled.numerator // scaled.denominator)
            lo = Fraction(root_lo, 2**m)
            hi = Fraction(root_lo + 1, 2**m)
            return DyadicInterval(lo, hi)

        return CReal.from_interval_fn(box, f"sqrt({format_fraction(a)})")


# ---------------------------------------------------------------------------
# Exponents
# ---------------------------------------------------------------------------


class PExponent:
    """The exponent p >= 1, exact-rational when possible, CReal otherwise."""

    def __init__(self, value: CReal, exact: Optional[Fraction]):
        self.value = value
        self.exact = exact
        # pow_enclosure's results, keyed by its arguments; open (not None)
        # only inside a shared_powers() block
        self._pow_memo: Optional[Dict[Tuple, DyadicInterval]] = None
        if exact is not None:
            if exact < 1:
                raise ValueError("p must be >= 1")
        else:
            # certify p >= 1 up to the cap; p == 1 exactly must be passed
            # as an exact rational
            def attempt(prec: int) -> Optional[bool]:
                box = value.enclosure(prec)
                if box.hi < 1:
                    raise ValueError("p certified < 1")
                return True if box.lo >= 1 else None

            refine(attempt, 8, what="cannot certify p >= 1; pass an exact rational if p == 1")

    @staticmethod
    def from_fraction(q: RationalLike) -> "PExponent":
        q = _to_fraction(q)
        return PExponent(CReal.from_fraction(q, f"p={format_fraction(q)}"), exact=q)

    @staticmethod
    def from_creal(c: CReal) -> "PExponent":
        return PExponent(c, exact=None)

    def enclosure(self, k: int) -> DyadicInterval:
        if self.exact is not None:
            return DyadicInterval.point(self.exact)
        return self.value.enclosure(k)

    @contextmanager
    def shared_powers(self) -> Iterator[None]:
        """Let pow_enclosure reuse its results for this exponent in the block.

        One certification evaluates the same |x|^p enclosures many times
        over; inside the block each argument tuple is computed once.  The
        memo is dropped when the outermost block exits, normally or by an
        exception, so its size is bounded by one block's work.  A nested
        block shares the outer memo and leaves it open.
        """
        if self._pow_memo is not None:
            yield
            return
        self._pow_memo = {}
        try:
            yield
        finally:
            self._pow_memo = None

    def upper_int(self) -> int:
        """An integer >= max(p, 1): the ceiling of a 2**-2 enclosure's top."""
        hi = self.enclosure(2).hi
        return max(1, -(-hi.numerator // hi.denominator))

    def is_integer(self) -> bool:
        return self.exact is not None and self.exact.denominator == 1

    def side_of_two(self) -> int:
        """-1 if p < 2 certified, +1 if p > 2 certified; PEqualsTwoError otherwise."""
        if self.exact is not None:
            if self.exact == 2:
                raise PEqualsTwoError("p is exactly 2")
            return -1 if self.exact < 2 else 1

        def attempt(prec: int) -> Optional[int]:
            box = self.enclosure(prec)
            return -1 if box.hi < 2 else 1 if box.lo > 2 else None

        what = "p could not be separated from 2 at the working precision cap"
        return refine(attempt, 8, what=what, error=PEqualsTwoError)

    def __str__(self) -> str:
        if self.exact is not None:
            return format_fraction(self.exact)
        return self.value.name


# ---------------------------------------------------------------------------
# Certified powers
# ---------------------------------------------------------------------------


def _exponent_mpi(p: PExponent, num: Fraction, over_p: bool, prec: int):
    """mpf interval for num*p (over_p=False) or num/p (over_p=True) at prec."""
    if p.exact is not None:
        p_mpi = _mpi_from_fraction(p.exact, prec)
    else:
        # translate mpmath bits to a 2**-k enclosure request
        box = p.enclosure(prec)
        p_mpi = (
            from_rational(box.lo.numerator, box.lo.denominator, prec, round_floor),
            from_rational(box.hi.numerator, box.hi.denominator, prec, round_ceiling),
        )
    scale = _mpi_from_fraction(num, prec)
    return mpi_div(scale, p_mpi, prec) if over_p else mpi_mul(scale, p_mpi, prec)


def _int_nth_root_exact(n: int, v: int) -> Optional[int]:
    """The integer v-th root of n if n is a perfect v-th power, else None."""
    if n < 0:
        return None
    if n in (0, 1) or v == 1:
        return n
    if v >= n.bit_length():
        return None  # 1 < n < 2**v, so n lies strictly between 1**v and 2**v
    if v == 2:
        r = math.isqrt(n)
        return r if r * r == n else None
    # integer Newton iteration from an upper seed; converges to floor(n^(1/v))
    r = 1 << (-(-n.bit_length() // v))
    while True:
        nr = ((v - 1) * r + n // r ** (v - 1)) // v
        if nr >= r:
            break
        r = nr
    return r if r**v == n else None


def _exact_power(q: Fraction, n: int) -> Fraction:
    """q**n for n >= 1; PrecisionExhaustedError when it would pass
    MAX_EXACT_POWER_BITS, judged on a lower bound of its bit length."""
    if n * (max(abs(q.numerator), q.denominator).bit_length() - 1) >= MAX_EXACT_POWER_BITS:
        raise PrecisionExhaustedError(
            f"an exact power passes MAX_EXACT_POWER_BITS = {MAX_EXACT_POWER_BITS} bits"
        )
    return q**n


def _fraction_power_exact(base: Fraction, e: Fraction) -> Optional[Fraction]:
    """base**e when the result is rational (perfect root), else None."""
    if e.denominator == 1:
        return _exact_power(base, int(e))
    v = e.denominator
    num_root = _int_nth_root_exact(base.numerator, v)
    if num_root is None:
        return None
    den_root = _int_nth_root_exact(base.denominator, v)
    if den_root is None:
        return None
    return _exact_power(Fraction(num_root, den_root), e.numerator)


def _pow_positive_fraction(base: Fraction, p: PExponent, num: Fraction, over_p: bool, prec: int) -> DyadicInterval:
    """Enclosure of base**e at mpmath precision prec, base > 0, e = num*p or num/p."""
    if p.exact is not None:
        exact = _fraction_power_exact(base, num / p.exact if over_p else num * p.exact)
        if exact is not None:
            return DyadicInterval.point(exact)
    log_b = mpi_log(_mpi_from_fraction(base, prec), prec)
    e = _exponent_mpi(p, num, over_p, prec)
    return _interval_from_mpi(mpi_exp(mpi_mul(e, log_b, prec), prec))


def pow_enclosure(
    base: DyadicInterval,
    p: PExponent,
    k: int,
    *,
    num: Fraction = Fraction(1),
    over_p: bool = False,
) -> DyadicInterval:
    """Certified enclosure of {x**e : x in base}, outward slop <= 2**-k.

    e = num*p (default) or num/p (over_p=True); requires e > 0 and base >= 0,
    where x**e is increasing, so endpoint powers suffice.  A base endpoint
    of 0 maps to 0 exactly.  "Slop" is everything beyond the exact image:
    when base is a point the result has width <= 2**-k; a wide base keeps
    its image width and gains at most 2**-k.  Inside p.shared_powers() a
    repeated argument tuple returns the enclosure computed first.
    """
    num = _to_fraction(num)
    if num.numerator <= 0:
        raise ValueError("exponent multiplier must be positive")
    lo, hi = base.lo, base.hi
    if lo.numerator < 0:
        raise ValueError("pow_enclosure needs a nonnegative base interval")
    memo = p._pow_memo
    if memo is None:
        return _pow_enclosure(base, p, k, num, over_p)
    # integer keys: hashing a Fraction costs a modular inverse
    key = (lo.numerator, lo.denominator, hi.numerator, hi.denominator, k,
           num.numerator, num.denominator, over_p)
    out = memo.get(key)
    if out is None:
        out = memo[key] = _pow_enclosure(base, p, k, num, over_p)
    return out


def _monotone_enclosure(
    base: DyadicInterval,
    k: int,
    endpoint: Callable[[Fraction, int], DyadicInterval],
    what: str,
) -> DyadicInterval:
    """Image of base under an increasing f, slop <= 2**-k, from endpoint(x,
    prec), an enclosure of f(x) at mpmath precision prec.

    The precision starts at max(64, k + GUARD_BITS) and doubles until both
    endpoint enclosures are at most 2**-(k+1) wide; past MAX_WORKING_PREC
    it raises PrecisionExhaustedError(what).
    """
    prec = max(64, k + GUARD_BITS)
    while True:
        lo_box = endpoint(base.lo, prec)
        hi_box = lo_box if base.is_point() else endpoint(base.hi, prec)
        if lo_box.fits(k + 1) and hi_box.fits(k + 1):
            return _trusted(lo_box.lo, hi_box.hi)  # f increasing: lo <= hi
        prec *= 2
        if prec > MAX_WORKING_PREC:
            raise PrecisionExhaustedError(what)


def _pow_enclosure(
    base: DyadicInterval, p: PExponent, k: int, num: Fraction, over_p: bool
) -> DyadicInterval:
    def endpoint(x: Fraction, prec: int) -> DyadicInterval:
        if not x.numerator:
            return ZERO_INTERVAL
        return _pow_positive_fraction(x, p, num, over_p, prec)

    return _monotone_enclosure(
        base,
        k,
        endpoint,
        f"power enclosure slop did not reach 2**-{k} by {MAX_WORKING_PREC} bits",
    )


def abs_pow(z: GaussianRational, p: PExponent, k: int) -> DyadicInterval:
    """Enclosure of |z|**p with width <= 2**-k.

    Exact fast paths: z == 0; integer p with z real; even integer p.
    General path: |z|^p = (|z|^2)^(p/2) = exp((p/2) log |z|^2) with outward
    rounding and adaptive precision.
    """
    if z.is_zero():
        return ZERO_INTERVAL
    if p.is_integer():
        n = int(p.exact)
        if z.im == 0:
            return DyadicInterval.point(_exact_power(abs(z.re), n))
        if n % 2 == 0:
            return DyadicInterval.point(_exact_power(z.abs_sq(), n // 2))
    return pow_enclosure(DyadicInterval.point(z.abs_sq()), p, k, num=Fraction(1, 2))


# ---------------------------------------------------------------------------
# The sigma functionals
# ---------------------------------------------------------------------------


def _signed_sigma1_terms(z: GaussianRational, w: GaussianRational, p: PExponent, kk: int) -> DyadicInterval:
    """2(|z|^p + |w|^p) - (|z-w|^p + |z+w|^p), each power to 2**-kk."""
    a = abs_pow(z, p, kk)
    b = abs_pow(w, p, kk)
    c = abs_pow(z - w, p, kk)
    d = abs_pow(z + w, p, kk)
    return (a + b).scale(2) - (c + d)


def sigma1_scalar(z: GaussianRational, w: GaussianRational, p: PExponent, k: int) -> DyadicInterval:
    """|2(|z|^p + |w|^p) - (|z-w|^p + |z+w|^p)|, width <= 2**-k.

    Vanishes exactly when zw = 0; positive otherwise (for p != 2).
    """

    def attempt(kk: int) -> Optional[DyadicInterval]:
        out = _signed_sigma1_terms(z, w, p, kk).abs()
        return out if out.fits(k) else None

    return refine(attempt, k + 3, what="sigma1 refinement exceeded the precision cap")


def signed_sigma1_scalar(z: GaussianRational, w: GaussianRational, p: PExponent, k: int) -> DyadicInterval:
    """2|z|^p + 2|w|^p - |z+w|^p - |z-w|^p without the absolute value.

    Nonnegative for 1 <= p < 2 and nonpositive for p > 2.
    """

    def attempt(kk: int) -> Optional[DyadicInterval]:
        out = _signed_sigma1_terms(z, w, p, kk)
        return out if out.fits(k) else None

    return refine(attempt, k + 3, what="sigma1 refinement exceeded the precision cap")


def lamperti_denominator(p: PExponent, k: int) -> DyadicInterval:
    """Enclosure of |4 - 2 sqrt(2)^p|, certified away from 0 (else PEqualsTwoError)."""
    side = p.side_of_two()  # raises when p cannot be separated from 2

    def attempt(kk: int) -> Optional[DyadicInterval]:
        two_pow = pow_enclosure(DyadicInterval.point(2), p, kk, num=Fraction(1, 2))
        raw = DyadicInterval.point(4) - two_pow.scale(2)
        box = raw if side < 0 else -raw
        return box if box.lo > 0 and box.fits(k) else None

    # p separated from 2 but the denominator still straddling 0 at the cap
    # cannot happen mathematically, so the error is defensive
    return refine(
        attempt,
        k + 2,
        what="|4 - 2 sqrt(2)^p| could not be separated from 0",
        error=PEqualsTwoError,
    )


def lamperti_constant(p: PExponent, k: int) -> DyadicInterval:
    """c_p = 1 / |4 - 2 sqrt(2)^p|, width <= 2**-k."""

    def attempt(kk: int) -> Optional[DyadicInterval]:
        out = lamperti_denominator(p, kk).reciprocal()
        return out if out.fits(k) else None

    return refine(attempt, k + 2, what="lamperti constant refinement exceeded the cap")


def sigma_scalar(z: GaussianRational, w: GaussianRational, p: PExponent, k: int) -> DyadicInterval:
    """sigma(z, w) = c_p * sigma1(z, w), width <= 2**-k."""

    def attempt(kk: int) -> Optional[DyadicInterval]:
        out = lamperti_constant(p, kk) * sigma1_scalar(z, w, p, kk)
        return out if out.fits(k) else None

    return refine(attempt, k + 3, what="sigma refinement exceeded the precision cap")


def log2_enclosure(box: DyadicInterval, k: int) -> DyadicInterval:
    """Base-2 logarithm of a strictly positive enclosure, slop <= 2**-k."""
    if box.lo <= 0:
        raise ValueError("log2 needs a strictly positive enclosure")

    def endpoint(x: Fraction, prec: int) -> DyadicInterval:
        exact_log = x.numerator.bit_length() - 1
        if x == Fraction(2) ** exact_log:
            return DyadicInterval.point(exact_log)
        if x < 1:
            inv = 1 / x
            exact_log = inv.numerator.bit_length() - 1
            if inv == Fraction(2) ** exact_log:
                return DyadicInterval.point(-exact_log)
        log_x = mpi_log(_mpi_from_fraction(x, prec), prec)
        log_2 = mpi_log(_mpi_from_fraction(Fraction(2), prec), prec)
        return _interval_from_mpi(mpi_div(log_x, log_2, prec))

    return _monotone_enclosure(box, k, endpoint, "log2 enclosure exceeded the precision cap")


# -- trig helpers for the objective -----------------------------------------

_EXACT_COS = {
    Fraction(0): Fraction(1),
    Fraction(1, 2): Fraction(0),
    Fraction(1): Fraction(-1),
    Fraction(3, 2): Fraction(0),
}


def _cos_of_pi_multiple(theta_over_pi: Fraction, prec: int) -> DyadicInterval:
    """Enclosure of cos(theta_over_pi * pi); exact at multiples of pi/2."""
    reduced = theta_over_pi % 2
    if reduced in _EXACT_COS:
        return DyadicInterval.point(_EXACT_COS[reduced])
    theta = mpi_mul(mpi_pi(prec), _mpi_from_fraction(reduced, prec), prec)
    return _interval_from_mpi(mpi_cos(theta, prec))


def lamperti_objective(theta_over_pi: RationalLike, t: RationalLike, p: PExponent, k: int) -> DyadicInterval:
    """The Lamperti minimization objective at theta = (theta_over_pi) * pi.

    For 1 <= p < 2:  2 + 2 t^p - |1 + t e^(i theta)|^p - |1 - t e^(i theta)|^p;
    for p > 2 the negation.  Requires t >= 1; the branch needs p certified
    apart from 2 (PEqualsTwoError otherwise).  Its minimum over
    theta in [0, pi], t >= 1 is |4 - 2 sqrt(2)^p|, attained at (pi/2, 1).
    """
    theta_over_pi = _to_fraction(theta_over_pi)
    t = _to_fraction(t)
    if t < 1:
        raise ValueError("the objective is only defined for t >= 1")
    side = p.side_of_two()

    def attempt(kk: int) -> Optional[DyadicInterval]:
        prec = max(64, kk + GUARD_BITS)
        cos_box = _cos_of_pi_multiple(theta_over_pi, prec)
        # |1 +/- t e^(i theta)|^2 = 1 +/- 2 t cos(theta) + t^2, >= 0
        base_plus = cos_box.scale(2 * t).shift(1 + t * t)
        base_minus = (-cos_box).scale(2 * t).shift(1 + t * t)
        tp = pow_enclosure(DyadicInterval.point(t), p, kk)
        clip = lambda b: DyadicInterval(max(b.lo, Fraction(0)), max(b.hi, Fraction(0)))
        term_plus = pow_enclosure(clip(base_plus), p, kk, num=Fraction(1, 2))
        term_minus = pow_enclosure(clip(base_minus), p, kk, num=Fraction(1, 2))
        out = DyadicInterval.point(2) + tp.scale(2) - term_plus - term_minus
        if side > 0:
            out = -out
        return out if out.fits(k) else None

    return refine(attempt, k + 4, what="objective refinement exceeded the precision cap")
