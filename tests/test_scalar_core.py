"""Scalar layer: exact Gaussian rationals, enclosures, sigma functionals.

Derived expected values are frozen from independent oracles:
  * integer-square-root long division for sqrt(2);
  * mpmath.mp at 60 decimal digits for transcendental constants (a plain
    high-precision evaluator, independent of the interval code under test).
"""

import ast
import inspect
import math
import random
import re
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import iv
from mpmath.libmp import (
    finf,
    fnan,
    fninf,
    from_rational,
    fzero,
    round_ceiling,
    round_floor,
    to_rational,
)

import lpiso
from lpiso.errors import InvalidInputError, PEqualsTwoError, PrecisionExhaustedError
from lpiso.lp_vectors import FinSuppVector
from lpiso.presentations import GenCombo
from lpiso.scalar_core import (
    GAUSS_ZERO,
    GUARD_BITS,
    MAX_DECIMAL_EXPONENT,
    MAX_EXACT_POWER_BITS,
    CReal,
    DyadicInterval,
    GaussianRational,
    PExponent,
    _cos_of_pi_multiple,
    _exact_power,
    _exact_sum,
    _fraction_from_mpf,
    _fraction_power_exact,
    _mpi_from_fraction,
    abs_pow,
    ceil_log2,
    format_fraction,
    lamperti_constant,
    lamperti_objective,
    log2_enclosure,
    parse_fraction,
    pow_enclosure,
    refine,
    sigma1_scalar,
    sigma_scalar,
    signed_sigma1_scalar,
)

P1 = PExponent.from_fraction(1)
P32 = PExponent.from_fraction(Fraction(3, 2))
P3 = PExponent.from_fraction(3)
P4 = PExponent.from_fraction(4)


def rationals(dyadic: bool):
    """Fractions whose denominators are powers of two, or any up to 10**4."""
    dens = st.integers(0, 80).map(lambda b: 1 << b) if dyadic else st.integers(1, 10**4)
    return st.builds(Fraction, st.integers(-(10**9), 10**9), dens)


@st.composite
def intervals(draw):
    lo = draw(rationals(draw(st.booleans())))
    if draw(st.integers(0, 4)) == 0:
        return DyadicInterval.point(lo)
    return DyadicInterval(lo, lo + abs(draw(rationals(draw(st.booleans())))))


class TestIntegerDecisions:
    """Width tests, sums and memo keys decided on the Fractions' integers
    answer what the Fraction comparisons answered."""

    @given(box=intervals(), k=st.integers(0, 120))
    @settings(max_examples=300, deadline=None)
    def test_fits_is_the_width_test(self, box, k):
        assert box.fits(k) == (box.width <= Fraction(1, 2**k))
        assert box.fits(0) == (box.width <= 1)

    @given(base=st.integers(1, 10**4), v=st.integers(2, 30))
    @settings(max_examples=200, deadline=None)
    def test_exact_root_degree_past_the_bit_length(self, base, v):
        # a degree at least the radicand's bit length has no integer root
        # but 1, answered without the Newton step's r**(v-1)
        assert _fraction_power_exact(Fraction(base**v), Fraction(1, v)) == base
        assert _fraction_power_exact(Fraction(base**v + 1), Fraction(1, v)) is None
        assert _fraction_power_exact(Fraction(2), Fraction(1, 10**30)) is None

    def test_fits_at_the_boundary(self):
        for k in (0, 1, 5, 64):
            edge = DyadicInterval(Fraction(1, 3), Fraction(1, 3) + Fraction(1, 2**k))
            assert edge.fits(k) and not edge.fits(k + 1)
            assert DyadicInterval.point(Fraction(-7, 3)).fits(k)

    @given(values=st.lists(st.one_of(rationals(True), rationals(False)), max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_sum_is_the_fraction_sum(self, values):
        assert _exact_sum(values) == sum(values, Fraction(0))
        boxes = [DyadicInterval(v, v + abs(v)) for v in values]
        total = DyadicInterval.sum(iter(boxes))
        assert total.lo == sum((b.lo for b in boxes), Fraction(0))
        assert total.hi == sum((b.hi for b in boxes), Fraction(0))
        assert type(total.lo) is Fraction and type(total.hi) is Fraction

    def test_empty_sum(self):
        assert DyadicInterval.sum([]) == DyadicInterval.point(0)
        assert DyadicInterval.sum(iter(())) == DyadicInterval.point(0)

    def test_spellings_are_equal_and_hash_equal(self):
        half = GaussianRational.of(Fraction(1, 2))
        spellings = [
            (GaussianRational(Fraction(2, 4), Fraction(-6, 3)), GaussianRational.of(half.re, -2)),
            (GaussianRational.of(3), GaussianRational(Fraction(3), Fraction(0))),
            (GaussianRational.of(1, 1) * GaussianRational.of(1, -1), GaussianRational.of(2)),
            (half - half, GAUSS_ZERO),
        ]
        for a, b in spellings:
            assert a == b and hash(a) == hash(b)
            ca, cb = GenCombo({0: a, 3: a}), GenCombo({3: b, 0: b})
            assert ca == cb and hash(ca) == hash(cb)
        assert GaussianRational.of(1, 2) != GaussianRational.of(2, 1)

    def test_memo_serves_both_spellings_from_one_entry(self):
        p = PExponent.from_fraction(Fraction(3, 2))
        spellings = [
            (DyadicInterval(Fraction(2, 4), Fraction(6, 4)), 30, Fraction(2, 2)),
            (DyadicInterval(Fraction(1, 2), Fraction(3, 2)), 30, 1),
            (DyadicInterval(Fraction(1, 2), Fraction(3, 2)), 30, Fraction(1)),
        ]
        direct = pow_enclosure(spellings[0][0], p, 30)
        with p.shared_powers():
            served = [pow_enclosure(box, p, k, num=num) for box, k, num in spellings]
            assert len(p._pow_memo) == 1
        assert all(out is served[0] for out in served) and served[0] == direct


def gauss(re, im=0):
    return GaussianRational.of(Fraction(re), Fraction(im))


def hi_prec_oracle(expr_digits: str, k: int) -> Fraction:
    """Turn a frozen decimal-digit string into a Fraction good to 2**-k."""
    sign = -1 if expr_digits.startswith("-") else 1
    body = expr_digits.lstrip("-")
    intpart, frac = body.split(".")
    q = Fraction(int(intpart)) + Fraction(int(frac), 10 ** len(frac))
    assert 10 ** len(frac) > 2**k, "oracle digits too short for tolerance"
    return sign * q

# frozen from mpmath.mp (dps=60); see docstring
TWO_POW_3_4 = "1.681792830507429086062250952466429790080279987048327540"  # 2^(3/4)
C_1 = "0.853553390593273762200422181052424519642417968844237018294170"  # (2+sqrt 2)/4
C_3 = "0.603553390593273762200422181052424519642417968844237018294170"  # (1+sqrt 2)/4
F1_MID = "1.171572875253809902396622551580603842860656477860817597369510"  # 4-2 sqrt 2
F3_MID = "1.656854249492380195206754896838792314278687501507792533870240"  # 2 sqrt8 - 4


class TestApproxReal:
    def test_zero_constant(self):
        x = CReal.from_fraction(0)
        assert x.approx(10) == 0

    def test_sqrt2_against_long_division(self):
        x = CReal.sqrt_of_fraction(2)
        q = x.approx(4)
        # independent oracle: integer square root of 2 * 10^40
        digits = math.isqrt(2 * 10**40)
        truth = Fraction(digits, 10**20)
        assert abs(q - truth) < Fraction(1, 16) + Fraction(1, 10**18)

    def test_gamma_of_singleton_set(self):
        # gamma = sum over {1} of 2^-k = 1/2
        x = CReal.from_fraction(Fraction(1, 2))
        q = x.approx(3)
        assert abs(q - Fraction(1, 2)) < Fraction(1, 8)

    def test_consistency_between_precisions(self):
        x = CReal.sqrt_of_fraction(5)
        for k in (2, 7, 13):
            for kp in (3, 11):
                assert abs(x.approx(k) - x.approx(kp)) < Fraction(1, 2**k) + Fraction(1, 2**kp)


class TestAbsPow:
    def test_zero(self):
        assert abs_pow(GAUSS_ZERO, P32, 20) == DyadicInterval.point(0)

    def test_integer_power_exact(self):
        box = abs_pow(gauss(2), P3, 20)
        assert box.is_point() and box.lo == 8

    def test_complex_fractional_power(self):
        box = abs_pow(gauss(1, 1), P32, 30)
        truth = hi_prec_oracle(TWO_POW_3_4, 40)
        assert box.contains(truth)
        assert box.width <= Fraction(1, 2**30)

    def test_even_power_of_complex_is_exact(self):
        box = abs_pow(gauss(Fraction(1, 2), Fraction(1, 3)), P4, 10)
        assert box.is_point()
        assert box.lo == (Fraction(1, 4) + Fraction(1, 9)) ** 2

    def test_refinement_is_monotone(self):
        coarse = abs_pow(gauss(3, 2), P32, 8)
        fine = abs_pow(gauss(3, 2), P32, 24)
        assert coarse.encloses(fine)


class TestSigma1:
    def test_vanishes_iff_product_zero(self):
        box = sigma1_scalar(gauss(1), gauss(0), P32, 30)
        assert box.contains(0) and box.width <= Fraction(1, 2**30)

    def test_p1_equal_units(self):
        box = sigma1_scalar(gauss(1), gauss(1), P1, 20)
        assert box.is_point() and box.lo == 2

    def test_p1_quarter(self):
        box = sigma1_scalar(gauss(Fraction(1, 4)), gauss(1), P1, 20)
        assert box.is_point() and box.lo == Fraction(1, 2)

    @given(
        re1=st.integers(-4, 4), im1=st.integers(-4, 4),
        re2=st.integers(-4, 4), im2=st.integers(-4, 4),
    )
    @settings(max_examples=40, deadline=None)
    def test_zero_exactly_on_disjoint_scalars(self, re1, im1, re2, im2):
        z, w = gauss(re1, im1), gauss(re2, im2)
        box = sigma1_scalar(z, w, P32, 35)
        if z.is_zero() or w.is_zero():
            assert box.contains(0)
        else:
            # refinement separates from zero
            refined = sigma1_scalar(z, w, P32, 60)
            assert refined.lo > 0


class TestLampertiConstant:
    def test_p1(self):
        box = lamperti_constant(P1, 30)
        assert box.contains(hi_prec_oracle(C_1, 40))
        assert box.width <= Fraction(1, 2**30)

    def test_p3(self):
        box = lamperti_constant(P3, 30)
        assert box.contains(hi_prec_oracle(C_3, 40))

    def test_p2_rejected(self):
        with pytest.raises(PEqualsTwoError):
            lamperti_constant(PExponent.from_fraction(2), 10)

    def test_creal_p_near_two_rejected(self):
        p = PExponent.from_creal(CReal.from_fraction(2))
        with pytest.raises(PEqualsTwoError):
            lamperti_constant(p, 10)


class TestSigmaScalar:
    def test_disjoint(self):
        box = sigma_scalar(gauss(1), gauss(0), P3, 25)
        assert box.contains(0)

    def test_p1_equal_units(self):
        box = sigma_scalar(gauss(1), gauss(1), P1, 30)
        truth = 2 * hi_prec_oracle(C_1, 40)
        assert box.contains(truth)

    def test_p1_quarter_below_half(self):
        # the distance-bound counterexample needs 2*sigma(x, 1) < 1 at x = 1/4
        box = sigma_scalar(gauss(Fraction(1, 4)), gauss(1), P1, 30)
        assert box.hi * 2 < 1
        assert box.contains(hi_prec_oracle(C_1, 40) / 2)


class TestLampertiObjective:
    def test_p1_theta0_t1(self):
        box = lamperti_objective(0, 1, P1, 20)
        assert box.is_point() and box.lo == 2

    def test_p1_mid_angle(self):
        box = lamperti_objective(Fraction(1, 2), 1, P1, 30)
        assert box.contains(hi_prec_oracle(F1_MID, 40))

    def test_p3_mid_angle(self):
        box = lamperti_objective(Fraction(1, 2), 1, P3, 30)
        assert box.contains(hi_prec_oracle(F3_MID, 40))

    def test_t_below_one_rejected(self):
        with pytest.raises(ValueError):
            lamperti_objective(0, Fraction(1, 2), P1, 10)

    def test_p2_rejected(self):
        with pytest.raises(PEqualsTwoError):
            lamperti_objective(0, 1, PExponent.from_fraction(2), 10)


@st.composite
def gaussian_rationals(draw):
    num = st.integers(-8, 8)
    den = st.integers(1, 6)
    return GaussianRational.of(
        Fraction(draw(num), draw(den)), Fraction(draw(num), draw(den))
    )


class TestLampertiInequality:
    """min{|z|^p, |w|^p} <= sigma(z, w) plus the per-branch sign claim."""

    @given(z=gaussian_rationals(), w=gaussian_rationals())
    @settings(max_examples=30, deadline=None)
    def test_min_below_sigma(self, z, w):
        for p in (P1, P32, P3, P4):
            s = sigma_scalar(z, w, p, 40)
            m = abs_pow(z, p, 40).min_with(abs_pow(w, p, 40))
            assert m.lo <= s.hi + Fraction(1, 2**38)

    @given(z=gaussian_rationals(), w=gaussian_rationals())
    @settings(max_examples=30, deadline=None)
    def test_sign_claim(self, z, w):
        for p in (P1, P32):
            box = signed_sigma1_scalar(z, w, p, 40)
            assert box.hi >= 0  # never strictly below zero
        for p in (P3, P4):
            box = signed_sigma1_scalar(z, w, p, 40)
            assert box.lo <= 0


class TestIntervalBasics:
    def test_outward_containment_through_arithmetic(self):
        a = DyadicInterval(Fraction(1, 3), Fraction(1, 2))
        b = DyadicInterval(Fraction(-1, 7), Fraction(2, 7))
        assert (a + b).contains(Fraction(1, 3) + Fraction(-1, 7))
        assert (a * b).contains(Fraction(1, 2) * Fraction(2, 7))
        assert (a - b).contains(Fraction(1, 3) - Fraction(2, 7))

    def test_reciprocal_needs_separation(self):
        with pytest.raises(ZeroDivisionError):
            DyadicInterval(-1, 1).reciprocal()

    def test_pow_enclosure_monotone_in_k(self):
        base = DyadicInterval.point(Fraction(7, 5))
        coarse = pow_enclosure(base, P32, 10)
        fine = pow_enclosure(base, P32, 30)
        assert coarse.encloses(fine)

    def test_parse_roundtrip(self):
        for text in ("1/1", "-1/2+1/2i", "i", "-i", "2i", "1/4-3i", "0"):
            z = GaussianRational.parse(text)
            again = GaussianRational.parse(str(z))
            assert z == again


    def test_mid_of_a_point_is_its_endpoint(self):
        q = Fraction(-7, 3)
        assert DyadicInterval.point(q).mid == q
        assert DyadicInterval(q, 1).mid == Fraction(-2, 3)


class TestParseFraction:
    @pytest.mark.parametrize(
        "text, value",
        [
            ("1e2466", Fraction(10**2466)),
            ("1E-2466", Fraction(1, 10**2466)),
            ("-2.5e+2466", Fraction(-25 * 10**2465)),
            ("1_0e1_0", Fraction(10**11)),
            (" \u22127/4 ", Fraction(-7, 4)),
            ("0.125", Fraction(1, 8)),
        ],
    )
    def test_literals_at_the_bound_parse(self, text, value):
        assert MAX_DECIMAL_EXPONENT == 2466
        assert parse_fraction(text) == value

    @pytest.mark.parametrize("text", ["1e2467", "1E-2467", "2.5e+5000", "1e-0002467", "7e3_000"])
    def test_exponent_past_the_bound_is_refused(self, text):
        # checked on the text: Fraction would build 10**exponent first
        with pytest.raises(ValueError, match=f"past {MAX_DECIMAL_EXPONENT}"):
            parse_fraction(text)

    @pytest.mark.parametrize("text", ["e5", "1e", "1e+", "1/0", "abc"])
    def test_malformed_literals_still_refused(self, text):
        with pytest.raises(ValueError):
            parse_fraction(text)


def _magnitude(whole: int, decimals: str, exponent) -> tuple:
    """(text, value) of a nonnegative decimal literal such as '25', '2.05'
    or '2.05e-3'; exponent None writes none."""
    text = f"{whole}.{decimals}" if decimals else str(whole)
    value = whole + Fraction(int(decimals or "0"), 10 ** len(decimals))
    if exponent is None:
        return text, value
    return f"{text}e{exponent}", value * Fraction(10) ** exponent


_MAGNITUDES = st.one_of(
    st.fractions(min_value=0, max_value=1000, max_denominator=1000).map(lambda q: (str(q), q)),
    st.builds(
        _magnitude,
        st.integers(0, 10**6),
        st.text(alphabet="0123456789", max_size=3),
        st.one_of(st.none(), st.integers(-40, 40)),
    ),
)


class TestGaussianParse:
    @pytest.mark.parametrize(
        "text, re, im",
        [
            ("1e-5i", Fraction(0), Fraction(1, 10**5)),
            ("1/2+3e-2i", Fraction(1, 2), Fraction(3, 100)),
            ("-1e-3-2e-4i", Fraction(-1, 1000), Fraction(-2, 10**4)),
        ],
    )
    def test_imaginary_part_with_a_negative_exponent(self, text, re, im):
        # the exponent's sign used to be taken for the split
        assert GaussianRational.parse(text) == GaussianRational(re, im)

    @pytest.mark.parametrize(
        "text", ["1e2467i", "1e-2467+1i", "1+1e-2467i", "-1/2-2.5E+5000i", "1e-3-7e2467i"]
    )
    def test_each_part_is_held_to_the_exponent_bound(self, text):
        with pytest.raises(ValueError, match=f"past {MAX_DECIMAL_EXPONENT}"):
            GaussianRational.parse(text)

    @settings(max_examples=200, deadline=None)
    @given(
        re=_MAGNITUDES,
        im=_MAGNITUDES,
        re_sign=st.sampled_from(["", "-"]),
        im_sign=st.sampled_from(["+", "-"]),
        with_re=st.booleans(),
    )
    def test_round_trip(self, re, im, re_sign, im_sign, with_re):
        (re_text, re_value), (im_text, im_value) = re, im
        re_value = -re_value if re_sign else re_value
        im_value = -im_value if im_sign == "-" else im_value
        text = f"{re_sign}{re_text}{im_sign}{im_text}i" if with_re else f"{im_sign}{im_text}i"
        z = GaussianRational.parse(text)
        assert z == GaussianRational(re_value if with_re else Fraction(0), im_value)
        assert GaussianRational.parse(str(z)) == z


class TestIrrationalExponent:
    """Nothing may assume the exponent has a rational fast path."""

    def setup_method(self):
        half_sqrt2 = CReal.sqrt_of_fraction(Fraction(1, 2))
        self.p = PExponent.from_creal(
            CReal(lambda k: 1 + half_sqrt2.approx(k), "1+sqrt(1/2)")
        )

    def test_certified_below_two(self):
        assert self.p.side_of_two() == -1

    @staticmethod
    def tried(value):
        """The precisions at which value's enclosure is read."""
        seen = []
        inner = value.enclosure

        def spy(k):
            seen.append(k)
            return inner(k)

        value.enclosure = spy
        return seen

    def test_certified_below_one_rejected(self):
        with pytest.raises(ValueError, match="^p certified < 1$"):
            PExponent.from_creal(CReal.from_fraction(Fraction(1, 2)))

    def test_exactly_one_needs_an_exact_rational(self):
        one = CReal.from_fraction(1)
        seen = self.tried(one)
        with pytest.raises(PrecisionExhaustedError, match="pass an exact rational"):
            PExponent.from_creal(one)
        # refine's default schedule from 8 bits, up to the working cap
        assert seen[0] == 8 and seen[-1] == 7749

    def test_certified_above_two(self):
        assert PExponent.from_creal(CReal.from_fraction(3)).side_of_two() == 1

    def test_exactly_two_not_separated(self):
        p = PExponent.from_creal(CReal.from_fraction(2))
        seen = self.tried(p.value)
        with pytest.raises(PEqualsTwoError, match="working precision cap"):
            p.side_of_two()
        assert seen[0] == 8 and seen[-1] == 7749

    def test_abs_pow_and_sigma(self):
        z = GaussianRational.of(Fraction(3, 2), Fraction(-1, 3))
        w = GaussianRational.of(Fraction(1, 4))
        box = abs_pow(z, self.p, 30)
        assert box.width <= Fraction(1, 2**30) and box.lo > 0
        s = sigma_scalar(z, w, self.p, 25)
        assert s.width <= Fraction(1, 2**25)
        m = abs_pow(z, self.p, 30).min_with(abs_pow(w, self.p, 30))
        assert m.lo <= s.hi + Fraction(1, 2**23)  # the inequality still certifies

    def test_enclosure_monotone(self):
        z = GaussianRational.of(Fraction(7, 5), Fraction(2, 9))
        assert abs_pow(z, self.p, 10).encloses(abs_pow(z, self.p, 26))


class TestRefine:
    @staticmethod
    def tried(start, misses):
        seen = []

        def attempt(kk):
            seen.append(kk)
            return kk if len(seen) > misses else None

        assert refine(attempt, start, what="x") == seen[-1]
        return seen

    def test_precision_sequence(self):
        # grows by max(4, kk // 2): +4 steps at low precision, then x1.5
        assert self.tried(1, 5) == [1, 5, 9, 13, 19, 28]
        assert self.tried(10, 3) == [10, 15, 22, 33]
        assert self.tried(23, 0) == [23]

    def test_returns_first_accepted_value(self):
        assert refine(lambda kk: kk if kk >= 20 else None, 10, what="x") == 22
        # falsy answers are answers: only None asks for more precision
        assert refine(lambda kk: False, 7, what="x") is False
        assert refine(lambda kk: Fraction(0), 7, what="x") == 0

    def test_cap_raises_with_the_site_message(self):
        seen = []
        with pytest.raises(PrecisionExhaustedError, match="^the site's message$"):
            refine(lambda kk: seen.append(kk), 40, what="the site's message", cap=90)
        assert seen == [40, 60, 90]  # the cap itself is still tried
        with pytest.raises(PEqualsTwoError, match="^apart$"):
            refine(lambda kk: None, 40, what="apart", cap=100, error=PEqualsTwoError)

    def test_default_cap_is_the_working_cap(self):
        seen = []
        with pytest.raises(PrecisionExhaustedError):
            refine(lambda kk: seen.append(kk), 3000, what="x")
        assert seen == [3000, 4500, 6750]

    def test_schedule_lives_only_in_refine(self):
        """Every adaptive-refinement loop goes through refine: the
        max(4, k // 2) growth step appears nowhere else in the package."""
        lines, start = inspect.getsourcelines(refine)
        inside = range(start, start + len(lines))
        step = re.compile(r"(\w+)\s*(\+=|=\s*\1\s*\+)\s*max\(\s*4\s*,\s*\1\s*//\s*2\s*\)")
        stray = []
        for path in sorted(Path(lpiso.__file__).parent.glob("*.py")):
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                if step.search(line) and not (
                    path.name == "scalar_core.py" and lineno in inside
                ):
                    stray.append(f"{path.name}:{lineno}")
        assert stray == []

    #: the loops that still double their precision by hand; each one's
    #: precision reaches report bytes, so moving it onto refine's schedule
    #: would move them
    DOUBLING_LOOPS = {
        ("scalar_core.py", "_monotone_enclosure"): "every power and log2 endpoint",
        ("presentations.py", "_root_one_minus_gamma"): "f_0's entries and the scale target",
        ("iso_cli.py", "_normalize"): "the unit scale's bits, so each unit's approximations",
    }

    def test_precision_doubling_only_where_it_reaches_reports(self):
        """A loop that doubles its precision (``x *= 2``) outside the named
        functions belongs on refine's schedule."""
        found = set()
        for path in sorted(Path(lpiso.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text())
            for fn in ast.walk(tree):
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                for loop in ast.walk(fn):
                    if not isinstance(loop, (ast.While, ast.For)):
                        continue
                    if any(
                        isinstance(node, ast.AugAssign)
                        and isinstance(node.op, ast.Mult)
                        and isinstance(node.value, ast.Constant)
                        and node.value.value == 2
                        for node in ast.walk(loop)
                    ):
                        found.add((path.name, fn.name))
        assert found == set(self.DOUBLING_LOOPS)


class TestCeilLog2:
    """ceil_log2 replaced four counting loops; each loop is kept here as the
    reference it must match exactly."""

    @staticmethod
    def loop_pow2_at_least(q):  # over_norm_of, recover_scale_from_atom
        b = 0
        while Fraction(2) ** b < q:
            b += 1
        return b

    @staticmethod
    def loop_bits_for(tol):  # presentations.bits_for
        k = 0
        while Fraction(1, 2**k) > tol:
            k += 1
        return k

    @staticmethod
    def loop_entry_bound_bits(z):  # presentations._entry_bound_bits
        sq = z.abs_sq()
        b = 0
        while Fraction(4) ** b < sq:
            b += 1
        return b

    @staticmethod
    def fractions():
        rng = random.Random(20231)
        out = [Fraction(0), Fraction(1)]
        for e in range(-40, 41):
            two = Fraction(2) ** e
            out += [two, two + Fraction(1, 2**60), two - Fraction(1, 2**60)]
        for _ in range(6000):
            num = rng.getrandbits(rng.randint(1, 64)) + 1
            den = rng.getrandbits(rng.randint(1, 64)) + 1
            out.append(Fraction(num, den))
        return [q for q in out if q >= 0]

    def test_matches_the_loops(self):
        from lpiso.presentations import _entry_bound_bits, bits_for

        for q in self.fractions():
            assert ceil_log2(q) == self.loop_pow2_at_least(q), q
            if q > 0:
                assert bits_for(q) == self.loop_bits_for(q), q
            z = GaussianRational.of(q, q / 3)
            assert _entry_bound_bits(z) == self.loop_entry_bound_bits(z), z
            z = GaussianRational.of(0, -q)
            assert _entry_bound_bits(z) == self.loop_entry_bound_bits(z), z

    def test_small_values(self):
        assert [ceil_log2(q) for q in (-3, 0, Fraction(1, 2), 1, 2, 3, 4, 5)] == [
            0, 0, 0, 0, 1, 2, 2, 3,
        ]
        assert ceil_log2(Fraction(2**70 + 1, 2)) == 70


class TestGaussianDivision:
    """z / w is the one place that divides Gaussian rationals."""

    @staticmethod
    def random_gauss(rng, nonzero=False):
        while True:
            z = gauss(
                Fraction(rng.randint(-40, 40), rng.randint(1, 12)),
                Fraction(rng.randint(-40, 40), rng.randint(1, 12)),
            )
            if not (nonzero and z.is_zero()):
                return z

    def test_matches_the_conjugate_formula_and_inverts_multiplication(self):
        rng = random.Random(20261018)
        for _ in range(500):
            z = self.random_gauss(rng)
            w = self.random_gauss(rng, nonzero=True)
            q = z / w
            assert q == z * w.conj().scale(1 / w.abs_sq())
            assert q * w == z

    def test_real_and_imaginary_divisors(self):
        assert gauss(1, 2) / gauss(0, 1) == gauss(2, -1)
        assert gauss(3, -6) / gauss(3) == gauss(1, -2)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            gauss(1, 1) / GAUSS_ZERO


class TestSharedPowers:
    """Inside p.shared_powers() pow_enclosure returns what it returns outside."""

    @staticmethod
    def exponents():
        half_sqrt2 = CReal.sqrt_of_fraction(Fraction(1, 2))
        irrational = PExponent.from_creal(
            CReal(lambda k: 1 + half_sqrt2.approx(k), "1+sqrt(1/2)")
        )
        exact = [
            PExponent.from_fraction(q)
            for q in (1, Fraction(5, 4), Fraction(3, 2), 3, Fraction(7, 3))
        ]
        return exact + [irrational]

    @staticmethod
    def random_base(rng):
        q = lambda: Fraction(rng.randint(0, 400), rng.randint(1, 64))
        kind = rng.randrange(4)
        if kind == 0:
            return DyadicInterval.point(q())
        if kind == 1:
            lo, hi = sorted((q(), q()))
            return DyadicInterval(lo, hi)
        if kind == 2:
            return DyadicInterval(Fraction(0), q())
        return DyadicInterval.point(0)

    def test_memo_matches_direct_enclosures(self):
        rng = random.Random(7)
        for p in self.exponents():
            # a small pool of tuples, drawn with repeats so the memo is hit
            pool = [
                (
                    self.random_base(rng),
                    rng.randint(8, 200),
                    rng.choice((Fraction(1), Fraction(1, 2))),
                    rng.random() < 0.5,
                )
                for _ in range(25)
            ]
            calls = [rng.choice(pool) for _ in range(60)]
            direct = [pow_enclosure(b, p, k, num=num, over_p=o) for b, k, num, o in calls]
            with p.shared_powers():
                shared = [pow_enclosure(b, p, k, num=num, over_p=o) for b, k, num, o in calls]
                assert len(p._pow_memo) == len(
                    {(b.lo, b.hi, k, num, o) for b, k, num, o in calls}
                )
            assert shared == direct
            assert p._pow_memo is None

    def test_memo_dropped_after_block(self):
        p = PExponent.from_fraction(Fraction(3, 2))
        assert p._pow_memo is None
        with p.shared_powers():
            pow_enclosure(DyadicInterval.point(3), p, 30)
            assert len(p._pow_memo) == 1
        assert p._pow_memo is None

    def test_memo_dropped_after_error(self):
        p = PExponent.from_fraction(Fraction(3, 2))
        with pytest.raises(PrecisionExhaustedError):
            with p.shared_powers():
                pow_enclosure(DyadicInterval.point(3), p, 30)
                raise PrecisionExhaustedError("raised inside the block")
        assert p._pow_memo is None

    def test_nested_block_shares_the_outer_memo(self):
        p = PExponent.from_fraction(Fraction(3, 2))
        with p.shared_powers():
            outer = p._pow_memo
            pow_enclosure(DyadicInterval.point(3), p, 30)
            with p.shared_powers():
                assert p._pow_memo is outer
                pow_enclosure(DyadicInterval.point(5), p, 30)
            assert p._pow_memo is outer and len(outer) == 2
        assert p._pow_memo is None


# -- the mpmath interval context, as the kernel called it before it moved onto
# raw libmpi tuples: the reference the identity guard measures against -------


@contextmanager
def iv_prec(prec):
    saved = iv.prec
    iv.prec = prec
    try:
        yield
    finally:
        iv.prec = saved


def iv_from_fraction(q, prec):
    lo = from_rational(q.numerator, q.denominator, prec, round_floor)
    hi = from_rational(q.numerator, q.denominator, prec, round_ceiling)
    return iv.make_mpf((lo, hi))


def iv_endpoints(x):
    return tuple(Fraction(*(int(v) for v in to_rational(t))) for t in x._mpi_)


def iv_pow_endpoint(x, p, num, over_p, prec):
    if x == 0:
        return (Fraction(0), Fraction(0))
    if p.exact is not None:
        exact = _fraction_power_exact(x, num / p.exact if over_p else num * p.exact)
        if exact is not None:
            return (exact, exact)
    with iv_prec(prec):
        scale = iv_from_fraction(num, prec)
        if p.exact is not None:
            p_iv = iv_from_fraction(p.exact, prec)
        else:
            box = p.enclosure(prec)
            p_iv = iv.make_mpf((
                from_rational(box.lo.numerator, box.lo.denominator, prec, round_floor),
                from_rational(box.hi.numerator, box.hi.denominator, prec, round_ceiling),
            ))
        e = scale / p_iv if over_p else scale * p_iv
        return iv_endpoints(iv.exp(e * iv.log(iv_from_fraction(x, prec))))


def iv_log2_endpoint(x, prec):
    for sign, y in ((1, x), (-1, 1 / x)):
        if y.denominator == 1 and y.numerator & (y.numerator - 1) == 0:
            return (sign * (y.numerator.bit_length() - 1),) * 2
    with iv_prec(prec):
        return iv_endpoints(iv.log(iv_from_fraction(x, prec)) / iv.log(iv.mpf(2)))


def iv_monotone(base, k, endpoint):
    """The image endpoints at the first precision where both are 2**-(k+1) tight."""
    prec = max(64, k + GUARD_BITS)
    while True:
        lo, hi = endpoint(base.lo, prec), endpoint(base.hi, prec)
        if max(lo[1] - lo[0], hi[1] - hi[0]) <= Fraction(1, 2 ** (k + 1)):
            return (lo[0], hi[1])
        prec *= 2


def irrational_exponent(root_of):
    root = CReal.sqrt_of_fraction(root_of)
    return PExponent.from_creal(CReal(lambda k: 1 + root.approx(k), f"1+sqrt({root_of})"))


class TestKernelMatchesIvContext:
    """The libmpi kernel returns the endpoints mpmath's iv context returned.

    pyproject allows any mpmath >= 1.3; a release whose iv context stops
    calling the libmpi functions the kernel calls fails here."""

    EXPONENTS = [
        PExponent.from_fraction(q) for q in (1, Fraction(5, 4), Fraction(3, 2), 3, Fraction(7, 3))
    ] + [irrational_exponent(Fraction(1, 2))]

    def test_pow_enclosure(self):
        rng = random.Random(17)
        checked = 0
        for p in self.EXPONENTS:
            for num in (Fraction(1), Fraction(1, 2), Fraction(2)):
                for over_p in (False, True):
                    for k in (0, 10, 40, 200):
                        lo = Fraction(rng.randint(1, 10**12), rng.randint(1, 10**12))
                        for base in (
                            DyadicInterval.point(lo),
                            DyadicInterval(lo, lo + Fraction(rng.randint(1, 99), 100)),
                            DyadicInterval(Fraction(0), lo),
                            DyadicInterval.point(Fraction(9, 4)),
                        ):
                            out = pow_enclosure(base, p, k, num=num, over_p=over_p)
                            ref = iv_monotone(
                                base, k, lambda x, prec: iv_pow_endpoint(x, p, num, over_p, prec)
                            )
                            assert (out.lo, out.hi) == ref
                            checked += 1
        assert checked == 6 * 3 * 2 * 4 * 4

    def test_log2_enclosure(self):
        rng = random.Random(29)
        for k in (0, 10, 40, 200):
            for _ in range(10):
                lo = Fraction(rng.randint(1, 10**9), rng.randint(1, 10**9))
                for box in (DyadicInterval.point(lo), DyadicInterval(lo, 2 * lo + 1)):
                    out = log2_enclosure(box, k)
                    assert (out.lo, out.hi) == iv_monotone(box, k, iv_log2_endpoint)

    def test_cos_of_pi_multiple(self):
        rng = random.Random(31)
        for prec in (64, 100, 257, 1024):
            for _ in range(20):
                theta = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
                reduced = theta % 2
                if reduced in (0, Fraction(1, 2), 1, Fraction(3, 2)):
                    continue
                with iv_prec(prec):
                    ref = iv_endpoints(iv.cos(iv.pi * iv_from_fraction(reduced, prec)))
                out = _cos_of_pi_multiple(theta, prec)
                assert (out.lo, out.hi) == ref


class TestMpfBridge:
    def test_special_values_raise(self):
        # to_rational reads inf as (0, 2**456), a finite and wrong bound
        for special in (finf, fninf, fnan):
            with pytest.raises(PrecisionExhaustedError):
                _fraction_from_mpf(special)

    def test_finite_values_are_exact(self):
        assert _fraction_from_mpf(fzero) == 0
        for q in (Fraction(3, 8), Fraction(-5, 1024), Fraction(96), Fraction(-7)):
            lo, hi = _mpi_from_fraction(q, 64)
            assert lo == hi and _fraction_from_mpf(lo) == q
        lo, hi = _mpi_from_fraction(Fraction(1, 3), 64)
        assert _fraction_from_mpf(lo) < Fraction(1, 3) < _fraction_from_mpf(hi)


def _valid_interval(rng):
    lo = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
    return DyadicInterval(lo, lo + Fraction(rng.randint(0, 10**6), rng.randint(1, 10**4)))


class TestTrustedResults:
    """Operations that skip the constructor's checks still return Fraction
    endpoints with lo <= hi."""

    @staticmethod
    def assert_valid(box):
        assert type(box) is DyadicInterval
        assert type(box.lo) is Fraction and type(box.hi) is Fraction
        assert box.lo <= box.hi
        assert box == DyadicInterval(box.lo, box.hi)

    def test_operations_on_random_intervals(self):
        rng = random.Random(43)
        for _ in range(300):
            a, b = _valid_interval(rng), _valid_interval(rng)
            q = Fraction(rng.randint(-50, 50), rng.randint(1, 7))
            n = rng.randint(-5, 5)
            results = [
                a + b, a - b, -a, a * b, a.scale(q), a.scale(n), a.shift(q), a.shift(n),
                a.abs(), a.min_with(b), a.max_with(b),
                DyadicInterval.sum([a, b, a]), DyadicInterval.sum([]),
            ]
            if a.separated_from_zero():
                results.append(a.reciprocal())
            for box in results:
                self.assert_valid(box)

    def test_kernel_results(self):
        p = PExponent.from_fraction(Fraction(5, 4))
        self.assert_valid(pow_enclosure(DyadicInterval(Fraction(1, 3), 5), p, 30))
        self.assert_valid(log2_enclosure(DyadicInterval(Fraction(1, 3), 5), 30))
        self.assert_valid(_cos_of_pi_multiple(Fraction(1, 3), 64))

    def test_gaussian_results(self):
        a, b = GaussianRational.of(Fraction(1, 3), -2), GaussianRational.of(5, Fraction(7, 2))
        for z in (a + b, a - b, -a, a * b, a / b, a.scale(3), a.conj(),
                  GAUSS_ZERO, GaussianRational.one()):
            assert type(z.re) is Fraction and type(z.im) is Fraction
            assert z == GaussianRational(z.re, z.im)

    def test_constructor_still_checks(self):
        with pytest.raises(ValueError):
            DyadicInterval(2, 1)
        with pytest.raises(ValueError):
            DyadicInterval(1, 0)
        with pytest.raises(TypeError):
            GaussianRational(0.5, 0)
        with pytest.raises(TypeError):
            GaussianRational.of(0, 0.5)
        with pytest.raises(TypeError):
            DyadicInterval(0.5, 1)
        with pytest.raises(ValueError):
            DyadicInterval(Fraction(1, 2), Fraction(1, 3))
        with pytest.raises(TypeError):
            DyadicInterval.point(0.5)


_PARTS = st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(1, 10**3))
_NONZERO_PARTS = _PARTS.filter(lambda q: q != 0)


@st.composite
def lane_gaussians(draw):
    """Real, imaginary, complex or zero Gaussian rationals, with the zero
    parts built by every constructor the program uses."""
    kind = draw(st.sampled_from(["real", "imaginary", "complex", "zero"]))
    re = draw(_NONZERO_PARTS) if kind in ("real", "complex") else Fraction(0)
    im = draw(_NONZERO_PARTS) if kind in ("imaginary", "complex") else Fraction(0)
    return draw(
        st.sampled_from(
            [GaussianRational(re, im), GaussianRational.of(re, im), GaussianRational.parse(str(GaussianRational(re, im)))]
        )
    )


@st.composite
def lane_intervals(draw):
    """Points as point() builds them (lo is hi), equal endpoints held by two
    objects, and wide intervals."""
    lo = draw(_PARTS)
    kind = draw(st.sampled_from(["point", "equal", "wide"]))
    if kind == "point":
        return DyadicInterval.point(lo)
    if kind == "equal":
        return DyadicInterval(lo, Fraction(lo.numerator, lo.denominator))
    return DyadicInterval(lo, lo + abs(draw(_NONZERO_PARTS)))


class TestScalarLanes:
    """The real lane of GaussianRational and the point lane of
    DyadicInterval return the general formula's values, component for
    component and endpoint for endpoint, and point results stay points."""

    @staticmethod
    def assert_gauss(z, re, im):
        assert type(z) is GaussianRational
        assert type(z.re) is Fraction and type(z.im) is Fraction
        assert (z.re, z.im) == (re, im)

    @settings(max_examples=300, deadline=None)
    @given(a=lane_gaussians(), b=lane_gaussians(), q=_PARTS)
    def test_gaussian_lanes_match_the_general_formula(self, a, b, q):
        self.assert_gauss(a * b, a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re)
        self.assert_gauss(a + b, a.re + b.re, a.im + b.im)
        self.assert_gauss(a - b, a.re - b.re, a.im - b.im)
        self.assert_gauss(-a, -a.re, -a.im)
        self.assert_gauss(a.conj(), a.re, -a.im)
        self.assert_gauss(a.scale(q), a.re * q, a.im * q)
        assert a.abs_sq() == a.re * a.re + a.im * a.im
        assert type(a.abs_sq()) is Fraction
        if not b.is_zero():
            quotient = a / b
            assert quotient * b == a

    @settings(max_examples=100, deadline=None)
    @given(a=_PARTS, b=_PARTS)
    def test_real_times_real_stays_real(self, a, b):
        z = GaussianRational.of(a) * GaussianRational.of(b)
        assert z.im == 0 and z.re == a * b
        assert (GaussianRational.of(a) + GaussianRational.of(b)).im == 0
        assert GaussianRational.of(a).conj().im == 0

    def test_zero_is_shared(self):
        assert GAUSS_ZERO.is_zero() and type(GAUSS_ZERO.re) is Fraction
        assert FinSuppVector({3: GaussianRational.of(1)})[0] is GAUSS_ZERO

    @staticmethod
    def assert_interval(box, lo, hi):
        assert type(box) is DyadicInterval
        assert type(box.lo) is Fraction and type(box.hi) is Fraction
        assert (box.lo, box.hi) == (lo, hi)

    @settings(max_examples=300, deadline=None)
    @given(a=lane_intervals(), b=lane_intervals(), q=_PARTS)
    def test_interval_lanes_match_the_general_formula(self, a, b, q):
        products = (a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi)
        self.assert_interval(a * b, min(products), max(products))
        self.assert_interval(a + b, a.lo + b.lo, a.hi + b.hi)
        self.assert_interval(a - b, a.lo - b.hi, a.hi - b.lo)
        self.assert_interval(-a, -a.hi, -a.lo)
        self.assert_interval(a.scale(q), min(a.lo * q, a.hi * q), max(a.lo * q, a.hi * q))
        self.assert_interval(a.shift(q), a.lo + q, a.hi + q)
        if a.separated_from_zero():
            self.assert_interval(a.reciprocal(), 1 / a.hi, 1 / a.lo)
        # a point (by either construction) keeps being a point
        if a.is_point() and b.is_point():
            for box in (a * b, a + b, a - b, -a, a.scale(q), a.shift(q)):
                assert box.is_point()

    @settings(max_examples=100, deadline=None)
    @given(a=_PARTS, b=_NONZERO_PARTS, q=_PARTS)
    def test_point_results_stay_on_the_lane(self, a, b, q):
        x, y = DyadicInterval.point(a), DyadicInterval.point(b)
        results = [x + y, x - y, -x, x * y, x.scale(q), x.scale(3), y.reciprocal()]
        # chained point arithmetic, as in the sigma1 terms
        results.append((x + y).scale(2) - (x * y + y.reciprocal()))
        for box in results:
            assert box.lo is box.hi

    def test_point_reciprocal_of_zero_still_raises(self):
        with pytest.raises(ZeroDivisionError):
            DyadicInterval.point(0).reciprocal()


class TestExactPowerBound:
    """Exact powers and mpmath endpoints past MAX_EXACT_POWER_BITS are
    refused before they are built; figures past Python's int-to-str limit
    are a typed error."""

    HUGE = PExponent.from_fraction(10**2466)

    def test_huge_integer_exponent_is_refused_at_once(self):
        for z in (gauss(2), gauss(Fraction(1, 3)), gauss(1, 1)):
            with pytest.raises(PrecisionExhaustedError, match="MAX_EXACT_POWER_BITS"):
                abs_pow(z, self.HUGE, 10)

    def test_unit_modulus_still_exact(self):
        assert abs_pow(gauss(-1), self.HUGE, 10) == DyadicInterval.point(1)

    def test_odd_huge_exponent_mpmath_endpoint_is_refused(self):
        p = PExponent.from_fraction(10**2466 + 1)
        with pytest.raises(PrecisionExhaustedError, match="MAX_EXACT_POWER_BITS"):
            abs_pow(gauss(1, 1), p, 10)

    def test_bound_is_judged_on_a_lower_bound_of_the_bit_length(self):
        n = MAX_EXACT_POWER_BITS - 1
        assert _exact_power(Fraction(2), n) == 2**n
        with pytest.raises(PrecisionExhaustedError):
            _exact_power(Fraction(2), MAX_EXACT_POWER_BITS)
        with pytest.raises(PrecisionExhaustedError):
            _exact_power(Fraction(1, 2), MAX_EXACT_POWER_BITS)
        assert _exact_power(Fraction(1), 10**2466) == 1

    def test_mpf_exponent_past_the_bound(self):
        with pytest.raises(PrecisionExhaustedError, match="MAX_EXACT_POWER_BITS"):
            _fraction_from_mpf((0, 1, MAX_EXACT_POWER_BITS, 1))
        with pytest.raises(PrecisionExhaustedError, match="MAX_EXACT_POWER_BITS"):
            _fraction_from_mpf((0, 1, -MAX_EXACT_POWER_BITS, 1))
        assert _fraction_from_mpf((1, 3, -8192, 2)) == Fraction(-3, 2**8192)

    def test_figure_past_the_print_limit(self):
        with pytest.raises(InvalidInputError, match="limit for printing"):
            format_fraction(Fraction(3**10000, 7))
        assert format_fraction(Fraction(10**2466)) == "1" + "0" * 2466
