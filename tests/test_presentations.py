"""Presentation layer: norm oracles, enumerated sets, computable vectors."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpiso.errors import NoBackdoorError, ZeroInCeSetError
from lpiso.lp_vectors import FinSuppVector, norm_p, sigma1_from_norms
from lpiso.presentations import (
    AdversarialPresentation,
    CeSet,
    ComputableVector,
    GenCombo,
    RotatedPresentation,
    StandardPresentation,
    bits_for,
    norm_approx,
    presentation_from_descriptor,
    transparent_eval,
)
from lpiso.scalar_core import CReal, GaussianRational, PExponent, ceil_log2

P1 = PExponent.from_fraction(1)
P32 = PExponent.from_fraction(Fraction(3, 2))


def combo(*coeffs):
    return GenCombo({j: GaussianRational.of(Fraction(c)) for j, c in enumerate(coeffs)})


@st.composite
def small_combos(draw, max_index=4):
    size = draw(st.integers(1, 3))
    entries = {}
    for _ in range(size):
        idx = draw(st.integers(0, max_index))
        re = Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 3)))
        im = Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 3)))
        entries[idx] = GaussianRational.of(re, im)
    return GenCombo(entries)


class TestCeSet:
    def test_enumeration_order_is_first_appearance(self):
        ce = CeSet.explicit([5, 2, 9], stages=[[5], [5, 2], [5, 2, 9]])
        assert ce.elements_prefix(3) == [5, 2, 9]

    def test_gamma_exact_for_finite(self):
        ce = CeSet.explicit([1])
        box = ce.gamma_enclosure(10)
        assert box.is_point() and box.lo == Fraction(1, 2)

    def test_gamma_two_sided_for_decidable_infinite(self):
        ce = CeSet.from_json({"kind": "named", "name": "odds"})
        box = ce.gamma_enclosure(12)
        assert box.contains(Fraction(2, 3))  # sum over odd n of 2^-n
        assert box.width <= Fraction(1, 2**12)

    def test_gamma_strictly_inside_unit_interval(self):
        for ce in (CeSet.explicit([1]), CeSet.explicit([2, 7]), CeSet.from_json({"kind": "named", "name": "odds"})):
            box = ce.gamma_enclosure(20)
            assert 0 < box.lo and box.hi < 1

    @pytest.mark.parametrize(
        "elements, stages",
        [
            ([-1], None),
            ([1, -2], None),
            ([1.5], None),
            ([2.0], None),
            (["3"], None),
            ([True], None),
            ([1, 3], [[3.0], [1, 3]]),
        ],
        ids=["negative", "negative-later", "fraction", "float", "string", "bool", "float-stage"],
    )
    def test_elements_must_be_natural_numbers(self, elements, stages):
        # a negative element, or a float one in a stage, used to end in a
        # TypeError deep in a norm query, and 1.5 was silently read as 1
        with pytest.raises(ValueError, match="natural numbers"):
            CeSet.from_json({"kind": "explicit", "elements": elements, "stages": stages})

    def test_an_empty_stage_list_lists_only_the_empty_set(self):
        # a nonempty set over no stages used to stall every query through
        # 65,536 stages
        with pytest.raises(ValueError, match="last stage must list every element"):
            CeSet.explicit([1], stages=[])
        assert CeSet.explicit([], stages=[]).elements_prefix(0) == []


class TestStandardAndRotated:
    def test_standard_norm(self):
        pres = StandardPresentation(P1)
        q = norm_approx(pres, combo(1, 1), 8)
        assert abs(q - 2) < Fraction(1, 2**8)

    def test_rotated_norm_bitwise_equal_to_standard(self):
        std = StandardPresentation(P1)
        rot = RotatedPresentation(P1, GaussianRational.of(0, 1))
        for k in (3, 9, 17):
            c = combo(1, 1)
            assert std.norm_approx(c, k) == rot.norm_approx(c, k)

    def test_rotated_backdoor_applies_zeta(self):
        rot = RotatedPresentation(P1, GaussianRational.of(0, 1))
        v = transparent_eval(rot, combo(1), 10)
        assert v == FinSuppVector({0: GaussianRational.of(0, 1)})

    def test_descriptor_roundtrip(self):
        for desc in (
            {"type": "standard", "p": "3/2"},
            {"type": "rotated", "zeta": "i", "p": "1"},
            {"type": "adversarial", "p": "1", "ce": {"kind": "explicit", "elements": [1, 3]}},
        ):
            pres = presentation_from_descriptor(desc)
            assert pres.descriptor()["type"] == desc["type"]


class TestAdversarialNorm:
    def test_f0_has_unit_norm(self):
        ce = CeSet.explicit([1])
        q = AdversarialPresentation(ce, P1).norm_approx(combo(1), 10)
        assert q == 1

    def test_lemma_combination(self):
        ce = CeSet.explicit([1])
        q = AdversarialPresentation(ce, P1).norm_approx(combo(1, Fraction(-1, 2)), 10)
        assert abs(q - Fraction(1, 2)) < Fraction(1, 2**10)

    def test_pure_tail_generator(self):
        ce = CeSet.explicit([1])
        q = AdversarialPresentation(ce, P32).norm_approx(combo(0, Fraction(3, 4)), 10)
        assert abs(q - Fraction(3, 4)) < Fraction(1, 2**10)

    def test_finite_set_degenerate_terms(self):
        # coefficient far beyond the single element of C: no f_0 overlap
        ce = CeSet.explicit([1])
        c = GenCombo({0: GaussianRational.one(), 5: GaussianRational.of(2)})
        pres = AdversarialPresentation(ce, P1)
        q = pres.norm_approx(c, 10)
        assert abs(q - 3) < Fraction(1, 2**10)

    def test_zero_in_c_rejected(self):
        with pytest.raises(ZeroInCeSetError):
            AdversarialPresentation(CeSet.explicit([0, 1]), P1)


class TestAdversarialBackdoor:
    def test_f0_vector_p1(self):
        pres = AdversarialPresentation(CeSet.explicit([1]), P1)
        v = pres.f0_vector(12)
        assert v[0] == GaussianRational.of(Fraction(1, 2))
        assert v[1] == GaussianRational.of(Fraction(1, 2))

    def test_f0_vector_p32_head(self):
        pres = AdversarialPresentation(CeSet.explicit([1]), P32)
        v = pres.f0_vector(20)
        # (1/2)^(2/3) = 0.6299605249...
        truth = Fraction(62996052494743658238, 10**20)
        assert abs(v[0].re - truth) < Fraction(1, 2**16)

    def test_transparent_eval_cancellation(self):
        pres = AdversarialPresentation(CeSet.explicit([1]), P1)
        c = GenCombo({0: GaussianRational.one(), 1: GaussianRational.of(Fraction(-1, 2))})
        v = transparent_eval(pres, c, 10)
        assert v == FinSuppVector({0: GaussianRational.of(Fraction(1, 2))})

    def test_opaque_presentation_refuses_backdoor(self):
        stages = [frozenset([1]), frozenset([1, 4])]
        ce = CeSet(lambda t: stages[min(t, 1)], decide=None, complete_size=2)
        pres = AdversarialPresentation(ce, P1)
        with pytest.raises(NoBackdoorError):
            transparent_eval(pres, combo(1), 4)

    @given(c=small_combos())
    @settings(max_examples=15, deadline=None)
    def test_oracle_consistent_with_backdoor(self, c):
        pres = AdversarialPresentation(CeSet.explicit([1, 3]), P1)
        k = 12
        q = pres.norm_approx(c, k)
        v = pres.transparent_eval(c, k + 2)
        box = norm_p(v, P1, k + 2)
        # |oracle - ||transparent||| < 2^-k + transparent eval error
        assert abs(q - box.mid) < Fraction(1, 2 ** (k - 1))

    def test_e0_combo_close_to_e0(self):
        for p, kk in ((P1, 8), (P32, 8)):
            pres = AdversarialPresentation(CeSet.explicit([1, 2]), p)
            g = pres.e0_combo(kk)
            v = pres.transparent_eval(g, kk + 3)
            diff = v - FinSuppVector.basis(0)
            box = norm_p(diff, p, kk + 3)
            assert box.hi < Fraction(1, 2**kk) + Fraction(1, 2 ** (kk + 2))


class TestOracleProperties:
    @given(c=small_combos(), d=small_combos())
    @settings(max_examples=10, deadline=None)
    def test_triangle_inequality_within_tolerance(self, c, d):
        pres = AdversarialPresentation(CeSet.explicit([2]), P32)
        k = 10
        tol = Fraction(3, 2**k)
        assert pres.norm_approx(c + d, k) <= pres.norm_approx(c, k) + pres.norm_approx(d, k) + tol

    @given(c=small_combos())
    @settings(max_examples=10, deadline=None)
    def test_homogeneity_within_tolerance(self, c):
        pres = StandardPresentation(P32)
        k = 10
        tol = Fraction(5, 2**k)
        doubled = c.scale(GaussianRational.of(2))
        assert abs(pres.norm_approx(doubled, k) - 2 * pres.norm_approx(c, k)) <= tol

    def test_sigma1_oracle_matches_vector_sigma1(self):
        pres = StandardPresentation(P1)

        def oracle_sigma1(f, g):
            # the vector formula, read through the norm oracle only
            return sigma1_from_norms(
                lambda kk: pres.norm_enclosure(f, kk),
                lambda kk: pres.norm_enclosure(g, kk),
                lambda kk: pres.norm_enclosure(f - g, kk),
                lambda kk: pres.norm_enclosure(f + g, kk),
                pres.p,
                12,
            )

        assert oracle_sigma1(combo(1), combo(0, 1)).contains(0)
        assert oracle_sigma1(combo(1), combo(1)).contains(2)


class TestComputableVector:
    def test_constant(self):
        pres = StandardPresentation(P1)
        v = ComputableVector.constant(combo(1, 2), pres)
        assert v.approx(3) == combo(1, 2)
        assert v.approx(30) == combo(1, 2)

    def test_geometric_tail_truncation(self):
        pres = StandardPresentation(P1)

        def approx(k):
            # tail sum_{n > k} 2^-n = 2^-k, so truncate one step further
            return GenCombo(
                {n: GaussianRational.of(Fraction(1, 2**n)) for n in range(k + 2)}
            )

        v = ComputableVector(approx, pres)
        c3 = v.approx(3)
        assert c3.max_index() >= 3
        box = v.norm_enclosure(6)
        assert box.contains(2)  # sum 2^-n = 2

    def test_f0_expansion_over_standard(self):
        adv = AdversarialPresentation(CeSet.explicit([1, 3]), P1)
        std = StandardPresentation(P1)

        def approx(k):
            return GenCombo(adv.f0_vector(k).entries)

        v = ComputableVector(approx, std)
        box = v.norm_enclosure(10)
        assert box.contains(1)  # ||f_0|| = 1

    def test_scale_gauss(self):
        pres = StandardPresentation(P1)
        v = ComputableVector.constant(combo(1), pres).scale_gauss(GaussianRational.of(3))
        assert v.approx(4) == combo(3)

    @pytest.mark.parametrize(
        "make_pres",
        [
            lambda: StandardPresentation(P1),
            lambda: RotatedPresentation(P32, GaussianRational.parse("3/5+4/5i")),
            lambda: AdversarialPresentation(CeSet.explicit([2, 5]), P1),
        ],
        ids=["standard-p1", "rotated-p3/2", "adversarial-p1"],
    )
    def test_over_norm_of_matches_the_creal_scaling(self, make_pres):
        pres = make_pres()
        # both vectors move with k, so each read below names its precision
        def tail(j, d):
            return GenCombo({j: GaussianRational.of(Fraction(1, d))})

        v = ComputableVector(lambda k: combo(1, -2) + tail(3, 2 ** (k + 1)), pres)
        w = ComputableVector(lambda k: combo(0, 3, 1) + tail(2, 3 * 2 ** (k + 1)), pres)
        inv_bits = 1  # 1/||w|| <= 2
        scaled = v.over_norm_of(w, inv_bits)
        # the computable-real adapter over_norm_of replaced
        inv = CReal.from_interval_fn(w.reciprocal_norm)
        extra = ceil_log2(v.norm_enclosure(2).hi + 1)
        for k in (0, 3, 8, 20):
            q = inv.approx(k + 2 + extra)
            assert scaled.approx(k) == v.approx(k + 2 + inv_bits).scale(GaussianRational.of(q))
        box = scaled.norm_enclosure(10)
        ratio = v.norm_enclosure(16) * w.reciprocal_norm(16)
        assert box.lo <= ratio.hi and ratio.lo <= box.hi

    @pytest.mark.parametrize("side", ["below", "above"])
    @pytest.mark.parametrize(
        "make_pres",
        [
            lambda: StandardPresentation(P1),
            lambda: RotatedPresentation(P32, GaussianRational.parse("3/5+4/5i")),
            lambda: AdversarialPresentation(CeSet.explicit([2, 5]), P1),
        ],
        ids=["standard-p1", "rotated-p3/2", "adversarial-p1"],
    )
    @given(
        c=small_combos(max_index=3),
        off=st.integers(-4, 4),
        floor=st.integers(2, 24),
        d=st.integers(0, 10),
    )
    @settings(max_examples=15, deadline=None)
    def test_at_least_reads_the_floor_approximation(self, make_pres, side, c, off, floor, d):
        pres = make_pres()
        # within 2^-k of c: f_0 has norm 1 in all three presentations
        v = ComputableVector(
            lambda k: c + GenCombo({0: GaussianRational.of(Fraction(off, 8 * 2**k))}),
            pres,
        )
        view = v.at_least(floor)
        # below: the norm's approx(k + 2) read is still at most the floor
        k = max(0, floor - 2 - d) if side == "below" else floor + d
        assert view.approx(k) is v.approx(max(k, floor))
        box = view.norm_enclosure(k)
        fine = v.norm_enclosure(k + 20)
        assert box.fits(k)
        assert box.lo <= fine.hi and fine.lo <= box.hi


class TestEnumerationStall:
    def test_norm_query_beyond_available_elements(self):
        # an incomplete enumeration that stops revealing elements: a norm
        # query that needs more of them fails loudly instead of guessing
        from lpiso.errors import EnumerationStalledError

        ce = CeSet(lambda t: frozenset([1]), decide=None, complete_size=None,
                   label="stalled")
        pres = AdversarialPresentation(ce, P1)
        wide = GenCombo({0: GaussianRational.one(), 3: GaussianRational.one()})
        with pytest.raises(EnumerationStalledError):
            pres.norm_approx(wide, 6)
        # the failed query leaves no power memo open
        assert pres.p._pow_memo is None


class TestOracleMemoScope:
    """An adversarial norm query joins an enclosing shared_powers() block."""

    def _pres(self):
        return AdversarialPresentation(CeSet.explicit([1, 3]), PExponent.from_fraction(Fraction(3, 2)))

    def test_query_nests_into_an_outer_block(self):
        pres = self._pres()
        c = combo(1, Fraction(1, 2), Fraction(-1, 3))
        alone = pres.norm_approx(c, 12)
        with pres.p.shared_powers():
            memo = pres.p._pow_memo
            assert pres.norm_approx(c, 12) == alone
            # the query filled the outer memo and left it open
            assert pres.p._pow_memo is memo and memo
            size = len(memo)
            # a repeated query finds every power it needs there
            assert pres.norm_approx(c, 12) == alone
            assert len(memo) == size
        assert pres.p._pow_memo is None


class TestE0Cache:
    """e0_combo_info remembers one (k, result); answers never depend on it."""

    CE = [1, 3]

    def _pres(self):
        return AdversarialPresentation(CeSet.explicit(self.CE), PExponent.from_fraction(Fraction(3, 2)))

    def test_alternating_precisions_match_fresh_presentations(self):
        pres = self._pres()
        for k in (8, 11, 8):
            got_combo, got_info = pres.e0_combo_info(k)
            fresh_combo, fresh_info = self._pres().e0_combo_info(k)
            assert got_combo == fresh_combo
            assert got_info == fresh_info

    def test_encoding_twice_leaves_the_cached_combination_alone(self):
        pres = self._pres()
        v = FinSuppVector({
            0: GaussianRational.of(Fraction(-3, 2), Fraction(1, 2)),
            2: GaussianRational.of(Fraction(1, 4)),
        })
        first = pres.encode_vector(v, 10)
        k, (cached, _) = pres._e0_last
        entries = dict(cached.entries)
        assert pres.encode_vector(v, 10) == first
        assert cached.entries == entries
        assert cached == self._pres().e0_combo(k)


class TestIntegerPartialSums:
    """The dyadic sums over a set's members equal their Fraction-by-Fraction sums."""

    SETS = (
        lambda: CeSet.explicit([10, 7, 8, 6]),
        lambda: CeSet.explicit([1, 3]),
        lambda: CeSet.from_json({"kind": "named", "name": "odds"}),
        lambda: CeSet.from_json({"kind": "named", "name": "evens-from-2"}),
    )

    @pytest.mark.parametrize("make", SETS)
    def test_gamma_enclosure(self, make):
        ce = make()
        for k in (0, 3, 9, 40):
            bound = k + 1
            low = Fraction(0)
            for n in range(1, bound + 1):
                if ce.decide(n):
                    low += Fraction(1, 2**n)
            box = ce.gamma_enclosure(k)
            assert box.lo == low
            assert box.hi in (low, low + Fraction(1, 2**bound))

    @pytest.mark.parametrize("make", SETS)
    def test_prefix_for_tail(self, make):
        pres = AdversarialPresentation(make(), P32)
        for tol in (Fraction(1, 2), Fraction(1, 100), Fraction(1, 2**30)):
            gamma_hi = pres.ce.gamma_enclosure(bits_for(tol) + 4).hi
            want = []
            partial = Fraction(0)
            while gamma_hi - partial > tol:
                c = pres.ce.element(len(want))
                if c is None:
                    break
                want.append(c)
                partial += Fraction(1, 2**c)
            assert pres._prefix_for_tail(tol) == want


class TestNonTrivialRotation:
    def test_three_four_five_zeta(self):
        zeta = GaussianRational.of(Fraction(3, 5), Fraction(4, 5))
        rot = RotatedPresentation(P1, zeta)
        std = StandardPresentation(P1)
        c = combo(1, Fraction(1, 2))
        assert rot.norm_approx(c, 12) == std.norm_approx(c, 12)
        v = rot.transparent_eval(GenCombo.single(0), 8)
        assert v[0] == zeta
        # encode then evaluate round-trips exactly for unimodular zeta
        back = rot.encode_vector(v, 8)
        assert back == GenCombo.single(0)


class TestInfiniteDecidableSet:
    def test_e0_over_odds(self):
        ce = CeSet.from_json({"kind": "named", "name": "odds"})
        pres = AdversarialPresentation(ce, P1)
        g = pres.e0_combo(8)
        v = pres.transparent_eval(g, 12)
        diff = v - FinSuppVector({0: GaussianRational.one()})
        assert norm_p(diff, P1, 12).hi < Fraction(1, 2**8)

    @given(c=small_combos(max_index=3))
    @settings(max_examples=10, deadline=None)
    def test_oracle_consistency_p32(self, c):
        pres = AdversarialPresentation(CeSet.explicit([1, 3]), P32)
        k = 10
        q = pres.norm_approx(c, k)
        v = pres.transparent_eval(c, k + 2)
        box = norm_p(v, P32, k + 2)
        assert abs(q - box.mid) < Fraction(1, 2 ** (k - 1))


class _ContractBreaker(StandardPresentation):
    """An oracle that answers -1: no norm is negative."""

    def norm_approx(self, combo, k):
        return Fraction(-1)


class TestNormPads:
    """Both norm pads widen one oracle answer by 2**-k and clip at 0."""

    def test_broken_oracle_still_raises(self):
        pres = _ContractBreaker(P1)
        with pytest.raises(ValueError):
            pres.norm_enclosure(combo(1), 4)
        with pytest.raises(ValueError):
            ComputableVector.constant(combo(1), pres).norm_enclosure(4)

    @given(c=small_combos(), k=st.integers(0, 40))
    @settings(max_examples=60, deadline=None)
    def test_pads(self, c, k):
        pres = StandardPresentation(P32)
        q = pres.norm_approx(c, k + 1)
        w = Fraction(1, 2 ** (k + 1))
        box = pres.norm_enclosure(c, k)
        assert (box.lo, box.hi) == (max(q - w, Fraction(0)), q + w)
        inner = pres.norm_enclosure(c, k + 2)
        outer = ComputableVector.constant(c, pres).norm_enclosure(k)
        pad = Fraction(1, 2 ** (k + 2))
        assert (outer.lo, outer.hi) == (max(inner.lo - pad, Fraction(0)), inner.hi + pad)
        assert type(box.lo) is Fraction and type(outer.lo) is Fraction
