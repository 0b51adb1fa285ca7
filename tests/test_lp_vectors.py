"""Vector layer: norms, support calculus, sigma1 over vectors."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpiso.lp_vectors import (
    FinSuppVector,
    atom_witness,
    is_atom,
    is_disjointly_supported,
    norm_p,
    norm_power_p,
    precedes,
    sigma1_vec,
)
from lpiso.presentations import GenCombo, StandardPresentation
from lpiso.scalar_core import (
    GAUSS_ZERO,
    GaussianRational,
    PExponent,
    UNIMODULAR_UNITS,
    pow_enclosure,
)

P1 = PExponent.from_fraction(1)
P32 = PExponent.from_fraction(Fraction(3, 2))

E0 = FinSuppVector.basis(0)
E1 = FinSuppVector.basis(1)
E2 = FinSuppVector.basis(2)


def vec(**kw):
    return FinSuppVector(
        {int(k[1:]): GaussianRational.of(Fraction(v)) for k, v in kw.items()}
    )


@st.composite
def small_vectors(draw, max_index=5):
    size = draw(st.integers(0, 3))
    entries = {}
    for _ in range(size):
        idx = draw(st.integers(0, max_index))
        re = Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 4)))
        im = Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 4)))
        entries[idx] = GaussianRational.of(re, im)
    return FinSuppVector(entries)


class TestNorm:
    def test_zero(self):
        assert norm_p(FinSuppVector.zero(), P1, 10).is_point()
        assert norm_p(FinSuppVector.zero(), P1, 10).lo == 0

    def test_two_units_p32(self):
        # ||e0 + e1||_{3/2} = 2^{2/3}
        box = norm_p(E0 + E1, P32, 30)
        truth = Fraction(
            15874010519681994747517056392723, 10**31
        )  # 2^(2/3), 31 digits
        assert box.lo <= truth <= box.hi + Fraction(1, 10**30)
        assert box.width <= Fraction(1, 2**30)

    def test_three_four_p1(self):
        box = norm_p(vec(e0=3) + vec(e1=4), P1, 10)
        assert box.is_point() and box.lo == 7

    @given(f=small_vectors(), g=small_vectors())
    @settings(max_examples=25, deadline=None)
    def test_disjoint_additivity(self, f, g):
        g = FinSuppVector({n + 6: z for n, z in g.entries.items()})  # force disjoint
        for p in (P1, P32):
            lhs = norm_power_p(f + g, p, 30)
            rhs = norm_power_p(f, p, 30) + norm_power_p(g, p, 30)
            assert lhs.lo <= rhs.hi and rhs.lo <= lhs.hi  # overlap within widths


@st.composite
def real_vectors(draw):
    """Real vectors mixing zero, integer, negative, long dyadic and
    non-dyadic rational entries."""
    entry = st.one_of(
        st.just(Fraction(0)),
        st.integers(-(10**6), 10**6).map(Fraction),
        st.builds(
            Fraction,
            st.integers(-(2**300), 2**300),
            st.integers(0, 300).map(lambda e: 2**e),
        ),
        st.builds(Fraction, st.integers(-(10**9), 10**9), st.integers(1, 10**9)),
    )
    values = draw(st.lists(entry, max_size=6))
    return FinSuppVector({n: GaussianRational.of(q) for n, q in enumerate(values)})


class TestExactLane:
    """At p = 1 with real entries norm_p is one exact sum; the answer is the
    point the general refine-and-root composition returns."""

    @given(f=real_vectors(), k=st.integers(0, 200), kk=st.integers(0, 200))
    @settings(max_examples=100, deadline=None)
    def test_lane_equals_the_general_composition(self, f, k, kk):
        box = norm_p(f, P1, k)
        general = pow_enclosure(norm_power_p(f, P1, kk), P1, kk, over_p=True)
        assert (box.lo, box.hi) == (general.lo, general.hi)
        assert box.is_point() and box.lo == sum(abs(z.re) for z in f.entries.values())

    def test_an_imaginary_part_takes_the_general_path(self):
        # ||1 + (1+i)e_1||_1 = 1 + sqrt 2, which no exact sum can give
        f = FinSuppVector({0: GaussianRational.of(1), 1: GaussianRational.of(1, 1)})
        box = norm_p(f, P1, 40)
        assert not box.is_point() and box.fits(40)
        assert box.lo >= 1 and (box.lo - 1) ** 2 <= 2 <= (box.hi - 1) ** 2

    def test_standard_oracle_answers_the_exact_sum(self):
        combo = GenCombo({0: GaussianRational.of(3), 4: GaussianRational.of(Fraction(-1, 3))})
        for k in (0, 10, 60):
            assert StandardPresentation(P1).norm_approx(combo, k) == Fraction(10, 3)


class TestSupportCalculus:
    def test_disjoint(self):
        assert is_disjointly_supported(E0, E1)
        assert not is_disjointly_supported(E0, E0 + E1)
        assert is_disjointly_supported(FinSuppVector.zero(), E0 + E1)

    def test_precedes(self):
        assert precedes(E0, E0 + E1)
        assert not precedes(E0 + E1, E0)
        assert not precedes(vec(e0=2), E0)  # values differ on shared support

    def test_precedes_via_disjointness(self):
        f, g = E0, E0 + E1
        assert precedes(f, g) == is_disjointly_supported(g - f, f)

    @given(f=small_vectors(), g=small_vectors(), h=small_vectors())
    @settings(max_examples=40, deadline=None)
    def test_partial_order(self, f, g, h):
        assert precedes(f, f)
        if precedes(f, g) and precedes(g, f):
            assert f == g
        if precedes(f, g) and precedes(g, h):
            assert precedes(f, h)

    def test_atoms_by_enumeration(self):
        # among vectors supported on <= 3 indices with entries in a small set,
        # the minimal nonzero elements are exactly the single-index ones
        coeffs = [GaussianRational.of(q) for q in (0, 1, -1, Fraction(1, 2))]
        pool = []
        for c0, c1, c2 in itertools.product(coeffs, repeat=3):
            pool.append(FinSuppVector({0: c0, 1: c1, 2: c2}))
        nonzero = [v for v in pool if not v.is_zero()]
        for v in nonzero:
            strictly_below = [
                u for u in nonzero if precedes(u, v) and u != v
            ]
            if is_atom(v):
                assert strictly_below == []
            else:
                assert strictly_below


class TestSigma1Vec:
    def test_disjoint_pair(self):
        box = sigma1_vec(E0, E1, P1, 25)
        assert box.contains(0)

    def test_equal_units(self):
        box = sigma1_vec(E0, E0, P1, 20)
        assert box.contains(2) and box.width <= Fraction(1, 2**20)

    def test_overlap_pair(self):
        box = sigma1_vec(E0, E0 + E1, P1, 20)
        assert box.contains(2)

    @given(f=small_vectors(max_index=3), g=small_vectors(max_index=3))
    @settings(max_examples=20, deadline=None)
    def test_signed_permutation_invariance(self, f, g):
        # T: e_n -> lambda_n e_{phi(n)} with unimodular Gaussian-rational lambda
        perm = {0: 2, 1: 0, 2: 3, 3: 1}
        lam = {0: UNIMODULAR_UNITS[2], 1: UNIMODULAR_UNITS[1], 2: UNIMODULAR_UNITS[0], 3: UNIMODULAR_UNITS[3]}

        def transform(v):
            return FinSuppVector(
                {perm[n]: z * lam[n] for n, z in v.entries.items()}
            )

        base = sigma1_vec(f, g, P32, 30)
        moved = sigma1_vec(transform(f), transform(g), P32, 30)
        assert base.lo <= moved.hi + Fraction(1, 2**28)
        assert moved.lo <= base.hi + Fraction(1, 2**28)

    @given(f=small_vectors(max_index=3), g=small_vectors(max_index=3))
    @settings(max_examples=20, deadline=None)
    def test_sigma1_zero_iff_disjoint(self, f, g):
        box = sigma1_vec(f, g, P32, 40)
        if is_disjointly_supported(f, g):
            assert box.contains(0)
        else:
            refined = sigma1_vec(f, g, P32, 70)
            assert refined.lo > 0


class TestJson:
    def test_roundtrip(self):
        v = FinSuppVector(
            {0: GaussianRational.parse("1/1"), 3: GaussianRational.parse("-1/2+1/2i")}
        )
        assert FinSuppVector.from_json(v.to_json()) == v


class TestInternalResults:
    """+, - and scale skip index validation but still store no zero; the
    public constructor still validates."""

    def test_constructor_rejects_bad_indices(self):
        z = GaussianRational.one()
        with pytest.raises(ValueError):
            FinSuppVector({-1: z})
        with pytest.raises(ValueError):
            FinSuppVector({Fraction(1, 2): z})

    @given(v=small_vectors(), w=small_vectors())
    @settings(max_examples=100, deadline=None)
    def test_no_stored_zeros(self, v, w):
        for out in (v - v, v.scale(GAUSS_ZERO), v + w, v - w, (v + w) - w):
            assert type(out) is FinSuppVector
            assert all(not z.is_zero() for z in out.entries.values())
        assert (v - v).entries == {} and v.scale(GAUSS_ZERO).entries == {}
        assert ((v + w) - w) == v and (v + w) == FinSuppVector((v + w).entries)

    def test_cancelling_sum(self):
        a = vec(x0=1, x2=Fraction(1, 3))
        b = vec(x0=-1, x2=Fraction(-1, 3), x5=2)
        assert (a + b).entries == {5: GaussianRational.of(2)}
        assert (a - a.scale(GaussianRational.one())).is_zero()


class TestAtomWitness:
    """atom_witness divides each covered entry by its atom's entry; a
    coordinate with no atom or a zero atom entry stays uncovered."""

    def test_skips_missing_and_zero_atoms(self):
        f = vec(x0=2, x1=3, x2=5)
        atoms = {0: ("a", GaussianRational.of(4)), 2: ("c", GAUSS_ZERO)}
        assert atom_witness(f, atoms) == {"a": GaussianRational.of(Fraction(1, 2))}

    @given(
        f=small_vectors(),
        lams=st.dictionaries(
            st.integers(0, 5),
            st.builds(GaussianRational.of, st.integers(-3, 3), st.integers(-3, 3)),
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_disjoint_atoms_rebuild_the_covered_entries(self, f, lams):
        atoms = {n: (f"atom{n}", lam) for n, lam in lams.items()}
        coeffs = atom_witness(f, atoms)
        total = FinSuppVector.zero()
        for n, (holder, lam) in atoms.items():
            if holder in coeffs:
                total = total + FinSuppVector.basis(n, lam).scale(coeffs[holder])
        covered = [n for n, lam in lams.items() if not lam.is_zero()]
        assert total == f.restrict(covered)
        assert set(coeffs) == {atoms[n][0] for n in covered if n in f.entries}
