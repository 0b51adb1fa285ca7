"""Search machinery: certificates, approximate extension, staged builds."""

from fractions import Fraction

import pytest

from lpiso.errors import HypothesisViolatedError, NotPartialDisintegrationError, PEqualsTwoError
from lpiso.lp_vectors import FinSuppVector, norm_p
from lpiso.presentations import (
    CeSet,
    ComputableVector,
    GenCombo,
    RotatedPresentation,
    StandardPresentation,
    build_adversarial,
)
from lpiso.scalar_core import GaussianRational, PExponent
from lpiso.tree_maps import (
    FiniteTree,
    TreeMap,
    TreeNode,
    success_index,
    validate_partial_disintegration,
)
from lpiso.extension_engine import (
    RationalBall,
    approximate_extend,
    build_disintegration,
    certify_ball,
    empty_map,
    error_functional,
)

P1 = PExponent.from_fraction(1)
P32 = PExponent.from_fraction(Fraction(3, 2))
P3 = PExponent.from_fraction(3)


def atom_ball(pres, count, radius):
    nodes = [TreeNode.of(n) for n in range(count)]
    tree = FiniteTree(nodes)
    center = {TreeNode.of(n): GenCombo.single(n) for n in range(count)}
    return RationalBall(tree, center, radius)


def identity_beta(count):
    return {j: {TreeNode.of(j): GaussianRational.one()} for j in range(count)}


class TestErrorFunctional:
    def test_zero_on_strong_hom(self):
        pres = StandardPresentation(P1)
        psi = atom_ball(pres, 3, Fraction(1, 64)).center_map(pres)
        box = error_functional(empty_map(pres), psi, 20)
        assert box.contains(0) and box.hi <= Fraction(1, 2**18)

    def test_hypothesis_violation_detected(self):
        pres = StandardPresentation(P1)
        phi_node = TreeNode.of(0)
        phi = TreeMap(
            FiniteTree([phi_node]),
            {phi_node: ComputableVector.constant(GenCombo.single(0), pres)},
            P1,
            pres,
        )
        bad = atom_ball(pres, 2, Fraction(1, 8)).center_map(pres)
        with pytest.raises(HypothesisViolatedError):
            error_functional(phi, bad, 10)

    def test_perturbed_hom_value(self):
        # single node e_0, child e_0 + delta e_9: sigma term is computable by hand
        pres = StandardPresentation(P1)
        delta = Fraction(1, 32)
        parent, child = TreeNode.of(0), TreeNode.of(0, 0)
        tree = FiniteTree([parent, child])
        phi = TreeMap(
            FiniteTree([parent]),
            {parent: ComputableVector.constant(GenCombo.single(0), pres)},
            P1,
            pres,
        )
        child_combo = GenCombo(
            {0: GaussianRational.one(), 9: GaussianRational.of(delta)}
        )
        psi = TreeMap(
            tree,
            {
                parent: ComputableVector.constant(GenCombo.single(0), pres),
                child: ComputableVector.constant(child_combo, pres),
            },
            P1,
            pres,
        )
        box = error_functional(phi, psi, 20)
        # sigma1(child - parent, child) = sigma1(delta e_9, e_0 + delta e_9) = 2 delta
        # E = 0 + 2^1 * c_1 * 2 delta
        assert box.lo > 0
        expected = 4 * delta * Fraction(85355339059327376220, 10**20)
        assert abs(box.mid - expected) < Fraction(1, 2**12)


class TestCertifyBall:
    def test_atoms_all_flags(self):
        pres = StandardPresentation(P1)
        ball = atom_ball(pres, 4, Fraction(1, 64))
        cert = certify_ball(ball, None, 2, 6, pres, hom_base=empty_map(pres), beta=identity_beta(4))
        assert cert.all_granted(need_restriction=False)
        assert cert.restriction  # no base map: trivially granted

    def test_duplicate_nodes_withhold_injectivity(self):
        pres = StandardPresentation(P1)
        nodes = [TreeNode.of(0), TreeNode.of(1)]
        tree = FiniteTree(nodes)
        center = {n: GenCombo.single(0) for n in nodes}
        ball = RationalBall(tree, center, Fraction(1, 64))
        cert = certify_ball(ball, None, 1, 6, pres, beta=identity_beta(1))
        assert not cert.injective_nonzero

    def test_huge_radius_withholds_injectivity(self):
        pres = StandardPresentation(P1)
        ball = atom_ball(pres, 3, Fraction(2, 1))
        cert = certify_ball(ball, None, 1, 4, pres, beta=identity_beta(3))
        assert not cert.injective_nonzero


class TestApproximateExtend:
    def test_from_empty_standard(self):
        pres = StandardPresentation(P1)
        res = approximate_extend(empty_map(pres), 1, 4, pres)
        norms = [res.psi.value(n).norm_enclosure(6) for n in res.psi.nodes()]
        assert all(box.lo > 1 - Fraction(1, 16) and box.hi < 1 + Fraction(1, 16) for box in norms)
        assert success_index(res.psi, pres, 2).value >= 2
        assert res.certificate.all_granted(need_restriction=False)

    def test_criterion_five_shape(self):
        # geometric seed over the adversarial presentation of {1, 3} at p = 1
        pres = build_adversarial(CeSet.explicit([1, 3]), P1)
        node = TreeNode.of(0)

        def seed(kk):
            return GenCombo(
                {
                    m + 1: GaussianRational.of(Fraction(1, 2**m))
                    for m in range(kk + 2)
                }
            )

        phi = TreeMap(
            FiniteTree([node]),
            {node: ComputableVector(seed, pres, "geometric")},
            P1,
            pres,
        )
        res = approximate_extend(phi, 2, 4, pres)
        assert success_index(res.psi, pres, 2).value >= 2
        # restriction stays within 2^-4 of the seed
        diff = res.psi.value(node) - phi.value(node)
        assert diff.norm_enclosure(8).hi < Fraction(1, 16)
        # one node is transparently the hidden atom (1 - gamma) e_0 = (3/8) e_0
        atom = FinSuppVector.basis(0, GaussianRational.of(Fraction(3, 8)))
        found = False
        for n in res.psi.nodes():
            vec = res.psi.value(n).transparent(8)
            if norm_p(vec - atom, P1, 8).hi < Fraction(1, 16):
                found = True
        assert found

    def test_determinism(self):
        pres = StandardPresentation(P1)
        a = approximate_extend(empty_map(pres), 1, 4, pres)
        b = approximate_extend(empty_map(StandardPresentation(P1)), 1, 4, StandardPresentation(P1))
        assert a.tree.to_json() == b.tree.to_json()
        assert a.certificate.to_json() == b.certificate.to_json()
        for n in a.psi.nodes():
            assert a.psi.value(n).approx(8).entries == b.psi.value(n).approx(8).entries


class TestBuildDisintegration:
    def test_stage_zero_only(self):
        pres = StandardPresentation(P1)
        staged = build_disintegration(pres, 0)
        assert staged.stage_count() == 1
        rec = staged.last()
        assert rec.phi_hat.nodes() == [TreeNode.of(0)]
        assert rec.phi_hat.value(TreeNode.of(0)).approx(4) == GenCombo.single(0)

    def test_monotone_radii_and_growth(self):
        pres = StandardPresentation(P1)
        staged = build_disintegration(pres, 3)
        sizes = [len(staged.tree(n)) for n in range(staged.stage_count())]
        assert sizes == sorted(sizes) and len(set(sizes)) == len(sizes)
        bits = [rec.ball_bits for rec in staged.stages]
        assert all(b2 > b1 for b1, b2 in zip(bits, bits[1:]))

    def test_success_indices_certified(self):
        pres = StandardPresentation(P32)
        staged = build_disintegration(pres, 3)
        for n, rec in enumerate(staged.stages):
            si = success_index(rec.phi_hat, pres, n)
            assert si.value >= n

    def test_adversarial_atom_emerges(self):
        pres = build_adversarial(CeSet.explicit([1]), P1)
        staged = build_disintegration(pres, 3)
        atoms = {m for rec in staged.stages for m in rec.atom_support.values()}
        assert 0 in atoms  # the e_0 direction split out of f_0
        # the e_0-atom transparently has norm 1 - gamma = 1/2
        for rec in staged.stages:
            for node, m in rec.atom_support.items():
                if m == 0:
                    vec = rec.phi_hat.value(node).transparent(10)
                    assert norm_p(vec, P1, 10).contains(Fraction(1, 2))

    def test_p_equals_two_rejected(self):
        pres = StandardPresentation(PExponent.from_fraction(2))
        with pytest.raises(PEqualsTwoError):
            build_disintegration(pres, 1)


class TestCertificateSoundness:
    def test_in_ball_sampling(self):
        # every transparent sample from a certified ball passes the exact or
        # interval test behind each granted flag
        import random

        rng = random.Random(13)
        pres = StandardPresentation(P1)
        ball = atom_ball(pres, 3, Fraction(1, 64))
        n_index = 2
        cert = certify_ball(
            ball, None, n_index, 6, pres, hom_base=empty_map(pres), beta=identity_beta(3)
        )
        assert cert.injective_nonzero and cert.summativity and cert.distance
        bound = Fraction(1, 2**n_index)
        for _ in range(25):
            sample = {}
            for node, combo in ball.center.items():
                noise_idx = rng.randint(0, 5)
                noise = GaussianRational.of(
                    Fraction(rng.randint(-3, 3), 4) * ball.radius,
                    Fraction(rng.randint(-3, 3), 4) * ball.radius,
                )
                sample[node] = FinSuppVector(combo.entries) + FinSuppVector.basis(
                    noise_idx, noise
                )
            vals = list(sample.values())
            assert all(not v.is_zero() for v in vals)
            assert len({str(v) for v in vals}) == len(vals)
            for j, coeffs in identity_beta(3).items():
                resid = FinSuppVector.basis(j)
                for node, z in coeffs.items():
                    resid = resid - sample[node].scale(z)
                assert norm_p(resid, P1, 12).hi < bound

    def test_stage_restriction_moduli(self):
        # || phi_hat_(n+1) restricted to S_n minus phi_hat_n || < 2^-(k_n + 1)
        pres = StandardPresentation(P1)
        staged = build_disintegration(pres, 3)
        for prev, nxt in zip(staged.stages, staged.stages[1:]):
            worst = Fraction(0)
            for node in prev.phi_hat.nodes():
                diff = nxt.phi_hat.value(node) - prev.phi_hat.value(node)
                worst = max(worst, diff.norm_enclosure(prev.ball_bits + 6).hi)
            assert worst < Fraction(1, 2 ** (prev.ball_bits + 1))

    def test_extend_rejects_invalid_input(self):
        from lpiso.tree_maps import FiniteTree as FT

        pres = StandardPresentation(P1)
        node = TreeNode.of(0)
        phi = TreeMap(
            FT([node]),
            {node: ComputableVector.constant(GenCombo({}), pres)},
            P1,
            pres,
        )
        # a zero node is refuted transparently before any search runs
        snapshot = phi.transparent_snapshot(10)
        verdict = validate_partial_disintegration(snapshot)
        assert verdict.is_no
        with pytest.raises(NotPartialDisintegrationError):
            approximate_extend(snapshot, 1, 4, pres)
        # two incomparable nodes sharing one opaque value: sigma is certified
        # positive, so the opaque validation refutes the map as well
        twins = [TreeNode.of(0), TreeNode.of(1)]
        dup = TreeMap(
            FT(twins),
            {n: ComputableVector.constant(GenCombo.single(0), pres) for n in twins},
            P1,
            pres,
        )
        with pytest.raises(NotPartialDisintegrationError):
            approximate_extend(dup, 1, 4, pres)


class TestStagesStayValid:
    """build_disintegration extends each stage without re-validating it;
    validation must indeed never refute a stage the builder produced."""

    @pytest.mark.parametrize(
        "make_pres",
        [
            lambda: StandardPresentation(P32),
            lambda: RotatedPresentation(P3, GaussianRational.parse("3/5+4/5i")),
            lambda: build_adversarial(CeSet.explicit([1, 3]), P1),
        ],
        ids=["standard-p3/2", "rotated-p3", "adversarial-p1"],
    )
    def test_no_stage_refuted(self, make_pres):
        staged = build_disintegration(make_pres(), 4)
        assert staged.stage_count() == 5
        for rec in staged.stages:
            assert not validate_partial_disintegration(rec.phi_hat).is_no, rec.index


class TestInexactRefinement:
    """The adversarial presentation at p = 3/2 has irrational encodings, so
    proposals are only near the homomorphisms and outputs are genuine
    refinement limits rather than constants."""

    def test_staged_build_and_success(self):
        pres = build_adversarial(CeSet.explicit([1]), P32)
        res = approximate_extend(empty_map(pres), 1, 4, pres)
        assert not res.exact
        assert success_index(res.psi, pres, 2).value >= 2
        # deep approximations stay mutually consistent (Cauchy with modulus)
        node = res.psi.nodes()[0]
        c8, c16 = res.psi.value(node).approx(8), res.psi.value(node).approx(16)
        assert pres.norm_enclosure(c8 - c16, 12).hi < Fraction(1, 2**7)

    def test_hidden_atom_norm_at_p32(self):
        pres = build_adversarial(CeSet.explicit([1]), P32)
        staged = build_disintegration(pres, 2)
        # the split-off e_0 atom carries (1 - gamma)^(1/p) = 2^(-2/3)
        truth = Fraction(62996052494743658238360530363911, 10**32)
        found = False
        for rec in staged.stages:
            for node, m in rec.atom_support.items():
                if m == 0:
                    vec = rec.phi_hat.value(node).transparent(12)
                    assert abs(vec[0].re - truth) < Fraction(1, 2**10)
                    found = True
        assert found
