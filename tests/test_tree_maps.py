"""Tree layer: sigma on tree maps, validation, projection, extension."""

import itertools
import random
from fractions import Fraction

import pytest

from lpiso.errors import HypothesisViolatedError, NotPartialDisintegrationError
from lpiso.lp_vectors import FinSuppVector, norm_p, sigma1_from_norms
from lpiso.presentations import (
    CeSet,
    ComputableVector,
    GenCombo,
    StandardPresentation,
    bits_for,
    build_adversarial,
)
from lpiso.scalar_core import (
    ZERO_INTERVAL,
    GaussianRational,
    PExponent,
    abs_pow,
    lamperti_constant,
)
from lpiso.tree_maps import (
    FiniteTree,
    TreeMap,
    TreeNode,
    check_extension_hypothesis,
    check_strong_hom_exact,
    distance_bound,
    extend_existence,
    project_to_strong_hom,
    sigma_tree,
    success_index,
    summativity_defect,
    tree_norm,
    validate_partial_disintegration,
)

from conftest import projection_instances, random_partial_disintegration

P1 = PExponent.from_fraction(1)
P32 = PExponent.from_fraction(Fraction(3, 2))
P3 = PExponent.from_fraction(3)

E = [FinSuppVector.basis(n) for n in range(12)]


def rmap(assignments, p=P1, pres=None):
    values = {TreeNode.of(*path): vec for path, vec in assignments.items()}
    tree = FiniteTree(values.keys())
    return TreeMap(tree, values, p, pres)


def scaled(q, n):
    return FinSuppVector.basis(n, GaussianRational.of(Fraction(q)))


C1 = Fraction(
    85355339059327376220042218105242451964241796884423701829417,
    10**59,
)  # (2 + sqrt 2)/4 to 59 digits


class TestTreeBasics:
    def test_prefix_closure(self):
        tree = FiniteTree.from_paths([[0, 0], [1]])
        assert TreeNode.of(0) in tree and TreeNode.root() in tree
        assert len(tree) == 4

    def test_children_sorted(self):
        tree = FiniteTree.from_paths([[0, 2], [0, 1]])
        assert tree.children(TreeNode.of(0)) == [TreeNode.of(0, 1), TreeNode.of(0, 2)]

    def test_hypothesis_check(self):
        base = FiniteTree.from_paths([[0]])
        ok = FiniteTree.from_paths([[0], [0, 0], [0, 1]])
        check_extension_hypothesis(base, ok)
        bad = FiniteTree.from_paths([[0], [1]])
        with pytest.raises(HypothesisViolatedError):
            check_extension_hypothesis(base, bad)
        # trivial base: anything goes
        check_extension_hypothesis(FiniteTree.trivial(), bad)


class TestTreeNorm:
    def test_single(self):
        box = tree_norm(rmap({(0,): E[0]}), 10)
        assert box.contains(1)

    def test_max(self):
        box = tree_norm(rmap({(0,): E[0], (1,): scaled(2, 1)}), 10)
        assert box.contains(2) and box.lo > 1

    def test_empty_map(self):
        psi = TreeMap(FiniteTree.trivial(), {}, P1)
        assert tree_norm(psi, 10).is_point()
        assert tree_norm(psi, 10).lo == 0


class TestSigmaTree:
    def test_strong_hom_gives_zero(self):
        psi = rmap({(0,): E[0] + E[1], (0, 0): E[0], (1,): E[2]})
        box = sigma_tree(psi, 30)
        assert box.contains(0) and box.hi <= Fraction(1, 2**30)

    def test_single_clashing_pair(self):
        # single incomparable pair with sigma1 = 1/2 at p = 1
        psi = rmap({(0,): scaled(Fraction(1, 4), 0), (1,): E[0]})
        box = sigma_tree(psi, 30)
        assert box.contains(C1 / 2)
        assert 2 * box.lo > Fraction(85, 100) and 2 * box.hi < Fraction(86, 100)

    def test_comparable_defect(self):
        # (0) -> e_0, (0,0) -> e_1: sigma1(e_1 - e_0, e_1) = 2 at p = 1
        psi = rmap({(0,): E[0], (0, 0): E[1]})
        box = sigma_tree(psi, 30)
        assert box.contains(2 * C1)


class TestValidate:
    def test_valid(self):
        verdict = validate_partial_disintegration(rmap({(0,): E[0], (1,): E[1]}))
        assert verdict.is_yes

    def test_incomparable_shared_support(self):
        verdict = validate_partial_disintegration(rmap({(0,): E[0], (1,): E[0]}))
        assert verdict.is_no

    def test_child_not_refining(self):
        psi = rmap({(0,): E[0] + E[1], (0, 0): scaled(2, 0)})
        verdict = validate_partial_disintegration(psi)
        assert verdict.is_no

    def test_zero_value(self):
        verdict = validate_partial_disintegration(rmap({(0,): FinSuppVector.zero()}))
        assert verdict.is_no


class TestSuccessIndex:
    def test_empty_map(self):
        pres = StandardPresentation(P1)
        psi = TreeMap(FiniteTree.trivial(), {}, P1, pres)
        assert success_index(psi, pres, 4).value == 0

    def test_eight_atoms(self):
        pres = StandardPresentation(P1)
        psi = rmap({(n,): E[n] for n in range(8)}, pres=pres)
        assert success_index(psi, pres, 8).value == 8

    def test_summativity_defect_caps(self):
        pres = StandardPresentation(P1)
        psi = rmap({(0,): E[0] + E[1], (0, 0): E[0]}, pres=pres)
        result = success_index(psi, pres, 4)
        assert result.value == 0
        assert result.summativity_uppers[TreeNode.of(0)] >= 1

    def test_summativity_defect_interval(self):
        psi = rmap({(0,): E[0] + E[1], (0, 0): E[0]})
        box = summativity_defect(psi, TreeNode.of(0), 10)
        assert box.contains(1)


class TestDistanceBound:
    def test_extension_of_strong_hom_is_zero(self):
        phi = rmap({(0,): E[0]})
        psi = rmap({(0,): E[0], (0, 0): E[0]})
        box = distance_bound(phi, psi, 25)
        assert box.contains(0) and box.hi <= Fraction(1, 2**24)

    def test_counterexample_shape_violates_hypothesis(self):
        phi = rmap({(0,): scaled(Fraction(1, 4), 0)})
        psi = rmap({(0,): scaled(Fraction(1, 4), 0), (1,): E[0]})
        with pytest.raises(HypothesisViolatedError):
            distance_bound(phi, psi, 10)

    def test_perturbed_child(self):
        # child equals parent's restriction plus a small disjoint defect
        delta = Fraction(1, 16)
        phi = rmap({(0,): E[0] + E[1]})
        child_val = E[0] + FinSuppVector.basis(9, GaussianRational.of(delta))
        psi = rmap({(0,): E[0] + E[1], (0, 0): child_val})
        box = distance_bound(phi, psi, 25)
        # sigma terms: the pair ((0),(0,0)) with difference defect delta e_9
        # sigma1(child - parent, child) = sigma1(-e_1 + delta e_9, e_0 + delta e_9)
        assert box.lo > 0
        # and the bound certifiably dominates the defect itself
        assert box.hi > delta


class TestProjection:
    def test_fixed_point(self):
        phi = rmap({(0,): E[0]})
        psi = rmap({(0,): E[0], (0, 0): E[0]})
        out = project_to_strong_hom(phi, psi, 20)
        assert out.values == psi.values

    def test_small_coordinate_zeroed(self):
        eps = GaussianRational.of(Fraction(1, 64))
        phi = rmap({(0,): E[0]})
        noisy = E[0] + FinSuppVector.basis(1, eps)
        psi = rmap({(0,): E[0], (0, 0): noisy})
        out = project_to_strong_hom(phi, psi, 20)
        assert out.value(TreeNode.of(0, 0)) == E[0]

    def test_disjoint_new_top_level_node(self):
        # shape violates the extension hypothesis, but the construction is
        # still well-defined; callers opt out of the guarantee explicitly
        phi = rmap({(0,): E[0]})
        psi = rmap({(0,): E[0], (1,): E[1]})
        with pytest.raises(HypothesisViolatedError):
            project_to_strong_hom(phi, psi, 20)
        out = project_to_strong_hom(phi, psi, 20, enforce_hypothesis=False)
        assert out.value(TreeNode.of(1)) == E[1]
        assert check_strong_hom_exact(out)

    def test_conflicting_new_node_zeroed(self):
        # bound-counterexample shape: the only strong homs extending phi
        # zero the clashing coordinate entirely
        phi = rmap({(0,): scaled(Fraction(1, 4), 0)})
        psi = rmap({(0,): scaled(Fraction(1, 4), 0), (1,): E[0]})
        out = project_to_strong_hom(phi, psi, 20, enforce_hypothesis=False)
        assert out.value(TreeNode.of(1)).is_zero()
        assert check_strong_hom_exact(out)

    def test_output_extends_phi_and_is_strong_hom(self):
        phi = rmap({(0,): E[0] + E[1], (0, 0): E[0]})
        mixed = E[1] + FinSuppVector.basis(2, GaussianRational.of(Fraction(1, 8)))
        psi = rmap({(0,): E[0] + E[1], (0, 0): E[0], (0, 1): mixed})
        out = project_to_strong_hom(phi, psi, 20)
        assert out.extends(phi)
        assert check_strong_hom_exact(out)


class TestExtendExistence:
    def test_from_empty(self):
        pres = StandardPresentation(P1)
        phi = TreeMap(FiniteTree.trivial(), {}, P1, pres)
        psi = extend_existence(phi, 2, pres)
        values = [psi.value(n) for n in psi.nodes()]
        assert E[0] in values and E[1] in values
        assert success_index(psi, pres, 2).value >= 2

    def test_split_two_support_node(self):
        pres = StandardPresentation(P1)
        phi = rmap({(0,): E[0] + E[1]}, pres=pres)
        psi = extend_existence(phi, 1, pres)
        child_vals = {psi.value(n) for n in psi.nodes() if len(n) == 2}
        assert E[0] in child_vals and E[1] in child_vals
        assert psi.extends(phi)

    def test_singleton_support_not_split(self):
        pres = StandardPresentation(P1)
        phi = rmap({(0,): E[0]}, pres=pres)
        psi = extend_existence(phi, 1, pres)
        # no child under (0): its value is already an atom
        assert all(len(n) == 1 for n in psi.nodes())
        assert success_index(psi, pres, 1).value >= 1

    def test_adversarial_coverage(self):
        pres = build_adversarial(CeSet.explicit([1]), P1)
        phi = TreeMap(FiniteTree.trivial(), {}, P1, pres)
        psi = extend_existence(phi, 2, pres)
        assert success_index(psi, pres, 2).value >= 2

    def test_rejects_invalid_input(self):
        pres = StandardPresentation(P1)
        phi = rmap({(0,): E[0], (1,): E[0]}, pres=pres)
        with pytest.raises(NotPartialDisintegrationError):
            extend_existence(phi, 1, pres)


class TestJson:
    def test_roundtrip(self):
        psi = rmap({(0,): E[0] + E[1], (0, 0): E[0], (1,): E[2]})
        data = psi.to_json()
        again = TreeMap.from_json(data, P1)
        assert again.values == psi.values
        assert again.tree == psi.tree


class TestSigmaValidateAgreement:
    def test_sigma_zero_iff_exact_hom_on_random_maps(self):
        rng = random.Random(31)
        homs = defects = 0
        while homs < 10 or defects < 10:
            psi = random_partial_disintegration(rng, P1)
            if len(psi.tree) > 6:
                continue
            if rng.random() < 0.5 and psi.nodes():
                # break a clause on purpose: leak a pinned coordinate into
                # an incomparable fresh node
                victim = rng.choice(psi.nodes())
                supp = sorted(psi.value(victim).support())
                leak = FinSuppVector.basis(supp[0], GaussianRational.of(Fraction(1, 2)))
                fresh = TreeNode.of(victim.path[0] + 50)
                values = dict(psi.values)
                values[fresh] = leak
                psi = TreeMap(FiniteTree(values.keys()), values, P1)
            exact_hom = check_strong_hom_exact(psi)
            box = sigma_tree(psi, 30)
            if exact_hom:
                homs += 1
                assert box.contains(0)
            else:
                defects += 1
                refined = sigma_tree(psi, 50)
                assert refined.lo > 0


class TestConflictZeroing:
    def test_survivor_clashing_with_pinned_sibling_is_zeroed(self):
        # at p = 3 the new node's coordinate passes its threshold and would
        # copy the pinned ancestor value, clashing with the incomparable
        # pinned child; the projection must zero it and stay within budget
        p3 = PExponent.from_fraction(3)
        phi_vals = {
            TreeNode.of(0): FinSuppVector(
                {0: GaussianRational.of(Fraction(1, 10)), 1: GaussianRational.one()}
            ),
            TreeNode.of(0, 0): FinSuppVector({0: GaussianRational.of(Fraction(1, 10))}),
        }
        phi = TreeMap(FiniteTree(phi_vals.keys()), phi_vals, p3)
        psi_vals = dict(phi_vals)
        psi_vals[TreeNode.of(0, 1)] = FinSuppVector({0: GaussianRational.one()})
        psi = TreeMap(FiniteTree(psi_vals.keys()), psi_vals, p3)

        out = project_to_strong_hom(phi, psi, 24)
        assert out.value(TreeNode.of(0, 1)).is_zero()
        assert check_strong_hom_exact(out)
        assert out.extends(phi)
        from lpiso.scalar_core import pow_enclosure
        from lpiso.tree_maps import tree_distance

        bound = distance_bound(phi, psi, 24)
        lhs = pow_enclosure(tree_distance(psi, out, 26), p3, 26)
        assert lhs.hi <= bound.hi + Fraction(1, 2**20)


# ---------------------------------------------------------------------------
# equivalence with the straightforward formulas
# ---------------------------------------------------------------------------


def incomparable_pairs(psi):
    nodes = psi.nodes()
    return [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1 :] if a.incomparable(b)]


def comparable_pairs(psi):
    nodes = psi.nodes()
    return [(a, b) for a in nodes for b in nodes if b.strictly_extends(a)]


def reference_sigma_tree(psi, k):
    """sigma_tree pair by pair, every norm queried afresh."""
    p = psi.p

    def vnorm(v, kk):
        if isinstance(v, ComputableVector):
            return v.norm_enclosure(kk)
        return norm_p(v, p, kk)

    def pair(f, g, kk):
        return sigma1_from_norms(
            lambda q: vnorm(f, q),
            lambda q: vnorm(g, q),
            lambda q: vnorm(f - g, q),
            lambda q: vnorm(f + g, q),
            p,
            kk,
        )

    incomp, comp = incomparable_pairs(psi), comparable_pairs(psi)
    count = len(incomp) + len(comp)
    if count == 0:
        return ZERO_INTERVAL
    kk = k + count.bit_length() + 2
    while True:
        total = ZERO_INTERVAL
        for a, b in incomp:
            total = total + pair(psi.value(a), psi.value(b), kk)
        for a, b in comp:
            total = total + pair(psi.value(b) - psi.value(a), psi.value(b), kk)
        out = lamperti_constant(p, kk) * total
        if out.width <= Fraction(1, 2**k):
            return out
        kk += max(4, kk // 2)


def reference_projection(phi, psi, k):
    """project_to_strong_hom with each threshold scanned over every pair."""
    values = dict(psi.values)
    values.update(phi.values)
    psi0 = TreeMap(psi.tree, values, psi.p)
    p = psi0.p

    def sigma_hat(n, prec):
        total = ZERO_INTERVAL
        for a, b in incomparable_pairs(psi0):
            za, zb = psi0.value(a)[n], psi0.value(b)[n]
            if not (za.is_zero() or zb.is_zero()):
                total = total + abs_pow(za, p, prec).min_with(abs_pow(zb, p, prec))
        for a, b in comparable_pairs(psi0):
            zb = psi0.value(b)[n]
            dz = zb - psi0.value(a)[n]
            if not (zb.is_zero() or dz.is_zero()):
                total = total + abs_pow(dz, p, prec).min_with(abs_pow(zb, p, prec))
        return total

    coords = sorted({n for node in psi0.nodes() for n in psi0.value(node).support()})
    new_nodes = [node for node in psi0.nodes() if node not in phi.values]
    delta = Fraction(1, 2**k) / max(1, len(new_nodes) * max(1, len(coords)))

    def greater(z, n, prec):
        while True:
            z_box, s_box = abs_pow(z, p, prec), sigma_hat(n, prec)
            if z_box.lo > s_box.hi:
                return True
            if z_box.hi <= s_box.lo or z_box.width + s_box.width < delta:
                return False
            prec += max(4, prec // 2)

    start_prec = bits_for(delta) + 4
    result = dict(phi.values)
    for node in sorted(new_nodes, key=lambda nn: (len(nn), nn.path)):
        parent = node.parent()
        entries = {}
        for n in coords:
            z = psi0.value(node)[n]
            if z.is_zero() or not greater(z, n, start_prec):
                continue
            candidate = z if parent.is_root() else result[parent][n]
            if candidate.is_zero():
                continue
            if any(
                node.incomparable(other) and not vec[n].is_zero()
                for other, vec in phi.values.items()
            ):
                continue
            entries[n] = candidate
        result[node] = FinSuppVector(entries)
    return TreeMap(psi.tree, result, p)


def leaky_maps(rng, p, count):
    """Random partial disintegrations, half with one incomparable node
    added that shares a pinned coordinate (so sigma is positive)."""
    out = []
    while len(out) < count:
        psi = random_partial_disintegration(rng, p)
        if len(psi.tree) > 6:
            continue
        if rng.random() < 0.5:
            victim = rng.choice(psi.nodes())
            coord = sorted(psi.value(victim).support())[0]
            values = dict(psi.values)
            values[TreeNode.of(victim.path[0] + 50)] = FinSuppVector.basis(
                coord, GaussianRational.of(Fraction(rng.randint(1, 4), 2))
            )
            psi = TreeMap(FiniteTree(values.keys()), values, p)
        out.append(psi)
    return out


class TestSigmaTreeEquivalence:
    """sigma_tree shares each node's norm among its pairs; the result must
    be the same exact interval as the pair-by-pair formula."""

    @pytest.mark.parametrize("p", [P1, P32, P3], ids=["p=1", "p=3/2", "p=3"])
    def test_transparent_maps(self, p):
        for psi in leaky_maps(random.Random(2024), p, 12):
            for k in (12, 30):
                assert sigma_tree(psi, k) == reference_sigma_tree(psi, k)

    @pytest.mark.parametrize("p", [P32, P3], ids=["p=3/2", "p=3"])
    def test_opaque_maps_over_standard(self, p):
        # values scaled by 8 so the p-th powers amplify the oracle's padding
        # and both sigma1 and sigma_tree have to refine their precision
        pres = StandardPresentation(p)
        eight = GaussianRational.of(8)
        for psi in leaky_maps(random.Random(7), p, 8):
            values = {
                node: ComputableVector.constant(
                    GenCombo(psi.value(node).scale(eight).entries), pres
                )
                for node in psi.nodes()
            }
            opaque = TreeMap(psi.tree, values, p, pres)
            assert sigma_tree(opaque, 16) == reference_sigma_tree(opaque, 16)

    def test_opaque_maps_over_adversarial(self):
        pres = build_adversarial(CeSet.explicit([1, 3]), P1)
        half = GaussianRational.of(Fraction(1, 2))
        combos = {
            (0,): GenCombo.single(0),
            (0, 0): GenCombo.single(0) - GenCombo.single(1).scale(half),
            (0, 1): GenCombo.single(1),
            (1,): GenCombo.single(2) + GenCombo.single(1).scale(half),
        }
        values = {
            TreeNode.of(*path): ComputableVector.constant(c, pres) for path, c in combos.items()
        }
        opaque = TreeMap(FiniteTree(values.keys()), values, P1, pres)
        for k in (8, 16):
            assert sigma_tree(opaque, k) == reference_sigma_tree(opaque, k)


def rescaled_child_instances(rng, count):
    """(phi, psi): psi adds below some nodes of phi a child carrying a
    rescaled part of its parent's value, so the comparable-pair terms of
    the thresholds decide which coordinates survive."""
    out = []
    while len(out) < count:
        p = rng.choice([P1, P32, P3])
        phi = random_partial_disintegration(rng, p)
        values = dict(phi.values)
        for base in phi.nodes():
            if rng.random() < 0.6:
                support = sorted(phi.value(base).support())
                keep = rng.sample(support, rng.randint(1, len(support)))
                factor = GaussianRational.of(Fraction(rng.randint(1, 8), 4))
                values[base.child(7)] = phi.value(base).restrict(keep).scale(factor)
        if len(values) > len(phi.values):
            out.append((phi, TreeMap(FiniteTree(values.keys()), values, p)))
    return out


class TestProjectionEquivalence:
    """The thresholds come from a coordinate index built once; the
    projection must equal the one that scans every pair per coordinate."""

    def test_criterion_four_instances(self):
        instances = projection_instances(random.Random(77))
        for count, (_, phi, psi) in enumerate(itertools.islice(instances, 200)):
            out = project_to_strong_hom(phi, psi, 24)
            ref = reference_projection(phi, psi, 24)
            assert out.tree == ref.tree, f"instance {count}"
            assert out.values == ref.values, f"instance {count}"

    def test_rescaled_children(self):
        for count, (phi, psi) in enumerate(rescaled_child_instances(random.Random(5), 60)):
            out = project_to_strong_hom(phi, psi, 24)
            ref = reference_projection(phi, psi, 24)
            assert out.values == ref.values, f"instance {count}"
