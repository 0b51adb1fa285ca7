"""Acceptance suite: every exit criterion at its stated tolerance.

One test per criterion; each prints a PASS line on success (run with -s or
read the verbose test names).  Tolerances are pinned here, not deferred.
"""

import hashlib
import itertools
import json
import random
import time
from fractions import Fraction

import pytest

from lpiso.errors import HypothesisViolatedError
from lpiso.lp_vectors import FinSuppVector, norm_p, norm_power_p
from lpiso.presentations import (
    CeSet,
    ComputableVector,
    GenCombo,
    OracleAdapter,
    StandardPresentation,
    build_adversarial,
)
from lpiso.scalar_core import (
    GaussianRational,
    PExponent,
    abs_pow,
    lamperti_objective,
    pow_enclosure,
    sigma_scalar,
    signed_sigma1_scalar,
)
from lpiso.chain_partition import (
    StageBound,
    dyadic_fixture,
    partition_chains,
)
from lpiso.extension_engine import approximate_extend
from lpiso.iso_cli import (
    SynthesisBudget,
    compute_e0_wrt_F,
    main as cli_main,
    recover_p,
    recover_scale_from_atom,
    synthesize_isometry,
)
from lpiso.tree_maps import (
    ROOT,
    FiniteTree,
    TreeMap,
    TreeNode,
    check_strong_hom_exact,
    distance_bound,
    project_to_strong_hom,
    sigma_tree,
    success_index,
    tree_distance,
)

from conftest import (
    projection_instances,
    random_disintegration,
    random_partial_disintegration,
    rational_vector,
)

P1 = PExponent.from_fraction(1)
P32 = PExponent.from_fraction(Fraction(3, 2))
P3 = PExponent.from_fraction(3)
P4 = PExponent.from_fraction(4)

WIDTH_30 = Fraction(1, 2**30)
EQ_40 = Fraction(1, 2**40)

# |4 - 2 sqrt(2)^p| frozen to 40+ digits (independent high-precision oracle)
F1_MIN = Fraction(11715728752538099023966225515806038428607, 10**40)
F3_MIN = Fraction(16568542494923801952067548968387923142787, 10**40)


def gauss(rng):
    return GaussianRational.of(
        Fraction(rng.randint(-16, 16), rng.randint(1, 8)),
        Fraction(rng.randint(-16, 16), rng.randint(1, 8)),
    )


class TestCriterion1LampertiSuite:
    def test_min_below_sigma_and_sign_claims(self):
        start = time.time()
        rng = random.Random(20260810)
        exponents = [P1, P32, P3, P4]
        pairs_per_p = 1000
        for p in exponents:
            below = p.exact < 2
            for _ in range(pairs_per_p):
                z, w = gauss(rng), gauss(rng)
                s = sigma_scalar(z, w, p, 30)
                m = abs_pow(z, p, 30).min_with(abs_pow(w, p, 30))
                assert s.width <= WIDTH_30 and m.width <= 2 * WIDTH_30
                certified = s.lo >= m.hi or (m.hi - s.lo) <= EQ_40
                assert certified, f"p={p}, z={z}, w={w}"
                sign = signed_sigma1_scalar(z, w, p, 30)
                if below:
                    assert sign.hi >= 0  # never strictly below zero
                else:
                    assert sign.lo <= 0
        elapsed = time.time() - start
        assert elapsed < 60, f"criterion 1 took {elapsed:.1f}s"
        print(f"\nACCEPTANCE 1 PASS: 4000 pairs certified in {elapsed:.1f}s")


class TestCriterion2GridMinimum:
    @pytest.mark.parametrize(
        "p,expected", [(P1, F1_MIN), (P3, F3_MIN)], ids=["p=1", "p=3"]
    )
    def test_grid_minimum(self, p, expected):
        start = time.time()
        best_mid = None
        best_at = None
        t_vals = [1 + Fraction(i, 16) for i in range(0, 7 * 16 + 1)]
        for i in range(65):
            theta = Fraction(i, 64)
            for t in t_vals:
                box = lamperti_objective(theta, t, p, 14)
                if best_mid is None or box.mid < best_mid:
                    best_mid, best_at = box.mid, (theta, t)
        assert abs(best_mid - expected) < Fraction(1, 1000)
        theta_star, t_star = best_at
        assert abs(theta_star - Fraction(1, 2)) <= Fraction(1, 64)
        assert abs(t_star - 1) <= Fraction(1, 16)
        elapsed = time.time() - start
        assert elapsed < 30, f"criterion 2 took {elapsed:.1f}s"
        print(f"\nACCEPTANCE 2 PASS (p={p}): grid min {float(best_mid):.6f} at {best_at} in {elapsed:.1f}s")


def one_node_distance_oracle(phi_vec: FinSuppVector, target: FinSuppVector) -> Fraction:
    """Exact d(target, {v : v disjoint from phi_vec}) in the p=1 norm.

    A strong homomorphism extending the one-node map must zero every
    coordinate shared with the pinned value; free coordinates can match
    the target exactly, so the infimum is the mass on the forced zeros.
    """
    forced = phi_vec.support()
    total = Fraction(0)
    for n, z in target.entries.items():
        if n in forced:
            total += norm_p(FinSuppVector.basis(n, z), P1, 40).hi
    return total


class TestCriterion3BoundCounterexample:
    def setup_method(self):
        x = Fraction(1, 4)
        self.phi = TreeMap(
            FiniteTree([TreeNode.of(0)]),
            {TreeNode.of(0): rational_vector({0: x})},
            P1,
        )
        self.psi_values = {
            TreeNode.of(0): rational_vector({0: x}),
            TreeNode.of(1): FinSuppVector.basis(0),
        }
        self.psi = TreeMap(FiniteTree(self.psi_values.keys()), self.psi_values, P1)

    def test_two_sigma_window(self):
        box = sigma_tree(self.psi, 30)
        assert 2 * box.lo > Fraction(85, 100)
        assert 2 * box.hi < Fraction(86, 100)

    def test_exact_infimum_is_one(self):
        d = one_node_distance_oracle(
            self.phi.value(TreeNode.of(0)), self.psi.value(TreeNode.of(1))
        )
        assert d == 1
        two_sigma = 2 * sigma_tree(self.psi, 30).hi
        assert d > two_sigma  # the uncorrected bound genuinely fails here

    def test_hypothesis_violation_raised(self):
        with pytest.raises(HypothesisViolatedError):
            distance_bound(self.phi, self.psi, 10)

    def test_rerooted_inequality_holds(self):
        rerooted_values = {
            TreeNode.of(0): rational_vector({0: Fraction(1, 4)}),
            TreeNode.of(0, 0): FinSuppVector.basis(0),
        }
        rerooted = TreeMap(FiniteTree(rerooted_values.keys()), rerooted_values, P1)
        bound = distance_bound(self.phi, rerooted, 25)
        # exact distance: the child must be 0 or (1/4)e_0; nearest is 3/4
        exact = Fraction(3, 4)
        assert exact <= bound.hi
        out = project_to_strong_hom(self.phi, rerooted, 25)
        assert check_strong_hom_exact(out)
        gap = tree_distance(rerooted, out, 25)
        assert norm_power_p(FinSuppVector.basis(0, GaussianRational.of(gap.hi)), P1, 25).lo <= bound.hi + Fraction(1, 2**20)
        print("\nACCEPTANCE 3 PASS: bound counterexample behaves as documented")


class TestCriterion4ProjectionSoundness:
    def test_two_hundred_random_instances(self):
        start = time.time()
        instances = projection_instances(random.Random(77))
        for count, (p, phi, psi) in enumerate(itertools.islice(instances, 200)):
            bound = distance_bound(phi, psi, 24)
            out = project_to_strong_hom(phi, psi, 24)
            assert check_strong_hom_exact(out), f"instance {count}"
            assert out.extends(phi)
            diff = tree_distance(psi, out, 26)
            lhs = pow_enclosure(diff, p, 26)
            assert lhs.hi <= bound.hi + Fraction(1, 2**20), f"instance {count}"
        elapsed = time.time() - start
        print(f"\nACCEPTANCE 4 PASS: 200 projections sound in {elapsed:.1f}s")


class TestCriterion5ApproximateExtension:
    def test_hidden_atom_extension_golden(self):
        start = time.time()
        pres = build_adversarial(CeSet.explicit([1, 3]), P1)
        node = TreeNode.of(0)

        def seed(kk):
            return GenCombo(
                {m + 1: GaussianRational.of(Fraction(1, 2**m)) for m in range(kk + 2)}
            )

        phi = TreeMap(
            FiniteTree([node]),
            {node: ComputableVector(seed, pres, "geometric")},
            P1,
            pres,
        )
        # gamma = 5/8, so (1 - gamma)^(1/p) = 3/8 and N = 2 has 2^-N < 3/8
        n_index = 2
        result = approximate_extend(phi, n_index, 4, pres)
        cert = result.certificate
        assert cert.all_granted()
        si = success_index(result.psi, pres, n_index)
        assert si.value >= n_index
        # independent re-validation of the output through the tree layer
        snapshot = result.psi.transparent_snapshot(12)
        from lpiso.tree_maps import validate_partial_disintegration
        assert validate_partial_disintegration(snapshot).is_yes
        diff = result.psi.value(node) - phi.value(node)
        assert diff.norm_enclosure(8).hi < Fraction(1, 16)
        atom = FinSuppVector.basis(0, GaussianRational.of(Fraction(3, 8)))
        hits = 0
        for n in result.psi.nodes():
            vec = result.psi.value(n).transparent(8)
            if norm_p(vec - atom, P1, 8).hi < Fraction(1, 16):
                hits += 1
        assert hits == 1
        elapsed = time.time() - start
        assert elapsed < 300, f"criterion 5 took {elapsed:.1f}s"
        print(f"\nACCEPTANCE 5 PASS: extension with hidden atom in {elapsed:.1f}s")


class TestCriterion6EndToEndSynthesis:
    def test_eight_units_over_standard(self):
        start = time.time()
        pres = StandardPresentation(P1)
        iso = synthesize_isometry(
            pres, 8, SynthesisBudget(cert_bits=12, generation_bits=8)
        )
        assert not iso.provisional
        assert len(iso) == 8
        # pairwise sigma1 bounds < 2^-10 and unit norms within 2^-10 are
        # enforced at cert_bits = 12 inside the synthesis; re-check norms
        for u in iso.units:
            box = u.vector.norm_enclosure(12)
            assert box.lo >= 1 - Fraction(1, 2**10) and box.hi <= 1 + Fraction(1, 2**10)
        # witnessed generation defects
        assert set(iso.witnesses) == set(range(8))
        # transparently each unit is within 2^-8 of a unimodular multiple of
        # a coordinate vector, all coordinates distinct
        coords = set()
        for u in iso.units:
            snap = u.vector.transparent(12)
            coord = u.atom_coordinate
            assert coord is not None
            lam = snap[coord]
            assert abs(lam.abs_sq() - 1) < Fraction(1, 2**7)
            rest = snap - FinSuppVector.basis(coord, lam)
            assert norm_p(rest, P1, 12).hi < Fraction(1, 2**8)
            coords.add(coord)
        assert len(coords) == 8
        elapsed = time.time() - start
        assert elapsed < 600, f"criterion 6 took {elapsed:.1f}s"
        print(f"\nACCEPTANCE 6 PASS: 8 certified units in {elapsed:.1f}s")


class TestCriterion7OracleReductions:
    def test_compute_e0(self):
        oracle = OracleAdapter(CeSet.explicit([1, 2]), "transparent")
        g = compute_e0_wrt_F(oracle, P32, 10)
        pres = build_adversarial(oracle.ce, P32)
        v = pres.transparent_eval(g, 14)
        assert norm_p(v - FinSuppVector.basis(0), P32, 14).hi < Fraction(1, 2**10)

    def test_recover_scale(self):
        pres = build_adversarial(CeSet.explicit([1]), P1)
        v = ComputableVector.constant(pres.e0_combo(12), pres)
        value = recover_scale_from_atom(v, Fraction(3), 8)
        assert abs(value - 2) <= Fraction(1, 2**8)

    def test_round_trip(self):
        for p, expect in ((P1, Fraction(2)), (P32, Fraction(15874010519681994, 10**16))):
            oracle = OracleAdapter(CeSet.explicit([1]), "transparent")
            g = compute_e0_wrt_F(oracle, p, 10)
            pres = build_adversarial(oracle.ce, p)
            value = recover_scale_from_atom(
                ComputableVector.constant(g, pres), Fraction(3), 9
            )
            assert abs(value - expect) < Fraction(1, 2**8)
        print("\nACCEPTANCE 7 PASS: oracle reductions within tolerance")


class TestCriterion8RecoverP:
    @pytest.mark.parametrize("q", [Fraction(1), Fraction(3, 2), Fraction(3)], ids=["1", "3/2", "3"])
    def test_recover(self, q):
        box = recover_p(StandardPresentation(PExponent.from_fraction(q)), 6)
        assert box.lo <= q <= box.hi
        assert box.width <= Fraction(1, 2**6)
        print(f"\nACCEPTANCE 8 PASS: p={q} recovered within 2^-6")


class TestCriterion9ChainMachinery:
    def test_dyadic_partition_matches_hand_partition(self):
        src = dyadic_fixture(StandardPresentation(P1))
        part = partition_chains(src, stage_budget=8)
        assert part.chains[0][:2] == [ROOT, TreeNode.of(0)]
        for chain in part.chains[1:]:
            assert len(chain) == 1 and len(chain[0]) == 1
            assert chain[0].path[0] >= 1

    def test_five_hundred_randomized_disintegrations(self):
        start = time.time()
        rng = random.Random(99)
        checked = 0
        for _ in range(500):
            src = random_disintegration(rng)
            part = partition_chains(src, stage_budget=64)
            for parent, cert in part.certificates.items():
                kids = src.tree.children(parent)
                exact = {k: norm_power_p(src.values[k], P1, 32) for k in kids}
                best = max(box.mid for box in exact.values())
                slack = Fraction(1, 2 ** (len(cert.child) + 1))
                assert exact[cert.child].mid >= best - slack - Fraction(1, 2**30)
                checked += 1
        elapsed = time.time() - start
        print(f"\nACCEPTANCE 9 PASS: {checked} certified children match brute force in {elapsed:.1f}s")

    def test_m_clamp_never_negative(self):
        rng = random.Random(5)
        for _ in range(200):
            t = rng.randint(0, 12)
            slack = Fraction(1, 2 ** (t + 1))
            # any true power >= 0 reported within the slack contract
            truth = Fraction(rng.randint(0, 64), 16)
            q = truth + Fraction(rng.randint(-99, 99), 100) * slack
            bound = StageBound(TreeNode.of(0), t, q)
            assert bound.m >= 0
            assert bound.m <= truth <= bound.M


class TestCriterion10Determinism:
    def _extension_report(self):
        pres = build_adversarial(CeSet.explicit([1, 3]), P1)
        node = TreeNode.of(0)

        def seed(kk):
            return GenCombo(
                {m + 1: GaussianRational.of(Fraction(1, 2**m)) for m in range(kk + 2)}
            )

        phi = TreeMap(
            FiniteTree([node]),
            {node: ComputableVector(seed, pres, "geometric")},
            P1,
            pres,
        )
        result = approximate_extend(phi, 2, 4, pres)
        payload = result.to_json()
        payload["values"] = {
            str(list(n.path)): result.psi.value(n).approx(8).to_json()
            for n in result.psi.nodes()
        }
        return json.dumps(payload, sort_keys=True)

    def _synthesis_report(self):
        iso = synthesize_isometry(
            StandardPresentation(P1), 6, SynthesisBudget(cert_bits=12, generation_bits=6)
        )
        payload = iso.to_json()
        payload["unit_combos"] = [
            u.vector.approx(10).to_json() for u in iso.units
        ]
        return json.dumps(payload, sort_keys=True)

    def test_extension_reports_byte_identical(self):
        assert self._extension_report() == self._extension_report()

    def test_synthesis_reports_byte_identical(self):
        a = self._synthesis_report()
        b = self._synthesis_report()
        assert a == b
        print("\nACCEPTANCE 10 PASS: repeated runs byte-identical")

    # SHA-256 of the CLI reports (stdout), pinned so that a speed-up that
    # changes a single report byte fails here, not only across two runs
    @pytest.mark.parametrize(
        "argv,digest",
        [
            (
                ["synthesize", "--units", "6", "--pres", '{"type":"standard","p":"1"}'],
                "f9ff4b7d328e3b3d0a8cee8ed7a98c438a5481735c5656dcb7a91cb140e53a4d",
            ),
            (
                [
                    "synthesize", "--units", "4",
                    "--pres", '{"type":"rotated","p":"3/2","zeta":"3/5+4/5i"}',
                ],
                "e3a9734063c7860820cd9ccd445548c7fde4beab927c2a1cc64ab8f15825a15a",
            ),
            (
                [
                    "synthesize", "--units", "4",
                    "--pres",
                    '{"type":"adversarial","p":"1","ce":{"kind":"explicit","elements":[2,5]}}',
                ],
                "6add26b6f68e54aab14a481ea94ba24bd2ce44dbd35b0ea0f2395d224c95fd7a",
            ),
            (
                ["disintegrate", "--stages", "3"],
                "b41c02b828f93115491cbbcf197c132aa32a2f6cada5ce38528cb4df01f2610a",
            ),
        ],
        ids=["standard-p1-u6", "rotated-p3/2-u4", "adversarial-p1-u4", "disintegrate-3"],
    )
    def test_pinned_report_digests(self, argv, digest, capsys):
        assert cli_main(argv) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest
