"""Search machinery: certificates, approximate extension, staged builds."""

import json
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpiso.errors import (
    BudgetExhaustedError,
    HypothesisViolatedError,
    NoBackdoorError,
    NotPartialDisintegrationError,
    PEqualsTwoError,
    PrecisionExhaustedError,
)
from lpiso.lp_vectors import FinSuppVector, norm_p
from lpiso.presentations import (
    AdversarialPresentation,
    CeSet,
    ComputableVector,
    GenCombo,
    RotatedPresentation,
    StandardPresentation,
    bits_for,
    presentation_from_descriptor,
)
from lpiso.scalar_core import GaussianRational, PExponent, _exact_sum
from lpiso.tree_maps import (
    ROOT,
    FiniteTree,
    TreeMap,
    TreeNode,
    distance_bound,
    success_index,
    validate_partial_disintegration,
)
from lpiso import extension_engine, tree_maps
from lpiso.extension_engine import (
    BallCheck,
    Proposal,
    ProposalStructure,
    RationalBall,
    _BuildTable,
    _ledger_hom_upper,
    _pick_radius_bits,
    _triangle_norm_bound,
    approximate_extend,
    build_disintegration,
    build_guided_proposal,
    certify_ball,
    empty_map,
)

from lpiso.iso_cli import main as cli_main

from conftest import OpaqueStandard, staged_only_set

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


def certify(ball, phi, n_index, k, pres, beta, precision=None):
    """certify_ball on a BallCheck of these arguments.  The precision
    defaults to max(n_index + 6, k + 4, bits_for(radius) + 6)."""
    if precision is None:
        precision = max(n_index + 6, k + 4, bits_for(ball.radius) + 6)
    return certify_ball(BallCheck(ball, phi, n_index, k, pres, beta, precision))


def two_node_proposal(second):
    """Nodes (0) and (1) centered on e_0 and second, read at 2^-20;
    (0) covers generator 0."""
    a, b = TreeNode.of(0), TreeNode.of(1)
    tree = FiniteTree([a, b])
    center = {a: GenCombo.single(0), b: second}
    values = {node: FinSuppVector(combo.entries) for node, combo in center.items()}
    return Proposal(
        ProposalStructure(tree, {}, {}, {}, {}, 0), center, identity_beta(1), {}, 20, values
    )


class TestErrorFunctional:
    def test_zero_on_strong_hom(self):
        pres = StandardPresentation(P1)
        psi = atom_ball(pres, 3, Fraction(1, 64)).center_map(pres)
        box = distance_bound(empty_map(pres), psi, 20)
        assert box.contains(0) and box.hi <= Fraction(1, 2**18)

    def test_hypothesis_violation_detected(self):
        pres = StandardPresentation(P1)
        phi_node = TreeNode.of(0)
        phi = TreeMap(
            FiniteTree([phi_node]),
            {phi_node: ComputableVector.constant(GenCombo.single(0), pres)},
            P1,
        )
        bad = atom_ball(pres, 2, Fraction(1, 8)).center_map(pres)
        with pytest.raises(HypothesisViolatedError):
            distance_bound(phi, bad, 10)

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
        )
        box = distance_bound(phi, psi, 20)
        # sigma1(child - parent, child) = sigma1(delta e_9, e_0 + delta e_9) = 2 delta
        # E = 0 + 2^1 * c_1 * 2 delta
        assert box.lo > 0
        expected = 4 * delta * Fraction(85355339059327376220, 10**20)
        assert abs(box.mid - expected) < Fraction(1, 2**12)


class TestCertifyBall:
    def test_atoms_all_flags(self):
        pres = StandardPresentation(P1)
        ball = atom_ball(pres, 4, Fraction(1, 64))
        cert = certify(ball, empty_map(pres), 2, 6, pres, identity_beta(4))
        assert cert.all_granted(need_restriction=False)
        assert cert.restriction  # no base map: trivially granted

    def test_duplicate_nodes_withhold_injectivity(self):
        pres = StandardPresentation(P1)
        nodes = [TreeNode.of(0), TreeNode.of(1)]
        tree = FiniteTree(nodes)
        center = {n: GenCombo.single(0) for n in nodes}
        ball = RationalBall(tree, center, Fraction(1, 64))
        cert = certify(ball, empty_map(pres), 1, 6, pres, identity_beta(1))
        assert not cert.injective_nonzero

    def test_huge_radius_withholds_injectivity(self):
        pres = StandardPresentation(P1)
        ball = atom_ball(pres, 3, Fraction(2, 1))
        cert = certify(ball, empty_map(pres), 1, 4, pres, identity_beta(3))
        assert not cert.injective_nonzero


class TestBallConstraints:
    """certify_ball and _pick_radius_bits read one list of inequalities."""

    @pytest.mark.parametrize(
        "make_pres",
        [
            lambda: StandardPresentation(P32),
            lambda: RotatedPresentation(P3, GaussianRational.parse("3/5+4/5i")),
            lambda: AdversarialPresentation(CeSet.explicit([1, 3]), P1),
        ],
        ids=["standard-p3/2", "rotated-p3", "adversarial-p1"],
    )
    def test_picked_radius_is_certified(self, make_pres):
        # the radius leaves each slack a margin at the snapshot precision,
        # so the certificate read at that precision grants every flag
        pres = make_pres()
        stage = build_disintegration(pres, 1).last()
        phi, n, k = stage.phi_hat, 1, stage.ball_bits + 1
        proposal = build_guided_proposal(phi, n, k, pres, 0, force_growth=True)
        bits = _pick_radius_bits(proposal, phi, n, k, pres)
        ball = RationalBall(proposal.structure.tree, proposal.center, Fraction(1, 2**bits))
        cert = certify(ball, phi, n + 1, k, pres, proposal.beta, proposal.snapshot_prec)
        assert cert.injective_nonzero
        assert cert.summativity
        assert cert.distance
        assert cert.restriction

    @staticmethod
    def separation_minimum(pres, ball, prec):
        nodes = ball.tree.nonroot_nodes()
        gaps = [pres.norm_enclosure(ball.center[a], prec).lo - ball.radius for a in nodes]
        gaps += [
            pres.norm_enclosure(ball.center[a] - ball.center[b], prec).lo - 2 * ball.radius
            for i, a in enumerate(nodes)
            for b in nodes[i + 1 :]
        ]
        return min(gaps)

    def test_failing_separation_margin_is_the_family_minimum(self):
        pres = StandardPresentation(P1)
        nodes = [TreeNode.of(0), TreeNode.of(1)]
        duplicate = RationalBall(
            FiniteTree(nodes), {n: GenCombo.single(0) for n in nodes}, Fraction(1, 64)
        )
        huge = atom_ball(pres, 3, Fraction(2, 1))
        for ball, n_index, k, count in ((duplicate, 1, 6, 1), (huge, 1, 4, 3)):
            cert = certify(ball, empty_map(pres), n_index, k, pres, identity_beta(count))
            assert not cert.injective_nonzero
            expected = self.separation_minimum(pres, ball, cert.precision)
            assert Fraction(cert.margins["separation"]) == expected
        # at radius 2 the pairwise gaps, checked after a node norm has
        # already failed, hold the minimum
        assert expected == Fraction(-1025, 512)

    def test_granted_certificate_json(self):
        pres = StandardPresentation(P1)
        ball = atom_ball(pres, 4, Fraction(1, 64))
        cert = certify(ball, empty_map(pres), 2, 6, pres, identity_beta(4))
        assert cert.to_json() == {
            "radius": "1/64",
            "precision": 12,
            "flags": {
                "injective_nonzero": True,
                "summativity": True,
                "distance": True,
                "restriction": True,
                "meets_hom": True,
            },
            "margins": {
                "distance": "64390955007/274877906944",
                "hom_gap": "1800896251288389929/115262426632037747264",
                "hom_upper": "1236950581248/1800975416125589801",
                "separation": "8063/8192",
                "summativity": "1/4",
            },
        }

    def test_norm_queries_live_in_the_constraint_list(self):
        """Neither pass writes out an inequality of its own."""
        import inspect

        for fn in (certify_ball, _pick_radius_bits):
            assert "norm_enclosure" not in inspect.getsource(fn), fn.__name__


class TestApproximateExtend:
    def test_from_empty_standard(self):
        pres = StandardPresentation(P1)
        res = approximate_extend(empty_map(pres), 1, 4, pres)
        norms = [res.phi_hat.value(n).norm_enclosure(6) for n in res.phi_hat.nodes()]
        assert all(box.lo > 1 - Fraction(1, 16) and box.hi < 1 + Fraction(1, 16) for box in norms)
        assert success_index(res.phi_hat, pres, 2).value >= 2
        assert certify_ball(res.accepted).all_granted(need_restriction=False)

    def test_criterion_five_shape(self):
        # geometric seed over the adversarial presentation of {1, 3} at p = 1
        pres = AdversarialPresentation(CeSet.explicit([1, 3]), P1)
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
            {node: ComputableVector(seed, pres)},
            P1,
        )
        res = approximate_extend(phi, 2, 4, pres)
        assert success_index(res.phi_hat, pres, 2).value >= 2
        # restriction stays within 2^-4 of the seed
        diff = res.phi_hat.value(node) - phi.value(node)
        assert diff.norm_enclosure(8).hi < Fraction(1, 16)
        # one node is transparently the hidden atom (1 - gamma) e_0 = (3/8) e_0
        atom = FinSuppVector.basis(0, GaussianRational.of(Fraction(3, 8)))
        found = False
        for n in res.phi_hat.nodes():
            vec = res.phi_hat.value(n).transparent(8)
            if norm_p(vec - atom, P1, 8).hi < Fraction(1, 16):
                found = True
        assert found

    def test_determinism(self):
        pres = StandardPresentation(P1)
        a = approximate_extend(empty_map(pres), 1, 4, pres)
        b = approximate_extend(empty_map(StandardPresentation(P1)), 1, 4, StandardPresentation(P1))
        assert a.phi_hat.tree.to_json() == b.phi_hat.tree.to_json()
        assert certify_ball(a.accepted).to_json() == certify_ball(b.accepted).to_json()
        for n in a.phi_hat.nodes():
            assert a.phi_hat.value(n).approx(8).entries == b.phi_hat.value(n).approx(8).entries


class TestBuildDisintegration:
    def test_stage_zero_only(self):
        pres = StandardPresentation(P1)
        staged = build_disintegration(pres, 0)
        assert staged.stage_count() == 1
        rec = staged.last()
        assert rec.phi_hat.nodes() == [TreeNode.of(0)]
        assert rec.phi_hat.value(TreeNode.of(0)).approx(4) == GenCombo.single(0)

    def test_stage_zero_reads_its_generator_once(self):
        # the search's enclosure of f_0 also sets stage 0's ball bits
        class CountingStandard(StandardPresentation):
            queries = 0

            def norm_approx(self, combo, k):
                self.queries += 1
                return super().norm_approx(combo, k)

        pres = CountingStandard(P1)
        staged = build_disintegration(pres, 0)
        assert pres.queries == 1
        # bits_for(lo / 2), lo the enclosure's lower end, just below ||f_0|| = 1
        assert staged.last().ball_bits == 2

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
        pres = AdversarialPresentation(CeSet.explicit([1]), P1)
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


class TestPairLedger:
    """Pair bounds carried from stage to stage: read only while both exact
    centers are unchanged, and never in a printed certificate."""

    def test_sigma_pair_growth_is_below_cubic(self, monkeypatch, capsys):
        # re-certifying every pair at every stage made 120, 816 and 5984
        # calls at 8, 16 and 32 units: a ratio of 7.3 per doubling
        calls = []
        inner = tree_maps._sigma1_pair

        def counted(*args):
            calls.append(1)
            return inner(*args)

        monkeypatch.setattr(tree_maps, "_sigma1_pair", counted)
        counts = {}
        for units in (8, 16, 32):
            calls.clear()
            assert cli_main(["synthesize", "--units", str(units)]) == 0
            counts[units] = len(calls)
        capsys.readouterr()
        assert counts[32] / counts[16] < 6, counts

    def test_hom_read_evaluates_o_n_new_terms_per_stage(self, monkeypatch):
        # outside stale rounds, a stage's hom reads evaluate at most one pair
        # term per non-root node: the pairs that touch the new node.  A
        # 16-stage flat build evaluates n terms at stage n and re-reads stale
        # terms in one round (45 pairs, at the tenth extension).  With the
        # build table the stage's other walks are O(n) too: the radius
        # pick looks up only the pairs that touch a new node, and the
        # proposal projects nothing and validates only the pairs that hold
        # a new node, once stage 1 has validated its map in full
        stages, stale_rounds = [], []
        calls = {"round": 0, "pick": False}
        extend = extension_engine._extend
        hom_upper = extension_engine._ledger_hom_upper
        pair_terms = extension_engine.sigma_pair_terms
        pick = extension_engine._pick_radius_bits
        lookup = _BuildTable.entry
        project = extension_engine.project_to_strong_hom
        validated_pairs = tree_maps.index_pairs

        def staged(*args, **kwargs):
            stages.append(
                {"terms": 0, "nodes": None, "lookups": 0, "projected": 0, "validated": 0}
            )
            return extend(*args, **kwargs)

        def hom_read(ball, pres, prec, table):
            calls["round"] = 0
            stages[-1]["nodes"] = len(ball.tree.nonroot_nodes())
            return hom_upper(ball, pres, prec, table)

        def evaluated(psi, pairs, kk):
            # a hom read's first evaluation takes its new pairs; a second
            # re-reads its stale ones
            if calls["round"] == 0:
                stages[-1]["terms"] += len(pairs)
            else:
                stale_rounds.append(len(pairs))
            calls["round"] += 1
            return pair_terms(psi, pairs, kk)

        def picked(*args):
            calls["pick"] = True
            try:
                return pick(*args)
            finally:
                calls["pick"] = False

        def looked_up(table, i, j):
            if calls["pick"]:
                stages[-1]["lookups"] += 1
            return lookup(table, i, j)

        def projected(phi, psi, k):
            stages[-1]["projected"] += len(psi.nodes())
            return project(phi, psi, k)

        def pairs_validated(count, fresh=None):
            for pair in validated_pairs(count, fresh):
                stages[-1]["validated"] += 1
                yield pair

        monkeypatch.setattr(extension_engine, "_extend", staged)
        monkeypatch.setattr(extension_engine, "_ledger_hom_upper", hom_read)
        monkeypatch.setattr(extension_engine, "sigma_pair_terms", evaluated)
        monkeypatch.setattr(extension_engine, "_pick_radius_bits", picked)
        monkeypatch.setattr(_BuildTable, "entry", looked_up)
        monkeypatch.setattr(extension_engine, "project_to_strong_hom", projected)
        monkeypatch.setattr(tree_maps, "index_pairs", pairs_validated)
        build_disintegration(StandardPresentation(P1), 16)
        assert len(stages) == 16
        assert all(st["terms"] <= st["nodes"] for st in stages), stages
        assert len(stale_rounds) <= 2, stale_rounds
        assert all(st["lookups"] <= st["nodes"] for st in stages), stages
        assert stages[0]["projected"] == 1  # stage 0's one node, not yet validated
        assert all(st["projected"] == 0 for st in stages[1:]), stages
        # each validated pair is walked twice: for shared support and for
        # a repeated value
        assert all(st["validated"] <= 2 * st["nodes"] for st in stages), stages

    @pytest.mark.parametrize(
        "make_pres, stages",
        [
            (lambda: StandardPresentation(P1), 12),
            (lambda: StandardPresentation(P32), 10),
            (lambda: StandardPresentation(P3), 8),
            (lambda: RotatedPresentation(P3, GaussianRational.parse("3/5+4/5i")), 8),
        ],
        ids=["standard-p1", "standard-p3/2", "standard-p3", "rotated-p3"],
    )
    def test_carried_build_decides_as_a_cleared_one(self, monkeypatch, make_pres, stages):
        # every stage's picked radius, hom bound, projected map and verdict
        # are those of a build that clears the table's carried state before
        # each stage: no core, running sum or least gap, and no validated
        # map, so every pair is walked with its own bounds, and the proposal
        # projects and validates every node
        extend = extension_engine._extend
        pick = extension_engine._pick_radius_bits
        hom_upper = extension_engine._ledger_hom_upper
        truncated = extension_engine._truncated_hom
        validate = extension_engine.validate_partial_disintegration

        def run(clear):
            log = []

            def staged(phi, n_index, k, pres, table, **kwargs):
                log.append([])
                if clear:
                    table.core.clear()
                    table.sigma_sum, table.least_gap, table.validated = Fraction(0), None, None
                return extend(phi, n_index, k, pres, table, **kwargs)

            def picked(*args):
                log[-1].append(("radius_bits", pick(*args)))
                return log[-1][-1][1]

            def hom_read(*args):
                log[-1].append(("hom_upper", hom_upper(*args)))
                return log[-1][-1][1]

            def projected(*args):
                chi, carried = truncated(*args)
                log[-1].append(("chi", chi.values))
                return chi, carried

            def verdict(*args):
                log[-1].append(("verdict", validate(*args).status))
                return validate(*args)

            monkeypatch.setattr(extension_engine, "_extend", staged)
            monkeypatch.setattr(extension_engine, "_pick_radius_bits", picked)
            monkeypatch.setattr(extension_engine, "_ledger_hom_upper", hom_read)
            monkeypatch.setattr(extension_engine, "_truncated_hom", projected)
            monkeypatch.setattr(extension_engine, "validate_partial_disintegration", verdict)
            build_disintegration(make_pres(), stages)
            return log

        carried, cleared = run(False), run(True)
        assert len(carried) == stages
        assert carried == cleared

    def test_moved_center_bumps_its_version(self, monkeypatch):
        # three settled atoms; (2) then moves onto 2 e_2: its version changes,
        # it leaves the core, and only its two pairs are read again
        pres = StandardPresentation(P1)
        nodes = [TreeNode.of(m) for m in range(3)]
        phi, n_index, k = empty_map(pres), 0, 4

        def proposal(center):
            values = {node: FinSuppVector(combo.entries) for node, combo in center.items()}
            structure = ProposalStructure(FiniteTree(nodes), {}, {}, {}, {}, 0)
            return Proposal(structure, center, identity_beta(1), {}, 20, values)

        table = _BuildTable()
        first = {node: GenCombo.single(m) for m, node in enumerate(nodes)}
        bits = _pick_radius_bits(proposal(first), phi, n_index, k, pres, table)
        _ledger_hom_upper(RationalBall(FiniteTree(nodes), first, Fraction(1, 2**bits)), pres, 20, table)
        table.settle(nodes, first)
        ids = [table.ids[node] for node in nodes]
        assert table.core == set(ids)
        assert table.sigma_sum == _exact_sum(
            [table.entry(i, j).sigma_hi for i, j in ((0, 1), (0, 2), (1, 2))]
        )

        gap_reads, evaluated = [], []
        enclosure = pres.norm_enclosure
        pair_terms = extension_engine.sigma_pair_terms

        def spy(combo, prec):
            if len(combo.entries) == 2:  # a difference of two atoms
                gap_reads.append(sorted(combo.entries))
            return enclosure(combo, prec)

        def terms(psi, pairs, kk):
            evaluated.extend(pairs)
            return pair_terms(psi, pairs, kk)

        monkeypatch.setattr(pres, "norm_enclosure", spy)
        monkeypatch.setattr(extension_engine, "sigma_pair_terms", terms)
        moved = dict(first)
        moved[nodes[2]] = GenCombo({2: GaussianRational.of(2)})
        bits = _pick_radius_bits(proposal(moved), phi, n_index, k, pres, table)
        assert [table.versions[i] for i in ids] == [0, 0, 1]
        assert table.core == set(ids[:2])
        assert table.sigma_sum == table.entry(ids[0], ids[1]).sigma_hi
        assert gap_reads == [[0, 2], [1, 2]]
        ball = RationalBall(FiniteTree(nodes), moved, Fraction(1, 2**bits))
        bound = _ledger_hom_upper(ball, pres, 20, table)
        assert evaluated == [(nodes[0], nodes[2]), (nodes[1], nodes[2])]
        assert bound == _ledger_hom_upper(ball, pres, 20, _BuildTable())

    def test_carried_bounds_sum_exactly(self):
        # the hom read sums dyadic bounds as one integer: the same rational
        dyadic = [Fraction(3, 8), Fraction(-5, 2**70), Fraction(7), Fraction(1, 2**3000)]
        mixed = dyadic + [Fraction(1, 3)]
        for values in (dyadic, mixed, dyadic[:1], []):
            assert _exact_sum(values) == sum(values, Fraction(0))
            assert type(_exact_sum(values)) is Fraction

    def test_moved_center_is_not_reused(self):
        # the bounds carried for (0) on e_0 and (1) on e_1, a gap near 2
        # and a sigma1 term near 0, would pass (1) moved onto e_0 + e_1,
        # which is not disjoint from e_0, and onto e_0 itself
        pres = StandardPresentation(P1)
        a, b = TreeNode.of(0), TreeNode.of(1)
        phi, n_index, k = empty_map(pres), 0, 4
        table = _BuildTable()

        def hom_upper(proposal, bits, table):
            ball = RationalBall(proposal.structure.tree, proposal.center, Fraction(1, 2**bits))
            return _ledger_hom_upper(ball, pres, 20, table)

        def stored():
            # the bounds held for the pair, whatever versions they are for
            return table.pairs[(table.ids[a], table.ids[b])]

        disjoint = two_node_proposal(GenCombo.single(1))
        bits = _pick_radius_bits(disjoint, phi, n_index, k, pres, table)
        assert hom_upper(disjoint, bits, table) < Fraction(1, 2**bits) / 4
        assert stored().gap_lo > 1 and stored().sigma_hi is not None

        overlap = two_node_proposal(GenCombo.single(0) + GenCombo.single(1))
        bits = _pick_radius_bits(overlap, phi, n_index, k, pres, table)
        assert bits == _pick_radius_bits(overlap, phi, n_index, k, pres)
        carried = hom_upper(overlap, bits, table)
        assert carried == hom_upper(overlap, bits, _BuildTable()) >= Fraction(1, 2**bits) / 4

        coincident = two_node_proposal(GenCombo.single(0))
        skip_above = Fraction(1, 2**20) + 4 * Fraction(1, 2 ** (k + 1))
        assert stored().gap_lo > skip_above  # a gap the pick would skip
        assert _pick_radius_bits(coincident, phi, n_index, k, pres, table) is None

    @pytest.mark.parametrize(
        "make_pres",
        [
            lambda: StandardPresentation(P1),
            lambda: RotatedPresentation(P3, GaussianRational.parse("3/5+4/5i")),
            lambda: AdversarialPresentation(CeSet.explicit([2, 5]), P1),
        ],
        ids=["standard-p1", "rotated-p3", "adversarial-p1"],
    )
    def test_ledger_decides_as_the_full_pass(self, monkeypatch, make_pres):
        # every tried ball: the search accepts it exactly when the full
        # certificate grants every flag with hom_upper below a quarter radius
        pick, hom_upper = extension_engine._pick_radius_bits, extension_engine._ledger_hom_upper
        picked, decisions = [], []

        def recording_pick(proposal, phi, n_index, k, pres, table=None):
            picked.append((proposal, phi, n_index, k))
            return pick(proposal, phi, n_index, k, pres, table)

        def checked(ball, pres, prec, table):
            bound = hom_upper(ball, pres, prec, table)
            proposal, phi, n_index, k = picked[-1]
            assert ball.center is proposal.center
            full = certify(ball, phi, n_index + 1, k, pres, proposal.beta, prec)
            granted = full.all_granted(need_restriction=not phi.is_empty)
            full_accepts = granted and full.margins["hom_upper"] < ball.radius / 4
            decisions.append((bound < ball.radius / 4, full_accepts))
            return bound

        monkeypatch.setattr(extension_engine, "_pick_radius_bits", recording_pick)
        monkeypatch.setattr(extension_engine, "_ledger_hom_upper", checked)
        build_disintegration(make_pres(), 8)
        assert len(decisions) >= 8
        assert all(search == full for search, full in decisions), decisions

    def test_carried_gap_that_binds_is_read(self, monkeypatch):
        # two centers 2^-10 apart: their gap is the least slack, so a
        # carried bound on it must not stand in for the read
        pres = StandardPresentation(P1)
        a, b = TreeNode.of(0), TreeNode.of(1)
        delta = Fraction(1, 2**10)
        proposal = two_node_proposal(
            GenCombo({0: GaussianRational.one(), 1: GaussianRational.of(delta)})
        )
        phi, n_index, k = empty_map(pres), 0, 4
        full = _pick_radius_bits(proposal, phi, n_index, k, pres)
        assert full > k + 2  # below the 2^-(k+1) cap: the gap binds

        table = _BuildTable()
        assert _pick_radius_bits(proposal, phi, n_index, k, pres, table) == full
        assert 0 < table.entry(table.ids[a], table.ids[b]).gap_lo < delta
        assert _pick_radius_bits(proposal, phi, n_index, k, pres, table) == full

        # settled into the core, the pair holds the least core gap, which is
        # below the bar: the pick walks every pair again, reads this gap and
        # re-derives the least core gap from it
        ball = RationalBall(proposal.structure.tree, proposal.center, Fraction(1, 2**full))
        _ledger_hom_upper(ball, pres, 20, table)
        table.settle([a, b], proposal.center)
        entry = table.entry(table.ids[a], table.ids[b])
        assert table.least_gap == entry.gap_lo
        diff = proposal.center[a] - proposal.center[b]
        reads = []
        enclosure = pres.norm_enclosure

        def spy(combo, prec):
            reads.append(combo == diff)
            return enclosure(combo, prec)

        monkeypatch.setattr(pres, "norm_enclosure", spy)
        assert _pick_radius_bits(proposal, phi, n_index, k, pres, table) == full
        assert reads.count(True) == 1
        assert table.least_gap == entry.gap_lo

    @pytest.mark.parametrize(
        "make_pres",
        [
            lambda: StandardPresentation(P1),
            lambda: RotatedPresentation(P3, GaussianRational.parse("3/5+4/5i")),
            lambda: AdversarialPresentation(CeSet.explicit([2, 5]), P1),
        ],
        ids=["standard-p1", "rotated-p3", "adversarial-p1"],
    )
    def test_radius_bits_match_without_the_ledger(self, monkeypatch, make_pres):
        pick = extension_engine._pick_radius_bits
        picks = []

        def checked(proposal, phi, n_index, k, pres, table=None):
            bits = pick(proposal, phi, n_index, k, pres, table)
            if table is not None:
                picks.append((bits, pick(proposal, phi, n_index, k, pres)))
            return bits

        monkeypatch.setattr(extension_engine, "_pick_radius_bits", checked)
        build_disintegration(make_pres(), 8)
        assert len(picks) >= 8
        assert all(carried == full for carried, full in picks)

    @pytest.mark.parametrize(
        "descriptor",
        [
            {"type": "standard", "p": "1"},
            {"type": "rotated", "p": "3/2", "zeta": "3/5+4/5i"},
            {"type": "adversarial", "p": "1", "ce": {"kind": "explicit", "elements": [2, 5]}},
        ],
        ids=["standard-p1", "rotated-p3/2", "adversarial-p1"],
    )
    def test_printed_certificates_are_the_full_pass(self, capsys, descriptor):
        assert cli_main(["disintegrate", "--stages", "5", "--pres", json.dumps(descriptor)]) == 0
        printed = json.loads(capsys.readouterr().out)["result"]["stages"]
        pres = presentation_from_descriptor(descriptor)
        staged = build_disintegration(pres, 5)
        assert printed[0]["certificate"] is None
        for rec, stage in zip(staged.stages[1:], printed[1:]):
            rerun = certify_ball(rec.accepted).to_json()
            assert all(rerun["flags"].values())
            assert stage["certificate"] == rerun


class TestCertificateSoundness:
    def test_in_ball_sampling(self):
        # every transparent sample from a certified ball passes the exact or
        # interval test behind each granted flag
        import random

        rng = random.Random(13)
        pres = StandardPresentation(P1)
        ball = atom_ball(pres, 3, Fraction(1, 64))
        n_index = 2
        cert = certify(ball, empty_map(pres), n_index, 6, pres, identity_beta(3))
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
        )
        with pytest.raises(NotPartialDisintegrationError):
            approximate_extend(dup, 1, 4, pres)


class TestOpaqueVerdicts:
    """An opaque map is refuted only through a certified sigma defect; any
    other opaque map is left undecided, with no witness text."""

    def test_adversarial_stages_are_undecided(self):
        staged = build_disintegration(AdversarialPresentation(CeSet.explicit([1]), P32), 1)
        for stage in staged.stages:
            verdict = validate_partial_disintegration(stage.phi_hat)
            assert verdict.status == "undecided" and verdict.witness is None

    def test_a_zero_node_is_undecided_and_not_extended(self):
        # no norm enclosure certifies 0, so the zero node is not refuted;
        # the search then finds no certifiable extension
        pres = StandardPresentation(P1)
        nodes = [TreeNode.of(0), TreeNode.of(1)]
        values = [GenCombo.single(0), GenCombo({})]
        phi = TreeMap(
            FiniteTree(nodes),
            {n: ComputableVector.constant(v, pres) for n, v in zip(nodes, values)},
            P1,
        )
        verdict = validate_partial_disintegration(phi)
        assert verdict.status == "undecided" and verdict.witness is None
        with pytest.raises(BudgetExhaustedError):
            approximate_extend(phi, 1, 4, pres)


class TestNoBackdoor:
    """A backdoor read answers or raises NoBackdoorError, and the extension
    search raises at its first one, before it queries the oracle."""

    def test_a_norm_only_presentation_refuses_every_backdoor_read(self):
        pres = OpaqueStandard(P1)
        reads = [
            lambda: pres.transparent_eval(GenCombo.single(0), 4),
            lambda: pres.generator_vector(0, 4),
            lambda: pres.generator_tail_norm_bound(0, 0),
            lambda: pres.encode_vector(FinSuppVector.basis(0), 4),
        ]
        for read in reads:
            with pytest.raises(NoBackdoorError, match="has no transparent backdoor"):
                read()
        assert pres.queries == 0
        assert not pres.exact_arithmetic and pres.generator_atom(0) is None

    def test_a_set_without_membership_answers_the_reads_that_need_none(self):
        pres = AdversarialPresentation(staged_only_set(), P1)
        assert pres.transparent_eval(GenCombo.single(1), 4) == FinSuppVector.basis(1)
        assert pres.encode_vector(FinSuppVector.basis(2), 4) == GenCombo.single(2)
        assert pres.generator_tail_norm_bound(1, 0) == 1
        assert pres.generator_tail_norm_bound(0, -1) == 1

    @pytest.mark.parametrize(
        "read",
        [
            lambda pres: pres.transparent_eval(GenCombo.single(0), 4),
            lambda pres: pres.encode_vector(FinSuppVector.basis(0), 4),
            lambda pres: pres.generator_tail_norm_bound(0, 0),
            lambda pres: pres.e0_combo(4),
            lambda pres: build_disintegration(pres, 1),
        ],
        ids=["transparent-eval", "encode-vector", "tail-bound", "e0-combo", "extension"],
    )
    def test_a_set_without_membership_refuses_the_reads_that_need_it(self, read):
        pres = AdversarialPresentation(staged_only_set(), P1)
        with pytest.raises(NoBackdoorError, match="gamma needs decidable membership"):
            read(pres)

    def test_approximate_extend_raises_up_front(self):
        pres = OpaqueStandard(P1)
        with pytest.raises(NoBackdoorError):
            approximate_extend(empty_map(pres), 1, 4, pres)
        assert pres.queries == 0

    def test_build_disintegration_raises(self):
        pres = OpaqueStandard(P1)
        # stage 0 needs only the norm oracle; the first extension needs more
        assert build_disintegration(pres, 0).stage_count() == 1
        with pytest.raises(NoBackdoorError):
            build_disintegration(pres, 1)


class TestStagesStayValid:
    """build_disintegration extends each stage without re-validating it;
    validation must indeed never refute a stage the builder produced."""

    @pytest.mark.parametrize(
        "make_pres",
        [
            lambda: StandardPresentation(P32),
            lambda: RotatedPresentation(P3, GaussianRational.parse("3/5+4/5i")),
            lambda: AdversarialPresentation(CeSet.explicit([1, 3]), P1),
        ],
        ids=["standard-p3/2", "rotated-p3", "adversarial-p1"],
    )
    def test_no_stage_refuted(self, make_pres):
        staged = build_disintegration(make_pres(), 4)
        assert staged.stage_count() == 5
        for index, rec in enumerate(staged.stages):
            assert not validate_partial_disintegration(rec.phi_hat).is_no, index


class TestBackdoorReads:
    """A proposal round reads the backdoor once and hands the reads on."""

    @pytest.mark.parametrize(
        "make_pres",
        [
            lambda: StandardPresentation(P32),
            lambda: RotatedPresentation(P3, GaussianRational.parse("3/5+4/5i")),
            lambda: AdversarialPresentation(CeSet.explicit([1, 3]), P1),
        ],
        ids=["standard-p3/2", "rotated-p3", "adversarial-p1"],
    )
    def test_one_read_per_round(self, make_pres, monkeypatch):
        pres = make_pres()
        stage = build_disintegration(pres, 2).last()
        phi, n, k = stage.phi_hat, 2, stage.ball_bits + 1
        counts = {"snapshot": 0, "projection": 0}
        generator_reads = []
        snapshot = TreeMap.transparent_snapshot
        project = extension_engine.project_to_strong_hom
        generator_vector = pres.generator_vector

        def counting_snapshot(self, prec):
            counts["snapshot"] += 1
            return snapshot(self, prec)

        def counting_project(*args):
            counts["projection"] += 1
            return project(*args)

        def recording_generator_vector(j, prec):
            generator_reads.append((j, prec))
            return generator_vector(j, prec)

        monkeypatch.setattr(TreeMap, "transparent_snapshot", counting_snapshot)
        monkeypatch.setattr(extension_engine, "project_to_strong_hom", counting_project)
        monkeypatch.setattr(pres, "generator_vector", recording_generator_vector)
        proposal = build_guided_proposal(phi, n, k, pres, 0, force_growth=True)
        assert proposal is not None
        assert counts == {"snapshot": 1, "projection": 1}
        assert len(generator_reads) == len(set(generator_reads))
        assert {j for j, _ in generator_reads} <= set(range(n + 1))

    def test_one_structure_pass_per_refinement_step(self, monkeypatch):
        pres = AdversarialPresentation(CeSet.explicit([1]), P32)
        res = approximate_extend(empty_map(pres), 1, 4, pres)
        assert not pres.exact_arithmetic
        counts = {"snapshot": 0, "projection": 0, "structure": 0}
        snapshot = TreeMap.transparent_snapshot
        project = extension_engine.project_to_strong_hom
        structure = extension_engine._values_on_structure

        def counting(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(TreeMap, "transparent_snapshot", counting("snapshot", snapshot))
        monkeypatch.setattr(
            extension_engine, "project_to_strong_hom", counting("projection", project)
        )
        monkeypatch.setattr(
            extension_engine, "_values_on_structure", counting("structure", structure)
        )
        res.phi_hat.value(res.phi_hat.nodes()[0]).approx(24)
        assert counts["structure"] >= 1
        assert counts["snapshot"] == counts["projection"] == counts["structure"]


class TestGuidedProposalValidation:
    """A round validates its proposal map once; that check also refutes a
    projection with a zero or a repeated value, whose values the map keeps."""

    @pytest.mark.parametrize("fault", [None, "zero", "repeated"])
    def test_one_validation_refutes_a_bad_projection(self, monkeypatch, fault):
        pres = StandardPresentation(P1)
        stage = build_disintegration(pres, 2).last()
        phi, n, k = stage.phi_hat, 2, stage.ball_bits + 1
        truncated = extension_engine._truncated_hom
        validate = extension_engine.validate_partial_disintegration
        verdicts = []

        def faulty(snap, level, pres_, prec, validated=None):
            chi, carried = truncated(snap, level, pres_, prec, validated)
            if fault is None:
                return chi, carried
            nodes = chi.nodes()
            values = {node: chi.value(node) for node in nodes}
            values[nodes[-1]] = FinSuppVector.zero() if fault == "zero" else values[nodes[0]]
            return TreeMap(chi.tree, values, chi.p), carried

        def recording(psi, fresh=None):
            verdicts.append(validate(psi, fresh))
            return verdicts[-1]

        monkeypatch.setattr(extension_engine, "_truncated_hom", faulty)
        monkeypatch.setattr(extension_engine, "validate_partial_disintegration", recording)
        proposal = build_guided_proposal(phi, n, k, pres, 0, force_growth=True)
        assert len(verdicts) == 1
        assert (proposal is None) is verdicts[0].is_no is (fault is not None)


def _record_step_gap_reads(monkeypatch, pres, on_read):
    """Call on_read(diff, prec, hi) for every norm read that a refinement
    step's gap check makes on pres: a norm_enclosure call made straight
    from _refined_values' ensure."""
    enclosure = pres.norm_enclosure

    def spy(combo, k):
        box = enclosure(combo, k)
        if sys._getframe(1).f_code.co_name == "ensure":
            on_read(combo, k, box.hi)
        return box

    monkeypatch.setattr(pres, "norm_enclosure", spy)


def _spy_refinement(monkeypatch, pres):
    """Log every _refined_values call from here on, in call order, as
    (snapshot_prec, ball, attempts), each attempt a [prec, center, gap
    reads] list.  A step's gap reads follow the snapshot it derived and
    come before the next snapshot, so each read goes to the latest
    attempt."""
    runs, owners, latest = [], {}, []
    refined_values = extension_engine._refined_values
    on_structure = extension_engine._values_on_structure

    def spy_refined(proposal, phi, pres_, ball):
        runs.append((proposal.snapshot_prec, ball, []))
        # holding the proposal keeps its structure's id from being reused
        owners[id(proposal.structure)] = (proposal, runs[-1][2])
        return refined_values(proposal, phi, pres_, ball)

    def spy_structure(structure, chi, gens, pres_, prec):
        values, center = on_structure(structure, chi, gens, pres_, prec)
        if id(structure) in owners:
            attempts = owners[id(structure)][1]
            attempts.append([prec, center, []])
            latest[:] = [attempts[-1]]
        return values, center

    monkeypatch.setattr(extension_engine, "_refined_values", spy_refined)
    monkeypatch.setattr(extension_engine, "_values_on_structure", spy_structure)
    _record_step_gap_reads(monkeypatch, pres, lambda *read: latest[0][2].append(read))
    return runs


def _refine_everything(monkeypatch, pres, stages, top_k):
    """Build `stages` stages over pres, then read approx(k) of every refined
    value for k <= top_k, up to its first error.

    Returns (reads, errors, runs): reads[stage][node] lists the
    approximations read, errors[stage][node] the first error's message or
    None, and runs is _spy_refinement's log."""
    runs = _spy_refinement(monkeypatch, pres)
    staged = build_disintegration(pres, stages)
    reads, errors = [], []
    for rec in staged.stages[1:]:
        reads.append({})
        errors.append({})
        for node in rec.phi_hat.nodes():
            vec, got = rec.phi_hat.value(node), []
            errors[-1][node] = None
            for k in range(top_k + 1):
                try:
                    got.append(vec.approx(k))
                except PrecisionExhaustedError as exc:
                    errors[-1][node] = str(exc)
                    break
            reads[-1][node] = got
    return reads, errors, runs


class TestVanishedAtomEntry:
    """A refinement step keeps the pinned skeleton, but the projection of a
    finer snapshot may zero an atom entry it names: the residual node's
    witness skips that atom, and its value keeps the coordinate."""

    def test_residual_keeps_a_coordinate_whose_atom_vanished(self):
        pres = StandardPresentation(P1)
        carrier, atom0, atom1, residual = (
            TreeNode.of(0), TreeNode.of(0, 2), TreeNode.of(0, 3), TreeNode.of(9)
        )
        # the skeleton split (0) into atoms on coordinates 0 and 1; the
        # finer projection kept only coordinate 0
        chi = TreeMap(FiniteTree([carrier]), {carrier: FinSuppVector.basis(0)}, P1)
        structure = ProposalStructure(
            tree=FiniteTree([carrier, atom0, atom1, residual]),
            atom_nodes={atom0: (carrier, 0), atom1: (carrier, 1)},
            fresh_atoms={},
            residual_nodes={residual: 0},
            atom_holders={0: atom0, 1: atom1},
            level=1,
        )
        three, five = GaussianRational.of(3), GaussianRational.of(5)
        gens = {0: FinSuppVector({0: three, 1: five})}
        values, center = extension_engine._values_on_structure(structure, chi, gens, pres, 20)
        assert values[atom1].is_zero()
        assert values[residual] == FinSuppVector({1: five})
        assert center[residual] == GenCombo.single(0) - center[atom0].scale(three)


class TestInexactRefinement:
    """The adversarial presentation at p = 3/2 has irrational encodings, so
    proposals are only near the homomorphisms and outputs are genuine
    refinement limits rather than constants."""

    def test_staged_build_and_success(self):
        pres = AdversarialPresentation(CeSet.explicit([1]), P32)
        res = approximate_extend(empty_map(pres), 1, 4, pres)
        assert not pres.exact_arithmetic
        assert success_index(res.phi_hat, pres, 2).value >= 2
        # deep approximations stay mutually consistent (Cauchy with modulus)
        node = res.phi_hat.nodes()[0]
        c8, c16 = res.phi_hat.value(node).approx(8), res.phi_hat.value(node).approx(16)
        assert pres.norm_enclosure(c8 - c16, 12).hi < Fraction(1, 2**7)

    def test_hidden_atom_norm_at_p32(self):
        pres = AdversarialPresentation(CeSet.explicit([1]), P32)
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

    def test_triangle_bound_decides_every_step_as_the_oracle(self, monkeypatch):
        pres = AdversarialPresentation(CeSet.explicit([1]), P32)
        reads, errors, runs = _refine_everything(monkeypatch, pres, 3, 60)
        assert len(runs) == 3 and sum(len(attempts) for _, _, attempts in runs) > 40
        # the triangle bound settles every step gap here: no oracle read
        assert all(not gap_reads for _, _, attempts in runs for _, _, gap_reads in attempts)

        # a fresh build whose triangle bound settles nothing reads every gap
        # (a bound on the generators alone would still settle the zero gaps)
        monkeypatch.undo()
        slow = AdversarialPresentation(CeSet.explicit([1]), P32)
        monkeypatch.setattr(
            extension_engine, "_triangle_norm_bound", lambda combo, pres_: Fraction(2**64)
        )
        slow_reads, slow_errors, slow_runs = _refine_everything(monkeypatch, slow, 3, 60)
        # the same combinations at every k, the same errors (the cap ends
        # the deep reads of later stages) and the same step precisions
        assert slow_reads == reads and slow_errors == errors
        assert [[a[0] for a in attempts] for _, _, attempts in slow_runs] == [
            [a[0] for a in attempts] for _, _, attempts in runs
        ]
        # replay each run: an attempt reads each distinct difference from the
        # last accepted step once, in node order, up to the first one that
        # misses the bar 2^-(m+idx+2)
        for _, ball, attempts in slow_runs:
            m, last, idx = bits_for(ball.radius), ball.center, 1
            for prec, center, gap_reads in attempts:
                bar = Fraction(1, 2 ** (m + idx + 2))
                diffs = list(dict.fromkeys(combo - last[n] for n, combo in center.items()))
                assert gap_reads and all(k == prec for _, k, _ in gap_reads)
                assert [d for d, _, _ in gap_reads] == diffs[: len(gap_reads)]
                his = [hi for _, _, hi in gap_reads]
                if all(hi < bar for hi in his):
                    assert len(gap_reads) == len(diffs)
                    last, idx = center, idx + 1
                else:
                    assert his[-1] >= bar and all(hi < bar for hi in his[:-1])

    def test_step_schedule_over_four_stages(self, monkeypatch):
        pres = AdversarialPresentation(CeSet.explicit([1]), P32)
        runs = _spy_refinement(monkeypatch, pres)
        try:
            build_disintegration(pres, 4)
        except PrecisionExhaustedError:
            pass  # the refinement cap still ends 4-stage builds at p = 3/2
        assert len(runs) >= 3
        step = extension_engine.REFINEMENT_STEP_BITS
        for snapshot_prec, _, attempts in runs:
            precs = [snapshot_prec] + [prec for prec, _, _ in attempts]
            for before, after in zip(precs, precs[1:]):
                assert step <= after - before <= 4 * step
        assert sum(len(attempts) > 1 for _, _, attempts in runs) >= 2


class TestTriangleNormBound:
    """The bound that settles refinement step gaps without an oracle read."""

    PRESENTATIONS = {
        "standard": lambda p: StandardPresentation(p),
        "rotated": lambda p: RotatedPresentation(p, GaussianRational.parse("3/5+4/5i")),
        "adversarial-explicit": lambda p: AdversarialPresentation(CeSet.explicit([1, 3, 4]), p),
        "adversarial-odds": lambda p: presentation_from_descriptor(
            {"type": "adversarial", "ce": {"kind": "named", "name": "odds"}}, p
        ),
    }

    @staticmethod
    @st.composite
    def combos(draw):
        def part():
            if draw(st.booleans()):
                return Fraction(0)
            size = Fraction(2) ** draw(st.integers(-200, 8))
            return draw(st.sampled_from([-1, 1])) * size * Fraction(draw(st.integers(1, 255)), 255)

        indices = draw(st.lists(st.integers(0, 7), max_size=6, unique=True))
        return GenCombo({j: GaussianRational.of(part(), part()) for j in indices})

    @pytest.mark.parametrize("p", [P1, P32, P3], ids=["p1", "p3/2", "p3"])
    @pytest.mark.parametrize("kind", sorted(PRESENTATIONS))
    @given(data=st.data())
    @settings(max_examples=12, deadline=None)
    def test_bounds_the_norm(self, kind, p, data):
        pres = self.PRESENTATIONS[kind](p)
        combo = data.draw(self.combos())
        bound = _triangle_norm_bound(combo, pres)
        if combo.is_zero():
            assert bound == 0
        else:
            assert bound >= pres.norm_enclosure(combo, 30).lo


class TestSearchConstants:
    """The extension search stops at its two budgets with typed errors."""

    def test_rounds_exhausted(self, monkeypatch):
        rounds = []

        def no_proposal(phi, n_index, k, pres, round_idx, *, force_growth=False, validated=None):
            rounds.append(round_idx)
            return None

        monkeypatch.setattr(extension_engine, "build_guided_proposal", no_proposal)
        pres = StandardPresentation(P1)
        with pytest.raises(BudgetExhaustedError) as info:
            approximate_extend(empty_map(pres), 1, 4, pres)
        assert extension_engine.SEARCH_ROUNDS == 6
        assert rounds == list(range(6))
        assert str(info.value) == "no certifiable extension within 6 rounds"
        assert info.value.budget == 6

    @pytest.mark.parametrize(
        "second, picked",
        [(GenCombo.single(0), False), (GenCombo.single(0) + GenCombo.single(1), True)],
        ids=["coincident-centers", "overlapping-centers"],
    )
    def test_every_round_refused(self, monkeypatch, second, picked):
        # coincident centers fail the radius pick; overlapping ones pass it
        # but sit too far from the strong homomorphisms for the hom test
        pres = StandardPresentation(P1)
        phi, n_index, k = empty_map(pres), 0, 4
        proposal = two_node_proposal(second)
        assert (_pick_radius_bits(proposal, phi, n_index, k, pres) is not None) is picked
        rounds, hom_reads = [], []
        hom_upper = extension_engine._ledger_hom_upper

        def fixed(phi, n_index, k, pres, round_idx, *, force_growth=False, validated=None):
            rounds.append(round_idx)
            return proposal

        def counted(*args):
            hom_reads.append(1)
            return hom_upper(*args)

        monkeypatch.setattr(extension_engine, "build_guided_proposal", fixed)
        monkeypatch.setattr(extension_engine, "_ledger_hom_upper", counted)
        with pytest.raises(BudgetExhaustedError):
            approximate_extend(phi, n_index, k, pres)
        assert rounds == list(range(extension_engine.SEARCH_ROUNDS))
        assert len(hom_reads) == (len(rounds) if picked else 0)

    def test_refinement_cap(self, monkeypatch):
        pres = AdversarialPresentation(CeSet.explicit([1]), P32)
        proposals = []
        build = extension_engine.build_guided_proposal

        def recording_build(*args, **kwargs):
            proposals.append(build(*args, **kwargs))
            return proposals[-1]

        monkeypatch.setattr(extension_engine, "build_guided_proposal", recording_build)
        res = approximate_extend(empty_map(pres), 1, 4, pres)
        assert not pres.exact_arithmetic  # the values are refinement limits
        snapshot_prec = proposals[-1].snapshot_prec  # the last round won

        # every refinement step now lands a whole unit away from the last
        precs = []
        on_structure = extension_engine._values_on_structure

        def drifting(structure, chi, gens, pres_, prec):
            precs.append(prec)
            values, center = on_structure(structure, chi, gens, pres_, prec)
            return values, {node: combo + GenCombo.single(0) for node, combo in center.items()}

        monkeypatch.setattr(extension_engine, "_values_on_structure", drifting)
        reads = []
        _record_step_gap_reads(monkeypatch, pres, lambda *read: reads.append(read))
        node = res.phi_hat.nodes()[0]
        with pytest.raises(
            PrecisionExhaustedError, match="^refinement cap hit before the target precision$"
        ):
            res.phi_hat.value(node).approx(64)
        cap = extension_engine.REFINEMENT_CAP
        assert cap == 192
        assert precs == sorted(set(precs)) and precs[0] > snapshot_prec
        # the last snapshot read is within the cap, and one more step would not be
        step = precs[-1] - precs[-2]
        assert step == extension_engine.REFINEMENT_STEP_BITS == 4
        assert precs[-1] <= snapshot_prec + cap < precs[-1] + step
        # a step a whole f_0 away is beyond the triangle bound's reach: each
        # try reads its first gap through the oracle, and that read fails it
        assert [k for _, k, _ in reads] == precs


class TestChainSourceRoot:
    def test_root_has_only_a_norm_power(self):
        staged = build_disintegration(StandardPresentation(P1), 3)
        source = staged.chain_source()
        with pytest.raises(ValueError, match="root has no vector value"):
            source.value(ROOT)
        # the chain layer reads the root's norm power, and every other
        # node's value: level-one node (a) is normalized to norm 2^-a
        assert source.norm_power_approx(ROOT, 2) > 0
        for node in staged.tree(3).nonroot_nodes():
            if len(node) == 1:
                box = source.value(node).norm_enclosure(12)
                assert box.contains(Fraction(1, 2 ** node.path[0]))


class TestChainSourceTerminal:
    @pytest.mark.parametrize(
        "pres,stages",
        [
            (StandardPresentation(P1), 5),
            (AdversarialPresentation(CeSet.explicit([2, 5]), P1), 3),
            (RotatedPresentation(P3, GaussianRational.parse("3/5+4/5i")), 3),
        ],
        ids=["standard-p1-s5", "adversarial-p1-s3", "rotated-p3-s3"],
    )
    def test_terminal_nodes_are_the_atom_nodes_of_every_stage(self, pres, stages):
        staged = build_disintegration(pres, stages)
        source = staged.chain_source()
        seen = set()
        for n in range(staged.stage_count()):
            for node in staged.tree(n).sorted_nodes():
                # the scan over every stage that the atom set replaced
                pinned = any(node in rec.atom_support for rec in staged.stages)
                assert source.certified_terminal(node) == pinned, node
                seen.add(pinned)
        assert seen == {True, False}
