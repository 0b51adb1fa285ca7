"""Chain machinery: stage bounds, the child search, partitions, limits."""

import random
from fractions import Fraction

import pytest

from lpiso.errors import (
    BudgetExhaustedError,
    NonterminalRequiredError,
    PrecisionExhaustedError,
)
from lpiso.lp_vectors import FinSuppVector, norm_power_p
from lpiso.presentations import (AdversarialPresentation, CeSet, ComputableVector,
    GenCombo, StandardPresentation)
from lpiso.scalar_core import GaussianRational, PExponent
from lpiso.chain_partition import (
    CHAIN_SEARCH_STAGES,
    FiniteDisintegration,
    LazyDisintegration,
    StageBound,
    chain_limit,
    dyadic_fixture,
    find_anm_child,
    partition_chains,
    stage_bounds,
)
from lpiso.tree_maps import ROOT, FiniteTree, TreeNode

from conftest import random_disintegration

P1 = PExponent.from_fraction(1)
P32 = PExponent.from_fraction(Fraction(3, 2))


def fs(entries):
    return FinSuppVector({n: GaussianRational.of(Fraction(q)) for n, q in entries.items()})


class SpineLimit(LazyDisintegration):
    """A lazy source that knows the limit of its all-zeros spine."""

    def __init__(self, limit, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._limit = limit

    def limit_vector(self, chain):
        return self._limit if set(chain[-1].path) == {0} else None


def two_level_fixture():
    # root = e_0 + e_1 + e_2; children split it into {e_0 + e_1, e_2}; then
    # e_0 + e_1 splits into atoms
    values = {
        ROOT: fs({0: 1, 1: 1, 2: 1}),
        TreeNode.of(0): fs({0: 1, 1: 1}),
        TreeNode.of(1): fs({2: 1}),
        TreeNode.of(0, 0): fs({0: 1}),
        TreeNode.of(0, 1): fs({1: 1}),
    }
    return FiniteDisintegration(values, P1)


class TestStageBounds:
    def test_unit_vector(self):
        src = two_level_fixture()
        bound = stage_bounds(src, [TreeNode.of(1)], 3)[TreeNode.of(1)]
        assert bound.m >= 1 - Fraction(1, 8)
        assert bound.M <= 1 + Fraction(1, 8)
        assert bound.m <= 1 <= bound.M

    def test_sum_lower(self):
        src = two_level_fixture()
        bounds = stage_bounds(src, [TreeNode.of(0), TreeNode.of(1)], 4)
        total = sum(b.m for b in bounds.values())
        assert total >= 3 - Fraction(2, 16)  # exact sum 2 + 1 with slack

    def test_clamp_at_zero(self):
        bound = StageBound(2, Fraction(1, 1024))
        assert bound.m == 0  # q below the slack clamps to zero, never negative


class TestFindAnmChild:
    def test_dyadic_root(self):
        src = dyadic_fixture(StandardPresentation(P1))
        cert = find_anm_child(src, ROOT)
        assert cert.child == TreeNode.of(0)

    def test_tie_breaks_lexicographically(self):
        values = {
            ROOT: fs({0: 1, 1: 1}),
            TreeNode.of(3): fs({0: 1}),
            TreeNode.of(7): fs({1: 1}),
        }
        src = FiniteDisintegration(values, P1)
        cert = find_anm_child(src, ROOT)
        assert cert.child == TreeNode.of(3)

    def test_terminal_rejected(self):
        src = two_level_fixture()
        with pytest.raises(NonterminalRequiredError):
            find_anm_child(src, TreeNode.of(1))

    def test_certificate_against_brute_force(self):
        src = two_level_fixture()
        cert = find_anm_child(src, ROOT)
        # brute force over the full child set
        kids = src.tree.children(ROOT)
        exact = {kid: norm_power_p(src.values[kid], P1, 30).mid for kid in kids}
        best = max(exact.values())
        assert exact[cert.child] >= best - Fraction(1, 2 ** (len(cert.child) + 1))


class TestPartition:
    def test_dyadic_partition_shape(self):
        src = dyadic_fixture(StandardPresentation(P1))
        part = partition_chains(src, stage_budget=6)
        assert part.chains[0][:2] == [ROOT, TreeNode.of(0)]
        # every other level-1 node is its own chain
        for cid, chain in enumerate(part.chains[1:], start=1):
            assert len(chain) == 1 and len(chain[0]) == 1

    def test_two_level(self):
        src = two_level_fixture()
        part = partition_chains(src, stage_budget=8)
        # root chain follows the heavier child (0) then its heavier atom (0,0)
        assert part.chains[0] == [ROOT, TreeNode.of(0), TreeNode.of(0, 0)]
        assert part.assignment[TreeNode.of(1)] != 0
        assert part.assignment[TreeNode.of(0, 1)] != 0

    def test_partition_covers_and_disjoint(self):
        rng = random.Random(7)
        for _ in range(10):
            src = random_disintegration(rng)
            part = partition_chains(src, stage_budget=64)
            seen = {}
            for cid, chain in enumerate(part.chains):
                for node in chain:
                    assert node not in seen
                    seen[node] = cid
            assert set(seen) == set(src.tree.nodes)

    def test_anm_certificates_match_brute_force(self):
        rng = random.Random(11)
        for _ in range(25):
            src = random_disintegration(rng)
            part = partition_chains(src, stage_budget=64)
            for parent, cert in part.certificates.items():
                kids = src.tree.children(parent)
                exact = {k: norm_power_p(src.values[k], P1, 30) for k in kids}
                best = max(box.mid for box in exact.values())
                slack = Fraction(1, 2 ** (len(cert.child) + 1))
                assert exact[cert.child].mid >= best - slack - Fraction(1, 2**28)


class TestChainLimit:
    def test_terminal_chain(self):
        src = two_level_fixture()
        part = partition_chains(src, stage_budget=8)
        lim = chain_limit(src, part, 0, 10)
        assert lim.status == "exact"
        assert lim.vector == fs({0: 1})

    def test_infinite_descent_with_known_limit(self):
        # chain boring into the e_0 component of the adversarial generator,
        # desk-scale infinite set of odd numbers: gamma = 2/3
        pres = AdversarialPresentation(CeSet.from_json({"kind": "named", "name": "odds"}), P1)
        atom = fs({0: Fraction(1, 3)})

        def value(node):
            if node.is_root() or set(node.path) == {0}:
                d = len(node)
                # (1/3) e_0 plus the tail of f_0 from enumeration position d on
                vec = dict(atom.entries)
                for m in range(d, d + 40):
                    c = pres.ce.element(m)
                    vec[m + 1] = GaussianRational.of(Fraction(1, 2**c))
                return fs({}) + FinSuppVector(vec)  # truncated stand-in
            if node.path[-1] == 1 and set(node.path[:-1]) <= {0}:
                d = len(node) - 1
                c = pres.ce.element(d)
                return fs({d + 1: Fraction(1, 2**c)})
            raise ValueError(node)

        def stage(t):
            zeros = [TreeNode(tuple([0] * d)) for d in range(1, t + 2)]
            atoms = [TreeNode(tuple([0] * d + [1])) for d in range(0, t + 1)]
            return FiniteTree(zeros + atoms)

        src = SpineLimit(
            atom,
            P1,
            value,
            stage,
            terminal_fn=lambda node: bool(node.path) and node.path[-1] == 1,
        )
        part = partition_chains(src, stage_budget=4)
        zero_chain = part.assignment[TreeNode.of(0, 0)]
        lim = chain_limit(src, part, zero_chain, 8)
        assert lim.status == "exact"
        assert lim.vector == atom
        assert lim.norm_power.contains(Fraction(1, 3))

    def test_staged_oracle_is_provisional(self):
        # a chain through the root of a staged source without limit
        # knowledge and without terminal nodes: nothing certifies its limit
        src = dyadic_fixture(StandardPresentation(P1))
        lazy = LazyDisintegration(P1, src.value, src.stage_tree)
        part = partition_chains(lazy, stage_budget=4)
        lim = chain_limit(lazy, part, 0, 8)
        assert lim.status == "provisional"


class TestZeroLimit:
    def test_vanishing_chain_flagged_zero(self):
        # binary boring: the spine's values are geometric tails shrinking to 0
        pres = StandardPresentation(P1)

        def value(node):
            d = len(node)
            if node.is_root() or set(node.path) == {0}:
                def approx(k, d=d):
                    return GenCombo(
                        {n: GaussianRational.of(Fraction(1, 2**n)) for n in range(d, d + k + 2)}
                    )
                return ComputableVector(approx, pres)
            if node.path[-1] == 1 and set(node.path[:-1]) <= {0}:
                return fs({d - 1: Fraction(1, 2 ** (d - 1))})
            raise ValueError(node)

        def stage(t):
            zeros = [TreeNode(tuple([0] * d)) for d in range(1, t + 2)]
            atoms = [TreeNode(tuple([0] * d + [1])) for d in range(0, t + 1)]
            return FiniteTree(zeros + atoms)

        src = SpineLimit(
            FinSuppVector.zero(),
            P1,
            value,
            stage,
            terminal_fn=lambda node: bool(node.path) and node.path[-1] == 1,
        )
        part = partition_chains(src, stage_budget=4)
        spine_chains = [
            cid
            for cid, chain in enumerate(part.chains)
            if chain and set(chain[-1].path) == {0}
        ]
        assert spine_chains  # the all-zeros spine keeps descending
        statuses = {
            chain_limit(src, part, cid, 8).status for cid in spine_chains
        }
        assert "zero" in statuses

    def test_limits_precede_chain_values(self):
        src = two_level_fixture()
        part = partition_chains(src, stage_budget=8)
        from lpiso.lp_vectors import precedes, is_atom
        for cid, chain in enumerate(part.chains):
            lim = chain_limit(src, part, cid, 10)
            assert lim.status == "exact"
            for node in chain:
                val = src.value(node)
                if isinstance(val, FinSuppVector):
                    assert precedes(lim.vector, val)
            if lim.status != "zero":
                assert is_atom(lim.vector)


def _no_value(node):
    raise AssertionError("the search reads only norm powers")


class TestAnmBudget:
    """Both ways find_anm_child runs out of budget end in BudgetExhaustedError."""

    KIDS = FiniteTree([TreeNode.of(0), TreeNode.of(1)])

    def test_trigger_that_never_fires(self):
        # M - Sigma^- = 1/2 + 3 2^-(t+1) stays above the best m = 1/4 - 2^-(t+1):
        # the two revealed children never account for the parent's mass
        parent_queries = []

        def norm_power(node, t):
            if node.is_root():
                parent_queries.append(t)
                return Fraction(1)
            return Fraction(1, 4)

        src = LazyDisintegration(P1, _no_value, lambda t: self.KIDS, norm_power_fn=norm_power)
        with pytest.raises(
            BudgetExhaustedError, match=f"not certified by stage {CHAIN_SEARCH_STAGES}"
        ) as info:
            find_anm_child(src, ROOT)
        assert info.value.budget == CHAIN_SEARCH_STAGES
        assert parent_queries == list(range(2, CHAIN_SEARCH_STAGES + 1))

    def test_capped_source_asks_for_more_stages(self):
        stages = []

        def norm_power(node, t):
            stages.append(t)
            raise PrecisionExhaustedError("capped")

        src = LazyDisintegration(P1, _no_value, lambda t: self.KIDS, norm_power_fn=norm_power)
        with pytest.raises(BudgetExhaustedError, match="build more stages") as info:
            find_anm_child(src, ROOT)
        assert stages == [2, 3, 4, 5, 6]  # five misses, one per stage
        assert info.value.budget == 6


class TestAnmCertificateEvidence:
    def test_m_child_is_the_chosen_childs_stage_bound(self):
        rng = random.Random(4242)
        checked = 0
        for _ in range(60):
            src = random_disintegration(rng, max_depth=3)
            for node in src.tree.sorted_nodes():
                if src.tree.is_terminal(node):
                    continue
                cert = find_anm_child(src, node)
                bound = stage_bounds(src, [cert.child], cert.stage)[cert.child]
                assert cert.m_child == bound.m
                assert cert.slack == Fraction(1, 2**cert.stage)
                checked += 1
        assert checked > 40


class TestFiniteDisintegration:
    def test_an_empty_schedule_reveals_the_whole_tree(self):
        src = FiniteDisintegration(two_level_fixture().values, P1, schedule=[])
        for t in (0, 1, 5, CHAIN_SEARCH_STAGES):
            assert src.stage_tree(t) == src.tree
        # stage 0 already holds every node, so a partition at stage 0 is whole
        part = partition_chains(src, stage_budget=0)
        assert part.chains[0] == [ROOT, TreeNode.of(0), TreeNode.of(0, 0)]
        assert set(part.assignment) == set(src.tree.nodes)

    def test_the_default_schedule_reveals_one_node_per_stage(self):
        src = two_level_fixture()
        assert [len(src.stage_tree(t)) for t in range(7)] == [1, 2, 3, 4, 5, 5, 5]
        assert src.stage_tree(4) == src.tree
        # values and terminal nodes come from the source's own tables
        assert src.value(TreeNode.of(1)) is src.values[TreeNode.of(1)]
        assert src.certified_terminal(TreeNode.of(1))
        assert not src.certified_terminal(ROOT)
