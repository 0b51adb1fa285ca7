"""Stage-bounded norm accounting and chain decomposition of disintegrations.

A disintegration assigns a vector to every node of a (possibly infinite)
tree, children summing to parents, incomparable nodes disjoint.  Its
domain is explored through a monotone stage enumeration.  The central
search: from a nonterminal node, find a child whose p-th-power norm is
within 2^-(level+1) of the best sibling, using only stage-bounded rational
approximations.  The trigger

    M(mu, t) - Sigma^-(children at t, t)  <  max m(child, t)

certifies that the currently enumerated children already contain a
maximal one; it fires at infinitely many stages, so a bounded search
either succeeds or reports an exhausted budget (never a wrong child).

Chains are grown deterministically: the root's chain is 0, each node's
almost norm-maximizing child continues its chain, every other child opens
a fresh chain in enumeration order.  Chain infima are atoms or zero; their
norms are only right-approximable, so a chain limit is exact only when the
chain provably ends or its source knows the limit, and provisional
otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence

from .errors import (
    BudgetExhaustedError,
    NonterminalRequiredError,
    PrecisionExhaustedError,
)
from .lp_vectors import FinSuppVector, norm_power_p
from .presentations import ComputableVector, GenCombo, Presentation
from .scalar_core import (
    DyadicInterval,
    GaussianRational,
    PExponent,
    _width_target,
    pow_enclosure,
    refine,
)
from .tree_maps import ROOT, FiniteTree, TreeNode, TreeValue

# ---------------------------------------------------------------------------
# sources
# ---------------------------------------------------------------------------


def norm_power_value(value: TreeValue, p: PExponent, k: int) -> DyadicInterval:
    """Enclosure of ||value||^p, width <= 2**-k, for either value kind."""
    if isinstance(value, FinSuppVector):
        return norm_power_p(value, p, k)

    def attempt(kk: int) -> Optional[DyadicInterval]:
        out = pow_enclosure(value.norm_enclosure(kk), p, kk)
        return out if out.fits(k) else None

    return refine(attempt, k + 2, what="norm power refinement exceeded the cap")


class ChainSource:
    """A staged disintegration as the chain layer reads it.  Its one
    implementation, `LazyDisintegration`, supplies `stage_tree`, `value` and
    `certified_terminal`; this base keeps the default norm query and the
    limit hook.

    A source stores no presentation: an opaque value carries its own as
    ``ComputableVector.pres``.
    """

    p: PExponent

    def limit_vector(self, chain: Sequence[TreeNode]) -> Optional[TreeValue]:
        """Exact infimum along an infinite chain, when the source knows it."""
        return None

    def norm_power_approx(self, node: TreeNode, t: int) -> Fraction:
        """q(node, t) with |q - ||value||^p| < 2**-(t+1)."""
        return norm_power_value(self.value(node), self.p, t + 3).mid


class LazyDisintegration(ChainSource):
    """A disintegration described by callables: values on nodes, revealed
    through stages, and which nodes provably never gain children."""

    def __init__(
        self,
        p: PExponent,
        value_fn: Callable[[TreeNode], TreeValue],
        stage_fn: Callable[[int], FiniteTree],
        terminal_fn: Callable[[TreeNode], bool] = lambda node: False,
        norm_power_fn: Optional[Callable[[TreeNode, int], Fraction]] = None,
    ):
        self.p = p
        self._value_fn = value_fn
        self._stage_fn = stage_fn
        self._terminal_fn = terminal_fn
        self._norm_power_fn = norm_power_fn

    def norm_power_approx(self, node: TreeNode, t: int) -> Fraction:
        if self._norm_power_fn is not None:
            return self._norm_power_fn(node, t)
        return super().norm_power_approx(node, t)

    def stage_tree(self, t: int) -> FiniteTree:
        return self._stage_fn(t)

    def value(self, node: TreeNode) -> TreeValue:
        return self._value_fn(node)

    def certified_terminal(self, node: TreeNode) -> bool:
        """True only when the node provably never gains children."""
        return self._terminal_fn(node)


class FiniteDisintegration(LazyDisintegration):
    """A fully materialized finite disintegration with a reveal schedule."""

    def __init__(
        self,
        values: Dict[TreeNode, TreeValue],
        p: PExponent,
        schedule: Optional[List[FiniteTree]] = None,
    ):
        if ROOT not in values:
            raise ValueError("a disintegration carries a root value")
        self.tree = FiniteTree(values.keys())
        if set(self.tree.nodes) != set(values):
            raise ValueError("value domain must be prefix-closed")
        self.values = dict(values)
        if schedule is None:
            ordered = self.tree.sorted_nodes()
            schedule = [FiniteTree(ordered[: i + 1]) for i in range(len(ordered))]
        for st in schedule:
            if not st.is_subtree_of(self.tree):
                raise ValueError("schedule trees must be subtrees of the domain")
        for a, b in zip(schedule, schedule[1:]):
            if not a.is_subtree_of(b):
                raise ValueError("schedule must be monotone")
        if schedule and schedule[-1] != self.tree:
            raise ValueError("schedule must eventually reveal the whole tree")
        self.schedule = schedule
        super().__init__(p, self.values.__getitem__, self._revealed, self.tree.is_terminal)

    def _revealed(self, t: int) -> FiniteTree:
        if not self.schedule:
            return self.tree
        return self.schedule[min(t, len(self.schedule) - 1)]


def dyadic_fixture(pres: Presentation) -> LazyDisintegration:
    """The textbook disintegration: root = sum 2^-n e_n, child n = 2^-n e_n."""

    def value(node: TreeNode) -> TreeValue:
        if node.is_root():

            def approx(k: int) -> GenCombo:
                # p >= 1 makes the lp tail at most the l1 tail 2^-(k+1)
                return GenCombo(
                    {n: GaussianRational.of(Fraction(1, 2**n)) for n in range(k + 2)}
                )

            return ComputableVector(approx, pres)
        if len(node) == 1:
            n = node.path[0]
            return FinSuppVector.basis(n, GaussianRational.of(Fraction(1, 2**n)))
        raise ValueError(f"node {node} outside the fixture domain")

    def stage(t: int) -> FiniteTree:
        return FiniteTree([TreeNode.of(n) for n in range(t + 1)])

    return LazyDisintegration(pres.p, value, stage, terminal_fn=lambda node: len(node) == 1)


# ---------------------------------------------------------------------------
# stage bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StageBound:
    """Rational bracket for one node's p-th-power norm at stage t.

    m is clamped at zero: a p-th power is nonnegative, so a negative lower
    bound carries no information, and the trigger arithmetic needs m >= 0.
    """

    t: int
    q: Fraction

    @property
    def m(self) -> Fraction:
        return max(self.q - _width_target(self.t + 1), Fraction(0))

    @property
    def M(self) -> Fraction:
        return self.q + _width_target(self.t + 1)


def stage_bounds(source: ChainSource, nodes: Sequence[TreeNode], t: int) -> Dict[TreeNode, StageBound]:
    return {node: StageBound(t, source.norm_power_approx(node, t)) for node in nodes}


# ---------------------------------------------------------------------------
# the child search
# ---------------------------------------------------------------------------


@dataclass
class AnmCertificate:
    parent: TreeNode
    child: TreeNode
    stage: int
    m_child: Fraction
    slack: Fraction  # the certified bound: others <= m_child + slack


# the last stage an almost norm-maximizing child search looks at
CHAIN_SEARCH_STAGES = 4096


def find_anm_child(source: ChainSource, mu: TreeNode) -> AnmCertificate:
    """An almost norm-maximizing child of mu, with a stage certificate.

    Searches stages t >= |mu| + 2 so the certified slack 2**-t is at most
    2^-(|child|+1), the constant in the definition (the looser search bound
    2^-|mu| is recorded implicitly by the stage).  Ties between maximizers
    go to the lexicographically least child.
    """
    if source.certified_terminal(mu):
        raise NonterminalRequiredError(f"{mu} is terminal")
    t = len(mu) + 2
    precision_failures = 0
    while t <= CHAIN_SEARCH_STAGES:
        tree = source.stage_tree(t)
        if mu in tree:
            kids = tree.children(mu)
            if kids:
                try:
                    parent_bound = StageBound(t, source.norm_power_approx(mu, t))
                    kid_bounds = stage_bounds(source, kids, t)
                except PrecisionExhaustedError:
                    # precision demands only grow with t; a capped source
                    # will not start answering later
                    precision_failures += 1
                    if precision_failures > 4:
                        raise BudgetExhaustedError(
                            f"the source cannot answer stage bounds around {mu}; "
                            "build more stages",
                            budget=t,
                        )
                    t += 1
                    continue
                lows = [b.m for b in kid_bounds.values()]
                top = max(lows)
                if parent_bound.M - sum(lows, Fraction(0)) < top:
                    best = min(k for k in kids if kid_bounds[k].m == top)
                    return AnmCertificate(mu, best, t, kid_bounds[best].m, _width_target(t))
        t += 1
    raise BudgetExhaustedError(
        f"almost norm-maximizing child of {mu} not certified by stage {CHAIN_SEARCH_STAGES}",
        budget=CHAIN_SEARCH_STAGES,
    )


# ---------------------------------------------------------------------------
# chain partition
# ---------------------------------------------------------------------------


@dataclass
class ChainPartition:
    assignment: Dict[TreeNode, int]
    chains: List[List[TreeNode]]
    certificates: Dict[TreeNode, AnmCertificate]

    def report(self, source: ChainSource, t: int) -> list:
        out = []
        for cid, nodes in enumerate(self.chains):
            bounds = {}
            for node in nodes:
                try:
                    bound = StageBound(t, source.norm_power_approx(node, t))
                    bounds[str(list(node.path))] = [str(bound.m), str(bound.M)]
                except PrecisionExhaustedError:
                    # e.g. the root of a shallow staged build: its tail bound
                    # cannot support this stage precision yet
                    bounds[str(list(node.path))] = None
            out.append(
                {
                    "chain": cid,
                    "nodes": [list(n.path) for n in nodes],
                    "norm_power_bounds": bounds,
                }
            )
        return out


def partition_chains(
    source: ChainSource,
    *,
    stage_budget: int,
) -> ChainPartition:
    """Deterministic chain decomposition of the stage-`stage_budget` tree.

    Nodes are processed in enumeration order (stage of first appearance,
    then level, then path).  Nonterminal nodes have their almost
    norm-maximizing child certified by the bounded search; the child
    continues the parent's chain and each remaining child opens a fresh
    one.
    """
    explored = source.stage_tree(stage_budget)
    appearance: Dict[TreeNode, int] = {}
    for t in range(stage_budget + 1):
        for node in source.stage_tree(t).sorted_nodes():
            appearance.setdefault(node, t)
    order = sorted(explored.sorted_nodes(), key=lambda n: (appearance[n], len(n), n.path))

    certificates: Dict[TreeNode, AnmCertificate] = {}
    for node in order:
        if not explored.is_terminal(node):
            certificates[node] = find_anm_child(source, node)

    assignment: Dict[TreeNode, int] = {}
    chains: List[List[TreeNode]] = []
    for node in order:
        if node.is_root():
            assignment[node] = 0
            chains.append([node])
            continue
        parent = node.parent()
        cert = certificates.get(parent)
        if cert is not None and cert.child == node:
            cid = assignment[parent]
        else:
            cid = len(chains)
            chains.append([])
        assignment[node] = cid
        chains[cid].append(node)
    for chain in chains:
        chain.sort(key=len)
    return ChainPartition(assignment, chains, certificates)


# ---------------------------------------------------------------------------
# chain limits
# ---------------------------------------------------------------------------


@dataclass
class ChainLimit:
    vector: Optional[TreeValue]
    norm_power: DyadicInterval
    status: str  # "exact" | "zero" | "provisional"


def chain_limit(
    source: ChainSource,
    partition: ChainPartition,
    chain_id: int,
    k: int,
) -> ChainLimit:
    """The infimum of the values along one chain, to precision 2**-k.

    Exact when the chain provably ends (terminal node) or the source knows
    the limit; otherwise the deepest enumerated value stands in, with
    one-sided norm information only, and the result is tainted provisional.
    A certified-zero limit is flagged so callers can drop it.
    """
    nodes = partition.chains[chain_id]
    deepest = nodes[-1]
    deep_value = source.value(deepest)

    if source.certified_terminal(deepest):
        known = deep_value
    else:
        known = source.limit_vector(nodes)
    if known is not None:
        box = norm_power_value(known, source.p, max(k, 8))
        status = "zero" if box.hi == 0 else "exact"
        return ChainLimit(known, box, status)

    # no known limit: norms along the chain only decrease, giving an upper
    # bound; nothing certifies how much is still to fall
    upper = norm_power_value(deep_value, source.p, max(k, 8)).hi
    return ChainLimit(deep_value, DyadicInterval(Fraction(0), upper), "provisional")
