"""Finite trees, tree-indexed vector maps, and the machinery around them.

A partial disintegration is an injective strong reverse-order homomorphism
from the non-root nodes of a finite tree into the sequence space: children
refine their parents in the agreement order, incomparable nodes carry
disjointly supported vectors, and no value repeats or vanishes.

The sigma functional on a tree map sums the scalar sigma over all
incomparable (unordered) pairs plus, for every strictly comparable pair
(nu' extending nu), sigma of (value(nu') - value(nu), value(nu')).  It
vanishes exactly on strong reverse-order homomorphisms and is the engine
behind both the distance bound and the projection construction.

The extension-bound hypothesis ("each node of the larger tree extends a
non-root node of the smaller one, unless the smaller is trivial") is
checked, never assumed: dropping it admits genuine counterexamples where
the bound fails.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .errors import (
    HypothesisViolatedError,
    NoBackdoorError,
    NotPartialDisintegrationError,
    PrecisionExhaustedError,
)
from .lp_vectors import (
    FinSuppVector,
    NormFn,
    is_disjointly_supported,
    norm_p,
    precedes,
    sigma1_from_norms,
)
from .presentations import ComputableVector, GenCombo, Presentation, bits_for
from .scalar_core import (
    MAX_WORKING_PREC,
    DyadicInterval,
    GaussianRational,
    PExponent,
    ZERO_INTERVAL,
    _width_target,
    abs_pow,
    lamperti_constant,
    pow_enclosure,
)

# ---------------------------------------------------------------------------
# trees
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class TreeNode:
    """A node of the infinite branching tree: a finite sequence of naturals."""

    path: Tuple[int, ...]

    @staticmethod
    def of(*labels: int) -> "TreeNode":
        return TreeNode(tuple(int(x) for x in labels))

    @staticmethod
    def root() -> "TreeNode":
        return TreeNode(())

    def is_root(self) -> bool:
        return not self.path

    def parent(self) -> "TreeNode":
        if self.is_root():
            raise ValueError("the root has no parent")
        return TreeNode(self.path[:-1])

    def child(self, label: int) -> "TreeNode":
        return TreeNode(self.path + (int(label),))

    def __len__(self) -> int:
        return len(self.path)

    def extends(self, other: "TreeNode") -> bool:
        """Weak prefix order: other's path is an initial segment of ours."""
        return self.path[: len(other.path)] == other.path

    def strictly_extends(self, other: "TreeNode") -> bool:
        return len(self.path) > len(other.path) and self.extends(other)

    def incomparable(self, other: "TreeNode") -> bool:
        return not self.extends(other) and not other.extends(self)

    def __str__(self) -> str:
        return "(" + ",".join(map(str, self.path)) + ")"


ROOT = TreeNode.root()


class FiniteTree:
    """A prefix-closed finite set of nodes containing the root."""

    def __init__(self, nodes: Iterable[TreeNode]):
        node_set = set(nodes)
        node_set.add(ROOT)
        for node in list(node_set):
            for cut in range(len(node)):
                node_set.add(TreeNode(node.path[:cut]))
        self.nodes = frozenset(node_set)
        self._children: Dict[TreeNode, List[TreeNode]] = {}
        for node in self.nodes:
            if not node.is_root():
                self._children.setdefault(node.parent(), []).append(node)
        for lst in self._children.values():
            lst.sort()

    @staticmethod
    def from_paths(paths: Iterable[Sequence[int]]) -> "FiniteTree":
        return FiniteTree(TreeNode(tuple(p)) for p in paths)

    @staticmethod
    def trivial() -> "FiniteTree":
        return FiniteTree([])

    def __contains__(self, node: TreeNode) -> bool:
        return node in self.nodes

    def __len__(self) -> int:
        return len(self.nodes)

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteTree) and self.nodes == other.nodes

    def __hash__(self):
        return hash(self.nodes)

    def children(self, node: TreeNode) -> List[TreeNode]:
        return list(self._children.get(node, []))

    def is_terminal(self, node: TreeNode) -> bool:
        return node not in self._children

    def nonroot_nodes(self) -> List[TreeNode]:
        return sorted(n for n in self.nodes if not n.is_root())

    def sorted_nodes(self) -> List[TreeNode]:
        return sorted(self.nodes, key=lambda n: (len(n), n.path))

    def is_subtree_of(self, other: "FiniteTree") -> bool:
        return self.nodes <= other.nodes

    def union(self, extra: Iterable[TreeNode]) -> "FiniteTree":
        return FiniteTree(list(self.nodes) + list(extra))

    def to_json(self) -> list:
        return [list(n.path) for n in self.nonroot_nodes()]

    def __str__(self):
        return "{" + ", ".join(str(n) for n in self.sorted_nodes()) + "}"


def check_extension_hypothesis(base: FiniteTree, larger: FiniteTree) -> None:
    """Every node of `larger` must extend a non-root node of `base`.

    Vacuous when base is the trivial tree {root}: with nothing pinned by
    the smaller map, the distance bound holds unconditionally.  Raises
    HypothesisViolatedError on the first offending node.
    """
    if not base.is_subtree_of(larger):
        raise ValueError("base tree is not a subtree of the larger tree")
    base_nonroot = base.nonroot_nodes()
    if not base_nonroot:
        return
    level_one = {n.path[0] for n in base_nonroot}
    for node in larger.nonroot_nodes():
        if node.path[0] not in level_one:
            raise HypothesisViolatedError(node)


# ---------------------------------------------------------------------------
# tree maps
# ---------------------------------------------------------------------------

TreeValue = Union[FinSuppVector, ComputableVector]


class TreeMap:
    """An assignment of vectors to the non-root nodes of a finite tree.

    Values are either exact finite-support vectors (transparent mode) or
    computable vectors over a presentation (opaque mode); the two must not
    be mixed within one map.
    """

    def __init__(
        self,
        tree: FiniteTree,
        values: Dict[TreeNode, TreeValue],
        p: Optional[PExponent] = None,
        pres: Optional[Presentation] = None,
    ):
        missing = set(tree.nonroot_nodes()) - set(values)
        extra = set(values) - set(tree.nonroot_nodes())
        if missing or extra:
            raise ValueError(f"domain mismatch: missing {missing}, extra {extra}")
        kinds = {isinstance(v, ComputableVector) for v in values.values()}
        if len(kinds) > 1:
            raise ValueError("cannot mix transparent and opaque values in one map")
        self.tree = tree
        self.values = dict(values)
        self.pres = pres
        if p is None:
            if pres is None:
                raise ValueError("need p or a presentation")
            p = pres.p
        self.p = p

    @property
    def is_transparent(self) -> bool:
        return all(isinstance(v, FinSuppVector) for v in self.values.values())

    @property
    def is_empty(self) -> bool:
        return not self.values

    def nodes(self) -> List[TreeNode]:
        return self.tree.nonroot_nodes()

    def value(self, node: TreeNode) -> TreeValue:
        return self.values[node]

    def restrict(self, tree: FiniteTree) -> "TreeMap":
        if not tree.is_subtree_of(self.tree):
            raise ValueError("restriction target is not a subtree")
        vals = {n: self.values[n] for n in tree.nonroot_nodes()}
        return TreeMap(tree, vals, self.p, self.pres)

    def extends(self, other: "TreeMap") -> bool:
        """Same values on the smaller domain (exact comparison, transparent only)."""
        if not other.tree.is_subtree_of(self.tree):
            return False
        return all(self.values[n] == other.values[n] for n in other.nodes())

    def transparent_snapshot(self, k: int) -> "TreeMap":
        """Exact-vector snapshot of an opaque map, each node within 2**-k."""
        if self.is_transparent:
            return self
        vals = {n: v.transparent(k) for n, v in self.values.items()}
        return TreeMap(self.tree, vals, self.p, self.pres)

    def to_json(self) -> dict:
        if not self.is_transparent:
            raise NoBackdoorError("only transparent maps serialize to JSON")
        return {
            "tree": self.tree.to_json(),
            "map": {str(list(n.path)): self.values[n].to_json() for n in self.nodes()},
        }

    @staticmethod
    def from_json(data: dict, p: PExponent, pres: Optional[Presentation] = None) -> "TreeMap":
        tree = FiniteTree.from_paths(data["tree"])
        values: Dict[TreeNode, TreeValue] = {}
        for key, vec in data["map"].items():
            path = tuple(int(x) for x in re.findall(r"-?\d+", key))
            values[TreeNode(path)] = FinSuppVector.from_json(vec)
        return TreeMap(tree, values, p, pres)


def _vnorm(value: TreeValue, p: PExponent, k: int) -> DyadicInterval:
    if isinstance(value, ComputableVector):
        return value.norm_enclosure(k)
    return norm_p(value, p, k)


def _vzero() -> FinSuppVector:
    return FinSuppVector.zero()


def union_map(phi: TreeMap, psi: TreeMap) -> TreeMap:
    """phi on its domain, psi's values on the rest of psi's domain."""
    if not phi.tree.is_subtree_of(psi.tree):
        raise ValueError("phi's tree must be a subtree of psi's")
    values: Dict[TreeNode, TreeValue] = {}
    for node in psi.nodes():
        values[node] = phi.values[node] if node in phi.values else psi.values[node]
    return TreeMap(psi.tree, values, phi.p, phi.pres or psi.pres)


# ---------------------------------------------------------------------------
# norms and sigma on tree maps
# ---------------------------------------------------------------------------


def tree_norm(psi: TreeMap, k: int) -> DyadicInterval:
    """max over non-root nodes of the value norms; [0,0] for an empty map."""
    out: Optional[DyadicInterval] = None
    for node in psi.nodes():
        box = _vnorm(psi.value(node), psi.p, k)
        out = box if out is None else out.max_with(box)
    return out if out is not None else ZERO_INTERVAL


def tree_distance(phi: TreeMap, psi: TreeMap, k: int) -> DyadicInterval:
    """max-node norm of (phi - psi) over phi's domain (a common subtree)."""
    out: Optional[DyadicInterval] = None
    for node in phi.nodes():
        a, b = phi.value(node), psi.value(node)
        diff = a - b
        box = _vnorm(diff, phi.p, k)
        out = box if out is None else out.max_with(box)
    return out if out is not None else ZERO_INTERVAL


def _comparable_pairs(tree: FiniteTree) -> List[Tuple[TreeNode, TreeNode]]:
    """(nu, nu') with nu' strictly extending nu, both non-root."""
    nodes = tree.nonroot_nodes()
    return [(a, b) for a in nodes for b in nodes if b.strictly_extends(a)]


def _incomparable_pairs(tree: FiniteTree) -> List[Tuple[TreeNode, TreeNode]]:
    """Unordered incomparable pairs, each once."""
    nodes = tree.nonroot_nodes()
    out = []
    for i, a in enumerate(nodes):
        for b in nodes[i + 1 :]:
            if a.incomparable(b):
                out.append((a, b))
    return out


def _sigma1_pair(
    f: TreeValue, g: TreeValue, norm_f: NormFn, norm_g: NormFn, p: PExponent, k: int
) -> DyadicInterval:
    """sigma1 of (f, g), with the norms of f and g supplied by the caller."""
    return sigma1_from_norms(
        norm_f,
        norm_g,
        lambda kk: _vnorm(f - g, p, kk),
        lambda kk: _vnorm(f + g, p, kk),
        p,
        k,
    )


def sigma_tree(psi: TreeMap, k: int) -> DyadicInterval:
    """sigma(psi): the strong-homomorphism defect, from norm queries only.

    Zero exactly when psi is a strong reverse-order homomorphism; needs the
    exponent certified apart from 2.  Each node's norm is taken once per
    precision and shared by every pair the node belongs to.
    """
    incomp = _incomparable_pairs(psi.tree)
    comp = _comparable_pairs(psi.tree)
    count = len(incomp) + len(comp)
    if count == 0:
        return ZERO_INTERVAL
    p = psi.p

    def node_norm(node: TreeNode) -> NormFn:
        value = psi.value(node)
        memo: Dict[int, DyadicInterval] = {}

        def fn(kk: int) -> DyadicInterval:
            if kk not in memo:
                memo[kk] = _vnorm(value, p, kk)
            return memo[kk]

        return fn

    node_norms = {node: node_norm(node) for node in psi.nodes()}
    kk = k + count.bit_length() + 2
    while True:
        total = ZERO_INTERVAL
        for a, b in incomp:
            total = total + _sigma1_pair(
                psi.value(a), psi.value(b), node_norms[a], node_norms[b], p, kk
            )
        for a, b in comp:
            f = psi.value(b) - psi.value(a)
            total = total + _sigma1_pair(
                f, psi.value(b), partial(_vnorm, f, p), node_norms[b], p, kk
            )
        out = lamperti_constant(p, kk) * total
        if out.width <= _width_target(k):
            return out
        kk += max(4, kk // 2)
        if kk > MAX_WORKING_PREC:
            raise PrecisionExhaustedError("sigma on tree maps exceeded the precision cap")


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


@dataclass
class Verdict:
    status: str  # "certified_yes" | "certified_no" | "undecided"
    witness: Optional[str] = None

    @property
    def is_yes(self) -> bool:
        return self.status == "certified_yes"

    @property
    def is_no(self) -> bool:
        return self.status == "certified_no"


def _strong_hom_defect_exact(psi: TreeMap) -> Optional[str]:
    """None when the transparent map is exactly a strong reverse-order
    homomorphism, else a human-readable witness."""
    for node in psi.nodes():
        parent = node.parent()
        if not parent.is_root():
            if not precedes(psi.value(node), psi.value(parent)):
                return f"{node} does not refine its parent {parent}"
    for a, b in _incomparable_pairs(psi.tree):
        if not is_disjointly_supported(psi.value(a), psi.value(b)):
            return f"incomparable {a}, {b} share support"
    return None


def check_strong_hom_exact(psi: TreeMap) -> bool:
    if not psi.is_transparent:
        raise NoBackdoorError("exact homomorphism checks need transparent values")
    return _strong_hom_defect_exact(psi) is None


def validate_partial_disintegration(psi: TreeMap, k: int = 20) -> Verdict:
    """Strong reverse-order monomorphism with nonzero values.

    Transparent maps are decided exactly.  Opaque maps can be refuted
    (certified defect) or left undecided at precision k; they are never
    certified YES, since interval evidence cannot witness exact equalities.
    """
    if psi.is_transparent:
        defect = _strong_hom_defect_exact(psi)
        if defect is not None:
            return Verdict("certified_no", defect)
        vals = [psi.value(n) for n in psi.nodes()]
        for i, v in enumerate(vals):
            if v.is_zero():
                return Verdict("certified_no", f"{psi.nodes()[i]} maps to zero")
        for i, a in enumerate(vals):
            for j in range(i + 1, len(vals)):
                if a == vals[j]:
                    return Verdict(
                        "certified_no",
                        f"{psi.nodes()[i]} and {psi.nodes()[j]} share one value",
                    )
        return Verdict("certified_yes")

    # opaque: try to refute, otherwise report what was certified
    sigma_box = sigma_tree(psi, k)
    if sigma_box.lo > 0:
        return Verdict("certified_no", f"sigma certified positive: {sigma_box}")
    nodes = psi.nodes()
    for node in nodes:
        if _vnorm(psi.value(node), psi.p, k).hi == 0:
            return Verdict("certified_no", f"{node} certified zero")
    all_positive = all(_vnorm(psi.value(n), psi.p, k).lo > 0 for n in nodes)
    distinct = all(
        _vnorm(psi.value(a) - psi.value(b), psi.p, k).lo > 0
        for i, a in enumerate(nodes)
        for b in nodes[i + 1 :]
    )
    if all_positive and distinct and sigma_box.hi <= _width_target(k):
        return Verdict("undecided", "homomorphism clauses consistent with zero defect")
    return Verdict("undecided")


def require_partial_disintegration(psi: TreeMap, k: int = 20) -> None:
    verdict = validate_partial_disintegration(psi, k)
    if verdict.is_no:
        raise NotPartialDisintegrationError(verdict.witness)


# ---------------------------------------------------------------------------
# success index
# ---------------------------------------------------------------------------


@dataclass
class WitnessBudget:
    """Effort caps for the semidecidable parts of certification."""

    denom_bits: int = 24      # coefficients are rounded to denominator 2**denom_bits
    precision: int = 24       # norm certifications run at 2**-precision
    fallback_rounds: int = 0  # extra rounds of blind coefficient enumeration


@dataclass
class SuccessIndex:
    value: int
    distance_uppers: Dict[int, Fraction] = field(default_factory=dict)
    summativity_uppers: Dict[TreeNode, Fraction] = field(default_factory=dict)
    witnesses: Dict[int, Dict[TreeNode, GaussianRational]] = field(default_factory=dict)

    def __int__(self):
        return self.value


def _value_as_vector(value: TreeValue, k: int) -> FinSuppVector:
    if isinstance(value, ComputableVector):
        return value.transparent(k)
    return value


def _round_gauss(z: GaussianRational, bits: int) -> GaussianRational:
    scale = 1 << bits

    def snap(q: Fraction) -> Fraction:
        return Fraction(round(q * scale), scale)

    return GaussianRational.of(snap(z.re), snap(z.im))


def _greedy_witness(
    target: FinSuppVector,
    basis: List[Tuple[TreeNode, FinSuppVector]],
    bits: int,
) -> Dict[TreeNode, GaussianRational]:
    """Peel the target along the dominant coordinate of each basis vector.

    Exact for disjointly supported bases (the shape disintegrations have);
    a heuristic proposal otherwise.  Certification happens separately.
    Pivots below the rounding grid are snapshot dust: dividing by them
    would amplify approximation noise into huge coefficients, so they are
    skipped (the coordinate then stays in the residual).
    """
    residual = target
    beta: Dict[TreeNode, GaussianRational] = {}
    dust = Fraction(1, 2**bits)
    for node, vec in basis:
        overlap = [(n, z) for n, z in vec.entries.items() if n in residual.entries]
        if not overlap:
            continue
        idx, pivot = max(overlap, key=lambda item: item[1].abs_sq())
        if pivot.abs_sq() < dust:
            continue
        num = residual[idx]
        inv_sq = pivot.abs_sq()
        coeff = num * pivot.conj()
        coeff = GaussianRational.of(coeff.re / inv_sq, coeff.im / inv_sq)
        coeff = _round_gauss(coeff, bits)
        if coeff.is_zero():
            continue
        beta[node] = coeff
        residual = residual - vec.scale(coeff)
    return beta


def _gauss_bound_bits(z: GaussianRational) -> int:
    """Smallest b >= 0 with |z| <= 2**b."""
    sq = z.abs_sq()
    b = 0
    while Fraction(4) ** b < sq:
        b += 1
    return b


def residual_norm(
    psi: TreeMap,
    pres: Presentation,
    j: int,
    beta: Dict[TreeNode, GaussianRational],
    k: int,
) -> DyadicInterval:
    """Enclosure of || f_j - sum_nu beta(nu) psi(nu) ||.

    The opaque route flattens the combination into one exact-coefficient
    formal sum (one approximation query per node) instead of nesting
    computable-vector wrappers, which keeps the precision requests shallow.
    """
    if psi.is_transparent and pres.has_backdoor:
        kk = k + 2
        while True:
            approx = pres.generator_vector(j, kk)
            for node, coeff in beta.items():
                approx = approx - psi.value(node).scale(coeff)
            box = norm_p(approx, psi.p, kk)
            pad = _width_target(kk)  # generator approximation error
            out = DyadicInterval(max(box.lo - pad, Fraction(0)), box.hi + pad)
            if out.width <= _width_target(k):
                return out
            kk += max(4, kk // 2)
            if kk > MAX_WORKING_PREC:
                raise PrecisionExhaustedError("residual norm exceeded the precision cap")
    size_bits = max(1, len(beta)).bit_length()
    kk = k + 2
    while True:
        combo = GenCombo.single(j)
        pad = Fraction(0)
        for node, coeff in beta.items():
            val = psi.value(node)
            if not isinstance(val, ComputableVector):
                raise NoBackdoorError(
                    "certifying a transparent map against a backdoor-less oracle is not supported"
                )
            inner_k = kk + size_bits + _gauss_bound_bits(coeff)
            combo = combo - val.approx(inner_k).scale(coeff)
            pad += _width_target(kk + size_bits)  # |coeff| 2^-inner_k <= this
        box = pres.norm_enclosure(combo, kk)
        out = DyadicInterval(max(box.lo - pad, Fraction(0)), box.hi + pad)
        if out.width <= _width_target(k):
            return out
        kk += max(4, kk // 2)
        if kk > MAX_WORKING_PREC:
            raise PrecisionExhaustedError("residual norm exceeded the precision cap")


def summativity_defect(psi: TreeMap, node: TreeNode, k: int) -> DyadicInterval:
    """Enclosure of || psi(node) - sum of psi over node's children ||."""
    total: Optional[TreeValue] = None
    for child in psi.tree.children(node):
        val = psi.value(child)
        total = val if total is None else total + val
    if total is None:
        raise ValueError(f"{node} has no children")
    return _vnorm(psi.value(node) - total, psi.p, k)


def success_index(
    psi: TreeMap,
    pres: Presentation,
    n_max: int,
    budget: Optional[WitnessBudget] = None,
) -> SuccessIndex:
    """Certified lower bound on the success index with respect to `pres`.

    The distance clause d(f_j, span of the range) < 2**-N is witnessed by
    explicit coefficients; a missing witness caps the result, it never
    refutes.  Summativity clauses are certified by strict norm bounds.
    Returns max(0, largest certified N <= n_max).
    """
    budget = budget or WitnessBudget()
    prec = max(budget.precision, n_max + 2)

    summativity: Dict[TreeNode, Fraction] = {}
    for node in psi.nodes():
        if not psi.tree.is_terminal(node):
            summativity[node] = summativity_defect(psi, node, prec).hi

    basis: List[Tuple[TreeNode, FinSuppVector]] = []
    can_guide = pres.has_backdoor
    if can_guide:
        snapshot_prec = prec + 4
        for node in psi.nodes():
            basis.append((node, _value_as_vector(psi.value(node), snapshot_prec)))

    distance: Dict[int, Fraction] = {}
    witnesses: Dict[int, Dict[TreeNode, GaussianRational]] = {}
    for j in range(max(0, n_max)):
        best: Optional[Fraction] = None
        best_beta: Dict[TreeNode, GaussianRational] = {}
        candidates: List[Dict[TreeNode, GaussianRational]] = [{}]
        if can_guide:
            target = pres.generator_vector(j, snapshot_prec)
            candidates.append(_greedy_witness(target, basis, budget.denom_bits))
        for node in psi.nodes():
            candidates.append({node: GaussianRational.one()})
        for r in range(1, budget.fallback_rounds + 1):
            # blind single-node slice: real/imaginary grid with denominator
            # 2^r and magnitude up to 2^r, growing towards completeness
            grid = [Fraction(n, 1 << r) for n in range(-(1 << (2 * r)), (1 << (2 * r)) + 1)]
            for node in psi.nodes():
                for re in grid:
                    for im in grid:
                        if re == 0 and im == 0:
                            continue
                        candidates.append({node: GaussianRational.of(re, im)})
        for beta in candidates:
            try:
                upper = residual_norm(psi, pres, j, beta, prec).hi
            except PrecisionExhaustedError:
                continue  # a bad candidate is merely not a witness
            if best is None or upper < best:
                best, best_beta = upper, beta
        if best is None:
            best = Fraction(2)  # no candidate certified anything
        distance[j] = best
        witnesses[j] = best_beta

    value = 0
    for n in range(n_max, 0, -1):
        bound = _width_target(n)
        if all(u < bound for u in summativity.values()) and all(
            distance[j] < bound for j in range(n)
        ):
            value = n
            break
    return SuccessIndex(value, distance, summativity, witnesses)


# ---------------------------------------------------------------------------
# distance bound and projection
# ---------------------------------------------------------------------------


def distance_bound(phi: TreeMap, psi: TreeMap, k: int) -> DyadicInterval:
    """The certified upper bound on d(psi, strong homs extending phi)^p:

        ||phi - psi||^p on the common domain  +  2^p sigma(phi U psi|new).

    Requires the extension hypothesis; raises HypothesisViolatedError.
    """
    check_extension_hypothesis(phi.tree, psi.tree)
    merged = union_map(phi, psi)
    kk = k + 4
    while True:
        dist = tree_distance(phi, psi.restrict(phi.tree), kk) if not phi.is_empty else ZERO_INTERVAL
        dist_pow = pow_enclosure(dist, phi.p, kk) if not phi.is_empty else ZERO_INTERVAL
        sig = sigma_tree(merged, kk)
        two_pow = pow_enclosure(DyadicInterval.point(2), phi.p, kk)
        out = dist_pow + two_pow * sig
        if out.width <= _width_target(k):
            return out
        kk += max(4, kk // 2)
        if kk > MAX_WORKING_PREC:
            raise PrecisionExhaustedError("distance bound exceeded the precision cap")


ThresholdTerms = Dict[int, List[Tuple[GaussianRational, GaussianRational]]]


def _threshold_terms(psi0: TreeMap) -> ThresholdTerms:
    """coordinate -> the (x, y) pairs whose min(|x|^p, |y|^p) enter its threshold.

    Incomparable pairs contribute (psi(a)[n], psi(b)[n]) and comparable pairs
    (psi(b)[n] - psi(a)[n], psi(b)[n]), on the coordinates where both are
    nonzero; each coordinate's list follows the pair order.
    """
    index: ThresholdTerms = {}
    for a, b in _incomparable_pairs(psi0.tree):
        va, vb = psi0.value(a), psi0.value(b)
        for n in va.support() & vb.support():
            index.setdefault(n, []).append((va[n], vb[n]))
    for a, b in _comparable_pairs(psi0.tree):
        va, vb = psi0.value(a), psi0.value(b)
        for n in vb.support():
            dz = vb[n] - va[n]
            if not dz.is_zero():
                index.setdefault(n, []).append((dz, vb[n]))
    return index


def project_to_strong_hom(
    phi: TreeMap, psi: TreeMap, k: int, *, enforce_hypothesis: bool = True
) -> TreeMap:
    """A strong reverse-order homomorphism extending phi, built from psi by
    per-coordinate thresholding, with

        || psi - result ||^p  <=  distance_bound(phi, psi) + 2**-k.

    Transparent values only.  New-node coordinates survive when their
    p-th-power modulus certifiably exceeds the threshold; survivors copy
    the already-fixed parent value (their own value at level one), and any
    survivor clashing with a pinned incomparable value is zeroed, which
    stays within the same per-coordinate budget.

    The distance guarantee needs the extension hypothesis; the construction
    itself does not, so callers may disable the check and settle for a
    valid homomorphism without the bound.
    """
    if not (phi.is_transparent and psi.is_transparent):
        raise NoBackdoorError("the projection needs transparent coordinates")
    if enforce_hypothesis:
        check_extension_hypothesis(phi.tree, psi.tree)
    elif not phi.tree.is_subtree_of(psi.tree):
        raise ValueError("base tree is not a subtree of the larger tree")
    psi0 = union_map(phi, psi)
    p = psi0.p

    coords = sorted({n for node in psi0.nodes() for n in psi0.value(node).support()})
    new_nodes = [node for node in psi0.nodes() if node not in phi.values]
    cells = max(1, len(new_nodes) * max(1, len(coords)))
    delta = _width_target(k) / cells  # per-(node, coordinate) slack

    terms = _threshold_terms(psi0)
    sigma_hat_cache: Dict[Tuple[int, int], DyadicInterval] = {}

    def sigma_hat_at(n: int, prec: int) -> DyadicInterval:
        """Threshold at coordinate n: sum of min(|x|^p, |y|^p) over its terms."""
        key = (n, prec)
        if key not in sigma_hat_cache:
            total = ZERO_INTERVAL
            for x, y in terms.get(n, ()):
                total = total + abs_pow(x, p, prec).min_with(abs_pow(y, p, prec))
            sigma_hat_cache[key] = total
        return sigma_hat_cache[key]

    def certified_greater(z: GaussianRational, n: int, prec: int) -> bool:
        """|z|^p > sigma_hat(n), decided with refinement; ties fall to False."""
        while True:
            z_box = abs_pow(z, p, prec)
            s_box = sigma_hat_at(n, prec)
            if z_box.lo > s_box.hi:
                return True
            if z_box.hi <= s_box.lo:
                return False
            if z_box.width + s_box.width < delta:
                return False  # undecided within slack: zero the coordinate
            prec += max(4, prec // 2)
            if prec > MAX_WORKING_PREC:
                raise PrecisionExhaustedError("threshold comparison exceeded the cap")

    start_prec = bits_for(delta) + 4
    result: Dict[TreeNode, FinSuppVector] = {n: phi.value(n) for n in phi.values}
    pinned = list(phi.values.items())
    for node in sorted(new_nodes, key=lambda nn: (len(nn), nn.path)):
        parent = node.parent()
        entries: Dict[int, GaussianRational] = {}
        for n in coords:
            z = psi0.value(node)[n]
            if z.is_zero():
                continue
            if not certified_greater(z, n, start_prec):
                continue
            if parent.is_root():
                candidate = z
            else:
                candidate = result[parent][n]
            if candidate.is_zero():
                continue
            conflict = any(
                node.incomparable(other) and not vec[n].is_zero()
                for other, vec in pinned
            )
            if conflict:
                continue  # zeroing here stays within the 2^p sigma-hat budget
            entries[n] = candidate
        result[node] = FinSuppVector(entries)
    return TreeMap(psi.tree, result, p, psi.pres or phi.pres)


# ---------------------------------------------------------------------------
# constructive extension
# ---------------------------------------------------------------------------


def _coordinate_carrier(phi: TreeMap, coord: int) -> Optional[TreeNode]:
    """The deepest node whose value's support contains `coord` (they chain)."""
    carriers = [n for n in phi.nodes() if coord in phi.value(n).support()]
    if not carriers:
        return None
    deepest = max(carriers, key=lambda n: len(n))
    for other in carriers:
        if not deepest.extends(other):
            raise NotPartialDisintegrationError(
                f"coordinate {coord} carried by incomparable nodes {other}, {deepest}"
            )
    return deepest


def extend_existence(
    phi: TreeMap,
    n0: int,
    pres: Presentation,
) -> TreeMap:
    """Extend a transparent partial disintegration to success index >= n0.

    Picks a coverage level so the first n0 generators and every current
    value are approximated within 2**-(n0+1) by the span of the coordinate
    vectors up to that level, then attaches one child per covered
    coordinate: under the deepest carrier (splitting off its restriction)
    when the carrier has at least two support points, or as a fresh
    top-level atom when no node carries the coordinate.  Labels are offset
    by the node count of the current tree, which keeps them fresh.
    """
    if not phi.is_transparent:
        raise NoBackdoorError("the constructive extension needs transparent values")
    require_partial_disintegration(phi)

    target = _width_target(n0 + 1)
    n1 = max((phi.value(n).max_index() for n in phi.nodes()), default=-1)
    n1 = max(n1, 0)
    while True:
        if all(pres.generator_tail_norm_bound(j, n1) < target for j in range(n0)):
            break
        n1 += 1
        if n1 > 1 << 16:
            raise PrecisionExhaustedError("coverage level did not stabilize")

    size = len(phi.tree)
    new_values: Dict[TreeNode, TreeValue] = dict(phi.values)
    new_nodes: List[TreeNode] = []
    for coord in range(n1 + 1):
        carrier = _coordinate_carrier(phi, coord)
        if carrier is None:
            fresh = ROOT.child(coord + size)
            if fresh in phi.tree:
                raise NotPartialDisintegrationError(f"label collision at {fresh}")
            new_nodes.append(fresh)
            new_values[fresh] = FinSuppVector.basis(coord)
        elif len(phi.value(carrier).support()) >= 2:
            fresh = carrier.child(coord + size)
            if fresh in phi.tree:
                raise NotPartialDisintegrationError(f"label collision at {fresh}")
            new_nodes.append(fresh)
            new_values[fresh] = phi.value(carrier).restrict([coord])
        # a single-support carrier already exposes the coordinate as an atom

    out = TreeMap(phi.tree.union(new_nodes), new_values, phi.p, pres)
    require_partial_disintegration(out)
    return out
