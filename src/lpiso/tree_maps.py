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

import json
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import AbstractSet, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .errors import HypothesisViolatedError, PrecisionExhaustedError
from .lp_vectors import (
    FinSuppVector,
    NormFn,
    is_disjointly_supported,
    norm_p,
    norm_per_precision,
    precedes,
    sigma1_from_norms,
)
from .presentations import (
    ComputableVector,
    GenCombo,
    Presentation,
    _entry_bound_bits,
    bits_for,
)
from .scalar_core import (
    DyadicInterval,
    GaussianRational,
    PExponent,
    ZERO_INTERVAL,
    _padded_norm,
    _width_target,
    abs_pow,
    lamperti_constant,
    pow_enclosure,
    refine,
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
            raise HypothesisViolatedError(
                f"node {node} extends no non-root node of the base tree"
            )


# ---------------------------------------------------------------------------
# tree maps
# ---------------------------------------------------------------------------

TreeValue = Union[FinSuppVector, ComputableVector]


class TreeMap:
    """An assignment of vectors to the non-root nodes of a finite tree.

    Values are either exact finite-support vectors (transparent mode) or
    computable vectors over a presentation (opaque mode); the two must not
    be mixed within one map.  The map stores no presentation: an opaque
    value carries its own as ``ComputableVector.pres``, and an operation
    that queries a presentation takes it as an explicit ``pres`` argument.
    """

    def __init__(self, tree: FiniteTree, values: Dict[TreeNode, TreeValue], p: PExponent):
        missing = set(tree.nonroot_nodes()) - set(values)
        extra = set(values) - set(tree.nonroot_nodes())
        if missing or extra:
            raise ValueError(f"domain mismatch: missing {missing}, extra {extra}")
        kinds = {isinstance(v, ComputableVector) for v in values.values()}
        if len(kinds) > 1:
            raise ValueError("cannot mix transparent and opaque values in one map")
        self.tree = tree
        self.values = dict(values)
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
        return TreeMap(tree, vals, self.p)

    def transparent_snapshot(self, k: int) -> "TreeMap":
        """Exact-vector snapshot of an opaque map, each node within 2**-k."""
        if self.is_transparent:
            return self
        vals = {n: v.transparent(k) for n, v in self.values.items()}
        return TreeMap(self.tree, vals, self.p)

    def to_json(self) -> dict:
        if not self.is_transparent:
            raise TypeError("only transparent maps serialize to JSON")
        return {
            "tree": self.tree.to_json(),
            "map": {str(list(n.path)): self.values[n].to_json() for n in self.nodes()},
        }

    @staticmethod
    def from_json(data: dict, p: PExponent) -> "TreeMap":
        """The inverse of `to_json`: each map key is a JSON list of naturals,
        and no two keys may name one node."""
        tree = FiniteTree.from_paths(_natural_path(path) for path in data["tree"])
        values: Dict[TreeNode, TreeValue] = {}
        for key, vec in data["map"].items():
            node = TreeNode(_natural_path(json.loads(key)))
            if node in values:
                raise ValueError(f"two map keys name the node {list(node.path)}")
            values[node] = FinSuppVector.from_json(vec)
        return TreeMap(tree, values, p)


def _natural_path(labels) -> Tuple[int, ...]:
    if not isinstance(labels, list) or any(
        isinstance(x, bool) or not isinstance(x, int) or x < 0 for x in labels
    ):
        raise ValueError(f"a node path is a list of naturals, got {labels!r}")
    return tuple(labels)


def _vnorm(value: TreeValue, p: PExponent, k: int) -> DyadicInterval:
    if isinstance(value, ComputableVector):
        return value.norm_enclosure(k)
    return norm_p(value, p, k)


def union_map(phi: TreeMap, psi: TreeMap) -> TreeMap:
    """phi on its domain, psi's values on the rest of psi's domain."""
    if not phi.tree.is_subtree_of(psi.tree):
        raise ValueError("phi's tree must be a subtree of psi's")
    values: Dict[TreeNode, TreeValue] = {}
    for node in psi.nodes():
        values[node] = phi.values[node] if node in phi.values else psi.values[node]
    return TreeMap(psi.tree, values, phi.p)


# ---------------------------------------------------------------------------
# norms and sigma on tree maps
# ---------------------------------------------------------------------------


def tree_distance(phi: TreeMap, psi: TreeMap, k: int) -> DyadicInterval:
    """max-node norm of (phi - psi) over phi's domain (a common subtree)."""
    out: Optional[DyadicInterval] = None
    for node in phi.nodes():
        a, b = phi.value(node), psi.value(node)
        diff = a - b
        box = _vnorm(diff, phi.p, k)
        out = box if out is None else out.max_with(box)
    return out if out is not None else ZERO_INTERVAL


def index_pairs(count: int, fresh: Optional[Sequence[int]] = None) -> Iterator[Tuple[int, int]]:
    """The index pairs (i, j), 0 <= i < j < count, in lexicographic order;
    with fresh, an ascending sequence of indices, only the pairs holding one
    of them, in the same order."""
    if fresh is None:
        fresh = range(count)
    marked = set(fresh)
    for i in range(count):
        if i in marked:
            for j in range(i + 1, count):
                yield i, j
        else:
            for j in fresh[bisect_right(fresh, i) :]:
                yield i, j


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


def sigma_pairs(tree: FiniteTree) -> List[Tuple[TreeNode, TreeNode]]:
    """The pairs whose sigma1 terms sigma sums: every unordered pair of
    non-root nodes, (a, b) with a before b in nonroot order.  That order puts
    a prefix before its extensions, so the pair is comparable exactly when b
    strictly extends a."""
    nodes = tree.nonroot_nodes()
    return [(nodes[i], nodes[j]) for i, j in index_pairs(len(nodes))]


def sigma_pair_terms(
    psi: TreeMap, pairs: Sequence[Tuple[TreeNode, TreeNode]], kk: int
) -> List[DyadicInterval]:
    """Enclosures of the sigma1 terms of the given pairs of psi, each of width
    <= 2**-kk: of (psi(a), psi(b)) for an incomparable pair, of
    (psi(b) - psi(a), psi(b)) when b strictly extends a.  A term depends only
    on the values at its two nodes.  Each node's norm is taken once per
    precision and shared by every pair the node belongs to."""
    p = psi.p
    node_norms = {
        node: norm_per_precision(partial(_vnorm, psi.value(node), p)) for node in psi.nodes()
    }
    terms = []
    for a, b in pairs:
        if b.strictly_extends(a):
            f = psi.value(b) - psi.value(a)
            terms.append(
                _sigma1_pair(f, psi.value(b), partial(_vnorm, f, p), node_norms[b], p, kk)
            )
        else:
            terms.append(
                _sigma1_pair(psi.value(a), psi.value(b), node_norms[a], node_norms[b], p, kk)
            )
    return terms


def sigma_tree(psi: TreeMap, k: int) -> DyadicInterval:
    """sigma(psi): the strong-homomorphism defect, from norm queries only.

    Zero exactly when psi is a strong reverse-order homomorphism; needs the
    exponent certified apart from 2.
    """
    pairs = sigma_pairs(psi.tree)
    if not pairs:
        return ZERO_INTERVAL

    def attempt(kk: int) -> Optional[DyadicInterval]:
        total = DyadicInterval.sum(sigma_pair_terms(psi, pairs, kk))
        out = lamperti_constant(psi.p, kk) * total
        return out if out.fits(k) else None

    return refine(
        attempt,
        k + len(pairs).bit_length() + 2,
        what="sigma on tree maps exceeded the precision cap",
    )


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


def _strong_hom_defect_exact(psi: TreeMap, todo: Optional[Sequence[int]] = None) -> Optional[str]:
    """None when the transparent map is exactly a strong reverse-order
    homomorphism, else a human-readable witness.  With todo (ascending
    positions in psi.nodes()), only those nodes and the pairs holding one
    are checked."""
    nodes = psi.nodes()
    if todo is None:
        todo = range(len(nodes))
    for i in todo:
        node = nodes[i]
        parent = node.parent()
        if not parent.is_root():
            if not precedes(psi.value(node), psi.value(parent)):
                return f"{node} does not refine its parent {parent}"
    for i, j in index_pairs(len(nodes), todo):
        a, b = nodes[i], nodes[j]
        if a.incomparable(b) and not is_disjointly_supported(psi.value(a), psi.value(b)):
            return f"incomparable {a}, {b} share support"
    return None


def check_strong_hom_exact(psi: TreeMap) -> bool:
    if not psi.is_transparent:
        raise TypeError("exact homomorphism checks need transparent values")
    return _strong_hom_defect_exact(psi) is None


# the precision an opaque map's sigma defect is enclosed at
OPAQUE_VALIDATION_BITS = 20


def validate_partial_disintegration(
    psi: TreeMap, fresh: Optional[AbstractSet[TreeNode]] = None
) -> Verdict:
    """Strong reverse-order monomorphism with nonzero values.

    Transparent maps are decided exactly.  Opaque maps can be refuted
    (certified sigma defect) or left undecided at OPAQUE_VALIDATION_BITS;
    they are never certified YES, since interval evidence cannot witness
    exact equalities.

    fresh names the nodes of a transparent map that still need checking:
    the caller vouches that psi restricted to the other nodes, a
    prefix-closed set, is already a partial disintegration.  Every defect
    then involves a fresh node (its value, its parent, or a pair holding
    it), so only those are checked.  Without fresh every node is.
    """
    if psi.is_transparent:
        nodes = psi.nodes()
        todo = range(len(nodes)) if fresh is None else [i for i, n in enumerate(nodes) if n in fresh]
        defect = _strong_hom_defect_exact(psi, todo)
        if defect is not None:
            return Verdict("certified_no", defect)
        vals = [psi.value(n) for n in nodes]
        for i in todo:
            if vals[i].is_zero():
                return Verdict("certified_no", f"{nodes[i]} maps to zero")
        for i, j in index_pairs(len(vals), todo):
            if vals[i] == vals[j]:
                return Verdict("certified_no", f"{nodes[i]} and {nodes[j]} share one value")
        return Verdict("certified_yes")

    # opaque: refuted only by a certified sigma defect
    sigma_box = sigma_tree(psi, OPAQUE_VALIDATION_BITS)
    if sigma_box.lo > 0:
        return Verdict("certified_no", f"sigma certified positive: {sigma_box}")
    return Verdict("undecided")


# ---------------------------------------------------------------------------
# success index
# ---------------------------------------------------------------------------


# greedy witness coefficients are rounded to denominator 2**WITNESS_DENOM_BITS
WITNESS_DENOM_BITS = 24
# success_index certifies norms at 2**-WITNESS_PRECISION or finer
WITNESS_PRECISION = 24


@dataclass
class SuccessIndex:
    value: int
    distance_uppers: Dict[int, Fraction] = field(default_factory=dict)
    summativity_uppers: Dict[TreeNode, Fraction] = field(default_factory=dict)


def _round_gauss(z: GaussianRational, bits: int) -> GaussianRational:
    """Each part to the nearest multiple of 2^-bits, ties to even."""
    scale = 1 << bits

    def snap(q: Fraction) -> Fraction:
        # round(q * scale) in integers: the pairwise sigma1 check rounds
        # coefficients of hundreds of bits
        d = q.denominator
        n, rem = divmod(q.numerator << bits, d)
        if 2 * rem > d or (2 * rem == d and n & 1):
            n += 1
        return Fraction(n, scale)

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
        coeff = _round_gauss(residual[idx] / pivot, bits)
        if coeff.is_zero():
            continue
        beta[node] = coeff
        residual = residual - vec.scale(coeff)
    return beta


def residual_norm(
    pres: Presentation,
    j: int,
    terms: Sequence[Tuple[TreeValue, GaussianRational]],
    k: int,
) -> DyadicInterval:
    """Enclosure of || f_j - sum of coeff * vec over the (vec, coeff) terms ||,
    each vec a computable vector over `pres`.

    The combination is flattened into one exact-coefficient formal sum (one
    approximation query per term) instead of nesting computable-vector
    wrappers, which keeps the precision requests shallow.
    """
    size_bits = max(1, len(terms)).bit_length()

    def attempt(kk: int) -> Optional[DyadicInterval]:
        combo = GenCombo.single(j)
        pad = Fraction(0)
        for val, coeff in terms:
            if not isinstance(val, ComputableVector):
                raise TypeError(
                    "residual norms read computable values; encode a transparent map first"
                )
            inner_k = kk + size_bits + _entry_bound_bits(coeff)
            combo = combo - val.approx(inner_k).scale(coeff)
            pad += _width_target(kk + size_bits)  # |coeff| 2^-inner_k <= this
        box = pres.norm_enclosure(combo, kk)
        out = _padded_norm(box.lo, box.hi, pad)
        return out if out.fits(k) else None

    return refine(attempt, k + 2, what="residual norm exceeded the precision cap")


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
) -> SuccessIndex:
    """Certified lower bound on the success index with respect to `pres`.

    The distance clause d(f_j, span of the range) < 2**-N is witnessed by
    explicit coefficients; a missing witness caps the result, it never
    refutes.  The greedy witness reads the backdoor (NoBackdoorError without
    one); summativity clauses are certified by strict norm bounds.
    Returns max(0, largest certified N <= n_max).
    """
    prec = max(WITNESS_PRECISION, n_max + 2)

    summativity: Dict[TreeNode, Fraction] = {}
    for node in psi.nodes():
        if not psi.tree.is_terminal(node):
            summativity[node] = summativity_defect(psi, node, prec).hi

    snapshot_prec = prec + 4
    snap = psi.transparent_snapshot(snapshot_prec)
    basis = [(node, snap.value(node)) for node in psi.nodes()]

    distance: Dict[int, Fraction] = {}
    for j in range(max(0, n_max)):
        best: Optional[Fraction] = None
        target = pres.generator_vector(j, snapshot_prec)
        candidates = [{}, _greedy_witness(target, basis, WITNESS_DENOM_BITS)]
        candidates += [{node: GaussianRational.one()} for node in psi.nodes()]
        for beta in candidates:
            terms = [(psi.value(node), z) for node, z in beta.items()]
            try:
                upper = residual_norm(pres, j, terms, prec).hi
            except PrecisionExhaustedError:
                continue  # a bad candidate is merely not a witness
            if best is None or upper < best:
                best = upper
        if best is None:
            best = Fraction(2)  # no candidate certified anything
        distance[j] = best

    value = 0
    for n in range(n_max, 0, -1):
        bound = _width_target(n)
        if all(u < bound for u in summativity.values()) and all(
            distance[j] < bound for j in range(n)
        ):
            value = n
            break
    return SuccessIndex(value, distance, summativity)


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

    def attempt(kk: int) -> Optional[DyadicInterval]:
        dist = tree_distance(phi, psi.restrict(phi.tree), kk) if not phi.is_empty else ZERO_INTERVAL
        dist_pow = pow_enclosure(dist, phi.p, kk) if not phi.is_empty else ZERO_INTERVAL
        sig = sigma_tree(merged, kk)
        two_pow = pow_enclosure(DyadicInterval.point(2), phi.p, kk)
        out = dist_pow + two_pow * sig
        return out if out.fits(k) else None

    return refine(attempt, k + 4, what="distance bound exceeded the precision cap")


ThresholdTerms = Dict[int, List[Tuple[GaussianRational, GaussianRational]]]


def _threshold_terms(psi0: TreeMap) -> ThresholdTerms:
    """coordinate -> the (x, y) pairs whose min(|x|^p, |y|^p) enter its threshold.

    Incomparable pairs contribute (psi(a)[n], psi(b)[n]) and comparable pairs
    (psi(b)[n] - psi(a)[n], psi(b)[n]), on the coordinates where both are
    nonzero; each coordinate's list follows the order of sigma_pairs.
    """
    index: ThresholdTerms = {}
    for a, b in sigma_pairs(psi0.tree):
        va, vb = psi0.value(a), psi0.value(b)
        if b.strictly_extends(a):
            for n in vb.support():
                dz = vb[n] - va[n]
                if not dz.is_zero():
                    index.setdefault(n, []).append((dz, vb[n]))
        else:
            for n in va.support() & vb.support():
                index.setdefault(n, []).append((va[n], vb[n]))
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
        raise TypeError("the projection needs transparent coordinates")
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

        def attempt(kk: int) -> Optional[bool]:
            z_box = abs_pow(z, p, kk)
            s_box = sigma_hat_at(n, kk)
            if z_box.lo > s_box.hi:
                return True
            if z_box.hi <= s_box.lo:
                return False
            if z_box.width + s_box.width < delta:
                return False  # undecided within slack: zero the coordinate
            return None

        return refine(attempt, prec, what="threshold comparison exceeded the cap")

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
    return TreeMap(psi.tree, result, p)


# ---------------------------------------------------------------------------
# coordinate carriers
# ---------------------------------------------------------------------------


def _coordinate_carriers(phi: TreeMap) -> Dict[int, TreeNode]:
    """Each coordinate in the map's supports -> the deepest node carrying it.

    In a partial disintegration incomparable nodes are disjointly
    supported, so the carriers of one coordinate form a chain.
    """
    carriers: Dict[int, TreeNode] = {}
    for node in phi.nodes():
        for coord in phi.value(node).support():
            cur = carriers.get(coord)
            if cur is None or len(node) > len(cur):
                carriers[coord] = node
    return carriers
