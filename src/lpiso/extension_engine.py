"""Effective search machinery: ball certificates, approximate extension,
and the staged construction of disintegrations.

Everything here runs against a norm oracle.  A candidate is a rational
ball: a tree, one formal combination per non-root node, and a radius.
Certificates are strict interval inequalities with Lipschitz slack, so a
granted flag covers the whole closed ball:

  * injectivity and nonvanishing (pairwise gaps and norms beat the radius);
  * summativity defects below 2^-N across the ball;
  * generator coverage below 2^-N, witnessed by explicit coefficients;
  * restriction of the ball into the 2^-k neighbourhood of a given map;
  * nonempty intersection with the strong homomorphisms, through the error
    functional, whose p-th root dominates the distance to them.

The search needs the presentation's transparent backdoor: each round
certifies one guided proposal derived from a transparent snapshot
(truncate, project to an exact homomorphism, split carried coordinates
into atom children, park each generator's uncovered remainder in a fresh
top-level node), and a failed round retries with a finer snapshot.  Over
a presentation without a backdoor the search raises NoBackdoorError at its
first backdoor read, before any oracle query; no norm-only proposer exists.
The search is deterministic, so repeated runs are byte-identical.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Set, Tuple

logger = logging.getLogger(__name__)

from .chain_partition import LazyDisintegration, norm_power_value
from .errors import (
    BudgetExhaustedError,
    NotPartialDisintegrationError,
    PrecisionExhaustedError,
)
from .lp_vectors import FinSuppVector, atom_witness, is_atom, norm_p
from .presentations import ComputableVector, GenCombo, Presentation, bits_for
from .scalar_core import (
    MAX_WORKING_PREC,
    DyadicInterval,
    GaussianRational,
    PExponent,
    _exact_sum,
    _width_target,
    format_fraction,
    lamperti_constant,
    pow_enclosure,
    refine,
)
from .tree_maps import (
    ROOT,
    FiniteTree,
    TreeMap,
    TreeNode,
    _coordinate_carriers,
    distance_bound,
    index_pairs,
    project_to_strong_hom,
    sigma_pair_terms,
    validate_partial_disintegration,
)

# ---------------------------------------------------------------------------
# rational balls and certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RationalBall:
    """A tree, a formal combination per non-root node, and a radius."""

    tree: FiniteTree
    center: Dict[TreeNode, GenCombo]
    radius: Fraction

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if set(self.center) != set(self.tree.nonroot_nodes()):
            raise ValueError("center must assign exactly the non-root nodes")

    def center_map(self, pres: Presentation) -> TreeMap:
        values = {node: ComputableVector.constant(combo, pres) for node, combo in self.center.items()}
        return TreeMap(self.tree, values, pres.p)


@dataclass
class BallCertificate:
    """Flags granted for the whole closed ball, each a strict inequality."""

    radius: Fraction
    precision: int
    injective_nonzero: bool = False
    summativity: bool = False
    distance: bool = False
    restriction: bool = False
    meets_hom: bool = False
    margins: Dict[str, Fraction] = field(default_factory=dict)

    def all_granted(self, *, need_restriction: bool = True) -> bool:
        core = self.injective_nonzero and self.summativity and self.distance and self.meets_hom
        return core and (self.restriction or not need_restriction)

    def to_json(self) -> dict:
        return {
            "radius": format_fraction(self.radius),
            "precision": self.precision,
            "flags": {
                "injective_nonzero": self.injective_nonzero,
                "summativity": self.summativity,
                "distance": self.distance,
                "restriction": self.restriction,
                "meets_hom": self.meets_hom,
            },
            "margins": {
                name: format_fraction(margin) for name, margin in sorted(self.margins.items())
            },
        }


def _gauss_abs_upper(z: GaussianRational) -> Fraction:
    """A rational upper bound on |z| (within a factor close to 1)."""
    sq = z.abs_sq()
    if sq == 0:
        return Fraction(0)
    scale = 1 << 32
    num = math.isqrt(sq.numerator * scale * scale // sq.denominator) + 1
    return Fraction(num, scale)


def _triangle_norm_bound(combo: GenCombo, pres: Presentation) -> Fraction:
    """sum_j (|Re a_j| + |Im a_j|) B_j >= ||sum_j a_j f_j||, with B_j the
    presentation's certified bound on ||f_j||: the triangle inequality, and
    |a_j| <= |Re a_j| + |Im a_j|."""
    return sum(
        (
            (abs(z.re) + abs(z.im)) * pres.generator_norm_bound(j)
            for j, z in combo.entries.items()
        ),
        Fraction(0),
    )


def empty_map(pres: Presentation) -> TreeMap:
    return TreeMap(FiniteTree.trivial(), {}, pres.p)


@dataclass(slots=True)
class _PairBounds:
    """Certified bounds for one node pair, valid only for these node versions."""

    versions: Tuple[int, int]
    gap_lo: Optional[Fraction] = None    # lower bound on ||center[a] - center[b]||
    sigma_hi: Optional[Fraction] = None  # upper bound on the pair's sigma1 term
    sigma_prec: int = 0                  # read off an enclosure of width <= 2^-sigma_prec


class _BuildTable:
    """What one build_disintegration (or approximate_extend) call carries
    from round to round and stage to stage; it lives and dies with the call.

    Every node the call places gets a dense integer id and a version that
    changes exactly when the node's exact center changes.  Pair bounds are
    keyed by id pairs and hold only for the two versions they were read
    at: a bound is about the vectors of those two combinations only.

    The core is the set of nodes of the last accepted ball whose centers
    have not moved since, so every pair inside it holds current bounds of
    both kinds.  The table keeps the exact sum of those pairs' sigma upper
    bounds and a lower bound on their least gap lower bound; with them a
    search reads only the pairs holding a node outside the core.  validated
    holds the transparent values of the last accepted proposal map over an
    exact presentation: the next stage's proposal compares its cut snapshot
    with them.
    """

    def __init__(self):
        self.ids: Dict[TreeNode, int] = {}
        self.versions: List[int] = []
        self.centers: List[GenCombo] = []
        self.pairs: Dict[Tuple[int, int], _PairBounds] = {}
        self.core: Set[int] = set()
        self.sigma_sum = Fraction(0)
        self.least_gap: Optional[Fraction] = None
        self.validated: Optional[Dict[TreeNode, FinSuppVector]] = None

    def place(self, nodes: List[TreeNode], center: Dict[TreeNode, GenCombo]) -> List[int]:
        """The ids of nodes, in order.  A node whose center differs from the
        one last placed gets a new version, and a moved node or a core node
        missing from nodes leaves the core."""
        ids = []
        for node in nodes:
            combo = center[node]
            i = self.ids.get(node)
            if i is None:
                i = self.ids[node] = len(self.versions)
                self.versions.append(0)
                self.centers.append(combo)
            elif self.centers[i] is not combo:
                if self.centers[i] != combo:
                    self.versions[i] += 1
                    self._leave_core(i)
                self.centers[i] = combo
            ids.append(i)
        for i in self.core - set(ids):
            self._leave_core(i)
        return ids

    def _leave_core(self, i: int) -> None:
        if i in self.core:
            self.core.discard(i)
            self.sigma_sum -= _exact_sum([self.pairs[_pair_key(i, j)].sigma_hi for j in self.core])
            # least_gap stays a lower bound on the smaller core's gaps

    def fresh(self, ids: List[int]) -> List[int]:
        """The positions of the ids outside the core."""
        return [pos for pos, i in enumerate(ids) if i not in self.core]

    def entry(self, i: int, j: int) -> _PairBounds:
        """The bounds of the pair of ids i and j, emptied when either node's
        version changed since they were read."""
        key = _pair_key(i, j)
        versions = (self.versions[key[0]], self.versions[key[1]])
        entry = self.pairs.get(key)
        if entry is None or entry.versions != versions:
            entry = self.pairs[key] = _PairBounds(versions)
        return entry

    def set_sigma(self, i: int, j: int, entry: _PairBounds, hi: Fraction, prec: int) -> None:
        """Record the sigma bound of ids i and j, keeping the core sum exact."""
        if i in self.core and j in self.core:
            self.sigma_sum += hi - entry.sigma_hi
        entry.sigma_hi, entry.sigma_prec = hi, prec

    def gap_reads(
        self, nodes: List[TreeNode], center: Dict[TreeNode, GenCombo], skip_above: Fraction
    ) -> Iterator[Tuple[int, int, _PairBounds]]:
        """The pairs (i, j, entry) of positions in nodes whose gap the radius
        pick reads, in pair order: all but those whose carried gap lower
        bound is above skip_above.  While the least core gap is above it,
        every core pair is passed over unread; else every pair is visited,
        and a complete visit re-derives the least core gap from the bounds
        the caller wrote into the entries."""
        ids = self.place(nodes, center)
        carried = self.least_gap is None or self.least_gap > skip_above
        least = None
        for i, j in index_pairs(len(ids), self.fresh(ids) if carried else None):
            entry = self.entry(ids[i], ids[j])
            if entry.gap_lo is None or entry.gap_lo <= skip_above:
                yield i, j, entry
            if not carried and ids[i] in self.core and ids[j] in self.core:
                least = entry.gap_lo if least is None else min(least, entry.gap_lo)
        if not carried:
            self.least_gap = least

    def settle(self, nodes: List[TreeNode], center: Dict[TreeNode, GenCombo]) -> None:
        """Make the nodes of an accepted ball the core: the search read both
        bounds of each of its pairs."""
        for i in self.place(nodes, center):
            if i in self.core:
                continue
            added = [self.pairs[_pair_key(i, j)] for j in self.core]
            self.sigma_sum = _exact_sum([self.sigma_sum] + [e.sigma_hi for e in added])
            gaps = [e.gap_lo for e in added]
            if self.least_gap is not None:
                gaps.append(self.least_gap)
            self.least_gap = min(gaps, default=None)
            self.core.add(i)


def _pair_key(i: int, j: int) -> Tuple[int, int]:
    return (i, j) if i < j else (j, i)


def _ball_constraints(
    tree: FiniteTree,
    center: Dict[TreeNode, GenCombo],
    beta: Dict[int, Dict[TreeNode, GaussianRational]],
    phi: TreeMap,
    n_index: int,
    k: int,
    pres: Presentation,
    prec: int,
    table: Optional[_BuildTable] = None,
    skip_above: Optional[Fraction] = None,
):
    """Every inequality a ball certificate checks, each once, as
    (flag, slack, weight): it holds on the closed ball of radius r around
    center exactly when slack - weight * r > 0 (Lipschitz slack).

    Norms are read at prec; coverage reads the witness coefficients beta,
    and restriction is skipped when the base map phi is empty.  phi's
    values must be computable vectors over pres.

    With a build table (only the radius pick passes one), every pairwise
    gap read is recorded there, and a gap whose carried lower bound is
    above the fixed bar skip_above is settled: it is neither read nor
    yielded (see _BuildTable.gap_reads).  Every other gap is read in pair
    order.  The caller picks a bar above which the gap cannot decide its
    answer.
    """
    nodes = tree.nonroot_nodes()
    for node in nodes:
        yield "injective_nonzero", pres.norm_enclosure(center[node], prec).lo, 1

    if table is None:
        reads = ((i, j, None) for i, j in index_pairs(len(nodes)))
    else:
        reads = table.gap_reads(nodes, center, skip_above)
    for i, j, entry in reads:
        lo = pres.norm_enclosure(center[nodes[i]] - center[nodes[j]], prec).lo
        if entry is not None:
            entry.gap_lo = lo if entry.gap_lo is None else max(entry.gap_lo, lo)
        yield "injective_nonzero", lo, 2
    bound = _width_target(n_index)
    for node in nodes:
        kids = tree.children(node)
        if not kids:
            continue
        defect = center[node]
        for kid in kids:
            defect = defect - center[kid]
        yield "summativity", bound - pres.norm_enclosure(defect, prec).hi, 1 + len(kids)
    for j in range(n_index):
        resid = GenCombo.single(j)
        spread = Fraction(0)
        for node, z in beta.get(j, {}).items():
            resid = resid - center[node].scale(z)
            spread += _gauss_abs_upper(z)
        yield "distance", bound - pres.norm_enclosure(resid, prec).hi, spread
    for node in phi.nodes():
        diff = ComputableVector.constant(center[node], pres) - phi.value(node)
        yield "restriction", _width_target(k) - diff.norm_enclosure(prec).hi, 1


def _hom_root_upper(err_hi: Fraction, p: PExponent, prec: int) -> Fraction:
    """Upper bound on d(center, strong homs) from an upper bound on its p-th power."""
    return pow_enclosure(
        DyadicInterval(Fraction(0), max(err_hi, Fraction(0))), p, prec, over_p=True
    ).hi


def _ledger_hom_upper(
    ball: RationalBall, pres: Presentation, prec: int, table: _BuildTable
) -> Fraction:
    """An upper bound on the distance from the ball's center map to the
    strong homomorphisms, from the build table's pair terms: the search's
    one hom read per tried ball.

    It bounds the quantity certify_ball's hom_upper bounds, the p-th root
    of 2^p c_p times the sum of the sigma1 terms of the center map, from
    per-pair enclosures carried while both centers stay the same.  Any two
    distinct nodes are comparable or not, so every pair has a term.  The
    core pairs' terms enter as the table's running sum; of the others, the
    new pairs are evaluated at twice the precision sigma_tree would start at
    inside distance_bound(..., prec).  The ball shrinks from stage to stage,
    so a carried term can outgrow the budget: when the bound misses
    radius/4 (what _extend accepts), every pair evaluated below that
    doubled precision is re-evaluated at it, and a bound that still misses
    refuses the ball.
    """
    p = pres.p
    psi = ball.center_map(pres)
    nodes = ball.tree.nonroot_nodes()
    ids = table.place(nodes, ball.center)
    count = len(nodes)
    kk = 2 * (prec + 6 + (count * (count - 1) // 2).bit_length())
    touching = [
        (i, j, table.entry(ids[i], ids[j])) for i, j in index_pairs(count, table.fresh(ids))
    ]

    def evaluate(todo: List[Tuple[int, int, _PairBounds]]) -> None:
        terms = sigma_pair_terms(psi, [(nodes[i], nodes[j]) for i, j, _ in todo], kk)
        for (i, j, entry), term in zip(todo, terms):
            table.set_sigma(ids[i], ids[j], entry, term.hi, kk)

    def upper() -> Fraction:
        # every factor is nonnegative, so the product of upper bounds bounds it
        scale = pow_enclosure(DyadicInterval.point(2), p, kk) * lamperti_constant(p, kk)
        total = _exact_sum([table.sigma_sum] + [e.sigma_hi for _, _, e in touching])
        return _hom_root_upper(scale.hi * total, p, prec)

    with p.shared_powers():
        evaluate([t for t in touching if t[2].sigma_hi is None])
        bound = upper()
        if bound >= ball.radius / 4:
            stale = [
                (i, j, entry)
                for i, j in index_pairs(count)
                if (entry := table.entry(ids[i], ids[j])).sigma_prec < kk
            ]
            if stale:
                evaluate(stale)
                bound = upper()
    return bound


@dataclass(frozen=True)
class BallCheck:
    """An accepted ball with the arguments its printed certificate is
    checked under; phi is the empty map when there is no base map."""

    ball: RationalBall
    phi: TreeMap
    n_index: int
    k: int
    pres: Presentation
    beta: Dict[int, Dict[TreeNode, GaussianRational]]
    precision: int


def certify_ball(check: BallCheck) -> BallCertificate:
    """Check each flag of the ball at the check's working precision: the
    certificate that disintegrate and extend print.

    A flag is granted when every inequality of its family holds across the
    ball: each (flag, slack, weight) from _ball_constraints must have
    slack - weight * r > 0 at the ball's radius r, and the family's least
    such value is its margin ("separation" for injective_nonzero).  The
    summativity and coverage bounds (the latter through the witness
    coefficients beta) are read at 2**-n_index.  Restriction holds outright
    when the base map phi is empty.  hom_upper bounds the distance to the
    strong homomorphisms through distance_bound on the center map.
    Absent flags are simply not granted; callers escalate by re-proposing,
    which keeps runs reproducible.  Margins are kept as exact fractions;
    only to_json formats them.

    The search does not call this: its radius pick already reads every
    inequality here (see _pick_radius_bits), so it runs only when a report
    renders an accepted ball.
    """
    ball, phi, pres, prec = check.ball, check.phi, check.pres, check.precision
    r = ball.radius
    cert = BallCertificate(radius=r, precision=prec)

    worst: Dict[str, Fraction] = {
        "summativity": _width_target(check.n_index),
        "distance": _width_target(check.n_index),
    }
    if not phi.is_empty:
        worst["restriction"] = _width_target(check.k)
    with pres.p.shared_powers():
        for flag, slack, weight in _ball_constraints(
            ball.tree, ball.center, check.beta, phi, check.n_index, check.k, pres, prec
        ):
            margin = slack - weight * r
            worst[flag] = min(worst.get(flag, margin), margin)
        # intersection with the strong homomorphisms
        err = distance_bound(empty_map(pres), ball.center_map(pres), prec)
        root_upper = _hom_root_upper(err.hi, pres.p, prec)
    separation = worst.pop("injective_nonzero", None)
    cert.injective_nonzero = separation is None or separation > 0
    if separation is not None:
        cert.margins["separation"] = separation
    cert.summativity = worst["summativity"] > 0
    cert.distance = worst["distance"] > 0
    cert.restriction = phi.is_empty or worst["restriction"] > 0
    cert.margins.update(worst)
    cert.meets_hom = root_upper < r
    cert.margins["hom_gap"] = r - root_upper
    cert.margins["hom_upper"] = root_upper
    return cert


# ---------------------------------------------------------------------------
# guided proposals
# ---------------------------------------------------------------------------


@dataclass
class ProposalStructure:
    """The fixed combinatorial skeleton of one candidate extension.

    atom_holders maps each covered coordinate to the node carrying its
    atom, which is either a fresh child, a fresh top-level node, or an
    original node whose value already was an atom.
    """

    tree: FiniteTree
    atom_nodes: Dict[TreeNode, Tuple[TreeNode, int]]  # new child -> (carrier, coord)
    fresh_atoms: Dict[TreeNode, int]                  # new top node -> coord
    residual_nodes: Dict[TreeNode, int]               # new top node -> generator
    atom_holders: Dict[int, TreeNode]                 # coord -> node
    level: int


@dataclass
class Proposal:
    structure: ProposalStructure
    center: Dict[TreeNode, GenCombo]
    beta: Dict[int, Dict[TreeNode, GaussianRational]]
    atom_support: Dict[TreeNode, int]
    snapshot_prec: int
    values: Dict[TreeNode, FinSuppVector]  # the validated proposal map's values


def _truncated_hom(
    snap: TreeMap,
    level: int,
    pres: Presentation,
    prec: int,
    validated: Optional[Dict[TreeNode, FinSuppVector]] = None,
) -> Tuple[TreeMap, bool]:
    """The strong homomorphism projected from snap cut below coordinate
    level, and whether it is validated already.

    When the cut equals validated, the values of a map already validated as
    a partial disintegration, the cut is that map and is returned as it is:
    a strong homomorphism has no threshold terms, and abs_pow encloses the
    power of each nonzero coordinate strictly above 0, so the projection
    keeps every coordinate and would return the cut unchanged.
    """
    values = {n: snap.value(n).restrict_below(level) for n in snap.nodes()}
    cut = TreeMap(snap.tree, values, snap.p)
    if values == validated:
        return cut, True
    return project_to_strong_hom(empty_map(pres), cut, prec), False


def _values_on_structure(
    structure: ProposalStructure,
    chi: TreeMap,
    gens: Dict[int, FinSuppVector],
    pres: Presentation,
    prec: int,
) -> Tuple[Dict[TreeNode, FinSuppVector], Dict[TreeNode, GenCombo]]:
    """Transparent values and combo encodings for a pinned skeleton, from
    the caller's reads at prec: chi, the snapshot's homomorphism at
    structure.level, and gens, the residual nodes' generator vectors."""
    values: Dict[TreeNode, FinSuppVector] = {n: chi.value(n) for n in chi.nodes()}
    for child, (carrier, coord) in structure.atom_nodes.items():
        values[child] = chi.value(carrier).restrict([coord])
    for fresh, coord in structure.fresh_atoms.items():
        values[fresh] = FinSuppVector.basis(coord)

    center: Dict[TreeNode, GenCombo] = {}
    for node in structure.tree.nonroot_nodes():
        if node in structure.residual_nodes:
            continue
        center[node] = pres.encode_vector(values[node], prec)
    atoms = {m: (h, values[h][m]) for m, h in structure.atom_holders.items()}
    for node, j in structure.residual_nodes.items():
        # f_j less its witnessed atoms, on the value as on the center
        combo, rest = GenCombo.single(j), gens[j]
        for holder, coeff in atom_witness(gens[j], atoms).items():
            combo = combo - center[holder].scale(coeff)
            rest = rest - values[holder].scale(coeff)
        center[node], values[node] = combo, rest
    return values, center


def build_guided_proposal(
    phi: TreeMap,
    n_index: int,
    k: int,
    pres: Presentation,
    round_idx: int,
    *,
    force_growth: bool,
    validated: Optional[Dict[TreeNode, FinSuppVector]] = None,
) -> Optional[Proposal]:
    """The deterministic candidate for one search round, or None when the
    snapshot fails to validate (the caller then escalates precision).

    force_growth guarantees at least one new node: when the coverage
    requirements are already met by phi itself, a fresh disjoint atom on
    the first untouched coordinate is attached at the top level (the
    staged builder requires strictly growing domains).

    validated, the values of the map the last stage accepted, lets an exact
    stage skip the projection and the validation of the pinned nodes while
    the cut snapshot equals them (see _truncated_hom): only the new nodes
    are then checked against all others.  Without it, or once a pinned
    value moved, the round projects and validates every node.
    """
    prec = max(n_index + 4, k + 4, 16) + 6 * round_idx
    target = _width_target(n_index + 2)
    pi_target = _width_target(k + 2)

    # one snapshot, its projection chi and gens serve the whole round
    snap = phi.transparent_snapshot(prec)
    level = 0
    while any(
        pres.generator_tail_norm_bound(j, level) >= target for j in range(n_index + 1)
    ):
        level += 1
        if level > 1 << 14:
            return None
    for node in snap.nodes():
        vec = snap.value(node)
        while True:
            dropped = vec - vec.restrict_below(level)
            if norm_p(dropped, phi.p, prec).hi < min(target, pi_target) / 4:
                break
            level += 1

    # chi is a strong homomorphism by construction; the proposal map keeps
    # its values, so that map's validation refutes a zero or repeated one
    chi, carried = _truncated_hom(snap, level, pres, prec, validated)
    size = len(chi.tree)
    carriers = _coordinate_carriers(chi)
    atom_nodes: Dict[TreeNode, Tuple[TreeNode, int]] = {}
    atom_holders: Dict[int, TreeNode] = {}
    for coord in sorted(carriers):
        carrier = carriers[coord]
        if not is_atom(chi.value(carrier)):
            child = carrier.child(coord + size)
            if child in chi.tree:
                return None
            atom_nodes[child] = (carrier, coord)
            atom_holders[coord] = child
        else:
            atom_holders[coord] = carrier

    # which generators still need a remainder node
    residual_nodes: Dict[TreeNode, int] = {}
    fresh_atoms: Dict[TreeNode, int] = {}
    residual_supports: Dict[int, frozenset] = {}
    gens = {j: pres.generator_vector(j, prec) for j in range(n_index + 1)}
    for j, gen in gens.items():
        rest = FinSuppVector(
            {m: z for m, z in gen.entries.items() if m not in atom_holders}
        )
        if norm_p(rest, phi.p, prec).hi >= target / 2:
            residual_supports[j] = rest.support()

    supports = list(residual_supports.values())
    overlap = any(supports[i] & supports[j] for i, j in index_pairs(len(supports)))
    next_label = size + level + 1
    if overlap:
        # plan B: raw atoms on the needed low coordinates instead
        needed = sorted(
            {m for supp in supports for m in supp if m <= level}
        )
        for m in needed:
            fresh = ROOT.child(next_label)
            next_label += 1
            fresh_atoms[fresh] = m
            atom_holders[m] = fresh
    else:
        for j in sorted(residual_supports):
            fresh = ROOT.child(next_label)
            next_label += 1
            residual_nodes[fresh] = j

    if force_growth and not (atom_nodes or fresh_atoms or residual_nodes):
        coord = level + 1
        while coord in atom_holders:
            coord += 1
        fresh = ROOT.child(next_label)
        next_label += 1
        fresh_atoms[fresh] = coord
        atom_holders[coord] = fresh

    tree = chi.tree.union(list(atom_nodes) + list(fresh_atoms) + list(residual_nodes))
    structure = ProposalStructure(
        tree=tree,
        atom_nodes=atom_nodes,
        fresh_atoms=fresh_atoms,
        residual_nodes=residual_nodes,
        atom_holders=atom_holders,
        level=level,
    )

    values, center = _values_on_structure(structure, chi, gens, pres, prec)
    proposal_map = TreeMap(tree, values, phi.p)
    fresh = set(atom_nodes) | set(fresh_atoms) | set(residual_nodes) if carried else None
    if not validate_partial_disintegration(proposal_map, fresh).is_yes:
        return None

    atom_support = {node: next(iter(vec.entries)) for node, vec in values.items() if is_atom(vec)}

    # witnesses: assemble f_j from the atoms plus its remainder node
    atoms = {m: (h, values[h][m]) for m, h in atom_holders.items()}
    beta = {j: atom_witness(gen, atoms) for j, gen in gens.items()}
    for node, j in residual_nodes.items():
        beta[j][node] = GaussianRational.one()

    return Proposal(structure, center, beta, atom_support, prec, values)


# ---------------------------------------------------------------------------
# approximate extension
# ---------------------------------------------------------------------------


# guided proposals _extend tries, each snapshot 6 bits finer than the last
SEARCH_ROUNDS = 6
# bits _refined_values may add past the accepted proposal's snapshot
REFINEMENT_CAP = 192
# bits each _refined_values attempt adds to the last snapshot precision
REFINEMENT_STEP_BITS = 4


def _pick_radius_bits(
    proposal: Proposal,
    phi: TreeMap,
    n_index: int,
    k: int,
    pres: Presentation,
    table: Optional[_BuildTable] = None,
) -> Optional[int]:
    """The search's constraint check: the bits of a radius on whose whole
    closed ball the proposal keeps every certificate inequality but the
    hom test, or None.

    Reads each inequality of _ball_constraints once, at the snapshot
    precision: None unless every slack read is positive, else the bits of
    half the least of 2^-(k+1) and each slack / (2 max(weight, 1)).  So
    the radius r satisfies r <= slack / (4 max(weight, 1)), and
    slack - weight * r >= 3 slack / 4 > 0 for every inequality read.  Each
    read is a certified bound, so injectivity and nonvanishing,
    summativity, coverage and restriction hold on the whole closed ball,
    and the search reads none of them again.

    With a build table, a pairwise gap whose carried lower bound lo is
    above the bar 2^-snapshot_prec + 4 * 2^-(k+1) is skipped.  Its read at the snapshot
    precision would be at least lo - 2^-snapshot_prec (an enclosure's
    width contract): positive, and with a quarter above the starting
    limit.  The limit only falls, so such a gap cannot bind and the result
    is the same without the read.  It holds on the ball too: r <= 2^-(k+2),
    so lo > 2r.  While the table's least core gap is above the bar, every
    core pair is skipped at once, and only the pairs holding a node outside
    the core are looked up.
    """
    limit = _width_target(k + 1)
    skip_above = _width_target(proposal.snapshot_prec) + 4 * limit
    with pres.p.shared_powers():
        for _, slack, weight in _ball_constraints(
            proposal.structure.tree,
            proposal.center,
            proposal.beta,
            phi,
            n_index + 1,
            k,
            pres,
            proposal.snapshot_prec,
            table,
            skip_above,
        ):
            if slack <= 0:
                return None
            limit = min(limit, slack / (2 * max(weight, 1)))
    return bits_for(limit / 2)


def approximate_extend(
    phi: TreeMap,
    n_index: int,
    k: int,
    pres: Presentation,
) -> StageRecord:
    """Extend a partial disintegration, approximately and certifiably.

    Output contract: the record's phi_hat is a partial disintegration with
    success index > n_index, and its restriction to phi's domain is within
    2**-k of phi.  The whole closed ball of radius 2**-ball_bits around
    phi_hat retains injectivity, nonvanishing, and the success clauses, so
    the stage builder can reuse the certificate for its ball conditions.

    This is the entry point for untrusted input: phi is validated first,
    and NotPartialDisintegrationError is raised when the validation
    refutes it.  A transparent phi is decided exactly (a zero value or a
    repeated value is refuted), and only then encoded over pres, each value
    within 2**-(k+6), which is what the search reads as the base map.
    build_disintegration, whose stages are certified by construction,
    skips that check.  Raises NoBackdoorError, before any oracle query of
    the search, when pres cannot answer a backdoor read.
    """
    verdict = validate_partial_disintegration(phi)
    if verdict.is_no:
        raise NotPartialDisintegrationError(verdict.witness)
    if phi.is_transparent:
        values = {
            node: ComputableVector.constant(pres.encode_vector(phi.value(node), k + 6), pres)
            for node in phi.nodes()
        }
        phi = TreeMap(phi.tree, values, phi.p)
    return _extend(phi, n_index, k, pres, _BuildTable())


def _extend(
    phi: TreeMap,
    n_index: int,
    k: int,
    pres: Presentation,
    table: _BuildTable,
    *,
    force_growth: bool = False,
) -> StageRecord:
    """approximate_extend without validating phi: the caller vouches that
    phi is a partial disintegration.

    Round r tries the guided proposal built from a snapshot 6r bits finer
    than round 0's, and the first ball that passes wins.  A ball is decided
    once: _pick_radius_bits proves every inequality but the hom test on it,
    and _ledger_hom_upper must then bound the distance to the strong
    homomorphisms below a quarter of the radius, so the refinement
    converges inside half of it.  The build table holds the pair bounds
    earlier rounds and stages certified; this call reads them where both
    centers are unchanged and adds its own, so only pairs touching a new or
    moved node cost fresh reads.  An accepted ball's nodes become the
    table's core, and over an exact presentation its proposal's values
    become what the next stage's proposal is validated against.  The hom
    test refuses to run past MAX_WORKING_PREC bits: its precision grows
    with p, and so do the powers it takes exactly.  The StageRecord
    returned keeps the accepted ball's BallCheck, and the certificate a
    report prints is certify_ball on it, the full pass.  NoBackdoorError comes
    from the first backdoor read (phi's snapshot, or the level scan's tail
    bounds), which precedes the first oracle query.
    """
    p_ceil = pres.p.upper_int()
    for round_idx in range(SEARCH_ROUNDS):
        proposal = build_guided_proposal(
            phi, n_index, k, pres, round_idx, force_growth=force_growth, validated=table.validated
        )
        if proposal is None:
            continue
        radius_bits = _pick_radius_bits(proposal, phi, n_index, k, pres, table)
        if radius_bits is None:
            continue
        ball = RationalBall(
            proposal.structure.tree, proposal.center, _width_target(radius_bits)
        )
        # the hom-gap check takes a p-th root of the error functional's
        # interval slack, so the working precision scales with p
        precision = max(n_index + 8, k + 6, p_ceil * (radius_bits + 4) + 8)
        if precision > MAX_WORKING_PREC:
            raise PrecisionExhaustedError(
                f"the hom test's working precision passes MAX_WORKING_PREC = {MAX_WORKING_PREC} bits"
            )
        hom_upper = _ledger_hom_upper(ball, pres, precision, table)
        logger.info(
            "ball tree=%s radius=2^-%d hom_upper=%s precision=%d",
            ball.tree,
            radius_bits,
            hom_upper,
            precision,
        )
        if hom_upper >= ball.radius / 4:
            continue
        table.settle(ball.tree.nonroot_nodes(), ball.center)
        table.validated = proposal.values if pres.exact_arithmetic else None
        if pres.exact_arithmetic:
            phi_hat = ball.center_map(pres)
        else:
            phi_hat = TreeMap(ball.tree, _refined_values(proposal, phi, pres, ball), phi.p)
        check = BallCheck(ball, phi, n_index + 1, k, pres, proposal.beta, precision)
        return StageRecord(phi_hat, radius_bits + 1, check, dict(proposal.atom_support))
    raise BudgetExhaustedError(
        f"no certifiable extension within {SEARCH_ROUNDS} rounds", budget=SEARCH_ROUNDS
    )


def _refined_values(
    proposal: Proposal,
    phi: TreeMap,
    pres: Presentation,
    ball: RationalBall,
) -> Dict[TreeNode, ComputableVector]:
    """Computable vectors converging into the homomorphisms inside the ball.

    Step s re-derives the center on the pinned skeleton from an ever-finer
    snapshot; each step distance is certified below 2^-(m+s+2), by the
    triangle bound over oracle-certified generator norms, or by an oracle
    read, so the limits stay within half the ball radius of the accepted
    center.
    """
    m = bits_for(ball.radius)
    steps: List[Dict[TreeNode, GenCombo]] = [dict(ball.center)]
    precs: List[int] = [proposal.snapshot_prec]
    structure = proposal.structure

    def ensure(s: int) -> None:
        while len(steps) <= s:
            idx = len(steps)
            bar = _width_target(m + idx + 2)
            prec = precs[-1] + REFINEMENT_STEP_BITS
            while True:
                if prec - proposal.snapshot_prec > REFINEMENT_CAP:
                    raise PrecisionExhaustedError(
                        "refinement cap hit before the target precision"
                    )
                snap = phi.transparent_snapshot(prec)
                chi, _ = _truncated_hom(snap, structure.level, pres, prec)
                gens = {j: pres.generator_vector(j, prec) for j in structure.residual_nodes.values()}
                _, center = _values_on_structure(structure, chi, gens, pres, prec)
                ok = True
                # nodes often share a step difference: certify each one once.
                # The oracle's enclosure at prec holds ||diff|| and is at
                # most 2^-prec wide, so it tops out below ||diff|| + 2^-prec,
                # and ||diff|| is at most the triangle bound: when the bound
                # plus 2^-prec is below the bar, the read would pass too.
                # Only the other gaps are read, so every step is decided as
                # reading every gap would decide it.
                gaps: Dict[GenCombo, Fraction] = {}
                for node, combo in center.items():
                    diff = combo - steps[-1][node]
                    gap = gaps.get(diff)
                    if gap is None:
                        gap = _triangle_norm_bound(diff, pres) + _width_target(prec)
                        if gap >= bar:
                            gap = pres.norm_enclosure(diff, prec).hi
                        gaps[diff] = gap
                    if gap >= bar:
                        ok = False
                        break
                if ok:
                    steps.append(center)
                    precs.append(prec)
                    break
                prec += REFINEMENT_STEP_BITS

    values: Dict[TreeNode, ComputableVector] = {}
    for node in ball.tree.nonroot_nodes():

        def make_approx(nd: TreeNode):
            def approx(k2: int) -> GenCombo:
                s = max(0, k2 - (m + 1))
                ensure(s)
                return steps[s][nd]

            return approx

        values[node] = ComputableVector(make_approx(node), pres)
    return values


# ---------------------------------------------------------------------------
# staged disintegration
# ---------------------------------------------------------------------------


@dataclass
class StageRecord:
    phi_hat: TreeMap
    ball_bits: int     # every map within 2^-ball_bits keeps this stage's properties
    accepted: Optional[BallCheck]  # None for stage 0, which no ball certifies
    atom_support: Dict[TreeNode, int]


class StagedDisintegration:
    """The ascending sequence of certified partial disintegrations plus the
    normalized view whose root sums the geometrically damped level-one
    values."""

    def __init__(self, pres: Presentation, stages: List[StageRecord]):
        self.pres = pres
        self.stages = stages
        # the nodes some stage pins to an atom: they never gain children
        self.atom_nodes = {node for rec in stages for node in rec.atom_support}

    @property
    def p(self) -> PExponent:
        return self.pres.p

    def last(self) -> StageRecord:
        return self.stages[-1]

    def tree(self, n: int) -> FiniteTree:
        return self.stages[n].phi_hat.tree

    def stage_count(self) -> int:
        return len(self.stages)

    def chain_source(self) -> LazyDisintegration:
        """The normalized disintegration, as the chain layer reads it.

        Norm queries are answered structurally: level-one values are exact
        units damped by 2^-label, deeper values are oracle norm ratios, and
        the root's p-th power is the damped sum over materialized labels
        plus a certified geometric tail for the labels still to come.  The
        root has no vector value: the chain layer reads only its norm
        power, and value(ROOT) raises ValueError.
        """
        return LazyDisintegration(
            self.p,
            self.normalized_value,
            lambda t: self.tree(min(t, self.stage_count() - 1)),
            terminal_fn=self.atom_nodes.__contains__,
            norm_power_fn=self.normalized_norm_power,
        )

    def report(self) -> dict:
        return {
            "presentation": self.pres.descriptor(),
            "stages": [
                {
                    "index": index,
                    "tree": rec.phi_hat.tree.to_json(),
                    "ball_bits": rec.ball_bits,
                    "exact": self.pres.exact_arithmetic,
                    "certificate": certify_ball(rec.accepted).to_json() if rec.accepted else None,
                    "atoms": {
                        str(list(n.path)): m
                        for n, m in sorted(rec.atom_support.items())
                    },
                }
                for index, rec in enumerate(self.stages)
            ],
        }

    def normalized_value(self, node: TreeNode) -> ComputableVector:
        """2^-a ||phi((a))||^-1 phi(nu), a = the node's first coordinate."""
        if node.is_root():
            raise ValueError(
                "the normalized root has no vector value; only its norm power is read"
            )
        rec = self.last()
        a = node.path[0]
        base = rec.phi_hat.value(TreeNode.of(a))
        scaled = rec.phi_hat.value(node).over_norm_of(base, 4)
        return scaled.scale_gauss(GaussianRational.of(Fraction(1, 2**a)))

    def normalized_norm_power(self, node: TreeNode, t: int) -> Fraction:
        """q(node, t) for the normalized view, |q - ||psi(node)||^p| < 2^-(t+1).

        ||psi(nu)||^p = 2^(-a p) ||phi(nu)||^p / ||phi((a))||^p with a = nu(0);
        the root's power is the sum of 2^(-a p) over all level-one labels, the
        unseen ones bounded by a geometric tail below the current node count.
        """
        p = self.p
        rec = self.last()
        if node.is_root():
            # the midpoint of [sum, sum + widths + tail] lands within 2^-(t+1)
            # of the true power as long as widths + tail stay below 2^-t
            level_one = [n for n in rec.phi_hat.tree.nonroot_nodes() if len(n) == 1]
            floor_label = len(rec.phi_hat.tree)
            tail_hi = Fraction(2, 2**floor_label)  # sum of 2^-ap <= sum of 2^-a
            if tail_hi >= _width_target(t + 1):
                raise PrecisionExhaustedError(
                    "the root norm needs more stages at this stage precision"
                )
            kk = bits_for(_width_target(t + 3) / (2 * max(1, len(level_one))))
            total = DyadicInterval.point(0)
            for n in level_one:
                total = total + pow_enclosure(
                    DyadicInterval.point(Fraction(1, 2 ** n.path[0])), p, kk
                )
            return (total + DyadicInterval(Fraction(0), tail_hi)).mid
        a = node.path[0]
        if len(node) == 1:
            box = pow_enclosure(DyadicInterval.point(Fraction(1, 2**a)), p, t + 3)
            return box.mid

        def attempt(kk: int) -> Optional[Fraction]:
            num = norm_power_value(rec.phi_hat.value(node), p, kk)
            den = norm_power_value(rec.phi_hat.value(TreeNode.of(a)), p, kk)
            if den.lo <= 0:
                return None
            box = pow_enclosure(DyadicInterval.point(Fraction(1, 2**a)), p, kk) * (
                num * den.reciprocal()
            )
            return box.mid if box.fits(t + 2) else None

        return refine(
            attempt,
            t + 4,
            what="normalized norm refinement exceeded its cap",
            cap=1 << 12,
        )


def build_disintegration(
    pres: Presentation,
    n_target: int,
) -> StagedDisintegration:
    """Staged construction: certified balls all the way up.

    Stage 0 holds the first generator certified nonzero; stage n+1 extends
    stage n within 2^-(k_n + 1) while pushing the success index past n.
    The k_n grow monotonically, so the stagewise limits exist with
    geometric moduli.

    Stages are not re-validated before they are extended: stage 0 is
    certified nonzero and every later stage comes out of a ball the search
    certified, so validation could never refute them.  Use
    approximate_extend to extend a map of unknown provenance.

    One build table (_BuildTable) lives for the whole call and is handed
    to every stage's _extend; it is dropped with the call.  It numbers the
    nodes and versions their centers, and stores, per pair of ids, a
    certified lower bound on the centers' gap (read by the radius pick) and
    an enclosure of the pair's sigma1 term (read by the hom test), each
    valid only for the node versions it was computed at.  Over the nodes of
    the last accepted ball it keeps the sum of those terms and the least
    gap, so a stage touches only the O(n) pairs that hold a new or moved
    node.  Over an exact presentation it also keeps the last accepted
    proposal's values: while a stage's cut snapshot equals them, the
    proposal projects nothing and validates only its new nodes.  Sigma
    terms are refreshed at doubled precision when the shrinking radius
    outgrows them.  Each stage is the StageRecord _extend returns, its
    ball_bits raised past the previous stage's; the report prints
    certify_ball on each record's BallCheck, the full pass.
    """
    pres.p.side_of_two()  # raises PEqualsTwoError up front

    for j0 in range(64):
        combo0 = GenCombo.single(j0)
        norm_lo = pres.norm_enclosure(combo0, 10).lo
        if norm_lo > 0:
            break
    else:
        raise BudgetExhaustedError("no generator certified nonzero among the first 64")

    first = TreeNode.of(0)
    phi0 = TreeMap(FiniteTree([first]), {first: ComputableVector.constant(combo0, pres)}, pres.p)
    k0 = bits_for(norm_lo / 2)
    atoms0: Dict[TreeNode, int] = {}
    gen_atom = pres.generator_atom(j0)
    if gen_atom is not None:
        atoms0[first] = gen_atom
    stages = [StageRecord(phi0, k0, None, atoms0)]

    table = _BuildTable()
    for n in range(n_target):
        prev = stages[-1]
        rec = _extend(prev.phi_hat, n, prev.ball_bits + 1, pres, table, force_growth=True)
        tree = rec.phi_hat.tree
        if not prev.phi_hat.tree.is_subtree_of(tree) or len(tree) <= len(prev.phi_hat.tree):
            raise BudgetExhaustedError("the extension did not grow the tree")
        rec.ball_bits = max(rec.ball_bits, prev.ball_bits + 1)
        stages.append(rec)
    return StagedDisintegration(pres, stages)
