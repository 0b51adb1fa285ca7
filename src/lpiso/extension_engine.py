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

Candidates are enumerated deterministically: a guided proposal derived
from a transparent snapshot (truncate, project to an exact homomorphism,
split carried coordinates into atom children, park each generator's
uncovered remainder in a fresh top-level node), interleaved with a
canonical dovetail over tree shapes and coefficient grids that keeps the
search complete in the limit.  The first certified candidate wins, so
repeated runs are byte-identical.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Tuple

logger = logging.getLogger(__name__)

from .errors import (
    BudgetExhaustedError,
    NotPartialDisintegrationError,
    PrecisionExhaustedError,
)
from .lp_vectors import FinSuppVector, norm_p
from .presentations import ComputableVector, GenCombo, Presentation, bits_for
from .scalar_core import (
    CReal,
    DyadicInterval,
    GaussianRational,
    PExponent,
    _width_target,
    format_fraction,
    pow_enclosure,
)
from .tree_maps import (
    ROOT,
    FiniteTree,
    TreeMap,
    TreeNode,
    distance_bound,
    project_to_strong_hom,
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
        return _center_map(self.tree, self.center, pres)


def _center_map(tree: FiniteTree, center: Dict[TreeNode, GenCombo], pres: Presentation) -> TreeMap:
    values = {
        node: ComputableVector.constant(combo, pres, f"center{node}")
        for node, combo in center.items()
    }
    return TreeMap(tree, values, pres.p, pres)


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
    beta: Optional[Dict[int, Dict[TreeNode, GaussianRational]]] = None
    margins: Dict[str, str] = field(default_factory=dict)

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
            "margins": dict(sorted(self.margins.items())),
        }


def _gauss_abs_upper(z: GaussianRational) -> Fraction:
    """A rational upper bound on |z| (within a factor close to 1)."""
    import math

    sq = z.abs_sq()
    if sq == 0:
        return Fraction(0)
    scale = 1 << 32
    num = math.isqrt(sq.numerator * scale * scale // sq.denominator) + 1
    return Fraction(num, scale)


def error_functional(phi: TreeMap, psi: TreeMap, k: int) -> DyadicInterval:
    """E(psi) relative to phi: the restriction distance to the p plus
    2^p sigma of the merged map.

    Identical in substance to the distance bound; by the bounding
    principle its p-th root dominates d(psi, strong homs extending phi).
    """
    return distance_bound(phi, psi, k)


def empty_map(pres: Presentation) -> TreeMap:
    return TreeMap(FiniteTree.trivial(), {}, pres.p, pres)


def _as_cv(value, pres: Presentation, prec: int) -> ComputableVector:
    if isinstance(value, ComputableVector):
        return value
    return ComputableVector.constant(pres.encode_vector(value, prec), pres)


def certify_ball(
    ball: RationalBall,
    phi: Optional[TreeMap],
    n_index: int,
    k: int,
    pres: Presentation,
    *,
    hom_base: Optional[TreeMap] = None,
    beta: Optional[Dict[int, Dict[TreeNode, GaussianRational]]] = None,
    precision: Optional[int] = None,
) -> BallCertificate:
    """Check each flag at one working precision.

    Absent flags are simply not granted; callers escalate by re-proposing,
    which keeps runs reproducible.  The summativity and coverage bounds are
    read at 2**-n_index; coverage needs explicit witness coefficients.
    """
    prec = precision or max(n_index + 6, k + 4, bits_for(ball.radius) + 6)
    r = ball.radius
    cert = BallCertificate(radius=r, precision=prec, beta=beta)
    nodes = ball.tree.nonroot_nodes()

    # injectivity and nonvanishing with Lipschitz slack 2r / r
    ok = True
    worst_gap: Optional[Fraction] = None

    def note_gap(g: Fraction):
        nonlocal worst_gap
        worst_gap = g if worst_gap is None else min(worst_gap, g)

    for node in nodes:
        gap = pres.norm_enclosure(ball.center[node], prec).lo - r
        note_gap(gap)
        if gap <= 0:
            ok = False
            break
    if ok:
        for i, a in enumerate(nodes):
            if not ok:
                break
            for b in nodes[i + 1 :]:
                gap = pres.norm_enclosure(ball.center[a] - ball.center[b], prec).lo - 2 * r
                note_gap(gap)
                if gap <= 0:
                    ok = False
                    break
    cert.injective_nonzero = ok
    if worst_gap is not None:
        cert.margins["separation"] = format_fraction(worst_gap)

    # summativity across the ball
    bound = _width_target(n_index)
    ok = True
    worst = Fraction(0)
    for node in nodes:
        kids = ball.tree.children(node)
        if not kids:
            continue
        defect = ball.center[node]
        for kid in kids:
            defect = defect - ball.center[kid]
        upper = pres.norm_enclosure(defect, prec).hi + r * (1 + len(kids))
        worst = max(worst, upper)
        if upper >= bound:
            ok = False
    cert.summativity = ok
    cert.margins["summativity"] = format_fraction(bound - worst)

    # generator coverage with explicit witnesses
    ok = beta is not None
    worst = Fraction(0)
    if beta is not None:
        for j in range(n_index):
            coeffs = beta.get(j, {})
            resid = GenCombo.single(j)
            spread = Fraction(0)
            for node, z in coeffs.items():
                resid = resid - ball.center[node].scale(z)
                spread += _gauss_abs_upper(z)
            upper = pres.norm_enclosure(resid, prec).hi + r * spread
            worst = max(worst, upper)
            if upper >= bound:
                ok = False
                break
    cert.distance = ok
    cert.margins["distance"] = format_fraction(bound - worst)

    # the whole ball stays within 2^-k of phi on phi's domain
    if phi is None or phi.is_empty:
        cert.restriction = True
    else:
        ok = True
        worst = Fraction(0)
        center_map = ball.center_map(pres)
        for node in phi.nodes():
            diff = center_map.value(node) - _as_cv(phi.value(node), pres, prec)
            upper = diff.norm_enclosure(prec).hi + r
            worst = max(worst, upper)
            if upper >= _width_target(k):
                ok = False
                break
        cert.restriction = ok
        cert.margins["restriction"] = format_fraction(_width_target(k) - worst)

    # intersection with the strong homomorphisms over hom_base
    base = hom_base if hom_base is not None else (phi if phi is not None else empty_map(pres))
    err = error_functional(base, ball.center_map(pres), prec)
    root_upper = pow_enclosure(
        DyadicInterval(Fraction(0), max(err.hi, Fraction(0))), pres.p, prec, over_p=True
    ).hi
    cert.meets_hom = root_upper < r
    cert.margins["hom_gap"] = format_fraction(r - root_upper)
    cert.margins["hom_upper"] = format_fraction(root_upper)
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
    base_nodes: List[TreeNode]
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
    exact: bool
    atom_support: Dict[TreeNode, int]
    snapshot_prec: int


def _truncate_map(snap: TreeMap, level: int) -> TreeMap:
    values = {n: snap.value(n).restrict_below(level) for n in snap.nodes()}
    return TreeMap(snap.tree, values, snap.p, snap.pres)


def _coordinate_carriers(chi: TreeMap) -> Dict[int, TreeNode]:
    carriers: Dict[int, TreeNode] = {}
    for node in chi.nodes():
        for coord in chi.value(node).support():
            cur = carriers.get(coord)
            if cur is None or len(node) > len(cur):
                carriers[coord] = node
    return carriers


def _presentation_exactness(pres: Presentation) -> bool:
    """Whether snapshots and encodings are exact rational arithmetic."""
    kind = pres.descriptor().get("type")
    if kind in ("standard", "rotated"):
        return True
    if kind == "adversarial":
        return pres.p.exact == 1 and getattr(pres.ce, "complete_size", None) is not None
    return False


def _inverse(lam: GaussianRational) -> GaussianRational:
    return lam.conj().scale(1 / lam.abs_sq())


def _values_on_structure(
    structure: ProposalStructure,
    phi: TreeMap,
    pres: Presentation,
    prec: int,
) -> Tuple[Dict[TreeNode, FinSuppVector], Dict[TreeNode, GenCombo]]:
    """Transparent values and combo encodings for a pinned skeleton."""
    snap = phi.transparent_snapshot(prec)
    chi = project_to_strong_hom(empty_map(pres), _truncate_map(snap, structure.level), prec)
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
    for node, j in structure.residual_nodes.items():
        gen = pres.generator_vector(j, prec)
        combo = GenCombo.single(j)
        rest = dict(gen.entries)
        for m, z in gen.entries.items():
            holder = structure.atom_holders.get(m)
            if holder is None or holder in structure.residual_nodes:
                continue
            lam = values[holder][m]
            if lam.is_zero():
                continue
            combo = combo - center[holder].scale(z * _inverse(lam))
            rest.pop(m, None)
        center[node] = combo
        values[node] = FinSuppVector(rest)
    return values, center


def build_guided_proposal(
    phi: TreeMap,
    n_index: int,
    k: int,
    pres: Presentation,
    round_idx: int,
    *,
    force_growth: bool = False,
) -> Optional[Proposal]:
    """The deterministic candidate for one search round, or None when the
    snapshot fails to validate (the caller then escalates precision).

    force_growth guarantees at least one new node: when the coverage
    requirements are already met by phi itself, a fresh disjoint atom on
    the first untouched coordinate is attached at the top level (the
    staged builder requires strictly growing domains).
    """
    if not pres.has_backdoor:
        return None
    prec = max(n_index + 4, k + 4, 16) + 6 * round_idx
    target = _width_target(n_index + 2)
    pi_target = _width_target(k + 2)

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

    chi = project_to_strong_hom(empty_map(pres), _truncate_map(snap, level), prec)
    if not validate_partial_disintegration(chi).is_yes:
        return None

    size = len(chi.tree)
    carriers = _coordinate_carriers(chi)
    atom_nodes: Dict[TreeNode, Tuple[TreeNode, int]] = {}
    atom_holders: Dict[int, TreeNode] = {}
    for coord in sorted(carriers):
        carrier = carriers[coord]
        if len(chi.value(carrier).support()) >= 2:
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
    for j in range(n_index + 1):
        gen = pres.generator_vector(j, prec)
        rest = FinSuppVector(
            {m: z for m, z in gen.entries.items() if m not in atom_holders}
        )
        if norm_p(rest, phi.p, prec).hi >= target / 2:
            residual_supports[j] = rest.support()

    supports = list(residual_supports.values())
    overlap = any(
        supports[i] & supports[jj]
        for i in range(len(supports))
        for jj in range(i + 1, len(supports))
    )
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
        base_nodes=list(chi.nodes()),
        atom_nodes=atom_nodes,
        fresh_atoms=fresh_atoms,
        residual_nodes=residual_nodes,
        atom_holders=atom_holders,
        level=level,
    )

    values, center = _values_on_structure(structure, phi, pres, prec)
    proposal_map = TreeMap(tree, values, phi.p, pres)
    if not validate_partial_disintegration(proposal_map).is_yes:
        return None

    atom_support: Dict[TreeNode, int] = {}
    for node, vec in values.items():
        supp = vec.support()
        if len(supp) == 1:
            atom_support[node] = next(iter(supp))

    # witnesses: assemble f_j from the atoms plus its remainder node
    beta: Dict[int, Dict[TreeNode, GaussianRational]] = {}
    for j in range(n_index + 1):
        gen = pres.generator_vector(j, prec)
        coeffs: Dict[TreeNode, GaussianRational] = {}
        for m, z in gen.entries.items():
            holder = atom_holders.get(m)
            if holder is None:
                continue
            lam = values[holder][m]
            if lam.is_zero():
                continue
            coeffs[holder] = coeffs.get(holder, GaussianRational.zero()) + z * _inverse(lam)
        for node, gen_idx in residual_nodes.items():
            if gen_idx == j:
                coeffs[node] = GaussianRational.one()
        beta[j] = {n: z for n, z in coeffs.items() if not z.is_zero()}

    return Proposal(
        structure, center, beta, _presentation_exactness(pres), atom_support, prec
    )


# ---------------------------------------------------------------------------
# the canonical dovetail (completeness fallback)
# ---------------------------------------------------------------------------


def _enumerate_trees(max_nodes: int, max_label: int) -> Iterator[FiniteTree]:
    """Small trees in canonical order: node count, then node list."""
    labels = range(max_label)
    pool = [TreeNode.of(a) for a in labels] + [
        TreeNode.of(a, b) for a in labels for b in labels
    ]
    for size in range(1, max_nodes + 1):
        for chosen in itertools.combinations(pool, size):
            nodes = set(chosen)
            if all(n.parent().is_root() or n.parent() in nodes for n in nodes):
                yield FiniteTree(nodes)


def dovetail_candidates(
    phi: TreeMap,
    n_index: int,
    pres: Presentation,
    b: int,
    limit: int,
) -> Iterator[Tuple[RationalBall, Dict[int, Dict[TreeNode, GaussianRational]]]]:
    """A canonical slice of the blind search grid at effort level b.

    Single-generator coefficients with denominators 2^b and small
    numerators, radius 2^-(b+2), identity-style witnesses.  Complete in
    the limit as b grows; in practice the guided proposal wins first.
    """
    if limit <= 0:
        return
    count = 0
    grid = [
        Fraction(num, 1 << b)
        for num in range(-(2 << b), (2 << b) + 1)
        if num != 0
    ]
    base = phi.tree
    for tree in _enumerate_trees(min(b + 1, 3), min(b + 2, 3)):
        full = tree.union(base.nonroot_nodes())
        nodes = full.nonroot_nodes()
        if len(nodes) > 3:
            continue
        for gens in itertools.product(range(min(b + 2, n_index + 1) or 1), repeat=len(nodes)):
            for quots in itertools.product(grid, repeat=len(nodes)):
                center = {
                    node: GenCombo.single(g, GaussianRational.of(q))
                    for node, g, q in zip(nodes, gens, quots)
                }
                beta = {
                    j: {node: _inverse(GaussianRational.of(q))}
                    for j, (node, q) in zip(gens, zip(nodes, quots))
                }
                yield RationalBall(full, center, _width_target(b + 2)), beta
                count += 1
                if count >= limit:
                    return


# ---------------------------------------------------------------------------
# approximate extension
# ---------------------------------------------------------------------------


@dataclass
class SearchBudget:
    rounds: int = 6
    dovetail_per_round: int = 2
    refinement_cap: int = 192


@dataclass
class ExtendResult:
    psi: TreeMap
    tree: FiniteTree
    certificate: BallCertificate
    radius_bits: int       # maps within 2^-radius_bits of psi keep the properties
    exact: bool
    atom_support: Dict[TreeNode, int]

    def to_json(self) -> dict:
        return {
            "tree": self.tree.to_json(),
            "certificate": self.certificate.to_json(),
            "radius_bits": self.radius_bits,
            "exact": self.exact,
        }


def _pick_radius_bits(
    proposal: Proposal,
    phi: TreeMap,
    n_index: int,
    k: int,
    pres: Presentation,
) -> Optional[int]:
    """Largest power-of-two radius the margins plausibly support."""
    prec = proposal.snapshot_prec
    nodes = proposal.structure.tree.nonroot_nodes()
    limits: List[Fraction] = [_width_target(k + 1)]
    for node in nodes:
        lo = pres.norm_enclosure(proposal.center[node], prec).lo
        if lo <= 0:
            return None
        limits.append(lo / 2)
    for i, a in enumerate(nodes):
        for b in nodes[i + 1 :]:
            gap = pres.norm_enclosure(proposal.center[a] - proposal.center[b], prec).lo
            if gap <= 0:
                return None
            limits.append(gap / 4)
    bound = _width_target(n_index + 1)
    for node in nodes:
        kids = proposal.structure.tree.children(node)
        if not kids:
            continue
        defect = proposal.center[node]
        for kid in kids:
            defect = defect - proposal.center[kid]
        slack = bound - pres.norm_enclosure(defect, prec).hi
        if slack <= 0:
            return None
        limits.append(slack / (2 * (1 + len(kids))))
    for j, coeffs in proposal.beta.items():
        resid = GenCombo.single(j)
        spread = Fraction(0)
        for node, z in coeffs.items():
            resid = resid - proposal.center[node].scale(z)
            spread += _gauss_abs_upper(z)
        slack = bound - pres.norm_enclosure(resid, prec).hi
        if slack <= 0:
            return None
        limits.append(slack / (2 * max(spread, Fraction(1))))
    if not phi.is_empty:
        center_map = _center_map(proposal.structure.tree, proposal.center, pres)
        worst = Fraction(0)
        for node in phi.nodes():
            diff = center_map.value(node) - _as_cv(phi.value(node), pres, prec)
            worst = max(worst, diff.norm_enclosure(prec).hi)
        slack = _width_target(k) - worst
        if slack <= 0:
            return None
        limits.append(slack / 2)
    return bits_for(min(limits) / 2)


def approximate_extend(
    phi: TreeMap,
    n_index: int,
    k: int,
    pres: Presentation,
    budget: Optional[SearchBudget] = None,
    *,
    force_growth: bool = False,
) -> ExtendResult:
    """Extend a partial disintegration, approximately and certifiably.

    Output contract: the result is a partial disintegration with success
    index > n_index, and its restriction to phi's domain is within 2**-k
    of phi.  The whole closed ball of radius 2**-radius_bits around the
    result retains injectivity, nonvanishing, and the success clauses, so
    the stage builder can reuse the certificate for its ball conditions.

    This is the entry point for untrusted input: phi is validated first,
    and NotPartialDisintegrationError is raised when the validation
    refutes it.  build_disintegration, whose stages are certified by
    construction, skips that check.
    """
    verdict = validate_partial_disintegration(phi)
    if verdict.is_no:
        raise NotPartialDisintegrationError(verdict.witness)
    return _extend(phi, n_index, k, pres, budget, force_growth=force_growth)


def _extend(
    phi: TreeMap,
    n_index: int,
    k: int,
    pres: Presentation,
    budget: Optional[SearchBudget] = None,
    *,
    force_growth: bool = False,
) -> ExtendResult:
    """approximate_extend without validating phi: the caller vouches that
    phi is a partial disintegration."""
    budget = budget or SearchBudget()
    for round_idx in range(budget.rounds):
        candidates: List[Tuple[Optional[Proposal], RationalBall, Optional[dict]]] = []
        proposal = build_guided_proposal(
            phi, n_index, k, pres, round_idx, force_growth=force_growth
        )
        if proposal is not None:
            bits = _pick_radius_bits(proposal, phi, n_index, k, pres)
            if bits is not None:
                ball = RationalBall(
                    proposal.structure.tree, proposal.center, _width_target(bits)
                )
                candidates.append((proposal, ball, proposal.beta))
        for ball, beta in dovetail_candidates(
            phi, n_index, pres, round_idx, budget.dovetail_per_round
        ):
            candidates.append((None, ball, beta))

        p_ceil = max(
            1, -(-pres.p.enclosure(2).hi.numerator // pres.p.enclosure(2).hi.denominator)
        )
        for prop, ball, beta in candidates:
            radius_bits = bits_for(ball.radius)
            # the hom-gap check takes a p-th root of the error functional's
            # interval slack, so the working precision scales with p
            cert = certify_ball(
                ball,
                None if phi.is_empty else phi,
                n_index + 1,
                k,
                pres,
                hom_base=empty_map(pres),
                beta=beta,
                precision=max(n_index + 8, k + 6, p_ceil * (radius_bits + 4) + 8),
            )
            logger.info(
                "ball tree=%s radius=2^-%d flags=%s precision=%d",
                ball.tree,
                radius_bits,
                "".join(
                    "1" if flag else "0"
                    for flag in (
                        cert.injective_nonzero,
                        cert.summativity,
                        cert.distance,
                        cert.restriction,
                        cert.meets_hom,
                    )
                ),
                cert.precision,
            )
            if not cert.all_granted(need_restriction=not phi.is_empty):
                continue
            # the refinement must converge inside half the certified radius
            hom_upper = Fraction(cert.margins["hom_upper"])
            if hom_upper >= ball.radius / 4:
                continue
            if prop is not None and not prop.exact:
                values = _refined_values(prop, phi, pres, ball, budget)
            else:
                values = {
                    node: ComputableVector.constant(combo, pres, f"ext{node}")
                    for node, combo in ball.center.items()
                }
            psi = TreeMap(ball.tree, values, phi.p, pres)
            return ExtendResult(
                psi,
                ball.tree,
                cert,
                radius_bits + 1,
                bool(prop and prop.exact),
                dict(prop.atom_support) if prop is not None else {},
            )
    raise BudgetExhaustedError(
        f"no certifiable extension within {budget.rounds} rounds", budget=budget.rounds
    )


def _refined_values(
    proposal: Proposal,
    phi: TreeMap,
    pres: Presentation,
    ball: RationalBall,
    budget: SearchBudget,
) -> Dict[TreeNode, ComputableVector]:
    """Computable vectors converging into the homomorphisms inside the ball.

    Step s re-derives the center on the pinned skeleton from an ever-finer
    snapshot; each step distance is oracle-certified below 2^-(m+s+2), so
    the limits stay within half the ball radius of the accepted center.
    """
    m = bits_for(ball.radius)
    steps: List[Dict[TreeNode, GenCombo]] = [dict(ball.center)]
    precs: List[int] = [proposal.snapshot_prec]

    def ensure(s: int) -> None:
        while len(steps) <= s:
            idx = len(steps)
            prec = precs[-1] + 4
            while True:
                if prec - proposal.snapshot_prec > budget.refinement_cap:
                    raise PrecisionExhaustedError(
                        "refinement cap hit before the target precision"
                    )
                _, center = _values_on_structure(proposal.structure, phi, pres, prec)
                ok = True
                for node, combo in center.items():
                    gap = pres.norm_enclosure(combo - steps[-1][node], prec).hi
                    if gap >= _width_target(m + idx + 2):
                        ok = False
                        break
                if ok:
                    steps.append(center)
                    precs.append(prec)
                    break
                prec += 4

    values: Dict[TreeNode, ComputableVector] = {}
    for node in ball.tree.nonroot_nodes():

        def make_approx(nd: TreeNode):
            def approx(k2: int) -> GenCombo:
                s = max(0, k2 - (m + 1))
                ensure(s)
                return steps[s][nd]

            return approx

        values[node] = ComputableVector(make_approx(node), pres, f"refined{node}")
    return values


# ---------------------------------------------------------------------------
# staged disintegration
# ---------------------------------------------------------------------------


@dataclass
class StageRecord:
    index: int
    phi_hat: TreeMap
    ball_bits: int     # every map within 2^-ball_bits keeps this stage's properties
    certificate: Optional[BallCertificate]
    exact: bool
    atom_support: Dict[TreeNode, int]


class StagedDisintegration:
    """The ascending sequence of certified partial disintegrations plus the
    normalized view whose root sums the geometrically damped level-one
    values."""

    def __init__(self, pres: Presentation, stages: List[StageRecord]):
        self.pres = pres
        self.stages = stages

    @property
    def p(self) -> PExponent:
        return self.pres.p

    def last(self) -> StageRecord:
        return self.stages[-1]

    def tree(self, n: int) -> FiniteTree:
        return self.stages[n].phi_hat.tree

    def stage_count(self) -> int:
        return len(self.stages)

    def limit_error_bound(self, n: int) -> Fraction:
        """||phi_hat_n - the stage-n limit|| is at most the sum of the later
        stage moduli, itself at most 2^-ball_bits(n)."""
        return sum(
            (_width_target(rec.ball_bits + 1) for rec in self.stages[n:-1]),
            Fraction(0),
        )

    def atom_index(self, node: TreeNode) -> Optional[int]:
        for rec in self.stages:
            if node in rec.atom_support:
                return rec.atom_support[node]
        return None

    def chain_source(self):
        """Adapter exposing the normalized disintegration to the chain layer.

        Norm queries are answered structurally: level-one values are exact
        units damped by 2^-label, deeper values are oracle norm ratios, and
        the root's p-th power is the damped sum over materialized labels
        plus a certified geometric tail for the labels still to come.
        """
        from .chain_partition import LazyDisintegration

        staged = self

        def value(node: TreeNode):
            if node.is_root():
                return _normalized_root_vector(staged)
            return _normalized_node_vector(staged, node)

        def stage(t: int) -> FiniteTree:
            return staged.tree(min(t, staged.stage_count() - 1))

        def terminal(node: TreeNode) -> bool:
            return staged.atom_index(node) is not None

        def limit(chain: Tuple[TreeNode, ...]):
            deepest = chain[-1]
            if staged.atom_index(deepest) is not None:
                return _normalized_node_vector(staged, deepest)
            return None

        def norm_power(node: TreeNode, t: int) -> Fraction:
            return _normalized_norm_power(staged, node, t)

        return LazyDisintegration(
            self.p,
            self.pres,
            value,
            stage,
            terminal_fn=terminal,
            limit_fn=limit,
            norm_power_fn=norm_power,
        )

    def report(self) -> dict:
        return {
            "presentation": self.pres.descriptor(),
            "stages": [
                {
                    "index": rec.index,
                    "tree": rec.phi_hat.tree.to_json(),
                    "ball_bits": rec.ball_bits,
                    "exact": rec.exact,
                    "certificate": rec.certificate.to_json() if rec.certificate else None,
                    "atoms": {
                        str(list(n.path)): m
                        for n, m in sorted(rec.atom_support.items())
                    },
                }
                for rec in self.stages
            ],
        }


def _refine_reciprocal(vec: ComputableVector, k: int) -> DyadicInterval:
    kk = max(4, k)
    while True:
        box = vec.norm_enclosure(kk)
        if box.lo > 0:
            out = box.reciprocal()
            if out.width <= _width_target(k):
                return out
        kk += max(4, kk // 2)
        if kk > 1 << 14:
            raise PrecisionExhaustedError("reciprocal norm refinement exceeded its cap")


def _normalized_node_vector(staged: StagedDisintegration, node: TreeNode) -> ComputableVector:
    """2^-a ||phi((a))||^-1 phi(nu), a = the node's first coordinate."""
    rec = staged.last()
    a = node.path[0]
    base = rec.phi_hat.value(TreeNode.of(a))
    inv = CReal.from_interval_fn(lambda k: _refine_reciprocal(base, k), name=f"inv-norm-{a}")
    scaled = rec.phi_hat.value(node).scale_creal(inv, 4)
    return scaled.scale_gauss(GaussianRational.of(Fraction(1, 2**a)))


def _normalized_root_vector(staged: StagedDisintegration) -> ComputableVector:
    """Sum of the normalized level-one values, with a certified tail bound.

    Unseen future level-one labels all exceed the current node count, so
    their damped norms are dominated by a geometric tail.
    """
    pres = staged.pres
    rec = staged.last()
    level_one = [n for n in rec.phi_hat.tree.nonroot_nodes() if len(n) == 1]
    floor_label = len(rec.phi_hat.tree)

    def approx(k: int) -> GenCombo:
        tail = Fraction(2, 2**floor_label)  # sum of 2^-a over a >= floor
        if tail >= _width_target(k + 1):
            raise PrecisionExhaustedError(
                "the root value needs more stages for this precision"
            )
        total = GenCombo({})
        share = k + 1 + max(1, len(level_one)).bit_length()
        for node in level_one:
            total = total + _normalized_node_vector(staged, node).approx(share)
        return total

    return ComputableVector(approx, pres, "normalized-root")


def _normalized_norm_power(staged: StagedDisintegration, node: TreeNode, t: int) -> Fraction:
    """q(node, t) for the normalized view, |q - ||psi(node)||^p| < 2^-(t+1).

    ||psi(nu)||^p = 2^(-a p) ||phi(nu)||^p / ||phi((a))||^p with a = nu(0);
    the root's power is the sum of 2^(-a p) over all level-one labels, the
    unseen ones bounded by a geometric tail below the current node count.
    """
    p = staged.p
    rec = staged.last()
    target = _width_target(t + 2)
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
    from .chain_partition import norm_power_value

    kk = t + 4
    while True:
        num = norm_power_value(rec.phi_hat.value(node), p, kk)
        den = norm_power_value(rec.phi_hat.value(TreeNode.of(a)), p, kk)
        if den.lo > 0:
            box = pow_enclosure(DyadicInterval.point(Fraction(1, 2**a)), p, kk) * (
                num * den.reciprocal()
            )
            if box.width <= target:
                return box.mid
        kk += max(4, kk // 2)
        if kk > 1 << 12:
            raise PrecisionExhaustedError("normalized norm refinement exceeded its cap")


def _generator_atom_index(pres: Presentation, j: int) -> Optional[int]:
    kind = pres.descriptor().get("type")
    if kind in ("standard", "rotated"):
        return j
    if kind == "adversarial":
        return j if j >= 1 else None
    return None


def build_disintegration(
    pres: Presentation,
    n_target: int,
    budget: Optional[SearchBudget] = None,
) -> StagedDisintegration:
    """Staged construction: certified balls all the way up.

    Stage 0 holds the first generator certified nonzero; stage n+1 extends
    stage n within 2^-(k_n + 1) while pushing the success index past n.
    The k_n grow monotonically, so the stagewise limits exist with
    geometric moduli.

    Stages are not re-validated before they are extended: stage 0 is
    certified nonzero and every later stage comes out of certify_ball, so
    validation could never refute them.  Use approximate_extend to extend
    a map of unknown provenance.
    """
    budget = budget or SearchBudget()
    pres.p.side_of_two()  # raises PEqualsTwoError up front

    j0 = None
    for j in range(64):
        if pres.norm_enclosure(GenCombo.single(j), 10).lo > 0:
            j0 = j
            break
    if j0 is None:
        raise BudgetExhaustedError("no generator certified nonzero among the first 64")

    first = TreeNode.of(0)
    combo0 = GenCombo.single(j0)
    phi0 = TreeMap(
        FiniteTree([first]),
        {first: ComputableVector.constant(combo0, pres, "f_j0")},
        pres.p,
        pres,
    )
    k0 = bits_for(pres.norm_enclosure(combo0, 10).lo / 2)
    atoms0: Dict[TreeNode, int] = {}
    gen_atom = _generator_atom_index(pres, j0)
    if gen_atom is not None:
        atoms0[first] = gen_atom
    stages = [StageRecord(0, phi0, k0, None, _presentation_exactness(pres), atoms0)]

    for n in range(n_target):
        prev = stages[-1]
        result = _extend(prev.phi_hat, n, prev.ball_bits + 1, pres, budget, force_growth=True)
        if not prev.phi_hat.tree.is_subtree_of(result.tree) or len(result.tree) <= len(
            prev.phi_hat.tree
        ):
            raise BudgetExhaustedError("the extension did not grow the tree")
        stages.append(
            StageRecord(
                n + 1,
                result.psi,
                max(result.radius_bits, prev.ball_bits + 1),
                result.certificate,
                result.exact,
                result.atom_support,
            )
        )
    return StagedDisintegration(pres, stages)
