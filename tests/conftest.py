"""Shared generators for randomized fixtures."""

from fractions import Fraction

from lpiso.lp_vectors import FinSuppVector
from lpiso.presentations import StandardPresentation
from lpiso.scalar_core import GaussianRational, PExponent
from lpiso.chain_partition import FiniteDisintegration
from lpiso.tree_maps import ROOT, FiniteTree, TreeMap, TreeNode

P1 = PExponent.from_fraction(1)
P3 = PExponent.from_fraction(3)


def rational_vector(entries):
    return FinSuppVector(
        {n: GaussianRational.of(Fraction(q)) for n, q in entries.items()}
    )


def random_disintegration(rng, max_depth=3, max_fanout=3, p=P1):
    """Random finite transparent disintegration by support splitting."""
    width = rng.randint(2, 6)
    weights = [Fraction(rng.randint(1, 16), rng.randint(1, 4)) for _ in range(width)]
    values = {ROOT: rational_vector({n: w for n, w in enumerate(weights)})}

    def split(node, depth):
        vec = values[node]
        support = sorted(vec.support())
        if depth >= max_depth or len(support) < 2 or rng.random() < 0.3:
            return
        fanout = rng.randint(2, min(max_fanout, len(support)))
        buckets = [[] for _ in range(fanout)]
        for idx in support:
            buckets[rng.randrange(fanout)].append(idx)
        buckets = [b for b in buckets if b]
        if len(buckets) < 2:
            return
        for label, bucket in enumerate(buckets):
            child = node.child(label)
            values[child] = vec.restrict(bucket)
            split(child, depth + 1)

    split(ROOT, 0)
    return FiniteDisintegration(values, p, StandardPresentation(p))


def random_partial_disintegration(rng, p, max_top=2, max_support=4):
    """Random strong reverse-order monomorphism on a small tree."""
    values = {}
    next_coord = 0
    for a in range(rng.randint(1, max_top)):
        size = rng.randint(1, max_support)
        entries = {}
        for _ in range(size):
            entries[next_coord] = GaussianRational.of(
                Fraction(rng.randint(1, 8), rng.randint(1, 4)),
                Fraction(rng.randint(-2, 2), 2),
            )
            next_coord += 1
        node = TreeNode.of(a)
        values[node] = FinSuppVector(entries)
        support = sorted(values[node].support())
        if len(support) >= 2 and rng.random() < 0.7:
            cut = rng.randint(1, len(support) - 1)
            left, right = support[:cut], support[cut:]
            values[node.child(0)] = values[node].restrict(left)
            if rng.random() < 0.5:
                values[node.child(1)] = values[node].restrict(right)
    tree = FiniteTree(values.keys())
    return TreeMap(tree, values, p)


def projection_instances(rng):
    """Endless (p, phi, psi) projection instances: phi a small random partial
    disintegration, psi phi plus one or two new children below its nodes
    (so the extension hypothesis holds), psi's tree at most six nodes."""
    while True:
        p = rng.choice([P1, P1, P3])
        phi = random_partial_disintegration(rng, p)
        if len(phi.tree) > 5:
            continue
        targets = phi.nodes()
        extra = {}
        for _ in range(rng.randint(1, 2)):
            base = rng.choice(targets)
            child = base.child(rng.randint(5, 9))
            if child in phi.tree or child in extra:
                continue
            style = rng.random()
            if style < 0.4:
                vec = phi.value(base).restrict(
                    list(phi.value(base).support())[:1]
                )
            elif style < 0.8:
                vec = phi.value(base) + rational_vector(
                    {20 + rng.randint(0, 3): Fraction(rng.randint(1, 4), 4)}
                )
            else:
                vec = rational_vector(
                    {20 + rng.randint(0, 3): Fraction(rng.randint(1, 8), 4)}
                )
            if vec.is_zero():
                continue
            extra[child] = vec
        if not extra:
            continue
        values = dict(phi.values)
        values.update(extra)
        psi = TreeMap(FiniteTree(values.keys()), values, p)
        if len(psi.tree) > 6:
            continue
        yield p, phi, psi
