"""Factor maps induced by labelings: edge shift onto sofic image.

A labeled graph G presents a sofic shift and simultaneously defines the
edge shift of its underlying graph; reading labels along edge paths is
a surjective, shift-commuting map onto the sofic shift.  This module
computes the resolving direction flags of that map, the finite-to-one
degree bound, and the almost-everywhere-injectivity report over
periodic points.  On a right-resolving map, such as a Fischer cover, it
also counts and lists the preimages of an eventually periodic point:
reading a cycle word permutes its tail fixpoint, so each lift is pinned
by its state at the origin.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat

from synchrolab.errors import NotInShift, NotResolving
from synchrolab.periodic import multiply_covered_cycles, periodic_counts
from synchrolab.points import BiSeq, canonical_order, point_in_shift
from synchrolab.presentation import Presentation
from synchrolab.shift import Alphabet, PresentedShift, build_sofic, fischer_cover
from synchrolab.sync import classify_point


@dataclass(frozen=True)
class CoverMap:
    """The labeling map from a graph's edge shift onto its sofic shift."""

    presentation: object     # labeled graph G
    source: PresentedShift   # edge shift of G: G labeled by edge names
    target: PresentedShift   # sofic shift presented by G
    edge_names: tuple        # name of each edge, aligned with G.edges

    @staticmethod
    def build(presentation, alphabet=None):
        g = presentation
        names = tuple(f"e{i}" for i in range(len(g.edges)))
        source = build_sofic(Alphabet(names), Presentation.build(
            g.states, [(src, name, dst) for name, (src, _, dst) in zip(names, g.edges)]))
        if alphabet is None:
            alphabet = Alphabet(tuple(sorted({a for (_, a, _) in g.edges})))
        return CoverMap(g, source, build_sofic(alphabet, g), names)

    @staticmethod
    def of_shift(s):
        """The canonical cover of an SFT or sofic shift: the labeling map
        of its Fischer cover."""
        return CoverMap.build(fischer_cover(s), s.alphabet)

    @cached_property
    def label_by_name(self):
        return {name: a for name, (_, a, _) in zip(self.edge_names, self.presentation.edges)}

    @cached_property
    def edge_reading(self):
        """``{(state, label): (edge name, target)}``, the one edge out of a
        state reading a label on a right-resolving map."""
        return {(p, a): (name, q)
                for name, (p, a, q) in zip(self.edge_names, self.presentation.edges)}

    def project(self, x):
        """Applies the labeling map to an edge-shift point."""
        lab = self.label_by_name
        return BiSeq(tuple(lab[e] for e in x.left),
                     tuple(lab[e] for e in x.core),
                     tuple(lab[e] for e in x.right), x.origin)

    @property
    def right_resolving(self):
        return self.presentation.deterministic

    @cached_property
    def left_resolving(self):
        for q in self.presentation.states:
            labels = [a for (_, a, _) in self.presentation.in_edges[q]]
            if len(labels) != len(set(labels)):
                return False
        return True


def degree_bound(c):
    """The finite-to-one bound M = number of graph states.

    Requires the map to resolve in at least one direction.
    """
    if not (c.right_resolving or c.left_resolving):
        raise NotResolving("cover map resolves in neither direction")
    return len(c.presentation.states)


def _lasso(c, q, head, cycle):
    # The edge path from ``q`` reading ``head`` and then ``cycle`` over
    # and over, split where a state at a cycle boundary first repeats:
    # (edge names before it, edge names of the cycle from it), or None
    # when the path stops.  A right-resolving map reads one path.
    reading = c.edge_reading
    trail, boundary = [], {}
    for word in chain([head], repeat(cycle)):
        for a in word:
            if (q, a) not in reading:
                return None
            name, q = reading[q, a]
            trail.append(name)
        if q in boundary:
            return tuple(trail[:boundary[q]]), tuple(trail[boundary[q]:])
        boundary[q] = len(trail)


def preimage_count(c, x):
    """Exact count and list of the edge-shift preimages of a point on a
    right-resolving map.

    With u the left cycle ending at the origin, a lift is pinned by its
    state q at the origin, which lies in the tail fixpoint T_u; reading u
    permutes T_u (Lind & Marcus §9.1), so the lift's past repeats the
    u-runs around q's orbit.  Its future is the one path from q reading
    the core and then the right cycle; q has no lift when that path
    stops.  So the count is at most |T_u| <= ``degree_bound``.  Returns
    ``{"count": int, "preimages": tuple of BiSeq}``, the preimages in
    canonical order; ``_lifts_of`` gives them unordered, to callers that
    collect their images in a set.  Raises ``NotResolving`` on a map that
    is not right-resolving, and ``NotInShift`` on a point outside the
    image.  The lifts need no check: each is a bi-infinite path of the
    graph reading x, so it lies in the edge shift and projects to x, and
    lifts pinned at distinct states are distinct.
    """
    lifts = _lifts_of(c, x)
    return {"count": len(lifts), "preimages": tuple(canonical_order(lifts))}


def _lifts_of(c, x):
    # The lifts ``preimage_count`` lists, by their states at the origin
    # rather than in canonical order; raises as it does.
    if not c.right_resolving:
        raise NotResolving("preimage counts need a right-resolving cover map")
    if point_in_shift(c.target, x) != "yes":
        raise NotInShift("point is not in the cover's image shift")
    g = c.presentation
    u = x.left_pattern_at(x.origin)
    lifts = []
    for q in g.names(g.tail_fixpoint(u, False)):
        future = _lasso(c, q, x.core, x.right_pattern_at(x.right_start))
        if future is not None:
            lifts.append(BiSeq(_lasso(c, q, (), u)[1], *future, x.origin))
    return lifts


def almost_one_to_one_check(c, max_period):
    """Preimage uniqueness over periodic points of the image.

    Every synchronizing periodic point of period <= ``max_period`` must
    have exactly one preimage; points with several preimages are
    reported, by least period and then in canonical order, and must
    classify non-synchronizing.

    On a right-resolving map w^∞ has |T_w| preimages, T_w the tail
    fixpoint of w (on a left-resolving one, of w read backward), so the
    points with several are those of ``multiply_covered_cycles``, each
    counted as the size of the tail mask it yields; only they are
    classified.  ``checked``, the number of points of least period <=
    ``max_period``, is the Möbius inversion of ``periodic_counts``.
    Raises ``NotResolving`` when the map resolves in neither direction,
    and whatever the image's Fischer cover raises once there is a point
    to check, as classifying that point would.
    """
    if not (c.right_resolving or c.left_resolving):
        raise NotResolving("cover map resolves in neither direction")
    counts = periodic_counts(c.target, max_period) if max_period > 0 else ()
    least = []  # least[d - 1]: the number of points of least period d
    for n, count in enumerate(counts, 1):
        least.append(count - sum(least[d - 1] for d in range(1, n) if n % d == 0))
    if sum(least):
        fischer_cover(c.target)
    found = {BiSeq.periodic(w): tail.bit_count() for (w, tail) in multiply_covered_cycles(
        c.presentation, max_period, backward=not c.right_resolving)}
    exceptional = []
    violations = []
    for p in sorted(canonical_order(found), key=lambda p: len(p.right)):
        count = found[p]
        status = classify_point(c.target, p).status
        exceptional.append({"point": str(p), "count": count, "status": status})
        if status == "synchronizing":
            violations.append(str(p))
    return {"max_period": max_period,
            "checked": sum(least),
            "exceptional": exceptional,
            "passed": not violations}
