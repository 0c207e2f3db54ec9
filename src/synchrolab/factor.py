"""Factor maps induced by labelings: edge shift onto sofic image.

A labeled graph G presents a sofic shift and simultaneously defines the
edge shift of its underlying graph; reading labels along edge paths is
a surjective, shift-commuting map onto the sofic shift.  This module
computes the resolving direction flags of that map, exact preimage
counts and explicit preimages of eventually periodic points, the
finite-to-one degree bound, and the almost-everywhere-injectivity
report over periodic points.
"""

import math
from dataclasses import dataclass
from functools import cached_property

from synchrolab.errors import InvariantViolation, NotInShift, NotResolving
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
        target = PresentedShift(alphabet, g)
        return CoverMap(g, source, target, names)

    @staticmethod
    def of_shift(s):
        """The canonical cover of an SFT or sofic shift: the labeling map
        of its Fischer cover."""
        return CoverMap.build(fischer_cover(s), s.alphabet)

    @cached_property
    def edge_by_name(self):
        return dict(zip(self.edge_names, self.presentation.edges))

    @cached_property
    def label_by_name(self):
        return {name: edge[1] for name, edge in self.edge_by_name.items()}

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


def resolving_check(c):
    """Direction flags of the labeling map."""
    return {"rightResolving": c.right_resolving, "leftResolving": c.left_resolving}


def degree_bound(c):
    """The finite-to-one bound M = number of graph states.

    Requires the map to resolve in at least one direction.
    """
    if not (c.right_resolving or c.left_resolving):
        raise NotResolving("cover map resolves in neither direction")
    return len(c.presentation.states)


def _paths_reading(g, start, word):
    """All edge-index paths from ``start`` reading ``word``."""
    paths = [(start, ())]
    for a in word:
        nxt = []
        for (q, trail) in paths:
            for i, (src, lab, dst) in enumerate(g.edges):
                if src == q and lab == a:
                    nxt.append((dst, trail + (i,)))
        paths = nxt
        if not paths:
            break
    return paths


def _tail_runs(g, word, backward):
    """The one-sided infinite runs of ``word``-cycles, per state.

    Maps each state ``q`` ending (``backward``) or starting (forward)
    such a run to ``math.inf`` when there are infinitely many, and
    otherwise to the list of runs as pairs ``(cycle_edges,
    connector_edges)`` of edge-index words: the cycle repeats outward
    and the connector joins it to ``q``.

    A depth-first walk outward from ``q``, over the runs of ``word``
    between the states of its tail fixpoint, closes when it returns to a
    state on its path; the closed part is the run's cycle.  Every state
    of the fixpoint continues outward, so the walk may leave a cycle
    with a second arc after any number of turns: that state's count is
    infinite exactly when some closed cycle has such a state.
    """
    # Runs ending at a state (backward) come from reading the cycle forward.
    alive = g.names(g.tail_fixpoint(word, not backward))
    arcs = {q: [] for q in alive}  # state -> [(next state outward, edges)]
    for p in alive:
        for (r, trail) in _paths_reading(g, p, word):
            if r in arcs:
                if backward:
                    arcs[r].append((p, trail))
                else:
                    arcs[p].append((r, trail))

    def walks(path, trails):
        # each walk ends at its first return, to ``path[j]``
        for (r, trail) in arcs[path[-1]]:
            if r in path:
                yield path.index(r), path, trails + (trail,)
            else:
                yield from walks(path + (r,), trails + (trail,))

    def edges(trails):
        # a left tail is read toward ``q``: reverse the outward order
        return tuple(i for t in (trails[::-1] if backward else trails) for i in t)

    runs = {}
    for q in alive:
        runs[q] = []
        for (j, path, trails) in walks((q,), ()):
            if any(len(arcs[s]) > 1 for s in path[j:]):
                runs[q] = math.inf
                break
            runs[q].append((edges(trails[j:]), edges(trails[:j])))
    return runs


def preimage_count(c, x):
    """Exact count and list of edge-shift preimages of a point.

    Decomposes a bi-infinite run into an infinite left tail run, a core
    path, and an infinite right tail run; counts multiply and sum.  A
    tail state has infinitely many runs when a tail cycle it reaches has
    a state with a second arc, since a run may leave the cycle after any
    number of turns; the count is then ``math.inf`` as soon as a core
    path joins it to a tail state with runs on the other side.  Returns
    ``{"count": int or math.inf, "preimages": tuple of BiSeq}`` with
    preimages listed only when the count is finite.
    """
    if point_in_shift(c.target, x) != "yes":
        raise NotInShift("point is not in the cover's image shift")
    g = c.presentation
    left = _tail_runs(g, x.left_pattern_at(x.origin), backward=True)
    right = _tail_runs(g, x.right_pattern_at(x.right_start), backward=False)
    names = c.edge_names
    total = 0
    assembled = []
    for q, lruns in left.items():
        if not lruns:
            continue
        for (v, core_trail) in _paths_reading(g, q, x.core):
            rruns = right.get(v)
            if not rruns:
                continue
            if lruns is math.inf or rruns is math.inf:
                return {"count": math.inf, "preimages": ()}
            total += len(lruns) * len(rruns)
            for (lcycle, lconn) in lruns:
                for (rcycle, rconn) in rruns:
                    core = lconn + core_trail + rconn
                    assembled.append(BiSeq(tuple(names[i] for i in lcycle),
                                           tuple(names[i] for i in core),
                                           tuple(names[i] for i in rcycle),
                                           x.origin - len(lconn)))
    assembled = canonical_order(set(assembled))
    for pre in assembled:
        if point_in_shift(c.source, pre) != "yes" or c.project(pre) != x:
            raise InvariantViolation(f"assembled preimage {pre} does not cover {x}")
    if len(assembled) != total:
        raise InvariantViolation(
            f"{total} runs assembled into {len(assembled)} distinct preimages")
    return {"count": total, "preimages": tuple(assembled)}


def almost_one_to_one_check(c, max_period):
    """Preimage uniqueness over periodic points of the image.

    Every synchronizing periodic point of period <= ``max_period`` must
    have exactly one preimage; points with several preimages are
    reported, by least period and then in canonical order, and must
    classify non-synchronizing.

    On a right-resolving map w^∞ has |T_w| preimages, T_w the tail
    fixpoint of w (on a left-resolving one, of w read backward), so the
    points with several are those of ``multiply_covered_cycles``; only
    they are counted and classified.  ``checked``, the number of points
    of least period <= ``max_period``, is the Möbius inversion of
    ``periodic_counts``.  Raises ``NotResolving`` when the map resolves
    in neither direction, and whatever the image's Fischer cover raises
    once there is a point to check, as classifying that point would.
    """
    if not (c.right_resolving or c.left_resolving):
        raise NotResolving("cover map resolves in neither direction")
    counts = periodic_counts(c.target, max_period) if max_period > 0 else ()
    least = []  # least[d - 1]: the number of points of least period d
    for n, count in enumerate(counts, 1):
        least.append(count - sum(least[d - 1] for d in range(1, n) if n % d == 0))
    if sum(least):
        fischer_cover(c.target)
    found = {BiSeq.periodic(w) for (w, _) in multiply_covered_cycles(
        c.presentation, max_period, backward=not c.right_resolving)}
    exceptional = []
    violations = []
    for p in sorted(canonical_order(found), key=lambda p: len(p.right)):
        count = preimage_count(c, p)["count"]
        status = classify_point(c.target, p).status
        exceptional.append({"point": str(p), "count": count, "status": status})
        if status == "synchronizing":
            violations.append(str(p))
    return {"max_period": max_period,
            "checked": sum(least),
            "exceptional": exceptional,
            "passed": not violations}
