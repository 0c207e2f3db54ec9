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

from synchrolab.errors import NotInShift, NotResolving
from synchrolab.points import BiSeq, point_in_shift
from synchrolab.shift import SFT, Alphabet, Sofic, build_sft, fischer_cover


@dataclass(frozen=True)
class CoverMap:
    """The labeling map from a graph's edge shift onto its sofic shift."""

    presentation: object     # labeled graph G
    source: SFT              # edge shift of G, over edge-name symbols
    target: Sofic            # sofic shift presented by G
    edge_names: tuple        # name of each edge, aligned with G.edges

    @staticmethod
    def build(presentation, alphabet=None):
        g = presentation
        names = tuple(f"e{i}" for i in range(len(g.edges)))
        bad_pairs = set()
        for i, (_, _, dst) in enumerate(g.edges):
            for j, (src, _, _) in enumerate(g.edges):
                if dst != src:
                    bad_pairs.add((names[i], names[j]))
        source = build_sft(Alphabet(names), bad_pairs)
        if alphabet is None:
            alphabet = Alphabet(tuple(sorted({a for (_, a, _) in g.edges})))
        target = Sofic(alphabet, g)
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


class _CycleGraph:
    """Multigraph of runs of one tail-cycle word between ``alive`` states."""

    def __init__(self, g, word, alive):
        self.arcs = []  # (source state, edge-index tuple, target state)
        for q in alive:
            for (dst, trail) in _paths_reading(g, q, word):
                if dst in alive:
                    self.arcs.append((q, trail, dst))

    def predecessors(self, v):
        return [a for a in self.arcs if a[2] == v]

    def successors(self, u):
        return [a for a in self.arcs if a[0] == u]


def _tail_runs(g, word, backward):
    """Counts and representatives of one-sided infinite tail runs.

    Returns ``(counts, reps)`` where ``counts[q]`` is the number of
    infinite runs of ``word``-cycles ending at (backward) or starting
    from (forward) state ``q`` -- 0, a positive integer, or ``inf`` --
    and ``reps[q]`` lists, in the finite case, pairs
    ``(cycle_edges, connector_edges)`` of edge-index words describing
    each run: the cycle repeats outward and the connector joins it to
    ``q``.
    """
    # Runs ending at a state (backward) come from reading the cycle forward.
    alive = g.names(g.tail_fixpoint(word, not backward))
    cg = _CycleGraph(g, word, alive)

    def neighbors(v):
        return cg.predecessors(v) if backward else cg.successors(v)

    def neighbor_state(arc):
        return arc[0] if backward else arc[2]

    # vertices on cycles of the restricted graph
    on_cycle = set()
    for v in alive:
        seen = {v}
        frontier = {neighbor_state(a) for a in neighbors(v)}
        while frontier:
            if v in frontier:
                on_cycle.add(v)
                break
            seen |= frontier
            frontier = {neighbor_state(a) for u in frontier for a in neighbors(u)} - seen
    infinite = {v for v in on_cycle if len(neighbors(v)) >= 2}
    # propagate: anything that can see a branching cycle vertex has
    # infinitely many runs
    reach_inf = set(infinite)
    changed = True
    while changed:
        changed = False
        for v in alive:
            if v not in reach_inf and any(neighbor_state(a) in reach_inf
                                          for a in neighbors(v)):
                reach_inf.add(v)
                changed = True

    counts = {q: 0 for q in g.states}
    reps = {q: [] for q in g.states}

    # explicit enumeration by depth-first search with on-path cycle closing
    def enumerate_runs(v):
        results = []

        def walk(current, trail, visited):
            # trail: list of arcs from current ... to v (nearest first)
            for arc in neighbors(current):
                u = neighbor_state(arc)
                new_trail = [arc] + trail if backward else trail + [arc]
                if u in visited:
                    # the repeated part (from u around to u) is the cycle
                    results.append((u, new_trail))
                else:
                    walk(u, new_trail, visited | {u})

        walk(v, [], {v})
        return results

    for q in alive:
        if q in reach_inf:
            counts[q] = math.inf
            continue
        found = []
        for (anchor, trail) in enumerate_runs(q):
            # split trail into the cycle at ``anchor`` and the connector
            if backward:
                # trail reads forward: anchor ... anchor ... q
                states_seq = [trail[0][0]] + [a[2] for a in trail]
                first = states_seq.index(anchor)
                second = states_seq.index(anchor, first + 1)
                cycle_arcs = trail[first:second]
                conn_arcs = trail[second:]
            else:
                states_seq = [trail[0][0]] + [a[2] for a in trail]
                last = len(states_seq) - 1 - states_seq[::-1].index(anchor)
                firsts = [i for i, st in enumerate(states_seq) if st == anchor]
                first = firsts[-2] if len(firsts) >= 2 else firsts[0]
                cycle_arcs = trail[first:last]
                conn_arcs = trail[:first]
            cycle = tuple(i for a in cycle_arcs for i in a[1])
            conn = tuple(i for a in conn_arcs for i in a[1])
            found.append((cycle, conn))
        counts[q] = len(found)
        reps[q] = found
    return counts, reps


def preimage_count(c, x):
    """Exact count and list of edge-shift preimages of a point.

    Decomposes a bi-infinite run into an infinite left tail run, a core
    path, and an infinite right tail run; counts multiply and sum.
    Returns ``{"count": int or inf, "preimages": tuple of BiSeq}`` with
    preimages listed only when the count is finite.
    """
    if point_in_shift(c.target, x) != "yes":
        raise NotInShift("point is not in the cover's image shift")
    g = c.presentation
    left_counts, left_reps = _tail_runs(g, x.left_pattern_at(x.origin), backward=True)
    right_counts, right_reps = _tail_runs(g, x.right_pattern_at(x.right_start),
                                          backward=False)
    total = 0
    assembled = []
    for q in g.states:
        if left_counts[q] == 0:
            continue
        for (v, core_trail) in _paths_reading(g, q, x.core):
            if right_counts[v] == 0:
                continue
            term = left_counts[q] * right_counts[v]
            total += term
            if math.isinf(total):
                continue
            for (lcycle, lconn) in left_reps[q]:
                for (rcycle, rconn) in right_reps[v]:
                    core = lconn + core_trail + rconn
                    names = c.edge_names
                    pre = BiSeq(tuple(names[i] for i in lcycle),
                                tuple(names[i] for i in core),
                                tuple(names[i] for i in rcycle),
                                x.origin - len(lconn))
                    assembled.append(pre)
    if math.isinf(total):
        return {"count": math.inf, "preimages": ()}
    assembled = sorted(set(assembled), key=lambda p: (p.description_size(), str(p)))
    for pre in assembled:
        assert point_in_shift(c.source, pre) == "yes"
        assert c.project(pre) == x
    assert len(assembled) == total, (total, assembled)
    return {"count": total, "preimages": tuple(assembled)}


def almost_one_to_one_check(c, max_period):
    """Preimage uniqueness over periodic points of the image.

    Every synchronizing periodic point of period <= ``max_period`` must
    have exactly one preimage; points with several preimages are
    reported and must classify non-synchronizing.
    """
    from synchrolab.periodic import enumerate_periodic
    from synchrolab.sync import classify_point
    seen = set()
    exceptional = []
    violations = []
    for n in range(1, max_period + 1):
        for p in enumerate_periodic(c.target, n).points:
            if p in seen:
                continue
            seen.add(p)
            count = preimage_count(c, p)["count"]
            status = classify_point(c.target, p).status
            if count != 1:
                exceptional.append({"point": str(p), "count": count,
                                    "status": status})
                if status == "synchronizing":
                    violations.append(str(p))
    return {"max_period": max_period,
            "checked": len(seen),
            "exceptional": exceptional,
            "passed": not violations}
