"""Reference decisions and subset automata that share no code with the kernel.

Points are read coordinate by coordinate with ``BiSeq.at``; SFTs are
decided by scanning windows for forbidden factors and sofic shifts by a
fixpoint over frozensets of state names, stepped along out-edge lists.
Subset automata, language equality and tail fixpoints are computed the
same way, on frozensets.  The library computes all of these on bitmasks,
so agreement between the two is a differential check.
"""

from synchrolab.presentation import Presentation, trim
from synchrolab.shift import SFT, Sofic


def window_admissible(s, w):
    """True iff the finite word ``w`` contains no forbidden factor of the
    SFT ``s``."""
    for f in s.forbidden:
        lf = len(f)
        for i in range(len(w) - lf + 1):
            if tuple(w[i:i + lf]) == f:
                return False
    return True


def _step(g, states, word):
    for a in word:
        states = frozenset(r for q in states for (_, b, r) in g.out_edges[q] if b == a)
    return states


def reference_point_in_shift(s, x):
    """``"yes"`` or ``"no"``: is ``x`` a point of the SFT/sofic shift ``s``?"""
    if not set(x.left) | set(x.core) | set(x.right) <= set(s.alphabet):
        return "no"
    start = x.origin + len(x.core)
    left = tuple(x.at(x.origin - len(x.left) + k) for k in range(len(x.left)))
    core = tuple(x.at(i) for i in range(x.origin, start))
    right = tuple(x.at(start + k) for k in range(len(x.right)))
    if isinstance(s, SFT):
        m = s.memory
        lo = x.origin - len(x.left) - m
        hi = start + len(x.right) + m
        for p in range(lo, hi):
            if not window_admissible(s, tuple(x.at(i) for i in range(p, p + m))):
                return "no"
        return "yes"
    assert isinstance(s, Sofic)
    g = s.presentation
    past = frozenset(g.states)
    while True:
        nxt = _step(g, past, left)
        if nxt == past:
            break
        past = nxt
    reached = _step(g, past, core)
    future = frozenset(g.states)
    while True:
        nxt = frozenset(q for q in future if _step(g, {q}, right) & future)
        if nxt == future:
            break
        future = nxt
    return "yes" if reached & future else "no"


def _canonical_key(state):
    """The library's canonical state order, restated."""
    return (repr(type(state)), repr(state))


def reference_subset_automaton(g, least, key=_canonical_key):
    """The trimmed subset automaton of ``g`` on state sets of ``least`` or
    more states reachable from the full set, each named by its members
    sorted by ``key``."""
    def name(subset):
        return tuple(sorted(subset, key=key))

    full = frozenset(g.states)
    seen = {full} if len(full) >= least else set()
    queue = list(seen)
    edges = []
    while queue:
        current = queue.pop(0)
        for a in g.alphabet:
            nxt = _step(g, current, (a,))
            if len(nxt) < least:
                continue
            edges.append((name(current), a, name(nxt)))
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return trim(Presentation.build([name(s) for s in seen], edges))


def distinguishing_word(p1, p2):
    """A shortest word read in exactly one of ``p1``, ``p2``, or ``None``
    when their languages are equal."""
    start = (frozenset(p1.states), frozenset(p2.states))
    seen = {start}
    queue = [(start, ())]
    alphabet = sorted(set(p1.alphabet) | set(p2.alphabet))
    while queue:
        (s1, s2), w = queue.pop(0)
        if bool(s1) != bool(s2):
            return w
        for a in alphabet:
            nxt = (_step(p1, s1, (a,)), _step(p2, s2, (a,)))
            if (nxt[0] or nxt[1]) and nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, w + (a,)))
    return None


def reference_tail_states(g, cycle, backward):
    """States of ``g`` ending an infinite run of ``cycle`` reads (when
    ``backward``: starting one), by a fixpoint over the graph of
    ``cycle``-runs between states."""
    arcs = {(q, r) for q in g.states for r in _step(g, {q}, cycle)}
    alive = set(g.states)
    while True:
        if backward:
            nxt = {u for u in alive if any(r in alive for (q, r) in arcs if q == u)}
        else:
            nxt = {r for r in alive if any(q in alive for (q, s) in arcs if s == r)}
        if nxt == alive:
            return alive
        alive = nxt
