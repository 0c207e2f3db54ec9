"""Reference membership decisions that share no code with the kernel.

Points are read coordinate by coordinate with ``BiSeq.at``; SFTs are
decided by scanning windows for forbidden factors and sofic shifts by a
fixpoint over frozensets of state names, stepped along out-edge lists.
The library decides both through bitmask tail sets, so agreement
between the two is a differential check.
"""

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
