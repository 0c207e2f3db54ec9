"""Periodic points: exact enumeration and the bracket-iteration search.

Besides enumerating all points of period n, this module implements the
constructive recursion that produces a periodic point near any
synchronizing point: starting from a non-wandering return ``y`` close
to the base point, iterate ``z <- [shift^-n(z), shift^n(z)]``.  In the
symbolic setting the agreement window grows by exactly n per step, so
the limit is detected exactly as stabilization against a periodization
of the current iterate.
"""

from dataclasses import dataclass
from itertools import product as iproduct

from synchrolab.errors import (BracketUndefined, InvariantViolation, NoConvergence,
                               NotAgreeing, NotInShift, NotSynchronizing,
                               SearchExhausted, Unverified)
from synchrolab.points import BiSeq, agree_on, bracket, distance, point_in_shift, shift_by
from synchrolab.shift import OracleShift, enumerate_words, fischer_cover
from synchrolab.sync import (close_orbit_through, oracle_density_entry,
                             central_word_synchronizes, classify_point)


@dataclass(frozen=True)
class PeriodicSet:
    """All points fixed by the n-th power of the shift."""

    n: int
    points: tuple

    @property
    def count(self):
        return len(self.points)


def enumerate_periodic(s, n):
    """All points of the shift fixed by ``shift^n``.

    A candidate is ``w`` repeated bi-infinitely for each word ``w`` of
    length n; membership of the periodization is decided exactly on the
    presentation.  Distinct canonical points are returned.
    """
    if n < 1:
        raise ValueError("period must be >= 1")
    if isinstance(s, OracleShift):
        raise Unverified("an oracle shift cannot decide its periodic points")
    points = set()
    for w in iproduct(s.alphabet.symbols, repeat=n):
        candidate = BiSeq.periodic(w)
        if candidate in points:
            continue
        if point_in_shift(s, candidate) == "yes":
            for phase in range(n):
                points.add(BiSeq.periodic(w, phase))
    ordered = tuple(sorted(points, key=lambda p: (p.description_size(), str(p))))
    return PeriodicSet(n, ordered)


def periodic_density_check(s, L):
    """Exhibits periodic orbits through every cylinder of length <= L.

    For each admissible word a cycle through one of its runs is closed
    in the cover; oracle shifts use a bounded wrap search and report
    unverified.
    """
    entries = []
    if isinstance(s, OracleShift):
        for w in enumerate_words(s, min(L, s.window_bound)):
            entries.append(oracle_density_entry(s, w, want_sync=False))
    else:
        cover = fischer_cover(s)
        for w in enumerate_words(s, L):
            point = close_orbit_through(cover, w)
            ok = (point_in_shift(s, point) == "yes"
                  and point.window(0, len(w)) == tuple(w)
                  and shift_by(point, len(point.left)) == point)
            entries.append({"word": w, "point": str(point),
                            "status": "yes" if ok else "no"})
    return {"L": L, "entries": entries,
            "passed": all(e["status"] != "no" for e in entries)}


def periodize(x, period, anchor=0):
    """The periodic point repeating x's window [anchor-period/2 ...).

    Used with ``period = 2n`` and the central window [-n, n).
    """
    half = period // 2
    return BiSeq.periodic(x.window(anchor - half, anchor - half + period),
                          anchor - half)


def find_periodic_by_bracket(s, x, y, n, N, cap=None):
    """Runs the bracket recursion from a return point near ``x``.

    Preconditions: ``x`` synchronizes with a central witness inside
    radius ``N``, and both ``y`` and ``shift^n(y)`` lie in the closed
    ball of radius ``2**-N`` around ``x``.  Iterates

        z_0 = [y, shift^n(y)],   z_{m+1} = [shift^-n(z_m), shift^n(z_m)]

    and stops when ``z_{m+1}`` agrees on [-K, K], K = n(m+1), with the
    2n-periodization of ``z_m``; that periodization is returned after
    checking it is shift^(2n)-fixed and lies in the shift.

    Raises
    ------
    BracketUndefined
        With the failing step index.
    NoConvergence
        Beyond the iteration cap.
    """
    if N < 2:
        raise ValueError("bracket radius must satisfy N >= 2 (epsilon <= 1/4)")
    if n < 1:
        raise ValueError("period n must be >= 1")
    verdict = classify_point(s, x)
    if verdict.status != "synchronizing":
        raise NotSynchronizing(f"base point classifies {verdict.status}")
    if not central_word_synchronizes(s, x, N):
        raise NotSynchronizing(f"witness window exceeds radius {N}")
    for candidate, name in ((y, "y"), (shift_by(y, n), "shift^n(y)")):
        d = distance(x, candidate)
        if not (d.is_zero or d.k >= N):
            raise ValueError(f"{name} is not within 2^-{N} of the base point")
    if cap is None:
        cap = len(fischer_cover(s).states) * N + 16
    try:
        z = bracket(s, y, shift_by(y, n), N)
    except (NotAgreeing, NotInShift, Unverified) as exc:
        raise BracketUndefined(f"z_0 undefined: {exc}", step=0) from exc
    for m in range(cap):
        p = periodize(z, 2 * n)
        try:
            z_next = bracket(s, shift_by(z, -n), shift_by(z, n), N)
        except (NotAgreeing, NotInShift, Unverified) as exc:
            raise BracketUndefined(f"z_{m + 1} undefined: {exc}", step=m + 1) from exc
        K = n * (m + 1)
        if agree_on(z_next, p, -K, K + 1):
            if shift_by(p, 2 * n) != p:
                raise InvariantViolation("periodization is not shift^(2n)-fixed")
            if point_in_shift(s, p) != "yes":
                raise NotInShift("periodization leaves the shift")
            return p
        z = z_next
    raise NoConvergence(f"no stabilization within {cap} steps")


def minimal_period(p):
    """The least n >= 1 with ``shift^n(p) == p``; None if not periodic."""
    if p.core or p.left != p.right:
        return None
    return len(p.right)


def find_return(s, x, N):
    """A constructive non-wandering return for the bracket recursion.

    Closes a periodic orbit through the central window ``x[-N..N]`` and
    returns ``(y, n)`` with ``y`` and ``shift^n(y)`` in the closed
    ``2**-N`` ball around ``x``.
    """
    if N < 2:
        raise ValueError("bracket radius must satisfy N >= 2 (epsilon <= 1/4)")
    cover = fischer_cover(s)
    w = x.window(-N, N + 1)
    point = close_orbit_through(cover, w)
    y = shift_by(point, N)  # place the window at [-N, N]
    n = len(y.right) if minimal_period(y) else None
    if n is None:
        raise SearchExhausted("cycle closure did not produce a periodic point")
    d = distance(x, y)
    if not (d.is_zero or d.k >= N):
        raise SearchExhausted("return point drifted outside the ball")
    return y, n
