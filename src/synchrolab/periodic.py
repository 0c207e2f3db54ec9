"""Periodic points: exact counts, enumeration, and the bracket-iteration search.

The counts p_n of points fixed by the n-th power of the shift are read
off a right-resolving presentation, with no |A|^n enumeration: ``zeta``
gives the zeta function as a quotient of two integer polynomials and
every p_n up to a given n, and ``periodic_counts`` reads the counts
from it.  Past the kernel's size limits they come from tr(A^n) and a
correction over ``multiply_covered_cycles``, the words whose periodic
points have several preimages on the presentation, which one word
search pruned at two states lists.  ``enumerate_periodic`` lists the
points themselves.

This module also implements the constructive recursion that produces a
periodic point near any synchronizing point: starting from a
non-wandering return ``y`` close to the base point, iterate
``z <- [shift^-n(z), shift^n(z)]``.  In the symbolic setting the
recursion is at its limit after one step: [a, b] takes a's coordinates
>= 0 and b's < 0, so z_1 reads y_(i mod n) on [-n, n], the window of
the periodic point repeating y's word on [0, n).
"""

from dataclasses import dataclass
from itertools import product as iproduct

from synchrolab.errors import InvariantViolation, NotInShift, NotSynchronizing, SearchExhausted
from synchrolab.points import (BiSeq, agree_on, bracket, canonical_order, check_bracket_radius,
                               point_in_shift, shift_by)
from synchrolab.presentation import _blocks, _subset_search, determinize
from synchrolab.shift import close_orbit_through, fischer_cover
from synchrolab.sync import sync_radius


@dataclass(frozen=True)
class PeriodicSet:
    """All points fixed by the n-th power of the shift."""

    n: int
    points: tuple

    @property
    def count(self):
        return len(self.points)


# The count kernel's size limits: the most candidate subsets it takes,
# and the most in one strongly connected block of the signed graph,
# whose Berkowitz pass grows with the cube of the block.  Of the covers
# in ``bench/cliffs.py``, the 48-state one (5,442 candidates, blocks up
# to 116) counts in about half a second; the 86-state one (58,735)
# falls back to the trace and the search of ``multiply_covered_cycles``.
_CANDIDATE_LIMIT = 8192
_BLOCK_LIMIT = 160


def _check_period(s, n):
    if n < 1:
        raise ValueError("period must be >= 1")
    s.check_periodic()


def enumerate_periodic(s, n):
    """All points of the shift fixed by ``shift^n``.

    A candidate is ``w`` repeated bi-infinitely for each word ``w`` of
    length n; membership of the periodization is decided exactly on the
    presentation.  Distinct canonical points are returned.  This tries
    all |A|^n words, so only the points path of ``synchrolab periodic``
    calls it: ``periodic_counts`` counts the points without them, and
    ``factor.almost_one_to_one_check`` finds the multiply covered ones
    by ``multiply_covered_cycles``.
    """
    _check_period(s, n)
    points = set()
    for w in iproduct(s.alphabet.symbols, repeat=n):
        candidate = BiSeq.periodic(w)
        if candidate in points:
            continue
        if point_in_shift(s, candidate) == "yes":
            for phase in range(n):
                points.add(BiSeq.periodic(w, phase))
    return PeriodicSet(n, tuple(canonical_order(points)))


def zeta(s, n):
    """The zeta function of the shift and its periodic point counts.

    Returns ``(numerator, denominator, counts)``: ζ(t) = exp(Σ p_m t^m / m)
    is numerator(t) / denominator(t), unreduced, in rising powers of t,
    and ``counts`` is (p_1, ..., p_n).  On a right-resolving presentation
    (the shift's own if deterministic, else its determinization),
    ζ = Π_k det(I - tA_k)^((-1)^k), where label a adds to A_k, from the
    k-subset P to Q, the sign of the permutation it induces when it maps
    P one-to-one onto Q (Lind & Marcus §6.4).  A subset on a cycle of
    A_k lies in a mask the subset search keeps, so only their submasks
    are candidates.  Each strongly connected block B of the signed graph
    gives det(I - tB) by Berkowitz's division-free algorithm, and
    Newton's identities give the counts, with no matrix power.

    Raises ``SearchExhausted`` past ``_CANDIDATE_LIMIT`` candidates,
    counted before any is built, or ``_BLOCK_LIMIT`` subsets in a block.
    """
    _check_period(s, n)
    g = _right_resolving(s)
    queue, _, keep = _subset_search(g, 1)
    kept = [mask for i, mask in enumerate(queue) if keep >> i & 1]
    total = sum((1 << mask.bit_count()) - 1 for mask in kept)
    if total > _CANDIDATE_LIMIT:
        raise SearchExhausted(f"{total} candidate subsets exceed the limit of {_CANDIDATE_LIMIT}")
    candidates = set()
    for mask in kept:
        sub = mask
        while sub:
            candidates.add(sub)
            sub = (sub - 1) & mask
    numerator, denominator = _signed_dets(g, candidates, _BLOCK_LIMIT)
    counts = tuple(a - b for a, b in zip(_power_sums(denominator, n),
                                         _power_sums(numerator, n)))
    return tuple(numerator), tuple(denominator), counts


def _right_resolving(s):
    # The shift's presentation if it is deterministic, else its determinization.
    g = s.presentation
    return g if g.deterministic else determinize(g)


def _signed_dets(g, candidates, limit):
    # (numerator, denominator): the products of det(I - tB) over the
    # strongly connected blocks B of the signed subset graph on
    # ``candidates``, those of even and of odd subsets.  Raises
    # ``SearchExhausted`` for a block of more than ``limit`` subsets.
    arcs = {}
    for subset in sorted(candidates):
        arcs[subset] = row = {}
        members = [i for i in range(subset.bit_length()) if subset >> i & 1]
        for rows in g.masks.values():
            # each image is at most one state, as g is deterministic
            images = [rows[i] for i in members]
            image = sum(images)
            if image.bit_count() == len(images) and image in candidates:
                swaps = sum(x > y for i, x in enumerate(images) for y in images[i + 1:])
                row[image] = row.get(image, 0) + (-1) ** swaps
    numerator, denominator = [1], [1]
    for block in _blocks(arcs):
        if len(block) > limit:
            raise SearchExhausted(
                f"a block of {len(block)} subsets exceeds the limit of {limit}")
        at = {subset: k for k, subset in enumerate(block)}
        poly = _det_one_minus([{at[q]: w for q, w in arcs[p].items() if q in at}
                               for p in block])
        if block[0].bit_count() % 2:
            denominator = _times(denominator, poly)
        else:
            numerator = _times(numerator, poly)
    return numerator, denominator


def multiply_covered_cycles(g, depth, backward=False):
    """Yields ``(w, T_w)`` for every non-empty word w of length <=
    ``depth`` whose tail fixpoint T_w on ``g`` (``backward``: the
    states starting an infinite run of w reads) has at least two
    states, shortest first.

    On a right-resolving ``g`` (``backward``: left-resolving), reading
    w permutes T_w, so w^∞ has |T_w| preimages under the labeling, one
    through each state of T_w (Lind & Marcus §9.1).  Every prefix
    (``backward``: suffix) of w reads the full mask to at least |T_w|
    states, so one word search cut at two states finds every such w.
    """
    for (w, _) in g.words(g.full_mask, g.alphabet, depth, backward, least=2):
        if w:
            tail = g.tail_fixpoint(w, backward)
            if tail.bit_count() >= 2:
                yield w, tail


def periodic_counts(s, n):
    """(p_1, ..., p_n), p_m = |Fix(shift^m)|, read from ``zeta``.

    Past the kernel's limits, on the same right-resolving presentation
    with adjacency matrix A: each word w of length m with w^∞ in the
    shift adds one to p_m, and c_w = #{q in T_w : q·w = q} to tr(A^m),
    where c_w = 1 when |T_w| = 1.  So p_m = tr(A^m) + Σ (1 - c_w), summed
    over the words of ``multiply_covered_cycles`` of length m, and
    tr(A^m) comes from det(I - tA) with no matrix power.
    """
    try:
        return zeta(s, n)[2]
    except SearchExhausted:
        pass
    g = _right_resolving(s)
    _, det = _signed_dets(g, {1 << i for i in range(len(g.states))}, len(g.states))
    counts = _power_sums(det, n)
    for (w, tail) in multiply_covered_cycles(g, n):
        bits = [1 << i for i in range(tail.bit_length()) if tail >> i & 1]
        counts[len(w) - 1] += 1 - sum(g.run(bit, w) == bit for bit in bits)
    return tuple(counts)


def _det_one_minus(rows):
    # det(I - tB) in rising powers of t, for B given by sparse ``rows``
    # ({column: entry}): the coefficients of det(tI - B) from the top,
    # which Berkowitz's algorithm builds one leading principal submatrix
    # at a time by a Toeplitz product, with no division.
    poly = [1]
    for q, row in enumerate(rows):
        inner = [(i, j, w) for i, r in enumerate(rows[:q]) for j, w in r.items() if j < q]
        last = [(j, w) for j, w in row.items() if j < q]
        column = [r.get(q, 0) for r in rows[:q]]
        toeplitz = [1, -row.get(q, 0)]
        for _ in range(q):
            toeplitz.append(-sum(w * column[j] for j, w in last))
            image = [0] * q
            for i, j, w in inner:
                image[i] += w * column[j]
            column = image
        poly = [sum(toeplitz[j - i] * poly[i] for i in range(max(0, j - q - 1), min(j, q) + 1))
                for j in range(q + 2)]
    while poly[-1] == 0:
        poly.pop()
    return poly


def _times(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _power_sums(poly, n):
    # Σ λ^m for m = 1..n over the reciprocal roots λ of ``poly`` (rising
    # powers, constant term 1), by Newton's identities.
    sums = []
    for m in range(1, n + 1):
        top = -m * poly[m] if m < len(poly) else 0
        sums.append(top - sum(poly[i] * sums[m - 1 - i] for i in range(1, min(m, len(poly)))))
    return sums


def periodic_density_check(s, L):
    """Exhibits periodic orbits through every cylinder of length <= L.

    Each admissible word w gets the periodic point through it that the
    shift's ``density_entry`` proves to exist, with status ``"yes"``.
    """
    return {"L": L, "entries": [s.density_entry(w, False) for w in s.words(L)]}


def find_periodic_by_bracket(s, x, y, n, N):
    """Runs the bracket recursion from a return point near ``x``.

    Preconditions, each checked once at entry: ``x`` synchronizes with
    a central witness inside radius ``N``, ``y`` lies in the shift, and
    ``y`` and ``shift^n(y)`` lie in the closed ball of radius ``2**-N``
    around ``x``, that is agree with it on [1 - N, N - 1].  The recursion is

        z_0 = [y, shift^n(y)],   z_{m+1} = [shift^-n(z_m), shift^n(z_m)]

    and it stops at z_1.  [a, b] takes a's coordinates >= 0 and b's
    < 0, so z_0 reads y_i on [0, n) and y_(i+n) on [-n, 0), and z_1
    reads z_0(i - n) on [0, n] and z_0(i + n) on [-n, 0): both are
    y_(i mod n).  So z_1 agrees on [-n, n] with p, the periodic point
    repeating y's word on [0, n), which is the 2n-periodization of z_0.
    p is returned once z_1 agrees with it, with no membership test: y's
    word y[1 - N, n + N) starts with x's central word v and, as shift^n(y)
    carries v too, ends with it: it is a·v = v·b, so as v synchronizes,
    each a^k·v·b^k, a window of p, is in the language, and p is a point.

    Neither bracket can fail.  As y_i = x_i = y_(i+n) on [1 - N, N - 1],
    z_0 equals y from 1 - N on, and shift^-n(z_0) and shift^n(z_0) agree
    with x there too.  So both arguments of each bracket lie in the
    shift and carry x's synchronizing central word on [1 - N, N - 1]:
    they agree there, and the splice glues inside that word: with uv and
    vw in the language, so is uvw.

    Raises
    ------
    ValueError, NotInShift, NotSynchronizing
        For N < 2, n < 1, or y or shift^n(y) outside the ball; for x or
        y outside the shift; for x not synchronizing at radius N.
    """
    check_bracket_radius(N)
    if n < 1:
        raise ValueError("period n must be >= 1")
    if sync_radius(s, x) > N:
        raise NotSynchronizing(f"witness window exceeds radius {N}")
    if point_in_shift(s, y) == "no":
        raise NotInShift("return point is not in the shift")
    for candidate, name in ((y, "y"), (shift_by(y, n), "shift^n(y)")):
        if not agree_on(x, candidate, 1 - N, N):
            raise ValueError(f"{name} is not within 2^-{N} of the base point")
    z = bracket(s, y, shift_by(y, n), N)
    z = bracket(s, shift_by(z, -n), shift_by(z, n), N)
    p = BiSeq.periodic(y.window(0, n))
    if not agree_on(z, p, -n, n + 1):
        raise InvariantViolation("z_1 does not agree with the periodization on [-n, n]")
    return p


def minimal_period(p):
    """The least n >= 1 with ``shift^n(p) == p``; None if not periodic."""
    if p.core or p.left != p.right:
        return None
    return len(p.right)


def find_return(s, x, N):
    """A constructive non-wandering return for the bracket recursion.

    Closes a periodic orbit through the central window ``x[-N..N]`` and
    returns ``(y, n)`` with ``y`` and ``shift^n(y)`` in the closed
    ``2**-N`` ball around ``x``.  ``close_orbit_through`` returns a
    ``BiSeq.periodic`` point that reads the window from 0, so y, its
    shift by N, is periodic with minimal period n, and it reads x's
    window on [-N, N]: it can neither fail to be periodic nor leave the
    ball, and shift^n(y) = y.

    Raises ``NotInShift`` for an ``x`` outside the shift; on an oracle
    shift the cover read stops it with ``Unverified``.
    """
    check_bracket_radius(N)
    if point_in_shift(s, x) == "no":
        raise NotInShift("point is not in the shift")
    point = close_orbit_through(fischer_cover(s), x.window(-N, N + 1))
    y = shift_by(point, N)  # place the window at [-N, N]
    return y, minimal_period(y)
