"""Synchronizing words and points.

A word is synchronizing when every run of it in the minimal
deterministic cover ends at the same state; a point is synchronizing
when some central word of it is synchronizing.  Synchronizing points
are exactly the points with a local product (rectangle) neighborhood,
and the non-synchronizing points form a subshift presented by the
size->=2 part of the subset automaton.
"""

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property

from synchrolab.errors import NotInLanguage, NotInShift, NotSynchronizing, WindowTooSmall
from synchrolab.points import BiSeq, canonical_order, check_bracket_radius, point_in_shift
from synchrolab.presentation import Presentation, _subset_presentation, _subset_search
from synchrolab.shift import fischer_cover


@dataclass(frozen=True)
class SyncVerdict:
    """Outcome of classifying one point.

    ``status`` is ``"synchronizing"`` or ``"nonSynchronizing"``; a
    synchronizing verdict carries a central witness word ``x[-N..N]``
    that is intrinsically synchronizing, with ``window_used = N``.
    """

    status: str
    witness: tuple = None
    window_used: int = 0


@dataclass(frozen=True)
class NonSyncReport:
    """The non-synchronizing subshift of the shift with Fischer cover ``cover``.

    ``finiteness`` is ``"finite"`` or ``"infinite"``; when finite,
    ``points`` lists every non-synchronizing point (all periodic) and
    ``count`` is the paper-facing cardinality m.  ``state_count`` and the
    ``presentation`` (named when first read) come from the 2-subset ``search``.
    """

    cover: Presentation
    search: tuple = field(repr=False, compare=False)
    finiteness: str
    points: tuple = ()

    @cached_property
    def presentation(self):
        return _subset_presentation(self.cover, *self.search)

    @property
    def state_count(self):
        return self.search[2].bit_count()

    @property
    def count(self):
        return len(self.points) if self.finiteness == "finite" else None


def is_sync_word(s, w):
    """True iff all runs of ``w`` in the Fischer cover end at one state."""
    cover = fischer_cover(s)
    terminal = cover.run(cover.full_mask, w)
    if not terminal:
        raise NotInLanguage(f"word {w!r} is not in the language")
    return terminal.bit_count() == 1


def classify_point(s, x):
    """Classifies a point as synchronizing or not, exactly.

    The shift reads the least synchronizing central window of x
    (``sync_window``): on a presented shift from the orbit of x's past
    set in the Fischer cover, on an oracle shift from the builtin's
    synchronizing patterns.  A synchronizing verdict carries that
    smallest central word ``x[-N..N]`` as its witness.
    """
    if point_in_shift(s, x) != "yes":
        raise NotInShift("point is not in the shift")
    found = s.sync_window(x)
    if found is None:
        return SyncVerdict("nonSynchronizing")
    return SyncVerdict("synchronizing", *found)


def sync_radius(s, x):
    """The least bracket radius N >= 2 at which the central word
    ``x[1-N..N-1]`` of ``x`` synchronizes.

    A word that contains a synchronizing word synchronizes, so that word
    synchronizes iff N - 1 >= ``window_used``, the radius of the least
    witness of ``classify_point``.  Raises ``NotInShift`` (through
    ``classify_point``) and ``NotSynchronizing`` for a point that does
    not synchronize.
    """
    verdict = classify_point(s, x)
    if verdict.status != "synchronizing":
        raise NotSynchronizing(f"{x} is not synchronizing")
    return max(verdict.window_used, 1) + 1


def _cylinder_frame(s, x, N, unstable):
    """The presentation, its primitive cycles c of length <= 2 with their
    tail fixpoints (``Presentation.short_cycles``, read once per
    presentation and direction), and the frozen side's tail set, out of
    which the free words of a cylinder of ``x`` are read (``unstable``:
    the past set at N, read forward; else the future set at 1-N, read
    backward).  Raises ``Unverified`` for an oracle shift."""
    g = s.presentation
    return g, g.short_cycles[unstable], g.past_set(x, N) if unstable else g.future_set(x, 1 - N)


def cylinder_representatives(s, x, N, L, side):
    """The small-description points of one cylinder of ``x``, in
    canonical order; ``conjugacy.domain_samples`` keeps the first few
    (``_cylinder_head``).

    ``side`` "u" freezes coordinates <= N-1 (unstable cylinder) and
    varies the future, the point ``x[<N] u c^inf``; "s" freezes
    coordinates >= 1-N and varies the past, ``c^inf u x[>=1-N]``.  Free
    words u fit in window L, are read out of the frozen side's tail set,
    and close into cycles c of length at most 2 whose tail fixpoint
    their run meets; that test is exact membership of the point.

    Only reduced pairs are built: c is primitive, and u does not end
    with c's last symbol ("u"; "s": start with c's first symbol).  Any
    other pair names a point a reduced one names too: ``aa`` repeats as
    ``a`` does, and ``u'b c^inf`` with b = c[-1] is ``u' c'^inf`` for the
    rotation c' = b c[:-1]; u' is shorter, so the word search yields it,
    and membership is exact, so it passes just when the longer pair does.
    A reduced pair is the point's least preperiod and primitive period,
    so distinct reduced pairs name distinct points and each point is
    built once.  Raises ``Unverified`` for an oracle shift.
    """
    return canonical_order(_cylinder_points(s, x, N, L, side))


def _cylinder_head(s, x, N, L, side, k):
    """``cylinder_representatives(s, x, N, L, side)[:k]``.

    The points are sorted by description size, an int, and literals are
    formatted and ordered only for the sizes up to the k-th point's: the
    canonical order sorts by size first, so every larger size is cut
    whole.
    """
    points = sorted(_cylinder_points(s, x, N, L, side), key=BiSeq.description_size)
    if k < len(points):
        reached = points[k - 1].description_size() if k else -1
        points = points[:bisect_right(points, reached, key=BiSeq.description_size)]
    return canonical_order(points)[:k]


def _cylinder_points(s, x, N, L, side):
    # The points of ``cylinder_representatives``, each built once, unordered.
    unstable = side == "u"
    g, cycles, start = _cylinder_frame(s, x, N, unstable)
    free, symbols = max(0, L - N), s.alphabet.symbols
    if unstable:
        a = min(x.origin, N)
        past, head = x.left_pattern_at(a), x.window(a, N)
        return [BiSeq(past, head + u, c, a)
                for (u, run) in g.words(start, symbols, free)
                for (c, fixed) in cycles if run & fixed and u[-1:] != c[-1:]]
    b = max(x.right_start, 1 - N)
    tail, future = x.window(1 - N, b), x.right_pattern_at(b)
    return [BiSeq(c, u + tail, future, 1 - N - len(u))
            for (u, run) in g.words(start, symbols, free, backward=True)
            for (c, fixed) in cycles if run & fixed and u[:1] != c[:1]]


def cylinder_count(s, x, N, L, side):
    """``len(cylinder_representatives(s, x, N, L, side))``, with no point
    built.

    The representatives keep a free word u with a cycle c iff u's run
    meets c's tail fixpoint and u's boundary symbol (last for "u", first
    for "s", none for the empty word) is not c's: a test on the pair
    (run mask, boundary symbol) alone.  So each length's words are held
    as one layer ``{(run mask, boundary symbol): number of words}``,
    grown a symbol at a time as ``Presentation.words`` grows them, and
    each entry counts once per cycle it closes into; distinct reduced
    pairs are distinct points, so the sum is exact.  Raises
    ``Unverified`` for an oracle shift.
    """
    unstable = side == "u"
    g, cycles, start = _cylinder_frame(s, x, N, unstable)
    read, end = (g.run, -1) if unstable else (g.back, 0)
    free = max(0, L - N)
    layer, total = {(start, None): 1}, 0  # an empty start meets no fixpoint and grows nothing
    for depth in range(free + 1):
        total += sum(n for ((run, b), n) in layer.items()
                     for (c, fixed) in cycles if run & fixed and b != c[end])
        if depth == free:
            break
        grown = {}
        for ((run, _), n) in layer.items():
            for a in s.alphabet.symbols:
                nxt = read(run, (a,))
                if nxt:
                    grown[nxt, a] = grown.get((nxt, a), 0) + n
        layer = grown
    return total


def rectangle_check(s, x, N, L):
    """Reports the local product structure at a synchronizing point.

    Counts the representatives of ``X^u(x, 2**-N)`` and
    ``X^s(x, 2**-N)`` with descriptions in window ``L`` with no point
    built (``cylinder_count``).  The count is exact: whether a free word
    u closes into a cycle c as a reduced pair depends on u only through
    its run mask and boundary symbol, and distinct reduced pairs are
    distinct points (``cylinder_representatives``), so summing the
    words of each (run mask, boundary symbol) pair gives the number of
    points.  It costs (L-N+1) layers of at most |reachable pairs| x |A|
    mask reads, linear in L, where building the points reads the
    |A|^(L-N) free words a side.  The rectangle on the samples is a
    theorem (L&M §3.3), so ``failures`` is empty and ``passed`` true.
    Let y be an unstable and z a stable sample.  Both carry x's central
    word v = x[1-N..N-1], which synchronizes as ``sync_radius(s, x) <=
    N``: every path reading v ends at one state q.  So z's left-infinite
    path below N and y's right-infinite path from N meet at q, and their
    concatenation reads the splice ``[y, z]`` (z below 0, y from 0): it
    is in the shift, equal to y from 1-N on and to z below N, and h_x
    inverts on it, as ``[[y, z], x] = y`` (y = x below N) and
    ``[x, [y, z]] = z`` (z = x from 1-N on).

    Returns a report dict; raises on precondition failures.
    """
    check_bracket_radius(N)
    if sync_radius(s, x) > N:
        raise NotSynchronizing(f"central word at radius {N} is not synchronizing")
    unstable = cylinder_count(s, x, N, L, "u")
    stable = cylinder_count(s, x, N, L, "s")
    if not unstable or not stable:
        raise WindowTooSmall(f"no representatives fit in window {L}")
    return {"point": str(x), "N": N, "L": L, "unstable_samples": unstable,
            "stable_samples": stable, "pairs": unstable * stable,
            "failures": [], "passed": True}


def nonsync_subshift(s):
    """Presents the subshift of non-synchronizing points.

    The subset automaton of the Fischer cover restricted to state sets
    of size >= 2 reachable from the full set presents exactly the
    points none of whose factors synchronize.  The subshift is finite
    iff the trimmed graph is a disjoint union of cycles, in which case
    all its points are periodic and are enumerated.  Both are read on
    the subset search's peeled discovery indices; no state set is named.
    """
    cover = fischer_cover(s)
    _, arcs, keep = search = _subset_search(cover, 2)
    kept = [(i, a, j) for (i, a, j) in arcs if keep >> i & 1 and keep >> j & 1]
    # each kept index has in- and out-arcs: cycles iff as many arcs as indices
    if len(kept) != keep.bit_count():
        return NonSyncReport(cover, search, "infinite")
    out = {i: (a, j) for (i, a, j) in kept}
    points = set()
    for start in out:
        labels, i = [], start
        while not labels or i != start:
            a, i = out[i]
            labels.append(a)
        points.add(BiSeq.periodic(labels))
    return NonSyncReport(cover, search, "finite", tuple(canonical_order(points)))


def sync_density_check(s, L):
    """Exhibits synchronizing points through every cylinder of length <= L.

    Each admissible word w gets the periodic point through it that the
    shift's ``density_entry`` proves to exist and to synchronize, with
    status ``"yes"``.
    """
    return {"L": L, "entries": [s.density_entry(w, True) for w in s.words(L)]}
