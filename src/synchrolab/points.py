"""Exact arithmetic on eventually periodic bi-infinite points.

A ``BiSeq`` is a bi-infinite symbol sequence that repeats a cycle word
far to the left, repeats a (possibly different) cycle word far to the
right, and carries an arbitrary finite core in between.  This class of
points is closed under the shift map, splicing, and the bracket map,
and admits decidable equality via a canonical form, so every check in
the library is exact.

The metric is ``d(x, y) = 2**(-min{|i| : x_i != y_i})`` with ``d = 0``
iff the points are equal.  Under this metric the shift contracts local
stable sets by exactly one half per step, expands by at most two, and
every ball is a cylinder; the constants used throughout the library are
``lambda = 1/2``, ``K = 2``, expansiveness ``1/2``, and bracket radius
at most ``1/4`` (window ``N >= 2``).
"""

from dataclasses import dataclass
from functools import total_ordering
from math import lcm

from synchrolab.errors import NotAgreeing, NotInShift


@total_ordering
@dataclass(frozen=True)
class Dyadic:
    """A value that is 0 or an exact power 2**(-k) with k >= 0."""

    k: int = 0
    is_zero: bool = False

    def __post_init__(self):
        if not self.is_zero and self.k < 0:
            raise ValueError("Dyadic exponent must be >= 0")

    @staticmethod
    def zero():
        return Dyadic(0, True)

    def __le__(self, other):
        if self.is_zero:
            return True
        if other.is_zero:
            return False
        return self.k >= other.k

    def half(self):
        return self if self.is_zero else Dyadic(self.k + 1)

    def __str__(self):
        return "0" if self.is_zero else f"2^-{self.k}"


def _primitive(cycle):
    n = len(cycle)
    for d in range(1, n + 1):
        if n % d == 0 and cycle == cycle[:d] * (n // d):
            return cycle[:d]
    return cycle


def _least_rotation(cycle):
    best = min(range(len(cycle)), key=lambda r: cycle[r:] + cycle[:r])
    return cycle[best:] + cycle[:best], best


@dataclass(frozen=True)
class BiSeq:
    """An eventually periodic bi-infinite point, held in canonical form.

    Coordinates are::

        x_i = core[i - origin]                       origin <= i < origin + |core|
        x_i = right[(i - origin - |core|) % |right|] i >= origin + |core|
        x_i = left[(i - origin) % |left|]            i < origin

    so the left cycle is anchored to end just before ``origin`` and the
    right cycle starts right after the core.  Canonical form makes the
    cycles primitive, absorbs the core maximally into the tails, slides
    an empty-core boundary maximally left, and normalizes a globally
    periodic point to its lexicographically least cycle; equality of
    canonical forms is exactly equality of points.
    """

    left: tuple
    core: tuple
    right: tuple
    origin: int = 0

    def __post_init__(self):
        left, core, right, origin = self.left, self.core, self.right, self.origin
        if not left or not right:
            raise ValueError("cycle words must be non-empty")
        left, core, right, origin = _canonical(tuple(left), tuple(core), tuple(right), int(origin))
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "core", core)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "right_start", origin + len(core))

    @staticmethod
    def periodic(cycle, phase=0):
        """The globally periodic point repeating ``cycle``, with
        ``x_i = cycle[(i - phase) % len(cycle)]``."""
        cycle = tuple(cycle)
        return BiSeq(cycle, (), cycle, phase)

    @staticmethod
    def constant(symbol):
        return BiSeq.periodic((symbol,))

    @property
    def symbols(self):
        return set(self.left) | set(self.core) | set(self.right)

    def at(self, i):
        if i >= self.right_start:
            return self.right[(i - self.right_start) % len(self.right)]
        if i >= self.origin:
            return self.core[i - self.origin]
        return self.left[(i - self.origin) % len(self.left)]

    def window(self, lo, hi):
        """The word occupying coordinates [lo, hi); ``()`` when hi <= lo."""
        origin, right_start = self.origin, self.right_start
        out = ()
        if lo < origin:
            out = _cycle_slice(self.left, lo - origin, min(hi, origin) - lo)
        if lo < right_start and hi > origin:
            out += self.core[max(lo, origin) - origin:min(hi, right_start) - origin]
        if hi > right_start:
            start = max(lo, right_start)
            out += _cycle_slice(self.right, start - right_start, hi - start)
        return out

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self.window(i.start, i.stop)
        return self.at(i)

    def left_pattern_at(self, pos):
        """The left cycle re-anchored to end just before ``pos``.

        Valid for ``pos <= origin``: repeating the result leftward from
        ``pos`` reproduces the point on (-inf, pos).
        """
        if pos > self.origin:
            raise ValueError("left tail is pure cycle only up to the origin")
        d = (pos - self.origin) % len(self.left)
        return self.left[d:] + self.left[:d]

    def right_pattern_at(self, pos):
        """The right cycle re-anchored to start at ``pos >= right_start``."""
        if pos < self.right_start:
            raise ValueError("right tail is pure cycle only beyond the core")
        d = (pos - self.right_start) % len(self.right)
        return self.right[d:] + self.right[:d]

    def description_size(self):
        return len(self.left) + len(self.core) + len(self.right) + abs(self.origin)

    def literal(self):
        """The CLI literal form ``L=... C=... O=... R=...``."""
        return (f"L={format_word(self.left)} C={format_word(self.core)} "
                f"O={self.origin} R={format_word(self.right)}")

    def __str__(self):
        return self.literal()


def format_word(w):
    """The literal of a word: its symbols run together, or joined by
    commas when one of them is longer than a character."""
    return ",".join(w) if any(len(s) != 1 for s in w) else "".join(w)


def canonical_order(points):
    """The points sorted by description size, then by literal."""
    return sorted(points, key=lambda p: (p.description_size(), str(p)))


def _cycle_slice(cycle, offset, count):
    # ``count`` symbols of ``cycle`` repeated, starting at ``offset`` (mod |cycle|).
    if count <= 0:
        return ()
    n = len(cycle)
    start = offset % n
    return (cycle * ((start + count - 1) // n + 1))[start:start + count]


def _canonical(left, core, right, origin):
    left = _primitive(left)
    right = _primitive(right)
    changed = True
    while changed:
        changed = False
        while core and core[-1] == right[-1]:
            core = core[:-1]
            right = right[-1:] + right[:-1]
            changed = True
        while core and core[0] == left[0]:
            core = core[1:]
            left = left[1:] + left[:1]
            origin += 1
            changed = True
    if core:
        return left, core, right, origin
    nl, nr = len(left), len(right)
    joint = lcm(nl, nr)
    if all(left[-j % nl] == right[-j % nr] for j in range(1, joint + 1)):
        cycle, rot = _least_rotation(right)
        return cycle, (), cycle, (origin + rot) % len(cycle)
    while left[-1] == right[-1]:
        left = left[-1:] + left[:-1]
        right = right[-1:] + right[:-1]
        origin -= 1
    return left, core, right, origin


def shift_by(x, k):
    """The shifted point with ``shift_by(x, k)[i] == x[i + k]``."""
    return BiSeq(x.left, x.core, x.right, x.origin - k)


def alignment_bound(x, y):
    """A scan radius beyond which tail periodicity decides agreement.

    If ``x`` and ``y`` agree at every coordinate of absolute value at
    most the bound, they are equal.
    """
    rs = max(x.right_start, y.right_start)
    ls = min(x.origin, y.origin)
    right_span = abs(rs) + lcm(len(x.right), len(y.right))
    left_span = abs(ls) + lcm(len(x.left), len(y.left))
    return max(right_span, left_span) + 1


def distance(x, y):
    """The dyadic metric ``2**(-min{|i| : x_i != y_i})``; 0 iff equal."""
    bound = alignment_bound(x, y)
    for m in range(bound + 1):
        if x.at(m) != y.at(m) or x.at(-m) != y.at(-m):
            return Dyadic(m)
    return Dyadic.zero()


def agree_on(x, y, lo, hi):
    """True iff the points agree on every coordinate in [lo, hi)."""
    return x.window(lo, hi) == y.window(lo, hi)


@dataclass(frozen=True)
class CylinderS:
    """The local stable set ``X^s(base, 2**-N)``.

    Membership is coordinate agreement on ``i >= 1 - N``; the strict
    variant ``X^s_<`` uses ``i >= -N``.
    """

    base: BiSeq
    N: int

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("cylinder radius exponent must be >= 1")

    def contains(self, y, strict=False):
        lo = -self.N if strict else 1 - self.N
        hi = max(alignment_bound(self.base, y), lo + 1)
        return agree_on(self.base, y, lo, hi)


@dataclass(frozen=True)
class CylinderU:
    """The local unstable set ``X^u(base, 2**-N)``.

    Membership is coordinate agreement on ``i <= N - 1``; the strict
    variant ``X^u_<`` uses ``i <= N``.
    """

    base: BiSeq
    N: int

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("cylinder radius exponent must be >= 1")

    def contains(self, y, strict=False):
        hi = (self.N if strict else self.N - 1) + 1
        lo = min(-alignment_bound(self.base, y), hi - 1)
        return agree_on(self.base, y, lo, hi)


def decide_relation(x, y, rel):
    """Decides stable / unstable / homoclinic equivalence exactly.

    Two eventually periodic points are stably equivalent iff they agree
    on a full joint period of their right tails past both cores, and
    symmetrically for unstable equivalence; homoclinic is both.
    """
    if rel == "stable":
        start = max(x.right_start, y.right_start)
        return agree_on(x, y, start, start + lcm(len(x.right), len(y.right)))
    if rel == "unstable":
        end = min(x.origin, y.origin)
        return agree_on(x, y, end - lcm(len(x.left), len(y.left)), end)
    if rel == "homoclinic":
        return decide_relation(x, y, "stable") and decide_relation(x, y, "unstable")
    raise ValueError(f"unknown relation {rel!r}")


def future_splice(z, p, cut):
    """The point equal to ``z`` below ``cut`` and to ``p`` from ``cut`` on."""
    a = min(cut, z.origin)
    b = max(cut, p.right_start)
    core = z.window(a, cut) + p.window(cut, b)
    return BiSeq(z.left_pattern_at(a), core, p.right_pattern_at(b), a)


def splice(x, y):
    """Future of ``x`` glued to the past of ``y`` at coordinate 0."""
    return future_splice(y, x, 0)


def replace_window(x, lo, pattern):
    """The point equal to ``x`` outside [lo, lo+|pattern|) and to
    ``pattern`` inside."""
    a = min(lo, x.origin)
    b = max(lo + len(pattern), x.right_start)
    core = list(x.window(a, b))
    core[lo - a:lo - a + len(pattern)] = list(pattern)
    return BiSeq(x.left_pattern_at(a), tuple(core), x.right_pattern_at(b), a)


def point_in_shift(s, x):
    """Exact membership: ``"yes"`` or ``"no"``.

    A point with a symbol outside the alphabet is not in the shift; the
    shift decides the others (``contains_point``).  SFT and sofic shifts
    are decided alike on their presentation, by its past set and future
    set at the core boundary; an oracle shift by one predicate query on
    a window whose length its docstring proves enough.
    """
    for symbol in x.symbols:
        if symbol not in s.alphabet:
            return "no"
    return "yes" if s.contains_point(x) else "no"


def check_bracket_radius(N):
    """Raises ``ValueError`` unless ``N >= 2``, the bracket's radius
    bound ``epsilon <= 1/4``."""
    if N < 2:
        raise ValueError("bracket radius must satisfy N >= 2 (epsilon <= 1/4)")


def bracket(s, x, y, N):
    """The bracket map ``[x, y]`` at radius ``2**-N``.

    Requires the central agreement ``x_i == y_i`` for ``|i| <= N - 1``;
    the value is the splice taking the future of ``x`` and the past of
    ``y``, provided the splice lies in the shift.  The value, when
    defined, is the unique point of ``X^s(x, 2**-N) ∩ X^u(y, 2**-N)``.

    Raises
    ------
    NotAgreeing, NotInShift
    """
    check_bracket_radius(N)
    if not agree_on(x, y, 1 - N, N):
        raise NotAgreeing(f"central windows differ within radius {N - 1}")
    z = splice(x, y)
    if point_in_shift(s, z) == "yes":
        return z
    raise NotInShift("splice leaves the shift")


def enumerate_points(s, core_len=2, origin_radius=1):
    """All canonical points of the shift with small descriptions.

    Cycles up to length 2, cores up to ``core_len`` and origins up to
    ``origin_radius``: each core is read from its left cycle's tail set
    and kept where its run meets the right cycle's.  Output order is
    canonical.  Raises ``Unverified`` for an oracle shift.
    """
    g, symbols = s.presentation, s.alphabet.symbols
    cycles = [c for (c, _) in g.words(g.full_mask, symbols, 2) if c]
    rights = [(c, g.tail_fixpoint(c, True)) for c in cycles]
    points = {BiSeq(left, core, right, origin)
              for left in cycles
              for (core, run) in g.words(g.tail_fixpoint(left, False), symbols, core_len)
              for (right, future) in rights if run & future
              for origin in range(-origin_radius, origin_radius + 1)}
    return canonical_order(points)
