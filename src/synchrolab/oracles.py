"""Marker shifts: ``OracleShift``, the class of the builtins with no finite
presentation, ``nonsofic-ray`` and ``context-free``, both coded by the
marker ``a`` (Blanchard & Hansel 1986).  All their logic lives here,
behind the methods of ``shift.Shift``: the word predicates, the
two-period membership window, the synchronizing patterns and the density
witness."""

import re
from dataclasses import dataclass, field

from synchrolab.errors import InvariantViolation, Unverified
from synchrolab.points import BiSeq, point_in_shift
from synchrolab.shift import Alphabet, Shift
from synchrolab.sync import classify_point


@dataclass(frozen=True)
class OracleShift(Shift):
    """Shift known only through a predicate that decides every word;
    points are decided from it, and what needs a presentation stops at
    ``presentation``."""

    alphabet: Alphabet
    predicate: callable = field(compare=False)
    oracle_name: str = "oracle"

    @property
    def kind(self):
        return f"oracle:{self.oracle_name}"

    @property
    def presentation(self):
        raise Unverified("an oracle shift has no presentation")

    def check_periodic(self):
        raise Unverified("an oracle shift cannot decide its periodic points")

    def admits(self, w):
        return bool(self.predicate(w))

    def words(self, max_len):
        return list(self._extensions((), max_len))

    def _extensions(self, base, depth):
        """All v with |v| <= depth and base + v admissible, shortest first
        and then in alphabet order."""
        queue = [()]
        for v in queue:
            yield v
            if len(v) < depth:
                queue.extend(v + (a,) for a in self.alphabet if self.admits(base + v + (a,)))

    def flags(self):
        return {"irreducible": None, "mixing": None, "period": None}

    def contains_point(self, x):
        """One predicate query, on the window W of two periods of each tail
        cycle around the core, or none for a pinned falling ray tail.

        x is a point iff every such window with more periods is
        admissible, as each window of x lies in one; so W decides when W
        admissible implies every larger window admissible.  A word is
        admissible iff each of its a-to-a blocks is (context-free: not a
        b^m c^n a with m != n; ray: a Dyck path from height 1 back to 1),
        and, on the ray, its a-free ends stay at height >= 1 when pinned
        by an ``a``.  An ``a``-free x has no block and no pin, and every
        window is admissible.  Otherwise, for each tail:

        * a tail cycle that holds ``a`` repeats its a-to-a blocks with its
          period, so each block in it, or from the core into it, ends
          within two periods of the core.  On the ray its pins also agree
          across two periods only if its drift is 0, and then its heights
          repeat with its period;
        * an a-free tail: on the context-free shift no a-to-a block enters
          it.  On the ray its heights change by the cycle's drift d each
          period outward; with d >= 0 none falls below those of its first
          period, in W;
        * an a-free ray tail that falls outward (d < 0: more ``c`` than
          ``b`` going right, more ``b`` than ``c`` going left) is pinned
          by an ``a`` of x at height 1, which fixes each of its heights;
          each period outward lowers them by |d|, so x is not a point.
        """
        if self.oracle_name == "nonsofic-ray" and "a" in x.symbols and (
                _falls(x.left, "b") or _falls(x.right, "c")):
            return False
        return self.admits(x.window(x.origin - 2 * len(x.left),
                                    x.right_start + 2 * len(x.right)))

    def sync_window(self, x):
        """The least central word that holds one of ``SYNC_PATTERNS`` (a
        word synchronizes iff it holds one; proof there).  A pattern p of x
        occurs within [origin - |left| - |p| + 1, right_start + |right| +
        |p| - 1), as one past that slides back by tail periods; with |p|
        <= 2 the radius ``reach`` covers this span."""
        patterns = SYNC_PATTERNS[self.oracle_name]
        reach = max(len(x.left) + 1 - x.origin, x.right_start + len(x.right))
        for n in range(reach + 1):
            word = x.window(-n, n + 1)
            if any(word[i:i + len(p)] == p for p in patterns for i in range(len(word))):
                return word, n
        return None

    def density_entry(self, w, want_sync):
        """The first cycle w·v, w·v admissible and |v| <= |w| + 2, v
        shortest first, whose periodization is in the shift and, when
        ``want_sync``, synchronizes, both decided.  One always qualifies:
        * context-free: v = cb.  The periodization holds ``cb``, so it
          synchronizes, and its a-to-a blocks are those of w or one through
          ``cb``, which is not b^m c^n: none is forbidden.
        * ray: with h the least start height of w and e its end height from
          h, v = c^(e-1) a b^(h-1) returns to height h through an ``a`` at
          height 1, so the periodization holds ``a`` and every height is
          >= 1 with every ``a`` at 1.  As h - 1 and e - 1 count at most the
          ``c`` and ``b`` of w (of w outside its ``a``s when it has one),
          |v| <= |w| + 1.
        """
        for v in self._extensions(w, len(w) + 2):
            if w + v:
                point = BiSeq.periodic(w + v)
                if point_in_shift(self, point) == "yes" and (
                        not want_sync or classify_point(self, point).status == "synchronizing"):
                    return {"word": w, "point": str(point), "status": "yes", "witness": w + v}
        raise InvariantViolation(f"no periodic witness through {w}")


def _falls(cycle, down):
    """An a-free ray tail cycle that lowers the height outward, ``down``
    being the symbol that steps down."""
    return "a" not in cycle and 2 * cycle.count(down) > len(cycle)


def _ray_admissible(w):
    """Walks on the right-infinite ray graph.

    Vertices are heights 1, 2, 3, ...; ``a`` loops at height 1, ``b``
    steps right, ``c`` steps left.  A word is admissible iff some start
    height keeps every height >= 1 and puts each ``a`` at height 1.
    """
    drift, pinned, lower = 0, None, 1  # the start height each 'a' needs; the least
    for s in w:
        if s == "a":
            if pinned not in (None, 1 - drift):
                return False
            pinned = 1 - drift
        elif s in ("b", "c"):
            drift += 1 if s == "b" else -1
        else:
            return False
        lower = max(lower, 1 - drift)
    return pinned is None or pinned >= lower


_CONTEXT_FREE_BLOCK = re.compile("(?=a(b*)(c*)a)")


def _context_free_admissible(w):
    """Balanced-block constraint: every factor ``a b^m c^n a`` needs m = n."""
    return set(w) <= {"a", "b", "c"} and all(
        len(b) == len(c) for (b, c) in _CONTEXT_FREE_BLOCK.findall("".join(w)))


def nonsofic_ray():
    """The synchronizing non-sofic shift on the ray graph."""
    return OracleShift(Alphabet(("a", "b", "c")), _ray_admissible,
                       "nonsofic-ray").with_name("nonsofic-ray")


def context_free():
    """The context-free shift (balanced b/c blocks between a's)."""
    return OracleShift(Alphabet(("a", "b", "c")), _context_free_admissible,
                       "context-free").with_name("context-free")


# A word w of a builtin synchronizes (uw, wv admissible imply uwv
# admissible) iff it holds one of the builtin's patterns.
# * nonsofic-ray, ``a``: an ``a`` pins every height of uwv, and uw and wv
#   check each height at that pin.  An a-free w with least start height
#   h and end height e (from h) fails: u = a b^(h-1) and v = c^e give
#   admissible uw and wv, but uwv ends at height 0.
# * context-free, ``a`` or ``cb``: a forbidden factor a b^m c^n a of uwv
#   that lies in neither uw nor wv starts in u and ends in v, so w is a
#   factor of b^m c^n, which holds neither pattern.  A w = b^i c^j fails
#   with u = a and v = c^t a for t = 1 or 2, the t with i != j + t.
SYNC_PATTERNS = {"nonsofic-ray": (("a",),), "context-free": (("a",), ("c", "b"))}

BUILTIN_ORACLES = {
    "nonsofic-ray": nonsofic_ray,
    "context-free": context_free,
}
