"""Builtin membership oracles for shifts with no finite presentation, and
the patterns that make their words synchronize."""

from synchrolab.shift import Alphabet, OracleShift


def _ray_admissible(w):
    """Walks on the right-infinite ray graph.

    Vertices are heights 1, 2, 3, ...; ``a`` loops at height 1, ``b``
    steps right, ``c`` steps left.  A word is admissible iff the height
    constraints admit some starting height: each ``a`` forces the
    current height to 1 and each ``c`` requires height >= 2 before the
    step.
    """
    drift = 0
    pinned = None  # required start height, if some 'a' occurred
    lower = 1  # start height must be >= lower
    for s in w:
        if s == "a":
            need = 1 - drift
            if pinned is not None and pinned != need:
                return False
            pinned = need
        elif s == "b":
            drift += 1
        elif s == "c":
            lower = max(lower, 2 - drift)
            drift -= 1
        else:
            return False
        lower = max(lower, 1 - drift)
    if pinned is not None:
        return pinned >= lower if pinned >= 1 else False
    return True


def _context_free_admissible(w):
    """Balanced-block constraint: every factor ``a b^m c^n a`` needs m = n."""
    n = len(w)
    for i, s in enumerate(w):
        if s not in ("a", "b", "c"):
            return False
        if s != "a":
            continue
        j = i + 1
        while j < n and w[j] == "b":
            j += 1
        m = j - (i + 1)
        k = j
        while k < n and w[k] == "c":
            k += 1
        ncs = k - j
        if k < n and w[k] == "a" and m != ncs:
            return False
    return True


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
