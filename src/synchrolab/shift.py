"""Shift spaces: presented shifts and membership oracles.

A shift is one of two variants:

* ``PresentedShift`` -- the bi-infinite label sequences of a finite
  labeled graph; its ``memory``, and so whether it is an SFT, is
  decided from its follower-merged subset automaton, not from how the
  shift was given.
* ``OracleShift`` -- an exact word-membership predicate, for the two
  builtin shifts with no finite presentation; their point questions
  are decided from it, and every computation that needs a presentation
  stops with ``Unverified``.

Words are tuples of symbols; symbols are non-empty strings.
"""

from dataclasses import dataclass, field
from functools import cache, cached_property

from synchrolab.errors import EmptyShift, NotIrreducible, Unverified
from synchrolab.presentation import (Presentation, _moore_quotient, _subset_search,
                                     minimal_cover, trim)


@dataclass(frozen=True)
class Alphabet:
    """An ordered finite set of distinct symbol identifiers."""

    symbols: tuple

    def __post_init__(self):
        if not self.symbols:
            raise ValueError("alphabet must be non-empty")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("alphabet has duplicate symbols")
        for s in self.symbols:
            if not isinstance(s, str) or not s:
                raise ValueError(f"bad symbol {s!r}")

    def __contains__(self, symbol):
        return symbol in self.symbols

    def __iter__(self):
        return iter(self.symbols)

    def __len__(self):
        return len(self.symbols)

    def check_word(self, word):
        for s in word:
            if s not in self.symbols:
                raise ValueError(f"symbol {s!r} not in alphabet {self.symbols}")
        return tuple(word)


def word(text):
    """Builds a word (tuple of single-character symbols) from a string."""
    return tuple(text)


class Shift:
    """Base class of the tagged union; see the variants below.

    ``kind`` names the variant as a spec's ``type:`` line does:
    ``sft``, ``sofic`` or ``oracle:<name>``, and names an unnamed shift.
    ``memory`` is None unless the shift is decided to be an SFT.
    """

    alphabet: Alphabet
    memory = None

    @property
    def name(self):
        return getattr(self, "_name", self.kind)

    def with_name(self, name):
        object.__setattr__(self, "_name", name)
        return self


@dataclass(frozen=True)
class PresentedShift(Shift):
    """The shift presented by a finite labeled graph (trimmed); ``forbidden``
    keeps the words an SFT was built from, for its ``kind`` and spec."""

    alphabet: Alphabet
    presentation: Presentation
    forbidden: frozenset = None

    @property
    def kind(self):
        return "sofic" if self.forbidden is None else "sft"

    @cached_property
    def memory(self):
        """The least m with uv, vw in L, |v| = m - 1, implying uvw in L (the
        longest word of a minimal forbidden list), or None for a non-SFT.

        m - 1 is the least length whose words all run a cover's full mask
        to at most one state (Lind & Marcus §3.4), the number of masks on
        the longest chain of the cover's 2-subset search; a kept index
        means no such length.  The cover read is the follower-merged
        trimmed subset automaton, which ``minimal_cover`` cuts to its
        terminal component, the Fischer cover: each non-empty step from a
        kept subset stays kept, and every long enough word reaches a kept
        subset, so a word runs all its classes to one class iff it is
        intrinsically synchronizing.  That argument never uses
        irreducibility, so the quotient and the Fischer cover have the
        same non-synchronizing words, and one reading serves every shift.
        """
        classes, edges = _moore_quotient(self.presentation)
        cover = Presentation.build(range(len(classes)), edges)
        queue, arcs, keep = _subset_search(cover, 2)
        if keep:
            return None
        memory, layer = 1, {0} if queue else set()
        while layer:
            memory, layer = memory + 1, {j for (i, _, j) in arcs if i in layer}
        return memory


@dataclass(frozen=True)
class OracleShift(Shift):
    """Shift known only through a word-membership predicate.

    The class of the builtins ``nonsofic-ray`` and ``context-free``
    (``synchrolab.oracles``), both coded systems with marker ``a``.  The
    predicate decides every word, of any length; membership and
    classification of points are decided from it (``point_in_shift``,
    ``classify_point``).  The shift has no finite presentation, so every
    computation that needs one stops at ``presentation``.
    """

    alphabet: Alphabet
    admits: callable = field(compare=False)
    oracle_name: str = "oracle"

    @property
    def kind(self):
        return f"oracle:{self.oracle_name}"

    @property
    def presentation(self):
        """An oracle shift has none: every presentation-based computation
        stops here with ``Unverified``."""
        raise Unverified("an oracle shift has no presentation")


def build_sft(alphabet, forbidden):
    """Builds a shift of finite type with its higher-block presentation.

    States are the admissible words of length ``m - 1`` where ``m`` is
    the maximum forbidden length; the edge ``u -a-> v`` exists when
    ``u + a`` is admissible and ends with ``v``.  The presentation is
    deterministic and trimmed.

    Raises
    ------
    EmptyShift
        If no bi-infinite sequence avoids the forbidden words.
    """
    forbidden = frozenset(alphabet.check_word(w) for w in forbidden)
    for w in forbidden:
        if len(w) == 0:
            raise ValueError("forbidden words must have length >= 1")
    m = max((len(w) for w in forbidden), default=1)

    def extensions(words):
        # The one-symbol extensions of admissible words that have no
        # forbidden suffix; every other factor lies in the word extended.
        blocks = [w + (a,) for w in words for a in alphabet]
        return [b for b in blocks if all(b[i:] not in forbidden for i in range(len(b)))]

    states = [()]
    for _ in range(m - 1):
        states = extensions(states)
    edges = [(block[:-1], block[-1], block[1:]) for block in extensions(states)]
    p = trim(Presentation.build(states, edges))
    if not p.states:
        raise EmptyShift("all bi-infinite sequences contain a forbidden word")
    return PresentedShift(alphabet, p, forbidden)


def full_shift(alphabet):
    """The full shift over ``alphabet`` (no constraints)."""
    return build_sft(alphabet, set())


def build_sofic(alphabet, presentation):
    """Wraps a labeled graph as a sofic shift, trimming it first."""
    p = trim(presentation)
    if not p.states:
        raise EmptyShift("presentation has no bi-infinite path")
    for (_, a, _) in p.edges:
        if a not in alphabet:
            raise ValueError(f"edge label {a!r} not in alphabet")
    return PresentedShift(alphabet, p)


def contains_word(s, w):
    """True iff ``w`` occurs in some point of the shift.

    A presented shift runs its trimmed presentation, whose paths all
    extend to bi-infinite ones.  An oracle shift asks its predicate,
    which decides words of every length.
    """
    w = s.alphabet.check_word(w)
    if isinstance(s, OracleShift):
        return bool(s.admits(w))
    return s.presentation.accepts(w)


def enumerate_words(s, max_len):
    """All admissible words of length <= ``max_len``, in canonical order.

    Canonical order is by length, then lexicographically in alphabet
    order.  A presented shift reads them off its presentation's word
    search; an oracle shift is asked word by word.
    """
    if not isinstance(s, OracleShift):
        g = s.presentation
        return [w for (w, _) in g.words(g.full_mask, s.alphabet.symbols, max_len)]
    out, frontier = [()], [()]
    for _ in range(max_len):
        frontier = [w + (a,) for w in frontier for a in s.alphabet
                    if contains_word(s, w + (a,))]
        out += frontier
    return out


@cache
def fischer_cover(s):
    """The minimal deterministic irreducible presentation of ``s``.

    Available for irreducible presented shifts; unique up to state
    renaming, and used as the decision automaton for synchronizing
    words.

    Raises
    ------
    NotIrreducible
        If the shift fails the irreducibility check.
    Unverified
        For an oracle shift, which has no presentation.
    """
    return minimal_cover(s.presentation)


def shift_flags(s):
    """Structural flags of the shift, computed on its Fischer cover.

    Falls back to the raw presentation's flags when the cover does not
    exist (reducible shift).
    """
    if isinstance(s, OracleShift):
        return {"irreducible": None, "mixing": None, "period": None}
    try:
        p = fischer_cover(s)
    except NotIrreducible:
        p = s.presentation
    return {"irreducible": p.irreducible, "mixing": p.mixing, "period": p.period}


def product(s1, s2):
    """The product shift, presented over paired states and paired labels.

    Points are coordinate-wise pairs of points; the paired symbol
    ``a|b`` reads ``a`` in the first factor and ``b`` in the second.
    Raises ``Unverified`` when a factor is an oracle shift.
    """
    label = {(a, b): f"{a}|{b}" for a in s1.alphabet for b in s2.alphabet}
    p1, p2 = s1.presentation, s2.presentation
    states = [(q1, q2) for q1 in p1.states for q2 in p2.states]
    edges = [((u1, u2), label[a, b], (v1, v2))
             for (u1, a, v1) in p1.edges for (u2, b, v2) in p2.edges]
    return build_sofic(Alphabet(tuple(label.values())), Presentation.build(states, edges))
