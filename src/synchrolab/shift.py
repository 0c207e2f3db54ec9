"""Shift spaces: presented shifts, and the questions every shift answers.

A shift is one of two variants, and each answers the questions that
depend on it through its own methods (``Shift``), so no caller tests
its class:

* ``PresentedShift`` -- the bi-infinite label sequences of a finite
  labeled graph, answered on the graph and its Fischer cover; its
  ``memory``, and so whether it is an SFT, is decided from its
  follower-merged subset automaton, not from how the shift was given.
* ``OracleShift`` -- the two builtin marker shifts with no finite
  presentation; all of their logic lives in ``synchrolab.oracles``.

Words are tuples of symbols; symbols are non-empty strings.
"""

from dataclasses import dataclass
from functools import cache, cached_property

from synchrolab.errors import EmptyShift, InvariantViolation, NotInLanguage, NotIrreducible
from synchrolab.points import BiSeq
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
    """Base class of ``PresentedShift`` and ``OracleShift``.

    ``kind`` names the variant as a spec's ``type:`` line does:
    ``sft``, ``sofic`` or ``oracle:<name>``, and names an unnamed shift.
    ``memory`` is None unless the shift is decided to be an SFT.  Each
    variant answers ``admits(w)``, ``words(max_len)`` (the admissible
    words of length <= ``max_len``, by length and then in alphabet
    order), ``contains_point(x)``, ``sync_window(x)`` (the least
    synchronizing central window ``(x[-n..n], n)`` of a point, or None),
    ``density_entry(w, want_sync)`` and ``flags()`` (irreducible, mixing
    and period, each None where undecided); the module functions
    (``point_in_shift``, ``classify_point``, ...) ask them.
    """

    alphabet: Alphabet
    memory = None

    @property
    def name(self):
        return getattr(self, "_name", self.kind)

    def with_name(self, name):
        object.__setattr__(self, "_name", name)
        return self

    def check_periodic(self):
        """Raises ``Unverified`` unless the shift decides its periodic points."""


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
        g = self.presentation
        classes, edges = _moore_quotient(g, _subset_search(g, 1))
        cover = Presentation.build(range(len(classes)), edges)
        queue, arcs, keep = _subset_search(cover, 2)
        if keep:
            return None
        memory, layer = 1, {0} if queue else set()
        while layer:
            memory, layer = memory + 1, {j for (i, _, j) in arcs if i in layer}
        return memory

    def admits(self, w):
        """True iff some path of the trimmed presentation reads ``w``."""
        g = self.presentation
        return g.run(g.full_mask, w) != 0

    def words(self, max_len):
        g = self.presentation
        return [w for (w, _) in g.words(g.full_mask, self.alphabet.symbols, max_len)]

    def contains_point(self, x):
        """x is a point iff, at the cut ``x.right_start``, the past set
        (states ending a left-infinite path reading x below the cut) meets
        the future set (states starting a right-infinite path reading x
        from the cut on), for an SFT on its higher-block presentation."""
        g = self.presentation
        cut = x.right_start
        return bool(g.past_set(x, cut) & g.future_set(x, cut))

    def sync_window(self, x):
        """The past set of x at the core boundary stabilizes into a
        periodic subset orbit of the Fischer cover while reading the
        right tail; x synchronizes iff the orbit reaches a singleton.
        The orbit is read until a singleton or a repeated (set, cycle
        phase) pair, so no bound enters the answer."""
        cover = fischer_cover(self)
        pos = x.right_start
        current = cover.past_set(x, pos)
        period = len(x.right)
        seen = {(current, 0)}
        while current.bit_count() > 1:
            current = cover.run(current, (x.at(pos),))
            pos += 1
            key = (current, (pos - x.right_start) % period)
            if key in seen:
                return None
            seen.add(key)
        # The past-set fixpoint takes at most |states| left-cycle reads, so
        # the singleton is certified within [origin - |states|*|left|, pos);
        # report the smallest synchronizing central word.
        left_reach = abs(x.origin - len(cover.states) * len(x.left))
        for n in range(max(abs(pos), left_reach) + 1):
            word = x.window(-n, n + 1)
            if cover.run(cover.full_mask, word).bit_count() == 1:
                return word, n
        raise InvariantViolation("synchronizing limit set without central witness")

    def density_entry(self, w, want_sync):
        """The cycle of the Fischer cover ``close_orbit_through`` closes
        through w, or through w·u for the shortest u with w·u synchronizing
        when ``want_sync``: it is a periodic point of the shift reading w
        at 0.  u exists (L&M §3.3): the cover is irreducible with a
        synchronizing word v, so w·t·v synchronizes for a path t from an
        end of w's run to v."""
        cover = fischer_cover(self)
        if not want_sync:
            return {"word": w, "point": str(close_orbit_through(cover, w)), "status": "yes"}
        u = _shortest_word(cover, cover.run(cover.full_mask, w), lambda m: m.bit_count() == 1)
        return {"word": w, "point": str(close_orbit_through(cover, w + u)),
                "status": "yes", "witness": w + u}

    def flags(self):
        """Read on the Fischer cover, or on the presentation itself when
        the shift is reducible and has no cover."""
        try:
            p = fischer_cover(self)
        except NotIrreducible:
            p = self.presentation
        return {"irreducible": p.irreducible, "mixing": p.mixing, "period": p.period}


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
    """True iff ``w`` occurs in some point of the shift: a presented shift
    runs its trimmed presentation, whose paths all extend to bi-infinite
    ones; an oracle shift asks its predicate."""
    return s.admits(s.alphabet.check_word(w))


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


def close_orbit_through(cover, word):
    """A periodic point whose orbit reads ``word`` starting at 0.

    Closes the run of ``word`` from the first state i that has one back
    to i by the shortest return word (non-empty for the empty word).
    Every caller passes a Fischer cover, which is irreducible, so that
    word exists.  Raises ``NotInLanguage`` when no state has a run.
    """
    for i in range(len(cover.states)):
        ends = cover.run(1 << i, word)
        if ends:
            path = _shortest_word(cover, ends, lambda m: m >> i & 1, empty=bool(word))
            return BiSeq.periodic(word + path, 0)
    raise NotInLanguage(f"no run of {word!r}")


def _shortest_word(cover, mask, done, empty=True):
    """The first word ``u``, by length and then in alphabet order, whose
    non-empty run from ``mask`` passes ``done`` (``()`` too if ``empty``),
    or None; a BFS over the masks reached, each expanded once, the start
    too: ``done`` is tested before ``seen``, so a return to it is found."""
    if empty and done(mask):
        return ()
    queue = [(mask, ())]
    seen = {mask}
    for (current, u) in queue:
        for a in cover.alphabet:
            nxt = cover.step(current, a)
            if nxt and done(nxt):
                return u + (a,)
            if nxt and nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, u + (a,)))
    return None


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
