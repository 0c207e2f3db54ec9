"""The decided step of a presented shift, against brute force.

``PresentedShift.memory`` is read from the 2-subset search of the
follower-merged subset automaton, whatever the spec's ``type:`` line
says.  On an irreducible shift that automaton has the Fischer cover's
non-synchronizing words, so the two give one memory.  It is checked
here on seeded random presentations with at most 4 states and 2 symbols:
against the language itself, read on frozensets by
``membership_reference``; against the least word length at which every
run of the reference Fischer cover ends in at most one state; on
reducible shifts, which have no Fischer cover, against the least length
from which short words glue; and, on irreducible shifts, against the
paper's Smale-space criterion (a sofic shift is an SFT iff it has no
non-synchronizing point).  Named cases pin the memories and germ rules
that the decision changes.
"""

import random
from collections import Counter

import pytest

from membership_reference import (reference_enumerate_words, reference_minimal_cover,
                                  reference_words)
from synchrolab.conjugacy import BlockRule, LiftedRule, construct_germ, ruelle_germ
from synchrolab.errors import EmptyShift, NotIrreducible, NotSFT
from synchrolab.factor import CoverMap
from synchrolab.points import BiSeq
from synchrolab.presentation import Presentation
from synchrolab.shift import Alphabet, build_sft, build_sofic, fischer_cover, word
from synchrolab.specfile import load_spec, parse_spec_text
from synchrolab.sync import nonsync_subshift

BINARY = Alphabet(("0", "1"))
ZEROS = BiSeq.constant("0")
ONE = BiSeq(("0",), ("1",), ("0",), 0)
SOFIC_GOLDEN = """\
alphabet: 0 1
type: sofic
state: A
state: B
edge: A 0 A
edge: A 1 B
edge: B 0 A
"""


def _random_shifts(count=150, seed=3):
    """Shifts of seeded graphs with at most 4 states and 2 symbols."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        states = [f"q{i}" for i in range(rng.randint(1, 4))]
        edges = {(rng.choice(states), rng.choice("ab"), rng.choice(states))
                 for _ in range(rng.randint(1, 3 * len(states)))}
        try:
            out.append(build_sofic(Alphabet(("a", "b")), Presentation.build(states, edges)))
        except EmptyShift:
            continue
    return out


SHIFTS = _random_shifts()


def _irreducible(s):
    try:
        fischer_cover(s)
    except NotIrreducible:
        return False
    return True


def _reference_memory(s, depth=8):
    """1 + the least n <= ``depth`` at which every word of length n runs
    the reference Fischer cover to at most one state, or None."""
    cover = reference_minimal_cover(s.presentation)
    runs = reference_words(cover, frozenset(cover.states), s.alphabet.symbols, depth, False)
    for n in range(depth + 1):
        if all(len(reached) <= 1 for (w, reached) in runs if len(w) == n):
            return n + 1
    return None


def test_random_shifts_reach_every_verdict():
    seen = {(_irreducible(s), s.memory) for s in SHIFTS}
    assert {(True, 1), (True, 2), (True, 3), (True, None), (False, 2), (False, None)} <= seen


def test_decided_memory_glues_short_words():
    # uv, vw in L with |v| = m - 1 imply uvw in L, for |u|, |w| <= 3
    for s in SHIFTS:
        m = s.memory
        if m is None:
            continue
        language = set(reference_enumerate_words(s, m + 5))
        short = [w for w in language if len(w) <= 3]
        for v in (w for w in language if len(w) == m - 1):
            for u in (u for u in short if u + v in language):
                for w in (w for w in short if v + w in language):
                    assert u + v + w in language, (s.presentation, u, v, w)


def _glued_memory(s, depth=6, reach=3):
    """The least m <= ``depth`` such that, for every m' from m to
    ``depth``, uv, vw in L with |v| = m' - 1 and |u|, |w| <= ``reach``
    imply uvw in L; or None."""
    language = set(reference_enumerate_words(s, depth - 1 + 2 * reach))
    short = [w for w in language if len(w) <= reach]
    glued = []
    for m in range(1, depth + 1):
        glued.append(all(u + v + w in language
                         for v in language if len(v) == m - 1
                         for u in short if u + v in language
                         for w in short if v + w in language))
    return next((m for m in range(1, depth + 1) if all(glued[m - 1:])), None)


def test_reducible_memory_is_the_least_glued_length():
    # a reducible shift has no Fischer cover: its memory reads the
    # follower-merged subset automaton
    rng = random.Random(11)
    seen = Counter()
    while sum(seen.values()) < 80:
        states = [f"q{i}" for i in range(rng.randint(2, 4))]
        edges = {(rng.choice(states), rng.choice("ab"), rng.choice(states))
                 for _ in range(rng.randint(2, 3 * len(states)))}
        try:
            s = build_sofic(Alphabet(("a", "b")), Presentation.build(states, edges))
        except EmptyShift:
            continue
        if _irreducible(s) or (s.memory or 0) > 6:
            continue
        assert s.memory == _glued_memory(s), s.presentation
        seen[s.memory] += 1
    assert {None, 2, 3, 4} <= set(seen), seen


def test_decided_memory_is_the_least_synchronizing_length():
    checked = 0
    for s in filter(_irreducible, SHIFTS):
        assert s.memory == _reference_memory(s), s.presentation
        checked += 1
    assert checked > 100


def test_not_an_sft_iff_a_point_fails_to_synchronize():
    for s in filter(_irreducible, SHIFTS):
        report = nonsync_subshift(s)
        nonsync = report.finiteness == "infinite" or bool(report.points)
        assert (s.memory is None) == nonsync, s.presentation


@pytest.mark.parametrize("forbidden, memory", [
    (["11"], 2), (["101"], 3), ([], 1),
    (["11", "110"], 2),  # 110 holds 11: the step is 1, not 2
    (["11", "10"], 1),   # only 0^inf is left
])
def test_memory_of_forbidden_lists(forbidden, memory):
    assert build_sft(BINARY, {word(f) for f in forbidden}).memory == memory


def test_memory_of_builtins_and_germ_cover_edge_shifts(golden_mean, even_shift,
                                                        even_times_golden):
    assert {name: load_spec(name).shift.memory
            for name in ("goldenmean", "full2", "period2", "even")} == {
        "goldenmean": 2, "full2": 1, "period2": 2, "even": None}
    gap3 = build_sofic(BINARY, Presentation.build(
        ["A", "B", "C"], [("A", "1", "A"), ("A", "0", "B"), ("B", "0", "C"), ("C", "0", "A")]))
    for s in (golden_mean, even_shift, gap3, even_times_golden):
        assert CoverMap.of_shift(s).source.memory == 2


def test_sofic_presented_sft_takes_block_rewrites(even_shift):
    s = parse_spec_text(SOFIC_GOLDEN).shift
    assert (s.kind, s.memory) == ("sofic", 2)
    germ = construct_germ(s, ZEROS, ONE, "lc")
    # lifted through the cover, this germ had window 8
    assert isinstance(germ.rule, BlockRule) and germ.window == 4
    # the even shift is not an SFT: its germs stay lifted
    two_zeros = BiSeq(("1",), ("0", "0"), ("1",), 0)
    ones = BiSeq.constant("1")
    assert isinstance(construct_germ(even_shift, ones, two_zeros, "lc").rule, LiftedRule)
    with pytest.raises(NotSFT):
        ruelle_germ(even_shift, ones, two_zeros)


def test_reducible_sft_keeps_its_block_rewrite():
    s = build_sft(BINARY, {word("10")})
    assert not s.flags()["irreducible"] and s.memory == 2
    x, y = BiSeq(("0",), (), ("1",), 0), BiSeq(("0",), (), ("1",), 1)
    assert isinstance(construct_germ(s, x, y, "lc").rule, BlockRule)


def test_reducible_sft_from_a_nondeterministic_graph_takes_block_rewrites():
    # the SFT with forbidden words 11, 02 and 12, given by a graph that
    # reads 0 two ways out of A and enters it from a separate loop at D
    s = parse_spec_text("""\
alphabet: 0 1 2
type: sofic
state: A
state: B
state: C
state: D
edge: A 0 A
edge: A 1 B
edge: B 0 A
edge: A 0 C
edge: C 0 A
edge: C 1 B
edge: D 2 D
edge: D 2 A
""").shift
    assert not s.flags()["irreducible"] and s.memory == 2
    assert isinstance(construct_germ(s, ZEROS, ONE, "lc").rule, BlockRule)
