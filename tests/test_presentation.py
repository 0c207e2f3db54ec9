"""Graph-level machinery: trimming, flags, determinization, covers."""

import random
from itertools import permutations
from itertools import product as iproduct

import pytest

from synchrolab.errors import EmptyShift, NotIrreducible
from synchrolab.points import BiSeq, point_in_shift
from synchrolab.presentation import (Presentation, determinize, minimal_cover,
                                     subset_automaton, trim)
from synchrolab.shift import (Alphabet, build_sft, build_sofic, contains_word,
                              fischer_cover, full_shift, product, word)
from synchrolab.sync import nonsync_subshift

from membership_reference import (distinguishing_word, reference_follower_partition,
                                  reference_graph_structure, reference_minimal_cover,
                                  reference_subset_automaton, reference_tail_states,
                                  reference_trim, same_language, window_admissible)

BINARY = Alphabet(("0", "1"))


def graph_isomorphic(p1, p2):
    """Label-respecting graph isomorphism by brute force over small graphs."""
    if len(p1.states) != len(p2.states) or len(p1.edges) != len(p2.edges):
        return False
    for perm in permutations(p2.states):
        mapping = dict(zip(p1.states, perm))
        mapped = {(mapping[p], a, mapping[q]) for (p, a, q) in p1.edges}
        if mapped == set(p2.edges):
            return True
    return False


def brute_language(p, max_len):
    """Independent language oracle: BFS over explicit paths."""
    frontier = {(q, ()) for q in p.states}
    words = {w for (_, w) in frontier}
    for _ in range(max_len):
        nxt = set()
        for (q, w) in frontier:
            for (_, a, r) in p.out_edges[q]:
                nxt.add((r, w + (a,)))
        frontier = nxt
        words.update(w for (_, w) in frontier)
    return words


def test_build_sft_golden_mean_matches_two_state_graph(golden_mean):
    p = golden_mean.presentation
    assert len(p.states) == 2
    v, w_ = ("0",), ("1",)
    assert set(p.edges) == {(v, "0", v), (v, "1", w_), (w_, "0", v)}


def test_build_sft_full_shift_single_state(full_two):
    p = full_two.presentation
    assert len(p.states) == 1
    assert len(p.edges) == 2


def test_build_sft_all_length_two_words_forbidden_is_empty():
    with pytest.raises(EmptyShift):
        build_sft(BINARY, {word("00"), word("01"), word("10"), word("11")})


@pytest.mark.parametrize("forbidden", [{"11", "101"}, {"000", "11"}, {"0"}, set()])
def test_build_sft_matches_window_scan(forbidden):
    s = build_sft(BINARY, {word(f) for f in forbidden})
    m = max(map(len, forbidden), default=1)
    states = [u for u in iproduct("01", repeat=m - 1) if window_admissible(s, u)]
    edges = [(u, a, (u + (a,))[1:]) for u in states for a in "01"
             if window_admissible(s, u + (a,))]
    assert s.presentation == reference_trim(Presentation.build(states, edges))


@pytest.mark.parametrize("symbols, message", [
    ((), "non-empty"), (("0", "0"), "duplicate"), (("0", 1), "bad symbol"), (("0", ""), "bad symbol"),
])
def test_alphabet_rejects_bad_symbols(symbols, message):
    with pytest.raises(ValueError, match=message):
        Alphabet(symbols)


def test_check_word_keeps_alphabet_symbols():
    assert BINARY.check_word(["0", "1"]) == ("0", "1")
    with pytest.raises(ValueError, match="not in alphabet"):
        BINARY.check_word(("0", "2"))


def test_build_sft_rejects_an_empty_forbidden_word():
    with pytest.raises(ValueError, match="length >= 1"):
        build_sft(BINARY, {word("11"), word("")})


def test_trim_removes_one_sided_dead_ends():
    p = Presentation.build(
        ["a", "b", "c"],
        [("a", "0", "a"), ("a", "1", "b"), ("b", "1", "c")])
    trimmed = trim(p)
    assert trimmed.states == ("a",)


def test_shift_flags_golden_and_even(golden_mean, even_shift):
    for s in (golden_mean, even_shift):
        assert s.flags() == {"irreducible": True, "mixing": True, "period": 1}


def test_flags_pure_two_cycle():
    p = Presentation.build(["a", "b"], [("a", "x", "b"), ("b", "y", "a")])
    assert (p.irreducible, p.mixing, p.period) == (True, False, 2)


def test_period_divides_every_cycle_length(even_shift, golden_mean, period_two):
    for s in (even_shift, golden_mean, period_two):
        p = fischer_cover(s)
        period = p.period
        # closed walks of length n exist only when period | n
        reach = {q: {q} for q in p.states}
        for n in range(1, 9):
            reach = {q: {r for u in reach[q] for (_, _, r) in p.out_edges[u]}
                     for q in p.states}
            if any(q in reach[q] for q in p.states):
                assert n % period == 0


def test_determinize_identity_on_deterministic(even_shift):
    p = even_shift.presentation
    d = determinize(p)
    assert d.deterministic
    assert same_language(p, d)


def test_determinize_preserves_language_on_nondeterministic():
    # two states both carrying out-label 0 to different targets
    p = Presentation.build(
        ["a", "b"],
        [("a", "0", "a"), ("a", "0", "b"), ("b", "1", "a")])
    d = determinize(p)
    assert d.deterministic
    lang_p = brute_language(p, 8)
    lang_d = brute_language(d, 8)
    assert lang_p == lang_d


def test_determinize_full_shift_one_state(full_two):
    d = determinize(full_two.presentation)
    assert len(d.states) == 1


def test_fischer_cover_even_shift_two_states(even_shift):
    cover = fischer_cover(even_shift)
    assert len(cover.states) == 2
    # A-1->A, A-0->B, B-0->A up to renaming
    expected = Presentation.build(
        ["A", "B"], [("A", "1", "A"), ("A", "0", "B"), ("B", "0", "A")])
    assert graph_isomorphic(cover, expected)


def test_fischer_cover_golden_mean_two_states(golden_mean):
    assert len(fischer_cover(golden_mean).states) == 2


def test_fischer_cover_idempotent(even_shift, golden_mean):
    for s in (even_shift, golden_mean):
        cover = fischer_cover(s)
        again = minimal_cover(cover)
        assert graph_isomorphic(cover, again)


def test_fischer_cover_requires_irreducible():
    # two disjoint loops: reducible as a shift
    p = Presentation.build(
        ["a", "b"], [("a", "0", "a"), ("b", "1", "b")])
    with pytest.raises(NotIrreducible, match="2 terminal components"):
        minimal_cover(p)


def test_minimal_cover_rejects_a_core_with_a_proper_sublanguage():
    # one terminal component, {b}, which reads 1* but not the word "0"
    p = Presentation.build(["a", "b"], [("a", "0", "a"), ("a", "1", "b"), ("b", "1", "b")])
    with pytest.raises(NotIrreducible, match="proper sublanguage"):
        minimal_cover(p)


def test_minimal_cover_ignores_words_read_only_into_dead_ends(golden_mean):
    # the word "2" is read only into a dead end, so no point carries it:
    # the cover is checked against the essential part, not against p
    p = golden_mean.presentation
    dead_end = Presentation.build(list(p.states) + ["dead"],
                                  list(p.edges) + [(p.states[0], "2", "dead")])
    assert not same_language(dead_end, trim(dead_end))
    assert minimal_cover(dead_end) == minimal_cover(p)


@pytest.mark.parametrize("states, edges", [
    # "c" is read only into a dead end
    (["q0", "q1", "q2", "q3", "dead"],
     [("q0", "b", "q1"), ("q1", "b", "q2"), ("q1", "c", "dead"), ("q2", "a", "q0"),
      ("q2", "b", "q1"), ("q3", "a", "q0"), ("q3", "a", "q1")]),
    # q3 has no in-edge, so "aaa" is read by p but by no point
    (["q0", "q1", "q2", "q3"],
     [("q0", "b", "q2"), ("q1", "a", "q0"), ("q1", "b", "q1"), ("q2", "a", "q1"),
      ("q3", "a", "q2")]),
], ids=["dead-end", "source"])
def test_language_check_of_an_untrimmed_graph_reads_its_essential_part(states, edges):
    # a check that read p's own subset search would see words no point
    # carries and call the core a proper sublanguage
    p = Presentation.build(states, edges)
    assert not same_language(p, trim(p))
    cover = minimal_cover(p)
    assert cover.states == ("s0", "s1", "s2")
    assert set(cover.edges) == (
        {("s0", "b", "s1"), ("s1", "b", "s2"), ("s2", "a", "s0"), ("s2", "b", "s1")}
        if "dead" in states else
        {("s0", "b", "s2"), ("s1", "a", "s0"), ("s1", "b", "s1"), ("s2", "a", "s1")})


def test_minimal_cover_matches_reference_on_seeded_graphs():
    # 600 graphs of 1-6 states on a/b; every other one gets a dead end
    # reached on a, b or c, and many have states with no in-edge
    rng = random.Random(0)
    for trial in range(600):
        n = rng.randint(1, 6)
        states = list(range(n))
        edges = [(rng.randrange(n), rng.choice("ab"), rng.randrange(n))
                 for _ in range(rng.randint(n, 3 * n))]
        if trial % 2:
            states.append("dead")
            edges.append((rng.randrange(n), rng.choice("abc"), "dead"))
        p = Presentation.build(states, edges)
        expected = reference_minimal_cover(p)
        if expected is None:
            with pytest.raises(NotIrreducible):
                minimal_cover(p)
        else:
            assert minimal_cover(p) == expected, p


def _quotient_size(p):
    # the classes of the follower-merged trimmed subset automaton, of which
    # the cover keeps the terminal component
    return len(reference_follower_partition(reference_subset_automaton(p, 1)))


def _cerny_graph(n, reverse):
    # a: i -> i+1 mod n, b: 0 -> 1 and i -> i for 1 <= i <= n-2; with
    # ``reverse``, every edge reversed
    edges = [(i, "a", (i + 1) % n) for i in range(n)] + [(0, "b", 1)]
    edges += [(i, "b", i) for i in range(1, n - 1)]
    return Presentation.build(range(n), [(j, a, i) for (i, a, j) in edges] if reverse
                              else edges)


@pytest.mark.parametrize("n", range(4, 9))
def test_minimal_cover_of_a_reversed_cerny_graph_matches_reference(n):
    # the Černý-like graph with every edge reversed: irreducible, not
    # deterministic, and its quotient has one class outside the cover, so
    # the cover is built with the language check skipped
    p = _cerny_graph(n, True)
    assert p.irreducible and not p.deterministic
    expected = reference_minimal_cover(p)
    assert len(expected.states) < _quotient_size(p)
    assert minimal_cover(p) == expected


def test_minimal_cover_of_seeded_irreducible_graphs_matches_reference():
    # 600 graphs of 2-6 states on a/b; the irreducible ones skip the
    # language check, and some of them have a core smaller than the
    # quotient
    rng = random.Random(3)
    smaller = 0
    for _ in range(600):
        n = rng.randint(2, 6)
        edges = [(rng.randrange(n), rng.choice("ab"), rng.randrange(n))
                 for _ in range(rng.randint(n, 3 * n))]
        p = Presentation.build(range(n), edges)
        if not p.irreducible:
            continue
        expected = reference_minimal_cover(p)
        assert minimal_cover(p) == expected, p
        smaller += len(expected.states) < _quotient_size(p)
    assert smaller >= 10


def _assert_cover_carries_its_block(s):
    # the cover's one block, recorded when it is built, is the one a fresh
    # Tarjan pass finds, and the flags read off it match bounded walks
    cover = fischer_cover(s)
    assert "sccs" in vars(cover)
    assert cover.sccs == Presentation(cover.states, cover.edges).sccs == (cover.full_mask,)
    irreducible, _, period, _ = reference_graph_structure(cover)
    assert s.flags() == {"irreducible": irreducible, "mixing": irreducible and period == 1,
                         "period": period}, s


def test_fischer_covers_carry_their_one_block():
    # seeded irreducible graphs, some of period 2 or more, with int-named
    # states; products, with tuple-named states; and the Černý families.
    # Each cover, ranked by the reprs of its class names, is the reference
    # cover.
    rng = random.Random(5)
    shifts, periods = [], set()
    while len(shifts) < 120:
        n = rng.randint(2, 6)
        edges = [(rng.randrange(n), rng.choice("ab"), rng.randrange(n))
                 for _ in range(rng.randint(n, 2 * n))]
        p = Presentation.build(range(n), edges)
        if p.irreducible:
            shifts.append(build_sofic(Alphabet(("a", "b")), p))
            periods.add(p.period)
    assert {1, 2} <= periods
    shifts += [product(s1, s2) for s1, s2 in zip(shifts[:40], shifts[40:80])
               if s1.presentation.period == s2.presentation.period == 1]
    shifts += [build_sofic(Alphabet(("a", "b")), _cerny_graph(n, reverse))
               for n in range(3, 9) for reverse in (False, True) if n < 7 or not reverse]
    names = set()
    for s in shifts:
        _assert_cover_carries_its_block(s)
        assert fischer_cover(s) == reference_minimal_cover(s.presentation), s
        names.add(type(s.presentation.states[0]))
    assert names == {int, tuple}


def test_minimal_cover_of_a_graph_with_no_cycle_has_no_terminal_component():
    # the subset search peels every index, so the quotient is empty
    with pytest.raises(NotIrreducible, match="0 terminal components"):
        minimal_cover(Presentation.build([0, 1], [(0, "a", 1)]))


def test_build_rejects_an_edge_with_an_undeclared_state():
    with pytest.raises(ValueError, match="undeclared state"):
        Presentation.build([0], [(0, "a", 1)])


def test_irreducible_cover_has_all_pairs_reachable(even_shift):
    p = fischer_cover(even_shift)
    for u in p.states:
        reached = {u}
        frontier = [u]
        while frontier:
            q = frontier.pop()
            for (_, _, r) in p.out_edges[q]:
                if r not in reached:
                    reached.add(r)
                    frontier.append(r)
        assert reached == set(p.states)


def test_contains_word_examples(golden_mean, even_shift):
    assert not contains_word(golden_mean, word("0110"))
    assert contains_word(even_shift, word("1001"))
    assert not contains_word(even_shift, word("101"))
    assert contains_word(golden_mean, ())
    assert contains_word(even_shift, ())


def test_sft_membership_agrees_with_presentation_route(golden_mean):
    # both routes: forbidden-factor scan vs cover run
    cover = fischer_cover(golden_mean)
    for w in full_shift(BINARY).words(8):
        by_scan = window_admissible(golden_mean, w)
        by_cover = bool(cover.run(cover.full_mask, w))
        assert by_scan == by_cover


def test_sft_words_occur_in_points_despite_dead_ends():
    # "1" may follow nothing, so no point contains a 1 although the
    # words 1, 01, 001 have no forbidden factor
    s = build_sft(BINARY, {word("11"), word("10")})
    assert s.words(3) == [(), word("0"), word("00"), word("000")]
    for w in (word("1"), word("01"), word("001")):
        assert window_admissible(s, w)
        assert not contains_word(s, w)
        assert point_in_shift(s, BiSeq(("0",), w, ("0",), 0)) == "no"


def test_oracle_decides_long_words(ray_oracle):
    # 200-symbol words: from the a's height 1, b^100 c^99 ends at height 2
    # and b^99 c^100 falls to 0
    assert contains_word(ray_oracle, word("a" + "b" * 100 + "c" * 99))
    assert not contains_word(ray_oracle, word("a" + "b" * 99 + "c" * 100))


def test_product_full_shifts(full_two):
    p = product(full_two, full_two)
    assert len(p.alphabet) == 4
    assert len(fischer_cover(p).states) == 1


def test_product_flags(even_shift, golden_mean, period_two):
    assert product(even_shift, golden_mean).flags()["mixing"] is True
    mixed = product(even_shift, period_two).flags()
    assert mixed["mixing"] is False


def test_product_language_is_pairwise_zip(even_shift, golden_mean, even_times_golden):
    for w in even_times_golden.words(4):
        left = tuple(sym.split("|")[0] for sym in w)
        right = tuple(sym.split("|")[1] for sym in w)
        assert contains_word(even_shift, left)
        assert contains_word(golden_mean, right)
    # converse spot checks
    from itertools import product as iproduct
    for lw in even_shift.words(3):
        for rw in golden_mean.words(3):
            if len(lw) != len(rw):
                continue
            zipped = tuple(f"{a}|{b}" for a, b in zip(lw, rw))
            assert contains_word(even_times_golden, zipped)


# -- subset automata against a frozenset reference ---------------------------

def _random_presentations(count=30, seed=0):
    """Seeded labeled graphs with at most 4 states and 3 symbols."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        states = [f"q{i}" for i in range(rng.randint(1, 4))]
        symbols = "abc"[:rng.randint(1, 3)]
        edges = {(rng.choice(states), rng.choice(symbols), rng.choice(states))
                 for _ in range(rng.randint(1, 3 * len(states)))}
        out.append(Presentation.build(states, edges))
    return out


@pytest.fixture(scope="module")
def named_shifts(golden_mean, even_shift, even_times_golden):
    """Golden, even, 3-gap, even x golden, the dead-end SFT and a reducible
    3-component sofic shift."""
    return [golden_mean, even_shift,
            build_sofic(BINARY, Presentation.build(
                ["A", "B", "C"],
                [("A", "1", "A"), ("A", "0", "B"), ("B", "0", "C"), ("C", "0", "A")])),
            even_times_golden,
            build_sft(BINARY, {word("11"), word("10")}),
            build_sofic(BINARY, Presentation.build(
                ["A", "B", "C"],
                [("A", "0", "A"), ("A", "1", "B"), ("B", "1", "B"), ("B", "0", "C"),
                 ("C", "0", "C")]))]


@pytest.fixture(scope="module")
def reference_graphs(named_shifts):
    # the component {a, c} straddles {b}, so ordering the component masks
    # as integers would put {b} first
    straddle = Presentation.build(
        ["a", "b", "c"], [("a", "0", "c"), ("c", "1", "a"), ("a", "1", "b"), ("b", "0", "b")])
    return [s.presentation for s in named_shifts] + [straddle] + _random_presentations()


@pytest.fixture(scope="module")
def reference_shifts(named_shifts):
    shifts = list(named_shifts)
    for p in _random_presentations():
        try:
            shifts.append(build_sofic(Alphabet(p.alphabet), p))
        except EmptyShift:
            continue
    return shifts


def test_subset_automata_match_frozenset_reference(reference_graphs):
    for p in reference_graphs:
        assert determinize(p) == reference_subset_automaton(p, 1), p
        for least in (2, 3):
            assert subset_automaton(p, least) == reference_subset_automaton(p, least), p


def test_nonsync_subshift_matches_frozenset_reference(reference_shifts):
    checked = 0
    for s in reference_shifts:
        try:
            cover = fischer_cover(s)
        except NotIrreducible:
            continue
        expected = reference_subset_automaton(cover, 2, key=str)
        assert nonsync_subshift(s).presentation == expected, s
        checked += 1
    assert checked >= 15


def terminal_components(p):
    """The subgraphs of ``p`` on its SCCs that no edge leaves, read from
    ``p.sccs`` and ``p.edges``."""
    out = []
    for component in p.sccs:
        members = set(p.names(component))
        if all(r in members for (q, _, r) in p.edges if q in members):
            out.append(Presentation.build(
                members, [e for e in p.edges if e[0] in members and e[2] in members]))
    return out


def test_same_language_decides_against_brute_force(reference_graphs):
    pairs = list(zip(reference_graphs, reference_graphs[1:]))
    for p in reference_graphs:
        d = determinize(p)
        pairs += [(p, d), (p, trim(p))]
        pairs += [(d, component) for component in terminal_components(d)]
    verdicts = set()
    for (p1, p2) in pairs:
        w = distinguishing_word(p1, p2)
        assert same_language(p1, p2) == (w is None), (p1, p2)
        if w is None:
            assert brute_language(p1, 6) == brute_language(p2, 6)
        else:
            assert (w in brute_language(p1, len(w))) != (w in brute_language(p2, len(w)))
        verdicts.add(w is None)
    assert verdicts == {True, False}


def test_tail_fixpoint_matches_cycle_graph_reference(reference_graphs):
    for p in reference_graphs:
        for n in (1, 2, 3):
            for w in iproduct(p.alphabet, repeat=n):
                for backward in (False, True):
                    got = set(p.names(p.tail_fixpoint(w, backward)))
                    assert got == reference_tail_states(p, w, backward), (p, w, backward)


def test_graph_structure_matches_reference(reference_graphs):
    verdicts = set()
    for p in reference_graphs:
        irreducible, terminal, period, components = reference_graph_structure(p)
        assert (p.irreducible, p.period) == (irreducible, period), p
        sccs = [p.names(component) for component in p.sccs]
        assert len(sccs) == len(components) and {frozenset(c) for c in sccs} == components, p
        least = [p.states.index(c[0]) for c in sccs]
        assert least == sorted(least), p
        assert trim(p).states == reference_trim(p).states, p
        components = terminal_components(p)
        assert (components[0] if len(components) == 1 else None) == terminal, p
        verdicts.add((irreducible, terminal is None, period > 1))
    assert len(verdicts) >= 4
