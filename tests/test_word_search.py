"""The mask-pruned word search against brute force over every word.

``Presentation.words`` and the five searches built on it (small points,
cylinder samples, the two tail joins and the bridge connectors) are
compared with the ``itertools.product`` loops of
``membership_reference``, which decide every candidate point on
frozensets.  The shifts are the golden mean, even, 3-gap, even x golden
and dead-end shifts, and seeded random irreducible presentations whose
alphabets are declared in a seeded order, so that the order in which
the searches try words is checked too.  The cylinder samples are also
counted as they are built, one construction per point returned, and
the germ domain samples they feed are compared with the loop that reads
every future's pasts.  The rectangle check, which brackets no pair,
is compared with the loop that brackets every pair on its samples,
where neither finds a failure; on small points that disagree with the
base point or splice outside the shift the loop still finds failures.
"""

import functools
import random
from collections import Counter
from itertools import combinations, product as iproduct

import pytest

from synchrolab import conjugacy, sync
from synchrolab.conjugacy import (KINDS, _join_left_tail, _join_right_tail, construct_germ,
                                  domain_samples, identity_germ, sync_bridge)
from synchrolab.errors import NotConstructive, SearchExhausted, Unverified
from synchrolab.periodic import enumerate_periodic
from synchrolab.points import BiSeq, decide_relation, enumerate_points
from synchrolab.presentation import Presentation
from synchrolab.shift import Alphabet, build_sft, build_sofic, fischer_cover
from synchrolab.sync import (classify_point, cylinder_count, cylinder_representatives,
                             is_sync_word, rectangle_check)

from membership_reference import (reference_bridge_candidates,
                                  reference_cylinder_representatives, reference_domain_samples,
                                  reference_enumerate_points, reference_join_left_tail,
                                  reference_join_right_tail, reference_point_in_shift,
                                  reference_rectangle_failures, reference_words)

BINARY = Alphabet(("0", "1"))


def _gap3():
    return build_sofic(BINARY, Presentation.build(
        ["A", "B", "C"], [("A", "1", "A"), ("A", "0", "B"), ("B", "0", "C"), ("C", "0", "A")]))


def _random_shifts(count=20, seed=7):
    """Seeded irreducible sofic shifts: at most 4 states and 3 symbols, the
    alphabet declared in a seeded order and sometimes with an unused
    symbol."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        states = [f"q{i}" for i in range(rng.randint(1, 4))]
        symbols = list("abc"[:rng.randint(1, 3)])
        edges = {(rng.choice(states), rng.choice(symbols), rng.choice(states))
                 for _ in range(rng.randint(len(states), 3 * len(states)))}
        p = Presentation.build(states, edges)
        if not p.irreducible:
            continue
        declared = list(p.alphabet) + (["d"] if rng.random() < 0.25 else [])
        rng.shuffle(declared)
        out.append(build_sofic(Alphabet(tuple(declared)), p))
    return out


@pytest.fixture(scope="module")
def named(golden_mean, even_shift, even_times_golden):
    return {"golden": golden_mean, "even": even_shift, "gap3": _gap3(),
            "even_x_golden": even_times_golden,
            "dead_end": build_sft(BINARY, {("1", "1"), ("1", "0")})}


@pytest.fixture(scope="module")
def shifts(named):
    return list(named.values()) + _random_shifts()


def _names(g, mask):
    return frozenset(g.names(mask))


def test_words_match_brute_force(shifts):
    rng = random.Random(1)
    cut = 0
    for s in shifts:
        g = s.presentation
        masks = {g.full_mask, 1, rng.randrange(1, g.full_mask + 1)}
        for mask in masks:
            for backward in (False, True):
                got = [(w, _names(g, m))
                       for (w, m) in g.words(mask, s.alphabet.symbols, 3, backward)]
                want = reference_words(g, _names(g, mask), s.alphabet.symbols, 3, backward)
                assert got == want, (s, mask, backward)
                cut += len(got) < sum(len(s.alphabet) ** n for n in range(4))
        assert list(g.words(0, s.alphabet.symbols, 3)) == []
        assert list(g.words(g.full_mask, s.alphabet.symbols, 0)) == [((), g.full_mask)]
    assert cut > 0


def test_words_cut_below_least(shifts):
    # a word is kept iff every prefix (backward: suffix) reaches two states
    kept = 0
    for s in shifts:
        g = s.presentation
        for backward in (False, True):
            reached = dict(reference_words(g, _names(g, g.full_mask), s.alphabet.symbols, 4,
                                           backward))
            want = [(w, m) for (w, m) in reached.items()
                    if all(len(reached.get(w[k:] if backward else w[:len(w) - k], ())) >= 2
                           for k in range(len(w) + 1))]
            got = [(w, _names(g, m)) for (w, m) in g.words(g.full_mask, s.alphabet.symbols, 4,
                                                           backward, least=2)]
            assert got == want, (s, backward)
            kept += len(got)
    assert kept > 0


@functools.cache
def _sample_points(s):
    """The least point of ``s`` and its least point with a core."""
    points = reference_enumerate_points(s, cycle_len=2, core_len=1, origin_radius=1)
    return points[:1] + [x for x in points if x.core][:1]


def test_enumerate_points_match_reference(shifts):
    for s in shifts:
        core_len = 1 if len(s.alphabet) > 3 else 2
        got = enumerate_points(s, core_len=core_len)
        assert got == reference_enumerate_points(s, cycle_len=2, core_len=core_len), s


def test_cylinder_representatives_match_reference(named, shifts):
    checked = 0
    for s in shifts:
        sizes = ((2, 4), (3, 5)) if len(s.alphabet) <= 2 else ((2, 3), (3, 4))
        for x in _sample_points(s):
            for (N, L) in sizes:
                for side in ("u", "s"):
                    got = cylinder_representatives(s, x, N, L, side)
                    assert got == reference_cylinder_representatives(s, x, N, L, 2, side), \
                        (s, x, N, L, side)
                    checked += bool(got)
    assert checked > 100


def test_cylinder_representatives_build_each_point_once(shifts, monkeypatch):
    # only reduced (word, cycle) pairs are built, one per point returned
    built = Counter()

    def counting(*args):
        built["points"] += 1
        return BiSeq(*args)

    monkeypatch.setattr(sync, "BiSeq", counting)
    returned = 0
    for s in shifts:
        sizes = ((2, 4), (3, 5)) if len(s.alphabet) <= 2 else ((2, 3), (3, 4))
        for x in _sample_points(s):
            for (N, L) in sizes:
                for side in ("u", "s"):
                    built.clear()
                    got = cylinder_representatives(s, x, N, L, side)
                    assert built["points"] == len(got), (s, x, N, side)
                    returned += len(got)
    assert returned > 500


def test_cylinder_count_matches_representatives(shifts):
    # the count reads a free word only through its (run mask, boundary
    # symbol) pair, so it equals the number of points the sampler builds
    checked = 0
    for s in shifts:
        for x in enumerate_points(s, core_len=1)[:3]:
            for N in (1, 2, 3):
                for L in range(N + 5):
                    for side in ("u", "s"):
                        got = cylinder_count(s, x, N, L, side)
                        assert got == len(cylinder_representatives(s, x, N, L, side)), \
                            (s, x, N, L, side)
                        checked += got > 1
    assert checked > 1000


def _germs(s, kind, count=4):
    """The identity germ at the least synchronizing point of ``s`` and
    the first ``count`` - 1 germs of ``kind`` between small points."""
    points = [x for x in enumerate_points(s, core_len=2)
              if classify_point(s, x).status == "synchronizing"]
    germs = [identity_germ(s, points[0], kind)]
    for (x, y) in combinations(points, 2):
        if len(germs) == count:
            break
        try:
            germs.append(construct_germ(s, x, y, kind, verify=False))
        except NotConstructive:
            continue
    return germs


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", ["golden", "even", "gap3", "even_x_golden"])
def test_domain_samples_match_reference(named, name, kind):
    s = named[name]
    germs = _germs(s, kind)
    assert len(germs) > 1
    # budget 0 cuts before the first sample (an lc germ falls back on its
    # source), small budgets cut inside a size class, and 50 cuts nothing
    for germ in germs:
        for budget in (0, 1, 2, 3, 4, 6, 50):
            assert domain_samples(germ, budget) == reference_domain_samples(germ, budget), \
                (germ.source, germ.target, budget)


def test_domain_samples_format_only_the_sizes_they_keep(named, monkeypatch):
    # a budget of 1 keeps the least description size of each cylinder it
    # reads; the points of larger sizes are built but never formatted
    germ = _germs(named["even"], "lc")[1]
    futures = cylinder_representatives(germ.shift, germ.source, germ.dom_hi + 1,
                                       germ.dom_hi + 3, "u")
    assert len({p.description_size() for p in futures}) > 1
    calls = Counter()
    post_init, literal = BiSeq.__post_init__, BiSeq.literal

    def counted_post_init(self):
        calls["built"] += 1
        post_init(self)

    def counted_literal(self):
        calls["formatted"] += 1
        return literal(self)

    monkeypatch.setattr(BiSeq, "__post_init__", counted_post_init)
    monkeypatch.setattr(BiSeq, "literal", counted_literal)
    samples = domain_samples(germ, 1)
    monkeypatch.undo()
    assert samples == reference_domain_samples(germ, 1)
    assert 0 < calls["formatted"] < calls["built"], calls


def test_cylinder_counts_read_the_short_cycles_once(monkeypatch):
    # every call reads its frozen side's tail set; the short cycles' tail
    # fixpoints are read on the first call alone
    s, x = _gap3(), BiSeq.constant("1")
    calls = []
    fixpoint = Presentation.tail_fixpoint

    def counted(g, cycle, backward):
        calls.append((cycle, backward))
        return fixpoint(g, cycle, backward)

    monkeypatch.setattr(Presentation, "tail_fixpoint", counted)
    counts = [cylinder_count(s, x, 2, 5, side) for side in ("u", "s")]
    first = len(calls)
    assert first == 2 + sum(len(cycles) for cycles in s.presentation.short_cycles)
    for _ in range(3):
        assert [cylinder_count(s, x, 2, 5, side) for side in ("u", "s")] == counts
    assert len(calls) == first + 6


def test_presentations_stay_equal_after_their_memos_fill():
    # the short cycles, like the kernel, are kept on the instance outside
    # its fields, so fischer_cover's cache keys do not change
    s, t = _gap3(), _gap3()
    g, h = s.presentation, t.presentation
    assert g is not h
    assert cylinder_count(s, BiSeq.constant("1"), 2, 5, "u") > 0
    assert "short_cycles" in vars(g) and "short_cycles" not in vars(h)
    assert g == h and hash(g) == hash(h)
    assert s == t and hash(s) == hash(t)
    fischer_cover(s)
    hits = fischer_cover.cache_info().hits
    fischer_cover(t)
    assert fischer_cover.cache_info().hits == hits + 1


def _periodic_points(s):
    """The least periodic point of ``s`` of each period up to 3, in every
    phase."""
    out = []
    for n in (1, 2, 3):
        cycles = sorted(c for c in iproduct(s.alphabet.symbols, repeat=n)
                        if len(BiSeq.periodic(c).left) == n
                        and reference_point_in_shift(s, BiSeq.periodic(c)) == "yes")
        out += [BiSeq.periodic(cycles[0], k) for k in range(n)] if cycles else []
    return out


def _first_or_none(search, *args):
    try:
        return search(*args)
    except SearchExhausted as exc:
        assert exc.depth == conjugacy._CONNECTOR_DEPTH
        return None


def test_joins_match_reference(shifts, monkeypatch):
    found = exhausted = 0
    for s in shifts:
        for p in _periodic_points(s):
            for tail in _sample_points(s):
                for boundary in (-2, 1):
                    for depth in (0, 2):
                        monkeypatch.setattr(conjugacy, "_CONNECTOR_DEPTH", depth)
                        left = _first_or_none(_join_left_tail, s, p, tail, boundary)
                        assert left == reference_join_left_tail(s, p, tail, boundary, depth), \
                            (s, p, tail, boundary, depth)
                        right = _first_or_none(_join_right_tail, s, tail, boundary, p)
                        assert right == reference_join_right_tail(s, tail, boundary, p, depth), \
                            (s, tail, boundary, p, depth)
                        found += (left is not None) + (right is not None)
                        exhausted += (left is None) + (right is None)
    assert found > 100 and exhausted > 0
    assert any(len(p.left) > 1 for s in shifts for p in _periodic_points(s))


def _reference_bridge(s, x, y, depth):
    n = max(classify_point(s, y).window_used + 1, 2)
    for z in reference_bridge_candidates(s, x, y, n, depth):
        try:
            construct_germ(s, x, z, "lcs")
        except NotConstructive:
            continue
        if classify_point(s, z).status == "synchronizing":
            return z
    return None


def _bridge_cases(s):
    """``(p, x, y)`` with p synchronizing periodic, x in the unstable and
    y in the synchronizing stable class of p, x != y."""
    points = enumerate_points(s, core_len=1)
    cases = []
    for p in [p for p in points if not p.core and p.left == p.right][:2]:
        if classify_point(s, p).status != "synchronizing":
            continue
        xs = [x for x in points if decide_relation(x, p, "unstable")][1:4]
        ys = [y for y in points if decide_relation(y, p, "stable")
              and classify_point(s, y).status == "synchronizing"][1:4]
        cases += [(p, x, y) for x in xs for y in ys if x != y]
    return cases


@pytest.mark.parametrize("name", ["golden", "even", "gap3", "even_x_golden"])
def test_sync_bridge_matches_reference(named, name, monkeypatch):
    s = named[name]
    cases = _bridge_cases(s)
    found = 0
    for (p, x, y) in cases:
        for depth in (0, 1, 6):
            monkeypatch.setattr(conjugacy, "_CONNECTOR_DEPTH", depth)
            want = _reference_bridge(s, x, y, depth)
            if want is None:
                with pytest.raises(SearchExhausted):
                    sync_bridge(s, x, y, p, p)
            else:
                assert sync_bridge(s, x, y, p, p) == want, (p, x, y, depth)
                found += 1
    assert len(cases) >= 4 and found >= len(cases)


def test_sync_bridge_depth_zero_exhausts(golden_mean, monkeypatch):
    zeros = BiSeq.constant("0")
    x = BiSeq(("0",), ("1", "0"), ("0", "1"), -1)
    y = BiSeq(("1", "0"), ("0", "1"), ("0",), 0)
    assert _reference_bridge(golden_mean, x, y, 0) is None
    monkeypatch.setattr(conjugacy, "_CONNECTOR_DEPTH", 0)
    with pytest.raises(SearchExhausted) as exc:
        sync_bridge(golden_mean, x, y, zeros, zeros)
    assert exc.value.depth == 0
    want = _reference_bridge(golden_mean, x, y, 1)
    monkeypatch.setattr(conjugacy, "_CONNECTOR_DEPTH", 1)
    assert want is not None and sync_bridge(golden_mean, x, y, zeros, zeros) == want


def test_oracle_searches_are_unverified(ray_oracle):
    x = BiSeq.constant("a")
    for search in (lambda: enumerate_points(ray_oracle),
                   lambda: cylinder_representatives(ray_oracle, x, 2, 4, "u"),
                   lambda: rectangle_check(ray_oracle, x, 2, 4),
                   lambda: enumerate_periodic(ray_oracle, 2)):
        with pytest.raises(Unverified):
            search()


def _rectangle_bases(s, N):
    """The least point of ``s`` whose central word at radius N
    synchronizes, and the least such point with a core."""
    points = [x for x in enumerate_points(s, core_len=1)
              if classify_point(s, x).status == "synchronizing"
              and is_sync_word(s, x.window(1 - N, N))]
    return points[:1] + [x for x in points if x.core][:1]


def _small_samples(s, x, N, rng):
    """At most 30 small points of ``s``: up to 10 with x's central
    window, the rest without."""
    points = enumerate_points(s, core_len=2)
    near = [p for p in points if p.window(1 - N, N) == x.window(1 - N, N)]
    far = [p for p in points if p.window(1 - N, N) != x.window(1 - N, N)]
    return rng.sample(near, min(10, len(near))) + rng.sample(far, min(20, len(far)))


def test_rectangle_check_matches_reference(named):
    # the bracket on cylinder samples at a synchronizing central word is a
    # theorem, so the check reports no failure and the brute-force loop
    # finds none; on small points off the cylinders the loop still finds
    # both kinds of failure, so its empty verdict on the samples is not vacuous
    rng = random.Random(3)
    shifts = [named[k] for k in ("golden", "even", "gap3", "even_x_golden")]
    seen = Counter()
    for s in shifts + _random_shifts(6, seed=11):
        for N in (2, 3):
            L = N + 2
            for x in _rectangle_bases(s, N):
                unstable = cylinder_representatives(s, x, N, L, "u")
                stable = cylinder_representatives(s, x, N, L, "s")
                if unstable and stable:
                    assert reference_rectangle_failures(s, x, N, unstable, stable) == [], (s, x, N)
                    assert rectangle_check(s, x, N, L) == {
                        "point": str(x), "N": N, "L": L,
                        "unstable_samples": len(unstable), "stable_samples": len(stable),
                        "pairs": len(unstable) * len(stable),
                        "failures": [], "passed": True}, (s, x, N)
                    seen["reports"] += 1
                samples = {"u": _small_samples(s, x, N, rng), "s": _small_samples(s, x, N, rng)}
                want = reference_rectangle_failures(s, x, N, samples["u"], samples["s"])
                seen["pairs"] += len(samples["u"]) * len(samples["s"])
                seen.update(kind for (kind, _, _) in want)
                seen["splice outside"] += sum(y.window(1 - N, N) == z.window(1 - N, N)
                                              for (kind, y, z) in want
                                              if kind == "bracket undefined")
    passed = seen["pairs"] - seen["bracket undefined"] - seen["h_x does not invert"]
    assert seen["reports"] >= 20 and seen["splice outside"] > 0, seen
    assert seen["h_x does not invert"] > 0 and passed > 0, seen


def test_rectangle_check_builds_no_point(named, monkeypatch):
    # the report's counts come from the (run mask, boundary symbol) layers,
    # and equal the numbers of points the sampler builds
    cases = [(s, x, N, N + 4) for s in named.values() for N in (2, 3)
             for x in _rectangle_bases(s, N)]
    want = [(len(cylinder_representatives(s, x, N, L, "u")),
             len(cylinder_representatives(s, x, N, L, "s"))) for (s, x, N, L) in cases]
    built = Counter()

    def counting(*args):
        built["points"] += 1
        return BiSeq(*args)

    monkeypatch.setattr(sync, "BiSeq", counting)
    got = [(r["unstable_samples"], r["stable_samples"])
           for r in (rectangle_check(*case) for case in cases)]
    assert got == want and len(cases) >= 8
    assert built["points"] == 0
