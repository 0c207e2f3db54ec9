"""The two non-sofic builtins against brute force.

``nonsofic-ray`` and ``context-free`` are coded by the marker ``a``.
The library decides a point by one predicate query on a window of two
periods of each tail cycle, or, for an a-free ray tail that falls
outward from an ``a``, by no query at all, and classifies it by the
builtin's synchronizing patterns.  Here the predicates are checked
against walks and factors, membership is read on a window of 80
periods, synchronization by gluing every short left and right
extension, and the least witness by scanning central windows outward.
"""

import random
from collections import Counter
from itertools import product as iproduct

import pytest

from synchrolab.errors import NotInShift, NotSynchronizing
from synchrolab.oracles import BUILTIN_ORACLES, SYNC_PATTERNS, OracleShift
from synchrolab.periodic import periodic_density_check
from synchrolab.points import BiSeq, point_in_shift
from synchrolab.sync import classify_point, sync_density_check, sync_radius

SYMBOLS = ("a", "b", "c")


def _word(rng, lo, hi):
    return tuple(rng.choice(SYMBOLS) for _ in range(rng.randint(lo, hi)))


def _points(seed, count=2000):
    """Seeded points: cycles of length 1-4, cores up to 4, origins within 2."""
    rng = random.Random(seed)
    return [BiSeq(_word(rng, 1, 4), _word(rng, 0, 4), _word(rng, 1, 4), rng.randint(-2, 2))
            for _ in range(count)]


def _drift_cases():
    # the tails that step away from the marker's height 1 (ray) or hold no
    # marker at all
    b41c40 = ("b",) * 41 + ("c",) * 40
    return [BiSeq(b41c40, ("a",), ("a",), 0), BiSeq.constant("b"), BiSeq.constant("c"),
            BiSeq(("c",), ("a",), ("c",), 0), BiSeq(("b",), ("a",), ("b",), 0),
            BiSeq(("c",), ("a",), ("b",), 0), BiSeq(("a",), (), ("b", "c", "c"), 0),
            BiSeq(("b", "b", "c"), (), ("a",), 0)]


def _reference_in_shift(s, x, periods=80):
    return s.admits(x.window(x.origin - periods * len(x.left),
                             x.right_start + periods * len(x.right)))


def _uniform_window_in_shift(s, x):
    """The verdict on the window of k = |core| + |left| + |right| + 3
    periods of both tails, the one count every tail got before."""
    k = len(x.core) + len(x.left) + len(x.right) + 3
    return s.admits(x.window(x.origin - k * len(x.left), x.right_start + k * len(x.right)))


def _long_cycle_points(n):
    """Points whose tail cycles are b^m c^m, b^(m+1) c^m or b^m c^(m+1)
    (m = n + 40), with and without an ``a``."""
    m = n + 40
    cycles = [("b",) * b + ("c",) * c for (b, c) in ((m, m), (m + 1, m), (m, m + 1))]
    cycles += [("a",) + c for c in cycles[:2]]
    return [p for c in cycles
            for p in (BiSeq(c, ("a",), ("a",), 0), BiSeq(("a",), ("a",), c, 0),
                      BiSeq(c, ("a",), c, 0), BiSeq(c, (), ("b",), 0))]


def _holds_pattern(s, w):
    return any(w[i:i + len(p)] == p
               for p in SYNC_PATTERNS[s.oracle_name] for i in range(len(w)))


@pytest.fixture(scope="module", params=["ray", "cf"])
def marker_shift(request, ray_oracle, cf_oracle):
    return ray_oracle if request.param == "ray" else cf_oracle


@pytest.fixture(scope="module")
def decided(marker_shift):
    """The seeded and drift points with the reference's verdict."""
    points = _points(seed=26) + _drift_cases()
    return [(x, _reference_in_shift(marker_shift, x)) for x in points]


def test_membership_matches_a_long_window(marker_shift, decided):
    assert 200 < sum(inside for (_, inside) in decided) < len(decided) - 200
    for x, inside in decided:
        assert point_in_shift(marker_shift, x) == ("yes" if inside else "no"), x


def test_drift_cases(ray_oracle, cf_oracle):
    want = {"nonsofic-ray": ["no", "yes", "yes", "no", "no", "yes", "no", "no"],
            "context-free": ["yes"] * 8}
    for s in (ray_oracle, cf_oracle):
        assert [point_in_shift(s, x) for x in _drift_cases()] == want[s.oracle_name]
    with pytest.raises(NotInShift, match="point is not in the shift"):
        classify_point(ray_oracle, _drift_cases()[0])  # the b^41 c^40 tail


def test_membership_matches_the_uniform_window(marker_shift, decided):
    points = [x for (x, _) in decided] + [p for n in (1, 7) for p in _long_cycle_points(n)]
    verdicts = Counter()
    for x in points:
        want = _uniform_window_in_shift(marker_shift, x)
        assert point_in_shift(marker_shift, x) == ("yes" if want else "no"), x
        verdicts[want] += 1
    assert verdicts[True] > 200 and verdicts[False] > 200, verdicts


def test_membership_window_is_linear_in_a_drift_free_tail():
    # b^m c^m holds no a and has drift 0, so it gets two periods; the
    # uniform count asks (2m + 4) periods of it, about 466,000 symbols at
    # n = 300
    for name in ("nonsofic-ray", "context-free"):
        asked = []
        builtin = BUILTIN_ORACLES[name]()

        def recording(w):
            asked.append(len(w))
            return builtin.admits(w)

        s = OracleShift(builtin.alphabet, recording, name)
        for n in range(1, 301, 23):
            bc = ("b",) * (n + 40) + ("c",) * (n + 40)
            x = BiSeq(bc, ("a",), ("a",), 0)
            asked.clear()
            assert point_in_shift(s, x) == "yes"
            assert asked == [2 * len(x.left) + len(x.core) + 2 * len(x.right)]
            assert asked[0] < 3 * x.description_size()


def _recording_ray():
    """The ray shift with a predicate that records each word it is asked."""
    asked = []
    builtin = BUILTIN_ORACLES["nonsofic-ray"]()

    def recording(w):
        asked.append(w)
        return builtin.admits(w)

    return OracleShift(builtin.alphabet, recording, "nonsofic-ray"), asked


def test_stepping_down_ray_tail_window_is_short():
    # the a-free tails c^301 b^300 and (cb)^300 c fall one height a period
    # from the pin at height 1, so x is refused with no query; the second
    # reaches height 0 only in its 302nd period, so its reference reads 320
    s, asked = _recording_ray()
    cb = ("c", "b") * 300 + ("c",)
    for x, periods in ((BiSeq(("a",) + ("b",) * 300 + ("c",) * 300, ("a",),
                              ("c",) * 301 + ("b",) * 300, 0), 80),
                       (BiSeq(("a",), ("b",) * 300, cb, 0), 320)):
        asked.clear()
        assert point_in_shift(s, x) == "no"
        assert asked == []
        assert not _reference_in_shift(s, x, periods)


def test_stepping_down_ray_tail_count_is_least():
    # a pin n heights above the drop of a drift -1 tail (cbc to the right,
    # bcb to the left) is refused with no query, the n + 1 periods the
    # reference needs unread
    s, asked = _recording_ray()
    for n in (3, 10, 40):
        for x in (BiSeq(("a",), ("b",) * n, ("c", "b", "c"), 0),
                  BiSeq(("b", "c", "b"), ("c",) * n, ("a",), 0)):
            asked.clear()
            assert point_in_shift(s, x) == "no"
            assert asked == []
            assert not _reference_in_shift(s, x)


def test_pinned_falling_tails_match_the_uniform_window():
    # long b^n and c^n cores between falling, rising and a-holding tails:
    # the verdict is the uniform window's, and each query holds exactly
    # two periods of each tail
    s, asked = _recording_ray()
    lefts = [("b",), ("b", "c", "b"), ("a",), ("a", "b"), ("c", "a", "b"), ("c",),
             ("b", "c")]
    rights = [("c",), ("c", "b", "c"), ("a",), ("a", "c"), ("b", "a", "c"), ("b",),
              ("c", "b")]
    verdicts = Counter()
    for n in (1, 7, 40, 300):
        for core in (("b",) * n, ("c",) * n, ("a",) + ("b",) * n, ("c",) * n + ("a",)):
            for left in lefts:
                for right in rights:
                    x = BiSeq(left, core, right, 0)
                    asked.clear()
                    verdict = point_in_shift(s, x)
                    queries = len(asked)
                    assert asked in ([], [x.window(x.origin - 2 * len(left),
                                                   x.right_start + 2 * len(right))]), x
                    want = _uniform_window_in_shift(s, x)
                    assert verdict == ("yes" if want else "no"), x
                    verdicts[verdict, queries] += 1
    assert min(verdicts[k] for k in (("yes", 1), ("no", 1), ("no", 0))) > 20, verdicts


def test_ray_predicate_walks_the_graph(ray_oracle):
    # admissible iff a walk on heights 1, 2, ... reads the word from some
    # start height: a loops at 1, b steps up, c steps down
    def walks(w, h):
        for s in w:
            if s == "a" and h != 1:
                return False
            h += {"a": 0, "b": 1, "c": -1}[s]
            if h < 1:
                return False
        return True

    for n in range(9):
        for w in iproduct(SYMBOLS, repeat=n):
            assert ray_oracle.admits(w) == any(walks(w, h) for h in range(1, n + 2)), w
    assert not ray_oracle.admits(("a", "d")) and not ray_oracle.admits(("ab",))


def test_context_free_predicate_reads_every_block(cf_oracle):
    # admissible iff each factor a b^m c^n a (a-free inside, b's before
    # c's) has m = n, read off every factor of every word up to length 8
    for n in range(9):
        for w in iproduct(SYMBOLS, repeat=n):
            inners = [w[i + 1:j] for i in range(n) for j in range(i + 1, n)
                      if w[i] == w[j] == "a" and "a" not in w[i + 1:j]]
            want = all(inner.count("b") == inner.count("c")
                       for inner in inners if inner == tuple(sorted(inner)))
            assert cf_oracle.admits(w) == want, w
    assert not cf_oracle.admits(("a", "d")) and not cf_oracle.admits(("ab",))


def test_pattern_rule_matches_gluing(marker_shift):
    # w synchronizes iff u·w·v is admissible whenever u·w and w·v are
    s = marker_shift
    extensions = [e for n in range(5) for e in iproduct(SYMBOLS, repeat=n)]
    glued = 0
    for w in s.words(3):
        lefts = [u for u in extensions if s.admits(u + w)]
        rights = [v for v in extensions if s.admits(w + v)]
        glues = all(s.admits(u + w + v) for u in lefts for v in rights)
        assert glues == _holds_pattern(s, w), w
        glued += glues
    assert glued > 5


def test_least_witness_and_radius(marker_shift, decided):
    s = marker_shift
    verdicts = set()
    for x, inside in decided:
        if not inside:
            continue
        least = next((n for n in range(120) if _holds_pattern(s, x.window(-n, n + 1))), None)
        verdict = classify_point(s, x)
        verdicts.add(verdict.status)
        if least is None:
            assert verdict.status == "nonSynchronizing", x
            with pytest.raises(NotSynchronizing):
                sync_radius(s, x)
        else:
            assert (verdict.status, verdict.window_used) == ("synchronizing", least), x
            assert verdict.witness == x.window(-least, least + 1)
            assert sync_radius(s, x) == max(least, 1) + 1
    assert verdicts == {"synchronizing", "nonSynchronizing"}


def test_density_at_length_five(marker_shift, density_holds):
    density_holds(marker_shift, sync_density_check(marker_shift, 5), sync=True)
    density_holds(marker_shift, periodic_density_check(marker_shift, 5), sync=False)
