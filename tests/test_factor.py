"""Labelings as factor maps: resolving flags, degrees, preimages."""

import random
from collections import Counter

import pytest

from synchrolab.errors import EmptyShift, NotInShift, NotResolving, SynchrolabError
from synchrolab.factor import (CoverMap, almost_one_to_one_check, degree_bound,
                               preimage_count)
from synchrolab.periodic import enumerate_periodic
from synchrolab.points import (BiSeq, decide_relation, enumerate_points,
                               point_in_shift, shift_by)
from synchrolab.presentation import Presentation, trim
from synchrolab.shift import Alphabet, contains_word

from membership_reference import reference_almost_one_to_one_check, reference_preimage_count

ZEROS = BiSeq.constant("0")
ONES = BiSeq.constant("1")


def even_cover():
    p = Presentation.build(
        ["A", "B"], [("A", "1", "A"), ("A", "0", "B"), ("B", "0", "A")])
    return CoverMap.build(p, Alphabet(("0", "1")))


def identity_cover():
    # labels equal edge names: the map is a conjugacy
    p = Presentation.build(
        ["A", "B"], [("A", "x", "A"), ("A", "y", "B"), ("B", "z", "A")])
    return CoverMap.build(p, Alphabet(("x", "y", "z")))


def test_cover_target_is_trimmed():
    # no point of A 0 A, A 1 B contains a 1
    p = Presentation.build(["A", "B"], [("A", "0", "A"), ("A", "1", "B")])
    c = CoverMap.build(p)
    assert not contains_word(c.target, ("1",))
    assert c.target.words(2) == [(), ("0",), ("0", "0")]
    with pytest.raises(ValueError):
        CoverMap.build(p, Alphabet(("1",)))


def test_even_cover_is_right_resolving():
    c = even_cover()
    assert c.right_resolving is True
    assert c.left_resolving is True  # in-labels are distinct here too


def test_nondeterministic_labeling_flags():
    p = Presentation.build(
        ["A", "B"], [("A", "0", "A"), ("A", "0", "B"), ("B", "1", "A")])
    c = CoverMap.build(p, Alphabet(("0", "1")))
    assert c.right_resolving is False


def test_preimage_count_refuses_a_point_outside_the_image():
    # one 0 between ones: an odd run, which the even cover cannot read
    with pytest.raises(NotInShift, match="image shift"):
        preimage_count(even_cover(), BiSeq(("1",), ("0",), ("1",), 0))


def test_degree_bound_requires_resolving():
    p = Presentation.build(
        ["A", "B"], [("A", "0", "A"), ("A", "0", "B"), ("B", "0", "B")])
    c = CoverMap.build(p, Alphabet(("0",)))
    assert not c.right_resolving and not c.left_resolving
    with pytest.raises(NotResolving):
        degree_bound(c)


def test_even_cover_preimage_counts():
    c = even_cover()
    assert preimage_count(c, ZEROS)["count"] == 2
    assert preimage_count(c, ONES)["count"] == 1
    with_one = BiSeq(("1",), ("0", "0"), ("1",), 0)
    assert preimage_count(c, with_one)["count"] == 1


def test_identity_labeling_preimages_unique():
    c = identity_cover()
    for p in enumerate_points(c.target, core_len=2):
        if point_in_shift(c.target, p) != "yes":
            continue
        assert preimage_count(c, p)["count"] == 1


def test_degree_bound_never_exceeded():
    c = even_cover()
    m = degree_bound(c)
    assert m == 2
    observed = 0
    for p in enumerate_points(c.target, core_len=2):
        if p.description_size() > 8:
            continue
        count = preimage_count(c, p)["count"]
        assert count <= m, p
        observed = max(observed, count)
    assert observed == 2


def test_projection_commutes_with_shift():
    c = even_cover()
    for x in enumerate_points(c.source, core_len=2)[:30]:
        if point_in_shift(c.source, x) != "yes":
            continue
        assert c.project(shift_by(x, 1)) == shift_by(c.project(x), 1)
        assert c.project(shift_by(x, -1)) == shift_by(c.project(x), -1)


def test_images_of_periodic_points_have_dividing_period():
    c = even_cover()
    for n in range(1, 6):
        for q in enumerate_periodic(c.source, n).points:
            image = c.project(q)
            assert shift_by(image, n) == image


def test_preimages_project_back_and_lie_in_source():
    c = even_cover()
    for p in enumerate_points(c.target, core_len=2)[:25]:
        if point_in_shift(c.target, p) != "yes":
            continue
        result = preimage_count(c, p)
        for pre in result["preimages"]:
            assert point_in_shift(c.source, pre) == "yes"
            assert c.project(pre) == p


def test_unstable_class_decomposition_bound():
    # preimages of an unstable class fall into at most M unstable classes
    c = even_cover()
    m = degree_bound(c)
    base = ONES
    members = [p for p in enumerate_points(c.target, core_len=2)
               if decide_relation(p, base, "unstable")]
    lifted = [pre for p in members for pre in preimage_count(c, p)["preimages"]]
    classes = []
    for q in lifted:
        for cls in classes:
            if decide_relation(q, cls[0], "unstable"):
                cls.append(q)
                break
        else:
            classes.append([q])
    assert len(classes) <= m


def test_resolving_injectivity_on_unstable_sets():
    # u-resolving: unstably equivalent preimages of the same point coincide
    c = even_cover()
    assert c.right_resolving
    for p in enumerate_points(c.target, core_len=2)[:30]:
        if point_in_shift(c.target, p) != "yes":
            continue
        pres = preimage_count(c, p)["preimages"]
        for i, q1 in enumerate(pres):
            for q2 in pres[i + 1:]:
                assert not decide_relation(q1, q2, "unstable"), (p, q1, q2)


def test_unique_preimage_unstable_class_restriction():
    # for the uniquely covered periodic point 1^inf, the preimage's whole
    # unstable class maps onto the unstable class of the image
    c = even_cover()
    (q,) = preimage_count(c, ONES)["preimages"]
    lifted_class = [y for y in enumerate_points(c.source, core_len=2)
                    if decide_relation(y, q, "unstable")]
    image_class = {c.project(y) for y in lifted_class}
    for img in image_class:
        assert decide_relation(img, ONES, "unstable")
    # injective on the class
    assert len(image_class) == len(lifted_class)


def test_almost_one_to_one_even_cover():
    c = even_cover()
    report = almost_one_to_one_check(c, 4)
    assert report["passed"]
    assert [e["point"] for e in report["exceptional"]] == [str(ZEROS)]
    assert report["exceptional"][0]["count"] == 2
    assert report["exceptional"][0]["status"] == "nonSynchronizing"


def test_almost_one_to_one_identity_cover():
    report = almost_one_to_one_check(identity_cover(), 4)
    assert report["passed"]
    assert report["exceptional"] == []


def test_product_cover_counts_multiply(even_shift):
    # cover of even x even: preimage counts multiply coordinatewise
    p = even_cover().presentation
    states = [(q1, q2) for q1 in p.states for q2 in p.states]
    edges = []
    for (u1, a, v1) in p.edges:
        for (u2, b, v2) in p.edges:
            edges.append(((u1, u2), f"{a}|{b}", (v1, v2)))
    pp = Presentation.build(states, edges)
    alphabet = Alphabet(tuple(sorted({e[1] for e in edges})))
    c = CoverMap.build(pp, alphabet)
    both_zero = BiSeq.constant("0|0")
    assert preimage_count(c, both_zero)["count"] == 4
    zero_one = BiSeq.constant("0|1")
    assert preimage_count(c, zero_one)["count"] == 2
    both_one = BiSeq.constant("1|1")
    assert preimage_count(c, both_one)["count"] == 1
    assert degree_bound(c) == 4
    report = almost_one_to_one_check(c, 2)
    assert report["passed"]
    counts = {e["point"]: e["count"] for e in report["exceptional"]}
    assert counts[str(both_zero)] == 4
    for entry in report["exceptional"]:
        assert entry["status"] == "nonSynchronizing"


def test_preimage_count_refuses_a_cover_branching_both_ways():
    # both directions branch while reading zeros: 0^inf has infinitely
    # many preimages, and the map is not right-resolving
    p = Presentation.build(
        ["A", "B"],
        [("A", "0", "A"), ("A", "0", "B"), ("B", "0", "A"), ("B", "0", "B")])
    c = CoverMap.build(p, Alphabet(("0",)))
    with pytest.raises(NotResolving):
        preimage_count(c, ZEROS)


def test_almost_one_to_one_reports_violation():
    # two disjoint loops with equal labels: the unique (synchronizing)
    # target point has two preimages, so the check must fail
    p = Presentation.build(["A", "B"], [("A", "x", "A"), ("B", "x", "B")])
    c = CoverMap.build(p, Alphabet(("x",)))
    report = almost_one_to_one_check(c, 2)
    assert not report["passed"]
    assert report["exceptional"][0]["count"] == 2
    assert report["exceptional"][0]["status"] == "synchronizing"


def test_preimage_count_refuses_a_branching_two_cycle():
    # the right tail may turn around Q -> R -> Q any number of times
    # before it leaves R for the loop at S: R branches on 0
    p = Presentation.build(
        ["P", "Q", "R", "S"],
        [("P", "x", "P"), ("P", "y", "Q"), ("Q", "0", "R"), ("R", "0", "Q"),
         ("R", "0", "S"), ("S", "0", "S")])
    point = BiSeq(("x",), ("y",), ("0",), 0)
    with pytest.raises(NotResolving):
        preimage_count(CoverMap.build(p), point)


def _random_cover_maps(count=120, seed=0):
    """Labeling maps of seeded graphs with at most 4 states and 2 symbols."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        states = [f"q{i}" for i in range(rng.randint(1, 4))]
        symbols = "ab"[:rng.randint(1, 2)]
        edges = {(rng.choice(states), rng.choice(symbols), rng.choice(states))
                 for _ in range(rng.randint(1, 3 * len(states)))}
        try:
            out.append(CoverMap.build(Presentation.build(states, edges)))
        except EmptyShift:
            continue
    return out


def test_preimage_counts_match_windowed_path_counts():
    # right-resolving maps, reducible and untrimmed ones included; the
    # others are refused
    seen = Counter()
    for c in _random_cover_maps() + _random_resolving_maps(16, seed=5):
        points = enumerate_points(c.target, core_len=2)
        if not c.right_resolving:
            with pytest.raises(NotResolving):
                preimage_count(c, points[0])
            seen["refused"] += 1
            continue
        g = c.presentation
        seen["reducible"] += not g.irreducible
        seen["untrimmed"] += trim(g) != g
        for x in points:
            result = preimage_count(c, x)
            count = result["count"]
            assert count == reference_preimage_count(g, x), (g, x)
            preimages = result["preimages"]
            assert len(set(preimages)) == len(preimages) == count, (g, x)
            for pre in preimages:
                assert point_in_shift(c.source, pre) == "yes" and c.project(pre) == x, (g, x, pre)
            seen[min(count, 2)] += 1
    assert min(seen.values()) >= 10, seen
    assert set(seen) == {"refused", "reducible", "untrimmed", 1, 2}


def _random_resolving_maps(count, seed):
    """Labeling maps of seeded graphs with at most 4 states and 2-3
    symbols, reducible ones included: each state has at most one out-edge
    per label (right-resolving), or at most one in-edge per label."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        states = [f"q{j}" for j in range(rng.randint(1, 4))]
        symbols = "abc"[:rng.randint(2, 3)]
        ends = {(q, a): rng.choice(states) for q in states for a in symbols
                if rng.random() < 0.6}
        if not ends:
            continue
        if len(out) % 2:
            edges = [(q, a, r) for (q, a), r in ends.items()]
        else:
            edges = [(r, a, q) for (q, a), r in ends.items()]
        try:
            out.append(CoverMap.build(Presentation.build(states, edges),
                                      Alphabet(tuple(symbols))))
        except EmptyShift:
            continue
    return out


def _outcome(check, c, max_period):
    try:
        return check(c, max_period)
    except SynchrolabError as exc:
        return type(exc)


def test_almost_one_to_one_matches_enumeration():
    seen = Counter()
    for i, c in enumerate(_random_resolving_maps(300, seed=3)):
        max_period = 1 + i % 5
        got = _outcome(almost_one_to_one_check, c, max_period)
        want = _outcome(reference_almost_one_to_one_check, c, max_period)
        assert got == want, (c.presentation, max_period)
        seen["right" if c.right_resolving else "left"] += 1
        seen[want.__name__ if isinstance(want, type) else
             "exceptional" if want["exceptional"] else "plain"] += 1
    assert min(seen.values()) >= 5, seen
    assert set(seen) == {"right", "left", "NotIrreducible", "exceptional", "plain"}


def test_almost_one_to_one_requires_resolving():
    p = Presentation.build(
        ["A", "B"], [("A", "0", "A"), ("A", "0", "B"), ("B", "0", "B"), ("B", "0", "A")])
    with pytest.raises(NotResolving):
        almost_one_to_one_check(CoverMap.build(p, Alphabet(("0",))), 3)
