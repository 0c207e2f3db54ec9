"""Point arithmetic: canonical forms, the metric, brackets, relations."""

import pytest

from synchrolab.errors import NotAgreeing, NotInShift
from synchrolab.points import (BiSeq, CylinderS, CylinderU, Dyadic, agree_on,
                               alignment_bound, bracket, decide_relation, distance,
                               enumerate_points, point_in_shift, shift_by, splice)
from synchrolab.presentation import Presentation
from synchrolab.shift import Alphabet, build_sft, build_sofic
from synchrolab.specfile import parse_point

from membership_reference import reference_point_in_shift

ZEROS = BiSeq.constant("0")
ONES = BiSeq.constant("1")


def small_points(symbols=("0", "1"), cycle_len=2, core_len=2, origin_radius=1):
    """Exhaustive canonical point family with small descriptions."""
    from itertools import product as iproduct
    cycles = [w for n in range(1, cycle_len + 1) for w in iproduct(symbols, repeat=n)]
    cores = [w for n in range(core_len + 1) for w in iproduct(symbols, repeat=n)]
    seen = set()
    for left in cycles:
        for right in cycles:
            for core in cores:
                for origin in range(-origin_radius, origin_radius + 1):
                    seen.add(BiSeq(left, core, right, origin))
    return sorted(seen, key=lambda p: (p.description_size(), str(p)))


# -- canonical form ----------------------------------------------------------

@pytest.mark.parametrize("left, right", [((), ("0",)), (("0",), ())])
def test_biseq_rejects_an_empty_cycle(left, right):
    with pytest.raises(ValueError, match="non-empty"):
        BiSeq(left, ("1",), right, 0)


def test_tail_patterns_refuse_a_cut_inside_the_core():
    x = BiSeq(("0",), ("1", "1"), ("0",), 0)  # core on [0, 2)
    assert x.left_pattern_at(0) == ("0",) and x.right_pattern_at(2) == ("0",)
    with pytest.raises(ValueError, match="up to the origin"):
        x.left_pattern_at(1)
    with pytest.raises(ValueError, match="beyond the core"):
        x.right_pattern_at(1)


def test_point_literal_joins_long_symbols_by_commas():
    alph = Alphabet(("0|0", "0|1", "1|0", "1|1"))
    p = BiSeq(("1|0",), ("0|0", "1|1"), ("1|0",), 0)
    assert str(p) == "L=1|0 C=0|0,1|1 O=0 R=1|0"
    assert parse_point(str(p), alph) == p


def test_dyadic_values():
    assert str(Dyadic(3)) == "2^-3" and str(Dyadic.zero()) == "0"
    with pytest.raises(ValueError, match="exponent must be >= 0"):
        Dyadic(-1)


def test_equal_points_have_equal_canonical_forms():
    a = BiSeq(("0", "0"), ("0",), ("0",), 5)
    assert a == ZEROS
    b = BiSeq(("0", "1"), (), ("0", "1"), 0)
    c = BiSeq(("1", "0"), (), ("1", "0"), 1)
    assert b == c


def test_canonical_equality_matches_pointwise_equality():
    pts = small_points()
    for x in pts:
        for y in pts:
            bound = alignment_bound(x, y)
            pointwise = agree_on(x, y, -bound, bound + 1)
            assert (x == y) == pointwise, (x, y)


def test_canonical_form_absorbs_unrolled_representations():
    # the same point written with doubled cycles or tail symbols moved
    # into the core must canonicalize identically
    for p in small_points():
        variants = [
            BiSeq(p.left * 2, p.core, p.right, p.origin),
            BiSeq(p.left, p.core, p.right * 3, p.origin),
            BiSeq(p.left, p.left + p.core, p.right, p.origin - len(p.left)),
            BiSeq(p.left, p.core + p.right, p.right, p.origin),
            BiSeq(p.left * 2, p.left + p.core + p.right * 2, p.right,
                  p.origin - len(p.left)),
        ]
        for v in variants:
            assert v == p, (p, v)


def test_indexing_consistency():
    x = BiSeq(("0", "1"), ("1", "1", "0"), ("0", "0", "1"), -1)
    # left tail anchored at origin: x[origin-1] is left[-1]
    assert x.at(-2) == "1" and x.at(-3) == "0"
    assert x.window(-1, 2) == ("1", "1", "0")
    assert x.at(2) == "0" and x.at(4) == "1" and x.at(7) == "1"


def test_shift_round_trip():
    for x in small_points():
        for k in (-3, -1, 1, 2, 5):
            assert shift_by(shift_by(x, k), -k) == x
            assert shift_by(x, k).at(0) == x.at(k)


def test_shift_fixed_points():
    assert shift_by(ZEROS, 7) == ZEROS
    x = BiSeq(("0",), ("1",), ("0",), 3)
    assert shift_by(x, 6) == BiSeq(("0",), ("1",), ("0",), -3)
    two = BiSeq.periodic(("0", "1"))
    assert shift_by(two, 1) != two
    assert shift_by(two, 2) == two


# -- metric ------------------------------------------------------------------

def test_distance_examples():
    assert distance(ZEROS, ZEROS).is_zero
    one_at_3 = BiSeq(("0",), ("1",), ("0",), 3)
    assert distance(ZEROS, one_at_3) == Dyadic(3)
    one_at_0 = BiSeq(("0",), ("1",), ("0",), 0)
    assert distance(ZEROS, one_at_0) == Dyadic(0)


def test_metric_symmetry_and_identity():
    pts = small_points(core_len=1)
    for x in pts:
        for y in pts:
            d = distance(x, y)
            assert d == distance(y, x)
            assert d.is_zero == (x == y)


def test_ultrametric_inequality():
    pts = small_points(core_len=1, origin_radius=0)
    for x in pts:
        for y in pts:
            dxy = distance(x, y)
            for z in pts:
                dxz = distance(x, z)
                dyz = distance(y, z)
                assert dxz <= max(dxy, dyz), (x, y, z)


def test_adaptedness_contraction_on_stable_sets():
    # y in X^s(x, 2^-2) implies d(shift x, shift y) <= d(x, y)/2
    pts = small_points()
    for x in pts:
        cyl = CylinderS(x, 2)
        for y in pts:
            if x == y or not cyl.contains(y):
                continue
            d = distance(x, y)
            assert distance(shift_by(x, 1), shift_by(y, 1)) == d.half()
    # symmetric for unstable with the inverse shift
    for x in pts:
        cyl = CylinderU(x, 2)
        for y in pts:
            if x == y or not cyl.contains(y):
                continue
            d = distance(x, y)
            assert distance(shift_by(x, -1), shift_by(y, -1)) == d.half()


def test_lipschitz_constant_two():
    pts = small_points(core_len=1)
    for x in pts:
        for y in pts:
            if x == y:
                continue
            d = distance(x, y)
            shifted = distance(shift_by(x, 1), shift_by(y, 1))
            doubled = Dyadic(d.k - 1) if d.k > 0 else Dyadic(0)
            assert shifted <= doubled or shifted <= d.half() or shifted <= d
            # tight statement: exponent moves by at most one
            assert abs(shifted.k - d.k) <= 1


def test_expansiveness_half():
    # if all shifts stay within 1/2 (agree at coordinate 0) out to the
    # alignment bound, the points are equal
    pts = small_points(core_len=1)
    for x in pts:
        for y in pts:
            bound = alignment_bound(x, y)
            close = all(not Dyadic(0) <= distance(shift_by(x, n), shift_by(y, n))
                        or distance(shift_by(x, n), shift_by(y, n)) <= Dyadic(1)
                        for n in range(-bound, bound + 1))
            if close:
                assert x == y


# -- cylinders ---------------------------------------------------------------

def test_cylinder_membership_is_coordinate_agreement():
    x = BiSeq(("0",), ("1",), ("0",), 0)
    y = BiSeq(("0",), ("1", "0", "1"), ("0",), 0)
    # y agrees with x on i <= 1, differs at 2
    assert CylinderU(x, 2).contains(y)
    assert not CylinderU(x, 3).contains(y)
    z = BiSeq(("0",), ("1", "1"), ("0",), -1)
    # z agrees with x for i >= 0, differs at -1
    assert CylinderS(x, 1).contains(z)
    assert not CylinderS(x, 2).contains(z)


def test_cylinder_monotone():
    x = BiSeq(("0", "1"), ("1",), ("1", "0"), 0)
    y = BiSeq(("0", "1"), ("1", "1", "1"), ("1", "0"), 0)
    for n in range(1, 6):
        if CylinderS(x, n + 1).contains(y):
            assert CylinderS(x, n).contains(y)
        if CylinderU(x, n + 1).contains(y):
            assert CylinderU(x, n).contains(y)


@pytest.mark.parametrize("cylinder", [CylinderS, CylinderU])
@pytest.mark.parametrize("N", [0, -1])
def test_cylinder_rejects_radius_below_one(cylinder, N):
    with pytest.raises(ValueError, match="must be >= 1"):
        cylinder(ZEROS, N)


# -- relations ---------------------------------------------------------------

def test_relation_rejects_an_unknown_name():
    with pytest.raises(ValueError, match="unknown relation"):
        decide_relation(ZEROS, ZEROS, "conjugate")


def test_relation_examples():
    one_at_0 = BiSeq(("0",), ("1",), ("0",), 0)
    for rel in ("stable", "unstable", "homoclinic"):
        assert decide_relation(ZEROS, ZEROS, rel)
    assert decide_relation(ZEROS, one_at_0, "homoclinic")
    for rel in ("stable", "unstable", "homoclinic"):
        assert not decide_relation(ZEROS, ONES, rel)


def test_relation_matches_brute_force_tail_comparison():
    pts = small_points(core_len=1)
    for x in pts:
        for y in pts:
            bound = alignment_bound(x, y)
            stable = agree_on(x, y, bound, 2 * bound + 4)
            unstable = agree_on(x, y, -2 * bound - 4, -bound)
            assert decide_relation(x, y, "stable") == stable
            assert decide_relation(x, y, "unstable") == unstable


def test_global_stable_set_as_union_of_local_sets():
    # stable equivalence iff some shift lands in a strict local stable set
    pts = small_points(core_len=1, origin_radius=0)
    p = ZEROS
    for x in pts:
        expected = decide_relation(x, p, "stable")
        bound = alignment_bound(x, p) + 2
        witnessed = any(
            CylinderS(shift_by(p, k), 2).contains(shift_by(x, k), strict=True)
            for k in range(bound))
        assert witnessed == expected, x


# -- splice and bracket ------------------------------------------------------

def test_splice_orientation():
    x = BiSeq(("0",), ("1",), ("0",), 3)   # 1 at +3
    y = BiSeq(("0",), ("1",), ("0",), -3)  # 1 at -3
    z = splice(x, y)  # future of x, past of y
    assert z.at(3) == "1" and z.at(-3) == "1"
    assert z == BiSeq(("0",), ("1", "0", "0", "0", "0", "0", "1"), ("0",), -3)


def test_bracket_identity(golden_mean):
    x = BiSeq(("0",), ("1",), ("0",), 3)
    assert bracket(golden_mean, x, x, 2) == x


def test_bracket_golden_mean_example(golden_mean):
    x = ZEROS
    y = BiSeq(("0",), ("1",), ("0",), -3)
    z = bracket(golden_mean, x, y, 3)
    assert z == y  # keep y's past (the 1 at -3), x's all-zero future


def test_bracket_not_agreeing(even_shift):
    x = ONES
    y = BiSeq(("0",), (), ("1",), 0)  # ...000.111...
    with pytest.raises(NotAgreeing):
        bracket(even_shift, x, y, 2)


def test_bracket_rejected_splice(even_shift):
    # two even-shift points agreeing centrally whose splice has an odd run
    x = BiSeq(("1",), ("0",) * 4, ("1",), -2)  # zeros on [-2, 1], ones outside
    y = BiSeq(("1",), ("0",) * 6, ("1",), -3)  # zeros on [-3, 2], ones outside
    assert point_in_shift(even_shift, x) == "yes"
    assert point_in_shift(even_shift, y) == "yes"
    # agree on |i| <= 1; splice takes x's future (zero run ends at 2) and
    # y's past (zero run starts at -3): a run of five zeros
    z = splice(x, y)
    assert point_in_shift(even_shift, z) == "no"
    with pytest.raises(NotInShift):
        bracket(even_shift, x, y, 2)


def _bracket_or_none(s, x, y, N):
    try:
        return bracket(s, x, y, N)
    except (NotAgreeing, NotInShift):
        return None


def test_bracket_uniqueness_brute_force(even_shift, golden_mean):
    # whenever defined, the bracket is the only point of the shift in the
    # intersection of the cylinders, among candidates with free central
    # windows of width <= 2N + 4 glued to x's right and y's left tails
    from itertools import product as iproduct
    N = 2
    for s in (even_shift, golden_mean):
        pts = [p for p in enumerate_points(s, core_len=1)
               if point_in_shift(s, p) == "yes" and p.description_size() <= 4]
        sample = pts[:12]
        for x in sample:
            for y in sample:
                z = _bracket_or_none(s, x, y, N)
                if z is None:
                    continue
                a = min(-(N + 2), y.origin)
                b = max(N + 2, x.right_start)
                hits = []
                for mid in iproduct(s.alphabet.symbols, repeat=b - a):
                    w = BiSeq(y.left_pattern_at(a), mid, x.right_pattern_at(b), a)
                    if (point_in_shift(s, w) == "yes"
                            and CylinderS(x, N).contains(w)
                            and CylinderU(y, N).contains(w)
                            and w not in hits):
                        hits.append(w)
                assert hits == [z], (x, y, hits)


def test_bracket_lipschitz_constant_one(even_shift):
    # d(y, [y,z]) <= d(y, z): splicing never moves the disagreement inward
    pts = [p for p in enumerate_points(even_shift, core_len=1)
           if point_in_shift(even_shift, p) == "yes"]
    for y in pts:
        for z in pts:
            w = _bracket_or_none(even_shift, y, z, 2)
            if w is None or y == z:
                continue
            assert distance(y, w) <= distance(y, z)
            assert distance(z, w) <= distance(y, z)


# -- membership --------------------------------------------------------------

def test_point_membership_examples(even_shift, golden_mean):
    assert point_in_shift(even_shift, ZEROS) == "yes"
    bad = BiSeq(("0",), ("1", "0", "1"), ("0",), -2)
    assert point_in_shift(even_shift, bad) == "no"
    assert point_in_shift(golden_mean, BiSeq.periodic(("0", "1"))) == "yes"


def test_point_membership_even_parity():
    from synchrolab.presentation import Presentation
    from synchrolab.shift import Alphabet, build_sofic
    even = build_sofic(Alphabet(("0", "1")), Presentation.build(
        ["A", "B"], [("A", "1", "A"), ("A", "0", "B"), ("B", "0", "A")]))
    ok = BiSeq(("1",), ("0", "0"), ("1",), 0)
    assert point_in_shift(even, ok) == "yes"
    bad = BiSeq(("1",), ("0", "0", "0"), ("1",), 0)
    assert point_in_shift(even, bad) == "no"


def test_point_membership_oracle(ray_oracle):
    ok = BiSeq.periodic(("a", "b", "b", "c", "c"))
    assert point_in_shift(ray_oracle, ok) == "yes"
    bad = BiSeq.periodic(("a", "b"))  # height climbs forever between a's
    assert point_in_shift(ray_oracle, bad) == "no"
    all_b = BiSeq.constant("b")
    assert point_in_shift(ray_oracle, all_b) == "yes"


def test_sofic_membership_agrees_with_factor_scan(even_shift, even_times_golden):
    # independent route: a point lies in a shift space iff all its
    # factors are admissible; for eventually periodic points a window of
    # one joint period beyond the core decides all factors
    from synchrolab.shift import contains_word
    for s in (even_shift, even_times_golden):
        for p in enumerate_points(s, core_len=2)[:60]:
            span = 2 * (abs(p.origin) + len(p.core)
                        + 2 * len(p.left) * len(p.right)) + 8
            all_factors_ok = all(
                contains_word(s, p.window(a, a + n))
                for n in range(1, min(span, 12))
                for a in range(-span, span))
            assert (point_in_shift(s, p) == "yes") == all_factors_ok, p


def test_membership_against_sft_route(even_shift):
    # even shift as SFT-with-infinite-family is approximated by parity scan
    def parity_ok(x):
        # compute zero-run parities between ones across a wide window
        lo, hi = -14, 14
        symbols = [x.at(i) for i in range(lo, hi)]
        runs = []
        count = None
        for sym in symbols:
            if sym == "1":
                if count is not None:
                    runs.append(count)
                count = 0
            elif count is not None:
                count += 1
        return all(r % 2 == 0 for r in runs)

    for p in enumerate_points(even_shift, core_len=2):
        status = point_in_shift(even_shift, p)
        if status == "yes":
            assert parity_ok(p), p


# -- membership against an independent reference -----------------------------

def test_point_in_shift_matches_reference(golden_mean, even_shift, even_times_golden,
                                          full_two):
    binary = Alphabet(("0", "1"))
    shifts = {
        "golden": golden_mean, "even": even_shift, "even_x_golden": even_times_golden,
        "full2": full_two,
        "gap3": build_sofic(binary, Presentation.build(
            ["A", "B", "C"],
            [("A", "1", "A"), ("A", "0", "B"), ("B", "0", "C"), ("C", "0", "A")])),
        "dead_end": build_sft(binary, {("1", "1"), ("1", "0")}),
        "reducible": build_sofic(binary, Presentation.build(
            ["A", "B", "C"],
            [("A", "0", "A"), ("A", "1", "B"), ("B", "1", "B"), ("B", "0", "C"),
             ("C", "0", "C")])),
        "unused_symbol": build_sofic(Alphabet(("0", "1", "2")), golden_mean.presentation),
    }
    for name, s in shifts.items():
        answers = set()
        for x in small_points(s.alphabet.symbols, core_len=3, origin_radius=2):
            expected = reference_point_in_shift(s, x)
            assert point_in_shift(s, x) == expected, (name, x)
            answers.add(expected)
        assert answers == {"yes", "no"} or name == "full2", name


# -- windows against per-coordinate access -----------------------------------

def _window_points():
    """Points with empty and non-empty cores, negative origins and
    cycles of length 1-3."""
    cycles = [("0",), ("1", "0"), ("0", "1", "1"), ("1", "1", "0")]
    cores = [(), ("1",), ("0", "0", "1")]
    points = {BiSeq(left, core, right, origin)
              for left in cycles for right in cycles for core in cores
              for origin in (-4, -1, 0, 3)}
    return sorted(points, key=lambda p: (p.description_size(), str(p)))


def test_window_matches_per_coordinate_access():
    points = _window_points()
    assert any(not p.core for p in points) and any(p.origin < 0 for p in points)
    for x in points:
        lo_min = x.origin - 2 * len(x.left) - 3
        hi_max = x.right_start + 2 * len(x.right) + 3
        for lo in range(lo_min, hi_max + 1):
            for hi in range(lo_min, hi_max + 1):
                expected = tuple(x.at(i) for i in range(lo, hi))
                assert x.window(lo, hi) == expected, (x, lo, hi)
                assert x[lo:hi] == expected
        assert x.window(3, 3) == () and x.window(5, 2) == ()


def test_agreement_and_cylinders_match_coordinatewise_definition():
    points = _window_points()[::3]
    reach = 40  # beyond every core and joint period of these points

    def agree(x, y, lo, hi):
        return all(x.at(i) == y.at(i) for i in range(lo, hi))

    for x in points:
        for y in points:
            for lo in range(-6, 6):
                for hi in (lo - 1, lo, lo + 1, lo + 4):
                    assert agree_on(x, y, lo, hi) == agree(x, y, lo, hi)
            for N in (1, 2, 3):
                assert CylinderS(x, N).contains(y) == agree(x, y, 1 - N, reach)
                assert CylinderS(x, N).contains(y, strict=True) == agree(x, y, -N, reach)
                assert CylinderU(x, N).contains(y) == agree(x, y, -reach, N)
                assert CylinderU(x, N).contains(y, strict=True) == agree(x, y, -reach, N + 1)
