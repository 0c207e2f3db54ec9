"""Germ constructions, invariance laws, bridges, groupoid sampling."""

from collections import Counter
from dataclasses import dataclass
from itertools import permutations

import pytest

from synchrolab.conjugacy import (KINDS, BlockRule, FutureRule, Germ, IdentityRule,
                                  LiftedRule, PastRule, canonical_cover, compose_lcs_lcu,
                                  construct_germ, groupoid_sample,
                                  heteroclinic_bridge, identity_germ,
                                  rectangle_germs, ruelle_germ, sync_bridge,
                                  verify_germ)
from synchrolab.errors import (InvariantViolation, NotConstructive, NotHomoclinic,
                               NotInDomain, NotInRectangle, NotInShift, NotSFT,
                               NotSynchronizing, SearchExhausted, Unverified)
from synchrolab.points import (BiSeq, agree_on, decide_relation, enumerate_points,
                               point_in_shift, shift_by)
from synchrolab.presentation import Presentation
from synchrolab.shift import Alphabet, build_sft, build_sofic, word
from synchrolab.specfile import parse_point, parse_spec_text
from synchrolab.sync import classify_point, sync_radius

from test_decided_step import SOFIC_GOLDEN
from test_word_search import _random_shifts

ZEROS = BiSeq.constant("0")
ONES = BiSeq.constant("1")
# a sofic shift on which a two-sided lifted germ can verify while its
# inverse does not, and some pairs have only unverifiable lc germs
THREE_STATE = """\
alphabet: a b c
type: sofic
state: q0
state: q1
state: q2
edge: q0 b q0
edge: q0 b q1
edge: q0 b q2
edge: q1 a q0
edge: q1 b q2
edge: q1 c q2
edge: q2 a q1
edge: q2 c q0
"""


def homoclinic_pairs(s, limit=40):
    pts = [p for p in enumerate_points(s, core_len=2)
           if point_in_shift(s, p) == "yes"]
    pairs = []
    for i, x in enumerate(pts):
        for y in pts[i + 1:]:
            if decide_relation(x, y, "homoclinic"):
                pairs.append((x, y))
            if len(pairs) >= limit:
                return pairs
    return pairs


def test_ruelle_identity(golden_mean):
    g = ruelle_germ(golden_mean, ZEROS, ZEROS)
    assert g.apply(ZEROS) == ZEROS


def test_ruelle_germ_examples(golden_mean):
    one0 = BiSeq(("0",), ("1",), ("0",), 0)
    g = ruelle_germ(golden_mean, ZEROS, one0)
    assert g.apply(ZEROS) == one0
    assert verify_germ(g, budget=8) > 1


def test_ruelle_requires_homoclinic(golden_mean):
    two_cycle = BiSeq.periodic(("0", "1"))
    with pytest.raises(NotHomoclinic):
        ruelle_germ(golden_mean, ZEROS, two_cycle)


def test_ruelle_rejects_sofic(even_shift):
    one0 = BiSeq(("1",), ("0", "0"), ("1",), 0)
    with pytest.raises(NotSFT):
        ruelle_germ(even_shift, ONES, one0)


def test_ruelle_on_all_homoclinic_pairs(golden_mean):
    for (x, y) in homoclinic_pairs(golden_mean, 25):
        g = ruelle_germ(golden_mean, x, y)
        assert g.apply(x) == y
        assert g.inverse().apply(y) == x


def test_germ_shift_equivariance(golden_mean, even_shift):
    cases = []
    for (x, y) in homoclinic_pairs(golden_mean, 10):
        cases.append((golden_mean, ruelle_germ(golden_mean, x, y)))
    x1 = BiSeq(("1",), ("0", "0"), ("1",), -4)
    x2 = BiSeq(("1",), ("0", "0", "1", "0", "0"), ("1",), -6)
    cases.append((even_shift, construct_germ(even_shift, x1, x2, "lcs")))
    for s, g in cases:
        for k in (-2, -1, 1, 2):
            conj = g.conjugate(k)
            assert conj.source == shift_by(g.source, k)
            assert conj.target == shift_by(g.target, k)
            assert conj.apply(conj.source) == conj.target
            verify_germ(conj, budget=4)


def test_sync_preservation_on_lc_germs(even_shift, golden_mean):
    for s in (even_shift, golden_mean):
        arrows = groupoid_sample(s, "lc", bound=6)
        assert arrows
        for arrow in arrows:
            src = classify_point(s, arrow.source).status
            tgt = classify_point(s, arrow.target).status
            if src == "synchronizing":
                assert tgt == "synchronizing"


def test_periodic_rigidity(even_shift, golden_mean):
    # a germ of any kind between distinct periodic points is impossible
    from synchrolab.periodic import enumerate_periodic
    for s in (even_shift, golden_mean):
        periodic = [p for n in (1, 2, 3) for p in enumerate_periodic(s, n).points]
        for p in periodic:
            for q in periodic:
                if p == q:
                    continue
                for kind in ("lc", "lcs", "lcu"):
                    with pytest.raises(NotConstructive):
                        construct_germ(s, p, q, kind)


def test_rectangle_germ_chain(even_shift):
    y = BiSeq(("1",), ("0", "0"), ("1",), 2)
    gu, gs = rectangle_germs(even_shift, ONES, y, 2)
    assert gu.kind == "lcu" and gs.kind == "lcs"
    corner = gu.apply(y)
    assert gu.target == corner
    assert gs.apply(corner) == ONES
    # identity case
    gu0, gs0 = rectangle_germs(even_shift, ONES, ONES, 2)
    assert gu0.apply(ONES) == ONES
    assert gs0.apply(ONES) == ONES


def test_rectangle_germ_rejects_outside(even_shift):
    outside = BiSeq(("1",), ("0", "0"), ("1",), 0)  # differs at 0
    with pytest.raises(NotInRectangle):
        rectangle_germs(even_shift, ONES, outside, 2)


def test_rectangle_germs_rejects_base_outside_shift(golden_mean):
    # x's central word 000 synchronizes, but x carries 11 at -5, -4
    outside = BiSeq(("0",), ("1", "1"), ("0",), -5)
    with pytest.raises(NotInShift):
        rectangle_germs(golden_mean, outside, ZEROS, 2)


@pytest.mark.parametrize("N", [1, 0, -1])
def test_rectangle_germs_rejects_radius_below_two(golden_mean, N):
    with pytest.raises(ValueError, match="N >= 2"):
        rectangle_germs(golden_mean, ZEROS, ZEROS, N)


def test_rectangle_endpoints_relations(even_shift, golden_mean):
    for s, base in ((even_shift, ONES), (golden_mean, ZEROS)):
        verdict = classify_point(s, base)
        n = max(verdict.window_used + 1, 2)
        for y in enumerate_points(s, core_len=2)[:30]:
            if point_in_shift(s, y) != "yes":
                continue
            if not agree_on(base, y, 1 - n, n):
                continue
            gu, gs = rectangle_germs(s, base, y, n)
            corner = gu.target
            assert decide_relation(y, corner, "unstable")
            assert decide_relation(corner, base, "stable")


def test_compose_lcs_lcu_identity(even_shift):
    gu = identity_germ(even_shift, ONES, "lcs")
    gs = identity_germ(even_shift, ONES, "lcu")
    g = compose_lcs_lcu(even_shift, gu, gs, ONES, ONES)
    assert g.apply(ONES) == ONES


def test_compose_lcs_lcu_roundtrip(even_shift):
    # build one-sided germs between two synchronizing homoclinic points
    x = ONES
    y = BiSeq(("1",), ("0", "0"), ("1",), -1)  # zeros at -1, 0
    assert point_in_shift(even_shift, y) == "yes"
    assert decide_relation(x, y, "homoclinic")
    gu = construct_germ(even_shift, x, y, "lcs")
    gs = construct_germ(even_shift, x, y, "lcu")
    g = compose_lcs_lcu(even_shift, gu, gs, x, y)
    assert g.kind == "lc"
    assert g.apply(x) == y


def test_compose_lcs_lcu_contract_violation(even_shift):
    gu = identity_germ(even_shift, ONES, "lcs")
    other = BiSeq(("1",), ("0", "0"), ("1",), -1)
    gs = construct_germ(even_shift, ONES, other, "lcu")
    with pytest.raises(ValueError):
        compose_lcs_lcu(even_shift, gu, gs, ONES, ONES)


# (x, y, z): pairwise homoclinic synchronizing points, and the rule each
# kind builds between them: block and tail rules on the golden mean
# shift, cover-lifted rules on the even shift.
DERIVED_GERM_CASES = {
    "golden_mean": ((ZEROS, BiSeq(("0",), ("1",), ("0",), 0),
                     BiSeq(("0",), ("1", "0", "1"), ("0",), -1)),
                    {"lc": BlockRule, "lcs": PastRule, "lcu": FutureRule}),
    "even_shift": ((ONES, BiSeq(("1",), ("0", "0"), ("1",), -1),
                    BiSeq(("1",), ("0", "0"), ("1",), 1)),
                   dict.fromkeys(KINDS, LiftedRule)),
}


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("shift_name", sorted(DERIVED_GERM_CASES))
def test_inverses_of_derived_germs_map_back_and_verify(request, shift_name, kind):
    # conjugated, chained (one-sided bounds included), identity and
    # rectangle-composed germs invert through their own rule branches; every
    # inverse keeps its germ's bounds, so inverting commutes with conjugating
    s = request.getfixturevalue(shift_name)
    (x, y, z), rules = DERIVED_GERM_CASES[shift_name]
    g = construct_germ(s, x, y, kind)
    assert type(g.rule) is rules[kind]
    derived = [g.conjugate(3), g.compose(construct_germ(s, y, z, kind)),
               identity_germ(s, x, kind)]
    if kind == "lc":
        derived.append(compose_lcs_lcu(s, construct_germ(s, x, y, "lcs"),
                                       construct_germ(s, x, y, "lcu"), x, y))
    for germ in [g] + derived:
        inverse = germ.inverse()
        assert inverse.apply(germ.target) == germ.source
        assert verify_germ(inverse) >= 1
        assert (inverse.dom_lo, inverse.dom_hi) == (germ.dom_lo, germ.dom_hi)
        for k in (-2, 1, 3):
            assert germ.conjugate(k).inverse() == inverse.conjugate(k), (germ, k)


def test_lifted_germ_refuses_phase_mismatch(even_shift):
    # stably equivalent points whose lifts disagree forever: the zero
    # tails sit at mismatched parities, so no lcs germ may exist
    x = BiSeq(("1",), ("1",), ("0",), -5)   # ones through -5, zeros from -4
    x_bad = BiSeq(("1",), ("1",), ("0",), -6)
    assert point_in_shift(even_shift, x) == "yes"
    assert point_in_shift(even_shift, x_bad) == "yes"
    assert decide_relation(x, x_bad, "stable")
    with pytest.raises(NotConstructive):
        construct_germ(even_shift, x, x_bad, "lcs")


def test_lifted_germ_accepts_phase_match(even_shift):
    x = BiSeq(("1",), ("1",), ("0",), -5)
    x_ok = BiSeq(("1",), ("1",), ("0",), -7)  # same parity of the zero ray
    assert decide_relation(x, x_ok, "stable")
    g = construct_germ(even_shift, x, x_ok, "lcs")
    assert g.apply(x) == x_ok


def test_sampled_lcs_class_equals_stable_class_at_periodic_base(even_shift):
    # at the synchronizing periodic base point, one-sided germs exist for
    # every sampled stably equivalent partner
    base = ONES
    pts = [p for p in enumerate_points(even_shift, core_len=2)
           if point_in_shift(even_shift, p) == "yes"]
    partners = [p for p in pts if decide_relation(p, base, "stable")]
    assert len(partners) > 3
    for p in partners:
        g = construct_germ(even_shift, base, p, "lcs")
        assert g.apply(base) == p
    upartners = [p for p in pts if decide_relation(p, base, "unstable")]
    for p in upartners:
        g = construct_germ(even_shift, base, p, "lcu")
        assert g.apply(base) == p


def test_heteroclinic_bridge_trivial(even_shift):
    x, y, gx, gy = heteroclinic_bridge(even_shift, ONES, ONES, ONES)
    assert x == ONES and y == ONES


def test_heteroclinic_bridge_even(even_shift):
    z = BiSeq(("1",), ("0", "0", "1"), ("1",), 0)
    assert point_in_shift(even_shift, z) == "yes"
    x, y, gx, gy = heteroclinic_bridge(even_shift, z, ONES, ONES)
    assert decide_relation(x, ONES, "unstable")
    assert decide_relation(y, ONES, "stable")
    assert gx.apply(x) == z
    assert gy.apply(y) == z


def test_heteroclinic_bridge_golden(golden_mean):
    orbit = BiSeq.periodic(("0", "1"))
    x, y, gx, gy = heteroclinic_bridge(golden_mean, ZEROS, orbit, ZEROS)
    assert decide_relation(x, orbit, "unstable")
    assert decide_relation(y, ZEROS, "stable")


def test_sync_bridge_trivial(even_shift):
    assert sync_bridge(even_shift, ONES, ONES, ONES, ONES) == ONES


def test_sync_bridge_even(even_shift):
    x = BiSeq(("1",), (), ("0",), 2)   # ones past, zeros future: in X^u(1)
    y = BiSeq(("0",), (), ("1",), -2)  # zeros past, ones future: in X^s(1)
    assert point_in_shift(even_shift, x) == "yes"
    assert point_in_shift(even_shift, y) == "yes"
    z = sync_bridge(even_shift, x, y, ONES, ONES)
    assert classify_point(even_shift, z).status == "synchronizing"
    assert decide_relation(z, x, "stable")
    assert decide_relation(z, y, "unstable")


def test_sync_bridge_golden(golden_mean):
    x = BiSeq(("0",), ("1",), ("0",), 3)
    y = BiSeq(("0",), ("1",), ("0",), -3)
    z = sync_bridge(golden_mean, x, y, ZEROS, ZEROS)
    assert decide_relation(z, x, "stable")
    assert decide_relation(z, y, "unstable")


def test_proved_germs_pass_verification(golden_mean, even_shift, even_times_golden):
    # the bridges and rectangle_germs return their germs unverified, as
    # splices at 0 inside a synchronizing central word; every one verifies
    three_gap = build_sofic(Alphabet(("0", "1")), Presentation.build(
        "ABC", [("A", "1", "A"), ("A", "0", "B"), ("B", "0", "C"), ("C", "0", "A")]))
    heteroclinic = bridges = rectangles = 0
    for s in (golden_mean, even_shift, three_gap, even_times_golden):
        points = enumerate_points(s, core_len=1)
        bases = [p for p in points if not p.core and p.left == p.right
                 and classify_point(s, p).status == "synchronizing"][:2]
        for p in bases:
            xs = [x for x in points if decide_relation(x, p, "unstable")][1:4]
            ys = [y for y in points if decide_relation(y, p, "stable")
                  and classify_point(s, y).status == "synchronizing"][1:4]
            # z in one class of p: the bridge joins z's other side to p
            for z in ys + [x for x in xs if classify_point(s, x).status == "synchronizing"]:
                _, _, gx, gy = heteroclinic_bridge(s, z, p, p)
                assert verify_germ(gx) >= 1 and verify_germ(gy) >= 1
                heteroclinic += 2
            for y in ys:
                n = sync_radius(s, y)
                for x in xs:
                    try:
                        z = sync_bridge(s, x, y, p, p)
                    except SearchExhausted:
                        continue
                    assert verify_germ(Germ(s, "lcu", z, y, 1 - n, None, FutureRule(y, 0))) >= 1
                    bridges += 1
        for N in (2, 3):
            for base in [p for p in bases if sync_radius(s, p) <= N]:
                for y in enumerate_points(s):
                    if agree_on(base, y, 1 - N, N):
                        gu, gs = rectangle_germs(s, base, y, N)
                        assert verify_germ(gu) >= 1 and verify_germ(gs) >= 1
                        rectangles += 2
    assert heteroclinic >= 60 and bridges >= 50 and rectangles >= 150


def test_sft_germs_pass_verification(golden_mean, even_shift):
    # ruelle_germ and the one-sided SFT germs are returned unverified, as
    # their memory buffer proves them sound; every one verifies
    two_step = build_sft(Alphabet(("0", "1")), {word("111"), word("00")})
    sofic_golden = parse_spec_text(SOFIC_GOLDEN).shift
    edge_shift = canonical_cover(even_shift).source
    for s in (golden_mean, two_step, sofic_golden, edge_shift):
        points = enumerate_points(s, core_len=1)
        seen = Counter()
        for x, y in permutations(points, 2):
            for kind in KINDS:
                try:
                    g = construct_germ(s, x, y, kind)
                except NotConstructive:
                    continue
                assert verify_germ(g) >= 1, (s, x, y, kind)
                seen[type(g.rule)] += 1
        assert set(seen) == {BlockRule, PastRule, FutureRule}, (s, seen)


def test_one_sided_lifted_germs_pass_verification(even_shift, even_times_golden):
    # lcs/lcu lifted germs are returned unverified once both endpoints have a
    # singleton tail set at the domain's edge; every one verifies
    three_gap = build_sofic(Alphabet(("0", "1")), Presentation.build(
        "ABC", [("A", "1", "A"), ("A", "0", "B"), ("B", "0", "C"), ("C", "0", "A")]))
    three_state = parse_spec_text(THREE_STATE).shift
    cases = [(even_shift, 4), (three_gap, 4), (even_times_golden, 3), (three_state, 4)]
    cases += [(s, 4) for s in _random_shifts(40, seed=1) if s.memory is None]
    seen = Counter()
    for s, size in cases:
        points = [p for p in enumerate_points(s, core_len=1) if p.description_size() <= size]
        for x, y in permutations(points, 2):
            for kind in ("lcs", "lcu"):
                try:
                    g = construct_germ(s, x, y, kind, verify=False)
                except NotConstructive:
                    continue
                assert type(g.rule) is LiftedRule and verify_germ(g) >= 1, (s, x, y, kind)
                seen[kind] += 1
    assert seen["lcs"] >= 200 and seen["lcu"] >= 50, seen


@pytest.mark.parametrize("kind", KINDS)
def test_sft_germs_refuse_endpoints_outside_the_shift(golden_mean, kind):
    # 11 is forbidden, yet the point is homoclinic to 0^oo in every sense,
    # so only the membership check stops the proved constructions
    outside = BiSeq(("0",), ("1", "1"), ("0",), 0)
    for x, y in ((ZEROS, outside), (outside, ZEROS)):
        with pytest.raises(NotInShift):
            construct_germ(golden_mean, x, y, kind)
    if kind == "lc":
        with pytest.raises(NotInShift):
            ruelle_germ(golden_mean, ZEROS, outside)


def test_groupoid_arrows_verify_in_both_directions():
    # the lc germ between these two verifies only one way round, so the
    # pair is left out; every arrow kept verifies
    s = parse_spec_text(THREE_STATE).shift
    arrows = groupoid_sample(s, "lc", bound=5)
    x = BiSeq(("a", "b"), (), ("a", "c"), 0)
    y = BiSeq(("a", "b"), ("b",), ("c", "a"), 0)
    assert {(x, y), (y, x)}.isdisjoint((a.source, a.target) for a in arrows)
    assert len(arrows) > 100
    for a in arrows:
        assert verify_germ(a.germ) >= 1, (a.source, a.target)


def test_groupoid_lc_golden_matches_homoclinic(golden_mean):
    arrows = groupoid_sample(golden_mean, "lc", bound=4)
    sampled = {(a.source, a.target) for a in arrows}
    pts = [p for p in enumerate_points(golden_mean, core_len=2)
           if p.description_size() <= 4 and point_in_shift(golden_mean, p) == "yes"]
    for x in pts:
        for y in pts:
            if decide_relation(x, y, "homoclinic"):
                assert (x, y) in sampled or (y, x) in sampled


def test_groupoid_lcsync_avoids_nonsync(even_shift):
    arrows = groupoid_sample(even_shift, "lcsync", bound=6)
    assert arrows
    for a in arrows:
        assert a.source != ZEROS and a.target != ZEROS


def test_groupoid_lcs_stays_in_unstable_class(even_shift):
    arrows = groupoid_sample(even_shift, "lcs", P=(ONES,), bound=6)
    assert arrows
    for a in arrows:
        assert decide_relation(a.source, ONES, "unstable")
        assert decide_relation(a.target, ONES, "unstable")


def test_groupoid_axioms_on_sample(even_shift):
    arrows = groupoid_sample(even_shift, "lc", bound=6)
    by_pair = {}
    for a in arrows:
        by_pair.setdefault((a.source, a.target), []).append(a)
    # identities present
    sources = {a.source for a in arrows} | {a.target for a in arrows}
    for x in sources:
        assert (x, x) in by_pair
    # inverses present
    for (x, y) in by_pair:
        assert (y, x) in by_pair
    # composable pairs compose, and the composite germ agrees with the
    # sampled arrow on the overlapping domain (local conjugacy uniqueness)
    pairs = list(by_pair)
    count = 0
    for (x, y) in pairs:
        for (y2, z) in pairs:
            if y2 != y or count > 30:
                continue
            g1 = by_pair[(x, y)][0].germ
            g2 = by_pair[(y, z)][0].germ
            composed = g1.compose(g2)
            assert composed.apply(x) == z
            if (x, z) in by_pair:
                direct = by_pair[(x, z)][0].germ
                assert direct.apply(x) == composed.apply(x)
                count += 1
    assert count > 0


def test_verify_germ_raises_when_source_misses_target(golden_mean):
    # a typed error, so the check also runs under ``python -O``
    target = BiSeq(("0",), ("1",), ("0",), 0)
    germ = Germ(golden_mean, "lc", ZEROS, target, -2, 2, IdentityRule())
    with pytest.raises(InvariantViolation):
        verify_germ(germ)


def test_verify_germ_reports_an_image_outside_the_shift(golden_mean):
    # the rule writes the forbidden word 11, so ``Germ.apply`` raises
    # ``NotInShift``; ``verify_germ`` reports a failed check instead
    germ = Germ(golden_mean, "lc", ZEROS, ZEROS, -2, 2, BlockRule(5, ("1", "1")))
    with pytest.raises(NotInShift):
        germ.apply(ZEROS)
    with pytest.raises(InvariantViolation, match="leaves the shift"):
        verify_germ(germ)


@dataclass(frozen=True)
class _Rotate:
    """Rotates a point's right (``right``) or left cycle by one symbol, so
    the image of (01)^oo differs from it on a whole half-line."""

    right: bool

    def apply(self, s, z):
        if self.right:
            return BiSeq(z.left, z.core, z.right[1:] + z.right[:1], z.origin)
        return BiSeq(z.left[1:] + z.left[:1], z.core, z.right, z.origin)


def test_verify_germ_decides_each_half_line(full_two):
    # the one sample is the source (01)^oo, whose image differs from it at
    # every coordinate >= 0; their alignment bound is below the window, so
    # a scan cut at that bound would read no coordinate past it
    x = BiSeq.periodic(("0", "1"))
    rule = _Rotate(right=True)
    germ = Germ(full_two, "lc", x, rule.apply(full_two, x), -5, 5, rule)
    with pytest.raises(InvariantViolation, match="after 6"):
        verify_germ(germ, budget=1)
    # the mirror image: the left cycle rotated; the second sample is the
    # source, edited at every coordinate < 0
    rule = _Rotate(right=False)
    germ = Germ(full_two, "lcu", x, rule.apply(full_two, x), 0, None, rule)
    assert verify_germ(germ, budget=1) == 1
    with pytest.raises(InvariantViolation, match="before -1"):
        verify_germ(germ, budget=2)


@pytest.mark.parametrize("kind", KINDS)
def test_oracle_germs_stop_at_the_presentation(ray_oracle, kind):
    # a^oo b a^oo is homoclinic to a^oo, so every kind reaches the cover,
    # which an oracle shift does not have
    x = BiSeq.constant("a")
    y = BiSeq(("a",), ("b",), ("a",), 0)
    with pytest.raises(Unverified):
        construct_germ(ray_oracle, x, y, kind)


@pytest.mark.parametrize("kind", KINDS)
def test_identity_germ_needs_a_point_of_the_shift(golden_mean, even_shift, ray_oracle, kind):
    # 11 is forbidden on the golden mean shift, an odd zero run on the even
    # shift, and a c right after an a (height 1) on the ray
    cases = ((golden_mean, "L=0 C=11 O=0 R=0", "L=0 C= O=0 R=0"),
             (even_shift, "L=1 C=010 O=0 R=1", "L=1 C=00 O=0 R=1"),
             (ray_oracle, "L=a C=c O=0 R=a", "L=a C=bc O=0 R=a"))
    for s, outside, inside in cases:
        x = parse_point(outside)
        with pytest.raises(NotInShift, match="is not in the shift"):
            construct_germ(s, x, x, kind)
        y = parse_point(inside)
        assert isinstance(construct_germ(s, y, y, kind).rule, IdentityRule)


# -- refusals ----------------------------------------------------------------

def test_germ_constructions_refuse_unknown_kinds(golden_mean, even_shift):
    one0 = BiSeq(("0",), ("1",), ("0",), 0)
    with pytest.raises(ValueError, match="unknown germ kind"):
        construct_germ(golden_mean, ZEROS, one0, "ls")
    with pytest.raises(InvariantViolation, match="unknown germ kind"):
        verify_germ(Germ(golden_mean, "ls", ZEROS, ZEROS, -2, 2, IdentityRule()))
    with pytest.raises(ValueError, match=r"needs \(lcs, lcu\) germs"):
        compose_lcs_lcu(even_shift, identity_germ(even_shift, ONES, "lcu"),
                        identity_germ(even_shift, ONES, "lcs"), ONES, ONES)
    with pytest.raises(ValueError, match="unknown groupoid selector"):
        groupoid_sample(golden_mean, "lcx")


def test_germs_refuse_to_chain_or_to_leave_their_domain(golden_mean):
    one0 = BiSeq(("0",), ("1",), ("0",), 0)
    one1 = BiSeq(("0",), ("1",), ("0",), 1)
    g = construct_germ(golden_mean, ZEROS, one0, "lc")
    with pytest.raises(ValueError, match="do not chain"):
        g.compose(construct_germ(golden_mean, ZEROS, one1, "lc"))
    with pytest.raises(ValueError, match="do not chain"):
        g.compose(construct_germ(golden_mean, one0, one1, "lcs"))
    # one1 differs from the source at 1, inside the domain [-3, 3]
    with pytest.raises(NotInDomain):
        g.apply(one1)


def test_conjugated_germ_domain_and_window(golden_mean):
    # conjugating by -2 moves the lc domain [-3, 3] to [-1, 5]; a point
    # that differs from the source only past dom_hi stays inside it
    y = parse_point("L=0 C=1 O=0 R=0")
    g = construct_germ(golden_mean, ZEROS, y, "lc").conjugate(-2)
    assert (g.dom_lo, g.dom_hi, g.window) == (-1, 5, 6)
    assert g.contains(parse_point("L=0 C=1 O=10 R=0"))
    assert not g.contains(parse_point("L=0 C=1 O=5 R=0"))


def test_rectangle_germs_refuse_a_radius_below_the_witness(even_shift):
    # x synchronizes only from radius 4, where its central word holds the 1
    x = BiSeq(("0",), ("1",), ("0",), 3)
    with pytest.raises(NotSynchronizing, match="radius 2"):
        rectangle_germs(even_shift, x, x, 2)


@pytest.mark.parametrize("bridge", ["heteroclinic", "sync"])
def test_bridges_refuse_a_non_mixing_shift_and_a_non_periodic_base(
        golden_mean, period_two, bridge):
    def build(s, z, p):
        if bridge == "heteroclinic":
            return heteroclinic_bridge(s, z, p, p)
        return sync_bridge(s, z, z, p, p)

    ab = BiSeq.periodic(("a", "b"))
    with pytest.raises(NotSynchronizing, match="mixing shift"):
        build(period_two, ab, ab)
    with pytest.raises(NotSynchronizing, match="is not periodic"):
        build(golden_mean, ZEROS, BiSeq(("0",), ("1",), ("0",), 0))


def test_sync_bridge_refuses_points_outside_the_base_classes(golden_mean):
    orbit = BiSeq.periodic(("0", "1"))
    with pytest.raises(NotSynchronizing, match="unstable class of p"):
        sync_bridge(golden_mean, orbit, ZEROS, ZEROS, ZEROS)
    with pytest.raises(NotSynchronizing, match="stable class of q"):
        sync_bridge(golden_mean, ZEROS, orbit, ZEROS, ZEROS)
