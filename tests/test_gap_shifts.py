"""Cross-module scenario on a three-state cover: the 3-gap shift.

Zero runs between ones must have length divisible by three; the
minimal cover has three states, so this exercises subset structure,
preimage counting, and germ lifting beyond the two-state builtins.
"""

import pytest

from synchrolab.conjugacy import construct_germ, groupoid_sample
from synchrolab.errors import NotConstructive, NotIrreducible
from synchrolab.factor import CoverMap, degree_bound, preimage_count
from synchrolab.invariants import exact_sequence_report
from synchrolab.periodic import enumerate_periodic, periodic_density_check
from synchrolab.points import BiSeq, enumerate_points, point_in_shift
from synchrolab.presentation import Presentation
from synchrolab.shift import Alphabet, build_sofic, fischer_cover
from synchrolab.sync import classify_point, nonsync_subshift, sync_density_check

ZEROS = BiSeq.constant("0")
ONES = BiSeq.constant("1")


@pytest.fixture(scope="module")
def three_gap():
    p = Presentation.build(
        ["A", "B", "C"],
        [("A", "1", "A"), ("A", "0", "B"), ("B", "0", "C"), ("C", "0", "A")])
    return build_sofic(Alphabet(("0", "1")), p)


def test_three_gap_cover_and_flags(three_gap):
    cover = fischer_cover(three_gap)
    assert len(cover.states) == 3
    assert three_gap.flags() == {"irreducible": True, "mixing": True, "period": 1}


def test_three_gap_membership(three_gap):
    assert point_in_shift(three_gap, ZEROS) == "yes"
    assert point_in_shift(three_gap, ONES) == "yes"
    ok = BiSeq(("1",), ("0", "0", "0"), ("1",), 0)
    assert point_in_shift(three_gap, ok) == "yes"
    bad = BiSeq(("1",), ("0", "0"), ("1",), 0)
    assert point_in_shift(three_gap, bad) == "no"


def test_three_gap_nonsync_is_all_zeros(three_gap):
    report = nonsync_subshift(three_gap)
    assert report.finiteness == "finite"
    assert report.points == (ZEROS,)
    assert classify_point(three_gap, ZEROS).status == "nonSynchronizing"
    assert classify_point(three_gap, ONES).status == "synchronizing"
    seq = exact_sequence_report(three_gap)
    assert seq.m == 1 and seq.quotient == "C^1"


def test_three_gap_periodic_counts(three_gap):
    # period 1: the two fixed points; period 4: 1^inf, 0^inf, and the
    # four rotations of (0001)^inf
    assert enumerate_periodic(three_gap, 1).count == 2
    per4 = enumerate_periodic(three_gap, 4).points
    assert len(per4) == 6
    assert BiSeq.periodic(("0", "0", "0", "1")) in per4
    # no admissible point of least period 2 or 3 beyond the fixed points
    assert enumerate_periodic(three_gap, 2).count == 2
    assert enumerate_periodic(three_gap, 3).count == 2


def test_three_gap_density(three_gap, density_holds):
    density_holds(three_gap, sync_density_check(three_gap, 5), sync=True)
    density_holds(three_gap, periodic_density_check(three_gap, 5), sync=False)


def test_three_gap_preimages(three_gap):
    cover = CoverMap.of_shift(three_gap)
    assert degree_bound(cover) == 3
    assert preimage_count(cover, ZEROS)["count"] == 3  # three phases
    assert preimage_count(cover, ONES)["count"] == 1
    with_one = BiSeq(("1",), ("0", "0", "0"), ("1",), 0)
    assert preimage_count(cover, with_one)["count"] == 1


def test_three_gap_lifted_germs(three_gap):
    x = BiSeq(("1",), ("0", "0", "0"), ("1",), 0)
    y = BiSeq(("1",), ("0", "0", "0"), ("1",), 3)  # zero block shifted right
    assert point_in_shift(three_gap, y) == "yes"
    g = construct_germ(three_gap, x, y, "lc")
    assert g.apply(x) == y
    # zero-phase obstruction: 0-tails at different residues mod 3 admit
    # no one-sided germ even though the points are stably equivalent
    u = BiSeq(("1",), (), ("0",), 0)
    v = BiSeq(("1",), (), ("0",), 1)
    from synchrolab.points import decide_relation
    assert decide_relation(u, v, "stable")
    with pytest.raises(NotConstructive):
        construct_germ(three_gap, u, v, "lcs")


def test_three_gap_groupoid_avoids_zeros(three_gap):
    arrows = groupoid_sample(three_gap, "lcsync", bound=7)
    assert arrows
    for a in arrows:
        assert a.source != ZEROS and a.target != ZEROS


def test_reducible_sofic_rejected_by_report():
    p = Presentation.build(
        ["A", "B"], [("A", "0", "A"), ("B", "1", "B")])
    s = build_sofic(Alphabet(("0", "1")), p)
    with pytest.raises(NotIrreducible):
        exact_sequence_report(s)
