"""Synchronizing words, point classification, rectangles, the non-sync set."""

import pytest

from synchrolab.errors import NotInLanguage, NotInShift, NotSynchronizing, WindowTooSmall
from synchrolab.points import BiSeq, distance, enumerate_points, point_in_shift, shift_by
from synchrolab.presentation import Presentation
from synchrolab.shift import Alphabet, build_sofic, word
from synchrolab.sync import (SyncVerdict, classify_point, is_sync_word, nonsync_subshift,
                             rectangle_check, sync_density_check, sync_radius)

ZEROS = BiSeq.constant("0")
ONES = BiSeq.constant("1")


def test_sync_word_examples(even_shift, golden_mean):
    assert is_sync_word(even_shift, word("1"))
    assert not is_sync_word(even_shift, word("00"))
    assert is_sync_word(golden_mean, word("1"))
    assert is_sync_word(golden_mean, word("0"))


def test_sync_word_not_in_language(even_shift):
    with pytest.raises(NotInLanguage):
        is_sync_word(even_shift, word("101"))


def test_sync_word_extension_closure(even_shift):
    # any admissible extension of a synchronizing word synchronizes
    for w in even_shift.words(6):
        if not w or not is_sync_word(even_shift, w):
            continue
        for u in even_shift.words(2):
            for v in even_shift.words(2):
                from synchrolab.shift import contains_word
                if contains_word(even_shift, u + w + v):
                    assert is_sync_word(even_shift, u + w + v)


def test_classify_examples(even_shift, golden_mean):
    assert classify_point(even_shift, ZEROS).status == "nonSynchronizing"
    verdict = classify_point(even_shift, ONES)
    assert verdict.status == "synchronizing"
    assert verdict.witness == ("1",)
    assert is_sync_word(even_shift, verdict.witness)


def test_every_golden_mean_point_synchronizes(golden_mean):
    for p in enumerate_points(golden_mean, core_len=2):
        assert classify_point(golden_mean, p).status == "synchronizing", p


def test_classify_shift_invariance(even_shift, golden_mean, even_times_golden):
    for s in (even_shift, golden_mean, even_times_golden):
        for p in enumerate_points(s, core_len=1)[:40]:
            status = classify_point(s, p).status
            assert classify_point(s, shift_by(p, 1)).status == status
            assert classify_point(s, shift_by(p, -1)).status == status


def test_classify_openness_witness(even_shift):
    # every point that close to a synchronizing point synchronizes too
    for p in enumerate_points(even_shift, core_len=2):
        verdict = classify_point(even_shift, p)
        if verdict.status != "synchronizing":
            continue
        n = verdict.window_used
        for q in enumerate_points(even_shift, core_len=2):
            d = distance(p, q)
            if d.is_zero or d.k > n:  # d < 2^-n
                assert classify_point(even_shift, q).status == "synchronizing"


def test_classify_oracle_decided(ray_oracle):
    # decided: a word of the ray shift synchronizes iff it holds an a
    p = BiSeq.periodic(("a", "b", "b", "c", "c"))
    assert classify_point(ray_oracle, p) == SyncVerdict("synchronizing", ("a",), 0)
    assert classify_point(ray_oracle, BiSeq.constant("b")).status == "nonSynchronizing"


def test_product_of_sync_points_is_sync(even_times_golden):
    pair = BiSeq.constant("1|0")
    assert point_in_shift(even_times_golden, pair) == "yes"
    assert classify_point(even_times_golden, pair).status == "synchronizing"


def test_product_pair_with_nonsync_coordinate_is_nonsync(even_times_even):
    both_zero = BiSeq.constant("0|0")
    assert classify_point(even_times_even, both_zero).status == "nonSynchronizing"
    zero_one = BiSeq.constant("0|1")
    assert classify_point(even_times_even, zero_one).status == "nonSynchronizing"
    ones_pair = BiSeq.constant("1|1")
    assert classify_point(even_times_even, ones_pair).status == "synchronizing"


def test_sync_radius_matches_brute_force(golden_mean, even_shift, even_times_golden):
    # the least N >= 2 whose central word x[1-N..N-1] synchronizes, read
    # word by word; no small point needs a radius past 12
    gap3 = build_sofic(Alphabet(("0", "1")), Presentation.build(
        "ABC", [("A", "1", "A"), ("A", "0", "B"), ("B", "0", "C"), ("C", "0", "A")]))
    radii, refused = 0, 0
    for s in (golden_mean, even_shift, gap3, even_times_golden):
        for x in enumerate_points(s):
            want = next((N for N in range(2, 13) if is_sync_word(s, x.window(1 - N, N))), None)
            if want is None:
                with pytest.raises(NotSynchronizing):
                    sync_radius(s, x)
                refused += 1
            else:
                assert sync_radius(s, x) == want, (s, x)
                radii += 1
    assert radii > 100 and refused > 0
    with pytest.raises(NotSynchronizing):
        sync_radius(even_shift, ZEROS)


def test_sync_radius_refusals(golden_mean, ray_oracle):
    with pytest.raises(NotInShift):
        sync_radius(golden_mean, BiSeq.constant("1"))
    assert sync_radius(ray_oracle, BiSeq.periodic(("a", "b", "b", "c", "c"))) == 2
    with pytest.raises(NotSynchronizing):
        sync_radius(ray_oracle, BiSeq.constant("b"))
    with pytest.raises(NotInShift):
        sync_radius(ray_oracle, BiSeq.periodic(("a", "c")))


def test_rectangle_check_golden_mean(golden_mean):
    report = rectangle_check(golden_mean, ZEROS, N=2, L=6)
    assert report["passed"]
    assert report["unstable_samples"] > 1 and report["stable_samples"] > 1


def test_rectangle_check_even_ones(even_shift):
    report = rectangle_check(even_shift, ONES, N=2, L=6)
    assert report["passed"]


def test_rectangle_check_rejects_nonsync(even_shift):
    with pytest.raises(NotSynchronizing):
        rectangle_check(even_shift, ZEROS, N=2, L=6)


def test_rectangle_check_rejects_a_radius_below_the_witness(even_shift):
    # x synchronizes, but only from radius 4, where its central word holds the 1
    x = BiSeq(("0",), ("1",), ("0",), 3)
    assert sync_radius(even_shift, x) == 4
    assert rectangle_check(even_shift, x, N=4, L=6)["passed"]
    with pytest.raises(NotSynchronizing, match="radius 2"):
        rectangle_check(even_shift, x, N=2, L=6)


def test_rectangle_check_refuses_a_window_with_no_representative():
    # representatives close into cycles of length <= 2, and the 3-cycle
    # P -a-> Q -b-> R -c-> P has none
    cycle = build_sofic(Alphabet(("a", "b", "c")), Presentation.build(
        "PQR", [("P", "a", "Q"), ("Q", "b", "R"), ("R", "c", "P")]))
    with pytest.raises(WindowTooSmall, match="window 6"):
        rectangle_check(cycle, BiSeq.periodic(("a", "b", "c")), N=2, L=6)


@pytest.mark.parametrize("N", [1, 0, -1])
def test_rectangle_check_rejects_radius_below_two(golden_mean, N):
    with pytest.raises(ValueError, match="N >= 2"):
        rectangle_check(golden_mean, ZEROS, N=N, L=6)


def test_nonsync_even_shift(even_shift):
    report = nonsync_subshift(even_shift)
    assert report.finiteness == "finite"
    assert report.count == 1
    assert report.points == (ZEROS,)
    for p in report.points:
        assert classify_point(even_shift, p).status == "nonSynchronizing"


def test_nonsync_golden_mean_empty(golden_mean):
    report = nonsync_subshift(golden_mean)
    assert report.finiteness == "finite"
    assert report.count == 0


def test_nonsync_full_and_period_two(full_two, period_two):
    assert nonsync_subshift(full_two).count == 0
    assert nonsync_subshift(period_two).count == 0


def test_nonsync_points_read_each_cycle_forward():
    # the non-synchronizing set is the orbit of (abc)^inf, whose reversal
    # (cba)^inf lies in no rotation of it
    s = build_sofic(Alphabet(("a", "b", "c")), Presentation.build(
        ["q0", "q1", "q2"], [("q0", "a", "q2"), ("q0", "c", "q1"), ("q1", "a", "q1"),
                             ("q1", "b", "q2"), ("q2", "b", "q0"), ("q2", "c", "q0")]))
    report = nonsync_subshift(s)
    assert report.points == tuple(BiSeq.periodic(("a", "b", "c"), phase) for phase in range(3))
    for p in report.points:
        assert classify_point(s, p).status == "nonSynchronizing"


def test_nonsync_product_even_even_is_infinite(even_times_even):
    # one non-synchronizing coordinate already blocks synchronization, so
    # the non-sync set contains {all-zeros} x X_even and is infinite
    report = nonsync_subshift(even_times_even)
    assert report.finiteness == "infinite" and report.count is None
    mixed = BiSeq.periodic(("0|1",))
    assert point_in_shift(even_times_even, mixed) == "yes"
    assert classify_point(even_times_even, mixed).status == "nonSynchronizing"


def test_nonsync_consistency_with_periodic_enumeration(even_shift, golden_mean):
    from synchrolab.periodic import enumerate_periodic
    for s in (even_shift, golden_mean):
        report = nonsync_subshift(s)
        assert report.finiteness == "finite"
        listed = set(report.points)
        for n in range(1, 7):
            for p in enumerate_periodic(s, n).points:
                expected = "nonSynchronizing" if p in listed else "synchronizing"
                assert classify_point(s, p).status == expected, p


def test_nonsync_points_fail_rectangle_at_all_small_radii(even_shift):
    # cross-validation: for the non-sync point, splices within every
    # central cylinder are refutable
    from synchrolab.points import splice
    for N in range(2, 6):
        y = BiSeq(("0",), (), ("1",), N)       # zeros below N, ones after
        z = BiSeq(("1",), (), ("0",), -N - 1)  # ones below -N-1, zeros after
        assert point_in_shift(even_shift, y) == "yes"
        assert point_in_shift(even_shift, z) == "yes"
        # both agree with all-zeros on |i| <= N-1, yet the splice has a
        # zero run of odd length 2N+1
        r = splice(y, z)
        assert point_in_shift(even_shift, r) == "no", N


def test_sync_density_even_and_golden(even_shift, golden_mean, density_holds):
    for s in (even_shift, golden_mean):
        density_holds(s, sync_density_check(s, 6), sync=True)


def test_sync_density_ray_oracle(ray_oracle, density_holds):
    report = sync_density_check(ray_oracle, 4)
    density_holds(ray_oracle, report, sync=True)
    for entry in report["entries"]:
        assert "a" in entry["witness"]
