"""Periodic enumeration and the bracket-iteration recursion."""

import random
import re

import pytest

from synchrolab import periodic
from synchrolab.cli import main
from synchrolab.errors import EmptyShift, NotInShift, NotSynchronizing, SearchExhausted
from synchrolab.invariants import IntMatrix
from synchrolab.periodic import (enumerate_periodic, find_periodic_by_bracket,
                                 find_return, minimal_period, multiply_covered_cycles,
                                 periodic_counts, periodic_density_check, zeta)
from synchrolab.points import (BiSeq, agree_on, bracket, distance, enumerate_points,
                               point_in_shift, replace_window, shift_by)
from synchrolab.presentation import Presentation, determinize
from synchrolab.shift import Alphabet, build_sft, build_sofic, fischer_cover
from synchrolab.sync import classify_point, is_sync_word

from membership_reference import reference_point_in_shift, reference_trace_power

ZEROS = BiSeq.constant("0")
ONES = BiSeq.constant("1")


def adjacency(p):
    states = list(p.states)
    index = {q: i for i, q in enumerate(states)}
    entries = [[0] * len(states) for _ in states]
    for (u, _, v) in p.edges:
        entries[index[u]][index[v]] += 1
    return IntMatrix.from_rows(entries)


def brute_force_periodic_words(s, n):
    """Independent oracle: all length-n words whose periodization is a
    point, decided by the reference membership (window scan for SFTs,
    frozenset fixpoint for sofic shifts), not by ``point_in_shift``."""
    from itertools import product as iproduct
    points = set()
    for w in iproduct(s.alphabet.symbols, repeat=n):
        candidate = BiSeq.periodic(w)
        if reference_point_in_shift(s, candidate) == "yes":
            for phase in range(n):
                points.add(BiSeq.periodic(w, phase))
    return points


def test_golden_mean_counts_match_trace(golden_mean):
    cover = fischer_cover(golden_mean)
    a = adjacency(cover)
    expected = [1, 3, 4, 7, 11]
    for n, count in zip(range(1, 6), expected):
        ps = enumerate_periodic(golden_mean, n)
        assert ps.count == count
        assert reference_trace_power(a, n) == count
        assert ps.points == tuple(sorted(
            brute_force_periodic_words(golden_mean, n),
            key=lambda p: (p.description_size(), str(p))))


def test_even_shift_small_periods(even_shift):
    assert enumerate_periodic(even_shift, 1).points == (ZEROS, ONES)
    per3 = enumerate_periodic(even_shift, 3)
    assert per3.count == 5
    words = {p.right for p in per3.points}
    assert ("0",) in words and ("1",) in words
    # the three shifts of (001)^inf, and (011)^inf rejected
    assert BiSeq.periodic(("0", "0", "1")) in per3.points
    assert BiSeq.periodic(("0", "1", "1")) not in per3.points


def test_periodic_points_are_fixed_and_duplicate_free(even_shift, golden_mean):
    for s in (even_shift, golden_mean):
        for n in range(1, 6):
            ps = enumerate_periodic(s, n)
            assert len(set(ps.points)) == ps.count
            for p in ps.points:
                assert shift_by(p, n) == p


def test_divisor_periods_nest(even_shift, golden_mean, even_times_golden):
    for s in (even_shift, golden_mean, even_times_golden):
        sets = {n: set(enumerate_periodic(s, n).points) for n in range(1, 9)}
        for m in range(1, 9):
            for n in range(m, 9):
                if n % m == 0:
                    assert sets[m] <= sets[n]


def test_trace_agreement_up_to_eight(golden_mean, even_times_golden, full_two):
    # SFT edge shifts: counts equal trace(A^n)
    for s in (golden_mean, full_two):
        a = adjacency(fischer_cover(s))
        for n in range(1, 9):
            assert enumerate_periodic(s, n).count == reference_trace_power(a, n)


def lucas(n):
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def test_count_matches_trace_up_to_thirty(golden_mean, full_two):
    # trace(A^n) of the SFT's edge-shift cover stays the independent oracle
    for s in (golden_mean, full_two):
        a = adjacency(fischer_cover(s))
        for n in range(1, 31):
            assert periodic_counts(s, n)[-1] == reference_trace_power(a, n)


def test_zeta_with_a_singular_block():
    # no 111: the signed subset matrices have a singular 4 x 4 block, whose
    # det(I - tB) ends in zero coefficients that are dropped
    s = build_sft(Alphabet(("0", "1")), {("1", "1", "1")})
    assert zeta(s, 6) == ((1,), (1, -1, -1, -1), (1, 3, 7, 11, 21, 39))


def test_golden_mean_counts_are_lucas_numbers(golden_mean):
    numerator, denominator, counts = zeta(golden_mean, 500)
    assert (numerator, denominator) == ((1,), (1, -1, -1))
    assert counts == tuple(lucas(n) for n in range(1, 501))
    assert periodic_counts(golden_mean, 500)[-1] == lucas(500)


def series_quotient(f, g, n):
    """The first ``n`` coefficients of the power series f/g, g(0) = 1."""
    out = []
    for m in range(n):
        top = f[m] if m < len(f) else 0
        out.append(top - sum(g[i] * out[m - i] for i in range(1, min(m, len(g) - 1) + 1)))
    return out


def counts_from_zeta(numerator, denominator, n):
    """p_1 .. p_n as the coefficients of t ζ'/ζ = t (N'/N - D'/D)."""
    def log_derivative(poly):
        derivative = [i * c for i, c in enumerate(poly)][1:] or [0]
        return series_quotient(derivative, poly, n)
    num, den = log_derivative(numerator), log_derivative(denominator)
    return tuple(a - b for a, b in zip(num, den))


def test_counts_read_back_from_zeta_coefficients(golden_mean, even_shift, full_two,
                                                 period_two, even_times_golden):
    for s in (golden_mean, even_shift, full_two, period_two, even_times_golden):
        numerator, denominator, counts = zeta(s, 7)
        assert numerator[0] == denominator[0] == 1
        assert counts_from_zeta(numerator, denominator, 7) == counts
        assert counts == tuple(enumerate_periodic(s, n).count for n in range(1, 8))


def test_count_falls_back_past_the_limits(monkeypatch, even_shift, even_times_golden):
    expected = {s: [periodic_counts(s, n)[-1] for n in range(1, 7)]
                for s in (even_shift, even_times_golden)}
    for limit in ("_CANDIDATE_LIMIT", "_BLOCK_LIMIT"):
        with monkeypatch.context() as m:
            m.setattr(periodic, limit, 0)
            with pytest.raises(SearchExhausted, match="exceed.* the limit of 0"):
                zeta(even_shift, 3)
            calls = []
            m.setattr(periodic, "enumerate_periodic",
                      lambda s, n: calls.append(n) or enumerate_periodic(s, n))
            for s, counts in expected.items():
                assert [periodic_counts(s, n)[-1] for n in range(1, 7)] == counts
            # the fallback reads the trace and the multiply covered cycles
            assert calls == []


CLIFFS = {
    # the covers of ``bench/cliffs.py``: 86 states on 3 symbols, 59 and 48 on 2
    86: ("s0 b s1, s1 a s2, s1 a s5, s1 b s1, s2 a s3, s3 a s5, s3 c s4, s4 a s9, "
         "s4 b s5, s5 a s6, s5 b s2, s6 a s7, s6 b s6, s7 a s8, s7 a s9, s8 a s4, "
         "s8 b s9, s8 c s7, s9 b s1, s9 b s7, s9 c s0"),
    59: ("s0 b s1, s0 b s2, s0 b s4, s1 a s1, s1 a s2, s2 a s8, s2 b s3, s3 a s4, "
         "s4 a s5, s4 b s5, s5 b s6, s5 b s7, s6 a s7, s7 a s3, s7 b s8, s8 a s0, "
         "s8 b s0"),
    48: ("s0 a s1, s1 b s2, s2 a s3, s2 b s5, s3 a s0, s3 a s4, s3 b s1, s4 b s3, "
         "s4 b s5, s5 a s6, s5 b s6, s6 a s7, s7 a s3, s7 b s0, s7 b s4"),
}


def _sofic(edges):
    states = sorted({e[0] for e in edges} | {e[2] for e in edges})
    return build_sofic(Alphabet(tuple(sorted({e[1] for e in edges}))),
                       Presentation.build(states, edges))


def _random_sofics(count, seed):
    """Seeded labeled graphs, deterministic or not, with at most 4 states."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        states = range(rng.randint(1, 4))
        symbols = "abc"[:rng.randint(2, 3)]
        edges = {(rng.choice(states), rng.choice(symbols), rng.choice(states))
                 for _ in range(rng.randint(1, 3 * len(states)))}
        try:
            out.append(_sofic(edges))
        except EmptyShift:
            continue
    return out


def test_counts_past_the_limits_match_enumeration(monkeypatch):
    # p_n = tr(A^n) + sum(1 - c_w) over the multiply covered cycles of length n
    assert periodic_counts(_sofic([tuple(e.split()) for e in CLIFFS[86].split(", ")]), 1)[-1] > 0
    with pytest.raises(SearchExhausted):
        zeta(_sofic([tuple(e.split()) for e in CLIFFS[86].split(", ")]), 1)
    monkeypatch.setattr(periodic, "_CANDIDATE_LIMIT", 0)
    cases = [(s, 8 if len(s.alphabet) == 2 else 5) for s in _random_sofics(40, seed=11)]
    cases += [(_sofic([tuple(e.split()) for e in text.split(", ")]), 5 if size == 86 else 7)
              for size, text in CLIFFS.items()]
    corrected = 0
    for s, top in cases:
        want = tuple(enumerate_periodic(s, n).count for n in range(1, top + 1))
        assert periodic_counts(s, top) == want, s.presentation
        corrected += any(multiply_covered_cycles(determinize(s.presentation), top))
    assert corrected >= 10


def test_cli_count_only_reads_the_kernel(capsys):
    # enumerating the 2^200 words would never finish
    assert main(["periodic", "goldenmean", "--n", "200", "--count-only"]) == 0
    assert f"count: {lucas(200)}\n" in capsys.readouterr().out


def test_period_below_one_is_rejected(golden_mean):
    for call in (enumerate_periodic, periodic_counts, zeta):
        with pytest.raises(ValueError, match="period must be >= 1"):
            call(golden_mean, 0)


def test_periodic_density(even_shift, golden_mean, full_two, density_holds):
    for s in (even_shift, golden_mean):
        density_holds(s, periodic_density_check(s, 6), sync=False)
    density_holds(full_two, periodic_density_check(full_two, 4), sync=False)


def test_periodic_density_ray(ray_oracle, density_holds):
    density_holds(ray_oracle, periodic_density_check(ray_oracle, 4), sync=False)


def test_bracket_iteration_golden_instance(golden_mean):
    x = ZEROS
    y = BiSeq(("0",), ("1",), ("0",), 3)
    p = find_periodic_by_bracket(golden_mean, x, y, n=6, N=3)
    assert shift_by(p, 12) == p
    assert minimal_period(p) == 6
    assert p == BiSeq.periodic(("0", "0", "0", "1", "0", "0"), 0)
    d = distance(x, p)
    assert not d.is_zero and d.k >= 2  # d <= 2^-2
    assert p in enumerate_periodic(golden_mean, 6).points


def test_bracket_iteration_z_sequence_by_hand(golden_mean):
    # first two iterates computed by hand: 1s at {-3,3} then {-9,-3,3,9}
    from synchrolab.points import bracket
    y = BiSeq(("0",), ("1",), ("0",), 3)
    z0 = bracket(golden_mean, y, shift_by(y, 6), 3)
    assert z0 == BiSeq(("0",), ("1", "0", "0", "0", "0", "0", "1"), ("0",), -3)
    z1 = bracket(golden_mean, shift_by(z0, -6), shift_by(z0, 6), 3)
    ones_at = [i for i in range(-12, 13) if z1.at(i) == "1"]
    assert ones_at == [-9, -3, 3, 9]


def test_bracket_iteration_periodic_input_returns_immediately(even_shift):
    y = ONES
    p = find_periodic_by_bracket(even_shift, ONES, y, n=3, N=2)
    assert p == ONES


def test_bracket_iteration_even_shift_return(even_shift):
    x = ONES
    y, n = find_return(even_shift, x, 2)
    p = find_periodic_by_bracket(even_shift, x, y, n, 2)
    assert shift_by(p, 2 * n) == p
    assert point_in_shift(even_shift, p) == "yes"
    assert p in enumerate_periodic(even_shift, 2 * n).points
    d = distance(x, p)
    assert d.is_zero or d.k >= 1  # within 2^-(N-1)


def test_bracket_iteration_even_explicit_instance(even_shift):
    # ones base, return point carrying a 00-block at +3,+4 with n = 6:
    # both proximity conditions hold at radius 2^-2
    x = ONES
    y = BiSeq(("1",), ("0", "0"), ("1",), 3)
    assert point_in_shift(even_shift, y) == "yes"
    d1 = distance(x, y)
    d2 = distance(x, shift_by(y, 6))
    assert d1.k >= 2 and d2.k >= 2
    p = find_periodic_by_bracket(even_shift, x, y, n=6, N=2)
    assert shift_by(p, 12) == p
    assert p in enumerate_periodic(even_shift, 12).points


def test_bracket_recursion_stops_at_z1(golden_mean, even_shift, full_two):
    # [a, b] takes a's coordinates >= 0 and b's < 0, so z_1 reads y_(i mod n)
    # on [-n, n]: on every valid input the result is the periodization of
    # y's word on [0, n), and z_1 already agrees with it there
    gap = build_sofic(Alphabet(("0", "1")), Presentation.build("ABCD", [
        ("A", "1", "B"), ("B", "0", "A"), ("B", "0", "C"), ("C", "0", "D"), ("D", "0", "A")]))
    abc = build_sofic(Alphabet(("a", "b", "c")), Presentation.build("AB", [
        ("A", "a", "A"), ("A", "b", "B"), ("B", "c", "A"), ("B", "b", "B"), ("B", "a", "B")]))
    shifts = (golden_mean, even_shift, full_two, gap, abc)
    bases = [[x for x in enumerate_points(s) if classify_point(s, x).status == "synchronizing"]
             for s in shifts]
    rng = random.Random(19)
    returned = 0
    for _ in range(600):
        k = rng.randrange(len(shifts))
        s, x = shifts[k], rng.choice(bases[k])
        N, n = rng.randint(2, 4), rng.randint(1, 9)
        # x's central window at 0 and at n, free symbols between
        window = {i: x.at(i) for i in range(1 - N, N)}
        window.update({i + n: x.at(i) for i in range(1 - N, N)})
        y = replace_window(x, 1 - N, tuple(window.get(i, rng.choice(s.alphabet.symbols))
                                           for i in range(1 - N, n + N)))
        if (not is_sync_word(s, x.window(1 - N, N)) or point_in_shift(s, y) != "yes"
                or not agree_on(x, y, 1 - N, N) or not agree_on(x, shift_by(y, n), 1 - N, N)):
            continue
        p = find_periodic_by_bracket(s, x, y, n, N)
        assert p == BiSeq.periodic(y.window(0, n))
        z0 = bracket(s, y, shift_by(y, n), N)
        z1 = bracket(s, shift_by(z0, -n), shift_by(z0, n), N)
        assert agree_on(z1, p, -n, n + 1)
        returned += 1
    assert returned >= 200


def test_bracket_iteration_nonsync_base_rejected(even_shift):
    y = BiSeq(("0",), ("1",), ("0",), 5)
    with pytest.raises(NotSynchronizing):
        find_periodic_by_bracket(even_shift, ZEROS, y, n=4, N=2)


def test_bracket_iteration_rejects_a_radius_below_the_witness(even_shift):
    # x synchronizes only from radius 4; at radius 2 the ball conditions
    # hold for y = x and n = 1, but the recursion may not run
    x = BiSeq(("0",), ("1",), ("0",), 3)
    with pytest.raises(NotSynchronizing, match="radius 2"):
        find_periodic_by_bracket(even_shift, x, x, n=1, N=2)


@pytest.mark.parametrize("offset, name", [(0, "y"), (4, "shift^n(y)")])
def test_bracket_iteration_rejects_return_point_outside_the_ball(golden_mean, offset, name):
    # y carries a 1 at ``offset``: inside [-1, 1], or at 0 once shifted by n = 4
    y = BiSeq(("0",), ("1",), ("0",), offset)
    with pytest.raises(ValueError, match=re.escape(f"{name} is not within 2^-2")):
        find_periodic_by_bracket(golden_mean, ZEROS, y, n=4, N=2)


def test_bracket_iteration_rejects_return_point_outside_shift(golden_mean):
    # y carries 11 at 3, 4: both ball conditions hold, but y is no point
    y = BiSeq(("0",), ("1", "1"), ("0",), 3)
    with pytest.raises(NotInShift, match="return point is not in the shift"):
        find_periodic_by_bracket(golden_mean, ZEROS, y, n=6, N=2)


@pytest.mark.parametrize("argv, message", [
    (["--point", "L=1 C= O=0 R=1"], "point is not in the shift"),
    (["--point", "zeros", "--return-point", "L=0 C=11 O=3 R=0", "--n", "6", "--window", "2"],
     "return point is not in the shift"),
])
def test_cli_find_periodic_input_outside_shift(capsys, argv, message):
    assert main(["find-periodic", "goldenmean", *argv]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"NotInShift: {message}\n"


def test_ball_invariant_on_various_instances(golden_mean):
    # returned points stay within 2^-(N-1) of the base
    for (offset, n, N) in ((3, 6, 3), (4, 8, 3), (2, 4, 2)):
        y = BiSeq(("0",), ("1",), ("0",), offset)
        d0 = distance(ZEROS, y)
        if d0.k < N:
            continue
        p = find_periodic_by_bracket(golden_mean, ZEROS, y, n=n, N=N)
        d = distance(ZEROS, p)
        assert d.is_zero or d.k >= N - 1
