"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints one ``[ACCEPTANCE]`` line on success; a failing assert
marks the criterion red.  Run with ``pytest -s tests/test_acceptance.py``
to see the lines.
"""

import random
import time
from itertools import product as iproduct

from synchrolab.conjugacy import (compose_lcs_lcu, construct_germ,
                                  rectangle_germs, ruelle_germ, verify_germ)
from synchrolab.errors import NotConstructive
from synchrolab.factor import CoverMap, degree_bound, preimage_count
from synchrolab.invariants import (IntMatrix, bowen_franks, exact_sequence_report,
                                   smith_normal_form)
from synchrolab.periodic import (enumerate_periodic, find_periodic_by_bracket,
                                 minimal_period, periodic_density_check)
from synchrolab.points import (BiSeq, CylinderS, CylinderU, Dyadic, agree_on,
                               alignment_bound, decide_relation, distance,
                               enumerate_points, point_in_shift, shift_by)
from synchrolab.sync import (classify_point, nonsync_subshift, rectangle_check,
                             sync_density_check)

from membership_reference import reference_trace_power

ZEROS = BiSeq.constant("0")
ONES = BiSeq.constant("1")


def ok(number, text):
    print(f"[ACCEPTANCE] criterion {number}: PASS - {text}")


def exhaustive_points(max_description, cycle_len=2, core_len=3, origin_radius=2):
    symbols = ("0", "1")
    cycles = [w for n in range(1, cycle_len + 1) for w in iproduct(symbols, repeat=n)]
    cores = [w for n in range(core_len + 1) for w in iproduct(symbols, repeat=n)]
    seen = set()
    for left in cycles:
        for right in cycles:
            for core in cores:
                for origin in range(-origin_radius, origin_radius + 1):
                    p = BiSeq(left, core, right, origin)
                    if p.description_size() <= max_description:
                        seen.add(p)
    return sorted(seen, key=lambda p: (p.description_size(), str(p)))


def test_criterion_1_golden_mean_periodic_counts(golden_mean):
    started = time.monotonic()
    a = IntMatrix.from_rows([[1, 1], [1, 0]])
    expected = [1, 3, 4, 7, 11]
    for n, want in zip(range(1, 6), expected):
        got = enumerate_periodic(golden_mean, n).count
        assert got == want == reference_trace_power(a, n), (n, got)
    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    ok(1, f"golden mean |Per_n| = 1,3,4,7,11 = tr(A^n) in {elapsed:.3f}s")


def test_criterion_2_even_shift_nonsync_set(even_shift):
    started = time.monotonic()
    report = nonsync_subshift(even_shift)
    assert report.finiteness == "finite"
    assert report.count == 1
    assert report.points == (ZEROS,)
    seq = exact_sequence_report(even_shift)
    assert seq.m == 1 and seq.quotient == "C^1"
    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    ok(2, f"even shift m = 1 at the all-zeros point, quotient C^1 in {elapsed:.3f}s")


def test_criterion_3_even_cover_preimages(even_shift):
    cover = CoverMap.of_shift(even_shift)
    assert preimage_count(cover, ZEROS)["count"] == 2
    checked = 0
    for n in range(1, 5):
        for p in enumerate_periodic(even_shift, n).points:
            if "1" in p.symbols:
                assert preimage_count(cover, p)["count"] == 1, p
                checked += 1
    assert checked >= 6
    m = degree_bound(cover)
    assert m == 2
    samples = 0
    for p in enumerate_points(even_shift, core_len=3, origin_radius=2):
        if p.description_size() > 8 or point_in_shift(even_shift, p) != "yes":
            continue
        assert preimage_count(cover, p)["count"] <= m, p
        samples += 1
    assert samples >= 50
    ok(3, f"preimages: all-zeros 2, {checked} one-containing periodic points 1, "
          f"bound M=2 held on {samples} samples")


def test_criterion_4_bracket_iteration(golden_mean):
    x = ZEROS
    y = BiSeq(("0",), ("1",), ("0",), 3)
    p = find_periodic_by_bracket(golden_mean, x, y, n=6, N=3)
    assert shift_by(p, 12) == p
    d = distance(x, p)
    assert not d.is_zero and d.k >= 2  # d(x, p) <= 2^-2
    per6 = enumerate_periodic(golden_mean, 6).points
    assert p in per6
    assert minimal_period(p) == 6
    ok(4, f"recursion converged to {p} with shift^12 fixed, d <= 2^-2")


def test_criterion_5_rectangle_property(golden_mean, even_shift, even_times_golden):
    gm_pt = BiSeq(("0",), ("1",), ("0",), 2)
    ev_pt = BiSeq(("1",), ("0", "0"), ("1",), 2)
    cases = [
        (golden_mean, ZEROS),
        (golden_mean, gm_pt),
        (even_shift, ONES),
        (even_shift, ev_pt),
        (even_times_golden, BiSeq.constant("1|0")),
    ]
    checked = 0
    for s, x in cases:
        for n in (2, 3):
            report = rectangle_check(s, x, N=n, L=6)
            assert report["passed"], (x, n, report["failures"][:2])
            assert report["unstable_samples"] > 1
            assert report["stable_samples"] > 1
            checked += 1
    ok(5, f"rectangle totality + h_x inversion on {len(cases)} points x 2 windows "
          f"({checked} checks)")


def test_criterion_6_density_suites(golden_mean, even_shift, ray_oracle, density_holds):
    for s, L in ((golden_mean, 8), (even_shift, 8), (ray_oracle, 4)):
        density_holds(s, sync_density_check(s, L), sync=True)
        density_holds(s, periodic_density_check(s, L), sync=False)
    ok(6, "sync + periodic density at L=8 (golden, even) and L=4 (nonsofic-ray)")


def test_criterion_7_invariance_suite(golden_mean, even_shift, even_times_golden):
    germs = []

    def harvest(s, germ):
        germs.append((s, germ))
        germs.append((s, germ.inverse()))
        for k in (-1, 1):
            germs.append((s, germ.conjugate(k)))

    # golden mean: block-rewrite germs on homoclinic pairs
    gm_pts = [p for p in enumerate_points(golden_mean, core_len=2)
              if point_in_shift(golden_mean, p) == "yes"]
    pairs = 0
    for i, x in enumerate(gm_pts):
        if pairs >= 32:
            break
        for y in gm_pts[i + 1:]:
            if decide_relation(x, y, "homoclinic"):
                harvest(golden_mean, ruelle_germ(golden_mean, x, y))
                pairs += 1
                if pairs >= 32:
                    break
    # even shift and the product: lifted and rectangle germs
    for s, base in ((even_shift, ONES), (even_times_golden, BiSeq.constant("1|0"))):
        sample = [p for p in enumerate_points(s, core_len=2)
                  if point_in_shift(s, p) == "yes"][:25]
        verdict = classify_point(s, base)
        n = max(verdict.window_used + 1, 2)
        for y in sample:
            if agree_on(base, y, 1 - n, n):
                gu, gs = rectangle_germs(s, base, y, n)
                harvest(s, gu)
                harvest(s, gs)
    ev_pts = [p for p in enumerate_points(even_shift, core_len=2)
              if point_in_shift(even_shift, p) == "yes"]
    built = 0
    for i, x in enumerate(ev_pts):
        if built >= 15:
            break
        for y in ev_pts[i + 1:]:
            if x != y and decide_relation(x, y, "homoclinic"):
                try:
                    harvest(even_shift, construct_germ(even_shift, x, y, "lc",
                                                       verify=False))
                    built += 1
                except NotConstructive:
                    continue
                break

    assert len(germs) >= 200, f"only {len(germs)} germs enumerated"

    # (a) shift-equivariance: every germ and its conjugates verify
    for s, germ in germs:
        assert verify_germ(germ, budget=3) >= 1

    # (b) sync preservation on two-sided germs
    for s, germ in germs:
        if germ.kind != "lc":
            continue
        if classify_point(s, germ.source).status == "synchronizing":
            assert classify_point(s, germ.target).status == "synchronizing"

    # (c) periodic rigidity: no germ of any kind joins distinct periodic points
    rigidity_checks = 0
    for s in (golden_mean, even_shift):
        periodic_pts = [p for n in (1, 2, 3)
                        for p in enumerate_periodic(s, n).points]
        for p in periodic_pts:
            for q in periodic_pts:
                if p == q:
                    continue
                for kind in ("lc", "lcs", "lcu"):
                    try:
                        construct_germ(s, p, q, kind)
                        raise AssertionError(f"germ joined {p} and {q}")
                    except NotConstructive:
                        rigidity_checks += 1
    assert rigidity_checks > 100

    # (d) lcs and lcu together give lc at synchronizing endpoints
    composed = 0
    for i, x in enumerate(ev_pts):
        for y in ev_pts[i + 1:]:
            if composed >= 10:
                break
            if not decide_relation(x, y, "homoclinic"):
                continue
            if classify_point(even_shift, x).status != "synchronizing":
                continue
            if classify_point(even_shift, y).status != "synchronizing":
                continue
            try:
                gu = construct_germ(even_shift, x, y, "lcs", verify=False)
                gs = construct_germ(even_shift, x, y, "lcu", verify=False)
            except NotConstructive:
                continue
            germ = compose_lcs_lcu(even_shift, gu, gs, x, y)
            assert germ.apply(x) == y
            composed += 1
    assert composed >= 5
    ok(7, f"{len(germs)} germs: equivariance, sync preservation, "
          f"{rigidity_checks} rigidity refusals, {composed} lcs+lcu compositions")


def test_criterion_8_metric_contract():
    pts6 = exhaustive_points(6)
    assert len(pts6) >= 150
    # adaptedness with lambda = 1/2 and the Lipschitz constant 2
    for x in pts6:
        sc = CylinderS(x, 2)
        uc = CylinderU(x, 2)
        for y in pts6:
            if x == y:
                continue
            d = distance(x, y)
            ds = distance(shift_by(x, 1), shift_by(y, 1))
            assert abs(ds.k - d.k) <= 1  # K = 2 both ways
            if sc.contains(y):
                assert ds == d.half()
            if uc.contains(y):
                assert distance(shift_by(x, -1), shift_by(y, -1)) == d.half()
    # expansiveness at 1/2: staying within 1/2 under all shifts out to the
    # alignment bound forces equality
    for x in pts6:
        for y in pts6:
            if x == y:
                continue
            bound = alignment_bound(x, y)
            assert any(not distance(shift_by(x, n), shift_by(y, n)) <= Dyadic(1)
                       for n in range(-bound, bound + 1)), (x, y)
    # ultrametric inequality, exhaustive over the family where triples
    # are enumerable
    pts4 = exhaustive_points(4)
    assert len(pts4) >= 25
    for x in pts4:
        for y in pts4:
            dxy = distance(x, y)
            for z in pts4:
                assert distance(x, z) <= max(dxy, distance(y, z))
    ok(8, f"metric contract on {len(pts6)} points (pairs exhaustive), "
          f"ultrametric on {len(pts4)}^3 triples")


def test_criterion_9_smith_bowen_franks(golden_mean):
    from tests.test_invariants import brute_force_cokernel, predicted_order_counts
    rng = random.Random(9)
    done = 0
    while done < 50:
        n = rng.randint(1, 3)
        a = IntMatrix.from_rows(
            [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        det = a.determinant()
        if det == 0 or abs(det) > 12:
            continue
        size, counts = brute_force_cokernel(a)
        form = smith_normal_form(a)
        prod = 1
        for d in form.diagonal:
            prod *= d
        assert size == prod == abs(det)
        assert counts == predicted_order_counts(form.diagonal, abs(det))
        done += 1
    bf = bowen_franks(golden_mean)
    assert bf["invariant_factors"] == ()
    assert bf["det_sign"] == -1
    ok(9, "Smith form matched brute-force cokernels on 50 matrices; "
          "golden mean fingerprint trivial with det sign -1")
