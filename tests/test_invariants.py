"""Smith form against a brute-force cokernel oracle and the
transform-tracking reference; report assembly."""

import random
from math import gcd, prod

import pytest

from synchrolab.invariants import (IntMatrix, _unit_pivots, adjacency_matrix, bowen_franks,
                                   exact_sequence_report, smith_normal_form)
from synchrolab.presentation import Presentation
from synchrolab.shift import Alphabet, build_sofic, fischer_cover, product
from synchrolab.sync import nonsync_subshift
from membership_reference import (fraction_determinant, reference_smith_form,
                                  reference_subset_automaton, renamed)


def brute_force_cokernel(a):
    """Order statistics of Z^n / A Z^n by explicit coset enumeration.

    Uses g * Z^n <= A * Z^n for g = |det A| (Cramer), so the quotient
    equals (Z_g)^n modulo the subgroup generated by A's columns mod g.
    Returns the number of cosets together with, for every k in 1..g,
    the count of cosets killed by multiplication by k; these statistics
    determine the finite abelian group uniquely.  Finite case only.
    """
    from itertools import product as iproduct
    n = a.rows
    g = abs(a.determinant())
    assert g != 0, "brute-force oracle needs a finite cokernel"
    cols = [tuple(a.entries[i][j] % g for i in range(n)) for j in range(n)]
    subgroup = {(0,) * n}
    frontier = [(0,) * n]
    while frontier:
        vec = frontier.pop()
        for col in cols:
            nxt = tuple((x + y) % g for x, y in zip(vec, col))
            if nxt not in subgroup:
                subgroup.add(nxt)
                frontier.append(nxt)
    seen = set()
    cosets = []
    for vec in iproduct(range(g), repeat=n):
        if vec in seen:
            continue
        coset = {tuple((v + h) % g for v, h in zip(vec, hh)) for hh in subgroup}
        seen |= coset
        cosets.append(vec)
    counts = {}
    for k in range(1, g + 1):
        counts[k] = sum(1 for v in cosets
                        if tuple((k * x) % g for x in v) in subgroup)
    return len(cosets), counts


def predicted_order_counts(diagonal, g):
    """N_k = prod gcd(k, d_i) for the group with the given Smith diagonal."""
    from math import gcd
    counts = {}
    for k in range(1, g + 1):
        n_k = 1
        for d in diagonal:
            n_k *= gcd(k, d)
        counts[k] = n_k
    return counts


def test_smith_identity():
    form = smith_normal_form(IntMatrix.from_rows([[1, 0], [0, 1]]))
    assert form.diagonal == (1, 1)


def test_smith_golden_mean_i_minus_a():
    a = IntMatrix.from_rows([[0, -1], [-1, 1]])
    form = smith_normal_form(a)
    assert form.diagonal == (1, 1)
    assert form.determinant == -1


def test_smith_already_diagonal():
    form = smith_normal_form(IntMatrix.from_rows([[2, 0], [0, 2]]))
    assert form.diagonal == (2, 2)


def test_smith_divisibility_chain_random():
    rng = random.Random(0)
    for _ in range(120):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        a = IntMatrix.from_rows(
            [[rng.randint(-4, 4) for _ in range(m)] for _ in range(n)])
        form = smith_normal_form(a)
        for d1, d2 in zip(form.diagonal, form.diagonal[1:]):
            if d1 != 0:
                assert d2 % d1 == 0 or d2 == 0
            else:
                assert d2 == 0
        if n == m:
            prod = 1
            for d in form.diagonal:
                prod *= d
            assert prod == abs(form.determinant)


def test_smith_agrees_with_brute_force_cokernel():
    rng = random.Random(1)
    done = 0
    while done < 50:
        n = rng.randint(1, 3)
        a = IntMatrix.from_rows(
            [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        det = a.determinant()
        if det == 0 or abs(det) > 12:
            continue
        g = abs(det)
        size, counts = brute_force_cokernel(a)
        form = smith_normal_form(a)
        prod = 1
        for d in form.diagonal:
            prod *= d
        assert size == prod == g, (a, size, form.diagonal)
        assert counts == predicted_order_counts(form.diagonal, g), (a, form.diagonal)
        done += 1
    assert done == 50


def test_smith_invariant_under_unimodular_multiplication():
    rng = random.Random(2)
    elementary = [
        IntMatrix.from_rows([[1, 1], [0, 1]]),
        IntMatrix.from_rows([[1, 0], [1, 1]]),
        IntMatrix.from_rows([[0, 1], [1, 0]]),
        IntMatrix.from_rows([[-1, 0], [0, 1]]),
    ]
    for _ in range(40):
        a = IntMatrix.from_rows(
            [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)])
        u = elementary[rng.randrange(4)].mul(elementary[rng.randrange(4)])
        v = elementary[rng.randrange(4)].mul(elementary[rng.randrange(4)])
        assert smith_normal_form(a).diagonal == smith_normal_form(u.mul(a).mul(v)).diagonal


def test_smith_matches_transform_reference():
    # The reference's entries grow without bound and it stalls on some
    # 6 x 6 inputs, so sizes stay at 5 x 5 with entries <= 4; the
    # regression tests below cover larger inputs.
    rng = random.Random(6)
    kinds = {"square": 0, "rectangular": 0, "singular": 0}
    for k in range(600):
        kind = ("square", "rectangular", "singular")[k % 3]
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5) if kind == "rectangular" else rows
        m = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        if kind == "singular":
            # the last row is a combination of the others
            q = [rng.randint(-2, 2) for _ in range(rows - 1)]
            m[-1] = [sum(c * r[j] for c, r in zip(q, m)) for j in range(cols)]
        a = IntMatrix.from_rows(m)
        form = smith_normal_form(a)
        diagonal, rank, det = reference_smith_form(a)
        assert (form.diagonal, form.rank, form.determinant) == (diagonal, rank, det), m
        if kind == "singular":
            assert det == 0 and rank < rows
        kinds[kind] += 1
    assert kinds == {"square": 200, "rectangular": 200, "singular": 200}


def test_smith_six_by_six_with_a_large_determinant():
    rows = [[3, 5, 4, -5, 8, 0], [-1, 8, -8, -5, 7, -9], [-5, -7, 3, -6, 3, 7],
            [-3, -4, 1, 7, 3, 8], [8, 2, 3, 2, 7, -8], [0, -6, -7, -8, 6, 6]]
    form = smith_normal_form(IntMatrix.from_rows(rows))
    assert form.diagonal == (1, 1, 1, 1, 1, 1460849)
    assert prod(form.diagonal) == abs(fraction_determinant(rows)) == form.determinant
    # d_1 ... d_5 is the gcd of the 5 x 5 minors
    minors = [fraction_determinant([[x for j, x in enumerate(r) if j != c]
                                    for i, r in enumerate(rows) if i != skip])
              for skip in range(6) for c in range(6)]
    assert gcd(*minors) == 1


CLIFF_COVERS = [
    ("s0 b s1, s1 a s2, s1 a s5, s1 b s1, s2 a s3, s3 a s5, s3 c s4, s4 a s9, "
     "s4 b s5, s5 a s6, s5 b s2, s6 a s7, s6 b s6, s7 a s8, s7 a s9, s8 a s4, "
     "s8 b s9, s8 c s7, s9 b s1, s9 b s7, s9 c s0", 86, (576,), -1),
    ("s0 b s1, s0 b s2, s0 b s4, s1 a s1, s1 a s2, s2 a s8, s2 b s3, s3 a s4, "
     "s4 a s5, s4 b s5, s5 b s6, s5 b s7, s6 a s7, s7 a s3, s7 b s8, s8 a s0, "
     "s8 b s0", 59, (18, 0), 0),
    ("s0 a s1, s1 b s2, s2 a s3, s2 b s5, s3 a s0, s3 a s4, s3 b s1, s4 b s3, "
     "s4 b s5, s5 a s6, s5 b s6, s6 a s7, s7 a s3, s7 b s0, s7 b s4", 48, (2, 120), -1),
]


# Size-2-or-more subset automaton of each cliff cover: (states, edges).
CLIFF_NONSYNC_SIZES = {86: (2889, 6313), 59: (1627, 3155), 48: (342, 620)}


def _cliff_shift(edge_text):
    edges = [tuple(e.split()) for e in edge_text.split(", ")]
    states = sorted({e[0] for e in edges} | {e[2] for e in edges})
    labels = tuple(sorted({e[1] for e in edges}))
    return build_sofic(Alphabet(labels), Presentation.build(states, edges))


@pytest.mark.parametrize("edge_text, cover_size, factors, sign", CLIFF_COVERS,
                         ids=[f"{case[1]}-state" for case in CLIFF_COVERS])
def test_bowen_franks_of_large_covers(edge_text, cover_size, factors, sign):
    s = _cliff_shift(edge_text)
    assert len(fischer_cover(s).states) == cover_size
    assert bowen_franks(s) == {"invariant_factors": factors, "det_sign": sign}


@pytest.mark.parametrize("edge_text, cover_size", [case[:2] for case in CLIFF_COVERS],
                         ids=[f"{case[1]}-state" for case in CLIFF_COVERS])
def test_nonsync_subshift_of_large_covers(edge_text, cover_size):
    s = _cliff_shift(edge_text)
    report = nonsync_subshift(s)
    p = report.presentation
    assert (len(p.states), len(p.edges)) == CLIFF_NONSYNC_SIZES[cover_size]
    assert report.finiteness == "infinite"
    if cover_size == 48:
        assert p == reference_subset_automaton(fischer_cover(s), 2, key=str)


def test_bowen_franks_examples(golden_mean, full_two, period_two):
    gm = bowen_franks(golden_mean)
    assert gm["invariant_factors"] == ()
    assert gm["det_sign"] == -1
    f2 = bowen_franks(full_two)
    assert f2["invariant_factors"] == ()
    assert f2["det_sign"] == -1
    p2 = bowen_franks(period_two)
    assert p2["invariant_factors"] == (0,)
    assert p2["det_sign"] == 0


def test_bowen_franks_invariant_under_state_reordering(even_shift):
    cover = fischer_cover(even_shift)
    other = renamed(cover, {q: name for q, name in zip(cover.states, ["zz", "aa"])})
    a1 = adjacency_matrix(cover)
    a2 = adjacency_matrix(other)
    f1 = smith_normal_form(a1.sub_from_identity()).diagonal
    f2 = smith_normal_form(a2.sub_from_identity()).diagonal
    assert f1 == f2


def test_exact_sequence_report_even(even_shift):
    report = exact_sequence_report(even_shift)
    assert report.m == 1
    assert report.quotient == "C^1"
    assert report.flags["mixing"] is True
    assert report.flags["finitelyManyNonSync"] is True


def test_exact_sequence_report_golden(golden_mean):
    report = exact_sequence_report(golden_mean)
    assert report.m == 0
    assert report.quotient == "C^0"
    assert report.det_sign == -1


def test_exact_sequence_report_period_two(period_two):
    report = exact_sequence_report(period_two)
    assert report.flags["mixing"] is False
    assert report.m == 0


def test_exact_sequence_report_matches_enumeration(even_shift, golden_mean):
    from synchrolab.periodic import enumerate_periodic
    from synchrolab.sync import classify_point
    for s in (even_shift, golden_mean):
        report = exact_sequence_report(s)
        nonsync = set()
        for n in range(1, 7):
            for p in enumerate_periodic(s, n).points:
                if classify_point(s, p).status == "nonSynchronizing":
                    nonsync.add(p)
        assert report.m == len(nonsync)


def test_exact_sequence_report_oracle(ray_oracle):
    report = exact_sequence_report(ray_oracle)
    assert report.m == "unknown"
    assert report.quotient is None


def _assert_matches_reference(a):
    form = smith_normal_form(a)
    assert (form.diagonal, form.rank, form.determinant) == reference_smith_form(a), a
    return form


def _sparse_rows(a):
    """The rows of ``a`` as ``{column: nonzero entry}`` dicts."""
    return [{j: x for j, x in enumerate(r) if x} for r in a.entries]


def _mixed(rng, m):
    """``m`` with its rows and columns permuted and some rows negated, a
    unimodular change that keeps the Smith form."""
    order = rng.sample(range(len(m[0])), len(m[0]))
    signs = [rng.choice((1, -1)) for _ in m]
    return [[u * r[j] for j in order] for u, r in zip(signs, rng.sample(m, len(m)))]


def test_smith_without_unit_entries_matches_reference():
    # no entry is +-1, so there is no unit pivot and the modular
    # elimination runs on the whole matrix
    rng = random.Random(11)
    for _ in range(200):
        m = [[rng.choice((0, 0, 2, -2, 3, -3, 4, 6)) for _ in range(rng.randint(1, 5))]]
        m += [[rng.choice((0, 0, 2, -2, 3, -3, 4, 6)) for _ in m[0]]
              for _ in range(rng.randint(0, 4))]
        a = IntMatrix.from_rows(m)
        assert _unit_pivots(_sparse_rows(a), a.cols) == (0, 1, m)
        _assert_matches_reference(a)


def test_smith_with_a_remainder_without_rows_or_columns():
    # k rows [I | B] with e1 columns in B, then e2 integer combinations of
    # them: unit elimination consumes the k rows and leaves an e2 x e1
    # zero block -- no rows when e2 = 0, no columns when e1 = 0, a square
    # singular block when e1 = e2 > 0, and nothing when both are 0
    rng = random.Random(12)
    shapes = set()
    for _ in range(300):
        k, e1, e2 = rng.randint(1, 4), rng.randint(0, 3), rng.randint(0, 3)
        base = [[int(i == j) for j in range(k)] + [rng.randint(-3, 3) for _ in range(e1)]
                for i in range(k)]
        combos = [[sum(c * x for c, x in zip(q, col)) for col in zip(*base)]
                  for q in ([rng.randint(-2, 2) for _ in base] for _ in range(e2))]
        a = IntMatrix.from_rows(_mixed(rng, base + combos))
        units, _, rest = _unit_pivots(_sparse_rows(a), a.cols)
        assert units == k and len(rest) == e2 and all(r == [0] * e1 for r in rest)
        form = _assert_matches_reference(a)
        assert form.rank == k
        shapes.add((e1 == 0, e2 == 0, e1 == e2))
    assert len(shapes) == 5


def test_smith_of_fully_reduced_square_matrices():
    # unimodular matrices from elementary row operations on a signed
    # permutation; when unit elimination consumes every row, the
    # determinant is the tracked sign alone
    rng = random.Random(13)
    reduced = 0
    for _ in range(300):
        n = rng.randint(1, 6)
        m = _mixed(rng, [[int(i == j) for j in range(n)] for i in range(n)])
        for _ in range(rng.randint(0, 2 * n) if n > 1 else 0):
            i, j = rng.sample(range(n), 2)
            f = rng.choice((1, -1, 2, -2))
            m[i] = [x + f * y for x, y in zip(m[i], m[j])]
        a = IntMatrix.from_rows(m)
        units, sign, rest = _unit_pivots(_sparse_rows(a), a.cols)
        form = _assert_matches_reference(a)
        assert abs(form.determinant) == 1 and form.diagonal == (1,) * n
        if units == n:
            assert rest == [] and form.determinant == sign == fraction_determinant(m)
            reduced += 1
    assert reduced >= 250


def test_smith_of_i_minus_a_on_random_covers():
    # a cycle through every state keeps each input irreducible
    rng = random.Random(14)
    for _ in range(150):
        k = rng.randint(3, 7)
        symbols = "abc"[:rng.randint(2, 3)]
        states = list(range(k))
        edges = {(q, rng.choice(symbols), (q + 1) % k) for q in states}
        edges |= {(rng.choice(states), rng.choice(symbols), rng.choice(states))
                  for _ in range(rng.randint(1, k))}
        s = build_sofic(Alphabet(tuple(symbols)), Presentation.build(states, edges))
        i_minus_a = adjacency_matrix(fischer_cover(s)).sub_from_identity()
        _assert_matches_reference(i_minus_a)


def _assert_bowen_franks_matches_dense(s):
    # bowen_franks reads I - A sparse off the cover's masks; the dense
    # smith_normal_form on adjacency_matrix must find the same diagonal
    # (the factors after n - len(factors) ones), rank and determinant
    # (the sign times the diagonal's product)
    n = len(fischer_cover(s).states)
    bf = bowen_franks(s)
    factors = bf["invariant_factors"]
    diagonal = (1,) * (n - len(factors)) + factors
    form = smith_normal_form(adjacency_matrix(fischer_cover(s)).sub_from_identity())
    assert (form.diagonal, form.rank, form.determinant) == (
        diagonal, n - factors.count(0), bf["det_sign"] * prod(diagonal)), s
    return form


def _seeded_mixing_shift(rng, k, symbols):
    # a cycle through every state and a loop at state 0: a mixing graph
    states = list(range(k))
    edges = {(q, rng.choice(symbols), (q + 1) % k) for q in states}
    edges |= {(0, rng.choice(symbols), 0)}
    edges |= {(rng.choice(states), rng.choice(symbols), rng.choice(states))
              for _ in range(rng.randint(1, k))}
    return build_sofic(Alphabet(tuple(symbols)), Presentation.build(states, edges))


def test_bowen_franks_matches_the_dense_smith_form_on_seeded_shifts():
    rng = random.Random(21)
    singular = 0
    for _ in range(150):
        s = _seeded_mixing_shift(rng, rng.randint(2, 7), "abc"[:rng.randint(2, 3)])
        singular += _assert_bowen_franks_matches_dense(s).determinant == 0
    for _ in range(30):
        # products of mixing shifts are mixing, so each has a cover
        s = product(_seeded_mixing_shift(rng, rng.randint(2, 3), "ab"),
                    _seeded_mixing_shift(rng, rng.randint(2, 3), "ab"))
        singular += _assert_bowen_franks_matches_dense(s).determinant == 0
    assert singular >= 10


@pytest.mark.parametrize("n", range(4, 12))
def test_bowen_franks_of_a_reversed_cerny_cover_matches_the_dense_smith_form(n):
    # up to 2,024 cover states, with non-unit factors left after the unit
    # pivots
    edges = [(i, "a", (i + 1) % n) for i in range(n)] + [(0, "b", 1)]
    edges += [(i, "b", i) for i in range(1, n - 1)]
    s = build_sofic(Alphabet(("a", "b")),
                    Presentation.build(range(n), [(j, a, i) for (i, a, j) in edges]))
    form = _assert_bowen_franks_matches_dense(s)
    assert form.determinant == 0 and form.diagonal[-1] == 0


def test_bowen_franks_of_covers_with_parallel_labels_and_two_loops(full_two):
    # two labels on the arc 0 -> 1 give the entry -2 of I - A; the full
    # 2-shift's one state carries two loops, so its diagonal is 1 - 2
    parallel = build_sofic(Alphabet(("a", "b", "c")), Presentation.build(
        [0, 1], [(0, "a", 1), (0, "b", 1), (1, "c", 0)]))
    assert adjacency_matrix(fischer_cover(parallel)).sub_from_identity().entries == (
        (1, -2), (-1, 1))
    assert _assert_bowen_franks_matches_dense(parallel).determinant == -1
    assert adjacency_matrix(fischer_cover(full_two)).sub_from_identity().entries == ((-1,),)
    assert _assert_bowen_franks_matches_dense(full_two).determinant == -1
