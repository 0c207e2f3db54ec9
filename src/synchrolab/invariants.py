"""Integer-matrix fingerprints and the structured shift report.

Smith normal form over the integers, by one elimination kernel on sparse
rows (exact: +-1 pivots are eliminated first, then what is left is
reduced modulo a nonzero minor of full rank from one Bareiss pass, after
Domich, Kannan & Trotter 1987); ``smith_normal_form`` reads the rows of
an ``IntMatrix`` into it once.  The Bowen-Franks data of a shift's
minimal cover read I - A sparse off the cover's label masks, so no
dense matrix is built; ``adjacency_matrix`` and
``IntMatrix.sub_from_identity`` build the dense I - A and have no
caller in the library.  The report packages the synchronizing-structure
facts of a shift: flags, the size of the non-synchronizing set, and the
finite quotient dimension when that set is finite.
"""

from dataclasses import dataclass
from math import gcd, prod
from operator import neg

from synchrolab.errors import InvariantViolation, NotIrreducible
from synchrolab.shift import fischer_cover
from synchrolab.sync import nonsync_subshift


@dataclass(frozen=True)
class IntMatrix:
    """An immutable integer matrix."""

    rows: int
    cols: int
    entries: tuple  # row-major tuple of tuples

    @staticmethod
    def from_rows(rows):
        rows = tuple(tuple(int(v) for v in r) for r in rows)
        if not rows or any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("rows must be non-empty and rectangular")
        return IntMatrix(len(rows), len(rows[0]), rows)

    def mul(self, other):
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        rows = [[sum(self.entries[i][k] * other.entries[k][j] for k in range(self.cols))
                 for j in range(other.cols)] for i in range(self.rows)]
        return IntMatrix.from_rows(rows)

    def sub_from_identity(self):
        """I - A for a square matrix A: each row negated whole, then 1
        added on the diagonal."""
        if self.rows != self.cols:
            raise ValueError("not square")
        rows = [list(map(neg, r)) for r in self.entries]
        for i, r in enumerate(rows):
            r[i] += 1
        return IntMatrix(self.rows, self.cols, tuple(map(tuple, rows)))

    def determinant(self):
        """Exact determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ValueError("not square")
        rank, minor = _bareiss(self.entries, self.cols)
        return minor if rank == self.rows else 0


def _bareiss(entries, cols):
    """Fraction-free elimination with full pivoting: ``(rank, minor)``.

    ``minor`` is the last nonzero pivot, a signed rank x rank minor of
    the rows ``entries`` of length ``cols``: the determinant when the
    matrix is square and nonsingular, and 1 for the zero matrix or one
    without rows or columns.
    """
    m = [list(r) for r in entries]
    rows = len(m)
    sign = prev = 1
    for k in range(min(rows, cols)):
        pivot = next(((i, j) for i in range(k, rows) for j in range(k, cols)
                      if m[i][j] != 0), None)
        if pivot is None:
            return k, sign * prev
        pi, pj = pivot
        if pi != k:
            m[k], m[pi] = m[pi], m[k]
            sign = -sign
        if pj != k:
            for r in m:
                r[k], r[pj] = r[pj], r[k]
            sign = -sign
        for i in range(k + 1, rows):
            for j in range(k + 1, cols):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return min(rows, cols), sign * prev


@dataclass(frozen=True)
class SmithForm:
    """The Smith diagonal d1 | d2 | ..., nonzero entries first, and the
    rank; ``determinant`` is None unless the input is square."""

    diagonal: tuple
    rank: int
    determinant: object


def _unit_pivots(row, cols):
    """Eliminates the +-1 pivots of the sparse rows ``row`` (each a dict
    ``{column: nonzero entry}`` over ``cols`` columns), in place:
    ``(units, sign, rest)``.

    A unit u at position (r, c) of what is left clears the rest of its
    column by row operations; then its row and column are dropped.  Each
    drop splits off a Smith factor 1 and multiplies the determinant by
    u (-1)^(r+c), which ``sign`` collects.  One pass takes the rows in
    order; in a row, the unit whose column has the fewest entries is
    used, so fill-in stays low on sparse rows.  While every pivot is a
    unit, the entries are minors of the input up to sign and do not
    grow.  ``rest`` is what is left, dense, with its rows and columns in
    their original order.
    """
    col = [set() for _ in range(cols)]
    for i, r in enumerate(row):
        for j in r:
            col[j].add(i)
    live_rows, live_cols = (1 << len(row)) - 1, (1 << cols) - 1
    units = 0
    sign = 1
    for r, top in enumerate(row):
        pivots = [j for j, x in top.items() if x in (1, -1)]
        if not pivots:
            continue
        c = min(pivots, key=lambda j: len(col[j]))
        u = top[c]
        for i in col[c] - {r}:
            target = row[i]
            f = target[c] * u
            for j, y in top.items():
                v = target.get(j, 0) - f * y
                if v:
                    target[j] = v
                    col[j].add(i)
                else:
                    del target[j]
                    col[j].discard(i)
        for j in top:
            col[j].discard(r)
        row[r] = {}
        position = ((live_rows & ((1 << r) - 1)).bit_count()
                    + (live_cols & ((1 << c) - 1)).bit_count())
        sign *= -u if position & 1 else u
        live_rows &= ~(1 << r)
        live_cols &= ~(1 << c)
        units += 1
    keep = [j for j in range(cols) if live_cols >> j & 1]
    rest = [[row[i].get(j, 0) for j in keep] for i in range(len(row)) if live_rows >> i & 1]
    return units, sign, rest


def _smith(row, cols):
    """Smith normal form of the sparse rows ``row`` (``{column: nonzero
    entry}`` over ``cols`` columns, consumed): unit pivots, then
    elimination modulo one minor.

    The +-1 pivots are eliminated first (``_unit_pivots``); each gives a
    factor 1.  On I - A of a cover, which is sparse and mostly +-1, the
    remainder b has a few rows at most.  On b one Bareiss pass gives the
    rank r and a nonzero r x r minor; let g be its absolute value.  Each
    nonzero d_i of b divides g, and Z^n / (b Z^m + g Z^n) is the sum of
    the Z/gcd(d_i, g), so every entry is reduced into [0, g) after each
    row or column operation.  The loop moves a least entry to the pivot,
    clears its row and column by Euclidean steps and folds in a row the
    pivot does not divide; then d_i = gcd(pivot_i, g) for i < r.  That
    these form a chain whose product divides g, and equals g for a
    square nonsingular b, is checked on every call.  The determinant of
    a square input is the unit pivots' sign times that of b.
    """
    units, sign, m = _unit_pivots(row, cols)
    rows, cols = len(row) - units, cols - units
    rank, minor = _bareiss(m, cols)
    g = abs(minor)
    m = [[x % g for x in r] for r in m]

    t = 0
    while t < rank:
        # move a nonzero pivot of least value to (t, t)
        candidates = [(m[i][j], i, j) for i in range(t, rows)
                      for j in range(t, cols) if m[i][j] != 0]
        if not candidates:
            break  # the rest of the block is 0 mod g, so each d_i is g
        _, pi, pj = min(candidates)
        m[t], m[pi] = m[pi], m[t]
        for r in m:
            r[t], r[pj] = r[pj], r[t]
        reduced = True
        while reduced:
            reduced = False
            for i in range(t + 1, rows):
                if m[i][t] != 0:
                    q = m[i][t] // m[t][t]
                    m[i] = [(x - q * y) % g for x, y in zip(m[i], m[t])]
                    if m[i][t] != 0:
                        m[t], m[i] = m[i], m[t]
                        reduced = True
            for j in range(t + 1, cols):
                if m[t][j] != 0:
                    q = m[t][j] // m[t][t]
                    for r in m:
                        r[j] = (r[j] - q * r[t]) % g
                    if m[t][j] != 0:
                        for r in m:
                            r[t], r[j] = r[j], r[t]
                        reduced = True
        # enforce divisibility: pivot must divide the remaining block
        offender = next((i for i in range(t + 1, rows)
                         for j in range(t + 1, cols) if m[i][j] % m[t][t] != 0), None)
        if offender is not None:
            m[t] = [(x + y) % g for x, y in zip(m[t], m[offender])]
            continue
        t += 1

    factors = tuple(gcd(m[i][i], g) for i in range(rank))
    if any(d2 % d1 for d1, d2 in zip(factors, factors[1:])):
        raise InvariantViolation(f"Smith factors {factors} are not a divisibility chain")
    nonsingular = rows == cols == rank
    if g % prod(factors) or (nonsingular and prod(factors) != g):
        raise InvariantViolation(f"Smith factors {factors} do not match the minor {minor}")
    det = None if rows != cols else sign * minor if nonsingular else 0
    return SmithForm((1,) * units + factors + (0,) * (min(rows, cols) - rank),
                     units + rank, det)


def smith_normal_form(a):
    """Smith normal form over the integers of the ``IntMatrix`` ``a``: its
    rows, read sparse once, go to the elimination kernel ``_smith``."""
    return _smith([{j: x for j, x in enumerate(r) if x} for r in a.entries], a.cols)


def adjacency_matrix(p):
    """Edge-count adjacency matrix of a presentation, in state order."""
    index = {q: i for i, q in enumerate(p.states)}
    entries = [[0] * len(p.states) for _ in p.states]
    for (u, _, v) in p.edges:
        entries[index[u]][index[v]] += 1
    return IntMatrix(len(entries), len(entries), tuple(map(tuple, entries)))


def bowen_franks(s):
    """Invariant factors of coker(I - A) for the minimal cover's A.

    Returns ``{"invariant_factors": (...), "det_sign": -1|0|1}`` where
    the factors are the Smith diagonal entries different from 1 (0
    denotes a free summand).  I - A is read sparse off the cover's
    label masks, in state order: 1 on the diagonal, -1 for each labelled
    edge, and a diagonal entry that reaches 0 (a state with one loop)
    dropped; no other entry can.  The cover is deterministic, so each
    label's mask of a state holds at most one bit.
    """
    cover = fischer_cover(s)
    row = [{i: 1} for i in range(len(cover.states))]
    for masks in cover.masks.values():
        for r, target in zip(row, masks):
            if target:
                j = target.bit_length() - 1
                r[j] = r.get(j, 0) - 1
    for i, r in enumerate(row):
        if not r[i]:
            del r[i]
    form = _smith(row, len(row))
    factors = tuple(d for d in form.diagonal if d != 1)
    det = form.determinant
    sign = 0 if det == 0 else (1 if det > 0 else -1)
    return {"invariant_factors": factors, "det_sign": sign}


@dataclass(frozen=True)
class ExactSequenceReport:
    """Desk-scale shadow of the shift's ideal/quotient structure."""

    shift_name: str
    m: object                 # int, "infinite", or "unknown"
    quotient: object          # "C^m" when m finite, else None
    bf_invariant_factors: tuple
    det_sign: int
    flags: dict

    def to_dict(self):
        return {
            "shift": self.shift_name,
            "m": self.m,
            "quotient": self.quotient,
            "bf_invariant_factors": list(self.bf_invariant_factors),
            "det_sign": self.det_sign,
            "flags": dict(self.flags),
        }


def exact_sequence_report(s):
    """Assembles the report: flags, |non-sync set|, and fingerprints.

    The quotient dimension is emitted only when the non-synchronizing
    set is finite; a shift whose flags are undecided (an oracle shift)
    reports "unknown".  Structural claims tied to mixing are suppressed
    (flag only) when the shift is not mixing.
    """
    flags = s.flags()
    if flags["irreducible"] is False:
        raise NotIrreducible("report requires an irreducible shift")
    m, quotient, factors, sign, finite = "unknown", None, (), 0, None
    if flags["irreducible"]:
        report = nonsync_subshift(s)
        finite = report.finiteness == "finite"
        m = report.count if finite else "infinite"
        quotient = f"C^{m}" if finite else None
        bf = bowen_franks(s)
        factors, sign = bf["invariant_factors"], bf["det_sign"]
    return ExactSequenceReport(
        s.name, m, quotient, factors, sign,
        {"irreducible": flags["irreducible"], "mixing": flags["mixing"],
         "finitelyManyNonSync": finite})
