"""Integer-matrix fingerprints and the structured shift report.

Smith normal form over the integers (exact, with unimodular
transforms), the Bowen-Franks data of a shift's minimal cover, and the
report that packages the synchronizing-structure facts of a shift:
flags, the size of the non-synchronizing set, and the finite quotient
dimension when that set is finite.
"""

from dataclasses import dataclass

from synchrolab.errors import InvariantViolation, NotIrreducible
from synchrolab.shift import SFT, OracleShift, Sofic, fischer_cover, shift_flags
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

    @staticmethod
    def identity(n):
        return IntMatrix.from_rows([[int(i == j) for j in range(n)] for i in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def mul(self, other):
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        rows = [[sum(self.entries[i][k] * other.entries[k][j] for k in range(self.cols))
                 for j in range(other.cols)] for i in range(self.rows)]
        return IntMatrix.from_rows(rows)

    def power(self, n):
        if self.rows != self.cols:
            raise ValueError("power of a non-square matrix")
        out = IntMatrix.identity(self.rows)
        base = self
        while n:
            if n & 1:
                out = out.mul(base)
            base = base.mul(base)
            n >>= 1
        return out

    def trace(self):
        return sum(self.entries[i][i] for i in range(min(self.rows, self.cols)))

    def sub_from_identity(self):
        """I - A for a square matrix A."""
        if self.rows != self.cols:
            raise ValueError("not square")
        return IntMatrix.from_rows(
            [[int(i == j) - self.entries[i][j] for j in range(self.cols)]
             for i in range(self.rows)])

    def determinant(self):
        """Exact determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ValueError("not square")
        n = self.rows
        m = [list(r) for r in self.entries]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k] != 0:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
                m[i][k] = 0
            prev = m[k][k]
        return sign * m[n - 1][n - 1]


@dataclass(frozen=True)
class SmithForm:
    """U * A * V = diag(diagonal) with U, V unimodular."""

    diagonal: tuple
    rank: int
    determinant: object  # int for square input, None otherwise
    U: IntMatrix
    V: IntMatrix


def smith_normal_form(a):
    """Smith normal form over the integers.

    Returns a ``SmithForm`` whose diagonal entries are non-negative and
    satisfy the divisibility chain d1 | d2 | ...; the transforms are
    accumulated from elementary row/column operations, so they are
    unimodular, which is re-asserted via their determinants.
    """
    m = [list(r) for r in a.entries]
    rows, cols = a.rows, a.cols
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in m:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def add_row(src, dst, q):
        for j in range(cols):
            m[dst][j] += q * m[src][j]
        for j in range(rows):
            u[dst][j] += q * u[src][j]

    def add_col(src, dst, q):
        for r in m:
            r[dst] += q * r[src]
        for r in v:
            r[dst] += q * r[src]

    def negate_row(i):
        m[i] = [-x for x in m[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(rows, cols):
        # move a nonzero pivot of least magnitude to (t, t)
        candidates = [(abs(m[i][j]), i, j) for i in range(t, rows)
                      for j in range(t, cols) if m[i][j] != 0]
        if not candidates:
            break
        _, pi, pj = min(candidates)
        swap_rows(t, pi)
        swap_cols(t, pj)
        reduced = True
        while reduced:
            reduced = False
            for i in range(t + 1, rows):
                if m[i][t] != 0:
                    q = m[i][t] // m[t][t]
                    add_row(t, i, -q)
                    if m[i][t] != 0:
                        swap_rows(t, i)
                        reduced = True
            for j in range(t + 1, cols):
                if m[t][j] != 0:
                    q = m[t][j] // m[t][t]
                    add_col(t, j, -q)
                    if m[t][j] != 0:
                        swap_cols(t, j)
                        reduced = True
        # enforce divisibility: pivot must divide the remaining block
        offender = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if m[i][j] % m[t][t] != 0:
                    offender = i
                    break
            if offender:
                break
        if offender is not None:
            add_row(offender, t, 1)
            continue
        if m[t][t] < 0:
            negate_row(t)
        t += 1

    diagonal = tuple(m[i][i] for i in range(min(rows, cols)))
    rank = sum(1 for d in diagonal if d != 0)
    umat = IntMatrix.from_rows(u)
    vmat = IntMatrix.from_rows(v)
    if abs(umat.determinant()) != 1 or abs(vmat.determinant()) != 1:
        raise InvariantViolation("Smith transforms are not unimodular")
    det = a.determinant() if rows == cols else None
    form = SmithForm(diagonal, rank, det, umat, vmat)
    check = umat.mul(a).mul(vmat)
    for i in range(rows):
        for j in range(cols):
            expected = diagonal[i] if i == j and i < len(diagonal) else 0
            if check[i, j] != expected:
                raise InvariantViolation(f"U A V differs from the Smith form at {(i, j)}")
    return form


def adjacency_matrix(p):
    """Edge-count adjacency matrix of a presentation, in state order."""
    index = {q: i for i, q in enumerate(p.states)}
    entries = [[0] * len(p.states) for _ in p.states]
    for (u, _, v) in p.edges:
        entries[index[u]][index[v]] += 1
    return IntMatrix.from_rows(entries)


def bowen_franks(s):
    """Invariant factors of coker(I - A) for the minimal cover's A.

    Returns ``{"invariant_factors": (...), "det_sign": -1|0|1}`` where
    the factors are the Smith diagonal entries different from 1 (0
    denotes a free summand).
    """
    a = adjacency_matrix(fischer_cover(s))
    ia = a.sub_from_identity()
    form = smith_normal_form(ia)
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
    set is finite; oracle shifts report "unknown".  Structural claims
    tied to mixing are suppressed (flag only) when the shift is not
    mixing.
    """
    if isinstance(s, OracleShift):
        return ExactSequenceReport(s.name, "unknown", None, (), 0,
                                   {"irreducible": None, "mixing": None,
                                    "finitelyManyNonSync": None})
    if not isinstance(s, (SFT, Sofic)):
        raise TypeError(f"unknown shift {s!r}")
    flags = shift_flags(s)
    if not flags["irreducible"]:
        raise NotIrreducible("report requires an irreducible shift")
    report = nonsync_subshift(s)
    finite = report.finiteness == "finite"
    m = report.count if finite else "infinite"
    quotient = f"C^{m}" if finite else None
    bf = bowen_franks(s)
    return ExactSequenceReport(
        s.name, m, quotient, bf["invariant_factors"], bf["det_sign"],
        {"irreducible": flags["irreducible"], "mixing": flags["mixing"],
         "finitelyManyNonSync": finite})
