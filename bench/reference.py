"""The benchmark's own small automata and reference arithmetic.

Nothing here imports the library.  Inputs are generated from these
graphs, and cross-checks recompute answers with this code, so a faster
library path is always checked against a computation it does not share.

A ``Graph`` is a deterministic labeled graph given as
``{state: {label: target}}``.  Every graph below is irreducible, and the
four named shifts use their minimal deterministic cover, so a word is
synchronizing exactly when all its runs end in one state.
"""

from fractions import Fraction
from itertools import product as iproduct


class Graph:
    def __init__(self, delta):
        self.delta = delta
        self.states = tuple(sorted(delta))
        self.labels = tuple(sorted({a for out in delta.values() for a in out}))

    def edges(self):
        return [(p, a, q) for p in self.states for a, q in sorted(self.delta[p].items())]

    def image(self, states, word):
        """The set of states reached from ``states`` reading ``word``."""
        current = set(states)
        for a in word:
            current = {self.delta[q][a] for q in current if a in self.delta[q]}
            if not current:
                break
        return current

    def synchronizing(self, word):
        return len(self.image(self.states, word)) == 1

    def walk(self, rng, start, length):
        """A random path of ``length`` edges from ``start``: (labels, end)."""
        labels = []
        q = start
        for _ in range(length):
            a = rng.choice(sorted(self.delta[q]))
            labels.append(a)
            q = self.delta[q][a]
        return tuple(labels), q

    def cycle(self, rng, start, max_len):
        """A random closed walk at ``start`` of length 1..max_len."""
        options = []
        frontier = [((), start)]
        for _ in range(max_len):
            frontier = [(w + (a,), t) for (w, q) in frontier
                        for a, t in sorted(self.delta[q].items())]
            options.extend(w for (w, q) in frontier if q == start)
        return rng.choice(options)

    def paths(self, start, length):
        """All paths of ``length`` edges from ``start``: [(labels, end)]."""
        frontier = [((), start)]
        for _ in range(length):
            frontier = [(w + (a,), t) for (w, q) in frontier
                        for a, t in sorted(self.delta[q].items())]
        return frontier


GOLDEN = Graph({"a": {"0": "a", "1": "b"}, "b": {"0": "a"}})
EVEN = Graph({"A": {"1": "A", "0": "B"}, "B": {"0": "A"}})
GAP3 = Graph({"A": {"1": "A", "0": "B"}, "B": {"0": "C"}, "C": {"0": "A"}})


def graph_product(g, h):
    """The product graph, reading ``a|b`` on paired states."""
    delta = {}
    for p in g.states:
        for q in h.states:
            delta[f"{p}{q}"] = {f"{a}|{b}": f"{s}{t}"
                                for a, s in g.delta[p].items()
                                for b, t in h.delta[q].items()}
    return Graph(delta)


EVEN_X_GOLDEN = graph_product(EVEN, GOLDEN)


def random_point(rng, graph, core_len):
    """A random eventually periodic point read along a path of ``graph``.

    Returns ``(left, core, right, origin)``: a closed walk repeated to
    the left, a path, and a closed walk repeated to the right, so the
    point lies in the shift by construction.
    """
    q = rng.choice(graph.states)
    left = graph.cycle(rng, q, 3)
    core, end = graph.walk(rng, q, core_len)
    right = graph.cycle(rng, end, 3)
    return left, core, right, rng.randint(-2, 2)


def window(point, lo, hi):
    """Coordinates [lo, hi) of ``(left, core, right, origin)``."""
    left, core, right, origin = point
    out = []
    for i in range(lo, hi):
        if i >= origin + len(core):
            out.append(right[(i - origin - len(core)) % len(right)])
        elif i >= origin:
            out.append(core[i - origin])
        else:
            out.append(left[(i - origin) % len(left)])
    return tuple(out)


# -- reference arithmetic -----------------------------------------------------

def mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def trace_power(a, n):
    """trace(A^n) by repeated multiplication."""
    m = a
    for _ in range(n - 1):
        m = mat_mul(m, a)
    return sum(m[i][i] for i in range(len(m)))


def higher_block_adjacency(alphabet, forbidden):
    """Adjacency of the higher-block graph of an SFT.

    States are the admissible words of length m-1 (m the longest
    forbidden word); u -> v when u + a is admissible and ends with v.
    """
    m = max((len(w) for w in forbidden), default=1)

    def admissible(w):
        return not any(w[i:i + len(f)] == f for f in forbidden
                       for i in range(len(w) - len(f) + 1))

    if m == 1:
        return [[sum(1 for a in alphabet if admissible((a,)))]]
    states = [w for w in iproduct(alphabet, repeat=m - 1) if admissible(w)]
    index = {w: i for i, w in enumerate(states)}
    adj = [[0] * len(states) for _ in states]
    for u in states:
        for a in alphabet:
            if admissible(u + (a,)):
                adj[index[u]][index[(u + (a,))[1:]]] += 1
    return adj


def periodic_count(graph, n):
    """The number of points fixed by shift^n in the graph's shift.

    Such points correspond one-to-one to words w of length n whose
    periodization is admissible; on a deterministic graph that holds
    iff the partial map "read w" has a cycle.
    """
    count = 0
    for w in iproduct(graph.labels, repeat=n):
        step = {}
        for q in graph.states:
            r = graph.image((q,), w)
            if r:
                step[q] = r.pop()
        for q in step:
            seen = set()
            while q in step and q not in seen:
                seen.add(q)
                q = step[q]
            if q in seen:
                count += 1
                break
    return count


def mobius(n):
    result, k, m = 1, 2, n
    while k * k <= m:
        if m % k == 0:
            m //= k
            if m % k == 0:
                return 0
            result = -result
        k += 1
    return -result if m > 1 else result


def periodic_points_up_to(counts):
    """|Fix(s) ∪ Fix(s^2) ∪ ... ∪ Fix(s^m)| from counts[n] = |Fix(s^n)|.

    Each point is counted once, at its least period d, and
    |least period d| = sum over e | d of mobius(d / e) * counts[e].
    """
    total = 0
    for d in range(1, len(counts)):
        total += sum(mobius(d // e) * counts[e] for e in range(1, d + 1) if d % e == 0)
    return total


def determinant(rows):
    """Exact determinant by Gaussian elimination over the rationals."""
    m = [[Fraction(v) for v in r] for r in rows]
    n = len(m)
    det = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k] != 0), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            if f:
                for j in range(k, n):
                    m[i][j] -= f * m[k][j]
    return int(det)


def subset_count(edges, states, labels):
    """Reachable non-empty subsets from the full state set (subset
    construction), used to place random presentations in size bands."""
    succ = {}
    for (p, a, q) in edges:
        succ.setdefault((p, a), set()).add(q)
    start = frozenset(states)
    seen = {start}
    queue = [start]
    while queue:
        current = queue.pop()
        for a in labels:
            nxt = frozenset(t for q in current for t in succ.get((q, a), ()))
            if nxt and nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return len(seen)
