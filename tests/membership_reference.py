"""Reference decisions and subset automata that share no code with the kernel.

Points are read coordinate by coordinate with ``BiSeq.at``; SFTs are
decided by scanning windows for forbidden factors and sofic shifts by a
fixpoint over frozensets of state names, stepped along out-edge lists.
Subset automata, language equality and tail fixpoints are computed the
same way, on frozensets, and preimage counts by counting edge paths on
finite windows between those tail sets.  Graph structure -- trimming,
components and the period -- comes from walks of bounded length and
pairwise searches.  The library computes these on bitmasks, by walks
over tail-cycle runs and from one reachability closure, so agreement
between the two is a differential check.  The Smith form is computed
by Euclidean elimination over the integers with the unimodular
transforms tracked and checked, determinants over the rationals; the
library eliminates modulo one minor and tracks no transform.  The word
searches for small points, cylinder samples and connectors build every
candidate word with ``itertools.product`` and decide each candidate
point here; the library prunes one word search by tail masks and builds
only reduced cylinder candidates.  Germ domain samples read every
future's pasts and cut the list at the end; the library stops at its
budget.  The
rectangle check brackets every sample pair and brackets the value back
with the base point, deciding each splice here; the library ANDs one
tail mask per sample.  The density checks close orbits by a state BFS
over out-edge lists and extend words to synchronizing ones by a subset
BFS that tests each set when it leaves the queue, words are listed by
asking for each one-symbol extension, the non-synchronizing points are
read by walking each cycle once and adding every phase, and the minimal
cover merges followers by a separate partition step and trims the
quotient; the library runs one mask BFS, its word search, one cycle
read per state, and no second trim.  ``same_language`` decides language
equality by a search over mask pairs, beside ``distinguishing_word`` on
frozensets; the library checks the cover's language on its quotient.
The almost one-to-one check enumerates every periodic point and counts
and classifies each one; the library lists only the multiply covered
points by a pruned word search and counts the rest.
"""

import math
from fractions import Fraction
from itertools import product as iproduct

from synchrolab.errors import NotInLanguage, SearchExhausted
from synchrolab.oracles import OracleShift
from synchrolab.periodic import enumerate_periodic
from synchrolab.points import (BiSeq, CylinderS, CylinderU, agree_on, decide_relation,
                               shift_by, splice)
from synchrolab.presentation import Presentation
from synchrolab.shift import contains_word
from synchrolab.sync import classify_point


def window_admissible(s, w):
    """True iff the finite word ``w`` contains no forbidden factor of the
    SFT ``s``."""
    for f in s.forbidden:
        lf = len(f)
        for i in range(len(w) - lf + 1):
            if tuple(w[i:i + lf]) == f:
                return False
    return True


def _step(g, states, word):
    for a in word:
        states = frozenset(r for q in states for (_, b, r) in g.out_edges[q] if b == a)
    return states


def reference_point_in_shift(s, x):
    """``"yes"`` or ``"no"``: is ``x`` a point of the SFT/sofic shift ``s``?"""
    if not set(x.left) | set(x.core) | set(x.right) <= set(s.alphabet):
        return "no"
    start = x.origin + len(x.core)
    left = tuple(x.at(x.origin - len(x.left) + k) for k in range(len(x.left)))
    core = tuple(x.at(i) for i in range(x.origin, start))
    right = tuple(x.at(start + k) for k in range(len(x.right)))
    if s.kind == "sft":
        m = max((len(f) for f in s.forbidden), default=1)
        lo = x.origin - len(x.left) - m
        hi = start + len(x.right) + m
        for p in range(lo, hi):
            if not window_admissible(s, tuple(x.at(i) for i in range(p, p + m))):
                return "no"
        return "yes"
    assert s.kind == "sofic"
    g = s.presentation
    reached = _step(g, _past(g, left), core)
    return "yes" if reached & _future(g, right) else "no"


def _past(g, left):
    """States ending a left-infinite run that repeats ``left``."""
    past = frozenset(g.states)
    while True:
        nxt = _step(g, past, left)
        if nxt == past:
            return past
        past = nxt


def _future(g, right):
    """States starting a right-infinite run that repeats ``right``."""
    future = frozenset(g.states)
    while True:
        nxt = frozenset(q for q in future if _step(g, {q}, right) & future)
        if nxt == future:
            return future
        future = nxt


def _window_paths(g, x, k):
    """Edge paths of ``g`` reading ``x`` on [-k, k) from a past state to a
    future state; ``k`` must reach past the core on both sides."""
    left = tuple(x.at(-k - len(x.left) + i) for i in range(len(x.left)))
    right = tuple(x.at(k + i) for i in range(len(x.right)))
    paths = {q: 1 for q in _past(g, left)}
    for i in range(-k, k):
        a = x.at(i)
        nxt = {}
        for q, m in paths.items():
            for (_, b, r) in g.out_edges[q]:
                if b == a:
                    nxt[r] = nxt.get(r, 0) + m
        paths = nxt
    future = _future(g, right)
    return sum(m for q, m in paths.items() if q in future)


def reference_preimage_count(g, x):
    """The number of bi-infinite edge paths of ``g`` reading the point ``x``.

    Counts the distinct restrictions of those paths to [-K, K) and to
    [-2K, 2K).  With K past the core by |states| + 1 turns of each tail
    cycle, finitely many paths are all told apart within [-K, K), while
    infinitely many have two that part between K and 2K (or -2K and -K),
    so a count that still grows is infinite.
    """
    n = len(g.states)
    k = abs(x.origin) + abs(x.origin + len(x.core)) + (n + 1) * (len(x.left) + len(x.right))
    near, far = _window_paths(g, x, k), _window_paths(g, x, 2 * k)
    return near if near == far else math.inf


def _canonical_key(state):
    """The library's canonical state order, restated."""
    return (repr(type(state)), repr(state))


def _subgraph(g, keep):
    return Presentation.build(keep, [e for e in g.edges if e[0] in keep and e[2] in keep])


def reference_trim(g):
    """The states of ``g`` with a path of length |states| out of them and
    one into them (such paths repeat a state, so they run through a
    cycle), and the edges between them."""
    starts = ends = set(g.states)
    for _ in g.states:
        starts = {q for (q, _, r) in g.edges if r in starts}
        ends = {r for (q, _, r) in g.edges if q in ends}
    return _subgraph(g, starts & ends)


def _reachable(g, q):
    """The states at the end of a non-empty path from ``q``, by search."""
    seen = set()
    frontier = [q]
    while frontier:
        for (_, _, r) in g.out_edges[frontier.pop()]:
            if r not in seen:
                seen.add(r)
                frontier.append(r)
    return seen


def reference_components(g):
    """``(irreducible, terminal, components)`` of ``g``: strong
    connectivity, the subgraph on the unique component with no edge out
    of it (``None`` unless there is exactly one), and the set of strongly
    connected components as frozensets of states, from pairwise
    reachability."""
    reach = {q: _reachable(g, q) for q in g.states}
    components = {frozenset({q} | {r for r in reach[q] if q in reach[r]})
                  for q in g.states}
    terminal = [c for c in components if all(reach[q] <= c for q in c)]
    irreducible = bool(g.states) and all(reach[q] == set(g.states) for q in g.states)
    return (irreducible, _subgraph(g, terminal[0]) if len(terminal) == 1 else None,
            components)


def reference_period(g):
    """gcd{n <= |states| : some closed walk has length n}, from bounded
    walks; cubic in the states, so only callers that read it pay."""
    period = 0
    walks = {q: {q} for q in g.states}
    for n in range(1, len(g.states) + 1):
        walks = {q: {r for u in walks[q] for (_, _, r) in g.out_edges[u]}
                 for q in g.states}
        if any(q in walks[q] for q in g.states):
            period = math.gcd(period, n)
    return period


def reference_graph_structure(g):
    """``(irreducible, terminal, period, components)`` of ``g``: the
    components of ``reference_components`` with ``reference_period``."""
    irreducible, terminal, components = reference_components(g)
    return irreducible, terminal, reference_period(g), components


def reference_subset_automaton(g, least, key=_canonical_key):
    """The trimmed subset automaton of ``g`` on state sets of ``least`` or
    more states reachable from the full set, each named by its members
    sorted by ``key``."""
    def name(subset):
        return tuple(sorted(subset, key=key))

    full = frozenset(g.states)
    seen = {full} if len(full) >= least else set()
    queue = list(seen)
    edges = []
    while queue:
        current = queue.pop(0)
        for a in g.alphabet:
            nxt = _step(g, current, (a,))
            if len(nxt) < least:
                continue
            edges.append((name(current), a, name(nxt)))
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return reference_trim(Presentation.build([name(s) for s in seen], edges))


def distinguishing_word(p1, p2):
    """A shortest word read in exactly one of ``p1``, ``p2``, or ``None``
    when their languages are equal."""
    start = (frozenset(p1.states), frozenset(p2.states))
    seen = {start}
    queue = [(start, ())]
    alphabet = sorted(set(p1.alphabet) | set(p2.alphabet))
    while queue:
        (s1, s2), w = queue.pop(0)
        if bool(s1) != bool(s2):
            return w
        for a in alphabet:
            nxt = (_step(p1, s1, (a,)), _step(p2, s2, (a,)))
            if (nxt[0] or nxt[1]) and nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, w + (a,)))
    return None


def same_language(p1, p2):
    """True iff ``p1`` and ``p2`` accept the same finite words.

    Decided on the library's masks by a search over the pairs of state
    sets reachable from the full pair: the languages differ iff some
    reachable pair has exactly one empty side.  ``distinguishing_word``
    decides the same on frozensets.
    """
    pair = (p1.full_mask, p2.full_mask)
    seen = {pair}
    queue = [pair]
    alphabet = sorted(set(p1.alphabet) | set(p2.alphabet))
    for (s1, s2) in queue:
        if bool(s1) != bool(s2):
            return False
        for a in alphabet:
            nxt = (p1.step(s1, a), p2.step(s2, a))
            if nxt != (0, 0) and nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return True


def reference_tail_states(g, cycle, backward):
    """States of ``g`` ending an infinite run of ``cycle`` reads (when
    ``backward``: starting one), by a fixpoint over the graph of
    ``cycle``-runs between states."""
    arcs = {(q, r) for q in g.states for r in _step(g, {q}, cycle)}
    alive = set(g.states)
    while True:
        if backward:
            nxt = {u for u in alive if any(r in alive for (q, r) in arcs if q == u)}
        else:
            nxt = {r for r in alive if any(q in alive for (q, s) in arcs if s == r)}
        if nxt == alive:
            return alive
        alive = nxt


def fraction_determinant(rows):
    """Exact determinant of a square list of rows, by Gaussian
    elimination over the rationals."""
    m = [[Fraction(x) for x in r] for r in rows]
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
            m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    return int(det)


def _mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def reference_trace_power(a, n):
    """tr(A^n) of the square ``IntMatrix`` ``a``, for n >= 1, by n - 1
    plain matrix products."""
    rows = [list(r) for r in a.entries]
    power = rows
    for _ in range(n - 1):
        power = _mat_mul(power, rows)
    return sum(power[i][i] for i in range(len(rows)))


def reference_smith_form(a):
    """``(diagonal, rank, determinant)`` of the ``IntMatrix`` ``a`` by
    transform-tracking Euclidean elimination.

    Row and column operations on ``a`` are applied to identity matrices
    U and V as well; the result is accepted only when det U and det V
    are +-1 and U a V is the diagonal.  Entries grow without bound, so
    this stalls on some 6 x 6 inputs.
    """
    m = [list(r) for r in a.entries]
    rows, cols = a.rows, a.cols
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in m + v:
            r[i], r[j] = r[j], r[i]

    def add_row(src, dst, q):
        m[dst] = [x + q * y for x, y in zip(m[dst], m[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, q):
        for r in m + v:
            r[dst] += q * r[src]

    t = 0
    while t < min(rows, cols):
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
                    add_row(t, i, -(m[i][t] // m[t][t]))
                    if m[i][t] != 0:
                        swap_rows(t, i)
                        reduced = True
            for j in range(t + 1, cols):
                if m[t][j] != 0:
                    add_col(t, j, -(m[t][j] // m[t][t]))
                    if m[t][j] != 0:
                        swap_cols(t, j)
                        reduced = True
        offender = next((i for i in range(t + 1, rows)
                         for j in range(t + 1, cols) if m[i][j] % m[t][t] != 0), None)
        if offender is not None:
            add_row(offender, t, 1)
            continue
        if m[t][t] < 0:
            m[t] = [-x for x in m[t]]
            u[t] = [-x for x in u[t]]
        t += 1

    diagonal = tuple(m[i][i] for i in range(min(rows, cols)))
    if abs(fraction_determinant(u)) != 1 or abs(fraction_determinant(v)) != 1:
        raise AssertionError("reference Smith transforms are not unimodular")
    expected = [[diagonal[i] if i == j else 0 for j in range(cols)] for i in range(rows)]
    if _mat_mul(_mat_mul(u, [list(r) for r in a.entries]), v) != expected:
        raise AssertionError("reference U A V is not the Smith diagonal")
    det = fraction_determinant(a.entries) if rows == cols else None
    return diagonal, sum(1 for d in diagonal if d != 0), det


def reference_words(g, states, symbols, depth, backward):
    """``(word, states)`` for every word over ``symbols`` of length <=
    ``depth`` read from the state set ``states`` (``backward``: with a
    path reading it into ``states``), with the non-empty set reached,
    by trying every word."""
    out = []
    for n in range(depth + 1):
        for w in iproduct(symbols, repeat=n):
            if backward:
                reached = frozenset(q for q in g.states if _step(g, {q}, w) & states)
            else:
                reached = _step(g, states, w)
            if reached:
                out.append((w, reached))
    return out


def _canonical_order(points):
    return sorted(points, key=lambda p: (p.description_size(), str(p)))


def reference_enumerate_points(s, cycle_len=2, core_len=2, origin_radius=1):
    """Every point with cycles up to ``cycle_len``, cores up to
    ``core_len`` and origins up to ``origin_radius`` that is in ``s``."""
    symbols = tuple(s.alphabet)
    cycles = [w for n in range(1, cycle_len + 1) for w in iproduct(symbols, repeat=n)]
    cores = [w for n in range(core_len + 1) for w in iproduct(symbols, repeat=n)]
    candidates = {BiSeq(left, core, right, origin)
                  for left in cycles for right in cycles for core in cores
                  for origin in range(-origin_radius, origin_radius + 1)}
    return _canonical_order(x for x in candidates if reference_point_in_shift(s, x) == "yes")


def reference_cylinder_representatives(s, x, N, L, cycle_len, side):
    """The points of ``s`` agreeing with ``x`` on coordinates <= N-1
    (``side`` "u") or >= 1-N ("s"), with a free word of length <= L-N
    and a cycle of length <= ``cycle_len`` on the other side."""
    symbols = tuple(s.alphabet)
    cycles = [w for n in range(1, cycle_len + 1) for w in iproduct(symbols, repeat=n)]
    words = [w for n in range(max(0, L - N) + 1) for w in iproduct(symbols, repeat=n)]
    if side == "u":
        a = min(x.origin, N)
        candidates = {BiSeq(x.left_pattern_at(a), x.window(a, N) + u, c, a)
                      for u in words for c in cycles}
    else:
        b = max(x.right_start, 1 - N)
        candidates = {BiSeq(c, u + x.window(1 - N, b), x.right_pattern_at(b), 1 - N - len(u))
                      for u in words for c in cycles}
    return _canonical_order(y for y in candidates if reference_point_in_shift(s, y) == "yes")


def reference_domain_samples(germ, budget=6):
    """A germ's domain samples as the brute-force cylinder points give
    them: for kind ``lc``, the first two pasts of every future read, and
    the list cut to ``budget`` at the end."""
    s, x, lo, hi = germ.shift, germ.source, germ.dom_lo, germ.dom_hi
    if germ.kind == "lcs":
        return reference_cylinder_representatives(s, x, hi + 1, hi + 3, 2, "u")[:budget]
    if germ.kind == "lcu":
        return reference_cylinder_representatives(s, x, 1 - lo, 3 - lo, 2, "s")[:budget]
    futures = reference_cylinder_representatives(s, x, hi + 1, hi + 3, 2, "u")[:budget]
    out = []
    for y in futures:
        out.extend(reference_cylinder_representatives(s, y, 1 - lo, 3 - lo, 2, "s")[:2])
    return out[:budget] if out else [x]


def reference_join_left_tail(s, p, tail, boundary, depth):
    """The first point of ``s`` with a rotation of p's cycle, then a
    connector, then ``tail`` from ``boundary`` on, that is unstably
    equivalent to ``p``: by connector length, rotation, then
    lexicographically; ``None`` when there is none up to ``depth``."""
    b = max(boundary, tail.right_start)
    suffix = tail.window(boundary, b)
    for n in range(depth + 1):
        for rot in range(len(p.left)):
            pattern = p.left[rot:] + p.left[:rot]
            for u in iproduct(s.alphabet.symbols, repeat=n):
                candidate = BiSeq(pattern, u + suffix, tail.right_pattern_at(b), boundary - n)
                if (reference_point_in_shift(s, candidate) == "yes"
                        and decide_relation(candidate, p, "unstable")):
                    return candidate
    return None


def reference_join_right_tail(s, head, boundary, q, depth):
    """The mirror image of ``reference_join_left_tail``: ``head`` below
    ``boundary``, a connector, then a rotation of q's cycle, stably
    equivalent to ``q``."""
    a = min(boundary, head.origin)
    prefix = head.window(a, boundary)
    for n in range(depth + 1):
        for rot in range(len(q.right)):
            pattern = q.right[rot:] + q.right[:rot]
            for u in iproduct(s.alphabet.symbols, repeat=n):
                candidate = BiSeq(head.left_pattern_at(a), prefix + u, pattern, a)
                if (reference_point_in_shift(s, candidate) == "yes"
                        and decide_relation(candidate, q, "stable")):
                    return candidate
    return None


def reference_bridge_candidates(s, x, y, n, depth):
    """The candidate bridge points of ``sync_bridge`` in the order it
    tries them: y's past through coordinate n-1, a connector, then a
    rotation of x's right cycle, kept when in ``s`` and stably
    equivalent to ``x``; by connector length, rotation, then
    lexicographically."""
    a = min(1 - n, y.origin)
    head = y.window(a, n)
    for m in range(depth + 1):
        for start in range(x.right_start, x.right_start + len(x.right)):
            for u in iproduct(s.alphabet.symbols, repeat=m):
                z = BiSeq(y.left_pattern_at(a), head + u, x.right_pattern_at(start), a)
                if reference_point_in_shift(s, z) == "yes" and decide_relation(z, x, "stable"):
                    yield z


def _reference_bracket(s, y, z, N):
    """``[y, z]`` at radius ``2**-N``, or None when it is undefined."""
    if not agree_on(y, z, 1 - N, N):
        return None
    r = splice(y, z)
    return r if reference_point_in_shift(s, r) == "yes" else None


def reference_rectangle_failures(s, x, N, unstable, stable):
    """The failures of ``rectangle_check`` at ``x`` on the given samples:
    every pair is bracketed, its value checked against both cylinders and
    bracketed back with ``x``."""
    failures = []
    for y in unstable:
        for z in stable:
            r = _reference_bracket(s, y, z, N)
            if r is None:
                failures.append(("bracket undefined", y, z))
            elif not (CylinderS(y, N).contains(r) and CylinderU(z, N).contains(r)):
                failures.append(("bracket outside cylinders", y, z))
            elif _reference_bracket(s, r, x, N) != y or _reference_bracket(s, x, r, N) != z:
                failures.append(("h_x does not invert", y, z))
    return failures


def reference_enumerate_words(s, max_len):
    """Every word of ``s`` of length <= ``max_len``, by length and then in
    alphabet order, extending each admissible word by each symbol: SFT
    and sofic words are read on frozensets, oracle words are asked."""
    def admissible(w):
        if isinstance(s, OracleShift):
            return contains_word(s, w)
        return bool(_step(s.presentation, frozenset(s.presentation.states), w))

    out = [()]
    frontier = [()]
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            for a in s.alphabet:
                candidate = w + (a,)
                if admissible(candidate):
                    nxt.append(candidate)
        out.extend(nxt)
        frontier = nxt
    return out


def _shortest_path(cover, source, target, allow_empty=True):
    """Labels of a shortest path source -> target; () if equal."""
    if source == target and allow_empty:
        return ()
    queue = [(source, ())]
    seen = {source} if allow_empty else set()
    while queue:
        q, labels = queue.pop(0)
        for (_, a, nxt) in cover.out_edges[q]:
            if nxt == target:
                return labels + (a,)
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, labels + (a,)))
    return None


def reference_close_orbit_through(cover, word):
    """A periodic point reading ``word`` from 0: for the first start state
    with a run of ``word`` and the first end state of that run, a
    shortest return path by a state BFS."""
    runs = [(q0, _step(cover, {q0}, word)) for q0 in cover.states]
    if not any(ends for (_, ends) in runs):
        raise NotInLanguage(f"no run of {word!r}")
    for (q0, ends) in runs:
        for qe in sorted(ends, key=_canonical_key):
            path = _shortest_path(cover, qe, q0, allow_empty=bool(word))
            if path is not None:
                return BiSeq.periodic(word + tuple(path), 0)
    raise SearchExhausted(f"no cycle closes through {word!r}")


def reference_sync_extension(cover, word):
    """Shortest ``u`` with ``word + u`` synchronizing in ``cover``; a BFS
    over frozensets, testing each set when it leaves the queue."""
    start = _step(cover, frozenset(cover.states), word)
    if not start:
        raise NotInLanguage(f"no run of {word!r}")
    queue = [(start, ())]
    seen = {start}
    for (current, u) in queue:
        if len(current) == 1:
            return u
        for a in cover.alphabet:
            nxt = _step(cover, current, (a,))
            if nxt and nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, u + (a,)))
    raise SearchExhausted(f"no synchronizing extension of {word!r}")


def reference_sync_density_entries(s, cover, L):
    """``sync_density_check(s, L)["entries"]`` for an SFT or sofic ``s``
    with Fischer cover ``cover``."""
    entries = []
    for w in reference_enumerate_words(s, L):
        u = reference_sync_extension(cover, w)
        point = reference_close_orbit_through(cover, w + u)
        ok = (classify_point(s, point).status == "synchronizing"
              and point.window(0, len(w)) == tuple(w))
        entries.append({"word": w, "point": str(point), "status":
                        "yes" if ok else "no", "witness": w + u})
    return entries


def reference_periodic_density_entries(s, cover, L):
    """``periodic_density_check(s, L)["entries"]`` for an SFT or sofic
    ``s`` with Fischer cover ``cover``."""
    entries = []
    for w in reference_enumerate_words(s, L):
        point = reference_close_orbit_through(cover, w)
        ok = (reference_point_in_shift(s, point) == "yes"
              and point.window(0, len(w)) == tuple(w)
              and shift_by(point, len(point.left)) == point)
        entries.append({"word": w, "point": str(point), "status": "yes" if ok else "no"})
    return entries


def reference_nonsync_points(p):
    """``None`` when the trimmed graph ``p`` is not a disjoint union of
    cycles; else its points, each cycle walked once from its least state
    and read at every phase, in canonical order."""
    if any(len(p.out_edges[q]) != 1 or len(p.in_edges[q]) != 1 for q in p.states):
        return None
    points = set()
    remaining = set(p.states)
    while remaining:
        q0 = sorted(remaining, key=str)[0]
        labels = []
        q = q0
        while True:
            (_, a, nxt) = p.out_edges[q][0]
            labels.append(a)
            remaining.discard(q)
            q = nxt
            if q == q0:
                break
        for phase in range(len(labels)):
            points.add(BiSeq.periodic(tuple(labels), phase))
    return tuple(_canonical_order(points))


def reference_follower_partition(p):
    """Classes of the states of the deterministic ``p`` with equal
    follower languages, by Moore refinement against a dead state, each
    in canonical order."""
    block = {q: 0 for q in p.states}
    while True:
        signatures = {}
        for q in p.states:
            sig = (block[q],)
            for a in p.alphabet:
                targets = [r for (_, b, r) in p.out_edges[q] if b == a]
                sig += ((a, block[targets[0]] if targets else None),)
            signatures[q] = sig
        relabel = {}
        new_block = {}
        for q in p.states:
            sig = signatures[q]
            if sig not in relabel:
                relabel[sig] = len(relabel)
            new_block[q] = relabel[sig]
        if new_block == block:
            break
        block = new_block
    classes = {}
    for q in p.states:
        classes.setdefault(block[q], []).append(q)
    return [tuple(sorted(members, key=_canonical_key)) for members in classes.values()]


def reference_minimal_cover(g):
    """The Fischer cover of the shift ``g`` presents, renamed, or ``None``
    when the construction fails: subset automaton, follower merge, trim,
    the unique terminal component, and a language check."""
    det = reference_subset_automaton(g, 1)
    representative = {}
    for members in reference_follower_partition(det):
        for q in members:
            representative[q] = members if len(members) > 1 else members[0]
    merged = Presentation.build(
        set(representative.values()),
        {(representative[p], a, representative[q]) for (p, a, q) in det.edges})
    core = reference_components(reference_trim(merged))[1]
    if core is None or distinguishing_word(det, core) is not None:
        return None
    return renamed(core)


def renamed(p, mapping=None):
    """``p`` with its states renamed by ``mapping``, by default
    canonically to ``s0, s1, ...`` in sorted order."""
    if mapping is None:
        mapping = {q: f"s{i}" for i, q in enumerate(p.states)}
    return Presentation.build([mapping[q] for q in p.states],
                              [(mapping[u], a, mapping[v]) for (u, a, v) in p.edges])


def reference_almost_one_to_one_check(c, max_period):
    """``factor.almost_one_to_one_check`` by enumerating the periodic
    points of every period up to ``max_period`` and counting the
    preimages of, and classifying, each new one."""
    seen = set()
    exceptional = []
    violations = []
    for n in range(1, max_period + 1):
        for p in enumerate_periodic(c.target, n).points:
            if p in seen:
                continue
            seen.add(p)
            count = reference_preimage_count(c.presentation, p)
            status = classify_point(c.target, p).status
            if count != 1:
                exceptional.append({"point": str(p), "count": count,
                                    "status": status})
                if status == "synchronizing":
                    violations.append(str(p))
    return {"max_period": max_period,
            "checked": len(seen),
            "exceptional": exceptional,
            "passed": not violations}
