"""The four benchmark workloads: seeded inputs, library calls, checks.

Each workload function returns a fresh list of ``Task`` objects for one
pass.  A task's ``run`` calls into the library through module attributes
(so a traced run sees the call), and its ``check`` turns the result into
the canonical text that is hashed, or reports why the result is wrong.
The functions make new shift objects on every call: equal shifts hash
equal, so reusing them would let one pass time the caches another pass
filled.
"""

import contextlib
import functools
import io
import json
import os
import random

import reference as ref
from synchrolab import cli, conjugacy, invariants, shift, sync
from synchrolab.errors import NotConstructive
from synchrolab.points import BiSeq
from synchrolab.presentation import Presentation
from synchrolab.shift import Alphabet, build_sft, build_sofic, product


class Task:
    def __init__(self, name, run, check):
        self.name = name
        self.run = run
        self.check = check


def _graph_shift(graph, alphabet):
    return build_sofic(Alphabet(alphabet), Presentation.build(graph.states, graph.edges()))


def _shifts():
    golden = build_sft(Alphabet(("0", "1")), {("1", "1")})
    even = _graph_shift(ref.EVEN, ("0", "1"))
    return {"golden": golden, "even": even, "gap3": _graph_shift(ref.GAP3, ("0", "1")),
            "even_x_golden": product(even, golden)}


GRAPHS = {"golden": ref.GOLDEN, "even": ref.EVEN, "gap3": ref.GAP3,
          "even_x_golden": ref.EVEN_X_GOLDEN}


# -- rectangle ---------------------------------------------------------------

def _rectangle_check(report):
    if report["failures"] or not report["passed"]:
        return "rectangle check reported failures"
    if report["pairs"] != report["unstable_samples"] * report["stable_samples"]:
        return "pairs != unstable_samples * stable_samples"
    return None


def _rectangle_task(name, s, x, N, L):
    def check(report):
        return json.dumps(report, sort_keys=True, default=str), _rectangle_check(report)
    return Task(name, lambda: sync.rectangle_check(s, x, N, L), check)


def _sync_windows(graph, length):
    """Admissible synchronizing words of ``length``, in sorted order."""
    words = {w for q in graph.states for (w, _) in graph.paths(q, length)}
    return [w for w in sorted(words) if graph.synchronizing(w)]


def rectangle(seed, workdir):
    """The ten rectangle cases of acceptance criterion 5, then 90 seeded
    synchronizing points on the golden mean, even and 3-gap shifts.

    The central window x[1-N..N-1] fixes how many representatives each
    cylinder has, and so most of a check's cost.  Seeded points take the
    admissible synchronizing windows in turn and draw the rest of the
    point from the seed, so every seed runs the same mix of sizes.

    The even x golden cases run at L=4 (N=2) and L=5 (N=3), 1,600 pairs
    each: at L=6 they check 74,529 pairs (about 12 s) and 10,816 pairs
    (about 2 s).  A run repeats the whole list and times each task by its
    fastest pass, which needs tasks short against a run.
    """
    rng = random.Random(seed)
    shifts = _shifts()
    cases = [("golden", BiSeq.constant("0")), ("golden", BiSeq(("0",), ("1",), ("0",), 2)),
             ("even", BiSeq.constant("1")), ("even", BiSeq(("1",), ("0", "0"), ("1",), 2)),
             ("even_x_golden", BiSeq.constant("1|0"))]
    tasks = []
    for name, x in cases:
        for N in (2, 3):
            L = {2: 4, 3: 5}[N] if name == "even_x_golden" else 6
            tasks.append(_rectangle_task(f"criterion5/{name}/N{N}/L{L}/{x}",
                                         shifts[name], x, N, L))
    for name in ("golden", "even", "gap3"):
        graph = GRAPHS[name]
        for N in (2, 3):
            windows = _sync_windows(graph, 2 * N - 1)
            for i in range(15):
                while True:
                    point = ref.random_point(rng, graph, rng.randint(0, 4))
                    if ref.window(point, 1 - N, N) == windows[i % len(windows)]:
                        break
                x = BiSeq(*point)
                tasks.append(_rectangle_task(f"seeded/{name}/N{N}/L6/{x}",
                                             shifts[name], x, N, 6))
    return tasks


# -- periodic (CLI) ----------------------------------------------------------

def _spec_text(rng, graph, alphabet):
    """Sofic spec text for ``graph`` with seeded state names and line order."""
    names = {}
    for q in graph.states:
        while True:
            name = "q" + "".join(rng.choice("abcdefghjkmnpqrstuvwxyz") for _ in range(4))
            if name not in names.values():
                break
        names[q] = name
    body = [f"state: {names[q]}" for q in graph.states]
    body += [f"edge: {names[p]} {a} {names[q]}" for (p, a, q) in graph.edges()]
    rng.shuffle(body)
    return "\n".join([f"alphabet: {' '.join(alphabet)}", "type: sofic"] + body) + "\n"


def _cli(argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(argv)
    return status, out.getvalue(), err.getvalue()


_SFT_ADJACENCY = {"goldenmean": ref.higher_block_adjacency(("0", "1"), [("1", "1")]),
                  "full2": ref.higher_block_adjacency(("0", "1"), [])}


@functools.cache
def reference_count(spec, n):
    """|Fix(shift^n)| of a spec by the benchmark's own arithmetic."""
    if spec in _SFT_ADJACENCY:
        return ref.trace_power(_SFT_ADJACENCY[spec], n)
    return ref.periodic_count(GRAPHS[spec], n)


def _periodic_task(spec, ref_path, n, count_only):
    argv = ["periodic", ref_path, "--n", str(n), "--format", "json"]
    if count_only:
        argv.append("--count-only")

    def check(result):
        status, out, err = result
        text = f"status={status}\n{out}{err}"
        if status != 0:
            return text, f"exit status {status}"
        report = json.loads(out)
        want = reference_count(spec, n)
        if report["count"] != want:
            return text, f"count {report['count']} != reference {want}"
        if not count_only and len(report["points"]) != want:
            return text, "point list length differs from the count"
        return text, None
    return Task(f"periodic/{spec}/n{n}/{'count' if count_only else 'points'}",
                lambda: _cli(argv), check)


def _a1to1_task(spec, ref_path, maxper):
    argv = ["factor", ref_path, "--check", "a1to1", "--maxper", str(maxper),
            "--format", "json"]

    def check(result):
        status, out, err = result
        text = f"status={status}\n{out}{err}"
        if status != 0:
            return text, f"exit status {status}"
        report = json.loads(out)
        want = ref.periodic_points_up_to([None] + [reference_count(spec, n)
                                                   for n in range(1, maxper + 1)])
        if not report["passed"] or report["checked"] != want:
            return text, f"checked {report['checked']} != reference {want}"
        return text, None
    return Task(f"a1to1/{spec}/maxper{maxper}", lambda: _cli(argv), check)


def periodic(seed, workdir):
    """``synchrolab periodic`` and ``factor --check a1to1`` called in process.

    Periods run to 12 on two letters and 6 on four, so no task takes
    much over 0.2 s (n=14 takes 0.5-0.9 s).

    Builtin specs are named; the 3-gap and even x golden specs are
    written to files with seeded state names and line order, so every
    call parses real spec text.  Counts are fixed by the shift, so the
    seed moves the parse input, not the answer.
    """
    rng = random.Random(seed)
    paths = {"goldenmean": "goldenmean", "even": "even", "full2": "full2"}
    for spec, graph, alphabet in (("gap3", ref.GAP3, ("0", "1")),
                                  ("even_x_golden", ref.EVEN_X_GOLDEN,
                                   ("0|0", "0|1", "1|0", "1|1"))):
        path = os.path.join(workdir, f"{spec}.shift")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(_spec_text(rng, graph, alphabet))
        paths[spec] = path
    plan = []
    for spec in ("goldenmean", "even", "gap3"):
        plan += [(spec, n, only) for n in range(1, 13) for only in (False, True)]
        plan += [(spec, "a1to1", m) for m in (3, 6, 8)]
    plan += [("even_x_golden", n, only) for n in range(1, 7) for only in (False, True)]
    plan += [("even_x_golden", "a1to1", 2), ("even_x_golden", "a1to1", 4)]
    plan += [("full2", n, only) for n in (4, 8, 10) for only in (False, True)]
    rng.shuffle(plan)
    return [_a1to1_task(spec, paths[spec], arg) if n == "a1to1"
            else _periodic_task(spec, paths[spec], n, arg)
            for (spec, n, arg) in plan]


# -- report ------------------------------------------------------------------

# Bands of the subset-construction size (reachable non-empty subsets of
# the full state set) and how many presentations each band gets.  The
# bands keep the mix of small and large covers the same for every seed.
# Report cost is heavy-tailed within a band, so the workload takes many
# presentations; the top edge keeps clear of the cliffs in NOTES.md.
REPORT_BANDS = ((1, 8, 120), (9, 16, 120), (17, 28, 180), (29, 44, 180))


def _random_presentation(rng):
    k = rng.randint(6, 10)
    states = [f"s{i}" for i in range(k)]
    edges = {(states[i], rng.choice("ab"), states[(i + 1) % k]) for i in range(k)}
    for _ in range(rng.randint(k // 2, k)):
        edges.add((rng.choice(states), rng.choice("ab"), rng.choice(states)))
    return states, sorted(edges)


def _report_task(name, s):
    def check(report):
        data = report.to_dict()
        text = json.dumps(data, sort_keys=True)
        factors = data["bf_invariant_factors"]
        if any(d < 0 for d in factors):
            return text, "negative invariant factor"
        for d, e in zip(factors, factors[1:]):
            if d == 0 and e != 0 or d != 0 and e % d != 0:
                return text, f"divisibility chain broken at {d}, {e}"
        cover = shift.fischer_cover(s)
        index = {q: i for i, q in enumerate(cover.states)}
        i_minus_a = [[int(i == j) for j in range(len(index))] for i in range(len(index))]
        for (p, _, q) in cover.edges:
            i_minus_a[index[p]][index[q]] -= 1
        det = ref.determinant(i_minus_a)
        sign = (det > 0) - (det < 0)
        if data["det_sign"] != sign:
            return text, f"det sign {data['det_sign']} != reference {sign}"
        product_of_factors = 1
        for d in factors:
            product_of_factors *= d
        if det != 0 and product_of_factors != abs(det):
            return text, f"product of factors {product_of_factors} != |det| {abs(det)}"
        if det == 0 and 0 not in factors:
            return text, "singular I - A without a free summand"
        return text, None
    return Task(name, lambda: invariants.exact_sequence_report(s), check)


def report(seed, workdir):
    """``exact_sequence_report`` on 600 fresh irreducible presentations:
    6-10 states, symbols a/b, a Hamiltonian cycle plus random edges."""
    rng = random.Random(seed)
    alphabet = Alphabet(("a", "b"))
    wanted = {band: band[2] for band in REPORT_BANDS}
    chosen = []
    for _ in range(200000):
        if not any(wanted.values()):
            break
        states, edges = _random_presentation(rng)
        size = ref.subset_count(edges, states, "ab")
        band = next((b for b in REPORT_BANDS if b[0] <= size <= b[1]), None)
        if band is not None and wanted[band]:
            wanted[band] -= 1
            chosen.append((size, states, edges))
    else:
        raise RuntimeError("report inputs: size bands not filled")
    rng.shuffle(chosen)
    tasks = []
    for i, (size, states, edges) in enumerate(chosen):
        s = build_sofic(alphabet, Presentation.build(states, edges))
        tasks.append(_report_task(f"report/{i}/subsets{size}/{edges}", s))
    return tasks


# -- germs -------------------------------------------------------------------

def _homoclinic_pair(rng, graph):
    """Two distinct points with equal tails: a shared left cycle at q,
    two different equal-length paths q -> r, a shared right cycle at r."""
    while True:
        q = rng.choice(graph.states)
        length = rng.randint(1, 4)
        by_end = {}
        for (w, end) in graph.paths(q, length):
            by_end.setdefault(end, []).append(w)
        ends = [r for r in sorted(by_end) if len(by_end[r]) >= 2]
        if not ends:
            continue
        r = rng.choice(ends)
        core_x, core_y = rng.sample(by_end[r], 2)
        left = graph.cycle(rng, q, 3)
        right = graph.cycle(rng, r, 3)
        origin = rng.randint(-2, 2)
        return BiSeq(left, core_x, right, origin), BiSeq(left, core_y, right, origin)


def _germ_task(name, s, x, y, kind):
    def run():
        try:
            return conjugacy.construct_germ(s, x, y, kind, verify=True)
        except NotConstructive:
            return None

    def check(germ):
        if germ is None:
            return "refused", None
        text = (f"{germ.kind} {germ.source} -> {germ.target} "
                f"dom=[{germ.dom_lo},{germ.dom_hi}] rule={type(germ.rule).__name__}")
        if germ.apply(germ.source) != germ.target:
            return text, "germ.apply(source) != target"
        return text, None
    return Task(name, run, check)


def germs(seed, workdir):
    """``construct_germ(kind, verify=True)`` on 60 seeded homoclinic pairs
    per shift, twenty of each kind."""
    rng = random.Random(seed)
    shifts = _shifts()
    tasks = []
    for name in ("golden", "even", "gap3", "even_x_golden"):
        kinds = ["lc", "lcs", "lcu"] * 20
        rng.shuffle(kinds)
        for kind in kinds:
            x, y = _homoclinic_pair(rng, GRAPHS[name])
            tasks.append(_germ_task(f"germ/{name}/{kind}/{x}/{y}", shifts[name], x, y, kind))
    return tasks


WORKLOADS = {"rectangle": rectangle, "periodic": periodic, "report": report,
             "germs": germs}
