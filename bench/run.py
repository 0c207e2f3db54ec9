"""The synchrolab benchmark.

Usage, from the root of a checkout::

    python3 bench/run.py --workload rectangle --seed 0 --seconds 25 --trace 0

One process, one thread, a closed loop with one caller: each task starts
when the previous one returns.  With ``--trace 0`` the run repeats the
workload's fixed task list (fresh inputs, emptied library caches) for
about ``--seconds`` and reports end-to-end metrics from each task's
fastest pass, rescaled to a reference machine speed.  With ``--trace 1``
it runs the list once untraced and once with spans around every layer,
and reports per-layer metrics.  Every task output is cross-checked and
hashed; the last line of standard output is one JSON object.  See
``bench/NOTES.md``.
"""

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 7


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("rectangle", "periodic", "report", "germs"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="import and build the inputs, then exit (times setup_s)")
    return parser.parse_args(argv)


def library_caches():
    """Every functools cache in the package, to empty before each pass."""
    found = {}
    for name, module in sorted(sys.modules.items()):
        if name == "synchrolab" or name.startswith("synchrolab."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    found[id(value)] = value
    return list(found.values())


# The calibration loop's fastest time on the 2-vCPU VM the benchmark was
# sized on.  Times are reported at this reference speed; see NOTES.md.
REFERENCE_LOOP_S = 115e-6


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def _calibration_loop():
    """Fixed work of the library's kind: small tuples, slotted objects
    and set lookups.  It tracks the machine's speed on the library's
    code better than plain arithmetic does."""
    seen = set()
    total = 0
    for i in range(200):
        t = (i % 3, i % 5, i % 7)
        pair = _Pair(t, tuple(reversed(t)))
        seen.add(pair.b)
        total += pair.a[0] + len(seen)
    return total


def loop_seconds():
    """Fastest of three runs of a fixed pure-Python loop: the machine's
    current speed."""
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        _calibration_loop()
        best = min(best, time.perf_counter() - started)
    return best


def at_reference_speed(seconds, loop_before, loop_after):
    return seconds * REFERENCE_LOOP_S * 2 / (loop_before + loop_after)


def measure_setup(args):
    """Medians over fresh interpreters that import the library and build
    the inputs, from process start to exit: (at reference speed, raw)."""
    raw, scaled = [], []
    command = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
               args.workload, "--seed", str(args.seed), "--setup-probe"]
    for _ in range(SETUP_PROBES):
        loop_before = loop_seconds()
        started = time.perf_counter()
        subprocess.run(command, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        raw.append(time.perf_counter() - started)
        scaled.append(at_reference_speed(raw[-1], loop_before, loop_seconds()))
    return statistics.median(scaled), statistics.median(raw)


class Pass:
    """One pass over a fresh task list.

    ``raw`` and ``scaled`` hold each task's seconds as measured and at
    reference speed; ``hits`` and ``misses`` count fischer_cover cache
    lookups made by the timed calls only.
    """

    def __init__(self, build, seed, workdir, caches, cover_cache, tracer=None):
        tasks = build(seed, workdir)
        for cache in caches:
            cache.cache_clear()
        gc.collect()
        self.raw, self.scaled, self.outputs, self.failures = [], [], [], []
        self.hits = self.misses = 0
        for task in tasks:
            before = cover_cache.cache_info()
            loop_before = loop_seconds()
            error = None
            started = time.perf_counter()
            try:
                if tracer is None:
                    result = task.run()
                else:
                    tracer.enabled = True
                    try:
                        result = tracer.task(task.run)
                    finally:
                        tracer.enabled = False
            except Exception as exc:  # a failed task is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            self.raw.append(time.perf_counter() - started)
            self.scaled.append(at_reference_speed(self.raw[-1], loop_before, loop_seconds()))
            after = cover_cache.cache_info()
            self.hits += after.hits - before.hits
            self.misses += after.misses - before.misses
            text = ""
            if error is None:
                try:
                    text, error = task.check(result)
                except Exception as exc:
                    error = f"check raised {type(exc).__name__}: {exc}"
            self.outputs.append(f"{task.name}\t{text}")
            if error is not None:
                self.failures.append(f"{task.name}: {error}")


def digest(outputs):
    return hashlib.sha256("\n".join(outputs).encode("utf-8")).hexdigest()


def recorded_digest(workload, seed):
    with open(os.path.join(BENCH_DIR, "digests.json"), encoding="utf-8") as handle:
        return json.load(handle).get(workload, {}).get(str(seed))


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "synchrolab", "__init__.py")):
        print(f"error: no library source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH_DIR)
    import tracing
    from workloads import WORKLOADS

    build = WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(prefix="_work-", dir=BENCH_DIR) as workdir:
        if args.setup_probe:
            build(args.seed, workdir)
            return 0
        from synchrolab.shift import fischer_cover
        inputs = (build, args.seed, workdir, library_caches(), fischer_cover)
        if args.trace:
            return traced_run(args, inputs, tracing)
        return timed_run(args, inputs)


def check_outputs(args, passes_outputs, failures):
    """Correctness over all passes: no failures, one digest, and the
    recorded digest when this seed has one.  Returns (line, problems)."""
    digests = {digest(outputs) for outputs in passes_outputs}
    problems = list(failures)
    if len(digests) != 1:
        problems.append("outputs differ between passes")
    want = recorded_digest(args.workload, args.seed)
    got = sorted(digests)[0]
    if want is None:
        verdict = "no recorded digest for this seed"
    elif got == want:
        verdict = "matches the recorded digest"
    else:
        verdict = "MISMATCH"
        problems.append(f"digest {got} != recorded {want}")
    return f"digest {got} ({verdict})", problems


def print_result(attempted, failed, problems, metrics, lines):
    for line in lines:
        print(line)
    for problem in problems[:20]:
        print(f"FAILED {problem}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def timed_run(args, inputs):
    setup_s, setup_raw = measure_setup(args)
    passes = []
    started = time.perf_counter()
    while not passes or (time.perf_counter() - started
                         + (time.perf_counter() - started) / len(passes) <= args.seconds):
        passes.append(Pass(*inputs))
    best = [min(times) for times in zip(*(p.scaled for p in passes))]
    best_raw = [min(times) for times in zip(*(p.raw for p in passes))]
    failures = [f for p in passes for f in p.failures]
    digest_line, problems = check_outputs(args, [p.outputs for p in passes], failures)
    attempted = len(best) * len(passes)
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "wall_s": {"value": sum(best), "unit": "s"},
        "task_p50_ms": {"value": 1000 * statistics.median(best), "unit": "ms"},
        "task_p90_ms": {"value": 1000 * p90(best), "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
    }
    raw = {"setup_s": setup_raw, "wall_s": sum(best_raw),
           "task_p50_ms": 1000 * statistics.median(best_raw),
           "task_p90_ms": 1000 * p90(best_raw)}
    lines = [f"workload {args.workload} seed {args.seed}: {len(best)} tasks x "
             f"{len(passes)} passes, each task timed by its fastest pass",
             digest_line,
             "metric       at reference speed (as measured)"]
    for name, m in metrics.items():
        measured = f" ({raw[name]:.6g})" if name in raw else ""
        lines.append(f"{name:12s} {m['value']:.6g}{measured} {m['unit']}")
    lines.append(f"{'error_rate':12s} {len(failures) / attempted:.6g} "
                 f"(failed {len(failures)} of {attempted} attempted)")
    return print_result(attempted, len(failures), problems, metrics, lines)


def traced_run(args, inputs, tracing):
    plain = Pass(*inputs)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = Pass(*inputs, tracer)
    finally:
        tracer.uninstall()
    failures = plain.failures + traced.failures
    digest_line, problems = check_outputs(args, [plain.outputs, traced.outputs], failures)
    overhead = sum(traced.scaled) / sum(plain.scaled)
    values = tracing.per_layer_values(tracer, traced.hits, traced.misses, overhead)
    units = {name: unit for (name, unit, _) in tracing.per_layer_spec()}
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    lines = [f"workload {args.workload} seed {args.seed}: traced pass of "
             f"{len(traced.outputs)} tasks, {len(tracer.span_start)} spans",
             digest_line]
    lines += [f"{name:42s} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    return print_result(2 * len(traced.outputs), len(failures), problems, metrics, lines)


if __name__ == "__main__":
    sys.exit(main())
