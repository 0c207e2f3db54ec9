"""Reproducers for the cover-size cliffs that bound the ``report`` workload.

Usage, from the root of a checkout::

    python3 bench/cliffs.py [--limit SECONDS]

For each recorded presentation it prints the Fischer cover size and the
time ``smith_normal_form`` (on I - A of the cover) and
``nonsync_subshift`` take, or that they did not finish within the
limit.  Each step runs in a child process that is stopped at the limit.
These are known defects: the ``report`` workload stays below them only
so that a run finishes.  See ``bench/NOTES.md``.
"""

import argparse
import multiprocessing
import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

CASES = {
    "86-state cover, 3 symbols": (
        "s0 b s1, s1 a s2, s1 a s5, s1 b s1, s2 a s3, s3 a s5, s3 c s4, s4 a s9, "
        "s4 b s5, s5 a s6, s5 b s2, s6 a s7, s6 b s6, s7 a s8, s7 a s9, s8 a s4, "
        "s8 b s9, s8 c s7, s9 b s1, s9 b s7, s9 c s0"),
    "59-state cover, 2 symbols": (
        "s0 b s1, s0 b s2, s0 b s4, s1 a s1, s1 a s2, s2 a s8, s2 b s3, s3 a s4, "
        "s4 a s5, s4 b s5, s5 b s6, s5 b s7, s6 a s7, s7 a s3, s7 b s8, s8 a s0, "
        "s8 b s0"),
    "48-state cover, 2 symbols": (
        "s0 a s1, s1 b s2, s2 a s3, s2 b s5, s3 a s0, s3 a s4, s3 b s1, s4 b s3, "
        "s4 b s5, s5 a s6, s5 b s6, s6 a s7, s7 a s3, s7 b s0, s7 b s4"),
}


def _shift(edge_text):
    sys.path.insert(0, SRC)
    from synchrolab.presentation import Presentation
    from synchrolab.shift import Alphabet, build_sofic
    edges = [tuple(e.split()) for e in edge_text.split(", ")]
    states = sorted({e[0] for e in edges} | {e[2] for e in edges})
    labels = tuple(sorted({e[1] for e in edges}))
    return build_sofic(Alphabet(labels), Presentation.build(states, edges))


def _step(edge_text, step, queue):
    s = _shift(edge_text)
    from synchrolab.invariants import adjacency_matrix, smith_normal_form
    from synchrolab.shift import fischer_cover
    from synchrolab.sync import nonsync_subshift
    cover = fischer_cover(s)
    started = time.perf_counter()
    if step == "cover":
        queue.put(len(cover.states))
        return
    if step == "smith_normal_form":
        smith_normal_form(adjacency_matrix(cover).sub_from_identity())
    else:
        nonsync_subshift(s)
    queue.put(time.perf_counter() - started)


def timed(edge_text, step, limit):
    """Result of one step in a child process, or None past ``limit``."""
    context = multiprocessing.get_context("spawn")
    queue = context.Queue()
    child = context.Process(target=_step, args=(edge_text, step, queue))
    child.start()
    child.join(limit)
    if child.is_alive():
        child.terminate()
        child.join()
        return None
    return queue.get() if not queue.empty() else None


def main():
    parser = argparse.ArgumentParser(description="cover-size cliff reproducers")
    parser.add_argument("--limit", type=float, default=40.0)
    args = parser.parse_args()
    for name, edge_text in CASES.items():
        print(f"{name}: Fischer cover has {timed(edge_text, 'cover', args.limit)} states")
        for step in ("smith_normal_form", "nonsync_subshift"):
            seconds = timed(edge_text, step, args.limit)
            verdict = (f"not finished after {args.limit:g} s" if seconds is None
                       else f"{seconds:.3f} s")
            print(f"  {step}: {verdict}", flush=True)


if __name__ == "__main__":
    main()
