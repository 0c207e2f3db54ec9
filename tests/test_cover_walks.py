"""The cover walks of the density checks, the non-synchronizing set, the
word lists and the minimal cover against their old state-name versions.

``sync_density_check`` and ``periodic_density_check`` close orbits and
extend words by one mask BFS, ``nonsync_subshift`` decides finiteness by
counting the kept arcs of its subset search and reads one cycle per kept
index, ``Shift.words`` lists words with ``Presentation.words`` and
``minimal_cover`` merges followers on the peeled indices of the subset
search.  ``membership_reference``
keeps the walks they replace -- a state BFS over out-edge lists, a
subset BFS that tests each set when it leaves the queue, a frontier word
loop, a walk of each cycle read at every phase, and a separate follower
partition followed by a trim -- all on frozensets.  The shifts are the
builtin specs, even x golden, and seeded random presentations with at
most 5 states and 3 symbols, their alphabets declared in a seeded order.
"""

import random

import pytest

from synchrolab.errors import EmptyShift, NotIrreducible, Unverified
from synchrolab.oracles import OracleShift
from synchrolab.periodic import periodic_density_check
from synchrolab.presentation import Presentation, minimal_cover
from synchrolab.shift import (Alphabet, build_sofic, fischer_cover,
                              product)
from synchrolab.specfile import BUILTIN_SPECS, load_spec
from synchrolab.sync import nonsync_subshift, sync_density_check

from membership_reference import (reference_enumerate_words, reference_minimal_cover,
                                  reference_nonsync_points,
                                  reference_periodic_density_entries,
                                  reference_subset_automaton,
                                  reference_sync_density_entries)


def _random_shifts(count=200, seed=11):
    """Seeded sofic shifts on 1-5 states and 1-3 symbols; about half get a
    cycle through every state, so most are irreducible, and some declare
    a symbol that no edge carries."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        states = [f"q{i}" for i in range(rng.randint(1, 5))]
        symbols = rng.sample("abc", rng.randint(1, 3))
        edges = {(rng.choice(states), rng.choice(symbols), rng.choice(states))
                 for _ in range(rng.randint(len(states), 3 * len(states)))}
        if rng.random() < 0.5:
            edges |= {(p, rng.choice(symbols), q)
                      for (p, q) in zip(states, states[1:] + states[:1])}
        try:
            out.append(build_sofic(Alphabet(tuple(symbols)),
                                   Presentation.build(states, edges)))
        except EmptyShift:
            continue
    return out


def _shifts():
    specs = [load_spec(name).shift for name in BUILTIN_SPECS]
    return specs + [product(load_spec("even").shift, load_spec("goldenmean").shift)]


def _compare(s, seen, L=3):
    """Compares every walk on ``s`` with its reference; counts what the
    shift exercised in ``seen``."""
    assert s.words(4) == reference_enumerate_words(s, 4)
    want = reference_minimal_cover(s.presentation)
    if want is None:
        with pytest.raises(NotIrreducible):
            minimal_cover(s.presentation)
        seen["reducible"] += 1
        return
    cover = minimal_cover(s.presentation)
    assert (cover.states, cover.edges) == (want.states, want.edges)
    assert fischer_cover(s) == cover
    assert (sync_density_check(s, L)["entries"]
            == reference_sync_density_entries(s, cover, L))
    assert (periodic_density_check(s, L)["entries"]
            == reference_periodic_density_entries(s, cover, L))
    report = nonsync_subshift(s)
    assert report.presentation == reference_subset_automaton(cover, 2)
    points = reference_nonsync_points(report.presentation)
    if points is None:
        assert (report.finiteness, report.points) == ("infinite", ())
        seen["infinite"] += 1
    else:
        assert (report.finiteness, report.points) == ("finite", points)
        seen["finite"] += bool(points)
        seen["phases"] += any(len(p.right) > 1 for p in points)
    seen["cover states"] = max(seen["cover states"], len(cover.states))


def test_walks_match_reference_on_builtin_shifts():
    seen = {"reducible": 0, "infinite": 0, "finite": 0, "phases": 0, "cover states": 0}
    oracles = 0
    for s in _shifts():
        if isinstance(s, OracleShift):
            assert s.words(4) == reference_enumerate_words(s, 4)
            for call in (lambda: fischer_cover(s), lambda: nonsync_subshift(s)):
                with pytest.raises(Unverified):
                    call()
            oracles += 1
        else:
            _compare(s, seen)
    assert oracles == 2 and seen["reducible"] == 0 and seen["finite"] >= 1, seen


def test_walks_match_reference_on_random_presentations():
    seen = {"reducible": 0, "infinite": 0, "finite": 0, "phases": 0, "cover states": 0}
    shifts = _random_shifts()
    assert len(shifts) >= 100
    for s in shifts:
        _compare(s, seen)
    # The sample reaches every branch: reducible shifts, infinite and
    # finite non-synchronizing sets, finite ones with a point at more
    # than one phase, and covers of several states.
    assert seen["reducible"] >= 5 and seen["infinite"] >= 5, seen
    assert seen["finite"] >= 10 and seen["phases"] >= 2, seen
    assert seen["cover states"] >= 4, seen
