"""Property tests of trimming, the subset automata, the minimal cover,
the non-synchronizing set, the canonical edge order and the periodic
point count on generated labeled graphs, against the set-based
references and the enumerator."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from synchrolab.errors import EmptyShift, NotIrreducible
from synchrolab.periodic import enumerate_periodic, periodic_counts
from synchrolab.presentation import Presentation, minimal_cover, subset_automaton, trim
from synchrolab.shift import Alphabet, build_sofic, fischer_cover
from synchrolab.sync import nonsync_subshift

from membership_reference import (_canonical_key, reference_minimal_cover,
                                  reference_nonsync_points, reference_subset_automaton,
                                  reference_trim)

LABELS = ("a", "b", "c")

STATE_NAMES = st.one_of(
    st.integers(-2, 12),
    st.text("pq1", min_size=1, max_size=2),
    st.tuples(st.integers(0, 2), st.sampled_from("xy")),
)

PROPERTY = settings(derandomize=True, database=None, max_examples=80, deadline=None)


@st.composite
def labeled_graphs(draw):
    """``(states, edges)``: up to 8 states of mixed name types and up to 3
    labels, with random edges, a chain that may end in a dead end,
    self-loops and parallel edges."""
    states = draw(st.lists(STATE_NAMES, min_size=1, max_size=8, unique=True))
    state = st.sampled_from(states)
    label = st.sampled_from(LABELS)
    edges = draw(st.lists(st.tuples(state, label, state), max_size=12))
    chain = draw(st.lists(state, max_size=5))
    edges += [(p, draw(label), q) for (p, q) in zip(chain, chain[1:])]
    edges += [(q, draw(label), q) for q in draw(st.lists(state, max_size=2))]
    for (p, q) in draw(st.lists(st.tuples(state, state), max_size=2)):
        edges += [(p, a, q) for a in LABELS]
    return states, edges


@PROPERTY
@given(labeled_graphs())
def test_trim_matches_reference(graph):
    p = Presentation.build(*graph)
    assert trim(p) == reference_trim(p)


@PROPERTY
@given(labeled_graphs())
def test_subset_automata_match_reference(graph):
    p = Presentation.build(*graph)
    for least in (1, 2):
        assert subset_automaton(p, least) == reference_subset_automaton(p, least)


@PROPERTY
@given(labeled_graphs())
def test_minimal_cover_matches_reference(graph):
    # the reference returns None where the library raises NotIrreducible
    p = Presentation.build(*graph)
    expected = reference_minimal_cover(p)
    if expected is None:
        with pytest.raises(NotIrreducible):
            minimal_cover(p)
    else:
        assert minimal_cover(p) == expected


@PROPERTY
@given(labeled_graphs())
def test_nonsync_subshift_matches_reference(graph):
    # finiteness and points come from the subset search's indices, and are
    # checked before the report builds its presentation
    try:
        s = build_sofic(Alphabet(LABELS), Presentation.build(*graph))
        cover = fischer_cover(s)
    except (EmptyShift, NotIrreducible):
        return
    expected = reference_subset_automaton(cover, 2)
    points = reference_nonsync_points(expected)
    report = nonsync_subshift(s)
    assert "presentation" not in vars(report)
    assert (report.finiteness, report.points) == (
        ("infinite", ()) if points is None else ("finite", points))
    assert report.state_count == len(expected.states)
    assert "presentation" not in vars(report)
    assert report.presentation == expected


@PROPERTY
@given(labeled_graphs())
def test_build_orders_edges_by_state_key(graph):
    states, edges = graph
    expected = sorted(set(edges), key=lambda e: (_canonical_key(e[0]), str(e[1]),
                                                 _canonical_key(e[2])))
    assert Presentation.build(states, edges).edges == tuple(expected)


@PROPERTY
@given(labeled_graphs())
def test_periodic_count_matches_enumeration(graph):
    # reducible, non-deterministic graphs included; the count reads a
    # determinization, the enumerator decides every word of length n
    try:
        s = build_sofic(Alphabet(LABELS), Presentation.build(*graph))
    except EmptyShift:
        return
    for n in range(1, 7):
        assert periodic_counts(s, n)[-1] == enumerate_periodic(s, n).count
