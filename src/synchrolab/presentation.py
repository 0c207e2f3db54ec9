"""Finite labeled-graph presentations of shift spaces.

A presentation is a finite directed multigraph whose edges carry symbol
labels.  The shift it presents is the set of bi-infinite label sequences
read along bi-infinite paths.  This module supplies the graph-level
machinery: trimming to the essential part, structural flags
(deterministic, irreducible, period, mixing), the subset automaton
(determinization), and the minimal deterministic irreducible cover of
an irreducible sofic shift (its Fischer cover, by follower-set
reduction).

Each presentation compiles once into a bitmask kernel: state sets are
``int`` masks (state ``states[i]`` is bit ``i``) stepped by per-label
successor masks.  On it sit the tail sets of an eventually periodic
point at a cut -- the past set and the future set -- which decide
membership and pin cover states, and one word search, ``words``, which
grows words from a mask and cuts each branch whose mask empties.  Cover
structure -- components, irreducibility and period -- reads the
strongly connected blocks of one linear-time Tarjan pass, ``_blocks``,
which also finds the minimal cover's terminal component and zeta's
blocks.  Trimming peels states with no in-edge or no out-edge in time
linear in the graph.  The subset automata and the minimal cover share
one subset search, which peels its graph on the discovery indices
before any state set is named; the minimal cover merges followers and
finds the terminal component on those indices too, checks its language
on pairs (search index, core mask) only for a reducible input, since
irreducibility proves it, and names only the states of the cover, ranked
by the reprs of their names, joined from the input states' reprs with
no name built.  The cover carries its one strongly connected block, so
its flags run no Tarjan pass.  ``period`` and ``names`` read only the
set bits of their masks.

All functions are pure; presentations are immutable values with a
canonical state order so that outputs are reproducible across runs.
"""

from dataclasses import dataclass
from functools import cached_property
from math import gcd

from synchrolab.errors import NotIrreducible


def _state_key(state):
    # Canonical sort key for possibly-heterogeneous state names.
    return (repr(type(state)), repr(state))


@dataclass(frozen=True)
class Presentation:
    """A finite labeled directed multigraph.

    Parameters
    ----------
    states : tuple
        Hashable state names in canonical (sorted) order.
    edges : tuple of (source, label, target) triples
        Multi-edges are allowed; parallel equal triples collapse.
    """

    states: tuple
    edges: tuple

    @staticmethod
    def build(states, edges):
        """Normalizes ``states``/``edges`` into canonical order."""
        states = tuple(sorted(set(states), key=_state_key))
        rank = {q: i for i, q in enumerate(states)}
        for (p, a, q) in edges:
            if p not in rank or q not in rank:
                raise ValueError(f"edge {(p, a, q)} uses an undeclared state")
        edges = tuple(sorted(set(edges), key=lambda e: (rank[e[0]], str(e[1]), rank[e[2]])))
        return Presentation(states, edges)

    @cached_property
    def alphabet(self):
        return tuple(sorted({a for (_, a, _) in self.edges}))

    @cached_property
    def out_edges(self):
        table = {q: [] for q in self.states}
        for e in self.edges:
            table[e[0]].append(e)
        return table

    @cached_property
    def in_edges(self):
        table = {q: [] for q in self.states}
        for e in self.edges:
            table[e[2]].append(e)
        return table

    @cached_property
    def deterministic(self):
        """True iff no state has two out-edges with an equal label."""
        for q in self.states:
            labels = [a for (_, a, _) in self.out_edges[q]]
            if len(labels) != len(set(labels)):
                return False
        return True

    @cached_property
    def masks(self):
        """The compiled kernel: ``{label: successor masks}``.

        State ``states[i]`` is bit ``i`` of a state-set mask, and
        ``masks[a][i]`` is the mask of targets of ``a``-edges out of it.
        """
        index = {q: i for i, q in enumerate(self.states)}
        rows = {a: [0] * len(self.states) for a in self.alphabet}
        for (p, a, q) in self.edges:
            rows[a][index[p]] |= 1 << index[q]
        return {a: tuple(row) for a, row in rows.items()}

    @cached_property
    def full_mask(self):
        return (1 << len(self.states)) - 1

    @cached_property
    def _kernel(self):
        # Forward and backward, per label: each state's image mask, and the
        # image of every state mask met so far (the subset automaton, built
        # lazily).
        index = {q: i for i, q in enumerate(self.states)}
        sources = {a: [0] * len(self.states) for a in self.masks}
        for (p, a, q) in self.edges:
            sources[a][index[q]] |= 1 << index[p]
        return ({a: (rows, {}) for a, rows in self.masks.items()},
                {a: (tuple(rows), {}) for a, rows in sources.items()})

    def step(self, mask, label):
        """Mask of the targets of ``label``-edges out of ``mask``'s states.

        Computed afresh, for searches that meet each mask once; ``run``
        memoizes the same images.
        """
        rows = self.masks.get(label)
        return 0 if rows is None else _image(rows, mask)

    def run(self, mask, word):
        """Mask of the states reached from ``mask`` reading ``word``."""
        return _read(self._kernel[0], mask, word)

    def back(self, mask, word):
        """Mask of the states with a path reading ``word`` into ``mask``."""
        return _read(self._kernel[1], mask, reversed(word))

    def names(self, mask):
        """The member states of ``mask``, in canonical order; bits past the
        last state are ignored."""
        mask &= self.full_mask
        members = []
        while mask:
            low = mask & -mask
            members.append(self.states[low.bit_length() - 1])
            mask ^= low
        return tuple(members)

    def tail_fixpoint(self, cycle, backward):
        """Mask of the states ending (``backward``: starting) an infinite
        run of ``cycle`` reads.

        Reading ``cycle`` (backward: in reverse) from all states only
        shrinks the set, so the decreasing iteration reaches the fixpoint.
        """
        read = self.back if backward else self.run
        alive = self.full_mask
        while True:
            nxt = read(alive, cycle)
            if nxt == alive:
                return alive
            alive = nxt

    def past_set(self, x, cut):
        """Mask of the states ending a left-infinite path that reads the
        eventually periodic point ``x`` (a ``points.BiSeq``) below ``cut``:
        the tail fixpoint of x's left cycle, then the word from the
        cycle's anchor to ``cut`` read forward."""
        anchor = min(cut, x.origin)
        alive = self.tail_fixpoint(x.left_pattern_at(anchor), False)
        return self.run(alive, x.window(anchor, cut))

    def future_set(self, x, cut):
        """Mask of the states starting a right-infinite path that reads
        ``x`` from ``cut`` on; the mirror image of ``past_set``."""
        anchor = max(cut, x.right_start)
        alive = self.tail_fixpoint(x.right_pattern_at(anchor), True)
        return self.back(alive, x.window(cut, anchor))

    def words(self, mask, symbols, depth, backward=False, least=1):
        """Yields ``(word, run mask)`` for every word over ``symbols`` of
        length <= ``depth`` whose run from ``mask`` (``backward``: back into
        it) has at least ``least`` states, shortest first and then in
        ``symbols`` order; a branch is cut as soon as its mask has fewer."""
        read = self.back if backward else self.run
        layer = [((), mask)] if mask.bit_count() >= least else []
        for _ in range(depth):
            yield from layer
            grown = ([((a,) + w, read(m, (a,))) for a in symbols for (w, m) in layer] if backward
                     else [(w + (a,), read(m, (a,))) for (w, m) in layer for a in symbols])
            layer = [(w, m) for (w, m) in grown if m.bit_count() >= least]
        yield from layer

    @cached_property
    def sccs(self):
        """Strongly connected components as state masks, ordered by least
        member (the canonical order): Tarjan's blocks of the state graph.

        The flags below read these blocks; ``trim`` does not.
        """
        index = {q: i for i, q in enumerate(self.states)}
        succ = {i: [] for i in range(len(self.states))}
        for (p, _, q) in self.edges:
            succ[index[p]].append(index[q])
        blocks = [sum(1 << i for i in block) for block in _blocks(succ)]
        return tuple(sorted(blocks, key=lambda block: block & -block))

    @cached_property
    def irreducible(self):
        """True iff the graph is non-empty and every state reaches every
        state by a non-empty path: one component holds every state, and
        so every edge, of which there is at least one (a lone state's
        loop)."""
        return self.sccs == (self.full_mask,) and bool(self.edges)

    @cached_property
    def period(self):
        """gcd of all cycle lengths; 0 for an acyclic graph.

        Computed per SCC by the standard level-gcd argument and combined
        across SCCs, so it divides the length of every cycle; a state on
        no cycle adds gcd 0, which changes nothing.  Each state's
        successors in its component are read off the set bits of its
        rows, so the time is linear in the edges.
        """
        overall = 0
        for component in self.sccs:
            root = (component & -component).bit_length() - 1
            level = {root: 0}
            queue = [root]
            g = 0
            for p in queue:
                for rows in self.masks.values():
                    inner = rows[p] & component
                    while inner:
                        low = inner & -inner
                        inner ^= low
                        q = low.bit_length() - 1
                        if q not in level:
                            level[q] = level[p] + 1
                            queue.append(q)
                        else:
                            g = gcd(g, level[p] + 1 - level[q])
            overall = gcd(overall, g)
        return overall

    @cached_property
    def mixing(self):
        return self.irreducible and self.period == 1


def _image(rows, mask):
    # Union of the successor rows of ``mask``'s states, one set bit at a
    # time: most masks met are sparse.
    image = 0
    while mask:
        low = mask & -mask
        image |= rows[low.bit_length() - 1]
        mask ^= low
    return image


def _read(kernel, mask, word):
    # Steps ``mask`` through ``word`` in one direction of ``_kernel``.
    for a in word:
        entry = kernel.get(a)
        if entry is None:
            return 0
        rows, images = entry
        image = images.get(mask)
        if image is None:
            image = images[mask] = _image(rows, mask)
        mask = image
    return mask


def _peel(n, arcs):
    # Mask of the states of the graph on range(n) with (source, target)
    # ``arcs`` that survive repeatedly deleting every state with no in-arc
    # or no out-arc (the essential graph, Lind & Marcus §2.2): those on
    # a bi-infinite path.  Each state and arc is dropped once, so the time
    # is linear in n + len(arcs).
    succ = [[] for _ in range(n)]
    pred = [[] for _ in range(n)]
    for (i, j) in arcs:
        succ[i].append(j)
        pred[j].append(i)
    out_degree = [len(row) for row in succ]
    in_degree = [len(row) for row in pred]
    alive = [True] * n
    queue = [i for i in range(n) if not out_degree[i] or not in_degree[i]]
    # A state is queued twice only if its second count falls to 0 while it
    # is alive; then all its in-arcs and out-arcs are gone, so processing
    # it again touches only the counters of dead states, which nothing
    # reads.
    for i in queue:
        alive[i] = False
        for j in succ[i]:
            in_degree[j] -= 1
            if not in_degree[j] and alive[j]:
                queue.append(j)
        for j in pred[i]:
            out_degree[j] -= 1
            if not out_degree[j] and alive[j]:
                queue.append(j)
    return sum(1 << i for i in range(n) if alive[i])


def _blocks(succ):
    # The strongly connected blocks of the graph ``succ`` ({node: iterable
    # of successor nodes}, every node a key), by Tarjan's algorithm run on
    # an explicit stack, in time linear in the graph.  A node of a
    # finished block gets a low link past every index, so later arcs into
    # it change nothing.
    index, low, stack, blocks = {}, {}, [], []
    for root in succ:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, out = work[-1]
            for w in out:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                low[v] = min(low[v], low[w])
            else:
                work.pop()
                if work:
                    low[work[-1][0]] = min(low[work[-1][0]], low[v])
                if low[v] == index[v]:
                    block = [stack.pop()]
                    while block[-1] != v:
                        block.append(stack.pop())
                    low.update(dict.fromkeys(block, len(succ)))
                    blocks.append(block)
    return blocks


def trim(p):
    """Restricts ``p`` to states lying on some bi-infinite path.

    A state survives iff it both reaches a cycle and is reached from a
    cycle; one-sided dead ends present no bi-infinite sequences.  They
    are peeled off in linear time.
    """
    index = {q: i for i, q in enumerate(p.states)}
    names = set(p.names(_peel(len(p.states), [(index[q], index[r]) for (q, _, r) in p.edges])))
    return Presentation.build(names, [e for e in p.edges if e[0] in names and e[2] in names])


def _subset_search(p, least):
    # The masks reachable from the full state set through images of at
    # least ``least`` states, in discovery order, with their labeled arcs
    # ``(i, a, j)`` between discovery indices and the mask of the indices
    # ``_peel`` keeps.  ``masks`` is in alphabet order, so each mask's arcs
    # are too.
    full = p.full_mask
    queue = [full] if full.bit_count() >= least else []
    index = {mask: i for i, mask in enumerate(queue)}
    arcs = []
    labels = list(p.masks.items())
    for i, current in enumerate(queue):
        for a, rows in labels:
            nxt = _image(rows, current)
            if nxt.bit_count() < least:
                continue
            if nxt not in index:
                index[nxt] = len(queue)
                queue.append(nxt)
            arcs.append((i, a, index[nxt]))
    return queue, arcs, _peel(len(queue), [(i, j) for (i, _, j) in arcs])


def subset_automaton(p, least):
    """The subset automaton of ``p`` on sets of at least ``least`` states.

    Its states are the masks reachable from the full state set through
    images of at least ``least`` states, each named by its members in
    canonical order; the result is trimmed.  The search runs on the
    masks' discovery indices, which are peeled before any mask is named.
    """
    return _subset_presentation(p, *_subset_search(p, least))


def _subset_presentation(p, queue, arcs, keep):
    name = {i: p.names(mask) for i, mask in enumerate(queue) if keep >> i & 1}
    return Presentation.build(
        name.values(), [(name[i], a, name[j]) for (i, a, j) in arcs if i in name and j in name])


def determinize(p):
    """Subset-construction determinization, preserving the language.

    States of the result are the non-empty subsets of ``p``'s states
    reachable from the full state set; the result is trimmed.  Membership
    of every finite word agrees between input and output.
    """
    return subset_automaton(p, 1)


def minimal_cover(p):
    """Minimal deterministic irreducible presentation of ``p``'s language.

    The trimmed subset automaton, its states merged by follower set, then
    restricted to the unique terminal strongly-connected component.  For
    an irreducible sofic shift this is its Fischer cover (Lind & Marcus
    §3.3), unique up to state renaming.  The work runs on the subset
    search's discovery indices: Moore refinement on the peeled indices,
    Tarjan's blocks of the quotient, the language check where it is not
    proved, and one build naming only the core.  A core class of one
    subset is named by its members, a larger class by the tuple of its
    subsets' names in canonical order; the classes are then renamed
    ``s0, s1, ...`` in the canonical order of those names.  Every name is
    a tuple, so that order is the order of their reprs, which are ranked
    with no class name built: a subset's repr is joined from the reprs
    of ``p``'s states, computed once, as ``tuple.__repr__`` joins them.
    The returned cover's ``sccs`` is recorded as its one block, so its
    flags run no Tarjan pass.

    Raises ``NotIrreducible`` when the shift fails the construction's
    sanity checks: more than one terminal component, or a core whose
    language is smaller than L(trim p), the language of the essential
    part of ``p``, which the quotient reads from all its classes.

    The check cannot fail when ``p`` is irreducible, and is skipped then.
    Such a ``p`` is essential and presents an irreducible sofic X, which
    has a synchronizing word w (Lind & Marcus §3.3).  Each class is the
    follower set F_X(u) of the states full·u for a word u.  From any of
    them the graph has a path to a path reading w, jointly labelled y·w,
    and F_X(u·y·w) = F_X(w).  So every class reaches the classes of
    synchronizing words, which form a closed irreducible set: the unique
    terminal component, reading L(X).  Otherwise the 1-subset search
    reads from index 0, the full mask, exactly the words of the graph it
    searches.  When ``p`` is essential (every state has an in-edge and an
    out-edge, so ``trim`` keeps it whole) that graph reads L(trim p), and
    the check reuses the search the quotient ran; otherwise ``p`` may read
    words that run only into dead ends or only out of sources, and the
    check searches ``trim(p)`` instead.  A search over the pairs (search
    index, core mask) reachable from (0, core) decides the check: the
    core reads all of L(trim p) iff no pair's core side is empty.
    """
    search = _subset_search(p, 1)
    classes, edges = _moore_quotient(p, search)
    count = len(classes)
    # rows[a][c]: the bit of the class label a leads to from c, or 0
    rows = {a: [0] * count for a in p.alphabet}
    succ = {c: [] for c in range(count)}
    for (c, a, d) in edges:
        rows[a][c] = 1 << d
        succ[c].append(d)
    # a terminal component is a block that no arc leaves
    terminal = [block for block in map(set, _blocks(succ))
                if all(d in block for c in block for d in succ[c])]
    if len(terminal) != 1:
        raise NotIrreducible(f"{len(terminal)} terminal components; shift is not irreducible")
    core = sum(1 << c for c in terminal[0])
    pairs = [(0, core)] if core != (1 << count) - 1 and not p.irreducible else []
    if pairs:
        # p is essential iff every state is a source and a target of an
        # edge; then L(p) = L(trim p) and the quotient's search serves
        sources = targets = 0
        for row in p.masks.values():
            for i, image in enumerate(row):
                if image:
                    sources |= 1 << i
                    targets |= image
        if sources & targets != p.full_mask:
            search = _subset_search(trim(p), 1)
        moves = [{} for _ in search[0]]
        for (i, a, j) in search[1]:
            moves[i][a] = j
    seen = set(pairs)
    for (i, inside) in pairs:
        if not inside:
            raise NotIrreducible("terminal component presents a proper sublanguage")
        for a, j in moves[i].items():
            nxt = (j, _image(rows[a], inside))
            if nxt not in seen:
                seen.add(nxt)
                pairs.append(nxt)

    state_reprs = [repr(q) for q in p.states]

    def subset_repr(mask):
        # repr(p.names(mask)), joined as tuple.__repr__ joins its items
        members = []
        while mask:
            low = mask & -mask
            members.append(state_reprs[low.bit_length() - 1])
            mask ^= low
        return "(" + ", ".join(members) + ("," if len(members) == 1 else "") + ")"

    def class_repr(c):
        # the repr of the class's name; a one-subset class is named by its
        # subset's name
        names = sorted(map(subset_repr, classes[c]))
        return names[0] if len(names) == 1 else "(" + ", ".join(names) + ")"

    ranked = sorted((c for c in range(count) if core >> c & 1), key=class_repr)
    rank = {c: f"s{r}" for r, c in enumerate(ranked)}
    cover = Presentation.build(rank.values(), [
        (rank[c], a, rank[d]) for (c, a, d) in edges if c in rank])
    # The cover is the quotient's terminal block: strongly connected, and
    # with an edge, since each peeled index, so each class, has an arc out
    # and no arc leaves the block.  So its one component holds every
    # state, and no flag of the cover runs a Tarjan pass.
    cover.__dict__["sccs"] = (cover.full_mask,)
    return cover


def _moore_quotient(p, search):
    # The trimmed subset automaton of ``p`` with its states merged by
    # follower set: Moore refinement on the peeled indices of ``search``,
    # ``p``'s 1-subset search.  Returns the classes, each the list of its
    # subset masks, and the labeled arcs ``(c, a, d)`` between class
    # indices.
    queue, arcs, keep = search
    kept = [i for i in range(len(queue)) if keep >> i & 1]
    at = {i: k for k, i in enumerate(kept)}
    n = len(kept)
    # moves[k][x]: the target of the x-th label out of kept state k, or
    # n, a dead state.
    column = {a: x for x, a in enumerate(p.alphabet)}
    moves = [[n] * len(column) for _ in kept]
    for (i, a, j) in arcs:
        if i in at and j in at:
            moves[at[i]][column[a]] = at[j]
    # Moore refinement; the dead state is block -1.  A state's signature is
    # its block and its targets' blocks, read one label column at a time;
    # ``block[:n]`` leaves the dead state out.
    columns = list(zip(*moves))
    block = [0] * n + [-1]
    count = 1
    while True:
        relabel = {}
        block = [relabel.setdefault(signature, len(relabel)) for signature in
                 zip(block[:n], *[[block[j] for j in column] for column in columns])] + [-1]
        if len(relabel) == count:
            break
        count = len(relabel)
    classes = [[] for _ in range(count)]
    for k in range(n):
        classes[block[k]].append(k)
    return ([[queue[kept[k]] for k in members] for members in classes],
            [(c, a, block[j]) for c, members in enumerate(classes)
             for a, j in zip(p.alphabet, moves[members[0]]) if j < n])
