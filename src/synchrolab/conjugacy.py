"""Local conjugacy germs and groupoid sampling.

A germ is a finite rewrite rule on a cylinder: replace a block, or
splice in the past/future of a fixed point.  Two-sided germs witness
local conjugacy, one-sided germs witness the stable (rule on unstable
cylinders) and unstable (rule on stable cylinders) variants.

Constructions follow the shift's decided memory: on an SFT, homoclinic
points are locally conjugate via a central block rewrite, and one-sided
tail swaps are sound behind a memory buffer.  On another sofic shift
germs are lifted through the canonical cover: lift the endpoints to the
edge shift, build the SFT germ there, and conjugate by the labeling
map.  Lifting is sound but not complete: it refuses ambiguous or
unrelated lifts, and may refuse a pair whose germ exists some other
way, so the sampler emits only sound arrows.
"""

from dataclasses import dataclass
from functools import lru_cache

from synchrolab.errors import (BracketUndefined, InvariantViolation, NotAgreeing,
                               NotConstructive, NotHomoclinic, NotInDomain,
                               NotInRectangle, NotInShift, NotSFT,
                               NotSynchronizing, SearchExhausted, Unverified)
from synchrolab.factor import CoverMap, preimage_count
from synchrolab.periodic import minimal_period
from synchrolab.points import (BiSeq, agree_on, alignment_bound, bracket,
                               check_bracket_radius, decide_relation, enumerate_points,
                               future_splice, point_in_shift, replace_window, shift_by,
                               splice)
from synchrolab.sync import classify_point, cylinder_representatives, sync_radius

KINDS = ("lc", "lcs", "lcu")
_REQUIRED_RELATION = {"lc": "homoclinic", "lcs": "stable", "lcu": "unstable"}
# The longest connector word the bridge searches try.
_CONNECTOR_DEPTH = 6


# -- rules -------------------------------------------------------------------

@dataclass(frozen=True)
class IdentityRule:
    def apply(self, s, z):
        return z


@dataclass(frozen=True)
class BlockRule:
    """Replace coordinates [lo, lo + |pattern|) by a fixed pattern."""

    lo: int
    pattern: tuple

    def apply(self, s, z):
        return replace_window(z, self.lo, self.pattern)


@dataclass(frozen=True)
class PastRule:
    """Replace everything below ``cut`` by the pattern of a fixed point."""

    point: BiSeq
    cut: int

    def apply(self, s, z):
        return future_splice(self.point, z, self.cut)


@dataclass(frozen=True)
class FutureRule:
    """Replace everything from ``cut`` on by the pattern of a fixed point."""

    point: BiSeq
    cut: int

    def apply(self, s, z):
        return future_splice(z, self.point, self.cut)


@dataclass(frozen=True)
class ChainRule:
    """Apply a tuple of germs in order."""

    germs: tuple

    def apply(self, s, z):
        for g in self.germs:
            z = g.apply(z)
        return z


@dataclass(frozen=True)
class ShiftRule:
    """Conjugation of a germ by a power of the shift."""

    base: object  # Germ
    k: int

    def apply(self, s, z):
        return shift_by(self.base.apply(shift_by(z, -self.k)), self.k)


@dataclass(frozen=True)
class ComposeRule:
    """The rectangle composition z -> [gu([z,x]), gs([x,z])]."""

    gu: object
    gs: object
    base: BiSeq
    window: int

    def apply(self, s, z):
        n = self.window
        try:
            to_unstable = bracket(s, z, self.base, n)
            to_stable = bracket(s, self.base, z, n)
        except (NotAgreeing, NotInShift, Unverified) as exc:
            raise BracketUndefined(f"rectangle projection failed: {exc}") from exc
        a = self.gu.apply(to_unstable)
        b = self.gs.apply(to_stable)
        out = splice(a, b)
        if point_in_shift(s, out) != "yes":
            raise BracketUndefined("composed bracket value leaves the shift")
        return out


@dataclass(frozen=True)
class LiftedRule:
    """An SFT germ between cover lifts, conjugated by the labeling map."""

    cover: CoverMap
    inner: object  # Germ on the cover's edge shift

    def apply(self, s, z):
        lifts = preimage_count(self.cover, z)["preimages"]
        outputs = {self.cover.project(self.inner.apply(w))
                   for w in lifts if self.inner.contains(w)}
        if len(outputs) != 1:
            raise NotInDomain(
                f"{len(outputs)} projected values over the lifts (need exactly 1)")
        return outputs.pop()


# -- germs -------------------------------------------------------------------

@dataclass(frozen=True)
class Germ:
    """A partial map between cylinder sets witnessing local conjugacy.

    The domain is the set of shift points agreeing with ``source`` on
    ``[dom_lo, dom_hi]`` (``None`` bounds are unconstrained): a central
    cylinder for kind ``lc``, an unstable cylinder (past frozen) for
    ``lcs``, a stable cylinder (future frozen) for ``lcu``.
    """

    shift: object
    kind: str
    source: BiSeq
    target: BiSeq
    dom_lo: object  # int or None
    dom_hi: object  # int or None
    rule: object

    @property
    def window(self):
        """The cylinder radius exponent N of the domain."""
        if self.kind == "lc":
            return max(abs(self.dom_lo), abs(self.dom_hi)) + 1
        if self.kind == "lcs":
            return self.dom_hi + 1
        return 1 - self.dom_lo

    def contains(self, z):
        lo = self.dom_lo
        hi = self.dom_hi
        if lo is None:
            lo = -alignment_bound(z, self.source)
        if hi is None:
            hi = alignment_bound(z, self.source)
        return agree_on(z, self.source, lo, hi + 1)

    def apply(self, z):
        """The germ's value at ``z``.

        Raises ``NotInDomain`` off the cylinder and ``NotInShift`` when
        a rule image escapes the shift (never the case for the shipped
        constructions, but checked).
        """
        if not self.contains(z):
            raise NotInDomain(f"{z} does not agree with the source on the window")
        out = self.rule.apply(self.shift, z)
        if point_in_shift(self.shift, out) == "no":
            raise NotInShift(f"germ image {out} leaves the shift")
        return out

    def inverse(self):
        return Germ(self.shift, self.kind, self.target, self.source,
                    self.dom_lo, self.dom_hi, self._inverted())

    def _inverted(self):
        """The inverse's rule; every inverse keeps its germ's bounds."""
        rule = self.rule
        if isinstance(rule, IdentityRule):
            return rule
        if isinstance(rule, BlockRule):
            span = self.source.window(rule.lo, rule.lo + len(rule.pattern))
            return BlockRule(rule.lo, span)
        if isinstance(rule, PastRule):
            return PastRule(self.source, rule.cut)
        if isinstance(rule, FutureRule):
            return FutureRule(self.source, rule.cut)
        if isinstance(rule, ChainRule):
            return ChainRule(tuple(g.inverse() for g in reversed(rule.germs)))
        if isinstance(rule, ShiftRule):
            return ShiftRule(rule.base.inverse(), rule.k)
        if isinstance(rule, ComposeRule):
            return ComposeRule(rule.gu.inverse(), rule.gs.inverse(), self.target, rule.window)
        if isinstance(rule, LiftedRule):
            return LiftedRule(rule.cover, rule.inner.inverse())
        raise TypeError(f"cannot invert rule {rule!r}")

    def conjugate(self, k):
        """The germ between the shifted endpoints, sigma^k g sigma^-k."""
        lo = None if self.dom_lo is None else self.dom_lo - k
        hi = None if self.dom_hi is None else self.dom_hi - k
        return Germ(self.shift, self.kind, shift_by(self.source, k),
                    shift_by(self.target, k), lo, hi, ShiftRule(self, k))

    def compose(self, other):
        """``other`` after ``self``; endpoints must chain."""
        if self.target != other.source or self.kind != other.kind:
            raise ValueError("germs do not chain")

        # two germs of one kind have both bounds None or both integers
        def merge(a, b, pick):
            return None if a is None else pick(a, b)

        return Germ(self.shift, self.kind, self.source, other.target,
                    merge(self.dom_lo, other.dom_lo, min),
                    merge(self.dom_hi, other.dom_hi, max),
                    ChainRule((self, other)))


def domain_samples(germ, budget=6):
    """Representatives of a germ's domain for verification sweeps.

    For kind ``lc``, up to two past representatives of each future one,
    read until ``budget`` samples are held.
    """
    s = germ.shift
    x = germ.source
    if germ.kind == "lcs":
        return cylinder_representatives(s, x, germ.dom_hi + 1, germ.dom_hi + 1 + 2, "u")[:budget]
    if germ.kind == "lcu":
        return cylinder_representatives(s, x, 1 - germ.dom_lo, 1 - germ.dom_lo + 2, "s")[:budget]
    futures = cylinder_representatives(s, x, germ.dom_hi + 1, germ.dom_hi + 3, "u")[:budget]
    out = []
    for y in futures:
        if len(out) >= budget:
            break
        pasts = cylinder_representatives(s, y, 1 - germ.dom_lo, 1 - germ.dom_lo + 2, "s")
        out.extend(pasts[:2])
    return out[:budget] if out else [x]


def verify_germ(germ, budget=6):
    """Checks the germ invariants on domain representatives.

    Checks that the source maps to the target, values stay in the
    shift, the rule never edits coordinates outside the window in the
    directions the kind controls, and the rule is injective on the
    sample.  Returns the number of representatives exercised; raises
    ``InvariantViolation`` when a check fails, an image that leaves the
    shift included.
    """
    if germ.kind not in KINDS:
        raise InvariantViolation(f"unknown germ kind {germ.kind!r}")

    def image(z):
        try:
            return germ.apply(z)
        except NotInShift as exc:
            raise InvariantViolation(str(exc)) from exc

    if image(germ.source) != germ.target:
        raise InvariantViolation("the germ does not map its source to its target")
    images = []
    # every sample lies in the germ's cylinder: "u" samples keep the source
    # up to dom_hi, "s" samples from dom_lo on, and the fallback is the source
    for z in domain_samples(germ, budget):
        out = image(z)
        images.append(out)
        bound = max(alignment_bound(z, out), abs(germ.window)) + 1
        if germ.kind in ("lc", "lcs"):
            # forward defect vanishes beyond the window
            hi = germ.window if germ.kind == "lc" else germ.dom_hi + 1
            if not agree_on(z, out, hi + 1, bound):
                raise InvariantViolation(f"{germ.kind} rule edits {z} after {hi}")
        if germ.kind in ("lc", "lcu"):
            lo = -germ.window if germ.kind == "lc" else germ.dom_lo - 1
            if not agree_on(z, out, -bound, lo):
                raise InvariantViolation(f"{germ.kind} rule edits {z} before {lo}")
    if len(set(images)) != len(images):
        raise InvariantViolation("rule is not injective on the sample")
    return len(images)


# -- germ constructors -------------------------------------------------------

def identity_germ(s, x, kind="lc"):
    lo = None if kind == "lcs" else -2
    hi = None if kind == "lcu" else 2
    return Germ(s, kind, x, x, lo, hi, IdentityRule())


def _disagreement_radius(x, y):
    """Least K with x_i == y_i for all |i| >= K (homoclinic pair)."""
    bound = alignment_bound(x, y)
    return max((abs(i) + 1 for i in range(-bound, bound + 1) if x.at(i) != y.at(i)), default=0)


def ruelle_germ(s, x, y):
    """The central-block local conjugacy between homoclinic SFT points.

    With K the disagreement radius and m the SFT memory, the rule
    rewrites the block [-W, W], W = K + m, from x's pattern to y's.  It
    is proved, not verified: as y = x = z on K <= |i| <= W, an image z'
    of z differs from z only inside (-K, K), and a window of length m
    meeting (-K, K) lies in [-W, W], a window of y, so z' is in the shift.
    An endpoint outside the shift raises ``NotInShift``.
    """
    if s.memory is None:
        raise NotSFT("ruelle_germ needs an SFT; use compose_lcs_lcu on sofic shifts")
    if not decide_relation(x, y, "homoclinic"):
        raise NotHomoclinic(f"{x} and {y} are not homoclinic")
    _require_in_shift(s, x, y)
    if x == y:
        return identity_germ(s, x, "lc")
    w = _disagreement_radius(x, y) + s.memory
    return Germ(s, "lc", x, y, -w, w, BlockRule(-w, y.window(-w, w + 1)))


def _require_in_shift(s, *points):
    for p in points:
        if point_in_shift(s, p) != "yes":
            raise NotInShift(f"{p} is not in the shift")


def _sft_one_sided_germ(s, x, y, kind):
    """Tail-swap germs between stable/unstable equivalent SFT points.

    Proved, not verified: with m the memory, x = y and the domain holds
    z = x on the m coordinates on y's side of the cut, so a window of
    length m that crosses the cut is a window of the input z.
    """
    m, bound = s.memory, alignment_bound(x, y)
    if kind == "lcs":
        agree_from = bound
        while agree_from > -bound and x.at(agree_from - 1) == y.at(agree_from - 1):
            agree_from -= 1
        cut = agree_from + m
        return Germ(s, "lcs", x, y, None, cut + m, PastRule(y, cut))
    agree_to = -bound
    while agree_to < bound and x.at(agree_to + 1) == y.at(agree_to + 1):
        agree_to += 1
    cut = agree_to - m + 1
    return Germ(s, "lcu", x, y, cut - m, None, FutureRule(y, cut))


@lru_cache(maxsize=None)
def canonical_cover(s):
    return CoverMap.of_shift(s)


@lru_cache(maxsize=None)
def _lifts(s, x):
    return preimage_count(canonical_cover(s), x)["preimages"]


def lifted_germ(s, x, y, kind, verify=True):
    """A sofic germ obtained by lifting to the canonical cover.

    Searches the (finitely many) lift pairs for one in the relation the
    kind requires, builds the SFT germ upstairs, and conjugates by the
    labeling map.  The frozen part of the domain must pin the lift.  A
    one-sided germ is proved once both endpoints have a singleton tail
    set at the domain's edge: for ``lcs``, ``past_set(x, hi + 1) = {q}``,
    so a domain point z (= x below hi + 1) lifts into the inner domain
    by xh's path there, continued from q along z; each such lift maps to
    one reading y below the cut and z from it, so the value is unique,
    and in the shift as the inner germ is a proved SFT germ (``lcu``:
    the mirror image).  A two-sided germ is verified (with ``verify``
    false, applied to x): a synchronizing central witness pins the lift
    only to its right.  ``NotConstructive`` signals a sound refusal (no
    related lift pair, or no pinning); an oracle shift has no cover and
    raises ``Unverified``.
    """
    cover = canonical_cover(s)
    g = cover.presentation  # the Fischer cover
    witness = 0
    if kind == "lc":
        vx = classify_point(s, x)
        vy = classify_point(s, y)
        if vx.status != "synchronizing" or vy.status != "synchronizing":
            raise NotConstructive("two-sided sofic germs need synchronizing endpoints")
        witness = max(vx.window_used, vy.window_used)
    for xh in _lifts(s, x):
        for yh in _lifts(s, y):
            try:
                inner = construct_germ(cover.source, xh, yh, kind)
            except NotConstructive:
                continue
            lo, hi = inner.dom_lo, inner.dom_hi
            slack = len(cover.presentation.states) + 1
            lo = None if lo is None else min(lo - slack, -witness)
            hi = None if hi is None else max(hi + slack, witness)
            germ = Germ(s, kind, x, y, lo, hi, LiftedRule(cover, inner))
            if kind != "lc":
                tails = (g.past_set(p, hi + 1) if kind == "lcs" else g.future_set(p, lo)
                         for p in (x, y))
                if all(m.bit_count() == 1 for m in tails):
                    return germ
                continue
            try:
                if verify:
                    verify_germ(germ)
                else:
                    germ.apply(x)
            except (NotInDomain, InvariantViolation):
                continue
            return germ
    raise NotConstructive(f"no {kind} germ between the lifts of {x} and {y}")


def construct_germ(s, x, y, kind, verify=True):
    """Builds a germ of the requested kind, or raises ``NotConstructive``.

    Dispatches on the decided memory: identity, SFT block/tail rules,
    or cover-lifted rules on other shifts.  An oracle shift has no cover,
    so ``lifted_germ`` stops it with ``Unverified``.  ``verify`` reaches
    only two-sided lifted germs: the others are proved where they are
    built, on endpoints in the shift (else ``NotInShift``, also for the
    identity germ).
    """
    if kind not in KINDS:
        raise ValueError(f"unknown germ kind {kind!r}")
    if x == y:
        _require_in_shift(s, x)
        return identity_germ(s, x, kind)
    if not decide_relation(x, y, _REQUIRED_RELATION[kind]):
        raise NotConstructive(
            f"points are not {_REQUIRED_RELATION[kind]}-equivalent")
    if s.memory is not None:
        if kind == "lc":
            return ruelle_germ(s, x, y)
        _require_in_shift(s, x, y)
        return _sft_one_sided_germ(s, x, y, kind)
    return lifted_germ(s, x, y, kind, verify)


def rectangle_germs(s, x, y, N):
    """The germ chain of a rectangle neighborhood: y ~lcu [x,y] ~lcs x.

    Requires ``x`` synchronizing with its witness inside radius ``N``
    and ``y`` in the rectangle (central agreement with ``x``).  Returns
    ``(gu, gs)`` where ``gu : z -> [x, z]`` maps y to [x,y] (kind lcu,
    on the stable cylinder of y) and ``gs : z -> [z, x]`` maps [x,y]
    to x (kind lcs, on the unstable cylinder of [x,y]).
    Each is a splice at 0 whose domain pins x's synchronizing central
    word on [1-N, N-1], so it passes ``verify_germ`` unchecked: it maps
    source to target by construction, keeps the controlled side, where
    distinct inputs differ, and glues inside that word, in the shift.
    """
    check_bracket_radius(N)
    if sync_radius(s, x) > N:
        raise NotSynchronizing(f"no synchronizing central word at radius {N}")
    if not agree_on(x, y, 1 - N, N):
        raise NotInRectangle("y does not agree with x on the central window")
    corner = bracket(s, x, y, N)
    return (Germ(s, "lcu", y, corner, 1 - N, None, FutureRule(x, 0)),
            Germ(s, "lcs", corner, x, None, N - 1, PastRule(x, 0)))


def compose_lcs_lcu(s, gu, gs, x, y):
    """Builds the two-sided germ from one-sided germs at sync points.

    ``gu`` must realize x ~lcs y on an unstable cylinder of x and
    ``gs`` must realize x ~lcu y on a stable cylinder of x; both
    endpoints must synchronize.  The composed rule is
    ``z -> [gu([z, x]), gs([x, z])]`` on a rectangle around x.  No
    proof covers arbitrary germs, so the result is always verified.
    """
    if gu.kind != "lcs" or gs.kind != "lcu":
        raise ValueError("compose_lcs_lcu needs (lcs, lcu) germs")
    if gu.source != x or gs.source != x or gu.target != y or gs.target != y:
        raise ValueError("germ endpoints do not match the requested pair")
    n = max(sync_radius(s, x), sync_radius(s, y), gu.window, gs.window)
    germ = Germ(s, "lc", x, y, -n, n, ComposeRule(gu, gs, x, n))
    verify_germ(germ, budget=4)
    return germ


# -- bridges -----------------------------------------------------------------

def _require_sync_periodic(s, *points):
    for p in points:
        if minimal_period(p) is None:
            raise NotSynchronizing(f"{p} is not periodic")
        sync_radius(s, p)


def _join_left_tail(s, p, tail, boundary):
    """A point of ``X^u(p)`` equal to ``tail`` from ``boundary`` on.

    ``p`` is periodic.  Connector words are read back from tail's future
    set at ``boundary``, by length and then lexicographically, and the
    first whose run meets the tail set of p's cycle in phase is taken.
    """
    g = s.presentation
    b = max(boundary, tail.right_start)
    for (u, run) in g.words(g.future_set(tail, boundary), s.alphabet.symbols,
                            _CONNECTOR_DEPTH, backward=True):
        cut = boundary - len(u)
        cycle = p.window(cut - len(p.left), cut)
        if run & g.tail_fixpoint(cycle, False):
            return BiSeq(cycle, u + tail.window(boundary, b), tail.right_pattern_at(b), cut)
    raise SearchExhausted("no left join found", depth=_CONNECTOR_DEPTH)


def _right_joins(s, head, boundary, q):
    """Yields each point of ``X^s(q)`` equal to ``head`` below
    ``boundary``: the mirror image of ``_join_left_tail``'s search, with
    connectors read from head's past set at ``boundary`` and every join
    kept, by connector length and then lexicographically."""
    g = s.presentation
    a = min(boundary, head.origin)
    for (u, run) in g.words(g.past_set(head, boundary), s.alphabet.symbols,
                            _CONNECTOR_DEPTH):
        cut = boundary + len(u)
        cycle = q.window(cut, cut + len(q.right))
        if run & g.tail_fixpoint(cycle, True):
            yield BiSeq(head.left_pattern_at(a), head.window(a, boundary) + u, cycle, a)


def _join_right_tail(s, head, boundary, q):
    """The first point of ``_right_joins``."""
    for z in _right_joins(s, head, boundary, q):
        return z
    raise SearchExhausted("no right join found", depth=_CONNECTOR_DEPTH)


def heteroclinic_bridge(s, z, p, q):
    """Bridge points x ~lcs z ~lcu y with x unstably tied to p and y
    stably tied to q.

    Searches the rectangle of ``z`` for a point with p's past and one
    with q's future, then brackets them onto ``z``.  Returns
    ``(x, y, germ_x_to_z, germ_y_to_z)``: splices at 0 of z pinning its
    synchronizing central word, so they verify (see ``rectangle_germs``).
    """
    if not s.flags()["mixing"]:
        raise NotSynchronizing("bridges need a mixing shift")
    _require_sync_periodic(s, p, q)
    n = sync_radius(s, z)
    x = _join_left_tail(s, p, z, 1 - n)
    y = _join_right_tail(s, z, n, q)
    # x agrees with z from 1-n on, so [x, z] = z: x ~lcs z directly
    gx = Germ(s, "lcs", x, z, None, n - 1, PastRule(z, 0))
    gy = Germ(s, "lcu", y, z, 1 - n, None, FutureRule(z, 0))
    return x, y, gx, gy


def sync_bridge(s, x, y, p, q):
    """A synchronizing point z with x ~lcs z ~lcu y.

    ``x`` must lie in the unstable class of ``p`` and ``y`` in the
    stable class of ``q`` (both synchronizing periodic).  The bridge
    point carries y's past and x's far future, glued inside a rectangle
    of y, with an lcs germ from x.  With n = ``sync_radius(s, y)``,
    every candidate is a point of the shift equal to y below n, so its
    central word ``[1-n, n-1]`` is y's, which synchronizes: z does, and
    its lcu germ to y, ``FutureRule(y, 0)`` on that word, verifies (see
    ``rectangle_germs``).
    """
    if not s.flags()["mixing"]:
        raise NotSynchronizing("bridges need a mixing shift")
    _require_sync_periodic(s, p, q)
    if not decide_relation(x, p, "unstable"):
        raise NotSynchronizing("x is not in the unstable class of p")
    if not decide_relation(y, q, "stable"):
        raise NotSynchronizing("y is not in the stable class of q")
    if x == y:
        return x
    n = sync_radius(s, y)
    # bridge candidates: y's pattern through the rectangle window, then a
    # connector, then x's right cycle in phase
    for z in _right_joins(s, y, n, BiSeq.periodic(x.right, x.right_start)):
        try:
            construct_germ(s, x, z, "lcs")
        except NotConstructive:
            continue
        return z
    raise SearchExhausted("no bridge point found", depth=_CONNECTOR_DEPTH)


# -- groupoid sampling -------------------------------------------------------

@dataclass(frozen=True)
class GroupoidArrow:
    source: BiSeq
    target: BiSeq
    germ: Germ
    groupoid: str


def groupoid_sample(s, selector, P=(), bound=6):
    """Arrows of the requested groupoid between small-description points.

    Selectors: ``lc`` (local conjugacy), ``lcsync`` (both endpoints
    synchronizing), ``lcs``/``lcu`` (one-sided relations over the
    unstable/stable classes of the synchronizing periodic base set P).
    Arrows carry constructed germs, so the sampled relation is a sound
    under-approximation; identities and inverses are always included.
    A two-sided lifted germ is verified, not proved, so its pair is kept
    only if the inverse verifies too; other inverses are proved alike.
    """
    if selector not in ("lc", "lcsync", "lcs", "lcu"):
        raise ValueError(f"unknown groupoid selector {selector!r}")
    if selector in ("lcs", "lcu") and not P:
        raise ValueError(f"the {selector} groupoid needs a non-empty base set P")
    points = [x for x in enumerate_points(s, core_len=2)
              if x.description_size() <= bound]
    kind = "lc" if selector == "lcsync" else selector
    if selector == "lcsync":
        points = [x for x in points
                  if classify_point(s, x).status == "synchronizing"]
    elif selector in ("lcs", "lcu"):
        _require_sync_periodic(s, *P)
        side = "unstable" if kind == "lcs" else "stable"
        points = [x for x in points
                  if any(decide_relation(x, base, side) for base in P)]
    arrows = []
    for i, x in enumerate(points):
        arrows.append(GroupoidArrow(x, x, identity_germ(s, x, kind), selector))
        for y in points[i + 1:]:
            try:
                germ = construct_germ(s, x, y, kind)
                inverse = germ.inverse()
                if kind == "lc" and s.memory is None:
                    verify_germ(inverse)
            except (NotConstructive, NotInDomain, InvariantViolation):
                continue
            arrows.append(GroupoidArrow(x, y, germ, selector))
            arrows.append(GroupoidArrow(y, x, inverse, selector))
    return arrows
