"""Schreier graphs of the action: over tree levels and over Gray segments.

The full generating family splits points over a Gray segment into moves of
two shapes, independent of any finite generating choice:

* set the first letter to any other value (even permutations of 5+ letters
  are transitive), and
* set the visible pair -- the letter at the word's first star and the one
  right after it -- to any other value with nonzero first entry.

A *piece* is the connected component of a point over a finite Gray-line
window under those moves.  Vertices are (fiber, letter assignment) states
over the window's visible positions; everything is reachable, exact and
finite.  Pieces get canonical byte codes (deterministic BFS in fixed label
order); code equality is exactly pointed label-preserving isomorphism of
the underlying labelled graphs.

The moves have two implementations.  ``GrayPiece.build`` states the rule
plainly, one move of one letter tuple at a time; it is the reference.
``_Window.walk`` walks the same states breadth-first but lists each move
clique (below) once, from its first vertex; it gives piece codes and
Schreier balls.
``find_n0`` walks no piece: by the key lemma (below) a point's piece is
fixed by its window's slot pattern and the point's letters, and by the
ball lemmas (below) a ball's states give both without a point built for
each.

Clique lemma.  A vertex's A-clique is the set of window states that agree
with it except perhaps at ``x1``, each at the fiber whose word fits its
``x1``; its B-clique, the same with the visible pair (u, v) for ``x1``.
Each vertex lies in one of each; its move ("A", c) leads to the member of
its A-clique with ``x1 = c``, ("B", u, v) to the member of its B-clique
with that pair.  Proof: the words at fiber k and at its A-neighbour differ
in bit 1 alone, so an A-move to c keeps the other letters and lands on the
fiber where x1 = 0 if c = 0, else on its A-neighbour, whichever member it
starts from, if that fiber is in the window.  A B-move flips only the bit
after the first star j, so both fibers of a B-clique show the same pair,
and the argument repeats with ``v`` for ``x1``.  So any member lists its
clique: its other letters, with each value of ``x1`` (the pair) at the
fiber where ``x1`` (``v``) is zero or at that fiber's neighbour.  A clique
has one member per value, d for A and (d - 1) d for B, less those at a
fiber outside the window.

Minimality.  No two vertices of a piece are bisimilar: a move writes only
letters in view (``x1``, or the visible pair at the current fiber), and
moves can be undone, so from any vertex a walk reaches every fiber of its
piece, and along it the annotation shows each letter before the walk can
change it (a letter never in view is the same at every vertex).  So
bisimilar vertices have the same (fiber, letters) state: they are one.

Fullness.  A state of a window is a fiber with letters at the slots that
fit the fiber's word: nonzero exactly at its stars (the formal ``a``
always).  Every piece holds every state of its window.  A line edge flips
one letter, in view at both its fibers -- ``x1`` across an A-edge, the
``v`` of the pair both fibers show across a B-edge -- so a letter never in
view keeps one zero pattern, and no move changes it.  Induction, adding an
end fiber h to a window W, next to it across edge e.  One fiber alone: its
moves that stay set ``x1`` and the pair to every fitting value.  By
induction the states over W with the letters at the slots only h shows
held fixed are connected.  If e is a B-edge, h shows the pair of its
neighbour, so it adds no slot, and the B-move that flips ``v`` joins each
state at h to one over W.  If e is an A-edge, an A-move joins each state
at h to one over W; an A-move out to h, B-moves at h that set the new
slots to any fitting values, and an A-move back join the states over W
that differ there.

Key lemma.  Label a window's slots in order of first appearance: ``x1``
first, then each fiber's pair (u, v) from ``lo`` to ``hi``.  A point's key
is the labels of each fiber's pair -- the slot pattern -- and its letters
in label order.  Two points have isomorphic pointed pieces, so equal
codes, exactly when their keys are equal.  If the keys are equal, the
basepoint letters fix fiber 0's zero pattern and each line edge flips the
letter of a known label, so relabelling the slots maps the states of one
window onto the other's; by fullness this is a bijection of the pieces,
and it keeps every annotation and move label and maps basepoint to
basepoint.  Conversely, let an isomorphism map one pointed piece onto the
other; it keeps fibers, which the annotation shows.  A role is ``x1``, u
or v at one fiber.  The roles of one slot are joined by steps of three
kinds.  A B-edge's two fibers show the same pair.  v sits right after u,
so the v of two fibers share a slot exactly when their u do.  Along a run
of fibers over which a slot holds a nonzero letter, which no line edge of
the run flips, take two walks with the same crossings from two vertices
one move apart, the move writing a fresh value into a role of that slot:
at every step they differ in that slot alone, so at the run's far end they
differ exactly in its roles.  The isomorphism maps them onto two such
walks of the other piece, with the same annotations, so the same roles
share a slot there.  Over a run where a slot holds zero it shows only as
the v of the run's end fibers, whose B-edges flip it, and the second step
joins those through the slot below.  So by induction on the position
every two roles of a slot are joined, and as the first two steps hold in
every window, both pieces have one slot pattern.  Last, a walk from the
basepoint writes only letters in view, so its annotations show each slot's
letter unchanged when the letter first comes into view; the isomorphism
carries the walk over, so the basepoint letters agree label by label.

Any fixed order of the roles gives an equally exact key.  A key records
which roles share a slot -- the labels of the roles, in their order, are
the first-appearance numbering of that partition, which the numbering and
the order determine and which determines the numbering -- and each slot's
letter, in label order.  The proof uses nothing else, so two points have
equal keys in one fixed order exactly when they do in another.

Outward keys.  ``find_n0`` orders the roles ``x1``, then the pairs of
fibers 0, -1, +1, -2, +2, ..., in the point's own orientation.  The roles
of fibers -n..n come first, so their labels do not depend on the fibers
beyond, and the key at n + 1 is the key at n and one block: the labels of
the roles of fibers -(n + 1) and n + 1, and the letters of the slots they
show first, in label order (the block of n = 1 also holds ``x1`` and fiber
0).  So keys that differ at n differ at n + 1, and a round of the search
compares new blocks only within groups whose keys are still equal.

Ball lemmas.  Let W_k be the word at fiber k of a basepoint p's line
(``_Window.line``, laid out from its Gray word), and let (k, L) be a state
of the piece of p over the window -R..R, with point q: L at the window's
slots (and formal pair, if shown), p's letters elsewhere
(``_Window.point``).

1. q's Gray word is W_k.  L fits W_k: nonzero exactly at its stars, at the
   slots.  Off the slots q has p's letters, whose zero pattern is W_0's,
   and W_k agrees with W_0 there: each line edge between fibers 0 and k
   flips bit 1 or the bit after a word's first star, and the window shows
   both (the formal b, if that is the bit).
2. q's own line at offset f is W_(k + f) for even k and W_(k - f) for odd
   k.  A Gray word has two line neighbours, across its first bit and
   across the bit after its first star, so q's line is p's line read from
   W_k in one of its two directions.  ``gray_segment`` puts a word's
   first-bit neighbour at -1, and on p's line the first-bit neighbour of
   fiber k is ``_line_neighbor(k, 0)``, the one home of the line's parity
   rule: k - 1 at even k, k + 1 at odd k.  So at even k, q's -1 is
   W_(k - 1) and its offsets run with p's; at odd k, W_(k + 1) is its
   first-bit neighbour and they run against.
3. q's letter at a position the window never shows is p's, and so is its
   formal pair when the window does not show it: q is reached from p by
   moves, and a move writes only letters in view.
So q's key at piece radius n is read off the line over fibers
k - n..k + n, which lies within -(R + n)..R + n, p's letters, and L; no
point is built.

The module also computes marginal subpieces, branch counts, quasi-level
detection, and the separation constant ``n0``: the piece radius at which
every point within graph distance R of a basepoint is distinguished from
it by its piece.
"""

from __future__ import annotations

import hashlib
import itertools
from array import array
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass
from operator import attrgetter, itemgetter

from .core import AGen, Config, ResourceCap
from .points import (
    OMEGA,
    OMEGA1,
    TildePoint,
    _Line,
    _line_neighbor,
    _pair_positions,
    first_star,
    gray_projection,
    pos_sort_key,
    visible_positions,
    with_letters,
)

__all__ = [
    "LevelGraph",
    "level_graph",
    "GrayPiece",
    "gray_piece",
    "marginals",
    "branch_report",
    "segment_roots",
    "is_quasi_level",
    "find_n0",
    "SEPARATION_RADIUS",
    "piece_code",
    "schreier_ball",
    "descriptor_labels",
]

# Audited outcome of ``find_n0`` at radius 8 over the default seeded corpus
# (12 basepoints, salt "n0"): pieces of radius 6 separate every pair of
# distinct points in every ball, radius 5 does not.  The audit reports
# n0 = 6 over 11 distinct balls, 13420 vertices and 9850898 pairs, with no
# replay collision; it takes about 0.08 s on a 2-vCPU host (Python 3.11.7):
#
#   cfg = Config.default(5)
#   find_n0(cfg, sample_points(cfg, 12, salt="n0", max_prefix=4, max_period=2), radius=8)
SEPARATION_RADIUS = 6

_LEVEL_CAP = 6  # word length of a level graph
_LENGTH_CAP = 17  # segment length of a central piece
_PIECE_CAP = 2_000_000  # vertices per piece


# ---------------------------------------------------------------------------
# level graphs


@dataclass
class LevelGraph:
    """Action of the named generators on all words of a fixed length."""

    d: int
    n: int
    names: tuple[str, ...]
    adj: dict[str, tuple[int, ...]]

    def word_of(self, i: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.n):
            out.append(i % self.d)
            i //= self.d
        return tuple(reversed(out))

    @property
    def size(self) -> int:
        return self.d**self.n

    def is_connected(self) -> bool:
        # every row permutes the finite level, so the set that forward moves
        # reach is closed under the inverse moves too
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for row in self.adj.values():
                if row[v] not in seen:
                    seen.add(row[v])
                    stack.append(row[v])
        return len(seen) == self.size

    def automorphism_count(self) -> int:
        """Label-preserving graph automorphisms (they are determined by the
        image of one vertex, since the labelled moves are deterministic)."""
        adj = list(zip(*(self.adj[name] for name in self.names)))
        traces = [_bfs_trace(v, adj, lambda v: []) for v in range(self.size)]
        return traces.count(traces[0])


def level_graph(cfg: Config, n: int) -> LevelGraph:
    if n < 1:
        raise ValueError("level must be positive")
    if n > _LEVEL_CAP:
        raise ResourceCap(f"level_graph: word length {n} exceeds _LEVEL_CAP = {_LEVEL_CAP}")
    # lexicographic order is the index order of ``LevelGraph.word_of``
    index = {w: i for i, w in enumerate(itertools.product(range(cfg.d), repeat=n))}
    adj = {name: tuple(index[g.apply(w)] for w in index) for name, g in cfg.gens}
    return LevelGraph(cfg.d, n, tuple(name for name, _ in cfg.gens), adj)


# ---------------------------------------------------------------------------
# move labels


def descriptor_labels(d: int) -> tuple[tuple, ...]:
    """The full-family move labels, in canonical order: first-letter moves
    ("A", c), then visible-pair moves ("B", u, v) with u nonzero."""
    labs: list[tuple] = [("A", c) for c in range(d)]
    for u in range(1, d):
        for v in range(d):
            labs.append(("B", u, v))
    return tuple(labs)


# ---------------------------------------------------------------------------
# pieces


class GrayPiece:
    """Connected component of a point over a Gray-line window.

    ``verts[i] = (fiber, letters)`` where ``letters`` assigns values to the
    window's finite visible positions (``slots``) plus, for eventually-zero
    windows, two trailing virtual slots for the formal pair.  ``adj[i]`` has
    one entry per descriptor label: the target vertex index or -1.  Vertex 0
    is the state of ``origin``, the basepoint."""

    basepoint = 0
    d = property(attrgetter("win.d"))
    lo = property(attrgetter("win.lo"))
    hi = property(attrgetter("win.hi"))
    segment = property(attrgetter("win.segment"))
    slots = property(attrgetter("win.slots"))
    has_pair = property(attrgetter("win.has_pair"))

    def __init__(
        self, win: _Window, origin: TildePoint, verts: list[tuple[int, tuple[int, ...]]], adj: list[tuple[int, ...]]
    ):
        self.win, self.origin, self.verts, self.adj = win, origin, verts, adj
        self._codes: dict = {}
        self._points: dict[int, TildePoint] = {}

    @property
    def size(self) -> int:
        return len(self.verts)

    @property
    def length(self) -> int:
        return len(self.segment)

    def fiber(self, i: int) -> int:
        return self.verts[i][0]

    def annotation(self, i: int) -> tuple:
        k, letters = self.verts[i]
        iu, iv = self.win.pair_slots[k - self.lo]
        return (k, letters[0], letters[iu], letters[iv])

    # -- construction ------------------------------------------------------

    @staticmethod
    def build(p: TildePoint, lo: int, hi: int) -> "GrayPiece":
        d = p.d
        win = _Window(p, lo, hi)
        base_letters = win.letters(p)
        for i, pos in enumerate(win.slots):
            if (base_letters[i] != 0) != bool(win.line[0].letter(pos)):
                raise AssertionError("basepoint letters disagree with its Gray word")

        def moves(k: int, letters: tuple[int, ...]) -> Iterator[tuple[int, tuple[int, ...]] | None]:
            # the target state of each move, in descriptor_labels order, or
            # None when the move changes nothing or leaves the window; the
            # visible pair sits at adjacent slots (slots are sorted)
            x1 = letters[0]
            for c in range(d):
                k2 = k if (c != 0) == (x1 != 0) else _line_neighbor(k, 0)
                yield (k2, (c,) + letters[1:]) if c != x1 and lo <= k2 <= hi else None
            iu, iv = win.pair_slots[k - lo]
            for u2 in range(1, d):
                for v2 in range(d):
                    k2 = k if (v2 != 0) == (letters[iv] != 0) else _line_neighbor(k, 1)
                    if (u2, v2) == (letters[iu], letters[iv]) or not lo <= k2 <= hi:
                        yield None
                    else:
                        yield k2, letters[:iu] + (u2, v2) + letters[iv + 1 :]

        # verts grows while it is iterated: vertices are expanded, and
        # numbered, in breadth-first order
        verts: list[tuple[int, tuple[int, ...]]] = [(0, base_letters)]
        index = {verts[0]: 0}
        adj: list[tuple[int, ...]] = []
        for k, letters in verts:
            row = []
            for state in moves(k, letters):
                if state is not None and state not in index:
                    index[state] = len(verts)
                    verts.append(state)
                    if len(verts) > _PIECE_CAP:
                        raise ResourceCap(f"GrayPiece.build: {len(verts)} vertices exceed _PIECE_CAP = {_PIECE_CAP}")
                row.append(-1 if state is None else index[state])
            adj.append(tuple(row))
        return GrayPiece(win, p, verts, adj)

    # -- materialization ---------------------------------------------------

    def point_of(self, i: int) -> TildePoint:
        pt = self._points.get(i)
        if pt is None:
            pt = self._points[i] = self.win.point(self.origin, self.verts[i][1])
        return pt

    def points(self) -> list[TildePoint]:
        return [self.point_of(i) for i in range(self.size)]

    def s0_edges(self, cfg: Config) -> list[tuple[int, str, int]]:
        """Edges induced by the named generators (and their inverses, named
        with a trailing '-'); -1 targets mean the generator leaves the piece."""
        out = []
        for name, word in cfg.symmetric_gens():
            g = word[0]
            for i in range(self.size):
                k, letters = self.verts[i]
                iu, iv = self.win.pair_slots[k - self.lo]
                if isinstance(g, AGen):
                    c = g.pi(letters[0])
                    lab = ("A", c) if c != letters[0] else None
                else:
                    u, v = letters[iu], letters[iv]
                    u2 = g.rho(u)
                    v2 = g.sigma(u)(v)
                    lab = ("B", u2, v2) if (u2, v2) != (u, v) else None
                if lab is None:
                    out.append((i, name, i))
                else:
                    ti = self.adj[i][_label_id(self.d, lab)]
                    out.append((i, name, ti))
        return out

    # -- codes -------------------------------------------------------------

    def code(self, base: int | None = None, with_fibers: bool = True) -> bytes:
        if base is None:
            base = self.basepoint
        key = (base, with_fibers)
        got = self._codes.get(key)
        if got is None:
            got = _trace_code(self, base, with_fibers)
            self._codes[key] = got
        return got

    def component_within(self, start: int, lo: int, hi: int) -> list[int]:
        seen = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for t in self.adj[v]:
                if t >= 0 and t not in seen and lo <= self.verts[t][0] <= hi:
                    seen.add(t)
                    stack.append(t)
        return sorted(seen)


def _label_id(d: int, lab: tuple) -> int:
    if lab[0] == "A":
        return lab[1]
    _, u, v = lab
    return d + (u - 1) * d + v


def _trace_code(piece: GrayPiece, start: int, with_fibers: bool) -> bytes:
    """Digest of the breadth-first trace of the piece from ``start``.

    Each vertex is annotated by its fiber offset from ``start`` (0 without
    fibers), first letter and visible pair, so by ``_bfs_trace`` the digest
    is a canonical form: two pieces get the same digest exactly when they
    are isomorphic as pointed labelled graphs."""
    shift = piece.annotation(start)[0]

    def annotation(v: int) -> list[int]:
        fiber, *rest = piece.annotation(v)
        return [fiber - shift if with_fibers else 0, *rest]

    return _bfs_trace(start, piece.adj, annotation)


def _bfs_trace(start: int, adj, annotation) -> bytes:
    """Digest of the breadth-first trace from ``start`` of a graph with
    target rows ``adj[v]`` (one target per label, -1 for none).

    Each visited vertex contributes ``annotation(v)`` followed by the
    breadth-first renumbering of its target row.  Every label has at most
    one target, so the traversal order is forced and the digest is a
    canonical form of the pointed labelled graph with its annotations.
    Rows are hashed as fixed-width int32 words; hashing keeps the digest at
    32 bytes however large the graph grows."""
    order = {start: 0}
    order_get = order.get
    queue = deque([start])
    h = hashlib.sha256()
    update = h.update
    while queue:
        v = queue.popleft()
        row = annotation(v)
        for t in adj[v]:
            if t < 0:
                row.append(-1)
                continue
            got = order_get(t)
            if got is None:
                got = len(order)
                order[t] = got
                queue.append(t)
            row.append(got)
        update(array("i", row).tobytes())
    return h.digest()


def gray_piece(p: TildePoint, n: int) -> GrayPiece:
    """The central piece of radius ``n`` (segment length 2n+1) around ``p``."""
    if n < 0:
        raise ValueError("radius must be nonnegative")
    if 2 * n + 1 > _LENGTH_CAP:
        raise ResourceCap(f"gray_piece: length {2 * n + 1} exceeds _LENGTH_CAP = {_LENGTH_CAP}")
    return GrayPiece.build(p, -n, n)


# ---------------------------------------------------------------------------
# marginals, branches, quasi-levels


def marginals(piece: GrayPiece) -> tuple[GrayPiece, GrayPiece, GrayPiece]:
    """(left, right, core) marginal pieces of a central radius-n piece:
    the components of the basepoint over the windows [-n, n-2], [-n+2, n]
    and [-n+2, n-2]."""
    n = piece.hi
    if piece.lo != -n or n < 2:
        raise ValueError("marginals expect a central piece of radius >= 2")
    p = piece.origin
    return (
        GrayPiece.build(p, -n, n - 2),
        GrayPiece.build(p, -n + 2, n),
        GrayPiece.build(p, -n + 2, n - 2),
    )


def branch_report(piece: GrayPiece) -> dict:
    """Branch structure of a central piece: does the left (right) marginal
    spill outside the core component over the core window?"""
    n = piece.hi
    if piece.lo != -n or n < 2:
        raise ValueError("branch analysis expects a central piece of radius >= 2")
    base = piece.basepoint
    core = set(piece.component_within(base, -n + 2, n - 2))
    out = {}
    for side, (wlo, whi) in (("left", (-n, n - 2)), ("right", (-n + 2, n))):
        marg = piece.component_within(base, wlo, whi)
        over_core = {v for v in marg if -n + 2 <= piece.fiber(v) <= n - 2}
        # the marginal is closed under moves inside its window, so each
        # component over the core window lies inside ``over_core``
        comps = 0
        seen: set[int] = set()
        for v in over_core:
            if v not in seen:
                comps += 1
                seen.update(piece.component_within(v, -n + 2, n - 2))
        out[side] = {
            "components": comps,
            "branches": bool(over_core - core),
        }
    out["bi_branching"] = out["left"]["branches"] and out["right"]["branches"]
    return out


def segment_roots(segment: tuple[TildePoint, ...]) -> tuple[list[int], list[int], object]:
    """Indices (into the segment) of roots and anti-roots, plus the root
    depth.  The root is the word whose first star sits deepest; anti-roots
    sit exactly one position higher.  Windows rooted at the formal position
    have no anti-roots."""
    stars = [first_star(w) for w in segment]
    jmax = max(stars, key=pos_sort_key)
    roots = [i for i, j in enumerate(stars) if j == jmax]
    if jmax is OMEGA:
        return roots, [], OMEGA
    anti = [i for i, j in enumerate(stars) if j == jmax - 1]
    return roots, anti, jmax


def is_quasi_level(piece: GrayPiece) -> int | None:
    """Depth of the quasi-level, or None.

    A central piece is a quasi-level when the segment's roots sit among the
    two extreme positions of one side, at least one anti-root exists, and
    all anti-roots sit among the two extreme positions of the other side."""
    seg = piece.segment
    roots, anti, jmax = segment_roots(seg)
    if jmax is OMEGA or not anti:
        return None
    last = len(seg) - 1
    left = {0, 1}
    right = {last - 1, last}
    if set(roots) <= left and set(anti) <= right:
        return jmax
    if set(roots) <= right and set(anti) <= left:
        return jmax
    return None


# ---------------------------------------------------------------------------
# the separation constant


class _Window:
    """Piece states over one Gray window, and the walk that visits them.

    A state is a fiber and the letters at the window's slots, plus the
    formal pair when the window shows it: ``(fiber, letters)``, the form of
    ``GrayPiece.verts``.  The window depends on the center's Gray word
    alone, so one window serves every point over that word."""

    def __init__(self, p: TildePoint, lo: int, hi: int):
        if not lo <= 0 <= hi:
            raise ValueError("the window must contain the basepoint fiber")
        self.line = _Line(gray_projection(p))  # laid out past the window as far as a caller reads it
        self.segment = tuple(self.line[k] for k in range(lo, hi + 1))
        self.slots, self.has_pair = visible_positions(self.segment)
        # the positions in view, in the order of a state's letters, and each
        # one's index there
        self.positions = self.slots + ((OMEGA, OMEGA1) if self.has_pair else ())
        self.index = {pos: i for i, pos in enumerate(self.positions)}
        # per fiber offset: the letter indices of the visible pair
        self.pair_slots = [tuple(self.index[pos] for pos in _pair_positions(w)) for w in self.segment]
        self.d, self.lo, self.hi = p.d, lo, hi

    def letters(self, q: TildePoint) -> tuple[int, ...]:
        """Letters of a point over the window's center word at the slots,
        then the formal pair when the window shows it."""
        return tuple(map(q.letter, self.positions))

    def point(self, p: TildePoint, letters: tuple[int, ...]) -> TildePoint:
        """The point that has ``letters`` at the window's slots (and formal
        pair) and agrees with ``p`` everywhere else."""
        pair = letters[-2:] if self.has_pair else None
        return with_letters(p, dict(zip(self.slots, letters)), pair=pair)

    def walk(self, start: tuple[int, tuple[int, ...]], layers: int | None = None) -> tuple[list, tuple]:
        """Breadth-first walk of the piece of the state ``start`` by its move
        cliques (clique lemma), stopped after ``layers`` layers if given.

        Returns ``(verts, rows)``: the states in breadth-first order, and
        per clique kind, A then B, each vertex's clique row: its clique's
        member numbers, one per letter (pair) in label order, -1 for a
        member outside the window; None for a clique not expanded, which
        only a stopped walk's last layer has.  A clique is expanded
        once, from its first vertex, so the walk numbers vertices in
        ``GrayPiece.build``'s order.  A clique's members in the window are
        counted before it is listed, and each of them joins the walk, so a
        clique of more than ``_PIECE_CAP`` raises ``ResourceCap`` at once,
        and so does the vertex that takes the walk past ``_PIECE_CAP``."""
        d, lo, hi = self.d, self.lo, self.hi
        verts = [start]
        index = {start: 0}
        rows: tuple[list[array | None], list[array | None]] = ([None], [None])

        def expand(kind: int, k: int, letters: tuple[int, ...], at: int) -> None:
            # the clique rewrites the letters from ``at`` on (x1, or the
            # pair); its last one picks the fiber
            width = 1 + kind
            other = _line_neighbor(k, kind)
            zero, other = (k, other) if letters[at + width - 1] == 0 else (other, k)
            in_zero, in_other = lo <= zero <= hi, lo <= other <= hi
            count = (d - 1) ** kind * (in_zero + (d - 1) * in_other)
            if count > _PIECE_CAP:
                raise ResourceCap(
                    f"_Window.walk: {'AB'[kind]}-clique of {count} vertices in the window exceeds _PIECE_CAP = {_PIECE_CAP}"
                )
            head, tail = letters[:at], letters[at + width :]
            labels = itertools.product(range(1, d), range(d)) if kind else itertools.product(range(d))
            row, owner = array("i"), rows[kind]
            for lab in labels:
                fiber, inside = (other, in_other) if lab[-1] else (zero, in_zero)
                if not inside:
                    row.append(-1)
                    continue
                state = (fiber, head + lab + tail)
                j = index.get(state)
                if j is None:
                    j = index[state] = len(verts)
                    verts.append(state)
                    rows[0].append(None)
                    rows[1].append(None)
                    if len(verts) > _PIECE_CAP:
                        raise ResourceCap(f"_Window.walk: {len(verts)} vertices exceed _PIECE_CAP = {_PIECE_CAP}")
                owner[j] = row
                row.append(j)

        layer, depth = range(1), 1
        while layer and depth != layers:
            first = len(verts)
            for i in layer:
                k, letters = verts[i]
                if rows[0][i] is None:
                    expand(0, k, letters, 0)
                if rows[1][i] is None:
                    expand(1, k, letters, self.pair_slots[k - lo][0])
            layer, depth = range(first, len(verts)), depth + 1
        return verts, rows


class _Ball:
    """The states of a Schreier ball, and their outward keys.

    ``states`` are the first ``radius + 1`` breadth-first layers of the
    basepoint's piece over the window -radius..radius (see
    ``schreier_ball``), in ``_Window.walk``'s form.  By the ball lemmas
    (module docstring) the basepoint's Gray line, its letters and a state
    give the state's key over its own window, so no point is built for a
    state.  The window's line grows past the window as the keys need it.
    A state's outward block at n is the part of its key for its own fibers
    -n and +n (with its x1 and fiber 0 at n = 1); its blocks 1..n are its
    key at piece radius n."""

    def __init__(self, p: TildePoint, radius: int):
        win = _Window(p, -radius, radius)
        self.p, self.win = p, win
        self.states = win.walk((0, win.letters(p)), layers=radius + 1)[0]
        self._labels = {k: {} for k in range(-radius, radius + 1)}  # per state fiber: the slot labels given so far
        self._blocks: list[dict] = []  # per n from 1, per state fiber: a block's pattern, picker and fixed letters

    def _table(self, n: int) -> dict:
        # The blocks at n of the states at each fiber k.  The pattern is the
        # labels of the roles of the own fibers -n and +n: the line fibers
        # k - n and k + n, in that order when the line's first-bit
        # neighbour of k is k - 1 and reversed when it is k + 1 (ball lemma
        # 2; after x1 and fiber 0 at n = 1).  The picker takes the letters of
        # the slots labelled first here, in label order, from a state's
        # letters followed by the basepoint's letters at those slots out of
        # view.  It picks one letter bare, not in a tuple.  That is still
        # exact: a block is compared only when the blocks before it are
        # equal, and then equal patterns hold as many new labels.
        index, line, p = self.win.index, self.win.line, self.p
        while len(self._blocks) < n:
            m = len(self._blocks) + 1
            table = {}
            for k, labels in self._labels.items():
                s = m * (k - _line_neighbor(k, 0))
                roles = (*_pair_positions(line[k - s]), *_pair_positions(line[k + s]))
                if m == 1:
                    roles = (1, *_pair_positions(line[k]), *roles)
                pattern, new = [], []
                for pos in roles:
                    if pos not in labels:
                        labels[pos] = len(labels)
                        new.append(pos)
                    pattern.append(labels[pos])
                at, fixed = [], []
                for pos in new:
                    if pos in index:
                        at.append(index[pos])
                    else:
                        at.append(len(index) + len(fixed))
                        fixed.append(p.letter(pos))
                table[k] = tuple(pattern), itemgetter(*at) if at else _no_letters, tuple(fixed)
            self._blocks.append(table)
        return self._blocks[n - 1]

    def keys(self, n: int) -> list[tuple]:
        """Every state's key over its own window -n..n: its blocks 1..n."""
        tables = [self._table(m) for m in range(1, n + 1)]
        rows = {k: [table[k] for table in tables] for k in self._labels}
        return [tuple([(pattern, pick(letters + fixed)) for pattern, pick, fixed in rows[k]]) for k, letters in self.states]

    def point(self, i: int) -> TildePoint:
        return self.win.point(self.p, self.states[i][1])


def _no_letters(letters: tuple[int, ...]) -> tuple:
    return ()


def schreier_ball(p: TildePoint, radius: int) -> list[TildePoint]:
    """Points within graph distance ``radius`` of ``p``, breadth-first, each
    point's neighbours in descriptor-label order.

    A move changes the fiber by at most one, so no path of ``radius`` moves
    leaves the fibers -radius..radius: the ball is the first ``radius + 1``
    breadth-first layers of the piece of ``p`` over that window.  The walk
    stops after them, and each state becomes a point by ``_Window.point``,
    the map ``GrayPiece.point_of`` uses."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    ball = _Ball(p, radius)
    return [ball.win.point(p, letters) for _, letters in ball.states]


def piece_code(q: TildePoint, lo: int, hi: int, memo: dict | None = None) -> bytes:
    """Digest of ``GrayPiece.build(q, lo, hi).code()``, optionally memoised.

    The trace in _trace_code renumbers vertices by a breadth-first walk from
    the basepoint in label order -- exactly the order in which build discovers
    them -- so from the basepoint the renumbering is the identity and the
    digest hashes the rows ``[fiber, x1, u, v, target per label]`` of
    ``_Window.walk`` in its order.  By the clique lemma a vertex's targets are
    the other members of its A-clique by ``x1``, then of its B-clique by
    ``(u, v)``.  Rows are streamed into the hash one at a time.  Byte-for-byte
    equality with the two-pass route is pinned by a test.

    A piece is determined by the window's Gray words together with the
    letters of ``q`` at the window's visible positions (plus the formal pair
    when the window shows it) -- nothing else about ``q`` enters the build.
    That tuple keys the memo, so points that differ only at positions the
    window cannot see share one build."""
    win = _Window(q, lo, hi)
    key = None
    if memo is not None:
        key = hashlib.sha256(repr((win.segment, lo, hi, win.letters(q))).encode()).digest()
        code = memo.get(key)
        if code is not None:
            return code
        if len(memo) > 1_000_000:
            memo.clear()
    d = win.d
    verts, (a_rows, b_rows) = win.walk((0, win.letters(q)))
    h = hashlib.sha256()
    for (k, letters), a, b in zip(verts, a_rows, b_rows):
        iu = win.pair_slots[k - lo][0]
        x1, u, v = letters[0], letters[iu], letters[iu + 1]
        row = array("i", (k, x1, u, v))
        row += a
        row += b
        row[4 + x1] = row[4 + u * d + v] = -1  # no move keeps its letter
        h.update(row)
    code = h.digest()
    if key is not None:
        memo[key] = code
    return code


def _separation_radius(ball: _Ball, bound: int) -> tuple[int, tuple | None]:
    """Least n >= 1 at which the states of ``ball`` get pairwise distinct
    keys at piece radius n.  A key at n + 1 is the key at n and one block
    more (outward keys, module docstring), so each round splits each group
    that still collides by its states' new blocks alone, and drops the
    groups left with one state.  Returns (n, None), or (bound, the
    counterexample pair) when the bound runs out."""
    states = ball.states
    groups: list = [range(len(states))]
    n = 1
    while True:
        table = ball._table(n)
        split = []
        for group in groups:
            buckets: dict[tuple, list[int]] = {}
            for i in group:
                k, letters = states[i]
                pattern, pick, fixed = table[k]
                buckets.setdefault((pattern, pick(letters + fixed)), []).append(i)
            split += [g for g in buckets.values() if len(g) > 1]
        groups = split
        if not groups:
            return n, None
        if n >= bound:
            return n, (repr(ball.point(groups[0][0])), repr(ball.point(groups[0][1])))
        n += 1


def find_n0(
    cfg: Config,
    points: list[TildePoint],
    radius: int = 8,
    search_bound: int = 20,
) -> dict:
    """Smallest piece radius n such that around every sampled basepoint all
    distinct points within graph distance ``radius`` have pairwise distinct
    central pieces of radius n.

    Each ball is walked once (``_Ball``, the walk of ``schreier_ball``), and
    its states are keyed without building their points: by the key lemma,
    two states share a key at n exactly when their pieces of radius n are
    isomorphic.  The search finds each ball's least separating n by
    splitting still-colliding groups one outward block per round, and stops
    at the first ball that ``search_bound`` cannot separate, whose pair it
    reports.  The replay then rebuilds every state's whole key at the final
    n0 from its blocks, without the search's groups, and counts states that
    share one: ``replay_collisions`` checks the search's bookkeeping
    against the plain key."""
    del cfg  # the corpus is already sampled; kept for interface symmetry
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    if search_bound < 1:
        raise ValueError("search_bound must be positive")
    uniq = list(dict.fromkeys(points))
    if not uniq:
        raise ValueError("the corpus must hold a basepoint")
    n0 = 1
    balls = []
    for p in uniq:
        ball = _Ball(p, radius)
        n, witness = _separation_radius(ball, search_bound)
        if witness is not None:
            return {
                "ok": False,
                "n0": None,
                "search_bound": search_bound,
                "radius": radius,
                "counterexample": {"basepoint": repr(p), "pair": witness},
            }
        n0 = max(n0, n)
        balls.append(ball)
    collisions = 0
    pairs_checked = 0
    vertices = 0
    for ball in balls:
        size = len(ball.states)
        collisions += size - len(set(ball.keys(n0)))
        pairs_checked += size * (size - 1) // 2
        vertices += size
    return {
        "ok": collisions == 0,
        "n0": n0,
        "search_bound": search_bound,
        "radius": radius,
        "balls": len(uniq),
        "vertices": vertices,
        "pairs_checked": pairs_checked,
        "replay_collisions": collisions,
    }
