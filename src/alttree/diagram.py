"""Stationary path-space model of the boundary-with-doubled-rays.

Points are encoded as infinite edge paths in a layered graph whose
level-n vertex records two things about a sequence: whether letter n+1
is zero, and the next visible data — the first nonzero letter after
position n together with the letter that follows it.  Vertices are
``(a, b, flag)`` with ``a`` nonzero; ``flag`` is 1 ("*") when letter
n+1 is nonzero and 0 when it is zero.  Every level uses the same vertex
set and the same edge rule, and the walk from a deep vertex back toward
the top is deterministic, so a finite path is pinned down by its label
word plus its end vertex alone.

The module provides the finite-path type, encode/decode between points
and paths, a clopen-set algebra over antichains of path prefixes, exact
images of cylinders under group words, tower/prefix-exchange
machinery, and the audits that the tests run (uniform non-exchange
counts per tower, pointwise-fixed witness cylinders, the encode/decode
round trip).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .core import (
    _ID_CACHE_CAP,
    BGen,
    Gen,
    ResourceCap,
    Word,
    _degree,
    _unroll,
    _wreath,
    as_nucleus,
    is_identity,
    reduce_word,
    section_orbit,
    section_word,
    word_to_json,
)
from .points import (
    TildePoint,
    ZeroPair,
    _letters_text,
    _parse_letters,
    _periodic,
    _shift,
    _zero_pair,
    act,
    zero_pair_point,
)

__all__ = [
    "PathPrefix",
    "ClopenSet",
    "vertices",
    "out_edges",
    "source_vertex",
    "vertex_text",
    "parse_vertex",
    "path",
    "parse_path",
    "encode",
    "decode",
    "cylinder_member",
    "clopen",
    "full_space",
    "empty_set",
    "image_of_cylinder",
    "image_of_clopen",
    "tower",
    "tau_apply",
    "transfer_matrix",
    "path_counts",
    "is_identity_on_vertex",
    "bounded_type_audit",
    "nontrivial_section_words",
    "contraction_depth",
    "regularity_check",
    "roundtrip_audit",
    "full_connectivity_steps",
]

_REFINE_CAP = 500_000  # cylinders of one refine_to_depth
_TOWER_CAP = 200_000  # paths of one tower
_CONNECTIVITY_BOUND = 8  # path lengths full_connectivity_steps tries
_SECTION_WORDS_CAP = 100_000  # words of one level of nontrivial_section_words
_DEPTH_BOUND = 64  # tree levels an image, contraction_depth and regularity_check search
_AUDIT_CAP = 40_000_000  # paths of one roundtrip_audit
_PREFIXES_CACHE_CAP = 1 << 16  # entries of the _prefixes cache, keyed by path


# ---------------------------------------------------------------------------
# vertices and edges

Vertex = tuple  # (a, b, flag) with 1 <= a < d, 0 <= b < d, flag in {0, 1}


@lru_cache(maxsize=None)  # one entry per degree
def vertices(d: int) -> tuple[Vertex, ...]:
    """All level vertices, in sorted order: 2*(d-1)*d of them."""
    return tuple(
        (a, b, f) for a in range(1, d) for b in range(d) for f in (0, 1)
    )


@lru_cache(maxsize=None)  # at most 2*(d-1)*d + 1 entries per degree
def out_edges(d: int, v: Vertex | None) -> tuple[tuple[int, Vertex], ...]:
    """Edges one level down from ``v`` as ``(label, target)`` pairs.

    ``v None`` is the top vertex: it reaches every level-1 vertex once
    per letter.  A 0-flagged vertex only extends the zero run (label 0,
    same pair, either flag).  A *-flagged vertex consumes its first
    visible letter ``a`` as the label: with ``b`` nonzero the next
    visible data starts at ``b``, with ``b`` zero a fresh zero run
    starts and the following visible pair is unconstrained.
    """
    if v is None:
        return tuple((lab, u) for u in vertices(d) for lab in range(d))
    a, b, flag = v
    if not flag:
        return ((0, (a, b, 0)), (0, (a, b, 1)))
    if b != 0:
        return tuple((a, (b, c, 1)) for c in range(d))
    return tuple((a, (c, e, 0)) for c in range(1, d) for e in range(d))


def source_vertex(d: int, v: Vertex, label: int) -> Vertex:
    """The unique vertex one level up with an edge labelled ``label`` into
    ``v``.  Every (vertex, label) pair has exactly one source, which is
    why a label word plus an end vertex determines a whole path."""
    a, b, flag = v
    if label == 0:
        return (a, b, 0)
    if flag:
        return (label, a, 1)
    return (label, 0, 1)


def vertex_text(v: Vertex | None) -> str:
    if v is None:
        return "top"
    a, b, flag = v
    return _letters_text((a, b)) + ("*" if flag else "0")


def parse_vertex(text: str) -> Vertex | None:
    if text == "top":
        return None
    flag = text[-1:]
    ab = _parse_letters(text[:-1]) if flag in ("*", "0") else ()
    if len(ab) != 2:
        raise ValueError(f"bad vertex text: {text!r}")
    return (*ab, 1 if flag == "*" else 0)


# ---------------------------------------------------------------------------
# finite paths


@dataclass(frozen=True, slots=True)
class PathPrefix:
    """A finite path from the top: label word plus end vertex.

    ``end`` is None exactly for the empty path (the whole space).  Any
    label word over 0..d-1 combined with any vertex names a valid,
    nonempty cylinder.

    The public constructors (``PathPrefix(...)``, :func:`path`,
    :func:`parse_path`) check every field.  ``_unchecked`` skips the
    checks and ``__init__``: it stores the fields through the slot
    setters.  It is only for fields valid by construction: the paths
    that ``encode``, ``children``, ``_image``, ``clopen``,
    ``complement``, ``tower``, ``full_space`` and ``roundtrip_audit``
    build from letters, vertices and edges they already hold.
    """

    d: int
    labels: tuple[int, ...]
    end: Vertex | None

    def __post_init__(self):
        if any(not 0 <= x < self.d for x in self.labels):
            raise ValueError("label out of range")
        if self.end is None:
            if self.labels:
                raise ValueError("nonempty label word needs an end vertex")
        else:
            a, b, flag = self.end
            if not (1 <= a < self.d and 0 <= b < self.d and flag in (0, 1)):
                raise ValueError(f"bad vertex: {self.end}")
            if not self.labels:
                raise ValueError("empty label word must end at the top")

    @classmethod
    def _unchecked(cls, d: int, labels: tuple[int, ...], end: Vertex | None) -> "PathPrefix":
        """Wrap fields that are a valid path by construction."""
        p = _new(cls)
        # the slot setters skip the frozen __setattr__; bound once below,
        # they cost less than the three object.__setattr__ calls of __init__
        _set_d(p, d)
        _set_labels(p, labels)
        _set_end(p, end)
        return p

    @property
    def depth(self) -> int:
        return len(self.labels)

    def chain(self) -> tuple[Vertex, ...]:
        """Vertices at levels 1..depth (empty for the top path)."""
        return tuple(end for _labels, end in _prefixes(self)[1:])

    def children(self) -> tuple["PathPrefix", ...]:
        return tuple(
            PathPrefix._unchecked(self.d, self.labels + (lab,), u)
            for lab, u in out_edges(self.d, self.end)
        )

    def text(self) -> str:
        return _letters_text(self.labels) + "@" + vertex_text(self.end)

    def __repr__(self):
        return f"<path {self.text()}>"


_new = object.__new__
_set_d, _set_labels, _set_end = (
    PathPrefix.d.__set__,
    PathPrefix.labels.__set__,
    PathPrefix.end.__set__,
)


def path(d: int, labels, end) -> PathPrefix:
    labels = tuple(labels)
    if isinstance(end, str):
        end = parse_vertex(end)
    return PathPrefix(d, labels, end)


def parse_path(text: str, d: int) -> PathPrefix:
    head, sep, tail = text.partition("@")
    if not sep:
        raise ValueError(f"bad path text: {text!r}")
    return PathPrefix(d, _parse_letters(head), parse_vertex(tail))


def _sort_key(p: PathPrefix):
    return (len(p.labels), p.labels, p.end or (0, 0, 0))


# ---------------------------------------------------------------------------
# encoding points as paths


def encode(p: TildePoint, depth: int) -> PathPrefix:
    """The depth-``depth`` path of ``p``: its first letters as labels,
    plus the vertex recording zero-ness of the next letter and the next
    visible pair (the first nonzero letter after the labels and its
    follower; doubled points fall back to the formal pair)."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    labels, end = _encoded(p, depth)
    return PathPrefix._unchecked(p.d, labels, end)


def _encoded(p: TildePoint, depth: int) -> tuple[tuple[int, ...], Vertex | None]:
    """The ``(labels, end)`` fields of ``encode(p, depth)``, for a depth
    >= 0, read without a letter buffer.  At or past the prefix, a doubled
    point gives zero labels and the end ``(a, b, 0)``; a periodic point's
    pair is the first nonzero letter of its period rotated by ``(depth -
    len(prefix)) mod L``, then that letter's cyclic successor.  Only a
    prefix longer than the depth is scanned; past its zeros, the pair is
    the tail's."""
    if depth == 0:
        return (), None
    pre, tail = p.prefix, p.tail
    n = len(pre)
    if depth < n:
        for i in range(depth, n):
            if pre[i]:
                return pre[:depth], (pre[i], p.letter(i + 2), 1 if pre[depth] else 0)
        return pre[:depth], _encoded(p, n)[1][:2] + (0,)
    if isinstance(tail, ZeroPair):
        return pre + (0,) * (depth - n), (tail.a, tail.b, 0)
    per, L = tail.word, len(tail.word)
    q, k = divmod(depth - n, L)
    labels = pre + per * q + per[:k] if depth > n else pre
    if per[k]:
        return labels, (per[k], per[(k + 1) % L], 1)
    for j in range(k + 1, k + L):
        if per[j % L]:
            return labels, (per[j % L], per[(j + 1) % L], 0)
    raise AssertionError("periodic tail with no nonzero letter")


def decode(eta: PathPrefix, tail: TildePoint | None = None) -> TildePoint:
    """A point whose depth-n path is ``eta``.

    Without a tail the canonical continuation is used: a *-flagged end
    repeats its visible pair forever, a 0-flagged end becomes the
    doubled point carrying the pair formally.  An explicit ``tail`` is
    grafted after the labels and must be consistent with the end vertex
    (ValueError otherwise).
    """
    d, labels, end = eta.d, eta.labels, eta.end
    if tail is None:
        if end is None:
            return _zero_pair(d, (), 1, 0)
        a, b, flag = end
        if flag:
            return _periodic(d, labels, (a, b))
        return _zero_pair(d, labels, a, b)
    if tail.d != d:
        raise ValueError("degree mismatch")
    if isinstance(tail.tail, ZeroPair):
        q = _zero_pair(d, labels + tail.prefix, tail.tail.a, tail.tail.b)
    else:
        q = _periodic(d, labels + tail.prefix, tail.tail.word)
    if _encoded(q, len(labels)) != (labels, end):
        raise ValueError("tail inconsistent with the end vertex")
    return q


def cylinder_member(eta: PathPrefix, p: TildePoint) -> bool:
    """Membership of ``p`` in the cylinder of ``eta``: the cylinder is
    the set of points whose depth-n path is ``eta``, so ``p`` is a member
    iff ``encode(p, n) == eta``, with n the depth of ``eta``."""
    return p.d == eta.d and _encoded(p, len(eta.labels)) == (eta.labels, eta.end)


# ---------------------------------------------------------------------------
# clopen sets: antichains of path prefixes


@lru_cache(maxsize=_PREFIXES_CACHE_CAP)
def _prefixes(p: PathPrefix) -> tuple[tuple[tuple[int, ...], Vertex | None], ...]:
    """The ``(labels, end)`` keys of the prefixes of ``p``, the top first
    and ``p`` itself last: walk back from the end, one deterministic step
    per label."""
    labels, keys = p.labels, [(p.labels, p.end)]
    for k in range(len(labels) - 1, 0, -1):
        keys.append((labels[:k], source_vertex(p.d, keys[-1][1], labels[k])))
    if labels:
        keys.append(((), None))
    return tuple(reversed(keys))


def _covered_by(p: PathPrefix, keys: set) -> bool:
    """Does some cylinder whose (labels, end) key is listed contain ``p``?

    Containment between path cylinders is prefix containment, so it is
    enough to look each prefix of ``p`` up -- O(depth) hash probes
    instead of a scan of the whole family."""
    return any(k in keys for k in _prefixes(p))


@dataclass(frozen=True)
class ClopenSet:
    """A finite union of cylinders in maximal-antichain normal form.

    Build these with :func:`clopen` (or the set operations); equality of
    normal forms is equality of the sets they denote.
    """

    d: int
    cylinders: tuple[PathPrefix, ...]

    def is_empty(self) -> bool:
        return not self.cylinders

    def member(self, p: TildePoint) -> bool:
        return any(cylinder_member(c, p) for c in self.cylinders)

    def union(self, other: "ClopenSet") -> "ClopenSet":
        self._check(other)
        return clopen(self.d, self.cylinders + other.cylinders)

    def intersect(self, other: "ClopenSet") -> "ClopenSet":
        # two path cylinders meet exactly when one contains the other, so
        # the intersection keeps each side's cylinders covered by the other
        self._check(other)
        keys_self = {(p.labels, p.end) for p in self.cylinders}
        keys_other = {(q.labels, q.end) for q in other.cylinders}
        out = [p for p in self.cylinders if _covered_by(p, keys_other)]
        out += [q for q in other.cylinders if _covered_by(q, keys_self)]
        return clopen(self.d, out)

    def complement(self) -> "ClopenSet":
        d = self.d
        if not self.cylinders:
            return full_space(d)
        if any(c.end is None for c in self.cylinders):
            return empty_set(d)
        members = {(c.labels, c.end) for c in self.cylinders}
        ancestors = {k for c in self.cylinders for k in _prefixes(c)[:-1]}
        out: list[PathPrefix] = []
        stack: list[tuple[tuple, Vertex | None]] = [((), None)]
        while stack:
            labels, end = stack.pop()
            for lab, u in out_edges(d, end):
                key = (labels + (lab,), u)
                if key in members:
                    continue
                if key in ancestors:
                    stack.append(key)
                else:
                    out.append(PathPrefix._unchecked(d, key[0], key[1]))
        return clopen(d, out)

    def is_disjoint(self, other: "ClopenSet") -> bool:
        self._check(other)
        keys_other = {(q.labels, q.end) for q in other.cylinders}
        if any(_covered_by(p, keys_other) for p in self.cylinders):
            return False
        keys_self = {(p.labels, p.end) for p in self.cylinders}
        return not any(_covered_by(q, keys_self) for q in other.cylinders)

    def refine_to_depth(self, depth: int) -> frozenset:
        """The same set written as raw cylinders all at the given depth
        (a frozenset of paths, not a normalized ClopenSet).  Exponential
        in depth; meant for small cross-checks only."""
        out: list[PathPrefix] = []
        stack = list(self.cylinders)
        while stack:
            c = stack.pop()
            if len(c.labels) > depth:
                raise ValueError("set already finer than the target depth")
            if len(c.labels) == depth:
                out.append(c)
            else:
                stack.extend(c.children())
            held = len(out) + len(stack)
            if held > _REFINE_CAP:
                raise ResourceCap(f"refine_to_depth: {held} cylinders exceed _REFINE_CAP = {_REFINE_CAP}")
        return frozenset(out)

    def texts(self) -> list[str]:
        return [c.text() for c in self.cylinders]

    def _check(self, other: "ClopenSet") -> None:
        if self.d != other.d:
            raise ValueError("clopen sets over different degrees")

    def __repr__(self):
        inner = ", ".join(self.texts()) or "empty"
        return f"<clopen {{{inner}}}>"


def clopen(d: int, paths) -> ClopenSet:
    """Normal form: drop covered cylinders, then merge every complete
    family of siblings into its parent until nothing merges.  A path of
    another degree than ``d`` raises ValueError."""
    ps = set(paths)
    for p in ps:
        if p.d != d:
            raise ValueError("degree mismatch")
    keys = {(p.labels, p.end) for p in ps}
    # drop each path that has a proper ancestor present
    ps = {p for p in ps if not any(k in keys for k in _prefixes(p)[:-1])}
    while True:
        groups: dict[tuple, set[PathPrefix]] = {}
        for p in ps:
            if p.end is not None:
                groups.setdefault(_prefixes(p)[-2], set()).add(p)
        merged = False
        for (labels, end), members in groups.items():
            need = set(out_edges(d, end))
            have = {(m.labels[-1], m.end) for m in members}
            if have == need:
                ps -= members
                ps.add(PathPrefix._unchecked(d, labels, end))
                merged = True
        if not merged:
            break
    return ClopenSet(d, tuple(sorted(ps, key=_sort_key)))


def full_space(d: int) -> ClopenSet:
    return ClopenSet(d, (PathPrefix._unchecked(d, (), None),))


def empty_set(d: int) -> ClopenSet:
    return ClopenSet(d, ())


# ---------------------------------------------------------------------------
# images of cylinders under group words


def image_of_cylinder(word: Word, eta: PathPrefix) -> ClopenSet:
    """The exact image of the cylinder of ``eta`` under the word: that of
    the one-cylinder set, by the one descent of :func:`image_of_clopen`."""
    return image_of_clopen(word, ClopenSet(eta.d, (eta,)))


def image_of_clopen(word: Word, C: ClopenSet) -> ClopenSet:
    """The exact image of the clopen set under the word, in normal form.
    The word is checked against the set's degree (ValueError), also for
    the empty set, and reduced once; each cylinder's labels are unrolled
    once, and :func:`_image` descends from the section there."""
    d = C.d
    _degree(word, d)
    word = reduce_word(word)
    out: list[PathPrefix] = []
    for c in C.cylinders:
        # a path's labels are letters of its degree, so the table is read unchecked
        labels, sec = _unroll(word, c.labels)
        _image(sec, labels, c.end, d, 0, out)
    # every vertex, the top too, has two or more out-edges: one path is normal
    return ClopenSet(d, tuple(out)) if len(out) < 2 else clopen(d, out)


def _image(sec: Word, labels: tuple, end: Vertex | None, d: int, depth: int, out: list) -> None:
    """Add to ``out`` the image of the cylinder ending at ``end`` whose
    labels go to ``labels``, where the word's section is ``sec``.  A
    trivial section keeps the end.  One equal to a recursion generator
    moves every member's visible pair alike, so it relabels the end.
    Anything else descends one level, each child taking its image letter
    and section from the table entry of ``sec``; ``depth`` counts the
    levels below the first cylinder up to ``_DEPTH_BOUND``."""
    if is_identity(sec):
        out.append(PathPrefix._unchecked(d, labels, end))
        return
    if end is not None:
        nuc = as_nucleus(sec, d)
        if isinstance(nuc, BGen):
            a, b, flag = end
            out.append(PathPrefix._unchecked(d, labels, (nuc.rho(a), nuc.sigma(a)(b), flag)))
            return
    if depth >= _DEPTH_BOUND:
        raise ResourceCap(f"image_of_cylinder: recursion depth {depth} reaches _DEPTH_BOUND = {_DEPTH_BOUND}")
    images, secs = _wreath(sec)  # a nontrivial section is a nonempty word
    for lab, u in out_edges(d, end):
        _image(secs[lab], labels + (images[lab],), u, d, depth + 1, out)


# ---------------------------------------------------------------------------
# towers and prefix exchanges


def tower(d: int, v: Vertex, n: int) -> tuple[PathPrefix, ...]:
    """All depth-``n`` paths ending at ``v`` — one per label word."""
    if d**n > _TOWER_CAP:
        raise ResourceCap(f"tower: {d ** n} paths exceed _TOWER_CAP = {_TOWER_CAP}")
    if n < 1:
        raise ValueError("levels start at 1")
    if v not in vertices(d):
        raise ValueError(f"bad vertex: {v}")
    return tuple(
        PathPrefix._unchecked(d, labels, v)
        for labels in itertools.product(range(d), repeat=n)
    )


def tau_apply(gamma: PathPrefix, gamma2: PathPrefix, p: TildePoint) -> TildePoint:
    """Exchange the prefix ``gamma`` of ``p`` for ``gamma2``, keeping the
    tail.  Both paths must end at the same vertex and ``p`` must lie in
    the cylinder of ``gamma``."""
    if gamma.d != gamma2.d or gamma.end != gamma2.end:
        raise ValueError("prefix exchange needs a common end vertex")
    if not cylinder_member(gamma, p):
        raise ValueError("point outside the source cylinder")
    return decode(gamma2, _shift(p, len(gamma.labels)))


def path_counts(d: int, n: int) -> dict[Vertex, int]:
    """Paths from the top to each level-``n`` vertex, by dynamic
    programming over the level rule."""
    if n < 1:
        raise ValueError("levels start at 1")
    counts = {v: d for v in vertices(d)}
    for _ in range(n - 1):
        nxt = dict.fromkeys(vertices(d), 0)
        for v, c in counts.items():
            for _lab, u in out_edges(d, v):
                nxt[u] += c
        counts = nxt
    return counts


def transfer_matrix(d: int) -> dict[tuple[Vertex, Vertex], int]:
    """Edge multiplicities (source, target) -> count, for cross-checking
    path counts by matrix products."""
    out: dict[tuple[Vertex, Vertex], int] = {}
    for v in vertices(d):
        for _lab, u in out_edges(d, v):
            out[(v, u)] = out.get((v, u), 0) + 1
    return out


def full_connectivity_steps(d: int) -> int:
    """The least k with a length-k path between every ordered vertex
    pair.  Starred vertices already see everything in two steps; the
    zero-flagged ones only fan out after leaving their zero run, which
    costs one more level."""
    reach = {v: {u for _l, u in out_edges(d, v)} for v in vertices(d)}
    cur = {v: {v} for v in vertices(d)}
    for k in range(1, _CONNECTIVITY_BOUND + 1):
        cur = {v: {w for u in cur[v] for w in reach[u]} for v in cur}
        if all(len(s) == len(vertices(d)) for s in cur.values()):
            return k
    raise ResourceCap(f"full_connectivity_steps: {k} steps reach _CONNECTIVITY_BOUND = {_CONNECTIVITY_BOUND}")


# ---------------------------------------------------------------------------
# pointwise-trivial sections over a vertex

_IOV_CACHE: dict[tuple, bool] = {}


def is_identity_on_vertex(word: Word, v: Vertex | None) -> bool:
    """Does the word act as the identity on every tail compatible with
    ``v`` (formal-pair tails included)?  The tails of the top vertex are
    the whole space, so there the answer is ``is_identity(word)``.  Below,
    ``w|u`` is the section at the letters ``u``: ``w(u t) = w(u) w|u(t)``.

    Star lemma: ``w`` is trivial on the tails ``a b t`` of ``(a, b, 1)``
    iff ``w(a b) = a b`` and ``w|ab`` is trivial, as ``t`` ranges over the
    whole space, doubled points included, and only the identity fixes it.

    Zero lemma: ``w`` is trivial on the tails of ``(a, b, 0)`` iff each
    section ``s`` that ``section_orbit(w, (0,))`` lists, those at ``0^i``
    up to the first repeat, has ``s(0 a b) = 0 a b`` and ``s|0ab``
    trivial.  The tails are ``0^k a b t`` (k >= 1) and ``0^inf[a b]``.  By
    the star lemma, ``w`` is trivial on ``0^k a b t`` iff ``w|0^i`` fixes
    0 for i < k and ``w|0^k`` fixes ``a b`` with ``w|0^k ab`` trivial.
    Over all k that is the test at every ``w|0^i``, and the list holds
    them all.  ``0^inf[a b]`` goes to ``0^inf`` and the image of ``(a, b)``
    under the cycle's section, a ``w|0^k`` (k >= 1) that fixes ``a b``.

    Letters of two degrees, or a vertex their degree lacks, raise ValueError.
    """
    if v is None:
        return is_identity(word)
    d = _degree(word)
    word = reduce_word(word)
    if not word:
        return True
    cached = _IOV_CACHE.get((word, v))
    if cached is not None:
        return cached
    if v not in vertices(d):
        raise ValueError(f"bad vertex: {v}")
    a, b, flag = v
    sections, u = ((word,), (a, b)) if flag else (section_orbit(word, (0,))[1], (0, a, b))
    steps = (_unroll(s, u) for s in sections)  # a vertex's letters are in range
    trivial = all(image == u and is_identity(sec) for image, sec in steps)
    # the cache stops growing at the cap of core's identity cache
    if len(_IOV_CACHE) < _ID_CACHE_CAP:
        _IOV_CACHE[word, v] = trivial
    return trivial


# ---------------------------------------------------------------------------
# audits


def nontrivial_section_words(word: Word, level: int) -> list[tuple]:
    """Label words of the given length at which the word has a
    nontrivial section.  Grown level by level, so the cost tracks the
    number of bad words rather than the full level size.  A trivial word
    has none; a negative level raises ValueError."""
    if level < 0:
        raise ValueError(f"level must be nonnegative, got {level}")
    if is_identity(word):
        return []
    live: dict[tuple, Word] = {(): reduce_word(word)}
    for n in range(1, level + 1):
        nxt: dict[tuple, Word] = {}
        for w, s in live.items():
            for x, t in enumerate(_wreath(s)[1]):  # s is nontrivial, so nonempty
                if t and not is_identity(t):
                    nxt[w + (x,)] = t
                if len(nxt) > _SECTION_WORDS_CAP:
                    raise ResourceCap(
                        f"nontrivial_section_words: {len(nxt)} words exceed "
                        f"_SECTION_WORDS_CAP = {_SECTION_WORDS_CAP}"
                    )
        live = nxt
    return sorted(live)


def bounded_type_audit(gen: Gen, max_level: int) -> dict:
    """Per level and per vertex, how many cylinders of that tower the
    generator fails to act on as a plain prefix exchange; plus the
    doubled points at the all-zero ray whose neighbourhoods never
    settle.  The report records the observed uniform bound and the level
    from which the per-level maximum is constant.  Levels start at 1, so
    ``max_level < 1`` raises ValueError."""
    if max_level < 1:
        raise ValueError(f"max_level must be at least 1, got {max_level}")
    d = gen.d
    word: Word = (gen,)
    levels: dict[int, dict] = {}
    for n in range(1, max_level + 1):
        bad = nontrivial_section_words(word, n)
        per_vertex = dict.fromkeys(vertices(d), 0)
        for w in bad:
            s = section_word(word, w)
            for v in vertices(d):
                if not is_identity_on_vertex(s, v):
                    per_vertex[v] += 1
        levels[n] = {
            "bad_words": ["".join(map(str, w)) for w in bad],
            "per_vertex": {vertex_text(v): c for v, c in per_vertex.items()},
            "max": max(per_vertex.values(), default=0),
        }
    maxima = [levels[n]["max"] for n in range(1, max_level + 1)]
    bound = max(maxima, default=0)
    settle = max_level
    while settle > 1 and levels[settle - 1]["max"] == levels[max_level]["max"]:
        settle -= 1
    # sections along the zero ray, up to their eventual cycle: a doubled
    # point there is exceptional iff no depth ever acts as a plain
    # prefix exchange around it
    _, ray_sections, _ = section_orbit(word, (0,))
    exceptional = []
    for a in range(1, d):
        for b in range(d):
            p = zero_pair_point(d, (), a, b)
            germ = all(
                not is_identity_on_vertex(t, (a, b, 0)) for t in ray_sections
            )
            if germ:
                exceptional.append(
                    {"point": repr(p)[1:-1], "moved": act(word, p) != p}
                )
    return {
        "generator": word_to_json(word)[0],
        "max_level": max_level,
        "levels": levels,
        "uniform_bound": bound,
        "constant_from_level": settle,
        "exceptional_points": exceptional,
    }


def contraction_depth(word: Word) -> int:
    """The first positive level at which every section of the word
    collapses to a single generator (or the identity); identity words
    report 0.  Sections of single generators stay that way, so the
    property is stable once reached.  Level 0 never counts for a
    nontrivial word: the word itself being a generator says nothing
    about a level of the tree having absorbed its action."""
    if is_identity(word):
        return 0
    d = _degree(word)
    live = {reduce_word(word)}
    for n in range(1, _DEPTH_BOUND + 1):
        live = {t for w in live for t in (_wreath(w)[1] if w else ((),))}  # the empty word has empty sections
        if all(as_nucleus(w, d) is not None for w in live):
            return n
    raise ResourceCap(f"contraction_depth: level {n} reaches _DEPTH_BOUND = {_DEPTH_BOUND}")


def regularity_check(word: Word, p: TildePoint) -> dict:
    """For a word fixing ``p``: the first depth whose cylinder around
    ``p`` is fixed pointwise, with the witness path and its section.

    The fixed cylinder is re-verified through the image machinery.  A
    ValueError signals that the word does not fix the point at all.
    """
    d = p.d
    if act(word, p) != p:
        raise ValueError("the word does not fix the point")
    word = reduce_word(word)
    for n in range(_DEPTH_BOUND + 1):
        eta = encode(p, n)
        sec = section_word(word, eta.labels)
        if not is_identity_on_vertex(sec, eta.end):
            continue
        image = image_of_cylinder(word, eta)
        if image != ClopenSet(d, (eta,)):
            raise AssertionError("pointwise-trivial section with a moving image")
        nuc = as_nucleus(sec, d)
        kind = (
            "identity"
            if is_identity(sec)
            else "pair-recursion"
            if isinstance(nuc, BGen)
            else "first-letter"
            if nuc is not None
            else "word"
        )
        return {
            "depth": n,
            "cylinder": eta.text(),
            "section": word_to_json(sec),
            "section_kind": kind,
            "verified": True,
        }
    raise ResourceCap(f"regularity_check: depth {n} reaches _DEPTH_BOUND = {_DEPTH_BOUND}")


# ---------------------------------------------------------------------------
# exhaustive encode/decode audit


def roundtrip_audit(d: int, max_depth: int) -> dict:
    """Check encode(decode(path)) == path for every path of every depth
    up to ``max_depth``; returns the number checked and any failures, in
    enumeration order: the top, then by end vertex, depth and label word.
    A negative depth raises ValueError, as ``encode``'s does.

    Each path goes through the public ``decode``; the encoding side is
    compared field by field (degree, labels, end vertex), so the audit
    builds one path per check, not two."""
    if max_depth < 0:
        raise ValueError("depth must be >= 0")
    total = sum(2 * (d - 1) * d * d**n for n in range(1, max_depth + 1)) + 1
    if total > _AUDIT_CAP:
        raise ResourceCap(f"roundtrip_audit: {total} paths exceed _AUDIT_CAP = {_AUDIT_CAP}")
    checked, failures, unchecked = 1, [], PathPrefix._unchecked
    top = unchecked(d, (), None)
    q = decode(top)
    if q.d != d or _encoded(q, 0) != ((), None):
        failures.append(top.text())
    for v in vertices(d):
        for n in range(1, max_depth + 1):
            for labels in itertools.product(range(d), repeat=n):
                eta = unchecked(d, labels, v)
                q = decode(eta)
                if q.d != d or _encoded(q, n) != (labels, v):
                    failures.append(eta.text())
            checked += d**n
    return {
        "max_depth": max_depth,
        "checked": checked,
        "failures": failures,
        "ok": not failures,
    }
