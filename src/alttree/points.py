"""The point space the group acts on, and its Gray-code projection.

Points are infinite letter sequences over {0..d-1} that either

* contain infinitely many nonzero letters -- stored as an eventually
  periodic sequence ``prefix . (period)^inf`` (exactly the eventually
  periodic ones are representable; that is the sampling corpus), or

* are eventually zero.  Those sequences form a single dense orbit and are
  *doubled*: each carries a formal pair of letters ``(a, b)``, ``a != 0``,
  living at the positions ``omega`` and ``omega + 1`` past all finite
  positions.  Stored as ``prefix . 0^inf [a b]`` with the all-zero tail
  implicit.

The action of a word on a point is computed exactly by streaming letters
through sections and detecting the section-state cycle; on the doubled
points the stable section value (always a single recursion generator or
the identity) acts on the formal pair the same way it would act on a
two-letter word.

The Gray projection forgets everything about a letter except whether it
is zero.  Its image is the set of "Gray words": points over {0, 1} (of
degree 2), with bit 1 (a star) exactly where the letter is nonzero, so a
doubled Gray word's formal pair starts with 1.  ``TildePoint.letter``
reads their bits.  Each Gray word has exactly two line neighbors: flip
the first bit (an ``A`` move), or flip the bit right after the first star
(a ``B`` move).  Positions are 1-based; ``OMEGA``/``OMEGA1`` stand for the
two formal positions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .core import (
    AGen,
    BGen,
    Gen,
    Word,
    _degree,
    as_nucleus,
    apply_word,
    equals,
    is_identity_gen,
    reduce_word,
    section_orbit,
    section_word,
)

__all__ = [
    "OMEGA",
    "OMEGA1",
    "pos_sort_key",
    "Periodic",
    "ZeroPair",
    "TildePoint",
    "periodic_point",
    "zero_pair_point",
    "parse_point",
    "format_point",
    "act",
    "section_at_zero_ray",
    "gray_word",
    "gray_projection",
    "first_star",
    "gray_neighbors",
    "gray_segment",
    "visible_positions",
]


# ---------------------------------------------------------------------------
# positions


@dataclass(frozen=True)
class _InfPos:
    offset: int

    def __repr__(self):
        return "OMEGA" if self.offset == 0 else "OMEGA+1"


OMEGA = _InfPos(0)
OMEGA1 = _InfPos(1)

Position = int | _InfPos


def pos_sort_key(pos: Position):
    if isinstance(pos, _InfPos):
        return (1, pos.offset)
    return (0, pos)


# ---------------------------------------------------------------------------
# points


@dataclass(frozen=True, slots=True)
class Periodic:
    word: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class ZeroPair:
    a: int
    b: int


@dataclass(frozen=True, slots=True)
class TildePoint:
    """A point in canonical form; equality/hashing is structural."""

    d: int
    prefix: tuple[int, ...]
    tail: Periodic | ZeroPair

    def letter(self, pos: Position) -> int:
        """The letter at a finite 1-based position, or a doubled point's
        formal letter at ``OMEGA`` or ``OMEGA1``."""
        if pos is OMEGA or pos is OMEGA1:
            if not isinstance(self.tail, ZeroPair):
                raise ValueError("only doubled points carry a formal pair")
            return self.tail.b if pos is OMEGA1 else self.tail.a
        if pos < 1:
            raise ValueError("positions are 1-based")
        i = pos - 1
        if i < len(self.prefix):
            return self.prefix[i]
        if isinstance(self.tail, ZeroPair):
            return 0
        per = self.tail.word
        return per[(i - len(self.prefix)) % len(per)]

    def letters(self, n: int) -> tuple[int, ...]:
        """The first ``n`` letters."""
        pre = self.prefix
        if n <= len(pre):
            return pre[:n] if n > 0 else ()
        if isinstance(self.tail, ZeroPair):
            return pre + (0,) * (n - len(pre))
        per = self.tail.word
        q, r = divmod(n - len(pre), len(per))
        return pre + per * q + per[:r]

    def pair(self) -> tuple[int, int] | None:
        return (self.tail.a, self.tail.b) if isinstance(self.tail, ZeroPair) else None

    def __repr__(self):
        return f"<{format_point(self)}>"


# Setters of the slot descriptors.  They store a field without the frozen
# ``__setattr__`` and without ``__init__``, so ``_periodic`` and
# ``_zero_pair`` build a point and its tail for about half the cost of
# the dataclass constructors.
_new = object.__new__
_set_word = Periodic.word.__set__
_set_a, _set_b = ZeroPair.a.__set__, ZeroPair.b.__set__
_set_d, _set_prefix, _set_tail = (
    TildePoint.d.__set__,
    TildePoint.prefix.__set__,
    TildePoint.tail.__set__,
)


def _point(d: int, prefix: tuple[int, ...], tail: Periodic | ZeroPair) -> TildePoint:
    p = _new(TildePoint)
    _set_d(p, d)
    _set_prefix(p, prefix)
    _set_tail(p, tail)
    return p


def _primitive(word: tuple[int, ...]) -> tuple[int, ...]:
    n = len(word)
    for L in range(1, n // 2 + 1):
        if n % L == 0 and word == word[:L] * (n // L):
            return word[:L]
    return word


def periodic_point(d: int, prefix, period) -> TildePoint:
    prefix, period = tuple(prefix), tuple(period)
    for x in prefix + period:
        if not 0 <= x < d:
            raise ValueError(f"letter out of range: {x}")
    return _periodic(d, prefix, period)


def _periodic(d: int, prefix: tuple[int, ...], period: tuple[int, ...]) -> TildePoint:
    """The normal form of ``prefix . (period)^inf``, without the letter
    checks of :func:`periodic_point`, built through the slot setters.
    Only for letters valid by construction: ``act``, ``_shift`` and
    ``diagram.decode`` pass letters read from valid points and paths, and
    ``gray_word`` and ``gray_projection`` pass bits."""
    period = _primitive(period)
    if not any(period):
        raise ValueError("period must contain a nonzero letter")
    # pull the period back over the prefix as far as it matches: k
    # letters back, the period is rotated right by k
    n, L = len(prefix), len(period)
    k = 0
    while k < n and prefix[n - 1 - k] == period[L - 1 - k % L]:
        k += 1
    r = L - k % L
    tail = _new(Periodic)
    _set_word(tail, period[r:] + period[:r])
    return _point(d, prefix[: n - k], tail)


def zero_pair_point(d: int, prefix, a: int, b: int) -> TildePoint:
    prefix = tuple(prefix)
    if not 1 <= a < d:
        raise ValueError("the first formal letter must be nonzero")
    if not 0 <= b < d:
        raise ValueError(f"letter out of range: {b}")
    for x in prefix:
        if not 0 <= x < d:
            raise ValueError(f"letter out of range: {x}")
    return _zero_pair(d, prefix, a, b)


def _zero_pair(d: int, prefix: tuple[int, ...], a: int, b: int) -> TildePoint:
    """The normal form of ``prefix . 0^inf [a b]``, without the letter
    checks of :func:`zero_pair_point`, built through the slot setters.
    Only for letters valid by construction, from the same callers as
    :func:`_periodic`."""
    while prefix and prefix[-1] == 0:
        prefix = prefix[:-1]
    tail = _new(ZeroPair)
    _set_a(tail, a)
    _set_b(tail, b)
    return _point(d, prefix, tail)


def _shift(p: TildePoint, n: int) -> TildePoint:
    """The point after the first ``n`` letters of ``p``: the rest of the
    prefix, then the tail, a period rotated to start at letter n + 1."""
    if isinstance(p.tail, ZeroPair):
        return _zero_pair(p.d, p.prefix[n:], p.tail.a, p.tail.b)
    per = p.tail.word
    k = max(0, n - len(p.prefix)) % len(per)
    return _periodic(p.d, p.prefix[n:], per[k:] + per[:k])


def with_letters(p: TildePoint, changes: dict[int, int], pair: tuple[int, int] | None = None) -> TildePoint:
    """Copy of ``p`` with finite letters (and/or the formal pair) replaced."""
    if changes and min(changes) < 1:
        raise ValueError("positions are 1-based")
    m = max([len(p.prefix)] + [pos for pos in changes])
    tail = p.tail
    if isinstance(tail, Periodic):
        # read on to the end of a period, so the tail after the letters is p's
        m += -(m - len(p.prefix)) % len(tail.word)
    buf = list(p.letters(m))
    for pos, val in changes.items():
        buf[pos - 1] = val
    if isinstance(tail, ZeroPair):
        a, b = pair if pair is not None else (tail.a, tail.b)
        return zero_pair_point(p.d, buf, a, b)
    if pair is not None:
        raise ValueError("only doubled points carry a formal pair")
    return periodic_point(p.d, buf, tail.word)


# --- text form: "13(20)" = 1 3 2 0 2 0 ...;  "2[14]" = 2 0 0 ... [1 4];
# a letter past 9 is written in braces: "1{11}(3)" = 1 11 3 3 ...


def _letters_text(xs) -> str:
    """Letters as digits, a letter past 9 in braces, so the text is
    one-to-one at every degree and plain digits up to d = 10."""
    return "".join(str(x) if x < 10 else f"{{{x}}}" for x in xs)


def _parse_letters(text: str) -> tuple[int, ...]:
    xs = tuple(int(big or digit) for big, digit in re.findall(r"\{(\d+)\}|(\d)", text))
    if _letters_text(xs) != text:
        raise ValueError(f"bad letters text: {text!r}")
    return xs


_LETTER = r"(?:\d|\{\d+\})"
_POINT_RE = re.compile(rf"^({_LETTER}*)(?:\(({_LETTER}+)\)|\[({_LETTER}{_LETTER})\])$")


def format_point(p: TildePoint) -> str:
    head = _letters_text(p.prefix)
    if isinstance(p.tail, ZeroPair):
        return f"{head}[{_letters_text((p.tail.a, p.tail.b))}]"
    return f"{head}({_letters_text(p.tail.word)})"


def parse_point(text: str, d: int) -> TildePoint:
    m = _POINT_RE.match(text.strip())
    if not m:
        raise ValueError(f"cannot parse point {text!r}")
    prefix = _parse_letters(m.group(1))
    if m.group(2) is not None:
        return periodic_point(d, prefix, _parse_letters(m.group(2)))
    a, b = _parse_letters(m.group(3))
    return zero_pair_point(d, prefix, a, b)


# ---------------------------------------------------------------------------
# the action


def act(word: Word, p: TildePoint) -> TildePoint:
    """Exact image of a point under a word; a generator of another degree
    than the point's raises ValueError."""
    d = _degree(word, p.d)
    word = reduce_word(word)
    if not word:
        return p
    out = []
    w = word
    for x in p.prefix:
        out.append(apply_word(w, (x,))[0])
        w = section_word(w, (x,))
    if isinstance(p.tail, Periodic):
        ys, _, start = section_orbit(w, p.tail.word)
        return _periodic(d, tuple(out) + tuple(ys[:start]), tuple(ys[start:]))
    # doubled point: stream zeros until the section word repeats
    ys, sections, start = section_orbit(w, (0,))
    if any(y != 0 for y in ys[start:]):
        raise AssertionError("the eventually-zero orbit was not preserved; generator invariants are broken")
    stable = as_nucleus(sections[start], d)
    if stable is None or (isinstance(stable, AGen) and not stable.pi.is_identity() and stable.pi(0) != 0):
        raise AssertionError("section did not stabilize to a recursion element on the zero ray")
    a, b = stable.apply((p.tail.a, p.tail.b))
    return _zero_pair(d, tuple(out) + tuple(ys[:start]), a, b)


def section_at_zero_ray(word: Word, prefix: tuple[int, ...], d: int) -> Gen:
    """The stable section of ``word`` along ``prefix . 0^inf``.

    Always a single recursion generator or the identity; the stabilization
    depth is bounded by the section-state count (``section_orbit`` caps it).
    ``d`` is the degree of the empty word; a word of another degree raises
    ValueError."""
    _degree(word, d)
    word = reduce_word(word)
    _, chain, start = section_orbit(section_word(word, prefix), (0,))
    cycle = chain[start:]
    for other in cycle[1:]:
        if not equals(cycle[0], other):
            raise AssertionError("zero-ray sections cycle through distinct elements")
    g = as_nucleus(cycle[0], d)
    if g is None:
        raise AssertionError("zero-ray section is not a single generator")
    return g


# ---------------------------------------------------------------------------
# Gray words


def gray_word(prefix, period=None, star2=None) -> TildePoint:
    """The Gray word with bit 1 exactly where a letter of ``prefix``, then
    of ``period`` repeated, is nonzero; without a period, the doubled one
    with bits ``prefix``, then zeros, and the formal pair (1, ``star2``)."""
    prefix = tuple([int(bool(x)) for x in prefix])
    if period is None:
        if star2 is None:
            raise ValueError("eventually-zero Gray words need the second formal bit")
        return _zero_pair(2, prefix, 1, int(bool(star2)))
    if star2 is not None:
        raise ValueError("periodic Gray words have no formal bits")
    return _periodic(2, prefix, tuple([int(bool(x)) for x in period]))


def gray_projection(p: TildePoint) -> TildePoint:
    """The Gray word of ``p``: bit 1 where its letter is nonzero."""
    prefix = tuple([int(x != 0) for x in p.prefix])
    if isinstance(p.tail, ZeroPair):
        return _zero_pair(2, prefix, 1, int(p.tail.b != 0))
    return _periodic(2, prefix, tuple([int(x != 0) for x in p.tail.word]))


def first_star(gw: TildePoint) -> Position:
    if gw.d != 2:
        raise ValueError("a Gray word is a point of degree 2")
    if 1 in gw.prefix:
        return gw.prefix.index(1) + 1
    if isinstance(gw.tail, ZeroPair):
        return OMEGA
    return len(gw.prefix) + gw.tail.word.index(1) + 1


def gray_neighbors(gw: TildePoint) -> tuple[TildePoint, TildePoint]:
    """(first-bit flip, after-first-star flip)."""
    a = with_letters(gw, {1: 1 - gw.letter(1)})
    j = first_star(gw)
    if j is OMEGA:
        return a, with_letters(gw, {}, pair=(1, 1 - gw.tail.b))
    return a, with_letters(gw, {j + 1: 1 - gw.letter(j + 1)})


def _line_neighbor(k: int, kind: int) -> int:
    """The index of fiber k's first-bit neighbour (kind 0) or after-the-star
    neighbour (kind 1) on a line that ``gray_segment`` lays out: the edge
    between indices (m, m + 1) is a first-bit edge exactly when m is odd."""
    return k + 1 if (k + kind) % 2 else k - 1


class _Line:
    """The Gray line through ``center``, laid out on demand: ``line[k]`` is
    the word at index k, with ``center`` at index 0 and its first-bit
    neighbour at -1."""

    def __init__(self, center: TildePoint):
        self._words = {0: center}
        self._seen = {center}
        self._ends = [0, 0]  # the lowest and the highest index laid out

    def __getitem__(self, k: int) -> TildePoint:
        words, ends = self._words, self._ends
        while k not in words:
            side = k > 0
            end = ends[side]
            new = ends[side] = end + (1 if side else -1)
            word = gray_neighbors(words[end])[_line_neighbor(end, 0) != new]
            if word in self._seen:
                raise AssertionError("Gray line revisited a word; the line structure is broken")
            self._seen.add(word)
            words[new] = word
        return words[k]


def gray_segment(center: TildePoint, lo: int, hi: int) -> tuple[TildePoint, ...]:
    """Line segment ``lo..hi`` around ``center`` at index 0.

    The first-bit neighbor of the center sits at index -1, and the rest of
    the line follows the parity rule of ``_line_neighbor``."""
    if not lo <= 0 <= hi:
        raise ValueError("the window must contain index 0")
    line = _Line(center)
    return tuple(line[k] for k in range(lo, hi + 1))


def _pair_positions(word: TildePoint) -> tuple[Position, Position]:
    """The positions of a Gray word's visible pair: its first star and the
    position right after it."""
    j = first_star(word)
    return (OMEGA, OMEGA1) if j is OMEGA else (j, j + 1)


def visible_positions(segment) -> tuple[tuple[int, ...], bool]:
    """Finite positions whose bit some segment word exposes (the first bit,
    each word's first star and its follower), plus an at-infinity flag."""
    shown = {1}
    for gw in segment:
        shown.update(_pair_positions(gw))
    has_inf = OMEGA in shown
    shown -= {OMEGA, OMEGA1}
    return tuple(sorted(shown)), has_inf
