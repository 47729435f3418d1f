"""Exact arithmetic for a self-similar group of rooted-tree automorphisms.

The group acts on the d-regular rooted tree, d >= 5.  Vertices are tuples
over the alphabet {0..d-1}; position 1 is the outermost letter.  Two
families of automorphisms generate everything we care about:

* ``A(pi)`` applies an even permutation ``pi`` to the first letter and
  leaves every deeper level alone.

* ``B(rho, sigmas)`` fixes leading zeros, applies ``rho`` to the first
  nonzero letter ``x``, applies ``sigma_x`` to the single letter right
  after it (the slot is indexed by the *original* letter ``x``), and
  leaves the rest alone.  ``rho`` and every ``sigma_i`` are even and
  ``rho`` fixes 0.

``B`` elements are exactly the automorphisms with the self-similar
recursion ``b = (b, sigma_1, ..., sigma_{d-1}) rho``, so the family is
closed under composition, inversion and sectioning; ``A u B`` absorbs
all sections of products (it is the nucleus of the group generated).

Group elements are plain tuples of generators ("words"); the word
``(g1, g2, g3)`` acts as the composition ``g1 o g2 o g3`` (rightmost
acts first).  Everything here is exact: no floats, no approximation.

Every generator carries its degree, so a word's degree is the common
degree of its letters (``_degree`` decides it).  Word functions take a
``d`` only where the empty word needs one (``wreath_decompose``,
``as_nucleus``, ``portrait``), and they reject a word of another degree.
Letters of two degrees in one word, even letters that reduction cancels,
raise ``ValueError("degree mismatch")`` wherever a word's degree is read.
``section_word``, ``apply_word`` and ``section_orbit`` check only the
reduced word's letters, through the wreath table, and raise
``ValueError("letter out of range: x")`` for a vertex letter outside
``0..d-1``.

The wreath table ``_WREATH`` is the only place a word is sectioned.  It is
keyed by reduced, nonempty word and holds the word's wreath recursion
``w = (w|0, ..., w|d-1) pi``: the root images ``pi(0), ..., pi(d-1)`` and
the d reduced first-level sections.  An entry is computed once, checking
the word's degree, and the table stops growing at ``_WREATH_CAP`` entries,
after which a word not in it is recomputed on each call.  Sections at
longer vertices, images of vertices and section orbits take one table step
per letter; ``wreath_decompose``, ``as_nucleus``, portraits and the
identity walk take one per word.

Every word is built from a few generator objects, so each generator
computes its inverse (whose inverse is the generator itself), its tuple of
sections, its root images, its hash, its degree and whether it is the
identity generator once and keeps them.  Generators compare their kept
hashes before their permutations, so the inverse test of ``reduce_word``
mostly stops at one integer comparison.  Products, inverses and
identities of ``Perm`` are permutations by construction and skip the
validation that the public constructor, ``a_gen`` and ``b_gen`` apply.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import islice

__all__ = [
    "Perm",
    "AGen",
    "BGen",
    "Gen",
    "Word",
    "ResourceCap",
    "a_gen",
    "b_gen",
    "identity_gen",
    "is_identity_gen",
    "reduce_word",
    "apply_word",
    "root_perm",
    "section_word",
    "section_orbit",
    "inverse_word",
    "wreath_decompose",
    "is_identity",
    "equals",
    "order_of",
    "as_nucleus",
    "Portrait",
    "portrait",
    "gen_to_json",
    "gen_from_json",
    "word_to_json",
    "word_from_json",
    "Config",
    "default_gens",
    "validate_gens",
    "perm_closure",
]


class ResourceCap(RuntimeError):
    """A configured search/size bound was exceeded."""


# ---------------------------------------------------------------------------
# permutations


@dataclass(frozen=True, slots=True)
class Perm:
    """A permutation of {0..d-1}, stored as the tuple of images."""

    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(len(self.images))):
            raise ValueError(f"not a permutation of 0..{len(self.images) - 1}: {self.images}")

    @classmethod
    def _unchecked(cls, images: tuple[int, ...]) -> "Perm":
        """Wrap images that are a permutation by construction."""
        p = object.__new__(cls)
        object.__setattr__(p, "images", images)
        return p

    @staticmethod
    def identity(d: int) -> "Perm":
        return Perm._unchecked(tuple(range(d)))

    @staticmethod
    def from_cycles(d: int, *cycles: tuple[int, ...]) -> "Perm":
        """Build from disjoint cycles, e.g. ``Perm.from_cycles(5, (0, 1, 2))``."""
        images = list(range(d))
        for cyc in cycles:
            for i, x in enumerate(cyc):
                images[x] = cyc[(i + 1) % len(cyc)]
        return Perm(tuple(images))

    @property
    def d(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x]

    def __mul__(self, other: "Perm") -> "Perm":
        # (p * q)(x) = p(q(x))
        images = self.images
        if len(images) != len(other.images):
            raise ValueError("degree mismatch")
        return Perm._unchecked(tuple([images[y] for y in other.images]))

    def inverse(self) -> "Perm":
        inv = [0] * len(self.images)
        for x, y in enumerate(self.images):
            inv[y] = x
        return Perm._unchecked(tuple(inv))

    def is_identity(self) -> bool:
        return self.images == tuple(range(len(self.images)))

    def is_even(self) -> bool:
        return sum(len(c) - 1 for c in self.cycles()) % 2 == 0

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Nontrivial cycles, each rotated to start at its minimum."""
        seen = [False] * len(self.images)
        out = []
        for x in range(len(self.images)):
            if seen[x] or self.images[x] == x:
                seen[x] = True
                continue
            cyc = []
            y = x
            while not seen[y]:
                seen[y] = True
                cyc.append(y)
                y = self.images[y]
            out.append(tuple(cyc))
        return tuple(out)

    def __repr__(self):
        cyc = self.cycles()
        if not cyc:
            return "e"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cyc)


_CLOSURE_CAP = 500_000  # elements of one permutation closure


def perm_closure(perms: list[Perm]) -> set[Perm]:
    """The subgroup generated by ``perms``, as an explicit set."""
    if not perms:
        return set()
    d = perms[0].d
    gens = [p for p in perms] + [p.inverse() for p in perms]
    seen = {Perm.identity(d)}
    frontier = [Perm.identity(d)]
    while frontier:
        nxt = []
        for q in frontier:
            for g in gens:
                r = g * q
                if r not in seen:
                    seen.add(r)
                    nxt.append(r)
                    if len(seen) > _CLOSURE_CAP:
                        raise ResourceCap(f"perm_closure: {len(seen)} elements exceed _CLOSURE_CAP = {_CLOSURE_CAP}")
        frontier = nxt
    return seen


# ---------------------------------------------------------------------------
# generators


def _link_inverses(g: "Gen", h: "Gen") -> None:
    object.__setattr__(g, "_inv", h)
    object.__setattr__(h, "_inv", g)


@dataclass(frozen=True)
class AGen:
    """First-letter permutation; all sections trivial."""

    pi: Perm
    _inv = None  # the inverse, once computed
    _sections = None  # every section is trivial

    def __post_init__(self):
        images = self.pi.images
        object.__setattr__(self, "_hash", hash((self.pi,)))
        object.__setattr__(self, "_d", len(images))
        object.__setattr__(self, "_images", images)
        object.__setattr__(self, "_trivial", images == tuple(range(len(images))))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if other.__class__ is not AGen:
            return NotImplemented
        return self is other or (self._hash == other._hash and self.pi == other.pi)

    @property
    def d(self) -> int:
        return self._d

    def root(self) -> Perm:
        return self.pi

    def apply(self, w: tuple[int, ...]) -> tuple[int, ...]:
        if not w:
            return w
        return (self.pi(w[0]),) + w[1:]

    def section(self, x: int) -> "Gen":
        return identity_gen(self.d)

    def inverse(self) -> "AGen":
        if self._inv is None:
            _link_inverses(self, AGen(self.pi.inverse()))
        return self._inv

    def is_identity(self) -> bool:
        return self._trivial

    def __repr__(self):
        return f"A{self.pi!r}"


@dataclass(frozen=True)
class BGen:
    """Recursive generator: fix leading zeros, permute the first nonzero
    letter by ``rho``, then the next letter by the slot permutation of the
    original first nonzero letter.  ``sigmas[i - 1]`` is the slot for
    letter ``i`` (slots exist for 1..d-1 only; the 0 slot recurses)."""

    rho: Perm
    sigmas: tuple[Perm, ...]
    _inv = None  # the inverse, once computed
    _trivial = False  # b_gen turns a trivial recursion element into identity_gen

    def __post_init__(self):
        if len(self.sigmas) != self.rho.d - 1:
            raise ValueError("need one slot permutation per nonzero letter")
        object.__setattr__(self, "_hash", hash((self.rho, self.sigmas)))
        object.__setattr__(self, "_d", len(self.rho.images))
        object.__setattr__(self, "_images", self.rho.images)

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if other.__class__ is not BGen:
            return NotImplemented
        return self is other or (
            self._hash == other._hash and self.rho == other.rho and self.sigmas == other.sigmas
        )

    @property
    def d(self) -> int:
        return self._d

    def sigma(self, i: int) -> Perm:
        if not 1 <= i < self.d:
            raise ValueError(f"slot index out of range: {i}")
        return self.sigmas[i - 1]

    def root(self) -> Perm:
        return self.rho

    def apply(self, w: tuple[int, ...]) -> tuple[int, ...]:
        i = 0
        while i < len(w) and w[i] == 0:
            i += 1
        if i == len(w):
            return w
        x = w[i]
        out = list(w)
        out[i] = self.rho(x)
        if i + 1 < len(w):
            out[i + 1] = self.sigma(x)(w[i + 1])
        return tuple(out)

    @cached_property
    def _sections(self) -> tuple["Gen", ...]:
        """The section at each letter: ``(self, A(sigma_1), ..., A(sigma_{d-1}))``,
        built unchecked: ``b_gen`` and ``validate_gens`` check that the slots are even."""
        return (self,) + tuple(AGen(s) for s in self.sigmas)

    def section(self, x: int) -> "Gen":
        if not 0 <= x < self._d:
            raise ValueError(f"slot index out of range: {x}")
        return self._sections[x]

    def inverse(self) -> "BGen":
        if self._inv is None:
            rinv = self.rho.inverse()
            # (b^-1)|_i = (b|_{rho^-1(i)})^-1
            sig = tuple(self.sigma(rinv(i)).inverse() for i in range(1, self.d))
            _link_inverses(self, BGen(rinv, sig))
        return self._inv

    def is_identity(self) -> bool:
        return self.rho.is_identity() and all(s.is_identity() for s in self.sigmas)

    def __repr__(self):
        parts = [f"rho={self.rho!r}"]
        for i in range(1, self.d):
            if not self.sigma(i).is_identity():
                parts.append(f"s{i}={self.sigma(i)!r}")
        return "B[" + "; ".join(parts) + "]"


Gen = AGen | BGen
Word = tuple  # tuple[Gen, ...]


@lru_cache(maxsize=None)  # one entry per degree
def identity_gen(d: int) -> AGen:
    return AGen(Perm.identity(d))


def is_identity_gen(g: Gen) -> bool:
    return g._trivial


def a_gen(pi: Perm) -> AGen:
    """Validated ``A`` generator (identity permitted)."""
    if not pi.is_even():
        raise ValueError(f"first-letter permutation must be even: {pi!r}")
    return AGen(pi)


def b_gen(rho: Perm, sigmas=None) -> Gen:
    """Validated ``B`` generator.  ``sigmas`` maps nonzero letters to slot
    permutations (dict or full tuple); missing slots are identity.  A fully
    trivial element normalizes to the identity generator."""
    d = rho.d
    if rho(0) != 0:
        raise ValueError("the recursion permutation must fix 0")
    if not rho.is_even():
        raise ValueError(f"recursion permutation must be even: {rho!r}")
    if sigmas is None:
        sigmas = {}
    if isinstance(sigmas, dict):
        slots = tuple(sigmas.get(i, Perm.identity(d)) for i in range(1, d))
    else:
        slots = tuple(sigmas)
    for s in slots:
        if s.d != d:
            raise ValueError("slot permutation degree mismatch")
        if not s.is_even():
            raise ValueError(f"slot permutation must be even: {s!r}")
    g = BGen(rho, slots)
    if g.is_identity():
        return identity_gen(d)
    return g


# ---------------------------------------------------------------------------
# words


def _degree(word: Word, d: int | None = None) -> int | None:
    """The common degree of the word's letters, or ``d`` for the empty word.

    Two letters of different degrees, or a letter whose degree is not the
    given ``d``, raise ``ValueError("degree mismatch")``."""
    for g in word:
        if d is None:
            d = g._d
        elif g._d != d:
            raise ValueError("degree mismatch")
    return d


def reduce_word(word: Word) -> Word:
    """Drop identity letters and cancel adjacent inverse pairs."""
    out: list[Gen] = []
    for g in word:
        if g._trivial:
            continue
        if out:
            last, inv = out[-1], g._inv or g.inverse()
            # hashes first: a letter is seldom its neighbour's inverse
            if last is inv or (last._hash == inv._hash and last == inv):
                out.pop()
                continue
        out.append(g)
    return tuple(out)


_WREATH: dict[Word, tuple[tuple[int, ...], tuple[Word, ...]]] = {}
_WREATH_CAP = 1 << 16  # words the wreath table holds


def _wreath(word: Word) -> tuple[tuple[int, ...], tuple[Word, ...]]:
    """The wreath recursion ``word = (word|0, ..., word|d-1) pi`` of a
    reduced, nonempty word: the images ``pi(0), ..., pi(d-1)`` and the
    reduced sections, from the table or computed once by ``_new_wreath``."""
    entry = _WREATH.get(word)
    return entry if entry is not None else _new_wreath(word)


def _new_wreath(word: Word) -> tuple[tuple[int, ...], tuple[Word, ...]]:
    """``_wreath(word)`` computed, checking the degree, and kept below ``_WREATH_CAP``."""
    d = _degree(word)
    steps = [(g._images, g._sections) for g in reversed(word)]
    images, secs = [], []
    for x in range(d):
        out: list[Gen] = []
        for root, sections in steps:  # x is the letter the next step reads
            if sections is not None:
                out.append(sections[x])
            x = root[x]
        images.append(x)
        out.reverse()
        secs.append(reduce_word(out))
    entry = (tuple(images), tuple(secs))
    if len(_WREATH) < _WREATH_CAP:
        _WREATH[word] = entry
    return entry


def _unroll(word: Word, v: tuple[int, ...]) -> tuple[tuple[int, ...], Word]:
    """``(word(v), word|v)`` for a reduced word, one table step per letter
    of ``v``; the letters are not checked."""
    out = []
    for i, x in enumerate(v):
        if not word:
            return tuple(out) + tuple(v[i:]), word
        images, secs = _wreath(word)
        out.append(images[x])
        word = secs[x]
    return tuple(out), word


def _checked(word: Word, v: tuple[int, ...]) -> Word:
    """The reduced word, after checking its degree and the letters of ``v``."""
    word = reduce_word(word)
    if word:
        d = len(_wreath(word)[0])
        for x in v:
            if not 0 <= x < d:
                raise ValueError(f"letter out of range: {x}")
    return word


def apply_word(word: Word, w: tuple[int, ...]) -> tuple[int, ...]:
    """Image of the vertex ``w`` (a letter tuple) under the word.

    A letter outside ``0..d-1`` raises ValueError, and so do letters of two
    degrees in the reduced word."""
    return _unroll(_checked(word, w), w)[0]


def _root_images(word: Word) -> tuple[int, ...]:
    """The root images of a nonempty word of one degree, composed letter by
    letter without reading the table."""
    steps = [g._images for g in reversed(word)]
    images = []
    for x in range(len(steps[0])):
        for root in steps:
            x = root[x]
        images.append(x)
    return tuple(images)


def root_perm(word: Word) -> Perm:
    if not word:
        raise ValueError("cannot take the root permutation of the empty word with no degree")
    _degree(word)
    return Perm._unchecked(_root_images(word))


def section_word(word: Word, v: tuple[int, ...]) -> Word:
    """The section of the word at the vertex ``v``: the reduced word
    satisfying ``word(v . w) = word(v) . section(w)`` for all tails ``w``.

    The word is reduced and then sectioned one letter at a time through the
    wreath table.  Free reduction is confluent and commutes with sectioning,
    so this is the reduced product of the generators' own sections.  A
    letter outside ``0..d-1`` raises ValueError, and so do letters of two
    degrees in the reduced word."""
    return _unroll(_checked(word, v), v)[1]


_ORBIT_CAP = 10_000  # steps of one section orbit


def _orbit(word: Word, period: tuple[int, ...]) -> tuple[list[int], list[Word], int]:
    """``section_orbit`` of a reduced word; the letters are not checked."""
    seen: dict[tuple[Word, int], int] = {}
    ys: list[int] = []
    sections: list[Word] = []
    w, phase = word, 0
    while (w, phase) not in seen:
        seen[w, phase] = len(ys)
        x = period[phase]
        sections.append(w)
        if w:
            images, secs = _wreath(w)
            ys.append(images[x])
            w = secs[x]
        else:
            ys.append(x)
        if len(ys) > _ORBIT_CAP:
            raise ResourceCap(f"section_orbit: {len(ys)} steps exceed _ORBIT_CAP = {_ORBIT_CAP}")
        phase = (phase + 1) % len(period)
    return ys, sections, seen[w, phase]


def section_orbit(word: Word, period: tuple[int, ...]) -> tuple[list[int], list[Word], int]:
    """Walk the sections of ``word`` along the ray ``period . period ...``
    until a (section, phase) pair repeats.

    Returns ``(ys, sections, start)``: step i reads the letter
    ``period[i % len(period)]`` with the section ``sections[i]`` and writes
    ``ys[i]``, and step ``start`` is where the cycle begins, so the image of
    the ray is ``ys[:start]`` followed by ``ys[start:]`` repeated.  The
    sections are reduced words, the first being the reduced ``word``.  More
    than ``_ORBIT_CAP`` steps raise ``ResourceCap``; a letter outside
    ``0..d-1``, or letters of two degrees in the reduced word, raise
    ValueError."""
    return _orbit(_checked(word, period), period)


def inverse_word(word: Word) -> Word:
    return tuple(g.inverse() for g in reversed(word))


def wreath_decompose(word: Word, d: int) -> tuple[tuple[Word, ...], Perm]:
    """The first-level decomposition ``(sections 0..d-1, root permutation)``,
    read from the wreath table; the sections are reduced words.

    ``d`` is the degree of the empty word; a word of another degree raises
    ValueError."""
    _degree(word, d)
    word = reduce_word(word)
    if not word:
        return tuple(() for _ in range(d)), Perm.identity(d)
    images, secs = _wreath(word)
    return secs, Perm._unchecked(images)


_IDENTITY_CACHE: dict[Word, bool] = {}
_ID_CACHE_CAP = 1_000_000


def is_identity(word: Word) -> bool:
    """Exact triviality test.

    A tree automorphism given by a word is trivial iff every section
    reachable from it (including itself) has a trivial root permutation.
    Sections never lengthen a word and their letters stay inside a fixed
    finite set, so the walk below visits finitely many words.  The empty
    word is trivial; letters of two degrees raise ValueError, on every
    call and before the word is reduced.
    """
    d = _degree(word)
    word = reduce_word(word)
    if not word:
        return True
    cached = _IDENTITY_CACHE.get(word)
    if cached is not None:
        return cached
    trivial = tuple(range(d))
    # a word joins ``visited`` when found: one probe per walked word
    visited = {word}
    stack = [word]
    while stack:
        w = stack.pop()
        entry = _WREATH.get(w)
        # the root first: a word that moves a first letter needs no sections
        if (entry[0] if entry is not None else _root_images(w)) != trivial:
            if len(_IDENTITY_CACHE) < _ID_CACHE_CAP:
                _IDENTITY_CACHE[word] = False
            return False
        for sw in (entry or _new_wreath(w))[1]:
            if sw:
                n = len(visited)
                visited.add(sw)
                if len(visited) > n and _IDENTITY_CACHE.get(sw) is not True:
                    stack.append(sw)
        if len(visited) > _ID_CACHE_CAP:
            raise ResourceCap(f"is_identity: {len(visited)} words exceed _ID_CACHE_CAP = {_ID_CACHE_CAP}")
    # every reachable section acts trivially at its root; the cache stops
    # growing at its cap, and a whole set is stored by its kept hashes
    room = max(_ID_CACHE_CAP - len(_IDENTITY_CACHE), 0)
    _IDENTITY_CACHE.update(dict.fromkeys(visited if len(visited) <= room else islice(visited, room), True))
    return True


def equals(u: Word, v: Word) -> bool:
    """Whether two words act alike; letters of two degrees raise ValueError."""
    return is_identity(tuple(u) + inverse_word(v))


_ORDER_BOUND = 360  # powers order_of tries


def order_of(word: Word) -> int:
    """The order of the word as an automorphism; ResourceCap above ``_ORDER_BOUND``."""
    _degree(word)
    power: Word = ()
    for n in range(1, _ORDER_BOUND + 1):
        power = reduce_word(power + word)
        if is_identity(power):
            return n
    raise ResourceCap(f"order_of: {n} powers reach _ORDER_BOUND = {_ORDER_BOUND}")


def as_nucleus(word: Word, d: int) -> Gen | None:
    """The single ``A``/``B`` generator this word equals, if any.

    Returns the identity generator for trivial words, an ``AGen`` or
    ``BGen`` when the word collapses to one, and None otherwise.  ``d`` is
    the degree of the empty word; a word of another degree raises
    ValueError.
    """
    _degree(word, d)
    word = reduce_word(word)
    if not word:
        return identity_gen(d)
    if len(word) == 1:
        return word[0]
    images, secs = _wreath(word)
    root = Perm._unchecked(images)
    if all(is_identity(s) for s in secs):
        return AGen(root)  # a product of even permutations is even
    if root(0) != 0:
        return None
    # each slot section must be a pure first-letter permutation; a
    # section's root is even, as every letter's is, so nothing is re-checked
    slots = tuple(Perm._unchecked(_root_images(s)) if s else Perm.identity(d) for s in secs[1:])
    if not all(equals(s, (AGen(tau),)) for s, tau in zip(secs[1:], slots)):
        return None
    cand = BGen(root, slots)
    if cand.is_identity():
        cand = identity_gen(d)  # as b_gen normalizes a trivial element
    return cand if equals(word, (cand,)) else None


# ---------------------------------------------------------------------------
# portraits


@dataclass(frozen=True)
class Portrait:
    """Finite-depth unrolling of an automorphism: root permutation plus the
    portraits of all first-level sections (children are None at the cut)."""

    root: Perm
    children: tuple["Portrait", ...] | None


_PORTRAIT_BOUND = 64  # levels one portrait unrolls


def portrait(word: Word, depth: int, d: int | None = None) -> Portrait:
    """The portrait of the word down to ``depth`` levels.

    ``d`` is needed only for the empty word; a word of another degree
    raises ValueError, and so does a negative depth."""
    if depth < 0:
        raise ValueError(f"depth must be nonnegative, got {depth}")
    if depth > _PORTRAIT_BOUND:
        raise ResourceCap(f"portrait: depth {depth} exceeds _PORTRAIT_BOUND = {_PORTRAIT_BOUND}")
    d = _degree(word, d)
    word = reduce_word(word)
    if d is None:
        raise ValueError("portrait of the empty word needs an explicit degree")
    if depth == 0:
        return Portrait(Perm._unchecked(_root_images(word)) if word else Perm.identity(d), None)
    images, secs = _wreath(word) if word else (tuple(range(d)), ((),) * d)
    return Portrait(Perm._unchecked(images), tuple(portrait(s, depth - 1, d) for s in secs))


# ---------------------------------------------------------------------------
# serialization


def gen_to_json(g: Gen) -> dict:
    if isinstance(g, AGen):
        return {"type": "a", "pi": list(g.pi.images)}
    return {
        "type": "b",
        "rho": list(g.rho.images),
        "sigmas": [list(s.images) for s in g.sigmas],
    }


def gen_from_json(obj: dict) -> Gen:
    if obj["type"] == "a":
        return a_gen(Perm(tuple(obj["pi"])))
    if obj["type"] == "b":
        rho = Perm(tuple(obj["rho"]))
        return b_gen(rho, tuple(Perm(tuple(s)) for s in obj["sigmas"]))
    raise ValueError(f"unknown generator type {obj.get('type')!r}")


def word_to_json(word: Word) -> list:
    return [gen_to_json(g) for g in word]


def word_from_json(items: list) -> Word:
    return tuple(gen_from_json(o) for o in items)


# ---------------------------------------------------------------------------
# generating sets and configuration


def default_gens(d: int = 5) -> tuple[tuple[str, Gen], ...]:
    """The stock named generating set for degree ``d``.

    * ``a*``: first-letter 3-cycles whose root permutations generate the
      full even group on letters, with overlapping supports so their fixed
      sets tell any two letters apart;
    * ``r*``: recursion generators with trivial slots, jointly transitive
      on nonzero letters;
    * ``c*``: one slot generator per nonzero letter, cycling the follower
      letter through all values;
    * ``b*``: slot-1 generators moving the follower by overlapping
      3-cycles, so which of them fix a point distinguishes every follower
      value (the loop-label separation recipe needs this).
    """
    if d < 5:
        raise ValueError("degree must be at least 5")
    gens: list[tuple[str, Gen]] = []
    if d == 5:
        gens.append(("a1", a_gen(Perm.from_cycles(d, (0, 1, 2)))))
        gens.append(("a2", a_gen(Perm.from_cycles(d, (2, 3, 4)))))
        gens.append(("a3", a_gen(Perm.from_cycles(d, (1, 2, 3)))))
    else:
        for i in range(d - 2):
            gens.append((f"a{i + 1}", a_gen(Perm.from_cycles(d, (i, i + 1, i + 2)))))
    if d % 2 == 0:
        # a full cycle on 1..d-1 has odd length, hence is even
        gens.append(("r1", b_gen(Perm.from_cycles(d, tuple(range(1, d))))))
    else:
        gens.append(("r1", b_gen(Perm.from_cycles(d, tuple(range(1, d - 1))))))
        gens.append(("r2", b_gen(Perm.from_cycles(d, tuple(range(2, d))))))
    for i in range(1, d):
        if d % 2 == 1:
            slot = {i: Perm.from_cycles(d, tuple(range(d)))}
            gens.append((f"c{i}", b_gen(Perm.identity(d), slot)))
        else:
            gens.append((f"c{i}", b_gen(Perm.identity(d), {i: Perm.from_cycles(d, tuple(range(d - 1)))})))
            gens.append((f"c{i}x", b_gen(Perm.identity(d), {i: Perm.from_cycles(d, tuple(range(1, d)))})))
    for i in range(d - 2):
        gens.append((f"b{i + 1}", b_gen(Perm.identity(d), {1: Perm.from_cycles(d, (i, i + 1, i + 2))})))
    return tuple(gens)


def _connected(nodes: set, edges: list[tuple]) -> bool:
    if not nodes:
        return True
    adj: dict = {n: set() for n in nodes}
    for u, v in edges:
        if u in adj and v in adj:
            adj[u].add(v)
            adj[v].add(u)
    seen = set()
    stack = [next(iter(nodes))]
    while stack:
        n = stack.pop()
        if n in seen:
            continue
        seen.add(n)
        stack.extend(adj[n] - seen)
    return seen == nodes


def _is_primitive(perms: list[Perm], d: int) -> bool:
    """Whether the group generated by ``perms`` acts primitively on 0..d-1.

    A transitive group is primitive iff, for every ``b != 0``, the finest
    invariant partition joining 0 and ``b`` is the whole set.  That
    partition is a union-find closure: merge 0 and ``b``, then for every
    merged pair ``(x, y)`` and every generator ``p`` merge ``p(x)`` and
    ``p(y)`` (Atkinson's algorithm).
    """
    orbit = {0}
    stack = [0]
    while stack:
        x = stack.pop()
        for p in perms:
            y = p(x)
            if y not in orbit:
                orbit.add(y)
                stack.append(y)
    if len(orbit) != d:
        return False

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for b in range(1, d):
        parent = list(range(d))
        parent[b] = 0
        classes = d - 1
        pairs = [(0, b)]
        while pairs and classes > 1:
            x, y = pairs.pop()
            for p in perms:
                u, v = find(p(x)), find(p(y))
                if u != v:
                    parent[u] = v
                    classes -= 1
                    pairs.append((u, v))
        if classes > 1:
            return False
    return True


def _generates_alternating(perms: list[Perm], d: int) -> bool:
    """Whether even permutations ``perms`` of 0..d-1 generate all of A_d.

    The alternating group is primitive, so an intransitive or imprimitive
    set fails at once.  A primitive group that contains a 3-cycle contains
    A_d (Jordan's theorem), so a primitive set with a 3-cycle among its
    members succeeds.  Any other set falls back to listing the closure.
    """
    if not _is_primitive(perms, d):
        return False
    if any([len(c) for c in p.cycles()] == [3] for p in perms):
        return True
    import math

    return len(perm_closure(perms)) == math.factorial(d) // 2


def validate_gens(gens: tuple[tuple[str, Gen], ...], d: int) -> None:
    """Reject generating sets that the graph machinery cannot rely on.

    Checks: degrees and parities; first-letter permutations generate the
    full even group, which is transitive, so their moves connect all
    letters; their nonzero-to-nonzero restriction connects the nonzero
    letters; the
    visible-pair moves (u,v) -> (rho(u), sigma_u(v)) connect the whole
    pair state space.
    """
    if len({name for name, _ in gens}) != len(gens):
        raise ValueError("duplicate generator names")
    a_roots = []
    for name, g in gens:
        if g.d != d:
            raise ValueError(f"generator {name} has degree {g.d}, expected {d}")
        if is_identity_gen(g):
            raise ValueError(f"generator {name} is the identity")
        if isinstance(g, AGen):
            if not g.pi.is_even():
                raise ValueError(f"first-letter permutation of {name} must be even")
            a_roots.append(g.pi)
        elif not all(p.is_even() for p in (g.rho, *g.sigmas)):
            raise ValueError(f"recursion and slot permutations of {name} must be even")
    if not a_roots:
        raise ValueError("need at least one first-letter generator")
    if not _generates_alternating(a_roots, d):
        raise ValueError("first-letter permutations must generate the full even group")
    nonzero_edges = []
    for _, g in gens:
        if isinstance(g, AGen):
            for x in range(d):
                y = g.pi(x)
                if x != 0 and y != 0:
                    nonzero_edges.append((x, y))
    if not _connected(set(range(1, d)), nonzero_edges):
        raise ValueError("first-letter moves do not connect the nonzero letters among themselves")
    pair_nodes = {(u, v) for u in range(1, d) for v in range(d)}
    pair_edges = []
    for _, g in gens:
        if isinstance(g, BGen):
            for u in range(1, d):
                for v in range(d):
                    pair_edges.append(((u, v), (g.rho(u), g.sigma(u)(v))))
    if not _connected(pair_nodes, pair_edges):
        raise ValueError("recursion generators do not connect the visible-pair states")


@dataclass(frozen=True)
class Config:
    """Degree, named generators, and the seed ``corpus.rng_for`` samples from."""

    d: int = 5
    gens: tuple[tuple[str, Gen], ...] = ()
    seed: int = 0

    @staticmethod
    def default(d: int = 5, seed: int = 0) -> "Config":
        gens = default_gens(d)
        validate_gens(gens, d)
        return Config(d=d, gens=gens, seed=seed)

    def gen(self, name: str) -> Gen:
        for n, g in self.gens:
            if n == name:
                return g
        raise KeyError(name)

    def symmetric_gens(self) -> tuple[tuple[str, Word], ...]:
        """Generators and their inverses as named one-letter words."""
        out: list[tuple[str, Word]] = []
        for name, g in self.gens:
            out.append((name, (g,)))
            out.append((name + "-", (g.inverse(),)))
        return tuple(out)

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "gens": [[name, gen_to_json(g)] for name, g in self.gens],
            "seed": self.seed,
        }

    def config_hash(self) -> str:
        import hashlib

        blob = json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]
