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

Every word is built from a few generator objects, so each generator
computes its inverse (whose inverse is the generator itself), its tuple of
sections and its hash once and keeps them.  Products, inverses and
identities of ``Perm`` are permutations by construction and skip the
validation that the public constructor, ``a_gen`` and ``b_gen`` apply.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

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
                        raise ResourceCap(f"permutation closure exceeded {_CLOSURE_CAP} elements")
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

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.pi,)))

    def __hash__(self):
        return self._hash

    @property
    def d(self) -> int:
        return self.pi.d

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
        return self.pi.is_identity()

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
    _sections = None  # (self, a_gen(sigma_1), ..., a_gen(sigma_{d-1})), once computed

    def __post_init__(self):
        if len(self.sigmas) != self.rho.d - 1:
            raise ValueError("need one slot permutation per nonzero letter")
        object.__setattr__(self, "_hash", hash((self.rho, self.sigmas)))

    def __hash__(self):
        return self._hash

    @property
    def d(self) -> int:
        return self.rho.d

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

    def section(self, x: int) -> "Gen":
        secs = self._sections
        if secs is None:
            secs = (self,) + tuple(a_gen(s) for s in self.sigmas)
            object.__setattr__(self, "_sections", secs)
        if not 0 <= x < len(secs):
            raise ValueError(f"slot index out of range: {x}")
        return secs[x]

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


@lru_cache(maxsize=None)
def identity_gen(d: int) -> AGen:
    return AGen(Perm.identity(d))


def is_identity_gen(g: Gen) -> bool:
    return isinstance(g, AGen) and g.pi.is_identity()


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


def reduce_word(word: Word) -> Word:
    """Drop identity letters and cancel adjacent inverse pairs."""
    out: list[Gen] = []
    for g in word:
        if is_identity_gen(g):
            continue
        if out and out[-1] == g.inverse():
            out.pop()
        else:
            out.append(g)
    return tuple(out)


def apply_word(word: Word, w: tuple[int, ...]) -> tuple[int, ...]:
    """Image of the vertex ``w`` (a letter tuple) under the word."""
    for g in reversed(word):
        w = g.apply(w)
    return w


def root_perm(word: Word) -> Perm:
    d = word[0].d if word else None
    if d is None:
        raise ValueError("cannot take the root permutation of the empty word with no degree")
    p = Perm.identity(d)
    for g in word:
        p = p * g.root()
    return p


def _gen_section_at(g: Gen, v: tuple[int, ...]) -> Gen:
    for x in v:
        g = g.section(x)
    return g


def section_word(word: Word, v: tuple[int, ...]) -> Word:
    """The section of the word at the vertex ``v``: the word satisfying
    ``word(v . w) = word(v) . section(w)`` for all tails ``w``."""
    out: list[Gen] = []
    for g in reversed(word):
        out.append(_gen_section_at(g, v))
        v = g.apply(v)
    out.reverse()
    return reduce_word(tuple(out))


_ORBIT_CAP = 10_000  # steps of one section orbit


def section_orbit(word: Word, period: tuple[int, ...]) -> tuple[list[int], list[Word], int]:
    """Walk the sections of ``word`` along the ray ``period . period ...``
    until a (section, phase) pair repeats.

    Returns ``(ys, sections, start)``: step i reads the letter
    ``period[i % len(period)]`` with the section ``sections[i]`` and writes
    ``ys[i]``, and step ``start`` is where the cycle begins, so the image of
    the ray is ``ys[:start]`` followed by ``ys[start:]`` repeated.  More than ``_ORBIT_CAP`` steps raise
    ``ResourceCap``."""
    seen: dict[tuple[Word, int], int] = {}
    ys: list[int] = []
    sections: list[Word] = []
    w, phase = word, 0
    while (w, phase) not in seen:
        seen[w, phase] = len(ys)
        x = period[phase]
        ys.append(apply_word(w, (x,))[0])
        sections.append(w)
        if len(ys) > _ORBIT_CAP:
            raise ResourceCap(f"sections along a ray did not cycle within {_ORBIT_CAP} steps")
        w = section_word(w, (x,))
        phase = (phase + 1) % len(period)
    return ys, sections, seen[w, phase]


def inverse_word(word: Word) -> Word:
    return tuple(g.inverse() for g in reversed(word))


def wreath_decompose(word: Word, d: int) -> tuple[tuple[Word, ...], Perm]:
    """The first-level decomposition ``(sections 0..d-1, root permutation)``."""
    word = reduce_word(word)
    if not word:
        return tuple(() for _ in range(d)), Perm.identity(d)
    secs = tuple(section_word(word, (x,)) for x in range(d))
    return secs, root_perm(word)


_IDENTITY_CACHE: dict[Word, bool] = {}
_ID_CACHE_CAP = 1_000_000


def is_identity(word: Word, d: int | None = None) -> bool:
    """Exact triviality test.

    A tree automorphism given by a word is trivial iff every section
    reachable from it (including itself) has a trivial root permutation.
    Sections never lengthen a word and their letters stay inside a fixed
    finite set, so the walk below visits finitely many words.
    """
    word = reduce_word(word)
    if not word:
        return True
    if d is None:
        d = word[0].d
    cached = _IDENTITY_CACHE.get(word)
    if cached is not None:
        return cached
    visited: set[Word] = set()
    stack = [word]
    while stack:
        w = stack.pop()
        if w in visited or not w:
            continue
        if _IDENTITY_CACHE.get(w) is True:
            continue
        if not root_perm(w).is_identity():
            _IDENTITY_CACHE[word] = False
            return False
        visited.add(w)
        if len(visited) > _ID_CACHE_CAP:
            raise ResourceCap("identity check visited too many section words")
        for x in range(d):
            sw = section_word(w, (x,))
            if sw and sw not in visited:
                stack.append(sw)
    # every reachable section acts trivially at its root
    if len(_IDENTITY_CACHE) < _ID_CACHE_CAP:
        for w in visited:
            _IDENTITY_CACHE[w] = True
    return True


def equals(u: Word, v: Word, d: int | None = None) -> bool:
    return is_identity(reduce_word(tuple(u) + inverse_word(v)), d)


_ORDER_BOUND = 360  # powers order_of tries


def order_of(word: Word) -> int:
    """The order of the word as an automorphism; ResourceCap above ``_ORDER_BOUND``."""
    word = reduce_word(word)
    power: Word = ()
    for n in range(1, _ORDER_BOUND + 1):
        power = reduce_word(power + word)
        if is_identity(power):
            return n
    raise ResourceCap(f"order exceeds {_ORDER_BOUND}")


def as_nucleus(word: Word, d: int) -> Gen | None:
    """The single ``A``/``B`` generator this word equals, if any.

    Returns the identity generator for trivial words, an ``AGen`` or
    ``BGen`` when the word collapses to one, and None otherwise.
    """
    word = reduce_word(word)
    if not word:
        return identity_gen(d)
    if len(word) == 1:
        return word[0]
    root = root_perm(word)
    secs = [section_word(word, (x,)) for x in range(d)]
    if all(is_identity(s, d) for s in secs):
        return a_gen(root)
    if root(0) != 0:
        return None
    slots = {}
    for i in range(1, d):
        s = secs[i]
        tau = root_perm(s) if s else Perm.identity(d)
        # the slot section must be a pure first-letter permutation
        if not equals(s, (a_gen(tau),) if not tau.is_identity() else (), d):
            return None
        slots[i] = tau
    cand = b_gen(root, slots)
    if equals(word, (cand,) if not is_identity_gen(cand) else (), d):
        return cand
    return None


# ---------------------------------------------------------------------------
# portraits


@dataclass(frozen=True)
class Portrait:
    """Finite-depth unrolling of an automorphism: root permutation plus the
    portraits of all first-level sections (children are None at the cut)."""

    root: Perm
    children: tuple["Portrait", ...] | None


def portrait(word: Word, depth: int, d: int | None = None) -> Portrait:
    if depth > 64:
        raise ResourceCap("portrait depth capped at 64")
    word = reduce_word(word)
    if d is None:
        d = word[0].d if word else None
        if d is None:
            raise ValueError("portrait of the empty word needs an explicit degree")
    root = root_perm(word) if word else Perm.identity(d)
    if depth == 0:
        return Portrait(root, None)
    kids = tuple(portrait(section_word(word, (x,)), depth - 1, d) for x in range(d))
    return Portrait(root, kids)


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
