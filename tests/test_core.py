import itertools
import math
import random
import time

import pytest

from alttree.core import (
    AGen,
    BGen,
    Config,
    Perm,
    a_gen,
    apply_word,
    as_nucleus,
    b_gen,
    default_gens,
    equals,
    gen_from_json,
    gen_to_json,
    identity_gen,
    inverse_word,
    is_identity,
    is_identity_gen,
    order_of,
    perm_closure,
    portrait,
    reduce_word,
    root_perm,
    section_word,
    validate_gens,
    word_from_json,
    word_to_json,
    wreath_decompose,
)

D = 5
CFG = Config.default()
GENS = dict(CFG.gens)
ALL_GENS = [g for _, g in CFG.gens] + [g.inverse() for _, g in CFG.gens]


def rand_word(rng, max_len=6):
    return tuple(rng.choice(ALL_GENS) for _ in range(rng.randrange(max_len + 1)))


def first_moved_vertex(word, d=D, max_depth=40):
    """Shortest vertex the word moves, found by breadth-first sectioning.
    Independent witness generator for nontriviality."""
    from collections import deque

    q = deque([((), reduce_word(word))])
    seen = {reduce_word(word)}
    while q:
        path, w = q.popleft()
        if not w:
            continue
        r = root_perm(w)
        if not r.is_identity():
            x = next(i for i in range(d) if r(i) != i)
            return path + (x,)
        if len(path) >= max_depth:
            continue
        for x in range(d):
            sw = section_word(w, (x,))
            if sw and sw not in seen:
                seen.add(sw)
                q.append((path + (x,), sw))
    return None


# ---------------------------------------------------------------------------
# permutations


def test_perm_basics():
    p = Perm.from_cycles(5, (0, 1, 2))
    assert p(0) == 1 and p(1) == 2 and p(2) == 0 and p(3) == 3
    assert p.is_even()
    assert not Perm.from_cycles(5, (0, 1)).is_even()
    assert (p * p.inverse()).is_identity()
    q = Perm.from_cycles(5, (2, 3, 4))
    # (p*q)(x) = p(q(x))
    assert (p * q)(2) == p(3)
    assert repr(p) == "(0 1 2)"


def test_perm_product_of_two_degrees_raises():
    with pytest.raises(ValueError, match="^degree mismatch$"):
        Perm.from_cycles(6, (3, 4, 5)) * Perm.from_cycles(5, (0, 1, 2))
    with pytest.raises(ValueError, match="^degree mismatch$"):
        Perm.from_cycles(5, (0, 1, 2)) * Perm.from_cycles(6, (3, 4, 5))


def test_perm_closure_alt5():
    import math

    cl = perm_closure([Perm.from_cycles(5, (0, 1, 2)), Perm.from_cycles(5, (2, 3, 4))])
    assert len(cl) == math.factorial(5) // 2
    assert all(p.is_even() for p in cl)


def test_perm_rejects_non_bijection():
    with pytest.raises(ValueError):
        Perm((0, 0, 1, 2, 3))


# ---------------------------------------------------------------------------
# generator actions (frozen examples)


def test_a_action_example():
    a = a_gen(Perm.from_cycles(5, (0, 1, 2)))
    assert a.apply((2, 4, 0)) == (0, 4, 0)


def test_b_action_example():
    b = b_gen(Perm.from_cycles(5, (1, 2, 3)), {1: Perm.from_cycles(5, (0, 4, 2))})
    # leading zeros kept, first nonzero 1 -> 2, follower via slot of the
    # original letter: sigma_1 sends 4 -> 2, rest untouched
    assert b.apply((0, 0, 1, 4, 3)) == (0, 0, 2, 2, 3)
    # all-zero words are fixed
    assert b.apply((0, 0, 0)) == (0, 0, 0)


def test_b_sections():
    sig3 = Perm.from_cycles(5, (0, 1, 3))
    b = b_gen(Perm.from_cycles(5, (1, 2, 3)), {3: sig3})
    assert b.section(0) is b
    s = b.section(3)
    assert isinstance(s, AGen) and s.pi == sig3
    assert is_identity_gen(b.section(2))


def test_b_inverse_roundtrip():
    rng = random.Random(7)
    for _ in range(50):
        g = rng.choice(ALL_GENS)
        w = tuple(rng.randrange(D) for _ in range(8))
        assert g.inverse().apply(g.apply(w)) == w
    b = GENS["c2"]
    assert is_identity((b, b.inverse()))


def gens_with_mixed(d):
    """The default generators plus one ``B`` generator that moves the first
    nonzero letter and has a different slot for each letter; no default
    generator has both."""
    slots = {i: Perm.from_cycles(d, (i - 1, i, i + 1) if i < d - 1 else (0, 2, i)) for i in range(1, d)}
    return default_gens(d) + (("mixed", b_gen(Perm.from_cycles(d, (1, 2, 3)), slots)),)


@pytest.mark.parametrize("d", [5, 8, 9])
def test_cached_inverse_undoes_generator(d):
    vertices = list(itertools.product(range(d), repeat=3))
    for name, g in gens_with_mixed(d):
        inv = g.inverse()
        assert inv.inverse() is g and g.inverse() is inv, name
        for v in vertices:
            assert apply_word((g, inv), v) == v, (name, v)
            assert apply_word((inv, g), v) == v, (name, v)


@pytest.mark.parametrize("d", [5, 8, 9])
def test_rebuilt_generator_equal_with_same_hash(d):
    gens = [g for _, g in gens_with_mixed(d)]
    gens += [g.inverse() for g in gens]
    for g in gens:
        h = gen_from_json(gen_to_json(g))
        assert h is not g and h == g and hash(h) == hash(g)
        assert {g: 1}[h] == 1
    # the c* and b* generators differ only in their slots
    assert len({hash(g) for g in gens}) == len(set(gens)) == len(gens)


@pytest.mark.parametrize("d", [5, 8, 9])
def test_cached_sections_match_slots(d):
    for name, g in gens_with_mixed(d):
        if isinstance(g, BGen):
            assert g.section(0) is g
            for x in range(1, d):
                assert g.section(x) == a_gen(g.sigma(x)), (name, x)
            with pytest.raises(ValueError):
                g.section(d)


def test_parity_validation():
    with pytest.raises(ValueError):
        a_gen(Perm.from_cycles(5, (0, 1)))
    with pytest.raises(ValueError):
        b_gen(Perm.from_cycles(5, (1, 2)))
    with pytest.raises(ValueError):
        b_gen(Perm.from_cycles(5, (0, 1, 2)))  # must fix 0
    with pytest.raises(ValueError):
        b_gen(Perm.identity(5), {2: Perm.from_cycles(5, (0, 1))})


# ---------------------------------------------------------------------------
# words: action, sections, decomposition


def test_word_action_matches_generator_fold():
    rng = random.Random(11)
    for _ in range(200):
        word = rand_word(rng)
        v = tuple(rng.randrange(D) for _ in range(rng.randrange(9)))
        expect = v
        for g in reversed(word):
            expect = g.apply(expect)
        assert apply_word(word, v) == expect


def test_section_property():
    # word(v . w) == word(v) . section_at_v(w), on random data
    rng = random.Random(13)
    for _ in range(300):
        word = rand_word(rng)
        v = tuple(rng.randrange(D) for _ in range(rng.randrange(1, 5)))
        tail = tuple(rng.randrange(D) for _ in range(rng.randrange(6)))
        lhs = apply_word(word, v + tail)
        rhs = apply_word(word, v) + apply_word(section_word(word, v), tail)
        assert lhs == rhs


def test_wreath_decompose_recombines():
    rng = random.Random(17)
    for _ in range(100):
        word = rand_word(rng, max_len=5)
        secs, root = wreath_decompose(word, D)
        for _ in range(5):
            v = tuple(rng.randrange(D) for _ in range(rng.randrange(1, 6)))
            img = apply_word(word, v)
            assert img[0] == root(v[0])
            assert img[1:] == apply_word(secs[v[0]], v[1:])


def test_wreath_decompose_of_b_generator():
    b = GENS["c1"]
    secs, root = wreath_decompose((b,), D)
    assert root.is_identity()
    assert secs[0] == (b,)
    assert root_perm(secs[1]) == b.sigma(1)
    for i in range(2, D):
        assert secs[i] == ()


# ---------------------------------------------------------------------------
# identity / equality / order


def test_is_identity_basic():
    assert is_identity(())
    a = GENS["a1"]
    assert not is_identity((a,))
    assert is_identity((a, a, a))
    assert order_of((a,)) == 3


def test_is_identity_self_referential_section():
    # rho of order two with trivial slots: the square's 0-section is the
    # square itself, so only a fixpoint argument terminates
    b = b_gen(Perm.from_cycles(5, (1, 2), (3, 4)))
    assert not is_identity((b,))
    assert is_identity((b, b))
    assert order_of((b,)) == 2


def test_r_generator_order():
    assert order_of((GENS["r1"],)) == 3
    assert order_of((GENS["c1"],)) == 5


def test_equals_vs_witness_oracle():
    rng = random.Random(23)
    for _ in range(120):
        u = rand_word(rng)
        v = rand_word(rng)
        diff = reduce_word(u + inverse_word(v))
        if equals(u, v):
            # no vertex may distinguish them
            assert first_moved_vertex(diff) is None
            assert portrait(u, 6, D) == portrait(v, 6, D)
        else:
            w = first_moved_vertex(diff)
            assert w is not None
            z = apply_word(inverse_word(v), w)
            assert apply_word(u, z) != apply_word(v, z)


def test_portrait_shape():
    p = portrait((GENS["a1"],), 2, D)
    assert p.root == GENS["a1"].pi
    assert len(p.children) == D
    assert all(k.root.is_identity() for k in p.children)
    assert p.children[0].children is not None


# ---------------------------------------------------------------------------
# nucleus recognition


def test_as_nucleus_products():
    r1, c1, c2, a1 = GENS["r1"], GENS["c1"], GENS["c2"], GENS["a1"]
    g = as_nucleus((r1, c1), D)
    assert isinstance(g, BGen)
    assert g.rho == r1.rho
    assert g.sigma(1) == c1.sigma(1)
    h = as_nucleus((c1, c2), D)
    assert isinstance(h, BGen) and h.rho.is_identity()
    assert h.sigma(1) == c1.sigma(1) and h.sigma(2) == c2.sigma(2)
    # first-letter products collapse to A
    k = as_nucleus((a1, a1), D)
    assert isinstance(k, AGen) and k.pi == a1.pi * a1.pi
    # mixing a first-letter move into a recursion does not stay in the family
    assert as_nucleus((a1, r1), D) is None
    # identity word
    assert is_identity_gen(as_nucleus((a1, a1, a1), D))


def test_as_nucleus_matches_action():
    rng = random.Random(29)
    hits = 0
    for _ in range(150):
        word = rand_word(rng, max_len=3)
        g = as_nucleus(word, D)
        if g is None:
            continue
        hits += 1
        for _ in range(4):
            v = tuple(rng.randrange(D) for _ in range(rng.randrange(7)))
            assert apply_word(word, v) == g.apply(v)
    assert hits > 10


# ---------------------------------------------------------------------------
# configuration


def test_default_config_validates():
    for d in (5, 6, 7):
        cfg = Config.default(d=d)
        assert cfg.d == d
        validate_gens(cfg.gens, d)


def test_validate_rejects_odd_first_letter_permutation():
    gens = default_gens(5) + (("odd", AGen(Perm.from_cycles(5, (0, 1)))),)
    with pytest.raises(ValueError, match="must be even"):
        validate_gens(gens, 5)


def _even_perm(rng, d, parts):
    """A random even permutation of 0..d-1, not the identity, that maps
    each of the disjoint sets ``parts`` onto itself."""
    while True:
        images = list(range(d))
        for part in parts:
            for x, y in zip(part, rng.sample(part, len(part))):
                images[x] = y
        p = Perm(tuple(images))
        if p.is_even() and not p.is_identity():
            return p


def _block_perm(rng, d, size):
    """A random even permutation of 0..d-1, not the identity, that maps the
    blocks {0..size-1}, {size..2*size-1}, ... onto one another."""
    n = d // size
    while True:
        order = rng.sample(range(n), n)
        inner = [rng.sample(range(size), size) for _ in range(n)]
        p = Perm(tuple(order[x // size] * size + inner[x // size][x % size] for x in range(d)))
        if p.is_even() and not p.is_identity():
            return p


def test_generation_verdict_matches_sympy_order():
    combinatorics = pytest.importorskip("sympy.combinatorics")
    rng = random.Random(0xA1)
    verdicts = set()
    for trial in range(120):
        d = 5 + trial % 3
        shape = rng.choice(("free", "intransitive", "three-cycles") + (("imprimitive",) if d == 6 else ()))
        k = rng.randint(1, 3)
        if shape == "free":
            perms = [_even_perm(rng, d, [range(d)]) for _ in range(k)]
        elif shape == "intransitive":
            cut = rng.randrange(2, d - 1)
            perms = [_even_perm(rng, d, [range(cut), range(cut, d)]) for _ in range(k)]
        elif shape == "imprimitive":
            size = rng.choice((2, 3))
            perms = [_block_perm(rng, d, size) for _ in range(k)]
        else:
            perms = [Perm.from_cycles(d, tuple(rng.sample(range(d), 3))) for _ in range(k)]
        group = combinatorics.PermutationGroup([combinatorics.Permutation(list(p.images)) for p in perms])
        expected = group.order() == math.factorial(d) // 2
        gens = tuple((f"a{i}", a_gen(p)) for i, p in enumerate(perms))
        gens += tuple((n, g) for n, g in default_gens(d) if isinstance(g, BGen))
        try:
            validate_gens(gens, d)
            generates = True
        except ValueError as exc:
            generates = "full even group" not in str(exc)
        assert generates == expected, (d, shape, perms)
        verdicts.add((shape, expected))
    assert {
        ("free", True),
        ("free", False),
        ("intransitive", False),
        ("imprimitive", False),
        ("three-cycles", True),
        ("three-cycles", False),
    } <= verdicts


def test_default_config_at_degrees_9_and_10():
    combinatorics = pytest.importorskip("sympy.combinatorics")
    for d in (9, 10):
        t = time.perf_counter()
        cfg = Config.default(d)
        assert time.perf_counter() - t < 5.0
        roots = [combinatorics.Permutation(list(g.pi.images)) for _, g in cfg.gens if isinstance(g, AGen)]
        assert combinatorics.PermutationGroup(roots).order() == math.factorial(d) // 2


def test_validate_rejects_thin_sets():
    # a single recursion generator cannot connect the pair states
    gens = (
        ("a1", a_gen(Perm.from_cycles(5, (0, 1, 2)))),
        ("a2", a_gen(Perm.from_cycles(5, (2, 3, 4)))),
        ("r1", b_gen(Perm.from_cycles(5, (1, 2, 3)))),
    )
    with pytest.raises(ValueError):
        validate_gens(gens, 5)


def test_config_hash_stable():
    assert Config.default().config_hash() == Config.default().config_hash()
    assert Config.default().config_hash() != Config.default(d=6).config_hash()


def test_json_roundtrip():
    for _, g in CFG.gens:
        assert gen_from_json(gen_to_json(g)) == g
    w = (GENS["a1"], GENS["c3"].inverse(), GENS["r1"])
    assert word_from_json(word_to_json(w)) == w
