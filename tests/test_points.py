import itertools
import math
import random

import pytest

from alttree.core import AGen, BGen, Config, Perm, ResourceCap, a_gen, apply_word, b_gen, equals, section_word
from alttree.corpus import sample_point, sample_word
from alttree.points import (
    OMEGA,
    OMEGA1,
    Periodic,
    TildePoint,
    ZeroPair,
    _line_neighbor,
    act,
    first_star,
    format_point,
    gray_neighbors,
    gray_projection,
    gray_segment,
    gray_word,
    parse_point,
    periodic_point,
    pos_sort_key,
    section_at_zero_ray,
    visible_positions,
    with_letters,
    zero_pair_point,
)

CFG = Config.default()
D = CFG.d
GENS = dict(CFG.gens)


# ---------------------------------------------------------------------------
# canonical forms


def test_periodic_canonicalization():
    # 2 3 1 3 1 ... == prefix 2, period (3 1) == prefix 2 3 period (1 3)
    p = periodic_point(D, (2, 3), (1, 3))
    q = periodic_point(D, (2,), (3, 1))
    assert p == q
    # period is primitive
    assert periodic_point(D, (), (1, 2, 1, 2)).tail == Periodic((1, 2))
    with pytest.raises(ValueError):
        periodic_point(D, (1,), (0, 0))


def test_zero_pair_canonicalization():
    assert zero_pair_point(D, (0, 0), 1, 4) == zero_pair_point(D, (), 1, 4)
    assert zero_pair_point(D, (1, 3, 0, 0), 2, 0).prefix == (1, 3)
    with pytest.raises(ValueError):
        zero_pair_point(D, (), 0, 3)


@pytest.mark.parametrize("bad", [D, -1])
def test_constructors_reject_out_of_range_letters(bad):
    with pytest.raises(ValueError):
        periodic_point(D, (1, bad), (2,))
    with pytest.raises(ValueError):
        periodic_point(D, (1,), (2, bad))
    with pytest.raises(ValueError):
        zero_pair_point(D, (1, bad), 2, 0)
    with pytest.raises(ValueError):
        zero_pair_point(D, (1,), 2, bad)


def test_letter_access():
    p = periodic_point(D, (2,), (3, 1))
    assert [p.letter(i) for i in range(1, 6)] == [2, 3, 1, 3, 1]
    q = zero_pair_point(D, (1,), 2, 4)
    assert q.letter(1) == 1 and q.letter(2) == 0 and q.letter(17) == 0
    assert q.pair() == (2, 4)
    # the formal letters of a doubled point; a periodic point has none
    assert (q.letter(OMEGA), q.letter(OMEGA1)) == q.pair()
    for pos in (OMEGA, OMEGA1):
        with pytest.raises(ValueError, match="^only doubled points carry a formal pair$"):
            p.letter(pos)


def test_text_roundtrip():
    rng = random.Random(5)
    for _ in range(200):
        p = sample_point(rng, D)
        assert parse_point(format_point(p), D) == p
    assert format_point(zero_pair_point(D, (), 1, 4)) == "[14]"
    assert parse_point("2(31)", D) == periodic_point(D, (2,), (3, 1))


@pytest.mark.parametrize("d", [*range(5, 13), 16, 33])
def test_text_roundtrip_at_every_degree(d):
    # A letter past 9 is written in braces, so the text reads back at every
    # degree; up to d = 10 it is the plain digit text, byte for byte.
    rng = random.Random(f"text:{d}")
    for _ in range(60):
        p = sample_point(rng, d, max_prefix=5, max_period=3)
        text = format_point(p)
        assert parse_point(text, d) == p, text
        if d <= 10:
            digits = "".join(map(str, p.prefix))
            tail = f"[{p.tail.a}{p.tail.b}]" if isinstance(p.tail, ZeroPair) else f"({''.join(map(str, p.tail.word))})"
            assert text == digits + tail


def test_texts_past_ten_are_one_to_one():
    assert format_point(periodic_point(12, (1, 11), (3,))) == "1{11}(3)"
    assert format_point(periodic_point(12, (11, 1), (3,))) == "{11}1(3)"
    assert format_point(zero_pair_point(12, (), 11, 1)) == "[{11}1]"
    assert parse_point("[{11}1]", 12) == zero_pair_point(12, (), 11, 1)
    # a text names one letter sequence: no padded or braced small letters,
    # and a formal pair has two letters
    for bad in ("{1}(3)", "1{011}(3)", "[{11}]", "[1{11}2]", "1{}(3)"):
        with pytest.raises(ValueError):
            parse_point(bad, 12)
    # letters are still checked against the degree
    with pytest.raises(ValueError):
        parse_point("1{12}(3)", 12)


def test_with_letters():
    p = periodic_point(D, (2,), (3, 1))
    q = with_letters(p, {2: 4, 5: 0})
    assert q.letters(6) == (2, 4, 1, 3, 0, 3)
    z = zero_pair_point(D, (1,), 2, 4)
    assert with_letters(z, {3: 2}, pair=(3, 0)) == zero_pair_point(D, (1, 0, 2), 3, 0)
    # a position below 1 names no letter, so it is refused
    for text, changes in (("123(4)", {0: 0}), ("123(4)", {-2: 0}), ("12[34]", {0: 3})):
        with pytest.raises(ValueError, match="^positions are 1-based$"):
            with_letters(parse_point(text, D), changes)


# ---------------------------------------------------------------------------
# the action


def test_act_first_letter_example():
    a = a_gen(Perm.from_cycles(D, (0, 1, 2)))
    assert act((a,), periodic_point(D, (2,), (3, 1))) == periodic_point(D, (0,), (3, 1))


def test_act_pair_example():
    b = b_gen(Perm.from_cycles(D, (1, 2, 3)), {1: Perm.from_cycles(D, (0, 4, 2))})
    img = act((b,), zero_pair_point(D, (0, 0), 1, 4))
    assert img == zero_pair_point(D, (), 2, 2)


def test_act_truncation_oracle_periodic():
    rng = random.Random(31)
    for _ in range(200):
        word = sample_word(rng, CFG)
        p = sample_point(rng, D, doubled_ratio=0.0)
        img = act(word, p)
        assert img.letters(30) == apply_word(word, p.letters(30))


def test_act_truncation_oracle_doubled():
    rng = random.Random(37)
    for _ in range(200):
        word = sample_word(rng, CFG)
        p = sample_point(rng, D, doubled_ratio=1.0)
        img = act(word, p)
        assert isinstance(img.tail, ZeroPair)
        assert img.letters(30) == apply_word(word, p.letters(30))


def test_act_pair_against_deep_periodic_approximation():
    # the formal pair must transform like real letters placed very deep
    rng = random.Random(41)
    for _ in range(60):
        word = sample_word(rng, CFG, max_len=4)
        p = sample_point(rng, D, doubled_ratio=1.0)
        a, b = p.pair()
        n = 25
        approx = periodic_point(D, p.prefix + (0,) * n + (a, b), (a, b) if b or a else (a,))
        img_pair = act(word, p).pair()
        deep = act(word, approx)
        k = len(p.prefix) + n
        assert (deep.letter(k + 1), deep.letter(k + 2)) == img_pair


def test_act_raises_when_the_section_orbit_passes_its_cap(monkeypatch):
    # period (1 3) takes two steps to repeat a (section, phase) pair
    import alttree.core as core

    word = (GENS["c1"], GENS["a1"])
    p = periodic_point(D, (2,), (1, 3))
    expected = act(word, p)
    monkeypatch.setattr(core, "_ORBIT_CAP", 1)
    with pytest.raises(ResourceCap, match="^section_orbit: 2 steps exceed _ORBIT_CAP = 1$"):
        act(word, p)
    monkeypatch.undo()
    assert act(word, p) == expected


def test_act_is_a_group_action():
    rng = random.Random(43)
    for _ in range(100):
        u = sample_word(rng, CFG, max_len=3)
        v = sample_word(rng, CFG, max_len=3)
        p = sample_point(rng, D)
        assert act(u, act(v, p)) == act(u + v, p)
    for _ in range(50):
        w = sample_word(rng, CFG, max_len=4)
        p = sample_point(rng, D)
        from alttree.core import inverse_word

        assert act(inverse_word(w), act(w, p)) == p


def test_section_at_zero_ray_stabilizes():
    rng = random.Random(47)
    for _ in range(80):
        word = sample_word(rng, CFG, max_len=4)
        prefix = tuple(rng.randrange(D) for _ in range(rng.randrange(4)))
        g = section_at_zero_ray(word, prefix, D)
        assert isinstance(g, (AGen, BGen))
        # the sections along the ray eventually all equal g
        depths = []
        w = section_word(word, prefix)
        for n in range(30):
            depths.append(w)
            w = section_word(w, (0,))
        tail_equal = [equals(x, (g,) if not (isinstance(g, AGen) and g.pi.is_identity()) else ()) for x in depths]
        assert all(tail_equal[15:])


# ---------------------------------------------------------------------------
# Gray words


def test_gray_projection_shapes():
    p = periodic_point(D, (2, 0), (3, 1))
    gw = gray_projection(p)
    assert not isinstance(gw.tail, ZeroPair)
    assert [gw.letter(i) for i in range(1, 5)] == [1, 0, 1, 1]
    z = gray_projection(zero_pair_point(D, (1, 0, 2), 3, 0))
    assert isinstance(z.tail, ZeroPair) and z.tail.b == 0
    assert z.letter(OMEGA) == 1 and z.letter(OMEGA1) == 0


@pytest.mark.parametrize("d", [5, 8])
def test_gray_projection_normal_form_oracle(d):
    # The projection against the points' own letters, read by ``letter``
    # alone: its bit is 1 exactly where the letter is nonzero (the formal a
    # always), and two projections are equal exactly when the points' bits
    # agree over 1..n, with their kind and [b != 0].  Past the longest
    # prefix every bit sequence repeats with a period dividing the lcm of
    # the periods, so n bits decide equality.
    rng = random.Random(f"gray-oracle:{d}")
    pts = list(dict.fromkeys(sample_point(rng, d, max_prefix=3, max_period=2) for _ in range(120)))
    periods = [len(p.tail.word) for p in pts if isinstance(p.tail, Periodic)]
    n = 2 * (max(len(p.prefix) for p in pts) + math.lcm(*periods))
    signatures, words = [], []
    for p in pts:
        w = gray_projection(p)
        bits = tuple(int(p.letter(i) != 0) for i in range(1, n + 1))
        assert w.d == 2 and tuple(w.letter(i) for i in range(1, n + 1)) == bits, p
        doubled = isinstance(p.tail, ZeroPair)
        if doubled:
            assert (w.letter(OMEGA), w.letter(OMEGA1)) == (1, int(p.letter(OMEGA1) != 0)), p
        signatures.append((bits, doubled, doubled and p.letter(OMEGA1) != 0))
        words.append(w)
    assert {doubled for _, doubled, _ in signatures} == {True, False}
    equal = 0
    for (s1, w1), (s2, w2) in itertools.combinations(zip(signatures, words), 2):
        assert (w1 == w2) == (s1 == s2), (w1, w2)
        equal += w1 == w2
    assert 0 < equal < len(pts) * (len(pts) - 1) // 2


def test_first_star_and_visible():
    gw = gray_word((0, 0, 1), star2=False)
    assert first_star(gw) == 3
    assert visible_positions([gw]) == ((1, 3, 4), False)
    allzero = gray_word((), star2=True)
    assert first_star(allzero) is OMEGA
    assert visible_positions([allzero]) == ((1,), True)
    # a point of another degree is no Gray word, even with letters 0 and 1
    p = parse_point("01(1)", D)
    for call in (first_star, gray_neighbors, lambda w: gray_segment(w, -1, 1)):
        with pytest.raises(ValueError, match="a Gray word is a point of degree 2"):
            call(p)
    assert first_star(gray_projection(p)) == 2


def test_gray_neighbors_are_line_moves():
    rng = random.Random(53)
    for _ in range(300):
        p = sample_point(rng, D)
        gw = gray_projection(p)
        a, b = gray_neighbors(gw)
        assert a != gw and b != gw and a != b
        # flipping twice comes home
        assert gray_neighbors(a)[0] == gw
        j = first_star(gw)
        b2 = gray_neighbors(b)[1]
        if j is OMEGA or first_star(b) == j:
            assert b2 == gw


def test_gray_segment_distinct_and_consistent():
    rng = random.Random(59)
    for _ in range(100):
        p = sample_point(rng, D)
        seg = gray_segment(gray_projection(p), -4, 4)
        assert len(seg) == 9
        assert len(set(seg)) == 9
        # the center's first-bit neighbor is on the left
        a, b = gray_neighbors(seg[4])
        assert seg[3] == a and seg[5] == b


def _bits_differ(v: TildePoint, w: TildePoint, n: int) -> set:
    """The positions among 1..n, and OMEGA1 for eventually-zero words, at
    which two Gray words of one kind differ, read by ``letter`` alone."""
    positions = [*range(1, n + 1), *([OMEGA1] if isinstance(v.tail, ZeroPair) else [])]
    return {pos for pos in positions if v.letter(pos) != w.letter(pos)}


def _after_first_star(w: TildePoint, n: int):
    """The position right after the first star, read by ``letter`` alone: a
    word without a star among 1..n is eventually zero, starred at OMEGA."""
    return next((pos + 1 for pos in range(1, n + 1) if w.letter(pos)), OMEGA1)


@pytest.mark.parametrize("d", [5, 8])
def test_line_neighbor_parity_rule(d):
    # The parity rule against the words gray_segment lays out, by bits
    # alone: fiber k and its kind-0 neighbour differ exactly at bit 1, and k
    # and its kind-1 neighbour exactly at the bit after k's first star.
    rng = random.Random(f"line-parity:{d}")
    kinds = set()
    for _ in range(16):
        w = gray_projection(sample_point(rng, d, max_prefix=4, max_period=2))
        kinds.add(isinstance(w.tail, ZeroPair))
        seg = gray_segment(w, -9, 9)
        # every word is periodic past the longest prefix, with a period
        # dividing lcm of the periods, so n bits hold every difference
        n = 2 * (max(len(v.prefix) for v in seg) + math.lcm(*(len(v.tail.word) for v in seg if isinstance(v.tail, Periodic))))
        for k in range(-8, 9):
            word = seg[k + 9]
            assert _bits_differ(word, seg[_line_neighbor(k, 0) + 9], n) == {1}, (w, k)
            assert _bits_differ(word, seg[_line_neighbor(k, 1) + 9], n) == {_after_first_star(word, n)}, (w, k)
    assert kinds == {True, False}


def test_generators_touch_only_their_bits():
    rng = random.Random(61)
    for _ in range(300):
        p = sample_point(rng, D)
        gw = gray_projection(p)
        a_nbr, b_nbr = gray_neighbors(gw)
        name = rng.choice(list(GENS))
        g = GENS[name]
        if rng.random() < 0.5:
            g = g.inverse()
        img = gray_projection(act((g,), p))
        if isinstance(g, AGen):
            assert img in (gw, a_nbr)
        else:
            assert img in (gw, b_nbr)


def test_pos_ordering():
    ps = sorted([OMEGA1, 3, OMEGA, 1], key=pos_sort_key)
    assert ps == [1, 3, OMEGA, OMEGA1]
