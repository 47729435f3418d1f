"""Path-space tests: edge rules, encode/decode, clopen algebra, images,
towers, and the boundedness/regularity audits."""

import itertools
import random
import re

import pytest

from alttree import diagram
from alttree.core import (
    AGen,
    BGen,
    Config,
    Perm,
    ResourceCap,
    a_gen,
    apply_word,
    as_nucleus,
    b_gen,
    equals,
    inverse_word,
    identity_gen,
    is_identity,
    order_of,
    perm_closure,
    portrait,
    reduce_word,
    root_perm,
    section_orbit,
    section_word,
    wreath_decompose,
)
from alttree.corpus import rng_for, sample_point, sample_points, sample_word
from alttree.diagram import (
    ClopenSet,
    PathPrefix,
    bounded_type_audit,
    clopen,
    contraction_depth,
    cylinder_member,
    decode,
    empty_set,
    encode,
    full_connectivity_steps,
    full_space,
    image_of_clopen,
    image_of_cylinder,
    is_identity_on_vertex,
    nontrivial_section_words,
    out_edges,
    parse_path,
    parse_vertex,
    path,
    path_counts,
    regularity_check,
    roundtrip_audit,
    source_vertex,
    tau_apply,
    tower,
    transfer_matrix,
    vertex_text,
    vertices,
)
from alttree.pieces import gray_piece, level_graph, schreier_ball
from alttree.points import (
    ZeroPair,
    act,
    parse_point,
    periodic_point,
    section_at_zero_ray,
    with_letters,
    zero_pair_point,
)

CFG = Config.default()
D = CFG.d


# ---------------------------------------------------------------------------
# vertices and edges


def test_vertex_and_edge_counts():
    vs = vertices(D)
    assert len(vs) == 2 * (D - 1) * D == 40
    assert sum(len(out_edges(D, v)) for v in vs) == 200
    top = out_edges(D, None)
    assert len(top) == 200
    per_vertex = {}
    for lab, u in top:
        per_vertex.setdefault(u, []).append(lab)
    assert set(per_vertex) == set(vs)
    for labs in per_vertex.values():
        assert sorted(labs) == list(range(D))


def test_out_degrees_by_class():
    for a, b, flag in vertices(D):
        deg = len(out_edges(D, (a, b, flag)))
        if not flag:
            assert deg == 2
        elif b != 0:
            assert deg == D
        else:
            assert deg == (D - 1) * D


def test_backward_determinism():
    # every (target, label) pair is hit by exactly one source vertex
    into = {}
    for v in vertices(D):
        for lab, u in out_edges(D, v):
            into.setdefault((u, lab), []).append(v)
    for (u, lab), sources in into.items():
        assert len(sources) == 1
        assert source_vertex(D, u, lab) == sources[0]
    # and no (target, label) pair is missing
    assert len(into) == 40 * D


def test_every_label_word_is_a_path():
    # depth <= 2, exhaustively: any labels + any end vertex validates,
    # and the chain walks forward consistently
    for n in (1, 2):
        for labels in itertools.product(range(D), repeat=n):
            for v in vertices(D):
                eta = PathPrefix(D, labels, v)
                ch = eta.chain()
                assert ch[-1] == v
                for k in range(n - 1):
                    assert (labels[k + 1], ch[k + 1]) in out_edges(D, ch[k])


def test_path_validation_errors():
    with pytest.raises(ValueError):
        PathPrefix(D, (0, 7), (1, 0, 0))
    with pytest.raises(ValueError):
        PathPrefix(D, (0,), None)
    with pytest.raises(ValueError):
        PathPrefix(D, (), (1, 0, 0))
    with pytest.raises(ValueError):
        PathPrefix(D, (0,), (0, 3, 1))
    with pytest.raises(ValueError):
        PathPrefix(D, (0, -1), (1, 0, 0))
    with pytest.raises(ValueError):
        PathPrefix(D, (0,), (1, 0, 2))
    with pytest.raises(ValueError):
        path(D, (0, 5), "10*")
    with pytest.raises(ValueError):
        parse_path("07@10*", D)


def test_path_counts_bruteforce_and_transfer_matrix():
    # brute force: walk all paths from the top
    counts = {}
    frontier = [(lab, u) for lab, u in out_edges(D, None)]
    level = 1
    cur = {}
    for _lab, u in frontier:
        cur[u] = cur.get(u, 0) + 1
    while level <= 3:
        assert cur == path_counts(D, level)
        assert set(cur.values()) == {D**level}
        nxt = {}
        for v, c in cur.items():
            for _lab, u in out_edges(D, v):
                nxt[u] = nxt.get(u, 0) + c
        cur = nxt
        level += 1
    # transfer-matrix route
    tm = transfer_matrix(D)
    two = {}
    for v in vertices(D):
        two[v] = sum(
            tm.get((u, v), 0) * path_counts(D, 1)[u] for u in vertices(D)
        )
    assert two == path_counts(D, 2)


def test_H_structure_degrees():
    assert set(path_counts(D, 1).values()) == {5}
    assert set(path_counts(D, 2).values()) == {25}


def test_full_connectivity_steps():
    assert full_connectivity_steps(D) == 3
    # starred vertices already see everything two levels down
    for v in vertices(D):
        if v[2] == 1:
            seen = set()
            for _l, u in out_edges(D, v):
                seen.update(w for _m, w in out_edges(D, u))
            assert seen == set(vertices(D))


# ---------------------------------------------------------------------------
# encode / decode


def test_encode_known_point():
    p = parse_point("13[20]", D)
    assert encode(p, 0).text() == "@top"
    assert encode(p, 1).text() == "1@30*"
    assert encode(p, 2).text() == "13@200"
    assert encode(p, 3).text() == "130@200"


def test_all_zero_labels_decode_to_prefixless_pair():
    for a in (1, 3):
        for b in (0, 2):
            eta = PathPrefix(D, (0, 0, 0, 0), (a, b, 0))
            q = decode(eta)
            assert q.prefix == ()
            assert q.tail == ZeroPair(a, b)


def test_roundtrip_exhaustive_small():
    aud = roundtrip_audit(D, 4)
    assert aud["ok"], aud["failures"][:5]
    assert aud["checked"] == 1 + sum(40 * 5**n for n in range(1, 5))


def test_roundtrip_audit_reports_a_corrupted_decode(monkeypatch):
    # the audit must call decode on every path: one wrong letter shows
    target, real = path(D, (3, 1), "21*"), decode

    def corrupt(eta, tail=None):
        q = real(eta, tail)
        return with_letters(q, {1: (q.letter(1) + 1) % D}) if eta == target else q

    monkeypatch.setattr("alttree.diagram.decode", corrupt)
    aud = roundtrip_audit(D, 2)
    assert aud["checked"] == 1 + sum(40 * 5**n for n in range(1, 3))
    assert not aud["ok"] and aud["failures"] == [target.text()]


def test_roundtrip_audit_reports_a_corrupted_encode(monkeypatch):
    # the audit compares the encoding of every decoded point: one wrong
    # end vertex shows
    target, real = path(D, (0, 4), "12*"), diagram._encoded

    def corrupt(p, depth):
        labels, end = real(p, depth)
        if (labels, end) == (target.labels, target.end):
            end = end[:2] + (1 - end[2],)
        return labels, end

    monkeypatch.setattr("alttree.diagram._encoded", corrupt)
    aud = roundtrip_audit(D, 2)
    assert aud["checked"] == 1 + sum(40 * 5**n for n in range(1, 3))
    assert not aud["ok"] and aud["failures"] == [target.text()]


def test_roundtrip_audit_lists_failures_in_enumeration_order(monkeypatch):
    # the top, then by end vertex, depth and label word
    want = [PathPrefix(D, (), None), path(D, (4,), "10*"), path(D, (0, 1), "10*"), path(D, (2,), "12*")]
    real = decode

    def corrupt(eta, tail=None):
        # a point of another degree fails every check, the top's too
        return zero_pair_point(D + 1, (), 1, 0) if eta in want else real(eta, tail)

    monkeypatch.setattr("alttree.diagram.decode", corrupt)
    assert roundtrip_audit(D, 2)["failures"] == [eta.text() for eta in want]


def test_roundtrip_audit_rejects_a_negative_depth():
    with pytest.raises(ValueError, match="^depth must be >= 0$"):
        roundtrip_audit(D, -1)
    assert roundtrip_audit(D, 0) == {"max_depth": 0, "checked": 1, "failures": [], "ok": True}


def test_roundtrip_audit_cap_reports_count_and_cap(monkeypatch):
    # the cap names what it measured (the path count) and its limit
    total = 1 + sum(40 * 5**n for n in range(1, 3))
    monkeypatch.setattr("alttree.diagram._AUDIT_CAP", total - 1)
    with pytest.raises(ResourceCap, match=f"^roundtrip_audit: {total} paths exceed _AUDIT_CAP = {total - 1}$"):
        roundtrip_audit(D, 2)
    monkeypatch.setattr("alttree.diagram._AUDIT_CAP", total)
    assert roundtrip_audit(D, 2)["checked"] == total


@pytest.mark.parametrize(
    "cap, value, call, message",
    [
        (
            "alttree.core._ID_CACHE_CAP",
            1,
            lambda: is_identity((CFG.gen("b1"),) * 3),
            "is_identity: 2 words exceed _ID_CACHE_CAP = 1",
        ),
        (
            "alttree.core._PORTRAIT_BOUND",
            2,
            lambda: portrait((CFG.gen("a1"),), 3),
            "portrait: depth 3 exceeds _PORTRAIT_BOUND = 2",
        ),
        (
            "alttree.diagram._REFINE_CAP",
            3,
            lambda: full_space(D).refine_to_depth(2),
            "refine_to_depth: 200 cylinders exceed _REFINE_CAP = 3",
        ),
        (
            "alttree.diagram._DEPTH_BOUND",
            1,
            lambda: image_of_cylinder((CFG.gen("c1"),), path(D, (), None)),
            "image_of_cylinder: recursion depth 1 reaches _DEPTH_BOUND = 1",
        ),
        (
            "alttree.diagram._TOWER_CAP",
            24,
            lambda: tower(D, (1, 0, 1), 2),
            "tower: 25 paths exceed _TOWER_CAP = 24",
        ),
        (
            "alttree.diagram._SECTION_WORDS_CAP",
            2,
            lambda: nontrivial_section_words((CFG.gen("c1"), CFG.gen("c2")), 1),
            "nontrivial_section_words: 3 words exceed _SECTION_WORDS_CAP = 2",
        ),
        (
            "alttree.pieces._LEVEL_CAP",
            2,
            lambda: level_graph(CFG, 3),
            "level_graph: word length 3 exceeds _LEVEL_CAP = 2",
        ),
        (
            "alttree.pieces._PIECE_CAP",
            20,
            lambda: gray_piece(parse_point("3332[24]", D), 1),
            "GrayPiece.build: 21 vertices exceed _PIECE_CAP = 20",
        ),
        (
            "alttree.pieces._PIECE_CAP",
            20,
            lambda: schreier_ball(parse_point("3332[24]", D), 1),
            "_Window.walk: 21 vertices exceed _PIECE_CAP = 20",
        ),
        (
            "alttree.pieces._LENGTH_CAP",
            2,
            lambda: gray_piece(parse_point("3332[24]", D), 1),
            "gray_piece: length 3 exceeds _LENGTH_CAP = 2",
        ),
        (
            "alttree.core._CLOSURE_CAP",
            2,
            lambda: perm_closure([Perm.from_cycles(D, (0, 1, 2))]),
            "perm_closure: 3 elements exceed _CLOSURE_CAP = 2",
        ),
        (
            "alttree.core._ORBIT_CAP",
            1,
            lambda: section_orbit((CFG.gen("c1"), CFG.gen("a1")), (1, 3)),
            "section_orbit: 2 steps exceed _ORBIT_CAP = 1",
        ),
        (
            "alttree.core._ORDER_BOUND",
            2,
            lambda: order_of((CFG.gen("a1"),)),
            "order_of: 2 powers reach _ORDER_BOUND = 2",
        ),
        (
            "alttree.diagram._CONNECTIVITY_BOUND",
            2,
            lambda: full_connectivity_steps(D),
            "full_connectivity_steps: 2 steps reach _CONNECTIVITY_BOUND = 2",
        ),
        (
            "alttree.diagram._DEPTH_BOUND",
            1,
            lambda: contraction_depth((CFG.gen("b1"), CFG.gen("a1"), CFG.gen("c2"))),
            "contraction_depth: level 1 reaches _DEPTH_BOUND = 1",
        ),
        (
            "alttree.diagram._DEPTH_BOUND",
            0,
            lambda: regularity_check(
                (CFG.gen("c1"), CFG.gen("a1"), CFG.gen("c1").inverse()),
                act((CFG.gen("c1"),), parse_point("3(1)", D)),
            ),
            "regularity_check: depth 0 reaches _DEPTH_BOUND = 0",
        ),
    ],
    ids=[
        "is_identity",
        "portrait",
        "refine_to_depth",
        "image_of_cylinder",
        "tower",
        "nontrivial_section_words",
        "level_graph",
        "GrayPiece.build",
        "_Window.walk",
        "gray_piece",
        "perm_closure",
        "section_orbit",
        "order_of",
        "full_connectivity_steps",
        "contraction_depth",
        "regularity_check",
    ],
)
def test_caps_report_count_and_cap(monkeypatch, cap, value, call, message):
    # each call runs under its default cap; under a smaller one, the cap
    # names what it measured and its limit
    import alttree.core as core

    core._IDENTITY_CACHE.clear()
    call()
    core._IDENTITY_CACHE.clear()
    monkeypatch.setattr(cap, value)
    with pytest.raises(ResourceCap, match=f"^{re.escape(message)}$"):
        call()


def test_wreath_table_stops_at_its_cap(monkeypatch):
    """A stream of queries answers alike with the wreath table capped small
    and uncapped, and the capped table never outgrows its cap."""
    import alttree.core as core

    rng = rng_for(CFG, "diag-wreath-cap")
    queries = []
    for _ in range(40):
        w = sample_word(rng, CFG, max_len=5)
        p = sample_point(rng, D)
        queries.append(lambda w=w, p=p: act(w, p))
        queries.append(lambda w=w, g=CFG.gen("a1"): equals(w, w + (g, g, g)))
        queries.append(lambda w=w: equals(w, w + (CFG.gen("c1"),)))
        C = ClopenSet(D, (encode(p, rng.randrange(1, 4)),))
        queries.append(lambda w=w, C=C: image_of_clopen(w, C))

    def answers(check=lambda: None):
        core._WREATH.clear()
        core._IDENTITY_CACHE.clear()
        diagram._IOV_CACHE.clear()
        out = []
        for q in queries:
            out.append(q())
            check()
        return out

    want = answers()
    assert len(core._WREATH) > 8
    monkeypatch.setattr("alttree.core._WREATH_CAP", 8)

    def bounded():
        assert len(core._WREATH) <= 8

    assert answers(bounded) == want


def test_encode_reads_letters_and_next_visible():
    pts = sample_points(CFG, 120, salt="diag-encode")
    for p in pts:
        for n in (0, 1, 3, 6):
            eta = encode(p, n)
            assert eta.labels == p.letters(n)
            if n == 0:
                assert eta.end is None
                continue
            a, b, flag = eta.end
            assert flag == (1 if p.letter(n + 1) != 0 else 0)
            # scan for the next visible data by hand
            pos = n + 1
            while pos < len(p.prefix) + 20 and p.letter(pos) == 0:
                pos += 1
            if p.letter(pos) != 0:
                assert (a, b) == (p.letter(pos), p.letter(pos + 1))
            else:
                assert (a, b) == (p.tail.a, p.tail.b)


def _encoded_by_letters(p, depth):
    """``_encoded`` read from a buffer of the point's first letters: past
    both the prefix and the labels, one period shows a nonzero letter, so
    the visible pair lies within m + 1 letters."""
    if depth == 0:
        return (), None
    m = max(len(p.prefix), depth)
    if not isinstance(p.tail, ZeroPair):
        m += len(p.tail.word)
    seq = p.letters(m + 1)
    for i in range(depth, m):
        if seq[i] != 0:
            a, b = seq[i], seq[i + 1]
            break
    else:
        a, b = p.tail.a, p.tail.b
    return seq[:depth], (a, b, 1 if seq[depth] != 0 else 0)


@pytest.mark.parametrize("d", [5, 6, 8, 12])
def test_encoded_matches_the_letter_buffer(d):
    # zero-heavy letters, so the visible pair often lies past the depth,
    # past the prefix or across a period's end; prefixes up to 13 letters
    # against depths 0..10, periodic and doubled, and decoded paths
    rng = random.Random(0xE7C + d)

    def letters(n, nonzero=False):
        while True:
            xs = tuple(rng.choice((0, 0, 0, rng.randrange(1, d))) for _ in range(n))
            if any(xs) or not nonzero:
                return xs

    pts = []
    for _ in range(300):
        pre = letters(rng.randrange(14))
        if rng.random() < 0.3:
            pts.append(zero_pair_point(d, pre, rng.randrange(1, d), rng.randrange(d)))
        else:
            pts.append(periodic_point(d, pre, letters(rng.randrange(1, 5), nonzero=True)))
    for _ in range(100):
        end = rng.choice(vertices(d))
        pts.append(decode(PathPrefix(d, letters(rng.randrange(1, 9)), end)))
    kinds = set()
    for p in pts:
        for depth in range(11):
            got = diagram._encoded(p, depth)
            assert got == _encoded_by_letters(p, depth), (p, depth)
            assert encode(p, depth) == PathPrefix(d, *got)
            if depth:
                kinds.add((depth < len(p.prefix), isinstance(p.tail, ZeroPair), got[1][2]))
    # prefixes longer and shorter than the depth, both tails, both flags
    assert kinds == set(itertools.product((False, True), (False, True), (0, 1))) - {(False, True, 1)}


def test_decode_with_tail():
    rng = rng_for(CFG, "diag-tails")
    for _ in range(60):
        p = sample_point(rng, D)
        n = rng.randrange(5)
        eta = encode(p, n)
        # the continuation of p itself is always a consistent tail
        if isinstance(p.tail, ZeroPair):
            tail = zero_pair_point(D, p.prefix[n:], p.tail.a, p.tail.b)
        else:
            per = p.tail.word
            k = max(0, n - len(p.prefix)) % len(per)
            tail = periodic_point(D, p.prefix[n:], per[k:] + per[:k])
        q = decode(eta, tail)
        assert q == p
    # an inconsistent tail is rejected
    eta = path(D, (4,), "21*")
    with pytest.raises(ValueError):
        decode(eta, periodic_point(D, (3,), (3,)))
    eta0 = path(D, (4,), "210")
    with pytest.raises(ValueError):
        decode(eta0, periodic_point(D, (), (2, 1)))  # starts 21, not 0


def test_cylinder_semantics_star_case():
    eta = path(D, (4,), "21*")
    assert cylinder_member(eta, parse_point("421(3)", D))
    assert cylinder_member(eta, parse_point("42(13)", D))
    assert cylinder_member(eta, zero_pair_point(D, (4, 2, 1), 3, 0))
    assert not cylinder_member(eta, parse_point("431(3)", D))
    assert not cylinder_member(eta, parse_point("41(2)", D))
    assert not cylinder_member(eta, parse_point("422(1)", D))


def test_cylinder_semantics_zero_case():
    eta = path(D, (4,), "210")
    assert cylinder_member(eta, zero_pair_point(D, (4,), 2, 1))
    assert cylinder_member(eta, parse_point("4021(3)", D))
    assert cylinder_member(eta, parse_point("40021(3)", D))
    assert not cylinder_member(eta, parse_point("4031(3)", D))  # wrong visible letter
    assert not cylinder_member(eta, parse_point("4023(1)", D))  # wrong follower
    assert not cylinder_member(eta, parse_point("421(3)", D))  # no zero at position 2
    assert not cylinder_member(eta, zero_pair_point(D, (4,), 2, 3))


def _scan_member(eta: PathPrefix, p) -> bool:
    """Membership read off the sequence itself, sharing no code with
    ``encode``: the labels must be the first letters, a *-flagged end pins
    letters n+1 and n+2, and a 0-flagged end demands a zero at n+1 with
    the visible pair (a, b) after the zero run (formal pair included)."""
    if p.d != eta.d:
        return False
    if eta.end is None:
        return True
    n = len(eta.labels)
    if p.letters(n) != eta.labels:
        return False
    a, b, flag = eta.end
    if flag:
        return p.letter(n + 1) == a and p.letter(n + 2) == b
    if p.letter(n + 1) != 0:
        return False
    # scan the zero run: the first nonzero letter must be a, followed by b
    pos = n + 2
    if isinstance(p.tail, ZeroPair):
        bound = len(p.prefix)
    else:
        bound = max(len(p.prefix), n + 1) + 2 * len(p.tail.word)
    while pos <= bound:
        x = p.letter(pos)
        if x != 0:
            return x == a and p.letter(pos + 1) == b
        pos += 1
    if not isinstance(p.tail, ZeroPair):
        raise AssertionError("periodic tail with no nonzero letter")
    return p.tail.a == a and p.tail.b == b


def test_membership_agrees_with_encode():
    pts = sample_points(CFG, 150, salt="diag-member")
    for p in pts:
        for n in (1, 2, 4):
            eta = encode(p, n)
            assert _scan_member(eta, p)
            # among all vertices at the same label word, only the
            # encoded one admits p
            hits = [
                v
                for v in vertices(D)
                if _scan_member(PathPrefix(D, eta.labels, v), p)
            ]
            assert hits == [eta.end]


@pytest.mark.parametrize("d, max_prefix", [(5, 3), (6, 2)])
def test_cylinder_member_against_the_scan(d, max_prefix):
    # every point with a short prefix and a tail of period (x), (0 x) or
    # (1 0 0), or doubled with any pair, at depths 0..5 and every vertex
    periods = [(x,) for x in range(1, d)] + [(0, x) for x in range(1, d)] + [(1, 0, 0)]
    pairs = [(a, b) for a in range(1, d) for b in range(d)]
    pts = set()
    for k in range(max_prefix + 1):
        for prefix in itertools.product(range(d), repeat=k):
            pts.update(periodic_point(d, prefix, per) for per in periods)
            pts.update(zero_pair_point(d, prefix, a, b) for a, b in pairs)
    rng = rng_for(Config.default(d), "diag-member-scan")
    top, other = PathPrefix(d, (), None), PathPrefix(d + 1, (), None)
    members = 0
    for p in sorted(pts, key=repr):
        assert cylinder_member(top, p) and not cylinder_member(other, p)
        for n in range(1, 6):
            labels = p.letters(n)
            etas = [PathPrefix._unchecked(d, labels, v) for v in vertices(d)]
            # a random label word: unless it happens to be p's, no vertex
            # admits p, so the end vertex of p's own path is enough
            etas.append(PathPrefix._unchecked(d, tuple(rng.randrange(d) for _ in range(n)), encode(p, n).end))
            got = [cylinder_member(e, p) for e in etas]
            assert got == [_scan_member(e, p) for e in etas], p
            members += sum(got)
    # each (point, depth) has its own path, and a random word hits it sometimes
    assert len(pts) * 5 < members < len(pts) * 5 * 2


# ---------------------------------------------------------------------------
# clopen sets


def _random_clopen(rng, depth_lo=1, depth_hi=3, n=3) -> ClopenSet:
    paths = []
    for _ in range(n):
        p = sample_point(rng, D)
        paths.append(encode(p, rng.randrange(depth_lo, depth_hi + 1)))
    return clopen(D, paths)


def test_clopen_laws():
    rng = rng_for(CFG, "diag-clopen")
    for _ in range(25):
        U = _random_clopen(rng)
        V = _random_clopen(rng)
        assert U.union(U.complement()) == full_space(D)
        assert U.intersect(U.complement()).is_empty()
        assert U.complement().complement() == U
        assert U.intersect(V).union(U.intersect(V.complement())) == U
        # De Morgan
        assert U.union(V).complement() == U.complement().intersect(V.complement())


def test_clopen_member_semantics():
    rng = rng_for(CFG, "diag-clopen-member")
    for _ in range(10):
        U = _random_clopen(rng)
        V = _random_clopen(rng)
        for _ in range(30):
            p = sample_point(rng, D)
            assert U.member(p) == any(cylinder_member(c, p) for c in U.cylinders)
            assert U.intersect(V).member(p) == (U.member(p) and V.member(p))
            assert U.union(V).member(p) == (U.member(p) or V.member(p))
            assert U.complement().member(p) == (not U.member(p))


def test_clopen_refinement_oracle():
    rng = rng_for(CFG, "diag-refine")
    for _ in range(10):
        U = _random_clopen(rng, 1, 2)
        V = _random_clopen(rng, 1, 2)
        depth = 3
        ru = U.refine_to_depth(depth)
        rv = V.refine_to_depth(depth)
        assert U.intersect(V).refine_to_depth(depth) == ru & rv
        assert U.union(V).refine_to_depth(depth) == ru | rv
        full = full_space(D).refine_to_depth(depth)
        assert U.complement().refine_to_depth(depth) == full - ru


def test_clopen_normal_form_merges():
    rng = rng_for(CFG, "diag-merge")
    for _ in range(15):
        eta = encode(sample_point(rng, D), rng.randrange(1, 4))
        kids = eta.children()
        assert clopen(D, kids) == clopen(D, [eta])
        # replace one child by its own full family: still merges up
        mixed = list(kids[1:]) + list(kids[0].children())
        assert clopen(D, mixed) == clopen(D, [eta])
        # a covered cylinder is dropped
        assert clopen(D, [eta, kids[0]]) == clopen(D, [eta])
    # the complete depth-1 family collapses to the whole space
    all_one = [PathPrefix(D, (lab,), v) for lab, v in out_edges(D, None)]
    assert clopen(D, all_one) == full_space(D)


def test_clopen_rejects_paths_of_another_degree():
    # A d = 5 set holding the d = 6 cylinder 1@12* would accept the d = 6
    # point 1(12) as a member, and its union with the d = 5 cylinder of the
    # same text would list 1@12* twice, which is no normal form.
    six = parse_path("1@12*", 6)
    with pytest.raises(ValueError, match="^degree mismatch$"):
        clopen(5, [six])
    with pytest.raises(ValueError, match="^degree mismatch$"):
        clopen(5, [parse_path("1@12*", 5), six])
    assert clopen(6, [six]).member(parse_point("1(12)", 6))


def test_path_text_roundtrip():
    samples = ["@top", "40@21*", "013@140", "2@100"]
    for text in samples:
        assert parse_path(text, D).text() == text
    assert parse_vertex("21*") == (2, 1, 1)
    assert parse_vertex("210") == (2, 1, 0)
    assert vertex_text(None) == "top"
    with pytest.raises(ValueError):
        parse_vertex("2*1")
    with pytest.raises(ValueError):
        parse_path("40", D)


def test_texts_are_one_to_one_past_degree_ten():
    # up to d = 10 every letter is one digit, as before
    assert [vertex_text(v) for v in vertices(10)] == [
        f"{a}{b}{'*' if flag else '0'}" for a, b, flag in vertices(10)
    ]
    # past that, a letter above 9 is braced, so no two vertices share a text
    texts = {vertex_text(v): v for v in vertices(12)}
    assert len(texts) == len(vertices(12)) == 264
    assert all(parse_vertex(text) == v for text, v in texts.items())
    assert (vertex_text((1, 11, 0)), vertex_text((11, 1, 0))) == ("1{11}0", "{11}10")
    report = bounded_type_audit(Config.default(12).gen("b1"), 1)
    assert len(report["levels"][1]["per_vertex"]) == 264
    eta = path(11, (10,), (1, 0, 1))
    assert eta.text() == "{10}@10*"
    assert parse_path(eta.text(), 11) == eta != path(11, (1, 0), (1, 0, 1))
    # only the canonical text parses
    for bad in ("{5}@10*", "{05}@10*", "1x@10*", "1@1{11}", "1@{11}{11}{11}*"):
        with pytest.raises(ValueError):
            parse_path(bad, 12)


# ---------------------------------------------------------------------------
# images of cylinders


def test_image_b_gen_relabels_end_vertex():
    b = b_gen(Perm.from_cycles(D, (1, 2, 3)), {1: Perm.from_cycles(D, (0, 4, 2))})
    img = image_of_cylinder((b,), path(D, (0,), "100"))
    assert img.texts() == ["0@240"]


def test_image_a_gen_relabels_labels():
    g = a_gen(Perm.from_cycles(D, (0, 1, 2)))
    for v in vertices(D)[::7]:
        img = image_of_cylinder((g,), PathPrefix(D, (2,), v))
        assert img.texts() == ["0@" + vertex_text(v)]


def test_image_identity_section_is_single_path():
    rng = rng_for(CFG, "diag-image-id")
    g = CFG.gen("a1")
    for _ in range(20):
        p = sample_point(rng, D)
        eta = encode(p, rng.randrange(1, 4))
        img = image_of_cylinder((g,), eta)
        # a1 only permutes the first letter; beyond depth 1 its section
        # is trivial, so the image is one cylinder with the same end
        assert len(img.cylinders) == 1
        assert img.cylinders[0].end == eta.end


def test_words_of_another_degree_raise():
    # a4 of degree 6 sends the letter 4 to 5, a letter no degree-5 point or
    # path holds; a degree-5 word on a degree-6 point is as meaningless
    a4 = Config.default(6).gen("a4")
    with pytest.raises(ValueError, match="degree mismatch"):
        act((a4,), parse_point("4(4)", D))
    with pytest.raises(ValueError, match="degree mismatch"):
        image_of_cylinder((a4,), path(D, (4, 1), "21*"))
    with pytest.raises(ValueError, match="degree mismatch"):
        act((CFG.gen("a1"),), parse_point("1(5)", 6))
    with pytest.raises(ValueError, match="degree mismatch"):
        image_of_cylinder((CFG.gen("a1"),), path(6, (1,), "51*"))
    # the word's degree is checked against the set's, also when it is empty
    with pytest.raises(ValueError, match="degree mismatch"):
        image_of_clopen((a4,), empty_set(D))


def test_a_word_takes_its_degree_from_its_letters():
    """``g`` moves only the letter after a 4, which a walk over four letters
    never reads.  Its answers are False with cold caches; the functions
    that take a degree for the empty word reject 4 for it without caching
    anything; and letters of two degrees in one word raise."""
    import alttree.core as core

    g = b_gen(Perm.identity(D), {4: Perm.from_cycles(D, (0, 1, 2))})
    a1 = CFG.gen("a1")
    core._IDENTITY_CACHE.clear()
    diagram._IOV_CACHE.clear()
    assert not is_identity((g,))
    assert not is_identity_on_vertex((g,), None)
    core._IDENTITY_CACHE.clear()
    diagram._IOV_CACHE.clear()
    for call in (
        lambda: as_nucleus((g, a1, a1, a1), 4),
        lambda: wreath_decompose((g,), 4),
        lambda: portrait((g,), 1, 4),
        lambda: section_at_zero_ray((g,), (), 4),
    ):
        with pytest.raises(ValueError, match="^degree mismatch$"):
            call()
    assert not is_identity((g,))
    assert not is_identity_on_vertex((g,), None)
    a5 = a_gen(Perm.from_cycles(5, (0, 1, 2)))
    a6 = a_gen(Perm.from_cycles(6, (0, 1, 2)))
    with pytest.raises(ValueError, match="^degree mismatch$"):
        equals((a5,), (a6,))
    with pytest.raises(ValueError, match="^degree mismatch$"):
        is_identity((a5, a6))
    # letters that reduction cancels are checked too, also when the caches
    # hold the reduced word
    assert not is_identity((a6,)) and not is_identity_on_vertex((a6,), (1, 0, 1))
    with pytest.raises(ValueError, match="^degree mismatch$"):
        is_identity((a5, a5.inverse(), a6))
    with pytest.raises(ValueError, match="^degree mismatch$"):
        order_of((a5, a5.inverse(), a6))
    with pytest.raises(ValueError, match="^degree mismatch$"):
        is_identity_on_vertex((a5, a5.inverse(), a6), (1, 0, 1))
    with pytest.raises(ValueError, match="^degree mismatch$"):
        act((identity_gen(6),), parse_point("1(2)", 5))


def test_image_then_inverse_image_roundtrip():
    rng = rng_for(CFG, "diag-image-inv")
    for _ in range(30):
        w = sample_word(rng, CFG, max_len=4)
        p = sample_point(rng, D)
        C = ClopenSet(D, (encode(p, rng.randrange(1, 4)),))
        there = image_of_clopen(w, C)
        back = image_of_clopen(inverse_word(w), there)
        assert back == C


def test_image_commutes_with_membership():
    rng = rng_for(CFG, "diag-image-member")
    for _ in range(40):
        w = sample_word(rng, CFG, max_len=4)
        p = sample_point(rng, D)
        eta = encode(sample_point(rng, D), rng.randrange(1, 4))
        img = image_of_cylinder(w, eta)
        assert cylinder_member(eta, p) == img.member(act(w, p))


def test_image_is_boolean_automorphism():
    rng = rng_for(CFG, "diag-image-bool")
    for _ in range(12):
        w = sample_word(rng, CFG, max_len=3)
        U = _random_clopen(rng, 1, 2, n=2)
        V = _random_clopen(rng, 1, 2, n=2)
        iU, iV = image_of_clopen(w, U), image_of_clopen(w, V)
        assert image_of_clopen(w, U.union(V)) == iU.union(iV)
        assert image_of_clopen(w, U.intersect(V)) == iU.intersect(iV)
        assert image_of_clopen(w, U.complement()) == iU.complement()
        if U.is_disjoint(V):
            assert iU.is_disjoint(iV)


def _image_by_levels(word, eta, depth=0):
    """The image of a cylinder, one public-API call chain per level: each
    level checks the word's degree, reduces it, unrolls its labels from
    the root and normalises its own pieces."""
    d = eta.d
    if any(g.d != d for g in word):
        raise ValueError("degree mismatch")
    word = reduce_word(word)
    labels, sec = apply_word(word, eta.labels), section_word(word, eta.labels)
    if is_identity(sec):
        return clopen(d, [PathPrefix(d, labels, eta.end)])
    nuc = as_nucleus(sec, d) if eta.end is not None else None
    if isinstance(nuc, BGen):
        a, b, flag = eta.end
        return clopen(d, [PathPrefix(d, labels, (nuc.rho(a), nuc.sigma(a)(b), flag))])
    if depth >= diagram._DEPTH_BOUND:
        raise ResourceCap(f"image_of_cylinder: recursion depth {depth} reaches _DEPTH_BOUND = {diagram._DEPTH_BOUND}")
    pieces = []
    for child in eta.children():
        pieces.extend(_image_by_levels(word, child, depth + 1).cylinders)
    return clopen(d, pieces)


def _image_of_clopen_by_levels(word, C):
    return clopen(C.d, [c for eta in C.cylinders for c in _image_by_levels(word, eta).cylinders])


@pytest.mark.parametrize("d", [5, 6, 8])
def test_image_is_the_per_level_image(d):
    """The one descent of ``image_of_clopen`` gives the texts of the
    per-level recursion, on sets of one and of several cylinders and on
    the whole space."""
    cfg = Config.default(d)
    rng = rng_for(cfg, "diag-image-levels")
    several = 0
    for i in range(40):
        w = sample_word(rng, cfg, max_len=5)
        if i % 10 == 0:
            C = full_space(d)
        else:
            n = 1 if i % 2 else rng.randrange(2, 5)
            C = clopen(d, [encode(sample_point(rng, d), rng.randrange(1, 4)) for _ in range(n)])
        several += len(C.cylinders) > 1
        assert image_of_clopen(w, C).texts() == _image_of_clopen_by_levels(w, C).texts()
        if len(C.cylinders) == 1:
            assert image_of_cylinder(w, C.cylinders[0]) == image_of_clopen(w, C)
    assert several >= 10


def test_image_depth_bound_counts_below_each_cylinder(monkeypatch):
    """Over a set of several cylinders the depth bound counts the levels
    below each cylinder and reports the text of ``image_of_cylinder``."""
    c1, a1 = CFG.gen("c1"), CFG.gen("a1")
    w = (c1, a1, c1)
    C = clopen(D, [path(D, (0,), "10*"), path(D, (3,), "20*")])
    assert image_of_clopen(w, C) == _image_of_clopen_by_levels(w, C)
    monkeypatch.setattr("alttree.diagram._DEPTH_BOUND", 1)
    message = "image_of_cylinder: recursion depth 1 reaches _DEPTH_BOUND = 1"
    for image in (image_of_clopen, _image_of_clopen_by_levels):
        with pytest.raises(ResourceCap, match=f"^{re.escape(message)}$"):
            image(w, C)


def test_an_image_checks_reduces_and_normalises_once(monkeypatch):
    """However deep the image descends, the word's degree is checked and
    the word reduced once per query, and the pieces are normalised once."""
    calls = {"_degree": 0, "reduce_word": 0, "clopen": 0}
    for name in calls:
        fn = getattr(diagram, name)

        def counted(*args, _fn=fn, _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(diagram, name, counted)
    image = image_of_cylinder((CFG.gen("c1"),), path(D, (), None))
    assert image == full_space(D)
    assert calls == {"_degree": 1, "reduce_word": 1, "clopen": 1}


# ---------------------------------------------------------------------------
# towers and prefix exchanges


def test_tower_enumeration():
    v = (2, 1, 1)
    tw = tower(D, v, 2)
    assert len(tw) == 25
    assert len({t.labels for t in tw}) == 25
    assert all(t.end == v for t in tw)


def test_tower_rejects_bad_vertices_and_levels():
    with pytest.raises(ValueError, match="bad vertex"):
        tower(D, (0, 0, 7), 1)
    with pytest.raises(ValueError, match="levels start at 1"):
        tower(D, (1, 2, 1), 0)


def test_tau_apply_moves_prefix_keeps_tail():
    rng = rng_for(CFG, "diag-tau")
    for _ in range(40):
        p = sample_point(rng, D)
        n = rng.randrange(1, 4)
        gamma = encode(p, n)
        labels2 = tuple(rng.randrange(D) for _ in range(n))
        gamma2 = PathPrefix(D, labels2, gamma.end)
        q = tau_apply(gamma, gamma2, p)
        assert cylinder_member(gamma2, q)
        assert q.letters(n) == labels2
        horizon = n + 8
        assert q.letters(horizon)[n:] == p.letters(horizon)[n:]
        assert q.pair() == p.pair()
        # exchanging back recovers the point, and gamma->gamma is a no-op
        assert tau_apply(gamma2, gamma, q) == p
        assert tau_apply(gamma, gamma, p) == p


def test_tau_apply_errors():
    p = parse_point("421(3)", D)
    gamma = encode(p, 1)
    other_end = path(D, (0,), "130")
    with pytest.raises(ValueError):
        tau_apply(gamma, other_end, p)
    gamma_far = path(D, (3,), vertex_text(gamma.end))
    with pytest.raises(ValueError):
        tau_apply(gamma_far, gamma, p)  # p not in C_{gamma_far}


# ---------------------------------------------------------------------------
# pointwise-trivial sections


def _vertex_tail_points(v, rng, zeros, count=40):
    """Sample points lying in the tail space of the vertex: sequences
    that start with a zero run of 1 to ``zeros`` letters (flag 0) and then
    show the visible pair, including formal-pair members."""
    a, b, flag = v
    out = []
    out.append(zero_pair_point(D, (), a, b) if not flag else None)
    for _ in range(count):
        lead = () if flag else (0,) * rng.randrange(1, zeros + 1)
        word = [rng.randrange(D) for _ in range(rng.randrange(4))]
        if rng.random() < 0.3:
            out.append(zero_pair_point(D, lead + (a, b) + tuple(word), rng.randrange(1, D), rng.randrange(D)))
        else:
            per = [rng.randrange(D) for _ in range(rng.randrange(1, 3))]
            if all(x == 0 for x in per):
                per[-1] = 1 + rng.randrange(D - 1)
            out.append(periodic_point(D, lead + (a, b) + tuple(word), per))
    return [p for p in out if p is not None]


def test_is_identity_on_vertex_against_members():
    # zero runs longer than the word's zero-ray sections up to their cycle
    # reach every section the zero lemma reads
    rng = rng_for(CFG, "diag-iov")
    a1 = CFG.gen("a1")
    words = [(g,) for _, g in CFG.gens] + [(a1.inverse(), g, a1) for _, g in CFG.gens]
    for _ in range(10):
        words.append(reduce_word(sample_word(rng, CFG, max_len=2)))
    seen_true = seen_false = 0
    for w in words:
        zeros = len(section_orbit(w, (0,))[1]) + 1
        for v in vertices(D):
            claim = is_identity_on_vertex(w, v)
            members = _vertex_tail_points(v, rng, zeros, count=20)
            moved = [p for p in members if act(w, p) != p]
            if claim:
                assert not moved, (w, v, moved[:2])
                seen_true += 1
            else:
                assert moved, (w, v)
                seen_false += 1
    assert seen_true and seen_false


def _trivial_on_vertex_by_demands(word, v):
    """The demand walk, uncached: the tails of a vertex split along its
    out-edges, so ``word`` is trivial on ``v`` iff no (section, vertex)
    demand that ``(word, v)`` reaches has a root moving one of the
    vertex's edge labels.  Built on ``out_edges``, ``root_perm`` and
    ``section_word`` alone."""
    word = reduce_word(word)
    if not word:
        return True
    d = word[0].d
    visited = set()
    stack = [(word, v)]
    while stack:
        demand = stack.pop()
        w, u = demand
        if not w or demand in visited:
            continue
        visited.add(demand)
        rp = root_perm(w)
        for lab, t in out_edges(d, u):
            if rp(lab) != lab:
                return False
            stack.append((section_word(w, (lab,)), t))
    return True


@pytest.mark.parametrize("d", [5, 6, 7])
def test_is_identity_on_vertex_against_the_demand_walk(d):
    cfg = Config.default(d)
    rng = rng_for(cfg, "diag-iov-demands")
    gens = [g for _, g in cfg.gens]
    a1 = cfg.gen("a1")
    # conjugating by a first-letter generator that moves 0 gives zero-ray
    # sections past the first one that matter
    words = [(g,) for g in gens]
    words += [(h.inverse(), g, h) for h in gens if isinstance(h, AGen) for g in gens]
    for _ in range(8):
        u = sample_word(rng, cfg, max_len=3)
        words.append(sample_word(rng, cfg, max_len=4))
        words.append(u + (a1, a1, a1) + inverse_word(u))
        words.append(u + (rng.choice(gens),) + inverse_word(u))
    on_zero_flags = set()
    for w in words:
        for v in (None,) + vertices(d):
            got = is_identity_on_vertex(w, v)
            assert got == _trivial_on_vertex_by_demands(w, v), (w, v)
            if v is not None and not v[2]:
                on_zero_flags.add(got)
    assert on_zero_flags == {True, False}


def test_is_identity_on_vertex_rejects_bad_vertices():
    """A vertex the word's degree does not have raises, and nothing is
    cached for it."""
    a1 = CFG.gen("a1")
    diagram._IOV_CACHE.clear()
    for v in ((1, 9, 0), (0, 1, 1), (1, 2, 3), (7, 0, 1)):
        with pytest.raises(ValueError, match=re.escape(f"bad vertex: {v}")):
            is_identity_on_vertex((a1,), v)
    assert not diagram._IOV_CACHE


def test_is_identity_on_vertex_known_cases():
    a1 = CFG.gen("a1")  # first-letter 3-cycle (0 1 2)
    assert is_identity_on_vertex((a1,), (3, 0, 1))
    assert is_identity_on_vertex((a1,), (4, 2, 1))
    assert not is_identity_on_vertex((a1,), (1, 0, 1))
    # zero-flagged vertices demand pi(0) = 0 along the zero run
    assert not is_identity_on_vertex((a1,), (3, 0, 0))
    r1 = CFG.gen("r1")  # rho = (1 2 3), trivial slots
    assert is_identity_on_vertex((r1,), (4, 4, 1))
    assert is_identity_on_vertex((r1,), (4, 0, 0))
    assert not is_identity_on_vertex((r1,), (1, 0, 0))
    c1 = CFG.gen("c1")  # slot 1 cycles the follower
    assert not is_identity_on_vertex((c1,), (1, 3, 0))
    assert is_identity_on_vertex((c1,), (2, 3, 0))


def test_is_identity_on_vertex_at_the_top_is_is_identity():
    """The tails of the top vertex are the whole space, so a word is trivial
    on it exactly when it is trivial.  Checked with both caches cleared,
    then again warm in reverse order."""
    import alttree.core as core
    import alttree.diagram as diagram

    rng = rng_for(CFG, "diag-iov-top")
    a1 = CFG.gen("a1")  # a 3-cycle, so a1 a1 a1 is trivial
    words = []
    for _ in range(12):
        words.append(sample_word(rng, CFG, max_len=3))
        u = sample_word(rng, CFG, max_len=3)
        words.append(u + (a1, a1, a1) + inverse_word(u))
    core._IDENTITY_CACHE.clear()
    diagram._IOV_CACHE.clear()
    cold = [(is_identity_on_vertex(w, None), is_identity(w)) for w in words]
    warm = [(is_identity_on_vertex(w, None), is_identity(w)) for w in reversed(words)]
    assert all(on_top == trivial for on_top, trivial in cold + warm)
    assert {trivial for _, trivial in cold} == {True, False}


def test_identity_caches_stop_growing_at_their_cap(monkeypatch):
    """With a small cap, the identity caches of core and diagram stop
    growing at it, and every answer is the one the uncapped caches give."""
    import alttree.core as core
    import alttree.diagram as diagram

    rng = rng_for(CFG, "diag-cache-cap")
    words = [sample_word(rng, CFG, max_len=4) for _ in range(100)]
    tops = [None] + list(vertices(D)[::9])

    def answers():
        core._IDENTITY_CACHE.clear()
        diagram._IOV_CACHE.clear()
        return [(is_identity(w), [is_identity_on_vertex(w, v) for v in tops]) for w in words]

    want = answers()
    cap = 10
    assert len(core._IDENTITY_CACHE) > cap and len(diagram._IOV_CACHE) > cap
    monkeypatch.setattr(core, "_ID_CACHE_CAP", cap)
    monkeypatch.setattr(diagram, "_ID_CACHE_CAP", cap)
    assert answers() == want
    assert len(core._IDENTITY_CACHE) == cap and len(diagram._IOV_CACHE) == cap


# ---------------------------------------------------------------------------
# audits


def test_nontrivial_section_words_shapes():
    r1 = CFG.gen("r1")
    c1 = CFG.gen("c1")
    a1 = CFG.gen("a1")
    for n in (1, 2, 5):
        assert nontrivial_section_words((a1,), n) == []
        assert nontrivial_section_words((r1,), n) == [(0,) * n]
        assert nontrivial_section_words((c1,), n) == [
            (0,) * n,
            (0,) * (n - 1) + (1,),
        ]


def test_negative_depths_and_levels_raise():
    r1 = CFG.gen("r1")
    with pytest.raises(ValueError, match="^depth must be nonnegative, got -1$"):
        portrait((r1,), -1)
    with pytest.raises(ValueError, match="^level must be nonnegative, got -2$"):
        nontrivial_section_words((r1,), -2)
    with pytest.raises(ValueError, match="^max_level must be at least 1, got 0$"):
        bounded_type_audit(r1, 0)


def test_bounded_type_audit_a_gens():
    for name in ("a1", "a2"):
        rep = bounded_type_audit(CFG.gen(name), 6)
        assert rep["uniform_bound"] == 0
        assert rep["exceptional_points"] == []
        assert all(rep["levels"][n]["max"] == 0 for n in range(1, 7))


def test_bounded_type_audit_recursion_gens():
    rep = bounded_type_audit(CFG.gen("r1"), 8)
    maxima = [rep["levels"][n]["max"] for n in range(1, 9)]
    assert maxima == [1] * 8
    assert rep["constant_from_level"] == 1
    # rho = (1 2 3): towers whose visible letter is moved see one bad
    # cylinder per level, the rest none
    lvl = rep["levels"][5]["per_vertex"]
    assert lvl["10*"] == 1 and lvl["100"] == 1
    assert lvl["40*"] == 0 and lvl["400"] == 0
    assert rep["levels"][5]["bad_words"] == ["00000"]
    exc = rep["exceptional_points"]
    assert len(exc) == 15
    assert all(e["moved"] for e in exc)

    rep2 = bounded_type_audit(CFG.gen("c1"), 6)
    assert rep2["uniform_bound"] == 2
    assert [e["point"] for e in rep2["exceptional_points"]] == [
        f"[1{b}]" for b in range(5)
    ]


def test_exceptional_points_match_moved_pairs():
    # for recursion generators the audited germ list is exactly the set
    # of prefixless doubled points the generator moves
    for name in ("r1", "r2", "c1", "c3"):
        g = CFG.gen(name)
        rep = bounded_type_audit(g, 3)
        audited = {e["point"] for e in rep["exceptional_points"]}
        brute = set()
        for a in range(1, D):
            for b in range(D):
                p = zero_pair_point(D, (), a, b)
                if act((g,), p) != p:
                    brute.add(repr(p)[1:-1])
        assert audited == brute


def test_contraction_depth():
    a1, r1 = CFG.gen("a1"), CFG.gen("r1")
    assert contraction_depth(()) == 0
    assert contraction_depth((r1, r1.inverse())) == 0
    assert contraction_depth((a1,)) == 1
    assert contraction_depth((r1,)) == 1
    w = (a1, r1)
    depth = contraction_depth(w)
    assert depth >= 1
    # at the reported depth every section really is a single generator
    from alttree.core import as_nucleus

    live = {reduce_word(w)}
    for _ in range(depth):
        live = {reduce_word(section_word(u, (x,))) for u in live for x in range(D)}
    assert all(as_nucleus(u, D) is not None for u in live)


def test_regularity_identity_and_first_letter():
    p = parse_point("3(41)", D)
    rep = regularity_check((), p)
    assert rep["depth"] == 0 and rep["cylinder"] == "@top"
    a1 = CFG.gen("a1")
    rep = regularity_check((a1,), p)
    assert rep["depth"] == 1
    assert rep["section_kind"] == "identity"
    assert rep["verified"]


def test_regularity_recursion_witness():
    r1 = CFG.gen("r1")
    p = parse_point("04(4)", D)
    assert act((r1,), p) == p
    rep = regularity_check((r1,), p)
    assert rep["depth"] == 1
    assert rep["section_kind"] == "pair-recursion"


def test_regularity_rejects_moved_point():
    c1 = CFG.gen("c1")
    p = zero_pair_point(D, (), 1, 2)
    with pytest.raises(ValueError):
        regularity_check((c1,), p)


def test_regularity_random_stabilizers():
    rng = rng_for(CFG, "diag-regular")
    pool = [w for _, w in CFG.symmetric_gens()]
    found = 0
    for _ in range(400):
        if found >= 25:
            break
        p = sample_point(rng, D)
        w = reduce_word(tuple(rng.choice(pool)[0] for _ in range(rng.randrange(1, 4))))
        if not w or is_identity(w) or act(w, p) != p:
            continue
        rep = regularity_check(w, p)
        assert rep["verified"]
        assert rep["depth"] <= contraction_depth(w)
        found += 1
    assert found >= 25

