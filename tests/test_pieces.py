"""Piece machinery against an independent enumeration oracle.

The oracle never touches the BFS code: it enumerates every letter
assignment consistent with the segment's bit patterns, declares two
assignments adjacent purely from their letter-difference pattern (first
letter only, or within a word's visible pair), and takes the component of
the basepoint.  Fibers never enter the edge rule; the line structure is
recovered, not assumed.
"""

import itertools
import random
import time
from collections import deque

import networkx as nx
import pytest

import alttree.pieces as pieces_mod
from alttree.core import Config, ResourceCap
from alttree.corpus import rng_for, sample_point, sample_points
from alttree.pieces import (
    SEPARATION_RADIUS,
    GrayPiece,
    _Ball,
    _Window,
    branch_report,
    descriptor_labels,
    find_n0,
    gray_piece,
    piece_code,
    is_quasi_level,
    level_graph,
    marginals,
    schreier_ball,
    segment_roots,
)
from alttree.points import (
    OMEGA,
    OMEGA1,
    ZeroPair,
    act,
    first_star,
    gray_projection,
    gray_segment,
    parse_point,
    periodic_point,
    visible_positions,
    with_letters,
)

CFG = Config.default()


# ---------------------------------------------------------------------------
# level graphs


def test_level_graph_counts_and_connectivity():
    for n in (1, 2, 3):
        lg = level_graph(CFG, n)
        assert lg.size == 5**n
        assert lg.is_connected()


def test_level_graph_edges_match_generators():
    lg = level_graph(CFG, 2)
    rng = random.Random(7)
    for _ in range(50):
        i = rng.randrange(lg.size)
        name, g = CFG.gens[rng.randrange(len(CFG.gens))]
        assert lg.word_of(lg.adj[name][i]) == g.apply(lg.word_of(i))


def test_level_graph_rigidity():
    for n in (1, 2, 3):
        assert level_graph(CFG, n).automorphism_count() == 1


def test_level_graph_cap():
    with pytest.raises(ResourceCap):
        level_graph(CFG, 7)


# ---------------------------------------------------------------------------
# the enumeration oracle


def _letter_at(p, pos):
    if pos is OMEGA:
        return p.tail.a
    if pos is OMEGA1:
        return p.tail.b
    return p.letter(pos)


def _enumerate_candidates(p, lo, hi):
    """All states over the window: (fiber-offset, letters over slots [+pair]),
    each consistent with its word's bit pattern."""
    d = p.d
    seg = gray_segment(gray_projection(p), lo, hi)
    slots, has_inf = visible_positions(seg)
    states = []
    for idx, w in enumerate(seg):
        per_slot = []
        for pos in slots:
            per_slot.append((0,) if w.letter(pos) == 0 else tuple(range(1, d)))
        if has_inf:
            bs = tuple(range(1, d)) if w.tail.b else (0,)
            per_slot.append(tuple(range(1, d)))
            per_slot.append(bs)
        for vals in itertools.product(*per_slot):
            states.append((idx + lo, vals))
    return seg, slots, states


def _oracle_edge_types(seg, slots, lo, sa, sb):
    """Edge types between two enumerated states, from letters alone."""
    ka, la = sa
    kb, lb = sb
    diff = {i for i, (x, y) in enumerate(zip(la, lb)) if x != y}
    if not diff:
        return set()
    nfin = len(slots)
    types = set()
    if diff == {0}:
        types.add("A")
    j = first_star(seg[ka - lo])
    if j is OMEGA:
        pair_idx = {nfin, nfin + 1}
        if diff <= pair_idx:
            types.add("B")
    else:
        iu = slots.index(j)
        iv = slots.index(j + 1)
        if diff <= {iu, iv} and la[iu] != 0 and lb[iu] != 0:
            # the move must keep the star: check the other side agrees on j
            if first_star(seg[kb - lo]) == j:
                types.add("B")
    return types


def _oracle_component(p, lo, hi):
    seg, slots, states = _enumerate_candidates(p, lo, hi)
    has_inf = any(first_star(w) is OMEGA for w in seg)
    base = None
    for k, vals in states:
        if k == 0:
            letters = [_letter_at(p, pos) for pos in slots]
            if has_inf:
                letters += [p.tail.a, p.tail.b]
            if tuple(letters) == vals:
                base = (k, vals)
    assert base is not None
    adj = {s: [] for s in states}
    edge_types = {}
    for sa, sb in itertools.combinations(states, 2):
        if abs(sa[0] - sb[0]) > 1:
            continue
        types = _oracle_edge_types(seg, slots, lo, sa, sb)
        if types:
            adj[sa].append(sb)
            adj[sb].append(sa)
            edge_types[frozenset((sa, sb))] = types
    comp = {base}
    stack = [base]
    while stack:
        s = stack.pop()
        for t in adj[s]:
            if t not in comp:
                comp.add(t)
                stack.append(t)
    return seg, slots, comp, edge_types, base


def _piece_state(piece, i):
    k, letters = piece.verts[i]
    return (k, letters)


def _piece_edge_types(piece):
    out = {}
    for i, row in enumerate(piece.adj):
        for lab, t in zip(descriptor_labels(piece.d), row):
            if t < 0:
                continue
            key = frozenset((_piece_state(piece, i), _piece_state(piece, t)))
            out.setdefault(key, set()).add(lab[0])
    return out


def _compare_with_oracle(p, lo, hi):
    piece = GrayPiece.build(p, lo, hi)
    seg, slots, comp, oracle_types, base = _oracle_component(p, lo, hi)
    assert set(piece.segment) == set(seg)
    piece_states = {_piece_state(piece, i) for i in range(piece.size)}
    assert piece_states == comp
    # fullness: the piece holds every state consistent with the window
    assert piece_states == set(_enumerate_candidates(p, lo, hi)[2])
    ptypes = _piece_edge_types(piece)
    otypes = {
        key: types
        for key, types in oracle_types.items()
        if all(s in comp for s in key)
    }
    assert ptypes == otypes
    assert _piece_state(piece, piece.basepoint) == base


def test_piece_matches_enumeration_oracle_periodic():
    _compare_with_oracle(parse_point("1(3)", 5), -2, 2)


def test_piece_matches_enumeration_oracle_samples():
    pts = sample_points(CFG, 40, salt="piece-oracle", max_prefix=4, max_period=2)
    periodic = [p for p in pts if not isinstance(p.tail, ZeroPair)]
    doubled = [p for p in pts if isinstance(p.tail, ZeroPair)]
    for p in periodic[:3]:
        _compare_with_oracle(p, -1, 1)
    _compare_with_oracle(periodic[3], -1, 2)
    for p in doubled[:2]:
        _compare_with_oracle(p, -1, 1)


def test_piece_matches_enumeration_oracle_near_formal_root():
    # exercise windows whose segment contains the all-zero word
    p = parse_point("[23]", 5)
    _compare_with_oracle(p, -1, 1)
    q = parse_point("[40]", 5)
    _compare_with_oracle(q, -2, 1)


# ---------------------------------------------------------------------------
# pieces against the actual group action


def test_piece_edges_match_group_action():
    pts = sample_points(CFG, 8, salt="piece-action", max_prefix=4, max_period=2)
    names = dict(CFG.symmetric_gens())
    for p in pts:
        piece = gray_piece(p, 2)
        words = set(piece.segment)
        for i, name, j in piece.s0_edges(CFG):
            img = act(names[name], piece.point_of(i))
            if j >= 0:
                assert img == piece.point_of(j)
            else:
                assert gray_projection(img) not in words


def test_piece_edge_projection_types():
    from alttree.core import AGen

    pts = sample_points(CFG, 8, salt="piece-types", max_prefix=4, max_period=2)
    for p in pts:
        piece = gray_piece(p, 2)
        for i, name, j in piece.s0_edges(CFG):
            if j < 0 or j == i:
                continue
            ka, kb = piece.fiber(i), piece.fiber(j)
            assert abs(ka - kb) <= 1
            if ka == kb:
                continue
            g = CFG.gen(name.rstrip("-"))
            if isinstance(g, AGen):
                assert min(ka, kb) % 2 == 1
            else:
                assert min(ka, kb) % 2 == 0


def test_s0_reaches_every_piece_vertex():
    """The named generators alone connect each piece: the finite generating
    set is a faithful proxy for the full move family."""
    pts = sample_points(CFG, 10, salt="piece-audit", max_prefix=4, max_period=2)
    for p in pts:
        piece = gray_piece(p, 2)
        nbrs = {i: set() for i in range(piece.size)}
        for i, _, j in piece.s0_edges(CFG):
            if j >= 0:
                nbrs[i].add(j)
                nbrs[j].add(i)
        seen = {piece.basepoint}
        stack = [piece.basepoint]
        while stack:
            v = stack.pop()
            for w in nbrs[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        assert len(seen) == piece.size


def test_projection_interval_and_basepoint():
    pts = sample_points(CFG, 12, salt="piece-shape", max_prefix=4, max_period=2)
    for p in pts:
        piece = gray_piece(p, 2)
        assert piece.point_of(piece.basepoint) == p
        fibers = {piece.fiber(i) for i in range(piece.size)}
        assert 0 in fibers
        assert fibers == set(range(min(fibers), max(fibers) + 1))


def test_single_word_window():
    p = parse_point("2(13)", 5)
    piece = gray_piece(p, 0)
    assert piece.length == 1
    assert all(piece.fiber(i) == 0 for i in range(piece.size))


# ---------------------------------------------------------------------------
# codes


def test_code_translate_invariance():
    """Bits beyond the visible window can change freely for periodic-tail
    points without moving the piece's isomorphism class; for doubled points
    the star structure is global, so only value changes on already-nonzero
    deep letters are safe."""
    rng = rng_for(CFG, "translate")
    pts = sample_points(CFG, 14, salt="translate", max_prefix=3, max_period=2)
    for p in pts:
        piece = gray_piece(p, 2)
        deep = max(piece.slots) + 2
        if isinstance(p.tail, ZeroPair):
            nz = [pos for pos in range(deep, deep + 6) if p.letter(pos) != 0]
            if not nz:
                continue
            pos = nz[0]
            val = p.letter(pos) % 4 + 1
            q = with_letters(p, {pos: val})
        else:
            q = with_letters(p, {deep: rng.randrange(1, 5), deep + 3: rng.randrange(0, 5)})
        other = gray_piece(q, 2)
        assert other.code() == piece.code()
        assert other.size == piece.size


def test_codes_separate_basepoint_classes():
    """Points whose basepoint shows a different first-letter zeroness or a
    different visible pair get different codes."""
    pts = sample_points(CFG, 30, salt="classes", max_prefix=4, max_period=2)

    def klass(p):
        gw = gray_projection(p)
        j = first_star(gw)
        if j is OMEGA:
            u, v = p.tail.a, p.tail.b
        else:
            u, v = p.letter(j), _letter_at(p, j + 1)
        return (p.letter(1) != 0, u, v)

    seen = {}
    for p in pts:
        piece = gray_piece(p, 1)
        seen.setdefault(klass(p), []).append(piece.code())
    classes = list(seen)
    for i in range(len(classes)):
        for k in range(i + 1, len(classes)):
            for ca in seen[classes[i]]:
                for cb in seen[classes[k]]:
                    assert ca != cb


def test_code_equality_is_pointed_iso():
    """Equal codes must come with identical local data along the BFS; spot
    check that rebuilding a piece around any of its own vertices, over the
    recentered window, reproduces the code from that vertex."""
    pts = sample_points(CFG, 5, salt="recenter", max_prefix=3, max_period=2)
    rng = rng_for(CFG, "recenter")
    for p in pts:
        piece = gray_piece(p, 2)
        v = rng.randrange(piece.size)
        k = piece.fiber(v)
        q = piece.point_of(v)
        other = GrayPiece.build(q, piece.lo - k, piece.hi - k)
        assert other.code() == piece.code(base=v)


def test_no_nontrivial_automorphisms_sampled():
    pts = sample_points(CFG, 12, salt="rigidity", max_prefix=3, max_period=2)
    for p in pts[:6]:
        piece = gray_piece(p, 1)
        codes = {piece.code(base=v, with_fibers=False) for v in range(piece.size)}
        assert len(codes) == piece.size


# ---------------------------------------------------------------------------
# marginals, branches, quasi-levels


def test_marginal_shapes_and_containment():
    p = parse_point("14(2)", 5)
    piece = gray_piece(p, 2)
    left, right, core = marginals(piece)
    assert left.length == 3 and right.length == 3 and core.length == 1
    pts_l = set(map(repr, left.points()))
    pts_r = set(map(repr, right.points()))
    pts_c = set(map(repr, core.points()))
    assert pts_c <= pts_l and pts_c <= pts_r
    with pytest.raises(ValueError):
        marginals(GrayPiece.build(p, -1, 2))
    with pytest.raises(ValueError):
        marginals(gray_piece(p, 1))


def test_marginal_determinism_sampled():
    """The central code is a function of the two marginal codes."""
    # The codes of gray_piece(point, 3) and of its marginals are the
    # piece_code values over their windows, pinned by
    # test_piece_code_matches_two_pass_build.
    pts = sample_points(CFG, 150, salt="marginals", max_prefix=4, max_period=2)
    rng = rng_for(CFG, "marginals-extra")
    groups = {}
    for p in pts:
        # engineered collisions: a deep translate lands in the same class
        deep = max(_Window(p, -3, 3).slots) + 2
        q = with_letters(p, {deep: rng.randrange(1, 5)})
        for point in (p, q):
            marginal_codes = (piece_code(point, -3, 1), piece_code(point, -1, 3))
            groups.setdefault(marginal_codes, set()).add(piece_code(point, -3, 3))
    assert groups
    collisions = sum(1 for members in groups.values() if len(members) > 1)
    assert collisions == 0


def test_root_preimage_connected():
    pts = sample_points(CFG, 25, salt="roots", max_prefix=4, max_period=2)
    for p in pts:
        piece = gray_piece(p, 2)
        roots, _, _ = segment_roots(piece.segment)
        for ridx in roots:
            fiber = piece.lo + ridx
            over = [i for i in range(piece.size) if piece.fiber(i) == fiber]
            if not over:
                continue
            seen = {over[0]}
            stack = [over[0]]
            while stack:
                v = stack.pop()
                for t in piece.adj[v]:
                    if t >= 0 and piece.fiber(t) == fiber and t not in seen:
                        seen.add(t)
                        stack.append(t)
            assert len(seen) == len(over)


def _b_visible(word):
    j = first_star(word)
    if j is OMEGA:
        return {OMEGA, OMEGA1}
    return {j, j + 1}


def _visible(word):
    return {1} | _b_visible(word)


def _marginal_components_over_core(piece, side):
    """networkx count of the components of a side's marginal over the core
    window: the undirected graph its vertices there induce."""
    n = piece.hi
    g = nx.Graph((v, t) for v, row in enumerate(piece.adj) for t in row if t >= 0)
    g.add_nodes_from(range(piece.size))
    wlo, whi = (-n, n - 2) if side == "left" else (-n + 2, n)
    marg = nx.node_connected_component(g.subgraph(v for v in g if wlo <= piece.fiber(v) <= whi), piece.basepoint)
    return nx.number_connected_components(g.subgraph(v for v in marg if -n + 2 <= piece.fiber(v) <= n - 2))


def test_branching_visibility_criterion():
    """Branching on a side is equivalent to: some position is pair-visible
    among the words the side loses, invisible over the core words, and
    carries a nonzero letter at the basepoint."""
    pts = sample_points(CFG, 60, salt="branches", max_prefix=5, max_period=2)
    bi_seen = 0
    for p in pts:
        piece = gray_piece(p, 2)
        rep = branch_report(piece)
        seg = piece.segment
        core_vis = set()
        for w in seg[2:-2]:
            core_vis |= _visible(w)
        for side, outer in (("left", seg[:2]), ("right", seg[-2:])):
            outer_vis = set()
            for w in outer:
                outer_vis |= _b_visible(w)
            qs = outer_vis - core_vis
            predicted = any(_letter_at(p, q) != 0 for q in qs)
            assert predicted == rep[side]["branches"], (repr(p), side, sorted(qs, key=str))
            assert rep[side]["components"] == _marginal_components_over_core(piece, side)
        if rep["bi_branching"]:
            bi_seen += 1
            assert is_quasi_level(piece) is not None
    assert bi_seen >= 1


def test_quasi_level_examples():
    # roots deep on the left, anti-roots shallow on the right
    p = parse_point("00041(2)", 5)
    piece = gray_piece(p, 2)
    roots, anti, j = segment_roots(piece.segment)
    if is_quasi_level(piece) is not None:
        assert anti
    # a window rooted at the formal position is never a quasi-level
    q = parse_point("[12]", 5)
    deep = gray_piece(q, 1)
    assert is_quasi_level(deep) is None or first_star(deep.segment[0]) is not OMEGA


# ---------------------------------------------------------------------------
# the separation constant


def test_find_n0_small():
    pts = sample_points(CFG, 15, salt="n0-small", max_prefix=3, max_period=2)
    rep2 = find_n0(CFG, pts, radius=2, search_bound=12)
    assert rep2["ok"], rep2
    rep1 = find_n0(CFG, pts, radius=1, search_bound=12)
    assert rep1["ok"] and rep1["n0"] <= rep2["n0"]
    assert rep2["replay_collisions"] == 0


def test_separation_radius_constant():
    # The frozen constant is the n0 of the radius-8 audit over the default
    # 12-point corpus; the whole report is pinned.
    pts = sample_points(CFG, 12, salt="n0", max_prefix=4, max_period=2)
    rep = find_n0(CFG, pts, radius=8)
    assert rep == {
        "ok": True,
        "n0": SEPARATION_RADIUS,
        "search_bound": 20,
        "radius": 8,
        "balls": 11,
        "vertices": 13420,
        "pairs_checked": 9850898,
        "replay_collisions": 0,
    }
    assert SEPARATION_RADIUS == 6


def test_find_n0_rejects_bad_bounds():
    pts = sample_points(CFG, 2, salt="n0", max_prefix=4, max_period=2)
    # n0 is at least 1, so a search bound below 1 could never hold it
    with pytest.raises(ValueError, match="search_bound must be positive"):
        find_n0(CFG, pts, radius=2, search_bound=0)
    with pytest.raises(ValueError, match="radius must be nonnegative"):
        find_n0(CFG, pts, radius=-1)
    # an empty corpus has no ball to measure a separation radius on
    with pytest.raises(ValueError, match="the corpus must hold a basepoint"):
        find_n0(CFG, [], radius=8)


def test_find_n0_reports_a_counterexample():
    # Below n0 the search runs out of bound: at radius 8 the ball of 3[12]
    # still has two points whose radius-3 pieces agree.  The reference engine
    # confirms the pair: their codes are equal at radius 3.
    pts = sample_points(CFG, 12, salt="n0", max_prefix=4, max_period=2)
    rep = find_n0(CFG, pts, radius=8, search_bound=3)
    assert rep == {
        "ok": False,
        "n0": None,
        "search_bound": 3,
        "radius": 8,
        "counterexample": {"basepoint": "<3[12]>", "pair": ("<101[12]>", "<101[10]>")},
    }
    a, b = (parse_point(text.strip("<>"), 5) for text in rep["counterexample"]["pair"])
    assert GrayPiece.build(a, -3, 3).code() == GrayPiece.build(b, -3, 3).code()


@pytest.mark.parametrize(
    "d, radius, want",
    [
        (6, 3, {"n0": 2, "balls": 12, "vertices": 3332, "pairs_checked": 696980}),
        (7, 3, {"n0": 2, "balls": 12, "vertices": 5594, "pairs_checked": 2289492}),
        (9, 2, {"n0": 1, "balls": 12, "vertices": 1761, "pairs_checked": 128388}),
    ],
)
def test_find_n0_at_other_degrees(d, radius, want):
    # The default 12-point corpus at degrees other than 5, pinned exactly.
    cfg = Config.default(d)
    pts = sample_points(cfg, 12, salt="n0", max_prefix=4, max_period=2)
    rep = find_n0(cfg, pts, radius=radius)
    assert rep == {"ok": True, "search_bound": 20, "radius": radius, "replay_collisions": 0, **want}


def test_piece_code_matches_two_pass_build():
    # piece_code hashes the rows of the clique walk; the two-pass route
    # materialises the graph and canonicalises it afterwards.  They must agree
    # byte for byte on every window shape, spans 1 to 11, including ones with
    # only a virtual pair in view, and at degrees 5, 8 and 9.
    rng = random.Random(0xF15E)
    pts = sample_points(CFG, 12, salt="fused", max_prefix=4, max_period=3)
    pts.append(parse_point("000[34]", 5))
    for p in pts:
        for _ in range(3):
            n = rng.randint(1, 5)
            lo, hi = -rng.randint(0, n), rng.randint(0, n)
            assert piece_code(p, lo, hi) == GrayPiece.build(p, lo, hi).code()
    for d, texts in (
        (8, ("7(1)", "3332[74]", "7(61)", "1(3)", "000[57]", "6042(7)")),
        (9, ("8(1)", "3332[84]", "7(81)", "1(3)", "000[58]", "6042(7)")),
    ):
        for text in texts:
            p = parse_point(text, d)
            for _ in range(2):
                n = rng.randint(1, 3)
                lo, hi = -rng.randint(0, n), rng.randint(0, n)
                assert piece_code(p, lo, hi) == GrayPiece.build(p, lo, hi).code(), (text, lo, hi)


def _partition(keys) -> list[int]:
    """Each item's first index with an equal key: equal lists mean equal
    partitions of the items."""
    first: dict = {}
    return [first.setdefault(k, i) for i, k in enumerate(keys)]


def _fiber_keys(points: list, lo: int, hi: int) -> list[tuple]:
    """The key lemma's key of each point, read from the point over its own
    window ``lo..hi``: the window's slot pattern, slots labelled by first
    appearance with x1 first and then each fiber's pair from ``lo`` to
    ``hi``, and the point's letters in label order.  Points over one Gray
    word share the window.  This is the key find_n0 used before it keyed
    ball states outward, kept as their oracle."""
    shapes: dict = {}  # per Gray word: window, slots by label, slot pattern
    keys = []
    for q in points:
        w = gray_projection(q)
        shape = shapes.get(w)
        if shape is None:
            win = _Window(q, lo, hi)
            order = tuple(dict.fromkeys(itertools.chain((0,), *win.pair_slots)))  # slots by first appearance
            label = {slot: i for i, slot in enumerate(order)}
            shape = shapes[w] = win, order, tuple(label[i] for i in itertools.chain(*win.pair_slots))
        win, order, pattern = shape
        letters = win.letters(q)
        keys.append((pattern, tuple(letters[i] for i in order)))
    return keys


@pytest.mark.parametrize("radius, n0", [(8, 6), (9, 7), (10, 8)])
def test_outward_keys_partition_every_round_as_point_keys(radius, n0):
    # find_n0 keys a ball's states outward, one block per round, from the
    # basepoint's line and letters; the oracle keys each point over its own
    # window.  They must split every ball of the default corpus alike in
    # every round the search can reach.
    pts = sample_points(CFG, 12, salt="n0", max_prefix=4, max_period=2)
    for p in dict.fromkeys(pts):
        ball = _Ball(p, radius)
        points = schreier_ball(p, radius)
        for n in range(1, n0 + 1):
            assert _partition(ball.keys(n)) == _partition(_fiber_keys(points, -n, n)), (p, radius, n)


def _sampled_balls(d: int, radius: int, nbase: int) -> list:
    rng = random.Random(f"shared-codes:{d}")
    return [_Ball(sample_point(rng, d, max_prefix=4, max_period=2), radius) for _ in range(nbase)]


def _ball_points(balls: list) -> list:
    return [ball.point(i) for ball in balls for i in range(len(ball.states))]


def test_window_keys_shared_exactly_when_piece_codes_equal():
    # find_n0 keys ball states by their windows' slot patterns and letters;
    # two points must share a key exactly when their own piece_code values
    # are equal.  find_n0 uses nothing of a key but which points share it,
    # so this oracle is as strong as equality of the codes themselves.  The
    # d = 5 list mixes two basepoints' balls, so keys of two balls are
    # compared too.  Pieces at d = 8 are large, so a radius-1 ball keeps the
    # per-point reference codes cheap.
    for d, radius, nbase, ns in ((5, 2, 2, (1, 2, 3, 5)), (8, 1, 1, (1, 2, 3))):
        balls = _sampled_balls(d, radius, nbase)
        points = _ball_points(balls)
        # fewer fibers than points: windows are shared between points
        assert len({gray_projection(q) for q in points}) < len(points)
        for n in ns:
            keys = [key for ball in balls for key in ball.keys(n)]
            assert _partition(keys) == _partition([piece_code(q, -n, n) for q in points]), (d, n)


def test_fiber_keys_walk_no_piece(monkeypatch):
    # The keys come from the line and the letters alone: with the clique
    # walk disabled once the balls are walked, they still partition the
    # d = 5 rounds as the piece codes do.
    balls = _sampled_balls(5, 2, 2)
    points = _ball_points(balls)
    codes = {n: [piece_code(q, -n, n) for q in points] for n in (1, 2, 3, 5)}
    # Nor do they depend on the piece's size: at a degree whose radius-1
    # pieces are past any cap (see test_schreier_ball_clique_cap), points
    # get keys, not a ResourceCap.  A point that differs only at a position
    # the window does not show shares the key; one that differs at a slot
    # does not.
    d = 16_385
    alone = [_Ball(periodic_point(d, prefix, (3,)), 0) for prefix in ((1, 0, 2), (1, 0, 2, 3, 3, 9), (1, 0, 5))]

    def no_walk(*args):
        raise AssertionError("the keys walked a piece")

    monkeypatch.setattr(pieces_mod._Window, "walk", no_walk)
    for n, want in codes.items():
        assert _partition([key for ball in balls for key in ball.keys(n)]) == _partition(want), n
    keys = [ball.keys(1)[0] for ball in alone]
    assert keys[0] == keys[1] != keys[2], d


@pytest.mark.parametrize("d, radius", [(5, 3), (6, 2), (8, 2)])
def test_ball_lemmas(d, radius):
    # The three ball lemmas of the pieces module, against schreier_ball's
    # points: a state at fiber k has the line's word at k as its Gray word;
    # its own line is the basepoint's, read at k + f for even k and k - f
    # for odd k; and it has the basepoint's letters wherever the radius-R
    # window shows none.
    rng = random.Random(f"ball-lemmas:{d}")
    for _ in range(3):
        p = sample_point(rng, d, max_prefix=4, max_period=2)
        ball = _Ball(p, radius)
        slots = set(ball.win.slots)
        far = max(slots) + len(p.prefix) + 6
        for q, (k, _) in zip(schreier_ball(p, radius), ball.states):
            w = gray_projection(q)
            assert w == ball.win.line[k], (p, q)
            sign = 1 if k % 2 == 0 else -1
            for n in (1, 2, 3):
                assert gray_segment(w, -n, n) == tuple(ball.win.line[k + sign * f] for f in range(-n, n + 1)), (p, q, n)
            assert all(q.letter(pos) == p.letter(pos) for pos in range(1, far) if pos not in slots), (p, q)
            if not ball.win.has_pair:
                assert q.pair() == p.pair(), (p, q)


def _piece_graph(piece: GrayPiece) -> nx.DiGraph:
    """The piece as a networkx graph.  Node data: the annotation and a
    basepoint flag; edge data: the set of move labels joining two vertices."""
    labels: dict = {}
    for i, row in enumerate(piece.adj):
        for lab, t in enumerate(row):
            if t >= 0:
                labels.setdefault((i, t), set()).add(lab)
    g = nx.DiGraph()
    g.add_nodes_from((i, {"ann": (piece.annotation(i), i == piece.basepoint)}) for i in range(piece.size))
    g.add_edges_from((i, t, {"labels": frozenset(labs)}) for (i, t), labs in labels.items())
    return g


def _pointed_isomorphic(a: nx.DiGraph, b: nx.DiGraph) -> bool:
    """VF2++ matches the node data; a match that also carries every edge's
    labels is an isomorphism.  Otherwise VF2 with edge labels decides."""
    if a.number_of_nodes() != b.number_of_nodes() or a.number_of_edges() != b.number_of_edges():
        return False
    m = nx.vf2pp_isomorphism(a, b, node_label="ann")
    if m is not None and all(
        b.has_edge(m[i], m[j]) and b[m[i]][m[j]]["labels"] == e["labels"] for i, j, e in a.edges(data=True)
    ):
        return True
    return nx.is_isomorphic(
        a, b, node_match=lambda x, y: x["ann"] == y["ann"], edge_match=lambda x, y: x["labels"] == y["labels"]
    )


def test_fiber_keys_are_pointed_isomorphism_classes():
    # networkx decides pointed labelled isomorphism of the reference pieces,
    # sharing no code with the keys: two points of a radius-3 ball share a
    # key exactly when their pieces are isomorphic.
    # Isomorphism is an equivalence, so each point is matched to its key's
    # first point, and those first points are told apart pairwise wherever
    # the sorted annotations do not already tell them apart.
    ball = _Ball(parse_point("03[10]", 5), 3)
    points = _ball_points([ball])
    shared = 0
    for n in (1, 2):
        keys = ball.keys(n)
        graphs = [_piece_graph(GrayPiece.build(q, -n, n)) for q in points]
        first: dict = {}
        for i, key in enumerate(keys):
            if first.setdefault(key, i) != i:
                shared += 1
                assert _pointed_isomorphic(graphs[first[key]], graphs[i]), (n, i)
        alike: dict = {}
        for i in first.values():
            alike.setdefault(tuple(sorted(ann for _, ann in graphs[i].nodes(data="ann"))), []).append(i)
        for group in alike.values():
            for i, j in itertools.combinations(group, 2):
                assert not _pointed_isomorphic(graphs[i], graphs[j]), (n, i, j)
    assert shared  # some distinct points share a key, so both directions are tried
    assert len(set(points)) == len(points)


def _moore_class_count(piece: GrayPiece) -> int:
    """Classes of the coarsest partition of the piece's vertices that refines
    the annotations and is stable under every label, by naive Moore
    refinement: each round splits classes by the classes of the targets."""
    colour = [piece.annotation(i) for i in range(piece.size)]
    count = len(set(colour))
    while True:
        colour = [
            (colour[i], tuple(None if t < 0 else colour[t] for t in piece.adj[i]))
            for i in range(piece.size)
        ]
        ids: dict = {}
        colour = [ids.setdefault(c, len(ids)) for c in colour]
        if len(ids) == count:
            return count
        count = len(ids)


def test_every_piece_is_minimal():
    # No two vertices of a piece are bisimilar (the minimality lemma of the
    # pieces module).  This oracle refines the two-pass build's annotations
    # and adjacency in pure Python.
    rng = random.Random("minimal")
    cases = [(sample_point(rng, 5, max_prefix=4, max_period=2), 2) for _ in range(6)]
    for d, texts in ((8, ("7(1)", "3332[74]", "000[57]")), (9, ("8(1)", "3332[84]", "000[58]"))):
        cases += [(parse_point(text, d), 1) for text in texts]
    for p, n in cases:
        piece = GrayPiece.build(p, -n, n)
        assert _moore_class_count(piece) == piece.size, (p, n)


def _clique_key(piece, i, kind, neighbour):
    """The clique lemma's name of vertex i's A- or B-clique: the fiber where
    its fiber-picking letter (x1, or v of the visible pair) is zero, and its
    letters with the rewritten ones blanked; plus the letter slots."""
    k, letters = piece.verts[i]
    j = first_star(piece.segment[k - piece.lo])
    slots = [0] if kind == "A" else (
        [len(piece.slots), len(piece.slots) + 1] if j is OMEGA else [piece.slots.index(j), piece.slots.index(j + 1)]
    )
    zero = k if letters[slots[-1]] == 0 else neighbour[kind][k]
    return (zero, tuple(None if s in slots else x for s, x in enumerate(letters))), slots


def test_move_cliques():
    # Clique lemma, against the reference build: each vertex's A-moves (B-moves)
    # reach the other members of one clique, the move labelled by a letter
    # reaching the member with that letter, every member sees the same clique,
    # and the lemma's key names it.  Fibers' neighbours come from the Gray line
    # alone: across an A-edge the words differ in bit 1.
    rng = random.Random("cliques")
    cases = [(sample_point(rng, 5, max_prefix=4, max_period=2), -2, 3) for _ in range(4)]
    cases += [(parse_point(text, 5), -3, 2) for text in ("3332[24]", "[23]")]
    for d, texts in ((8, ("7(1)", "3332[74]", "000[57]")), (9, ("8(1)", "3332[84]", "000[58]"))):
        cases += [(parse_point(text, d), -1, 1) for text in texts]
    for p, lo, hi in cases:
        piece = GrayPiece.build(p, lo, hi)
        d = piece.d
        wide = gray_segment(gray_projection(p), lo - 1, hi + 1)
        neighbour = {"A": {}, "B": {}}
        for k in range(lo, hi + 1):
            for k2 in (k - 1, k + 1):
                same = wide[k2 - lo + 1].letter(1) == wide[k - lo + 1].letter(1)
                neighbour["B" if same else "A"][k] = k2
        for kind, labels in (("A", [(c,) for c in range(d)]), ("B", [(u, v) for u in range(1, d) for v in range(d)])):
            first = 0 if kind == "A" else d
            cliques = {}
            for i in range(piece.size):
                key, slots = _clique_key(piece, i, kind, neighbour)
                k, letters = piece.verts[i]
                own = tuple(letters[s] for s in slots)
                members = {i}
                for col, letter in enumerate(labels):
                    t = piece.adj[i][first + col]
                    # the member sits at the fiber whose word fits its picking letter
                    fiber = k if (letter[-1] == 0) == (own[-1] == 0) else neighbour[kind][k]
                    if letter == own or not lo <= fiber <= hi:
                        assert t == -1, (p, i, kind, letter)
                        continue
                    assert t >= 0 and piece.verts[t][0] == fiber, (p, i, kind, letter)
                    assert tuple(piece.verts[t][1][s] for s in slots) == letter
                    assert _clique_key(piece, t, kind, neighbour)[0] == key
                    members.add(t)
                assert cliques.setdefault(key, members) == members, (p, i, kind)
            # every vertex lies in exactly one clique of each kind, named by its key
            assert sum(map(len, cliques.values())) == piece.size


def _layers_within(adj, start: int, radius: int) -> list[int]:
    """Vertices within ``radius`` steps of ``start`` in breadth-first order,
    targets in row order; ``adj[v]`` lists targets, -1 for none."""
    dist = {start: 0}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        if dist[v] == radius:
            continue
        for t in adj[v]:
            if t != -1 and t not in dist:
                dist[t] = dist[v] + 1
                queue.append(t)
    return list(dist)


def test_schreier_ball_is_the_tuple_piece_within_radius():
    # schreier_ball walks the move cliques; GrayPiece.build uses the
    # one-move rule.  A ball of radius r lies in the fibers -r..r, so it must be
    # the piece over [-r, r] cut at depth r, in the same breadth-first order.
    rng = random.Random("ball-vs-piece")
    cases = [(sample_point(rng, 5, max_prefix=4, max_period=2), 3) for _ in range(6)]
    cases += [(parse_point(text, 5), 3) for text in ("3332[24]", "[23]")]
    for d, texts in ((8, ("7(1)", "3332[74]", "000[57]")), (9, ("8(1)", "3332[84]", "000[58]"))):
        cases += [(parse_point(text, d), 2) for text in texts]
        cases.append((sample_point(rng, d, max_prefix=4, max_period=2), 2))
    for p, r in cases:
        piece = GrayPiece.build(p, -r, r)
        want = [piece.point_of(i) for i in _layers_within(piece.adj, piece.basepoint, r)]
        assert schreier_ball(p, r) == want, (p, r)


def test_schreier_ball_matches_enumeration_oracle():
    # The oracle's edges come from letter differences alone, so this shares
    # no move code with the clique walk: the ball's (fiber, letters) states
    # are the oracle component's states within distance r of the basepoint.
    r = 2
    pts = sample_points(CFG, 4, salt="ball-oracle", max_prefix=4, max_period=2)
    pts += [parse_point("3332[24]", 5), parse_point("[23]", 5)]
    for p in pts:
        seg, slots, comp, edge_types, base = _oracle_component(p, -r, r)
        adj = {s: [] for s in comp}
        for a, b in map(tuple, edge_types):
            if a in comp:
                adj[a].append(b)
                adj[b].append(a)
        want = set(_layers_within(adj, base, r))
        has_inf = any(first_star(w) is OMEGA for w in seg)
        ball = schreier_ball(p, r)
        got = set()
        for q in ball:
            letters = [_letter_at(q, pos) for pos in slots]
            if has_inf:
                letters += [q.tail.a, q.tail.b]
            got.add((seg.index(gray_projection(q)) - r, tuple(letters)))
        assert got == want and len(ball) == len(want), p


def test_schreier_ball_rejects_a_negative_radius():
    with pytest.raises(ValueError, match="^radius must be nonnegative$"):
        schreier_ball(parse_point("1(3)", 5), -1)


def test_schreier_ball_clique_cap():
    # A clique's members in the window are counted before it is listed, and
    # every one of them joins the ball, so a clique past _PIECE_CAP raises at
    # once: at d = 16,385 the radius-1 ball of 102(3) has a B-clique of
    # (d - 1) d vertices, which is never listed.
    t = time.perf_counter()
    want = r"^_Window\.walk: B-clique of 268451840 vertices in the window exceeds _PIECE_CAP = 2000000$"
    with pytest.raises(ResourceCap, match=want):
        schreier_ball(periodic_point(16_385, (1, 0, 2), (3,)), 1)
    assert time.perf_counter() - t < 1.0


def test_vertex_cap_boundary(monkeypatch):
    # _PIECE_CAP bounds the vertex count: a piece of exactly the cap passes,
    # one more vertex raises, in the two-pass build and the clique walk alike.
    p = parse_point("3332[24]", 5)
    win = _Window(p, -1, 1)
    start = (0, win.letters(p))
    size = GrayPiece.build(p, -1, 1).size
    monkeypatch.setattr(pieces_mod, "_PIECE_CAP", size)
    assert len(win.walk(start)[0]) == size
    assert GrayPiece.build(p, -1, 1).size == size
    monkeypatch.setattr(pieces_mod, "_PIECE_CAP", size - 1)
    with pytest.raises(ResourceCap, match=f"^GrayPiece.build: {size} vertices exceed _PIECE_CAP = {size - 1}$"):
        GrayPiece.build(p, -1, 1)
    with pytest.raises(ResourceCap, match=f"^_Window.walk: {size} vertices exceed _PIECE_CAP = {size - 1}$"):
        win.walk(start)
