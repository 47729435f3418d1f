"""Answer checks that compare against no stored output.

Each ``check_*`` takes a workload's inputs and its answer and returns a
list of failure messages (empty when the answer passes).  The oracles are
chosen to share as little as possible with the code they check:

* separation: ball sizes from a breadth-first search over points written
  here from the move rule; minimality of ``n0`` from a pair with equal
  codes one radius lower whose pieces networkx finds isomorphic as
  pointed labelled graphs;
* codes: the two-pass route (materialised ``GrayPiece`` then its trace),
  and on the smallest windows the piece's vertex set against a search over
  points restricted to the window;
* algebra: inverse words, vertex action by ``apply_word``, generator
  orders, fixed points of stabilisers, and closed-form path counts.
"""

from __future__ import annotations

import itertools
from collections import deque

import networkx as nx

from alttree.core import apply_word, inverse_word, reduce_word
from alttree.diagram import ClopenSet, decode, encode, image_of_clopen
from alttree.pieces import GrayPiece, piece_code
from alttree.points import ZeroPair, act, gray_projection, gray_segment, with_letters

# ---------------------------------------------------------------------------
# the move rule, restated from the pieces module's docstring


def point_moves(q):
    """Points one move from ``q``: any other first letter, or any other
    value with nonzero first entry of the visible pair (the first nonzero
    letter and its follower; the formal pair for eventually-zero points)."""
    d = q.d
    out = [with_letters(q, {1: c}) for c in range(d) if c != q.letter(1)]
    tail = 0 if isinstance(q.tail, ZeroPair) else len(q.tail.word)
    j = next((i for i in range(1, len(q.prefix) + tail + 1) if q.letter(i)), None)
    for u in range(1, d):
        for v in range(d):
            if j is None:
                if (u, v) != (q.tail.a, q.tail.b):
                    out.append(with_letters(q, {}, pair=(u, v)))
            elif (u, v) != (q.letter(j), q.letter(j + 1)):
                out.append(with_letters(q, {j: u, j + 1: v}))
    return out


def oracle_ball(p, radius: int) -> dict:
    """Distance of every point within ``radius`` of ``p``, in breadth-first order."""
    dist = {p: 0}
    queue = deque([p])
    while queue:
        q = queue.popleft()
        if dist[q] < radius:
            for t in point_moves(q):
                if t not in dist:
                    dist[t] = dist[q] + 1
                    queue.append(t)
    return dist


def oracle_piece_states(p, lo: int, hi: int) -> set:
    """(fiber, letters at the visible slots [+ formal pair]) of every point
    reachable from ``p`` without leaving the window's Gray words."""
    seg = gray_segment(gray_projection(p), lo, hi)
    fiber = {w: k + lo for k, w in enumerate(seg)}
    piece = GrayPiece.build(p, lo, hi)
    seen = {p}
    queue = deque([p])
    while queue:
        q = queue.popleft()
        for t in point_moves(q):
            if t not in seen and gray_projection(t) in fiber:
                seen.add(t)
                queue.append(t)
    out = set()
    for q in seen:
        letters = tuple(q.letter(i) for i in piece.slots)
        if piece.has_pair:
            letters += (q.tail.a, q.tail.b)
        out.add((fiber[gray_projection(q)], letters))
    return out


# ---------------------------------------------------------------------------
# separation


def piece_graph(p, n: int) -> nx.DiGraph:
    """The radius-n piece of ``p`` as a networkx graph.  Node data: the
    annotation relative to the basepoint, a basepoint flag and which move
    labels have a target; edge data: the set of move labels joining the
    two states."""
    piece = GrayPiece.build(p, -n, n)
    g = nx.DiGraph()
    for i, row in enumerate(piece.adj):
        g.add_node(i, ann=(piece.annotation(i), i == piece.basepoint, tuple(t >= 0 for t in row)))
    for i, row in enumerate(piece.adj):
        for lab, t in enumerate(row):
            if t >= 0:
                if g.has_edge(i, t):
                    g[i][t]["labels"] = g[i][t]["labels"] | {lab}
                else:
                    g.add_edge(i, t, labels=frozenset({lab}))
    return g


def pointed_isomorphic(p, q, n: int) -> bool:
    """VF2++ matches the node data; a match that also carries every edge's
    labels is an isomorphism.  Otherwise VF2 with edge labels decides."""
    a, b = piece_graph(p, n), piece_graph(q, n)
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


def _colliding_pair(points, radius: int, n: int):
    """Two distinct points of one ball with equal radius-n codes.  Codes
    only get finer as the radius grows, so groups equal at radius k are
    split at k + 1 depth first, largest group first, down to radius n."""
    memo: dict = {}
    for p in points:
        stack = [(1, list(oracle_ball(p, radius)))]
        while stack:
            k, group = stack.pop()
            buckets: dict[bytes, list] = {}
            for q in group:
                buckets.setdefault(piece_code(q, -k, k, memo), []).append(q)
            same = sorted((g for g in buckets.values() if len(g) > 1), key=len)
            if k == n and same:
                return same[-1][0], same[-1][1]
            if k < n:
                stack.extend((k + 1, g) for g in same)
    return None


def check_separation(inp: dict, report: dict) -> list[str]:
    fails = []
    if report.get("ok") is not True or report.get("replay_collisions") != 0:
        return [f"separation report not ok: {report}"]
    radius = inp["radius"]
    uniq = list(dict.fromkeys(inp["points"]))
    sizes = [len(oracle_ball(p, radius)) for p in uniq]
    if report["balls"] != len(uniq):
        fails.append(f"balls {report['balls']} != {len(uniq)} distinct basepoints")
    if report["vertices"] != sum(sizes):
        fails.append(f"vertices {report['vertices']} != ball sizes {sizes}")
    if report["pairs_checked"] != sum(s * (s - 1) // 2 for s in sizes):
        fails.append(f"pairs_checked {report['pairs_checked']} does not match ball sizes {sizes}")
    n0 = report["n0"]
    if not 1 <= n0 <= report["search_bound"]:
        fails.append(f"n0 {n0} outside 1..{report['search_bound']}")
    elif n0 > 1:
        pair = _colliding_pair(uniq, radius, n0 - 1)
        if pair is None:
            fails.append(f"n0 {n0} is not minimal: every ball separates at n0 - 1")
        elif not pointed_isomorphic(pair[0], pair[1], n0 - 1):
            fails.append(f"{pair} share a code at n0 - 1 but their pieces are not isomorphic")
    return fails


# ---------------------------------------------------------------------------
# codes


def check_codes(inp: dict, codes: list) -> list[str]:
    fails = []
    for (p, lo, hi), code in zip(inp["queries"], codes):
        if code is None:
            continue  # a failed query; counted in ``failed``
        if GrayPiece.build(p, lo, hi).code() != code:
            fails.append(f"code of {p!r} over [{lo}, {hi}] differs from the two-pass route")
    smallest = min(hi - lo for _, lo, hi in inp["queries"])
    for p, lo, hi in inp["queries"]:
        if hi - lo == smallest and p.d == 5:
            piece = GrayPiece.build(p, lo, hi)
            if set(piece.verts) != oracle_piece_states(p, lo, hi):
                fails.append(f"vertices of the piece of {p!r} over [{lo}, {hi}] differ from enumeration")
    return fails


# ---------------------------------------------------------------------------
# algebra


def check_algebra(inp: dict, ans: dict) -> list[str]:
    fails = []
    cfg = inp["cfg"]
    d = cfg.d
    level3 = list(itertools.product(range(d), repeat=3))
    moved = {g: any(g.apply(v) != v for v in level3) for _, g in cfg.gens}
    a1 = inp["a1"]
    for q, r in zip(inp["queries"], ans["results"]):
        if isinstance(r, tuple) and r and r[0] == "error":
            continue  # a failed query; counted in ``failed``
        kind, w = q[0], q[1]
        wi = inverse_word(w)
        if kind == "act":
            p = q[2]
            if act(wi, r) != p:
                fails.append(f"act({w}^-1, act({w}, {p!r})) != {p!r}")
            if apply_word(w, p.letters(6)) != r.letters(6):
                fails.append(f"act({w}, {p!r}) disagrees with apply_word on the first letters")
        elif kind == "image":
            C = q[2]
            if image_of_clopen(wi, r) != C:
                fails.append(f"image of {C} under {w} does not map back")
            for x in [decode(c) for c in C.cylinders] + [decode(ch) for c in C.cylinders for ch in c.children()[:3]]:
                if not r.member(act(w, x)):
                    fails.append(f"act({w}, {x!r}) lies outside the image of {C}")
        elif kind == "equals":
            expect = q[3]
            g = q[2][-1]
            # g^3 = 1 for a first-letter 3-cycle; a generator that moves a
            # level-3 vertex is not the identity, so u != u g
            witness = all(apply_word((g, g, g), v) == v for v in level3) if expect else moved[g]
            if not witness:
                fails.append(f"no independent witness for the relation {q[1]} vs {q[2]}")
            if r is not expect:
                fails.append(f"equals({q[1]}, {q[2]}) gave {r}, expected {expect}")
        else:
            p, rep = r
            W = reduce_word(w + (a1,) + wi)
            if act(W, p) != p or act(w, q[2]) != p:
                fails.append(f"{p!r} is not the fixed point act({w}, {q[2]!r})")
            eta = encode(p, rep["depth"])
            if not rep["verified"] or rep["cylinder"] != eta.text():
                fails.append(f"regularity report {rep} does not name the cylinder of {p!r}")
            for child in eta.children():
                x = decode(child)
                if act(W, x) != x:
                    fails.append(f"{x!r} in the fixed cylinder {eta.text()} is moved")
                    break
    for name, rep in ans["audits"].items():
        L = rep["max_level"]
        if L >= 2 and rep["levels"][L]["max"] != rep["levels"][L - 1]["max"]:
            fails.append(f"bounded_type_audit({name}) per-level maximum not constant over its last two levels")
    rt = ans["roundtrip"]
    want = 1 + sum(2 * (d - 1) * d * d**n for n in range(1, rt["max_depth"] + 1))
    if not rt["ok"] or rt["failures"] or rt["checked"] != want:
        fails.append(f"roundtrip_audit checked {rt['checked']} (want {want}), failures {rt['failures'][:3]}")
    return fails


CHECKS = {"separation": check_separation, "codes": check_codes, "algebra": check_algebra}


# ---------------------------------------------------------------------------
# corrupted answers, one per kind of check, for the benchmark's own tests


def corruptions(name: str, inp: dict, ans) -> list[tuple[str, object]]:
    if name == "separation":
        return [
            ("n0 one too high", {**ans, "n0": ans["n0"] + 1}),
            ("one vertex too many", {**ans, "vertices": ans["vertices"] + 1}),
            ("a replay collision", {**ans, "replay_collisions": 1, "ok": False}),
        ]
    if name == "codes":
        flipped = list(ans)
        c = flipped[0]
        flipped[0] = bytes([c[0] ^ 1]) + c[1:]
        return [("one flipped code byte", flipped)]
    out = []
    kinds = [q[0] for q in inp["queries"]]
    for kind in ("act", "image", "equals", "regularity"):
        i = kinds.index(kind)
        results = list(ans["results"])
        r = results[i]
        if kind == "act":
            results[i] = with_letters(r, {1: (r.letter(1) + 1) % r.d})
        elif kind == "image":
            results[i] = ClopenSet(r.d, r.cylinders[:-1]) if len(r.cylinders) > 1 else r.complement()
        elif kind == "equals":
            results[i] = not r
        else:
            results[i] = (r[0], {**r[1], "depth": r[1]["depth"] + 1})
        out.append((f"one wrong {kind} result", {**ans, "results": results}))
    rt = {**ans["roundtrip"], "checked": ans["roundtrip"]["checked"] - 1}
    out.append(("roundtrip count off by one", {**ans, "roundtrip": rt}))
    name0 = next(iter(ans["audits"]))
    rep = ans["audits"][name0]
    L = rep["max_level"]
    levels = {**rep["levels"], L: {**rep["levels"][L], "max": rep["levels"][L]["max"] + 1}}
    out.append(("audit maximum not settled", {**ans, "audits": {**ans["audits"], name0: {**rep, "levels": levels}}}))
    return out
