"""The three workloads: seeded inputs, one timed pass, and its canonical answer.

Each workload is a closed loop with one client: a query starts when the
previous one has returned.  ``setup`` builds the inputs from the workload
seed (the program sees only these inputs), ``run`` is the timed pass and
returns the answer with one latency per query, and ``canonical`` turns the
answer into the bytes whose sha256 identifies it.

``size="quick"`` shrinks every workload to a few seconds in total for the
benchmark's own tests; the checks are the same.
"""

from __future__ import annotations

import json
import random
import time

from alttree.core import Config, equals, inverse_word, reduce_word
from alttree.corpus import rng_for, sample_points
from alttree.diagram import (
    ClopenSet,
    bounded_type_audit,
    encode,
    image_of_clopen,
    regularity_check,
    roundtrip_audit,
)
from alttree.pieces import SEPARATION_RADIUS, find_n0, piece_code
from alttree.points import ZeroPair, act, format_point, periodic_point, with_letters, zero_pair_point

# ---------------------------------------------------------------------------
# separation

# Basepoints of the default corpus (Config.default(5), salt "n0", 12 points,
# max_prefix=4, max_period=2).  Alone at radius 8, the doubled one and each
# periodic one reach n = 5; the four periodic ones cost the same within 3%,
# so the seed may pick any of them without moving the pass time.
SEP_DOUBLED = "3332[24]"
SEP_PERIODIC = ("4443(1)", "2(41)", "(4)", "(21)")
SEP_RADIUS = {"full": 8, "quick": 4}


def separation_setup(seed: int, size: str) -> dict:
    cfg = Config.default(5)
    corpus = {format_point(p): p for p in sample_points(cfg, 12, salt="n0", max_prefix=4, max_period=2)}
    rng = random.Random(f"separation:{seed}")
    chosen = [SEP_DOUBLED, rng.choice(SEP_PERIODIC)]
    rng.shuffle(chosen)
    missing = [t for t in chosen if t not in corpus]
    if missing:
        raise RuntimeError(f"basepoints {missing} are no longer in the default n0 corpus")
    return {"cfg": cfg, "points": [corpus[t] for t in chosen], "radius": SEP_RADIUS[size]}


def separation_run(inp: dict):
    t = time.perf_counter()
    report = find_n0(inp["cfg"], inp["points"], radius=inp["radius"], search_bound=SEPARATION_RADIUS)
    return report, [time.perf_counter() - t], 0


def separation_canonical(report: dict) -> bytes:
    return json.dumps(report, sort_keys=True).encode()


# ---------------------------------------------------------------------------
# codes

# (degree, spans, windows per span).  A code's cost is fixed by the point's
# zero pattern -- which fixes its Gray word -- and the window; the nonzero
# letter values only relabel the piece.  So the zero patterns and windows
# come from a fixed corpus and the seed draws the letter values and the
# query order: every seed gets new points and codes at the same cost.
CODES_MIX = {
    "full": ((5, tuple(range(3, 14)), 12), (8, tuple(range(3, 10)) + (11,), 2)),
    "quick": ((5, (3, 4, 5, 9, 10), 2), (8, (3, 4), 1)),
}


def _relabel(p, rng: random.Random):
    """The point with every nonzero letter redrawn; zero letters stay."""
    d = p.d
    nz = lambda x: x and rng.randrange(1, d)  # noqa: E731
    prefix = tuple(nz(x) for x in p.prefix)
    if isinstance(p.tail, ZeroPair):
        return zero_pair_point(d, prefix, rng.randrange(1, d), nz(p.tail.b))
    return periodic_point(d, prefix, tuple(nz(x) for x in p.tail.word))


def codes_setup(seed: int, size: str) -> dict:
    rng = random.Random(f"codes:{seed}")
    queries = []
    for d, spans, per_span in CODES_MIX[size]:
        cfg = Config.default(d)
        templates = sample_points(cfg, 24, salt="codes", max_prefix=4, max_period=2)
        shape_rng = random.Random(f"codes-windows:{d}")
        k = 0
        for s in spans:
            for j in range(per_span):
                # the first window of an odd span is symmetric
                lo = -(s // 2) if j == 0 and s % 2 else -shape_rng.randrange(s)
                queries.append((_relabel(templates[k % len(templates)], rng), lo, lo + s - 1))
                k += 1
    rng.shuffle(queries)
    return {"queries": queries}


def codes_run(inp: dict):
    codes, lat = [], []
    failed = 0
    clock = time.perf_counter
    for p, lo, hi in inp["queries"]:
        t = clock()
        try:
            codes.append(piece_code(p, lo, hi))
        except Exception:  # a query that raises counts as failed
            codes.append(None)
            failed += 1
        lat.append(clock() - t)
    return codes, lat, failed


def codes_canonical(codes: list) -> bytes:
    return b"".join(c or b"-" for c in codes)


# ---------------------------------------------------------------------------
# algebra

# queries per pass by kind, point and word pool sizes, and audit depths
ALGEBRA_SIZE = {
    "full": {"act": 2400, "image": 1200, "equals": 1600, "regularity": 400, "points": 200, "words": 600,
             "audit_level": 6, "roundtrip_depth": 5},
    "quick": {"act": 40, "image": 20, "equals": 20, "regularity": 10, "points": 8, "words": 12,
              "audit_level": 3, "roundtrip_depth": 2},
}
A_ORDER3 = ("a1", "a2", "a3")  # first-letter 3-cycles: g^3 = 1 exactly


def algebra_setup(seed: int, size: str) -> dict:
    sz = ALGEBRA_SIZE[size]
    cfg = Config.default(5)
    d = cfg.d
    points = sample_points(cfg, sz["points"], salt=f"algebra:{seed}", max_prefix=4, max_period=2)
    rng = rng_for(cfg, f"algebra-stream:{seed}")
    # the same number of words of each length 1..6, so that the pool's cost
    # does not swing with how many long words a seed happens to draw
    letters = [g for _, g in cfg.gens] + [g.inverse() for _, g in cfg.gens]
    pool = [tuple(rng.choice(letters) for _ in range(n)) for n in range(1, 7) for _ in range(sz["words"] // 6)]
    gens = dict(cfg.gens)
    names = [n for n, _ in cfg.gens]
    a1 = gens["a1"]
    kinds = [k for k in ("act", "image", "equals", "regularity") for _ in range(sz[k])]
    rng.shuffle(kinds)
    queries = []
    n_equals = 0
    for kind in kinds:
        w = rng.choice(pool)
        p = rng.choice(points)
        if kind == "act":
            queries.append(("act", w, p))
        elif kind == "image":
            # one cylinder is already in normal form, so building the set
            # fills none of the path caches before the pass
            queries.append(("image", w, ClopenSet(d, (encode(p, rng.randrange(1, 4)),))))
        elif kind == "equals":
            # alternately a relation that must hold and one that must fail
            n_equals += 1
            if n_equals % 2:
                g = gens[rng.choice(A_ORDER3)]
                queries.append(("equals", w, w + (g, g, g), True))
            else:
                queries.append(("equals", w, w + (gens[rng.choice(names)],), False))
        else:
            # a1 fixes every point whose first letter it does not move, so
            # w a1 w^-1 fixes act(w, q); the query computes that image first
            q = with_letters(p, {1: rng.choice((3, 4))})
            queries.append(("regularity", w, q))
    return {"cfg": cfg, "queries": queries, "audit_level": sz["audit_level"],
            "roundtrip_depth": sz["roundtrip_depth"], "a1": a1}


def _algebra_query(q, a1):
    kind = q[0]
    if kind == "act":
        return act(q[1], q[2])
    if kind == "image":
        return image_of_clopen(q[1], q[2])
    if kind == "equals":
        return equals(q[1], q[2])
    w = q[1]
    p = act(w, q[2])
    return p, regularity_check(reduce_word(w + (a1,) + inverse_word(w)), p)


def algebra_run(inp: dict):
    out, lat = [], []
    failed = 0
    clock = time.perf_counter
    a1 = inp["a1"]
    for q in inp["queries"]:
        t = clock()
        try:
            got = _algebra_query(q, a1)
        except Exception as exc:  # a query that raises counts as failed
            got = ("error", type(exc).__name__)
            failed += 1
        lat.append(clock() - t)
        out.append(got)
    cfg = inp["cfg"]
    audits = {name: bounded_type_audit(g, inp["audit_level"]) for name, g in cfg.gens}
    roundtrip = roundtrip_audit(cfg.d, inp["roundtrip_depth"])
    return {"results": out, "audits": audits, "roundtrip": roundtrip}, lat, failed


def _algebra_item(r):
    if isinstance(r, ClopenSet):
        return r.texts()
    if isinstance(r, tuple) and len(r) == 2 and isinstance(r[1], dict):
        return [format_point(r[0]), r[1]]
    if isinstance(r, bool) or isinstance(r, tuple):
        return r
    return format_point(r)


def algebra_canonical(ans: dict) -> bytes:
    blob = {
        "results": [_algebra_item(r) for r in ans["results"]],
        "audits": ans["audits"],
        "roundtrip": ans["roundtrip"],
    }
    return json.dumps(blob, sort_keys=True, default=str).encode()


def algebra_ops(inp: dict) -> int:
    """Operations in one pass: the stream queries plus one per audit."""
    return len(inp["queries"]) + len(inp["cfg"].gens) + 1


# ---------------------------------------------------------------------------

WORKLOADS = {
    "separation": (separation_setup, separation_run, separation_canonical, lambda inp: 1),
    "codes": (codes_setup, codes_run, codes_canonical, lambda inp: len(inp["queries"])),
    "algebra": (algebra_setup, algebra_run, algebra_canonical, algebra_ops),
}
