"""Hypothesis properties of the word algebra, the point action and clopen sets.

Words act as composed functions, the rightmost letter first, so the word
``u + v`` acts as ``u`` after ``v``.  Strategies stay small (short words,
short prefixes and periods, shallow cylinders) to keep the suite fast.
"""

import copy
import dataclasses
import pickle

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from alttree.core import Config, equals, inverse_word, reduce_word  # noqa: E402
from alttree.diagram import PathPrefix, clopen, decode, encode, image_of_clopen  # noqa: E402
from alttree.points import ZeroPair, act, periodic_point, zero_pair_point  # noqa: E402

CFG = Config.default()
D = CFG.d
POOL = [g for _, g in CFG.gens] + [g.inverse() for _, g in CFG.gens]

letters = st.integers(0, D - 1)
nonzero = st.integers(1, D - 1)
words = st.lists(st.sampled_from(POOL), max_size=4).map(tuple)
# the first-letter 3-cycles: g^3 = 1 holds exactly but free reduction misses it
CUBES = [(g, g, g) for name, g in CFG.gens if name.startswith("a")]
prefixes = st.lists(letters, max_size=4).map(tuple)
periodic = st.builds(
    periodic_point,
    st.just(D),
    prefixes,
    st.lists(letters, min_size=1, max_size=3).filter(any).map(tuple),
)
doubled = st.builds(zero_pair_point, st.just(D), prefixes, nonzero, letters)
points = st.one_of(periodic, doubled)
clopens = st.lists(st.tuples(points, st.integers(1, 2)), min_size=1, max_size=2).map(
    lambda cyls: clopen(D, [encode(p, depth) for p, depth in cyls])
)

PROPERTY = settings(max_examples=40, deadline=None)


@PROPERTY
@given(words, words, points)
def test_act_is_a_group_action(u, v, p):
    assert act(u + v, p) == act(u, act(v, p))
    assert act(inverse_word(u), act(u, p)) == p


def _rebuilt(q):
    """``q`` rebuilt by the checked constructors from its letters unrolled
    past the prefix, so that the rebuild must normalise them again."""
    if isinstance(q.tail, ZeroPair):
        return zero_pair_point(q.d, q.prefix + (0, 0), q.tail.a, q.tail.b)
    per = q.tail.word
    k = (len(per) + 1) % len(per)
    return periodic_point(q.d, q.letters(len(q.prefix) + len(per) + 1), per[k:] + per[:k])


def _assert_same_record(made, checked):
    """``made`` (by a slot builder) behaves as the ``checked`` rebuild:
    equal with the same hash, frozen field by field, no instance dict,
    and unchanged by pickle and deepcopy."""
    assert made == checked and hash(made) == hash(checked)
    assert not hasattr(made, "__dict__")
    for f in dataclasses.fields(made):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(made, f.name, getattr(made, f.name))
    assert pickle.loads(pickle.dumps(made)) == made
    assert copy.deepcopy(made) == made


@PROPERTY
@given(points, words, st.integers(0, 8))
def test_unchecked_constructions_equal_their_checked_rebuilds(p, w, n):
    # encode, decode and act build without the public checks; what they
    # build must pass those checks and be in normal form
    e = encode(p, n)
    _assert_same_record(e, PathPrefix(e.d, e.labels, e.end))
    for q in (decode(e), act(w, p)):
        rebuilt = _rebuilt(q)
        _assert_same_record(q, rebuilt)
        _assert_same_record(q.tail, rebuilt.tail)


@PROPERTY
@given(words, clopens, clopens)
def test_image_of_clopen_preserves_boolean_operations(w, U, V):
    iU, iV = image_of_clopen(w, U), image_of_clopen(w, V)
    assert image_of_clopen(w, U.union(V)) == iU.union(iV)
    assert image_of_clopen(w, U.intersect(V)) == iU.intersect(iV)
    assert image_of_clopen(w, U.complement()) == iU.complement()


@PROPERTY
@given(words, clopens)
def test_image_of_clopen_is_a_bijection(w, C):
    image = image_of_clopen(w, C)
    assert image_of_clopen(inverse_word(w), image) == C
    assert image_of_clopen(w, C.complement()) == image.complement()


@PROPERTY
@given(words)
def test_word_times_inverse_reduces_to_empty(w):
    assert reduce_word(w + inverse_word(w)) == ()


@PROPERTY
@given(
    words,
    st.one_of(
        words.map(lambda x: ("free", x)),
        st.sampled_from(CUBES).map(lambda x: ("cube", x)),
        words.map(lambda x: ("other", x)),
    ),
    st.integers(0, 4),
    st.lists(points, min_size=1, max_size=4),
)
def test_equals_agrees_with_action(u, insert, k, pts):
    # v is u with a trivial word (x x^-1 or a cube) spliced in, or unrelated
    how, x = insert
    k = min(k, len(u))
    v = x if how == "other" else u[:k] + x + (inverse_word(x) if how == "free" else ()) + u[k:]
    same = equals(u, v)
    if how != "other":
        assert same
    if same:
        for p in pts:
            assert act(u, p) == act(v, p)


@PROPERTY
@given(clopens, clopens, st.lists(points, min_size=1, max_size=6))
def test_clopen_boolean_laws_against_membership(U, V, pts):
    union, meet, comp = U.union(V), U.intersect(V), U.complement()
    for p in pts:
        assert union.member(p) == (U.member(p) or V.member(p))
        assert meet.member(p) == (U.member(p) and V.member(p))
        assert comp.member(p) == (not U.member(p))
