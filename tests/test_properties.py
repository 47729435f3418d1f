"""Hypothesis properties of the point action and of clopen images.

Words act as composed functions, the rightmost letter first, so the word
``u + v`` acts as ``u`` after ``v``.  Strategies stay small (short words,
short prefixes and periods, shallow cylinders) to keep the suite fast.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from alttree.core import Config, inverse_word  # noqa: E402
from alttree.diagram import clopen, encode, image_of_clopen  # noqa: E402
from alttree.points import act, periodic_point, zero_pair_point  # noqa: E402

CFG = Config.default()
D = CFG.d
POOL = [g for _, g in CFG.gens] + [g.inverse() for _, g in CFG.gens]

letters = st.integers(0, D - 1)
nonzero = st.integers(1, D - 1)
words = st.lists(st.sampled_from(POOL), max_size=4).map(tuple)
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


@PROPERTY
@given(words, clopens, clopens)
def test_image_of_clopen_preserves_boolean_operations(w, U, V):
    iU, iV = image_of_clopen(w, U), image_of_clopen(w, V)
    assert image_of_clopen(w, U.union(V)) == iU.union(iV)
    assert image_of_clopen(w, U.intersect(V)) == iU.intersect(iV)
    assert image_of_clopen(w, U.complement()) == iU.complement()
