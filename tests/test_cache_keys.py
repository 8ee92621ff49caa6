"""Cache keys: equal ellipses share one memoised system, unequal ones do not."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

import szegopoly
from szegopoly import szego
from szegopoly.domains import Ellipse
from szegopoly.polynomials import PolyZZbar

F3 = PolyZZbar.var_zbar() ** 3

SPELLINGS = [
    Ellipse(2, 1),
    Ellipse.from_string("2,1"),
    Ellipse.from_string(" 4/2 , 2/2 , 0 , -0/7 "),
    Ellipse(Fraction(4, 2), "1", 0, Fraction(0, 5)),
    Ellipse("2", Fraction(3, 3), h="0"),
]


def test_equal_ellipses_from_different_spellings_hash_equal():
    for e in SPELLINGS:
        assert e == SPELLINGS[0] and hash(e) == hash(SPELLINGS[0])
    assert len({(e, 3) for e in SPELLINGS}) == 1
    szegopoly.clear_caches()
    projections = {szego.szego_project(e, F3) for e in SPELLINGS}
    info = szego._square_system.cache_info()
    assert (info.currsize, info.misses, info.hits) == (1, 1, len(SPELLINGS) - 1)
    assert len(projections) == 1


def test_different_ellipses_are_different_keys():
    e = Ellipse(2, 1, Fraction(1, 3), 0)
    assert e != Ellipse(2, 1, 0, Fraction(1, 3))
    assert e != Ellipse(1, 2, Fraction(1, 3), 0)
    assert e != e.to_ellipsoid() and e != (2, 1, Fraction(1, 3), 0)
    szegopoly.clear_caches()
    for d in (e, Ellipse(2, 1, 0, Fraction(1, 3)), Ellipse(1, 2, Fraction(1, 3), 0)):
        szego.szego_project(d, F3)
    info = szego._square_system.cache_info()
    assert (info.currsize, info.misses, info.hits) == (3, 3, 0)


fields = st.fractions(min_value=-3, max_value=3, max_denominator=6)
axes = st.fractions(min_value=Fraction(1, 6), max_value=3, max_denominator=6)
quadruples = st.tuples(axes, axes, fields, fields)


@settings(max_examples=100)
@given(quadruples, quadruples)
def test_ellipse_equality_and_hash_follow_the_fields(p, q):
    e, f = Ellipse(*p), Ellipse(*q)
    assert (e == f) == (p == q)
    assert (e != f) == (p != q)
    if e == f:
        assert hash(e) == hash(f)
    spelled = Ellipse(*(str(v) for v in p))
    assert spelled == e and hash(spelled) == hash(e)
