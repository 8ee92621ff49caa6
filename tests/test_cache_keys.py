"""Cache keys and the bounded LRU table that holds every memoised system."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from szegopoly.domains import Ellipse
from szegopoly.lru import LRUCache

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
    cache = LRUCache(4)
    cache[(SPELLINGS[0], 3)] = "system"
    assert all(cache.get((e, 3)) == "system" for e in SPELLINGS)
    assert len({(e, 3) for e in SPELLINGS}) == 1


def test_different_ellipses_are_different_keys():
    e = Ellipse(2, 1, Fraction(1, 3), 0)
    assert e != Ellipse(2, 1, 0, Fraction(1, 3))
    assert e != Ellipse(1, 2, Fraction(1, 3), 0)
    assert e != e.to_ellipsoid() and e != (2, 1, Fraction(1, 3), 0)
    assert LRUCache(2).get((e, 3), "miss") == "miss"


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


def test_lru_evicts_least_recently_used_and_get_refreshes():
    cache = LRUCache(3)
    for key in "abc":
        cache[key] = key.upper()
    assert cache.get("a") == "A"  # a is now the most recently used
    assert cache.get("z") is None and cache.get("z", 0) == 0
    assert "z" not in cache
    cache["d"] = "D"  # evicts b, the least recently used
    assert list(cache) == ["c", "a", "d"]
    cache["c"] = "C2"  # assignment refreshes too
    cache["e"] = "E"  # evicts a
    assert list(cache.items()) == [("d", "D"), ("c", "C2"), ("e", "E")]


def test_lru_hit_with_an_equal_ellipse_refreshes_the_stored_key():
    cache = LRUCache(2)
    first, second = Ellipse(2, 1), Ellipse(3, 2)
    cache[(first, 4)] = 1
    cache[(second, 4)] = 2
    assert cache.get((Ellipse.from_string("2,1"), 4)) == 1
    cache[(Ellipse(5, 4), 4)] = 3  # evicts the 3x2 ellipse
    assert list(cache) == [(first, 4), (Ellipse(5, 4), 4)]
    assert next(iter(cache))[0] is first
