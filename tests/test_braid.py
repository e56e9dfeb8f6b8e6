"""Free-group words, and the tests' half-twists and Artin action."""

from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from arrgroup import (
    format_word,
    free_reduce,
    parse_word,
    word_inverse,
    word_mul,
)
from reference import artin_apply, braid_inverse, halftwist

ELL = 5

letters = st.integers(min_value=-4, max_value=4).filter(lambda c: c != 0)
words = st.lists(letters, max_size=12).map(tuple)
braids = st.lists(letters, max_size=10).map(tuple)


def naive_reduce(w):
    out = list(w)
    again = True
    while again:
        again = False
        for i in range(len(out) - 1):
            if out[i] == -out[i + 1]:
                del out[i : i + 2]
                again = True
                break
    return tuple(out)


@given(words)
def test_free_reduce_matches_naive_scan(w):
    assert free_reduce(w, 4) == naive_reduce(w)


@given(words)
def test_free_reduce_idempotent(w):
    once = free_reduce(w, 4)
    assert free_reduce(once, 4) == once


@given(words)
def test_word_times_inverse_cancels(w):
    assert free_reduce(word_mul(w, word_inverse(w)), 4) == ()
    assert free_reduce(word_mul(word_inverse(w), w), 4) == ()


def test_word_mul_concatenates_left_to_right():
    assert word_mul((1,), (2,)) == (1, 2)
    assert word_mul((1, 2), (-2,), (3,)) == (1, 3)


def test_free_reduce_rejects_out_of_range_letters():
    with pytest.raises(ValueError):
        free_reduce((1, 7), 4)
    with pytest.raises(ValueError):
        free_reduce((0,), 4)


@pytest.mark.parametrize("a,b", [(1, 2), (2, 4), (1, 5), (3, 5)])
def test_halftwist_length(a, b):
    tw = halftwist(a, b, ELL)
    assert len(tw) == comb(b - a + 1, 2)
    assert all(a <= c < b for c in tw)


def test_halftwist_adjacent_pair_is_one_generator():
    assert halftwist(2, 3, ELL) == (2,)


@pytest.mark.parametrize("a,b", [(0, 2), (3, 3), (4, 2), (2, ELL + 1)])
def test_halftwist_rejects_out_of_range_intervals(a, b):
    with pytest.raises(ValueError, match="need 1 <= a < b <= ell"):
        halftwist(a, b, ELL)


@pytest.mark.parametrize("braid", [(0,), (1, -ELL), (ELL,)])
def test_artin_apply_rejects_out_of_range_strands(braid):
    with pytest.raises(ValueError, match="strand index -?[05] out of range"):
        artin_apply(braid, (1,), ELL)


@pytest.mark.parametrize("ell", range(2, 10))
def test_inverse_halftwist_has_a_closed_form(ell):
    # vankampen.presentation applies each inverse half-twist in this form:
    # x_g -> T^-1 x_h T with h = a+b-g and T = x_{h+1} ... x_b for g in
    # a..b, every other generator fixed
    for a in range(1, ell):
        for b in range(a + 1, ell + 1):
            twist = braid_inverse(halftwist(a, b, ell))
            for g in range(1, ell + 1):
                if a <= g <= b:
                    h = a + b - g
                    tail = tuple(range(h + 1, b + 1))
                    expected = word_inverse(tail) + (h,) + tail
                else:
                    expected = (g,)
                assert artin_apply(twist, (g,), ell) == expected, (a, b, g)


@pytest.mark.parametrize("ell", range(2, 9))
def test_braid_relations_act_identically(ell):
    gens = [(g,) for g in range(1, ell + 1)]

    def same_action(b1, b2):
        return all(
            artin_apply(b1, g, ell) == artin_apply(b2, g, ell) for g in gens
        )

    for i in range(1, ell - 1):
        assert same_action((i, i + 1, i), (i + 1, i, i + 1))
    for i in range(1, ell):
        for j in range(i + 2, ell):
            assert same_action((i, j), (j, i))


@given(braids, words)
def test_artin_action_invertible(braid, w):
    ell = ELL
    forward = artin_apply(braid, w, ell)
    assert artin_apply(braid_inverse(braid), forward, ell) == free_reduce(w, ell)


@given(braids)
def test_artin_action_preserves_boundary_product(braid):
    boundary = tuple(range(1, ELL + 1))
    assert artin_apply(braid, boundary, ELL) == boundary


@given(braids, words, words)
def test_artin_action_is_a_homomorphism_on_words(braid, u, v):
    both = artin_apply(braid, word_mul(u, v), ELL)
    split = free_reduce(
        word_mul(artin_apply(braid, u, ELL), artin_apply(braid, v, ELL)), ELL
    )
    assert both == split


def test_braid_inverse_reverses_and_negates():
    assert braid_inverse((1, -2, 3)) == (-3, 2, -1)
    assert braid_inverse(()) == ()


def test_word_format_round_trip():
    w = (1, -3, 2, 2, -1)
    assert parse_word(format_word(w)) == w
    assert parse_word(format_word(())) == ()


@pytest.mark.parametrize("token", ["x-1", "x+2", "x", "x1.0", "x1^-1^-1",
                                   "x\u0663"])
def test_parse_word_takes_only_decimal_digits_after_the_letter(token):
    with pytest.raises(ValueError, match="cannot parse word token"):
        parse_word(token)

