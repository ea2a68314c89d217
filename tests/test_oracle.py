"""Eisenstein predicate and brute-force enumeration tests."""

import ast
import itertools
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eisencount import oracle
from eisencount.counting import count_monic_eisenstein
from eisencount.errors import BudgetExceededError
from eisencount.oracle import (Polynomial, brute_count_general,
                               brute_count_monic, eisenstein_witnesses,
                               is_eisenstein)
from eisencount.results import VARIANTS, box_size, check_box


def test_polynomial_basics():
    f = Polynomial((2, -3, 1))
    assert f.degree == 2
    assert f.height == 3
    assert f.constant_term == 2
    assert f.leading_coefficient == 1


def test_polynomial_accepts_lists_and_rejects_empty():
    assert Polynomial([1, 2]).coefficients == (1, 2)
    with pytest.raises(ValueError):
        Polynomial(())


def test_witness_examples():
    assert eisenstein_witnesses(Polynomial((2, 2, 1))) == [2]
    assert eisenstein_witnesses(Polynomial((6, 6, 1))) == [2, 3]
    assert eisenstein_witnesses(Polynomial((4, 3, 1))) == []
    # a lead that one candidate prime of a_0 divides and another does not
    assert eisenstein_witnesses(Polynomial((6, 6, 2))) == [3]
    assert eisenstein_witnesses(Polynomial((-6, 0, 3))) == [2]
    assert eisenstein_witnesses(Polynomial((30, 30, 6))) == [5]
    assert eisenstein_witnesses(Polynomial((-30, 0, 10))) == [3]
    assert eisenstein_witnesses(Polynomial((30, 30, 15))) == [2]


def test_zero_constant_term_never_qualifies():
    for middle in (0, 2, 6):
        assert eisenstein_witnesses(Polynomial((0, middle, 1))) == []


def test_is_eisenstein_examples():
    assert is_eisenstein(Polynomial((2, 2, 1)))
    assert not is_eisenstein(Polynomial((4, 0, 1)))
    assert is_eisenstein(Polynomial((3, 6, 2)))


def test_criterion_defined_for_linear_but_not_constant():
    assert eisenstein_witnesses(Polynomial((2, 1))) == [2]
    with pytest.raises(ValueError):
        eisenstein_witnesses(Polynomial((5,)))
    with pytest.raises(ValueError):
        is_eisenstein(Polynomial((5,)))


def test_brute_monic_examples():
    assert brute_count_monic(2, 1).value == 0
    assert brute_count_monic(2, 2).value == 6
    assert brute_count_monic(2, 3).value == 12
    assert brute_count_monic(3, 2).value == 18


def test_brute_general_examples():
    assert brute_count_general(2, 1).value == 0
    assert brute_count_general(2, 2).value == 12
    assert brute_count_general(2, 3).value == 48


def test_brute_count_metadata():
    c = brute_count_monic(2, 2)
    assert (c.degree, c.height, c.variant, c.method) == (2, 2, "monic", "brute")
    c = brute_count_general(2, 2)
    assert (c.variant, c.method) == ("general", "brute")


def test_budget_refusal_is_not_silent():
    # 5^2 = 25 polynomials: a budget of 25 just fits, 24 refuses
    assert brute_count_monic(2, 2, budget=25).value == 6
    with pytest.raises(BudgetExceededError):
        brute_count_monic(2, 2, budget=24)
    # the general box has one more free coefficient: 5^3 = 125
    assert brute_count_general(2, 2, budget=125).value == 12
    with pytest.raises(BudgetExceededError):
        brute_count_general(2, 2, budget=124)
    with pytest.raises(BudgetExceededError):
        brute_count_monic(4, 50, budget=10**8)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_check_box_refuses_exactly_the_boxes_over_budget(variant):
    for d in range(2, 7):
        for H in range(1, 5):
            size = box_size(variant, d, H)
            check_box(variant, d, H, size)
            exponent = d + VARIANTS[variant] - 1
            with pytest.raises(BudgetExceededError,
                               match=fr"needs {2 * H + 1}\^{exponent} "):
                check_box(variant, d, H, size - 1)


def test_argument_validation():
    for bad in (brute_count_monic, brute_count_general):
        with pytest.raises(ValueError):
            bad(1, 5)
        with pytest.raises(ValueError):
            bad(2, 0)
        with pytest.raises(ValueError):
            bad(2, 2, budget=0)
        with pytest.raises(ValueError):  # checked before the box size
            bad(-1, 10**400)


def _predicate_count_monic(d, H):
    span = range(-H, H + 1)
    return sum(
        1 for coeffs in itertools.product(span, repeat=d)
        if is_eisenstein(Polynomial(coeffs + (1,)))
    )


def _predicate_count_general(d, H):
    span = range(-H, H + 1)
    return sum(
        1 for coeffs in itertools.product(span, repeat=d + 1)
        if is_eisenstein(Polynomial(coeffs))
    )


def test_fast_enumeration_matches_plain_predicate_loop():
    # the block counts must agree with the one-call-per-polynomial route
    # they shortcut; a_0 = +-6 (H >= 6) and +-30 (H >= 30) have two and
    # three candidate primes, so H = 6, 10, 30 check the OR across them
    for d, H in ((2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2),
                 (2, 6), (2, 10), (2, 30)):
        assert brute_count_monic(d, H).value == _predicate_count_monic(d, H)
        assert brute_count_general(d, H).value == _predicate_count_general(d, H)


_PREDICATE_COUNTS = {"monic": _predicate_count_monic,
                     "general": _predicate_count_general}
_BRUTE_COUNTS = {"monic": brute_count_monic, "general": brute_count_general}


@st.composite
def _small_boxes(draw):
    """(variant, d, H) whose box holds at most 2 * 10^4 polynomials."""
    variant = draw(st.sampled_from(sorted(VARIANTS)))
    d = draw(st.integers(2, 8))
    h_max = 1
    while box_size(variant, d, h_max + 1) <= 2 * 10**4:
        h_max += 1
    return variant, d, draw(st.integers(1, h_max))


@settings(max_examples=50, deadline=None)
@given(box=_small_boxes())
def test_block_enumeration_matches_plain_predicate_loop(box):
    variant, d, H = box
    assert (_BRUTE_COUNTS[variant](d, H).value
            == _PREDICATE_COUNTS[variant](d, H))


@pytest.mark.parametrize("sizes", [
    [1], [3], [1, 5, 5], [41, 41, 41], [1] + [5] * 10, [13] * 5,
    [oracle.BLOCK + 7], [2, oracle.BLOCK - 1], [300, 300], [7, 1, 9400],
], ids=lambda sizes: "x".join(map(str, sizes)))
def test_blocks_tile_the_box_once_and_stay_small(sizes):
    seen = np.zeros(sizes, np.int8)
    for block in oracle._blocks(sizes):
        assert seen[block].size <= oracle.BLOCK
        seen[block] += 1
    assert (seen == 1).all()


def test_block_memory_stays_a_few_blocks(sieve):
    # 5^10 middle coefficients per a_0 = +-2: unblocked, about 10 MB of
    # booleans per slab; in blocks, a block and its last outer step.  The
    # bound is absolute, three blocks of 2^16 cells, so that a larger
    # BLOCK fails here too.
    brute_count_monic(2, 2)
    tracemalloc.start()
    try:
        value = brute_count_monic(11, 2).value
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 2**16
    assert value == count_monic_eisenstein(11, 2, sieve).value


@settings(max_examples=60, deadline=None)
@given(H=st.integers(1, 300))
def test_strided_divisibility_mask_matches_the_modulo(H):
    # p runs past 2H, where only the value 0 is a multiple.
    span = np.arange(-H, H + 1)
    for p in range(2, 2 * H + 3):
        assert np.array_equal(oracle._divisible(H, p), span % p == 0), p


def test_counts_monotone_and_bounded():
    prev_m = prev_g = 0
    for H in range(1, 8):
        m = brute_count_monic(2, H).value
        g = brute_count_general(2, H).value
        assert m >= prev_m and g >= prev_g
        assert m <= (2 * H + 1) ** 2
        assert g <= 2 * H * (2 * H + 1) ** 2
        prev_m, prev_g = m, g


def test_parity_structure():
    for d, H in ((2, 5), (3, 3), (2, 8)):
        assert brute_count_monic(d, H).value % 2 == 0
        assert brute_count_general(d, H).value % 4 == 0


coefficient = st.integers(min_value=-40, max_value=40)


@given(coeffs=st.lists(coefficient, min_size=2, max_size=6), index=st.data())
def test_sign_flips_preserve_the_predicate(coeffs, index):
    f = Polynomial(tuple(coeffs))
    i = index.draw(st.integers(min_value=0, max_value=f.degree))
    flipped = list(coeffs)
    flipped[i] = -flipped[i]
    assert is_eisenstein(f) == is_eisenstein(Polynomial(tuple(flipped)))


@given(coeffs=st.lists(coefficient, min_size=2, max_size=6))
def test_witnesses_divide_the_constant_term(coeffs):
    f = Polynomial(tuple(coeffs))
    for p in eisenstein_witnesses(f):
        assert p <= abs(f.constant_term)
        assert f.constant_term % p == 0
        assert f.constant_term % (p * p) != 0
        assert f.leading_coefficient % p != 0


@given(coeffs=st.lists(coefficient, min_size=2, max_size=5))
def test_witness_list_is_ascending(coeffs):
    ws = eisenstein_witnesses(Polynomial(tuple(coeffs)))
    assert ws == sorted(ws)


def test_oracle_imports_nothing_from_the_fast_path():
    tree = ast.parse(Path(oracle.__file__).read_text())
    internal = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level or module.startswith("eisencount"):
                internal.add(module)
        elif isinstance(node, ast.Import):
            internal.update(alias.name for alias in node.names
                            if alias.name.startswith("eisencount"))
    # Only the neutral modules: the oracle stays independent of counting.
    assert internal == {"errors", "results"}
