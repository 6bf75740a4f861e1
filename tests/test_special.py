import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sp

from conftest import empty_gamma_memo, hexes, ref_erfc, ref_normal_cdf, ref_q
from ropufsim import special
from ropufsim.special import erfc, normal_cdf, reg_gamma_upper


def test_reg_gamma_upper_matches_scipy_to_1e10():
    for a in (0.5, 1.0, 1.5, 2.0, 3.0, 4.5, 8.0, 16.0, 30.0, 64.0):
        for x in np.concatenate([np.linspace(1e-6, 5 * a, 50), [a, a + 1.0, 10 * a]]):
            ref = sp.gammaincc(a, x)
            if ref < 1e-290:
                continue
            assert reg_gamma_upper(a, float(x)) == pytest.approx(ref, rel=1e-10)


def test_reg_gamma_edges():
    assert reg_gamma_upper(2.0, 0.0) == 1.0
    assert reg_gamma_upper(1.0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-12)
    with pytest.raises(ValueError):
        reg_gamma_upper(-1.0, 1.0)
    with pytest.raises(ValueError):
        reg_gamma_upper(1.0, -0.5)


def test_erfc_matches_scipy():
    for x in np.linspace(-6.0, 6.0, 241):
        assert erfc(float(x)) == pytest.approx(float(sp.erfc(x)), rel=1e-11, abs=1e-300)


def test_erfc_closed_form_points():
    # hand-checkable anchors
    assert erfc(0.0) == 1.0
    # frequency-test example: S=2, n=10 -> erfc(0.6325/sqrt(2)) ~ 0.5271
    assert erfc(0.6325 / math.sqrt(2.0)) == pytest.approx(0.5271, abs=5e-5)


def test_normal_cdf_symmetry():
    assert normal_cdf(0.0) == pytest.approx(0.5, abs=1e-15)
    for x in (0.5, 1.0, 1.96, 3.0):
        assert normal_cdf(x) + normal_cdf(-x) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("args, match", [
    ((math.nan, 1.0), "shape parameter a must not be NaN"),
    ((math.inf, 1.0), "shape parameter a must be finite"),
    ((-math.inf, 1.0), "shape parameter a must be positive"),
    ((1.0, math.nan), "argument x must not be NaN"),
    ((1.0, -math.inf), "argument x must be non-negative"),
])
def test_reg_gamma_rejects_bad_arguments_by_name(args, match):
    with empty_gamma_memo() as memo:
        with pytest.raises(ValueError, match=match):
            reg_gamma_upper(*args)
        assert memo._memo == {} and memo._memo_size == 0


def test_reg_gamma_at_infinity_is_zero():
    with empty_gamma_memo() as memo:
        assert reg_gamma_upper(1.0, math.inf) == 0.0
        assert reg_gamma_upper(0.5, math.inf) == 0.0
        assert memo._memo_size == 0


@pytest.mark.parametrize("fn, name", [(erfc, "erfc"), (normal_cdf, "normal_cdf")])
def test_nan_rejected_by_name(fn, name):
    with pytest.raises(ValueError, match=f"{name} argument x must not be NaN"):
        fn(math.nan)


def test_erfc_and_normal_cdf_limits():
    assert erfc(math.inf) == 0.0 and erfc(-math.inf) == 2.0
    assert normal_cdf(math.inf) == 1.0 and normal_cdf(-math.inf) == 0.0


@settings(max_examples=300, deadline=None)
@given(
    a=st.floats(min_value=1e-6, max_value=500.0),
    x=st.one_of(st.sampled_from([0.0, -0.0]), st.floats(min_value=0.0, max_value=2000.0)),
)
def test_memoized_value_is_the_uncached_evaluation(a, x):
    fresh = special._reg_gamma_upper(a, x) if x > 0.0 else 1.0
    with empty_gamma_memo():
        miss = reg_gamma_upper(a, x)
        hit = reg_gamma_upper(a, x)
    assert miss.hex() == fresh.hex() and hit.hex() == fresh.hex()


def test_memo_stops_growing_at_its_cap():
    cap = special._MEMO_CAP
    xs = [0.5 + i / 64.0 for i in range(cap + 64)]
    with empty_gamma_memo() as memo:
        first = [reg_gamma_upper(1.5, x) for x in xs]
        assert memo._memo_size == cap
        assert sum(len(by_x) for by_x in memo._memo.values()) == cap
        assert xs[cap] not in memo._memo[1.5]
        again = [reg_gamma_upper(1.5, x) for x in xs]
        assert memo._memo_size == cap
    fresh = [special._reg_gamma_upper(1.5, x) for x in xs]
    assert [q.hex() for q in first] == [q.hex() for q in fresh]
    assert [q.hex() for q in again] == [q.hex() for q in fresh]


# Every shape the SP 800-22 suite asks for at 100 to 1023 bits: erfc's 1/2,
# serial, approximate entropy, longest run, uniformity and block frequency.
SUITE_SHAPES = (0.5, 1.0, 1.5, 2.0, 2.5, 4.0, 4.5, 8.0, 16.0, 25.0, 25.5, 32.0)


@pytest.mark.parametrize("a", SUITE_SHAPES)
def test_q_map_equals_scalar_evaluations(a):
    # random and half-integer statistics, the crossover a + 1, zeros, inf,
    # extremes and repeats within one call, with the memo empty and warm
    rng = np.random.default_rng(int(4 * a))
    xs = np.concatenate([
        rng.uniform(0.0, 3.0 * a + 10.0, 150), rng.integers(0, 60, 50) / 2.0,
        [0.0, -0.0, math.inf, a, a + 1.0, np.nextafter(a + 1.0, 0.0), 1e-300, 1e4],
    ])
    xs = np.concatenate([xs, xs[::7]])
    want = hexes([ref_q(a, x) for x in xs.tolist()])
    with empty_gamma_memo() as memo:
        cold = reg_gamma_upper(a, xs)
        assert memo._memo_size == len({x for x in xs.tolist() if 0.0 < x < math.inf})
        warm = reg_gamma_upper(a, xs.reshape(2, -1))
    assert hexes(cold) == want
    assert warm.shape == (2, len(xs) // 2) and hexes(warm) == want


def test_erfc_and_normal_cdf_maps_equal_scalar_formulas():
    # both signs, 0, the underflow cut at 27 and its float neighbours, inf
    cut = [27.0, np.nextafter(27.0, 0.0), np.nextafter(27.0, 30.0), 38.5]
    xs = np.concatenate([np.linspace(-45.0, 45.0, 901), [0.0, -0.0, math.inf, -math.inf],
                         cut, np.negative(cut)])
    with empty_gamma_memo():
        for _ in range(2):  # empty, then warm memo
            assert hexes(erfc(xs)) == hexes([ref_erfc(x) for x in xs.tolist()])
            assert hexes(normal_cdf(xs)) == hexes([ref_normal_cdf(x) for x in xs.tolist()])


def test_maps_keep_shape_and_give_floats_for_floats():
    x = np.linspace(0.0, 4.0, 12).reshape(3, 4)
    for fn in (erfc, normal_cdf, lambda v: reg_gamma_upper(1.5, v)):
        assert fn(x).shape == (3, 4)
        assert fn(np.empty((0,))).shape == (0,)
        assert type(fn(1.25)) is float
        assert fn(1.25) == fn(np.array([1.25]))[0]


@pytest.mark.parametrize("bad, match", [
    (math.nan, "argument x must not be NaN"),
    (-1.0, "argument x must be non-negative, got -1.0"),
])
def test_q_map_rejects_a_bad_element_storing_nothing(bad, match):
    with empty_gamma_memo() as memo:
        with pytest.raises(ValueError, match=match):
            reg_gamma_upper(1.5, np.array([0.5, 2.0, bad, 3.0]))
        assert memo._memo == {} and memo._memo_size == 0
    for fn, name in ((erfc, "erfc"), (normal_cdf, "normal_cdf")):
        with pytest.raises(ValueError, match=f"{name} argument x must not be NaN"):
            fn(np.array([0.5, math.nan]))
