import math

import numpy as np
import pytest
from scipy import special as sp

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
