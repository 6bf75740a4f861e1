import contextlib
import math

import numpy as np
import pytest

from ropufsim import special
from ropufsim.chipmodel import ChipProfile, DeviceSpec, build_fabric, synth_chip


@contextlib.contextmanager
def empty_gamma_memo():
    """Run the block with an empty incomplete-gamma memo, then put the
    process's memo back as it was."""
    saved = special._memo, special._memo_size
    special._memo, special._memo_size = {}, 0
    try:
        yield special
    finally:
        special._memo, special._memo_size = saved


# The scalar special functions the array maps replaced, as references: one
# float at a time, Q evaluated afresh by the series or continued fraction,
# so no memo is involved.
def ref_q(a: float, x: float) -> float:
    if x == 0.0:
        return 1.0
    return 0.0 if x == math.inf else special._reg_gamma_upper(a, x)


def ref_erfc(x: float) -> float:
    if x > 0.0:
        return 0.0 if x > 27.0 else ref_q(0.5, x * x)
    return 2.0 - ref_erfc(-x) if x < 0.0 else 1.0


def ref_normal_cdf(x: float) -> float:
    return 0.5 * ref_erfc(-x / math.sqrt(2.0))


def hexes(values) -> list[str]:
    """Each float's exact bits, so -0.0 and 0.0 differ."""
    return [float(v).hex() for v in np.asarray(values, dtype=float).ravel().tolist()]


def toy_spec(**overrides) -> DeviceSpec:
    base = dict(
        kind="custom",
        site_count=400,
        mean_freq_base=400.0,
        mean_span=30.0,
        sigma_span=200.0,
        class_bias={"L12": 8.0, "L3": 4.0, "M": 0.0},
        systematic_gradient=0.1,
        meas_sigma=50.0,
        erroneous_fraction=0.02,
    )
    base.update(overrides)
    return DeviceSpec(**base)


@pytest.fixture
def small_spec() -> DeviceSpec:
    return toy_spec()


@pytest.fixture
def small_chip(small_spec) -> ChipProfile:
    return synth_chip(small_spec, device_seed=11)


def manual_chip(freqs, temp_coeff=None, volt_coeff=None, meas_sigma=0.0) -> ChipProfile:
    """Chip with hand-picked frequencies/coefficients on a minimal fabric."""
    n = len(freqs)
    spec = toy_spec(site_count=n, mean_span=0.0, sigma_span=0.0,
                    class_bias={}, systematic_gradient=0.0,
                    meas_sigma=0.0, erroneous_fraction=0.0, central_exclusion=0.0)
    return ChipProfile(
        device_id="manual",
        layout=build_fabric(spec),
        nominal_freq=np.asarray(freqs, dtype=float),
        temp_coeff=None if temp_coeff is None else np.full(n, temp_coeff, dtype=float),
        volt_coeff=None if volt_coeff is None else np.full(n, volt_coeff, dtype=float),
        meas_sigma_site=np.full(n, meas_sigma, dtype=float),
    )
