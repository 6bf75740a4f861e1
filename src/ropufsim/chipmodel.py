"""Virtual FPGA fabric with per-slice ring-oscillator frequency populations.

A synthesized chip carries one nominal (reference-condition) frequency per
slice site, composed of a family-wide base, a routing-class offset, a planar
systematic gradient and a per-device random component.  Environmental
response is affine in temperature and relative supply voltage.  Measurement
produces integer pulse counts over a fixed enable window.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import statistics
from dataclasses import asdict, dataclass, field, fields
from enum import Enum
from typing import Mapping, Optional, Sequence

import numpy as np

KHZ_TO_MHZ = 1e-3

REFERENCE_TEMP_C = 35.0
REFERENCE_VCC_MV = 1000.0

DEFAULT_T_ON_US = 122.87
DEFAULT_SAMPLES = 32


class ConfigError(ValueError):
    """Raised for an invalid device specification or config file."""


class DataError(ValueError):
    """Raised for inconsistent ingested measurement data."""


def read_text(path: str) -> str:
    """A file's UTF-8 text; bytes that are not UTF-8 raise ``DataError``
    naming the file and line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise DataError(f"{path}:{lineno}: not UTF-8 text") from None


# A data file's numbers must be ASCII: int() and float() alone would also
# take underscores between digits, non-ASCII digits and Unicode spaces.
def ascii_int(text: str) -> int:
    """``int(text)`` of ASCII decimal digits with an optional sign, between
    optional ASCII whitespace; any other text raises ``ValueError``."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"invalid literal for int, not ASCII decimal digits: {text!r}")
    return int(text)


def ascii_float(text: str) -> float:
    """``float(text)`` of an ASCII decimal number (digits with an optional
    sign, point and exponent, or inf/nan), between optional ASCII whitespace;
    any other text raises ``ValueError``."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"could not convert to float, not an ASCII decimal number: {text!r}")
    return float(text)


class SliceClass(Enum):
    """Routing-delay class of a slice position within its CLB."""

    L12 = "L12"   # top-connected L slices
    L3 = "L3"     # bottom-connected L slices
    M = "M"       # bottom-connected M slices


CORNERS = ("TL", "TR", "BL", "BR")
CLASS_NAMES = tuple(c.value for c in SliceClass)


def corner_classes(corner: np.ndarray, clb_x: np.ndarray) -> np.ndarray:
    """Routing-class codes (indices into ``CLASS_NAMES``) of sites given by
    corner code (index into ``CORNERS``) and CLB column.

    Top corners always route as L12; bottom corners route as M in odd CLB
    columns, which carry M-type bottom slices, and as L3 otherwise.
    """
    # codes: L12 0, L3 1, M 2
    return np.where(corner < 2, 0, 1 + clb_x % 2)


@dataclass(frozen=True)
class EnvCondition:
    """Operating point: ambient temperature (degC) and supply voltage (mV)."""

    temp_c: float
    vcc_mv: float

    def is_reference(self) -> bool:
        return self.temp_c == REFERENCE_TEMP_C and self.vcc_mv == REFERENCE_VCC_MV


REFERENCE_ENV = EnvCondition(REFERENCE_TEMP_C, REFERENCE_VCC_MV)


def _finite_real(value) -> bool:
    return (
        not isinstance(value, bool)
        and isinstance(value, numbers.Real)
        and math.isfinite(value)
    )


@dataclass(frozen=True)
class DeviceSpec:
    """Statistical description of one FPGA family.

    Frequencies are MHz except ``sigma_span`` and ``meas_sigma`` which are
    kHz.  ``temp_coeff_*`` is fractional frequency change per degC,
    ``volt_coeff_*`` per unit of relative supply deviation (V - Vref)/Vref.
    """

    kind: str
    site_count: int
    mean_freq_base: float
    mean_span: float
    sigma_span: float
    class_bias: Mapping[str, float] = field(default_factory=dict)
    systematic_gradient: float = 0.0
    temp_coeff_mean: float = -1.0e-4
    temp_coeff_sigma: float = 2.0e-5
    volt_coeff_mean: float = 0.5
    volt_coeff_sigma: float = 0.02
    meas_sigma: float = 50.0
    central_exclusion: float = 0.05
    erroneous_fraction: float = 0.02
    erroneous_sigma_mult: float = 30.0

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "str" and not isinstance(value, str):
                raise ConfigError(f"{f.name} must be a string, got {value!r}")
            if f.type == "int" and (
                isinstance(value, bool) or not isinstance(value, numbers.Integral)
            ):
                raise ConfigError(f"{f.name} must be an integer, got {value!r}")
            if f.type == "float" and not _finite_real(value):
                raise ConfigError(f"{f.name} must be a finite number, got {value!r}")
        # the device ids made from it head the lines of responses.csv
        if not self.kind or any(c.isspace() or c == "," for c in self.kind):
            raise ConfigError(f"kind must be non-empty, without commas or whitespace, "
                              f"got {self.kind!r}")
        if not isinstance(self.class_bias, Mapping):
            raise ConfigError(f"class_bias must map slice classes to MHz, got {self.class_bias!r}")
        if self.site_count <= 0:
            raise ConfigError(f"site_count must be positive, got {self.site_count}")
        if self.mean_span < 0 or self.sigma_span < 0:
            raise ConfigError("mean_span and sigma_span must be non-negative")
        for name in ("meas_sigma", "temp_coeff_sigma", "volt_coeff_sigma", "erroneous_sigma_mult"):
            if (value := getattr(self, name)) < 0:
                raise ConfigError(f"{name} must be non-negative, got {value!r}")
        if not 0.0 <= self.central_exclusion < 0.5:
            raise ConfigError("central_exclusion must lie in [0, 0.5)")
        if not 0.0 <= self.erroneous_fraction < 1.0:
            raise ConfigError("erroneous_fraction must lie in [0, 1)")
        for name, bias in self.class_bias.items():
            if name not in SliceClass.__members__:
                raise ConfigError(f"unknown slice class {name!r} in class_bias")
            if not _finite_real(bias):
                raise ConfigError(f"class_bias[{name!r}] must be a finite number, got {bias!r}")


# Presets matching the measured population statistics of the three boards:
# site counts, mean-frequency spans (MHz) and sigma spans (kHz).  Class
# offsets place the basys3 class-conditional means at ~418.1 / ~410 / ~402.3
# MHz with the L12 > L3 > M ordering.
PRESETS: dict[str, DeviceSpec] = {
    "nexys4ddr": DeviceSpec(
        kind="nexys4ddr", site_count=11264, mean_freq_base=420.0,
        mean_span=64.78, sigma_span=249.4,
        class_bias={"L12": 18.0, "L3": 8.4, "M": 0.0},
        systematic_gradient=0.13,
    ),
    "basys3": DeviceSpec(
        kind="basys3", site_count=5696, mean_freq_base=402.3,
        mean_span=54.28, sigma_span=235.24,
        class_bias={"L12": 15.8, "L3": 7.7, "M": 0.0},
        systematic_gradient=0.135,
    ),
    "zybo": DeviceSpec(
        kind="zybo", site_count=3520, mean_freq_base=415.0,
        mean_span=54.71, sigma_span=229.4,
        class_bias={"L12": 15.9, "L3": 7.8, "M": 0.0},
        systematic_gradient=0.17,
    ),
}


def get_preset(name: str) -> DeviceSpec:
    try:
        return PRESETS[name]
    except KeyError:
        raise ConfigError(f"unknown device preset {name!r}; known: {sorted(PRESETS)}") from None


def load_device_spec(path: str) -> DeviceSpec:
    """Load a DeviceSpec from a JSON config file.

    The file may set ``"preset"`` to start from a built-in spec; any other
    keys override individual fields.  A file that cannot be read or is not
    a JSON object raises ``ConfigError`` naming the file.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read device spec ({exc.strerror or exc})") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: device spec is not valid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: device spec file must hold a JSON object")
    preset = raw.pop("preset", None)
    try:
        base = asdict(get_preset(preset)) if preset else {}
        base.update(raw)
        spec = DeviceSpec(**base)
        spec.validate()
    except TypeError as exc:
        raise ConfigError(f"{path}: bad device spec ({exc})") from None
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return spec


@dataclass(frozen=True, eq=False)
class FabricLayout:
    """Per-site arrays of one fabric, built once and shared read-only.

    Site i sits at CLB (``clb_x[i]``, ``clb_y[i]``) in corner
    ``CORNERS[corner[i]]`` and routes as ``CLASS_NAMES[class_codes[i]]``;
    ``excluded`` flags the sites never characterized.  Derived from those:
    ``active`` lists the non-excluded site indices and ``diag`` is
    clb_x + clb_y.  ``class_codes`` follow ``corner_classes`` when not given
    and ``excluded`` is all False when not given.
    """

    clb_x: np.ndarray
    clb_y: np.ndarray
    corner: np.ndarray
    class_codes: Optional[np.ndarray] = None
    excluded: Optional[np.ndarray] = None
    active: np.ndarray = field(init=False)
    diag: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        x, y = np.array(self.clb_x, dtype=np.int64), np.array(self.clb_y, dtype=np.int64)
        corner = np.array(self.corner, dtype=np.intp)
        codes = (corner_classes(corner, x) if self.class_codes is None
                 else np.array(self.class_codes, dtype=np.intp))
        excluded = (np.zeros(x.size, bool) if self.excluded is None
                    else np.array(self.excluded, bool))
        if not x.size == y.size == corner.size == codes.size == excluded.size:
            raise ValueError("fabric arrays differ in length")
        for name, a, names in (("corner", corner, CORNERS), ("class", codes, CLASS_NAMES)):
            if np.any((a < 0) | (a >= len(names))):
                raise ValueError(f"{name} codes must index {names}")
        arrays = dict(clb_x=x, clb_y=y, corner=corner, class_codes=codes, excluded=excluded,
                      active=np.flatnonzero(~excluded), diag=x.astype(float) + y)
        for name, a in arrays.items():
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    def __len__(self) -> int:
        return self.clb_x.size

    def key(self, ref: int) -> tuple[int, int, str]:
        """Site ``ref`` as (clb_x, clb_y, corner)."""
        return int(self.clb_x[ref]), int(self.clb_y[ref]), CORNERS[self.corner[ref]]


@dataclass(eq=False)
class ChipProfile:
    """Per-site frequency model for one device on its fabric ``layout``.

    ``nominal_freq`` holds the noise-free reference-condition frequency in
    MHz.  ``temp_coeff``/``volt_coeff`` are per-site environmental response
    coefficients; they are None for ingested chips, which therefore cannot be
    swept over environments.  ``meas_sigma_site`` is the per-site measurement
    noise standard deviation in MHz.
    """

    device_id: str
    layout: FabricLayout
    nominal_freq: np.ndarray
    temp_coeff: Optional[np.ndarray]
    volt_coeff: Optional[np.ndarray]
    meas_sigma_site: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.layout)
        for name in ("nominal_freq", "meas_sigma_site"):
            arr = getattr(self, name)
            if len(arr) != n:
                raise ValueError(f"{name} length {len(arr)} != site count {n}")
        for name in ("temp_coeff", "volt_coeff"):
            arr = getattr(self, name)
            if arr is not None and len(arr) != n:
                raise ValueError(f"{name} length {len(arr)} != site count {n}")
        if np.any(self.nominal_freq <= 0):
            raise ValueError("all nominal frequencies must be strictly positive")

    @property
    def site_count(self) -> int:
        return len(self.layout)

    @property
    def has_env_model(self) -> bool:
        return self.temp_coeff is not None and self.volt_coeff is not None


# build_fabric reads nothing else of the spec, so chips of one family share
# one layout
@functools.lru_cache(maxsize=16)
def _fabric_layout(site_count: int, central_exclusion: float) -> FabricLayout:
    n_clb = (site_count + 3) // 4
    nx = math.ceil(math.sqrt(n_clb))
    ny = math.ceil(n_clb / nx)
    cx, cy = (nx - 1) / 2.0, (ny - 1) / 2.0
    site = np.arange(site_count)
    y, x = np.divmod(site // 4, nx)
    excluded = ((np.abs(x - cx) < central_exclusion * nx)
                & (np.abs(y - cy) < central_exclusion * ny))
    return FabricLayout(x, y, site % 4, excluded=excluded)


def build_fabric(spec: DeviceSpec) -> FabricLayout:
    """Lay out ``site_count`` slice sites over a near-square CLB grid.

    CLBs fill the grid row by row, four sites each in ``CORNERS`` order.
    Odd CLB columns carry M-type bottom slices (the L/M column interleave of
    the real fabric).  Sites inside the central exclusion box are flagged and
    never characterized or used for oscillators.
    """
    return _fabric_layout(spec.site_count, spec.central_exclusion)


def _expected_range_factor(n: int) -> float:
    # expected range of n iid standard normals, Blom approximation
    if n < 2:
        return 1.0
    q = (n - 0.375) / (n + 0.25)
    return 2.0 * statistics.NormalDist().inv_cdf(q)


def synth_chip(spec: DeviceSpec, device_seed: int, device_id: str | None = None) -> ChipProfile:
    """Generate one device: deterministic for a fixed (spec, device_seed).

    The class offsets and planar gradient are functions of the spec alone, so
    devices of one family share their systematic structure; the random
    component, environmental coefficients and per-site noise levels are drawn
    from ``device_seed``.  The random scale is calibrated so that the nominal
    population span comes out near ``spec.mean_span``.
    """
    spec.validate()
    rng = np.random.default_rng(device_seed)
    layout = _fabric_layout(spec.site_count, spec.central_exclusion)
    n = len(layout)

    bias_values = [float(spec.class_bias.get(name, 0.0)) for name in CLASS_NAMES]
    class_off = np.array(bias_values)[layout.class_codes]
    diag = layout.diag
    sys_off = spec.systematic_gradient * (diag - diag.mean())

    cb_span = max(bias_values) - min(bias_values)
    sys_span = spec.systematic_gradient * (diag.max() - diag.min()) if n > 1 else 0.0
    residual_span = max(0.0, spec.mean_span - cb_span - sys_span)
    # 1.32 compensates for the component extremes not co-occurring on one site
    sigma_rand = 1.32 * residual_span / _expected_range_factor(n)

    nominal = spec.mean_freq_base + class_off + sys_off + rng.normal(0.0, sigma_rand, n)
    if nominal.min() <= 0:
        raise ConfigError(
            f"device spec {spec.kind!r} drew a nominal frequency of {nominal.min():.3f} MHz "
            f"at device seed {device_seed}; every site must run above 0 MHz"
        )

    temp_coeff = rng.normal(spec.temp_coeff_mean, spec.temp_coeff_sigma, n)
    volt_coeff = rng.normal(spec.volt_coeff_mean, spec.volt_coeff_sigma, n)

    meas_sigma = (spec.meas_sigma + rng.uniform(0.0, spec.sigma_span, n)) * KHZ_TO_MHZ
    if spec.erroneous_fraction > 0:
        bad = rng.random(n) < spec.erroneous_fraction
        meas_sigma = np.where(bad, meas_sigma * spec.erroneous_sigma_mult, meas_sigma)

    return ChipProfile(
        device_id=device_id or f"{spec.kind}_{device_seed}",
        layout=layout,
        nominal_freq=nominal,
        temp_coeff=temp_coeff,
        volt_coeff=volt_coeff,
        meas_sigma_site=meas_sigma,
    )


def env_frequencies(
    chip: ChipProfile, envs: Sequence[EnvCondition], sites: np.ndarray | None = None
) -> np.ndarray:
    """Site frequencies under each condition, MHz: one row per condition,
    one column per entry of ``sites`` (every site when None).

    f = f_nom * (1 + k_T*(T - Tref) + k_V*(V - Vref)/Vref); exactly the
    nominal frequencies at the reference condition, which is the only
    condition a chip without environmental coefficients accepts.
    """
    pick = slice(None) if sites is None else sites
    nominal = chip.nominal_freq[pick]
    if all(env.is_reference() for env in envs):
        return np.repeat(nominal[None, :], len(envs), axis=0)
    if not chip.has_env_model:
        raise ValueError(
            f"chip {chip.device_id} has no environmental coefficients "
            "(ingested data); only the reference condition is available"
        )
    dt = np.array([env.temp_c - REFERENCE_TEMP_C for env in envs])[:, None]
    dv = np.array([(env.vcc_mv - REFERENCE_VCC_MV) / REFERENCE_VCC_MV for env in envs])[:, None]
    return nominal * (1.0 + chip.temp_coeff[pick] * dt + chip.volt_coeff[pick] * dv)


def noisy_counts(
    freqs_mhz: np.ndarray, t_on_us: float, noise: np.ndarray, meas_sigma_mhz: np.ndarray | float
) -> np.ndarray:
    """Pulse counts round((f + noise * sigma) * t_on_us), saturating at zero,
    for standard-normal ``noise`` already drawn.  The counts overwrite
    ``noise``, which is returned: integer-valued floats.

    Frequencies and sigmas broadcast against ``noise``, so a (sites, 1)
    column measures each site along its row; frequencies and the enable
    duration must be positive.
    """
    f = np.asarray(freqs_mhz, dtype=float)
    if np.any(f <= 0):
        raise ValueError("frequencies must be positive")
    if t_on_us <= 0:
        raise ValueError(f"enable duration must be positive, got {t_on_us}")
    noise *= meas_sigma_mhz
    noise += f
    noise *= t_on_us
    np.rint(noise, out=noise)
    np.maximum(noise, 0.0, out=noise)
    return noise
