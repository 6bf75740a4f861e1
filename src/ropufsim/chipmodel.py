"""Virtual FPGA fabric with per-slice ring-oscillator frequency populations.

A synthesized chip carries one nominal (reference-condition) frequency per
slice site, composed of a family-wide base, a routing-class offset, a planar
systematic gradient and a per-device random component.  Environmental
response is affine in temperature and relative supply voltage.  Measurement
produces integer pulse counts over a fixed enable window.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import statistics
from dataclasses import dataclass, field, asdict
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


class SliceClass(Enum):
    """Routing-delay class of a slice position within its CLB."""

    L12 = "L12"   # top-connected L slices
    L3 = "L3"     # bottom-connected L slices
    M = "M"       # bottom-connected M slices


CORNERS = ("TL", "TR", "BL", "BR")


def classify_corner(corner: str, clb_has_m_bottom: bool) -> SliceClass:
    """Map a CLB corner position to its routing class.

    Top corners always route as L12; bottom corners route as M when the CLB
    carries M-type bottom slices, L3 otherwise.
    """
    if corner not in CORNERS:
        raise ValueError(f"unknown corner {corner!r}, expected one of {CORNERS}")
    if corner in ("TL", "TR"):
        return SliceClass.L12
    return SliceClass.M if clb_has_m_bottom else SliceClass.L3


@dataclass(frozen=True)
class FabricSite:
    """One slice position on the fabric, identified by CLB coords and corner."""

    clb_x: int
    clb_y: int
    corner: str
    slice_class: SliceClass
    excluded: bool = False

    @property
    def key(self) -> tuple[int, int, str]:
        return (self.clb_x, self.clb_y, self.corner)


@dataclass(frozen=True)
class EnvCondition:
    """Operating point: ambient temperature (degC) and supply voltage (mV)."""

    temp_c: float
    vcc_mv: float

    def is_reference(self) -> bool:
        return self.temp_c == REFERENCE_TEMP_C and self.vcc_mv == REFERENCE_VCC_MV


REFERENCE_ENV = EnvCondition(REFERENCE_TEMP_C, REFERENCE_VCC_MV)


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
        if self.site_count <= 0:
            raise ConfigError(f"site_count must be positive, got {self.site_count}")
        if self.mean_span < 0 or self.sigma_span < 0:
            raise ConfigError("mean_span and sigma_span must be non-negative")
        if self.meas_sigma < 0:
            raise ConfigError("meas_sigma must be non-negative")
        if not 0.0 <= self.central_exclusion < 0.5:
            raise ConfigError("central_exclusion must lie in [0, 0.5)")
        if not 0.0 <= self.erroneous_fraction < 1.0:
            raise ConfigError("erroneous_fraction must lie in [0, 1)")
        for name in self.class_bias:
            if name not in SliceClass.__members__:
                raise ConfigError(f"unknown slice class {name!r} in class_bias")

    def bias_for(self, cls: SliceClass) -> float:
        return float(self.class_bias.get(cls.value, 0.0))


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
    base = asdict(get_preset(preset)) if preset else {}
    base.update(raw)
    try:
        spec = DeviceSpec(**base)
    except TypeError as exc:
        raise ConfigError(f"bad device spec file {path}: {exc}") from None
    spec.validate()
    return spec


@dataclass(eq=False)
class ChipProfile:
    """Per-site frequency model for one device.

    ``nominal_freq`` holds the noise-free reference-condition frequency in
    MHz.  ``temp_coeff``/``volt_coeff`` are per-site environmental response
    coefficients; they are None for ingested chips, which therefore cannot be
    swept over environments.  ``meas_sigma_site`` is the per-site measurement
    noise standard deviation in MHz.
    """

    device_id: str
    spec: DeviceSpec
    sites: Sequence[FabricSite]
    nominal_freq: np.ndarray
    temp_coeff: Optional[np.ndarray]
    volt_coeff: Optional[np.ndarray]
    meas_sigma_site: np.ndarray
    _layout: Optional[FabricLayout] = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        n = len(self.sites)
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
        return len(self.sites)

    @property
    def has_env_model(self) -> bool:
        return self.temp_coeff is not None and self.volt_coeff is not None

    @property
    def layout(self) -> FabricLayout:
        """Per-site arrays of ``sites``; synthesized chips share their family's."""
        if self._layout is None:
            self._layout = FabricLayout.of(self.sites)
        return self._layout

    def active_indices(self) -> np.ndarray:
        return self.layout.active


def _fabric_dims(n_clb: int) -> tuple[int, int]:
    nx = int(math.ceil(math.sqrt(n_clb)))
    ny = int(math.ceil(n_clb / nx))
    return nx, ny


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class FabricLayout:
    """Per-site arrays of one site list, built once and shared read-only.

    ``class_codes`` index ``tuple(SliceClass)``; ``diag`` is clb_x + clb_y;
    ``active`` lists the non-excluded site indices; ``csv_labels`` holds each
    site's ``clb_x,clb_y,corner,class`` profile CSV fields.
    """

    sites: tuple[FabricSite, ...]
    class_codes: np.ndarray
    diag: np.ndarray
    active: np.ndarray
    csv_labels: tuple[str, ...]

    @classmethod
    def of(cls, sites: Sequence[FabricSite]) -> FabricLayout:
        codes = {c: i for i, c in enumerate(SliceClass)}
        return cls(
            sites=tuple(sites),
            class_codes=_readonly(np.array([codes[s.slice_class] for s in sites],
                                           dtype=np.intp)),
            diag=_readonly(np.array([s.clb_x + s.clb_y for s in sites], dtype=float)),
            active=_readonly(np.array([i for i, s in enumerate(sites) if not s.excluded],
                                      dtype=np.intp)),
            csv_labels=tuple(f"{s.clb_x},{s.clb_y},{s.corner},{s.slice_class.value}"
                             for s in sites),
        )


# build_fabric reads nothing else of the spec, so chips of one family share
# one layout
@functools.lru_cache(maxsize=16)
def _fabric_layout(site_count: int, central_exclusion: float) -> FabricLayout:
    n_clb = (site_count + 3) // 4
    nx, ny = _fabric_dims(n_clb)
    cx, cy = (nx - 1) / 2.0, (ny - 1) / 2.0
    half_w, half_h = central_exclusion * nx, central_exclusion * ny
    sites: list[FabricSite] = []
    for y in range(ny):
        for x in range(nx):
            if len(sites) >= site_count:
                break
            has_m = x % 2 == 1
            excluded = abs(x - cx) < half_w and abs(y - cy) < half_h
            for corner in CORNERS:
                if len(sites) >= site_count:
                    break
                sites.append(FabricSite(x, y, corner, classify_corner(corner, has_m), excluded))
    return FabricLayout.of(sites)


def build_fabric(spec: DeviceSpec) -> list[FabricSite]:
    """Lay out ``site_count`` slice sites over a near-square CLB grid.

    Odd CLB columns carry M-type bottom slices (the L/M column interleave of
    the real fabric).  Sites inside the central exclusion box are flagged and
    never characterized or used for oscillators.
    """
    return list(_fabric_layout(spec.site_count, spec.central_exclusion).sites)


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
    n = len(layout.sites)

    bias_values = [spec.bias_for(c) for c in SliceClass]
    class_off = np.array(bias_values)[layout.class_codes]
    diag = layout.diag
    sys_off = spec.systematic_gradient * (diag - diag.mean())

    cb_span = max(bias_values) - min(bias_values)
    sys_span = spec.systematic_gradient * (diag.max() - diag.min()) if n > 1 else 0.0
    residual_span = max(0.0, spec.mean_span - cb_span - sys_span)
    # 1.32 compensates for the component extremes not co-occurring on one site
    sigma_rand = 1.32 * residual_span / _expected_range_factor(n)

    nominal = spec.mean_freq_base + class_off + sys_off + rng.normal(0.0, sigma_rand, n)

    temp_coeff = rng.normal(spec.temp_coeff_mean, spec.temp_coeff_sigma, n)
    volt_coeff = rng.normal(spec.volt_coeff_mean, spec.volt_coeff_sigma, n)

    meas_sigma = (spec.meas_sigma + rng.uniform(0.0, spec.sigma_span, n)) * KHZ_TO_MHZ
    if spec.erroneous_fraction > 0:
        bad = rng.random(n) < spec.erroneous_fraction
        meas_sigma = np.where(bad, meas_sigma * spec.erroneous_sigma_mult, meas_sigma)

    chip = ChipProfile(
        device_id=device_id or f"{spec.kind}_{device_seed}",
        spec=spec,
        sites=layout.sites,
        nominal_freq=nominal,
        temp_coeff=temp_coeff,
        volt_coeff=volt_coeff,
        meas_sigma_site=meas_sigma,
    )
    chip._layout = layout
    return chip


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
    for standard-normal ``noise`` already drawn; ``noise`` is overwritten.

    Frequencies and the enable duration must be positive.
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
    return noise.astype(np.int64)


def measure_counts(
    freqs_mhz: np.ndarray,
    t_on_us: float,
    rng: np.random.Generator | None,
    meas_sigma_mhz: np.ndarray | float,
) -> np.ndarray:
    """Noisy pulse counts over the enable window, one per frequency entry.

    Each count is round((f + eps) * t_on_us) with independent Gaussian noise
    eps of the entry's standard deviation, added in the frequency domain
    before quantization; a count saturates at zero.  Frequencies and the
    enable duration must be positive.  Noise is drawn only when some
    standard deviation is positive.
    """
    f = np.asarray(freqs_mhz, dtype=float)
    sigma = np.asarray(meas_sigma_mhz, dtype=float)
    if np.any(sigma > 0):
        if rng is None:
            raise ValueError("rng required when measurement noise is enabled")
        noise = rng.standard_normal(np.broadcast_shapes(f.shape, sigma.shape))
    else:
        noise = np.zeros(np.broadcast_shapes(f.shape, sigma.shape))
    return noisy_counts(f, t_on_us, noise, sigma)


def _parse_header(fields: list[str]) -> tuple[list[str], bool, int]:
    required = ["clb_x", "clb_y", "corner"]
    for col in required:
        if col not in fields:
            raise DataError(f"missing required column {col!r} in CSV header")
    has_class = "class" in fields
    sample_cols = [f for f in fields if f.startswith("mhz_") or f.startswith("count_")]
    if not sample_cols:
        raise DataError("no sample columns found (expected mhz_* or count_*)")
    kinds = {c.split("_")[0] for c in sample_cols}
    if len(kinds) != 1:
        raise DataError("sample columns must be all mhz_* or all count_*")
    return sample_cols, has_class, len(sample_cols)


def ingest_csv(path: str, device_id: str | None = None) -> ChipProfile:
    """Build a ChipProfile from measured per-site samples.

    Expected columns: ``clb_x,clb_y,corner[,class],<samples>`` where the
    sample columns are ``mhz_1..mhz_m`` or ``count_1..count_m``.  Count data
    is converted with the enable duration declared in a leading
    ``# t_on_us=<value>`` comment (default 122.87).  Nominal frequencies are
    the per-site sample means; environmental coefficients stay unset.
    """
    t_on_us = DEFAULT_T_ON_US
    sites: list[FabricSite] = []
    means: list[float] = []
    sigmas: list[float] = []
    seen: set[tuple[int, int, str]] = set()

    with open(path, "r", encoding="utf-8", newline="") as fh:
        header: list[str] | None = None
        sample_cols: list[str] = []
        has_class = False
        counts_mode = False
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            if not row or (row[0].startswith("#") and header is None):
                if row and row[0].startswith("#") and "t_on_us=" in row[0]:
                    t_on_us = float(row[0].split("t_on_us=")[1])
                continue
            if header is None:
                header = [c.strip() for c in row]
                sample_cols, has_class, _ = _parse_header(header)
                counts_mode = sample_cols[0].startswith("count_")
                continue
            rec = dict(zip(header, row))
            try:
                x, y = int(rec["clb_x"]), int(rec["clb_y"])
                corner = rec["corner"].strip()
                if corner not in CORNERS:
                    raise ValueError(f"bad corner {corner!r}")
                samples = np.array([float(rec[c]) for c in sample_cols])
            except (KeyError, ValueError) as exc:
                raise DataError(f"{path}:{lineno}: malformed row ({exc})") from None
            if counts_mode:
                samples = samples / t_on_us
            key = (x, y, corner)
            if key in seen:
                raise DataError(f"{path}:{lineno}: duplicate site {key}")
            seen.add(key)
            if has_class:
                cls = SliceClass(rec["class"].strip())
            else:
                cls = classify_corner(corner, clb_has_m_bottom=(x % 2 == 1))
            sites.append(FabricSite(x, y, corner, cls))
            means.append(float(samples.mean()))
            sigmas.append(float(samples.std(ddof=1)) if len(samples) > 1 else 0.0)

    if header is None:
        raise DataError(f"{path}: empty file")
    if not sites:
        raise DataError(f"{path}: no data rows")

    spec = DeviceSpec(
        kind="custom", site_count=len(sites),
        mean_freq_base=float(np.mean(means)),
        mean_span=float(np.max(means) - np.min(means)),
        sigma_span=float((np.max(sigmas) - np.min(sigmas)) / KHZ_TO_MHZ),
        meas_sigma=0.0, central_exclusion=0.0, erroneous_fraction=0.0,
    )
    return ChipProfile(
        device_id=device_id or "ingested",
        spec=spec,
        sites=sites,
        nominal_freq=np.array(means),
        temp_coeff=None,
        volt_coeff=None,
        meas_sigma_site=np.array(sigmas),
    )
