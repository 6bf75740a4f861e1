"""Phase-1 site data: draw per-site count moments, estimate per-site
statistics, reject erroneous (high-deviation) oscillators, and read and write
every site CSV (the profile a run writes and the measured files it ingests)."""

from __future__ import annotations

import csv
import functools
import io
import math
from dataclasses import dataclass, replace

import numpy as np

from .chipmodel import (
    CLASS_NAMES,
    CORNERS,
    DEFAULT_SAMPLES,
    DEFAULT_T_ON_US,
    REFERENCE_ENV,
    ChipProfile,
    ConfigError,
    DataError,
    FabricLayout,
    SliceClass,
    ascii_float,
    ascii_int,
    env_frequencies,
    read_text,
)

DEFAULT_THRESHOLD = 0.002

# Count moments are exact while samples * sum(c^2) stays below 2^53: then
# every partial sum, sum(c)^2 <= samples * sum(c^2) and their difference are
# integers a float64 holds exactly.
EXACT_MOMENT_LIMIT = 2**53


def count_mean(sum_count: np.ndarray, m: int, t_on_us: float) -> np.ndarray:
    """Per-site mean frequency in MHz from the sum of ``m`` counts of
    ``t_on_us`` each: sum / (m * t_on_us)."""
    return sum_count / (m * t_on_us)


def count_sigma(
    sum_count: np.ndarray, sum_count_sq: np.ndarray, m: int, t_on_us: float
) -> np.ndarray:
    """Per-site sample standard deviation in MHz (n - 1 denominator) from the
    sums of ``m`` counts and of their squares:
    sqrt((m * S2 - S1^2) / (m * (m - 1))) / t_on_us; zero for one sample."""
    if m < 2:
        return np.zeros(np.shape(sum_count))
    var = (m * sum_count_sq - sum_count * sum_count) / (m * (m - 1))
    return np.sqrt(var) / t_on_us


# Value columns of a count-moment profile, as ``export_profile_csv`` writes it.
MOMENT_COLUMNS = ("sum_count", "sum_count_sq")


class NoSurvivorsError(ValueError):
    """Raised when rejection would discard every site."""


@dataclass(eq=False)
class FrequencyProfile:
    """Per-site count moments from one characterization pass.

    ``site_refs`` are indices into the originating chip's site list.
    ``sum_count`` and ``sum_count_sq`` hold each site's sum of its ``m``
    counts over ``t_on_us`` microseconds and the sum of their squares, as
    integer-valued floats; below ``EXACT_MOMENT_LIMIT`` they are exact in any
    summation order.  ``mean`` and ``sigma`` (MHz, n - 1 denominator) are
    derived from them on each access, by the arithmetic ``ingest_csv`` applies
    to a written profile, so re-ingesting one reproduces both bit for bit.
    """

    site_refs: np.ndarray
    sum_count: np.ndarray
    sum_count_sq: np.ndarray
    m: int
    t_on_us: float

    def __post_init__(self) -> None:
        if not (len(self.site_refs) == len(self.sum_count) == len(self.sum_count_sq)):
            raise ValueError("site_refs, sum_count and sum_count_sq must have equal lengths")
        if np.any(self.m * self.sum_count_sq < self.sum_count * self.sum_count):
            raise ValueError("count moments need m * sum_count_sq >= sum_count^2 elementwise")

    @property
    def mean(self) -> np.ndarray:
        return count_mean(self.sum_count, self.m, self.t_on_us)

    @property
    def sigma(self) -> np.ndarray:
        return count_sigma(self.sum_count, self.sum_count_sq, self.m, self.t_on_us)

    def __len__(self) -> int:
        return len(self.site_refs)

    def subset(self, mask: np.ndarray) -> "FrequencyProfile":
        return replace(self, site_refs=self.site_refs[mask], sum_count=self.sum_count[mask],
                       sum_count_sq=self.sum_count_sq[mask])


@dataclass(eq=False)
class CleanProfile:
    """Survivors of erroneous-RO rejection plus bookkeeping."""

    kept: FrequencyProfile
    rejected_count: int

    @property
    def z_bar(self) -> int:
        """The kept-site count."""
        return len(self.kept)


def characterize(
    chip: ChipProfile,
    m: int = DEFAULT_SAMPLES,
    t_on_us: float = DEFAULT_T_ON_US,
    rng: np.random.Generator | None = None,
) -> FrequencyProfile:
    """The integer moments of m count samples per non-excluded site under the
    reference condition, drawn as two numbers per site rather than m counts.

    A site's counts are normal with mean mu = f * t_on_us and deviation
    sigma_c = sigma * t_on_us, so their sample mean and sample variance s^2
    are independent, the mean normal and (m - 1) s^2 / sigma_c^2 chi-square
    with m - 1 degrees of freedom.  Each site draws z ~ N(0, 1), then
    q ~ chi2(m - 1) (all sites' z first): S1 = max(0, rint(m mu + sqrt(m)
    sigma_c z)), s^2 = sigma_c^2 q / (m - 1) and S2 = ceil((S1^2 + m (m - 1)
    s^2) / m), so m * S2 >= S1^2.  The 1/12 count^2 that rounding each count
    adds to its variance is left out.  A noise-free site counts rint(mu) m
    times, as a per-sample draw would.

    Raises ``ValueError`` when some site is noisy and ``rng`` is None, and
    ``ConfigError`` naming ``t_on_us`` and the sample count when
    m * max(S2) reaches 2^53, where the moments stop being exact.
    """
    if m < 2:
        raise ValueError(f"need at least 2 samples per site for sigma, got {m}")
    if t_on_us <= 0:
        raise ValueError(f"enable duration must be positive, got {t_on_us}")
    idx = chip.layout.active
    mu = env_frequencies(chip, [REFERENCE_ENV], idx)[0] * t_on_us
    sigma = chip.meas_sigma_site[idx]
    noisy = sigma > 0
    z = q = np.zeros(len(idx))
    if noisy.any():
        if rng is None:
            raise ValueError("rng required when measurement noise is enabled")
        z = rng.standard_normal(len(idx))
        q = rng.chisquare(m - 1, len(idx))
    dev = sigma * t_on_us
    sum_count = np.where(noisy, m * mu + np.sqrt(m) * dev * z, m * np.rint(mu))
    np.maximum(np.rint(sum_count, out=sum_count), 0.0, out=sum_count)
    # m (m - 1) s^2 = m sigma_c^2 q; ceil((S1^2 + x) / m) equals
    # ceil((S1^2 + ceil(x)) / m), an exact division of integer-valued floats
    sum_count_sq = -(-(sum_count * sum_count + np.ceil(m * dev * dev * q)) // m)
    top = m * float(sum_count_sq.max(initial=0.0))
    if top >= EXACT_MOMENT_LIMIT:
        raise ConfigError(
            f"t_on_us={t_on_us!r} with samples={m} gives samples * sum(count^2) "
            f"= {top:.4g}, beyond the 2**53 up to which count moments are exact; "
            "take fewer samples"
        )
    return FrequencyProfile(idx, sum_count, sum_count_sq, m, t_on_us)


def keep_mask(mean: np.ndarray, sigma: np.ndarray,
              threshold: float = DEFAULT_THRESHOLD) -> np.ndarray:
    """The erroneous-RO rule: which sites have sigma/mean <= ``threshold``."""
    if threshold <= 0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    return sigma / mean <= threshold


def reject_erroneous(prof: FrequencyProfile, threshold: float = DEFAULT_THRESHOLD) -> CleanProfile:
    """Drop sites whose normalized deviation sigma/mean exceeds the threshold,
    keeping those ``keep_mask`` marks."""
    if len(prof) == 0:
        raise ValueError("cannot reject from an empty profile")
    mask = keep_mask(prof.mean, prof.sigma, threshold)
    if not mask.any():
        raise NoSurvivorsError(f"threshold {threshold} rejects every site")
    return CleanProfile(kept=prof.subset(mask), rejected_count=int((~mask).sum()))


PROFILE_HEADER = ",".join(("clb_x", "clb_y", "corner", "class", *MOMENT_COLUMNS))


def _row_template(layout: FabricLayout, refs: np.ndarray) -> bytes:
    """``%``-format bytes template of profile rows, one line
    ``clb_x,clb_y,corner,class,%d,%d`` per site of ``refs``; no field holds a ``%``."""
    return "".join(
        f"{x},{y},{CORNERS[c]},{CLASS_NAMES[k]},%d,%d\n"
        for x, y, c, k in zip(layout.clb_x[refs].tolist(), layout.clb_y[refs].tolist(),
                              layout.corner[refs].tolist(), layout.class_codes[refs].tolist())
    ).encode()


# chips of one family share their layout, so each layout's active-site
# template is built at its first profile and serves every later one
@functools.lru_cache(maxsize=16)
def _active_row_template(layout: FabricLayout) -> bytes:
    return _row_template(layout, layout.active)


def export_profile_csv(layout: FabricLayout, prof: FrequencyProfile, path: str) -> None:
    """Write a profile to ``path`` in the moments schema ``ingest_csv`` reads.

    Two header lines record ``# t_on_us=`` (its ``repr``) and ``# samples=``
    (m); then each site's row joins its fields from the chip's layout
    (``ChipProfile.layout``) with its two integer count moments, as one
    bytes ``%`` format of a row template.  Re-ingesting the file gives the
    profile's means and sigmas bit for bit.
    """
    refs = prof.site_refs
    template = (_active_row_template(layout) if np.array_equal(refs, layout.active)
                else _row_template(layout, refs))
    moments = np.empty(2 * len(refs), dtype=np.int64)
    moments[0::2], moments[1::2] = prof.sum_count, prof.sum_count_sq
    head = f"# t_on_us={float(prof.t_on_us)!r}\n# samples={prof.m}\n{PROFILE_HEADER}\n"
    with open(path, "wb") as fh:
        fh.write(head.encode() + template % tuple(moments.tolist()))


def _parse_header(fields: list[str]) -> tuple[str, list[str], bool]:
    """The header's data kind (``mhz``, ``count`` or ``moments``), its value
    columns and whether it has a class column."""
    for i, col in enumerate(fields):
        if col in fields[:i]:
            raise ValueError(f"repeated column {col!r} in CSV header")
    moments = any(col in fields for col in MOMENT_COLUMNS)
    for col in ("clb_x", "clb_y", "corner", *(MOMENT_COLUMNS if moments else ())):
        if col not in fields:
            raise ValueError(f"missing required column {col!r} in CSV header")
    has_class = "class" in fields
    sample_cols = [f for f in fields if f.startswith("mhz_") or f.startswith("count_")]
    if moments:
        if sample_cols:
            raise ValueError("moment columns cannot be mixed with sample columns")
        return "moments", list(MOMENT_COLUMNS), has_class
    if not sample_cols:
        raise ValueError("no sample columns found (expected mhz_*, count_* or "
                         "sum_count,sum_count_sq)")
    kinds = {c.split("_")[0] for c in sample_cols}
    if len(kinds) != 1:
        raise ValueError("sample columns must be all mhz_* or all count_*")
    return kinds.pop(), sample_cols, has_class


def _header_value(key: str, text: str) -> float | int:
    """A ``# t_on_us=`` (positive, finite) or ``# samples=`` (integer >= 1)
    header value."""
    if key == "samples":
        value = ascii_int(text)
        if value < 1:
            raise ValueError(f"samples must be >= 1, got {value}")
        return value
    value = ascii_float(text)
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"t_on_us must be positive and finite, got {text!r}")
    return value


def _count(text: str, name: str) -> int:
    value = ascii_int(text)
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    return value


def ingest_csv(path: str, device_id: str | None = None) -> ChipProfile:
    """Build a ChipProfile from measured per-site data.

    Expected columns: ``clb_x,clb_y,corner[,class]`` and then one of

    - ``mhz_1..mhz_m``: frequency samples in MHz;
    - ``count_1..count_m``: integer counts over the enable duration declared
      in a leading ``# t_on_us=<value>`` line (default 122.87);
    - ``sum_count,sum_count_sq``: each site's sum of m counts and of their
      squares (the profile ``export_profile_csv`` writes), with both
      ``# t_on_us=<value>`` and ``# samples=<m>`` header lines.

    Count and moment rows share one moments -> (mean, sigma) arithmetic
    (``count_mean``, ``count_sigma``), so a count file and its moments file
    ingest to identical means and sigmas, and re-ingesting a written profile
    reproduces its characterization bit for bit.  Nominal frequencies are
    the per-site means and measurement sigmas the per-site sample deviations;
    environmental coefficients stay unset.  Every number, header values
    included, must be in ASCII decimal form (``ascii_int``, ``ascii_float``).
    Malformed input, a header that repeats a column or a row with more or
    fewer fields than the header included, raises ``DataError`` naming the
    file and line.
    """
    declared: dict[str, float | int] = {}
    # (clb_x, clb_y, corner) -> class name or None, in row order
    sites: dict[tuple[int, int, str], str | None] = {}
    # per site (mean, sigma) in MHz of mhz samples, else the moments (S1, S2)
    stats: list[tuple[float, float] | tuple[int, int]] = []

    with io.StringIO(read_text(path), newline="") as fh:
        header: list[str] | None = None
        value_cols: list[str] = []
        kind = ""
        has_class = False
        m = 0
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            if not row:
                continue
            if header is None and row[0].startswith("#"):
                key, eq, text = ",".join(row)[1:].partition("=")
                key = key.strip()
                if eq and key in ("t_on_us", "samples"):
                    try:
                        declared[key] = _header_value(key, text)
                    except ValueError as exc:
                        raise DataError(f"{path}:{lineno}: bad header line ({exc})") from None
                continue
            if header is None:
                header = [c.strip() for c in row]
                try:
                    kind, value_cols, has_class = _parse_header(header)
                except ValueError as exc:
                    raise DataError(f"{path}:{lineno}: {exc}") from None
                if kind == "moments":
                    missing = [k for k in ("t_on_us", "samples") if k not in declared]
                    if missing:
                        raise DataError(
                            f"{path}:{lineno}: a sum_count,sum_count_sq profile needs "
                            + " and ".join(f"a '# {k}=' line" for k in missing)
                            + " before its header"
                        )
                    m = int(declared["samples"])
                elif kind == "count":
                    m = len(value_cols)
                    if declared.get("samples", m) != m:
                        raise DataError(f"{path}:{lineno}: '# samples={declared['samples']}' "
                                        f"but {m} count columns")
                continue
            rec = dict(zip(header, row))
            try:
                if len(row) != len(header):
                    raise ValueError(f"{len(row)} fields but the header has {len(header)}")
                x, y = ascii_int(rec["clb_x"]), ascii_int(rec["clb_y"])
                if max(abs(x), abs(y)) >= 2**63:
                    raise ValueError(f"CLB coordinates must lie within +-(2**63 - 1), "
                                     f"got ({x}, {y})")
                corner = rec["corner"].strip()
                if corner not in CORNERS:
                    raise ValueError(f"bad corner {corner!r}")
                if kind == "mhz":
                    samples = np.array([ascii_float(rec[c]) for c in value_cols])
                    if not (np.isfinite(samples).all() and (samples > 0).all()):
                        raise ValueError(f"mhz samples must be finite and positive, "
                                         f"got {samples.tolist()}")
                else:
                    if kind == "count":
                        counts = [_count(rec[c], c) for c in value_cols]
                        s1, s2 = sum(counts), sum(c * c for c in counts)
                    else:
                        s1, s2 = (_count(rec[c], c) for c in value_cols)
                    if s1 == 0:
                        raise ValueError("sum_count must be positive")
                    if m * s2 < s1 * s1:
                        raise ValueError(f"samples * sum_count_sq = {m * s2} is below "
                                         f"sum_count^2 = {s1 * s1}")
                    if m * s2 >= EXACT_MOMENT_LIMIT:
                        raise ValueError(f"samples * sum_count_sq = {m * s2} reaches 2**53")
                cls = SliceClass(rec["class"].strip()).value if has_class else None
            except (KeyError, ValueError) as exc:
                raise DataError(f"{path}:{lineno}: malformed row ({exc})") from None
            key = (x, y, corner)
            if key in sites:
                raise DataError(f"{path}:{lineno}: duplicate site {key}")
            sites[key] = cls
            if kind == "mhz":
                stats.append((float(samples.mean()),
                              float(samples.std(ddof=1)) if len(samples) > 1 else 0.0))
            else:
                stats.append((s1, s2))

    if header is None:
        raise DataError(f"{path}: empty file")
    if not sites:
        raise DataError(f"{path}: no data rows")
    mean, sigma = np.array(stats, dtype=float).T.copy()
    if kind != "mhz":  # the columns hold S1 and S2
        t_on_us = declared.get("t_on_us", DEFAULT_T_ON_US)
        mean, sigma = count_mean(mean, m, t_on_us), count_sigma(mean, sigma, m, t_on_us)

    xs, ys, corners = zip(*sites)
    return ChipProfile(
        device_id=device_id or "ingested",
        layout=FabricLayout(xs, ys, [CORNERS.index(c) for c in corners],
                            [CLASS_NAMES.index(c) for c in sites.values()] if has_class else None),
        nominal_freq=mean,
        temp_coeff=None,
        volt_coeff=None,
        meas_sigma_site=sigma,
    )
