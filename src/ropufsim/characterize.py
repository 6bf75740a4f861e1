"""Phase-1 virtual characterization: draw per-site count moments, estimate
per-site statistics and reject erroneous (high-deviation) oscillators."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chipmodel import (
    DEFAULT_SAMPLES,
    DEFAULT_T_ON_US,
    EXACT_MOMENT_LIMIT,
    MOMENT_COLUMNS,
    REFERENCE_ENV,
    ChipProfile,
    ConfigError,
    FabricLayout,
    count_mean,
    count_sigma,
    env_frequencies,
)

DEFAULT_THRESHOLD = 0.002


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
        return FrequencyProfile(
            site_refs=self.site_refs[mask],
            sum_count=self.sum_count[mask],
            sum_count_sq=self.sum_count_sq[mask],
            m=self.m,
            t_on_us=self.t_on_us,
        )


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


def reject_erroneous(prof: FrequencyProfile, threshold: float = DEFAULT_THRESHOLD) -> CleanProfile:
    """Drop sites whose normalized deviation sigma/mean exceeds the threshold:
    a site is kept when sigma/mean <= threshold."""
    if len(prof) == 0:
        raise ValueError("cannot reject from an empty profile")
    if threshold <= 0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    mask = prof.sigma / prof.mean <= threshold
    if not mask.any():
        raise NoSurvivorsError(f"threshold {threshold} rejects every site")
    return CleanProfile(kept=prof.subset(mask), rejected_count=int((~mask).sum()))


PROFILE_HEADER = ",".join(("clb_x", "clb_y", "corner", "class", *MOMENT_COLUMNS))


def profile_csv(layout: FabricLayout, prof: FrequencyProfile) -> bytes:
    """A profile in the moments schema ``ingest_csv`` reads, as file bytes.

    Two header lines record ``# t_on_us=`` (its ``repr``) and ``# samples=``
    (m); then each site's row joins its label from the chip's layout
    (``ChipProfile.layout``) with its two integer count moments.  The rows
    are one bytes ``%`` format of the layout's row template, which a profile
    of the layout's ``active`` sites shares with every other chip of that
    layout.  Re-ingesting the bytes gives the profile's means and sigmas bit
    for bit.
    """
    refs = prof.site_refs
    if np.array_equal(refs, layout.active):
        template = layout.active_csv_row_template
    else:
        template = layout.csv_row_template(refs.tolist())
    moments = np.empty(2 * len(refs), dtype=np.int64)
    moments[0::2], moments[1::2] = prof.sum_count, prof.sum_count_sq
    head = f"# t_on_us={float(prof.t_on_us)!r}\n# samples={prof.m}\n{PROFILE_HEADER}\n"
    return head.encode() + template % tuple(moments.tolist())


def export_profile_csv(layout: FabricLayout, prof: FrequencyProfile, path: str) -> None:
    """Write ``profile_csv(layout, prof)`` to ``path``."""
    with open(path, "wb") as fh:
        fh.write(profile_csv(layout, prof))
