"""Phase-1 virtual characterization: sample counts, estimate per-site
statistics and reject erroneous (high-deviation) oscillators."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .chipmodel import (
    DEFAULT_SAMPLES,
    DEFAULT_T_ON_US,
    REFERENCE_ENV,
    ChipProfile,
    EnvCondition,
    FabricLayout,
    env_frequencies,
    measure_counts,
)

DEFAULT_THRESHOLD = 0.002
DEFAULT_QUANTILE = 0.95


class NoSurvivorsError(ValueError):
    """Raised when rejection would discard every site."""


@dataclass(eq=False)
class FrequencyProfile:
    """Per-site sample statistics from one characterization pass.

    ``site_refs`` are indices into the originating chip's site list; ``mean``
    and ``sigma`` are in MHz; only these summary statistics persist
    downstream.
    """

    site_refs: np.ndarray
    mean: np.ndarray
    sigma: np.ndarray
    m: int
    t_on_us: float

    def __post_init__(self) -> None:
        if not (len(self.site_refs) == len(self.mean) == len(self.sigma)):
            raise ValueError("site_refs, mean and sigma must have equal lengths")
        if np.any(self.sigma < 0):
            raise ValueError("sigma must be non-negative elementwise")

    def __len__(self) -> int:
        return len(self.site_refs)

    def subset(self, mask: np.ndarray) -> "FrequencyProfile":
        return FrequencyProfile(
            site_refs=self.site_refs[mask],
            mean=self.mean[mask],
            sigma=self.sigma[mask],
            m=self.m,
            t_on_us=self.t_on_us,
        )


@dataclass(eq=False)
class CleanProfile:
    """Survivors of erroneous-RO rejection plus bookkeeping."""

    kept: FrequencyProfile
    rejected_count: int
    z_bar: int
    threshold_used: float

    def __post_init__(self) -> None:
        if self.z_bar != len(self.kept):
            raise ValueError("z_bar must equal the kept-site count")


def characterize(
    chip: ChipProfile,
    m: int = DEFAULT_SAMPLES,
    t_on_us: float = DEFAULT_T_ON_US,
    env: EnvCondition = REFERENCE_ENV,
    rng: np.random.Generator | None = None,
) -> FrequencyProfile:
    """Collect m count samples per non-excluded site and summarize.

    Each sample is an independently noisy count from ``measure_counts``;
    means and standard deviations (n-1 denominator) are stored in MHz and the
    raw samples are discarded.
    """
    if m < 2:
        raise ValueError(f"need at least 2 samples per site for sigma, got {m}")
    idx = chip.active_indices()
    shape = (len(idx), m)
    freqs = np.broadcast_to(env_frequencies(chip, [env], idx)[0][:, None], shape)
    sigma = np.broadcast_to(chip.meas_sigma_site[idx, None], shape)
    mhz = measure_counts(freqs, t_on_us, rng, sigma) / t_on_us
    return FrequencyProfile(
        site_refs=idx,
        mean=mhz.mean(axis=1),
        sigma=mhz.std(axis=1, ddof=1),
        m=m,
        t_on_us=t_on_us,
    )


def reject_erroneous(
    prof: FrequencyProfile,
    mode: Literal["fixed", "quantile"] = "fixed",
    threshold: float = DEFAULT_THRESHOLD,
    quantile: float = DEFAULT_QUANTILE,
) -> CleanProfile:
    """Drop sites whose normalized deviation sigma/mean exceeds the threshold.

    ``fixed`` keeps sites with sigma/mean <= threshold.  ``quantile`` sets
    the threshold at the given quantile of the observed ratios, discarding a
    fixed fraction instead.
    """
    if len(prof) == 0:
        raise ValueError("cannot reject from an empty profile")
    ratio = prof.sigma / prof.mean
    if mode == "fixed":
        if threshold <= 0:
            raise ValueError(f"threshold must be positive, got {threshold}")
        th = threshold
    elif mode == "quantile":
        if not 0.0 < quantile < 1.0:
            raise ValueError(f"quantile must lie in (0, 1), got {quantile}")
        th = float(np.quantile(ratio, quantile))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    mask = ratio <= th
    if not mask.any():
        raise NoSurvivorsError(f"threshold {th} rejects every site")
    kept = prof.subset(mask)
    return CleanProfile(
        kept=kept,
        rejected_count=int((~mask).sum()),
        z_bar=len(kept),
        threshold_used=th,
    )


def profile_stats(prof: FrequencyProfile) -> dict[str, float]:
    """Span statistics: mean_span in MHz, sigma_span in kHz."""
    if len(prof) == 0:
        raise ValueError("empty profile")
    return {
        "mean_span": float(prof.mean.max() - prof.mean.min()),
        "sigma_span": float((prof.sigma.max() - prof.sigma.min()) * 1e3),
        "mean_of_means": float(prof.mean.mean()),
    }


def export_profile_csv(layout: FabricLayout, prof: FrequencyProfile, path: str) -> None:
    """Write a profile in the same CSV schema ``ingest_csv`` reads.

    The per-site mean is emitted as a single mhz sample, so re-ingesting
    reproduces site identities and means.  Each row joins the site's label
    from the chip's layout (``ChipProfile.layout``), formatted once per site
    list, with the ``repr`` of its mean: the bytes ``csv.writer`` would write,
    since no field needs quoting, with its CRLF line ends.
    """
    labels = layout.csv_labels
    rows = ["clb_x,clb_y,corner,class,mhz_1"]
    rows += [
        f"{labels[ref]},{mean!r}"
        for ref, mean in zip(prof.site_refs.tolist(), prof.mean.tolist())
    ]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\r\n".join(rows) + "\r\n")
