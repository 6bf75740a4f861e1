"""Phase-2 frequency selection.

Chooses M oscillator frequencies out of the cleaned candidate pool so that
the minimum pairwise frequency difference is as large as possible: 1-D
K-means that snaps centroids to existing frequencies each iteration and keeps
the globally best snapped list, followed by an iterative centroid-relocation
pass that widens the currently smallest gap.  Baseline selectors are provided
for comparison.

Each K-means iteration works on the sorted candidates, where every cluster is
one contiguous slice, so it needs no label vector and no sort.  The mean
intra-cluster distance (MICD) trace is a diagnostic that only the written
``selection.json`` shows: a run records the cluster slices that changed in
each iteration, and ``micd_traces`` computes the traces of many runs (all
devices of a population) in one batch, or a single trace on first use.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Literal, Sequence

import numpy as np

EVALUATED_RO_COUNTS = (8, 16, 32, 64)

SeedStrategy = Literal[
    "linear", "uniform_density", "kmeanspp", "random",
    "mean_based", "median_based", "random_select",
]


@dataclass
class SelectionConfig:
    """Knobs for the selection pipeline."""

    m: int
    seeding: SeedStrategy = "linear"
    k_max: int = 100
    relocation_max_iter: int = 200
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.m < 2:
            raise ValueError(f"need at least 2 oscillators, got {self.m}")
        if self.m not in EVALUATED_RO_COUNTS:
            warnings.warn(
                f"RO count {self.m} is outside the evaluated configurations "
                f"{EVALUATED_RO_COUNTS}", stacklevel=2,
            )


@dataclass(eq=False)
class _MicdRecord:
    """What one K-means run needs to compute its MICD trace later.

    ``fs`` are the sorted candidates.  ``changed`` marks, per iteration and
    cluster, a cluster whose slice or centroid differs from the previous
    iteration's (every cluster of the first); ``starts``, ``ends`` and
    ``centroids`` describe those slices in row-major order.  An unchanged
    cluster keeps its previous mean distance.
    """

    fs: np.ndarray
    changed: np.ndarray
    starts: np.ndarray
    ends: np.ndarray
    centroids: np.ndarray
    trace: list[float] | None = None


@dataclass(eq=False)
class SelectionResult:
    """Chosen sites/frequencies plus convergence diagnostics.

    ``chosen`` pairs (site_ref, frequency MHz) sorted by frequency;
    ``min_diff`` is the recomputed minimum over all pairwise differences of
    the chosen frequencies.
    """

    chosen: list[tuple[int, float]]
    centroids: np.ndarray
    min_diff: float
    min_diff_trace: list[float] = field(default_factory=list)
    iterations: int = 0
    _micd: list[float] | _MicdRecord = field(default_factory=list, repr=False)

    @property
    def micd_trace(self) -> list[float]:
        """MICD after each K-means iteration; a pending trace is computed on
        first use (``micd_traces`` fills many at once)."""
        if isinstance(self._micd, _MicdRecord):
            micd_traces([self])
        return self._micd

    @property
    def frequencies(self) -> np.ndarray:
        return np.array([f for _, f in self.chosen])

    @property
    def site_refs(self) -> list[int]:
        return [r for r, _ in self.chosen]

    def to_json_dict(self) -> dict:
        return {
            "chosen": [[int(r), float(f)] for r, f in self.chosen],
            "centroids": [float(c) for c in self.centroids],
            "min_diff_mhz": float(self.min_diff),
            "min_diff_trace": [float(x) for x in self.min_diff_trace],
            "micd_trace": [float(x) for x in self.micd_trace],
            "iterations": int(self.iterations),
        }


def min_pairwise_diff(freqs: Sequence[float] | np.ndarray) -> float:
    """Smallest |f_i - f_j| over all unordered pairs."""
    a = np.sort(np.asarray(freqs, dtype=float))
    if a.size < 2:
        raise ValueError(f"need at least 2 frequencies, got {a.size}")
    return float(np.diff(a).min())


# Bound on the candidate values the MICD batch concatenates at once, and on
# the values it stacks for one reduction; it bounds the batch's temporaries.
_BLOCK_VALUES = 1 << 17


def _slice_means(
    values: np.ndarray, starts: np.ndarray, ends: np.ndarray, cents: np.ndarray
) -> np.ndarray:
    """Mean of |values[s:e] - c| for each slice (s, e, c); 0.0 when empty.

    Slices of one length are stacked as the rows of a matrix and reduced
    along axis 1.  numpy sums each contiguous row with the same pairwise
    summation as a 1-D reduce of the slice alone, so every mean is
    bit-identical to reducing its slice by itself.
    """
    lengths = ends - starts
    out = np.zeros(lengths.size)
    order = np.argsort(lengths, kind="stable")
    group_lengths, firsts = np.unique(lengths[order], return_index=True)
    group_ends = [*firsts[1:].tolist(), order.size]
    for length, g0, g1 in zip(group_lengths.tolist(), firsts.tolist(), group_ends):
        if length == 0:
            continue
        windows = np.lib.stride_tricks.as_strided(
            values, (values.size - length + 1, length), values.strides * 2, writeable=False
        )
        step = max(1, _BLOCK_VALUES // length)
        for b in range(g0, g1, step):
            rows = order[b : min(b + step, g1)]
            dist = windows[starts[rows]]
            dist -= cents[rows, None]
            np.abs(dist, out=dist)
            out[rows] = np.add.reduce(dist, axis=1) / length
    return out


def mean_intracluster_distance(
    values: np.ndarray, labels: np.ndarray, centroids: np.ndarray
) -> dict:
    """Per-cluster mean absolute distance to the centroid, plus the average.

    Empty clusters contribute zero and are listed in ``empty_clusters``.
    A stable sort by label makes every cluster one contiguous slice that
    keeps its members in index order, so each slice reduces with the same
    pairwise summation as the cluster's masked members would.
    """
    values = np.asarray(values, dtype=float)
    labels = np.asarray(labels)
    cents = np.asarray(centroids, dtype=float)
    m = len(cents)
    order = np.argsort(labels, kind="stable")
    bounds = np.searchsorted(labels[order], np.arange(m + 1))
    per_cluster = _slice_means(values[order], bounds[:-1], bounds[1:], cents)
    return {
        "per_cluster": per_cluster,
        "mean": float(per_cluster.mean()),
        "empty_clusters": np.flatnonzero(bounds[:-1] == bounds[1:]).tolist(),
    }


def _micd_record(fs: np.ndarray, bounds: list, cents: list) -> _MicdRecord | list[float]:
    """The slices a K-means run must reduce for its MICD trace, from the
    (M + 1) bounds and M centroids of each iteration."""
    if not cents:
        return []
    b, c = np.array(bounds), np.array(cents)
    starts, ends = b[:, :-1], b[:, 1:]
    changed = np.ones(c.shape, dtype=bool)
    changed[1:] = (starts[1:] != starts[:-1]) | (ends[1:] != ends[:-1]) | (c[1:] != c[:-1])
    return _MicdRecord(
        fs, changed, starts[changed].astype(np.int32), ends[changed].astype(np.int32),
        c[changed],
    )


def _fill_block(records: list[_MicdRecord]) -> None:
    """MICD traces of a few records, their slices reduced together."""
    offsets = np.cumsum([0] + [r.fs.size for r in records[:-1]])
    means = _slice_means(
        np.concatenate([r.fs for r in records]),
        np.concatenate([r.starts + off for r, off in zip(records, offsets)]),
        np.concatenate([r.ends + off for r, off in zip(records, offsets)]),
        np.concatenate([r.centroids for r in records]),
    )
    pos = 0
    for r in records:
        t, m = r.changed.shape
        per_cluster = np.zeros((t, m))
        per_cluster[r.changed] = means[pos : pos + r.starts.size]
        pos += r.starts.size
        # each cluster repeats its value from the last iteration it changed in
        last = np.maximum.accumulate(np.where(r.changed, np.arange(t)[:, None], 0), axis=0)
        per_cluster = per_cluster[last, np.arange(m)]
        r.trace = (np.add.reduce(per_cluster, axis=1) / m).tolist()


def micd_traces(results: Sequence[SelectionResult]) -> None:
    """Fill the pending MICD traces of ``results`` in one batch.

    Equal-length slices of every iteration and every result are reduced
    together, in blocks of about ``_BLOCK_VALUES`` candidates, so a block
    costs one reduction per distinct slice length instead of one per
    cluster and iteration.  Each trace equals, bit for bit, the mean over
    clusters of ``mean_intracluster_distance`` at every iteration.
    """
    pending = {
        id(r._micd): r._micd for r in results
        if isinstance(r._micd, _MicdRecord) and r._micd.trace is None
    }
    block: list[_MicdRecord] = []
    size = 0
    for record in pending.values():
        block.append(record)
        size += record.fs.size
        if size >= _BLOCK_VALUES:
            _fill_block(block)
            block, size = [], 0
    if block:
        _fill_block(block)
    for r in results:
        if isinstance(r._micd, _MicdRecord):
            r._micd = r._micd.trace


def _require_candidates(freqs) -> np.ndarray:
    f = np.asarray(freqs, dtype=float)
    if f.size == 0:
        raise ValueError("empty candidate list")
    return f


def seed_centroids(
    freqs: Sequence[float] | np.ndarray,
    m: int,
    strategy: SeedStrategy = "linear",
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Initial centroid positions for M clusters.

    linear/mean_based: equal spacing over [min, max].  uniform_density/
    median_based: existing values at equal-count positions.  kmeanspp:
    squared-distance-proportional sampling.  random: uniform values in range.
    random_select: M distinct uniform picks from the candidates.
    """
    f = _require_candidates(freqs)
    if f.size < m:
        raise ValueError(f"cannot place {m} centroids on {f.size} candidates")
    fs = np.sort(f)
    if strategy in ("linear", "mean_based"):
        return np.linspace(fs[0], fs[-1], m)
    if strategy in ("uniform_density", "median_based"):
        idx = np.round(np.linspace(0, fs.size - 1, m)).astype(int)
        return fs[idx]
    if rng is None:
        rng = np.random.default_rng(0)
    if strategy == "random":
        return np.sort(rng.uniform(fs[0], fs[-1], m))
    if strategy == "random_select":
        return np.sort(rng.choice(f, size=m, replace=False))
    if strategy == "kmeanspp":
        cents = [float(f[rng.integers(f.size)])]
        d2 = (f - cents[0]) ** 2
        for _ in range(m - 1):
            total = d2.sum()
            if total <= 0:
                cents.append(cents[0])
                continue
            pick = int(rng.choice(f.size, p=d2 / total))
            cents.append(float(f[pick]))
            d2 = np.minimum(d2, (f - cents[-1]) ** 2)
        return np.sort(np.array(cents))
    raise ValueError(f"unknown seeding strategy {strategy!r}")


def _snap_distinct(fs: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Nearest-existing-frequency indices, one distinct candidate per centroid.

    ``fs`` must be sorted.  Exact distance ties go to the lower value, which
    for duplicated frequencies is the lowest index.  When nearest candidates
    collide, centroids are resolved in ascending order and one whose nearest
    candidate is taken walks outward to the nearest free one.
    """
    n = fs.size
    centroids = np.asarray(centroids, dtype=float)
    if centroids.size <= n:
        pos = np.searchsorted(fs, centroids)
        d_lo = np.where(pos > 0, centroids - fs[np.maximum(pos - 1, 0)], np.inf)
        d_hi = np.where(pos < n, fs[np.minimum(pos, n - 1)] - centroids, np.inf)
        nearest = np.where(d_lo <= d_hi, pos - 1, pos)
        if (nearest[1:] > nearest[:-1]).all() or np.unique(nearest).size == nearest.size:
            return nearest
    taken: set[int] = set()
    out = np.empty(len(centroids), dtype=np.intp)
    order = np.argsort(centroids, kind="stable")
    for rank in order:
        c = centroids[rank]
        pos = int(np.searchsorted(fs, c))
        best = -1
        lo, hi = pos - 1, pos
        while lo >= 0 or hi < n:
            d_lo = c - fs[lo] if lo >= 0 else np.inf
            d_hi = fs[hi] - c if hi < n else np.inf
            if d_lo <= d_hi:
                i = lo
                lo -= 1
            else:
                i = hi
                hi += 1
            if i not in taken:
                best = i
                break
        if best < 0:
            raise ValueError("more centroids than candidates")
        taken.add(best)
        out[rank] = best
    return out


def _kmeans_iterations(fs: np.ndarray, init: np.ndarray, k_max: int):
    """Standard 1-D expectation-maximization, yielding per-iteration state.

    Candidates must be sorted, so every cluster is a contiguous slice.  Each
    iteration yields its sorted centroids and the M + 1 bounds of their
    clusters, cluster j being ``fs[bounds[j]:bounds[j + 1]]``; a candidate on
    a midpoint belongs to the lower cluster.  Empty clusters are re-seeded to
    the candidate farthest from all current centroids.
    """
    n = fs.size
    cum = np.concatenate([[0.0], np.cumsum(fs)])
    c = np.sort(np.asarray(init, dtype=float))
    m = c.size
    mids = (c[:-1] + c[1:]) / 2.0
    # the update step assigns a candidate on a midpoint to the upper cluster
    update_bounds = np.empty(m + 1, dtype=np.intp)
    update_bounds[0], update_bounds[-1] = 0, n
    for iteration in range(1, k_max + 1):
        update_bounds[1:-1] = np.searchsorted(fs, mids, side="left")
        counts = update_bounds[1:] - update_bounds[:-1]
        edge_sums = cum[update_bounds]
        sums = edge_sums[1:] - edge_sums[:-1]
        nonempty = counts > 0
        reseeded = not nonempty.all()
        if reseeded:
            new_c = c.copy()
            new_c[nonempty] = sums[nonempty] / counts[nonempty]
            for j in np.flatnonzero(~nonempty):
                dist = np.abs(fs[:, None] - new_c[None, :]).min(axis=1)
                new_c[j] = fs[int(np.argmax(dist))]
        else:
            new_c = sums / counts
        new_c.sort()
        mids = (new_c[:-1] + new_c[1:]) / 2.0
        bounds = np.empty(m + 1, dtype=np.intp)
        bounds[0], bounds[-1] = 0, n
        bounds[1:-1] = np.searchsorted(fs, mids, side="right")
        converged = not reseeded and bool((new_c == c).all())
        yield iteration, new_c, bounds, converged
        if converged:
            return
        c = new_c


def _run_kmeans(
    freqs, config: SelectionConfig, site_refs=None
) -> tuple[SelectionResult, SelectionResult]:
    """Shared EM loop; returns (global-best result, final-iteration result).

    Both results share one pending MICD trace (see ``micd_traces``).
    """
    f = _require_candidates(freqs)
    m = config.m
    if f.size < m:
        raise ValueError(f"cannot select {m} from {f.size} candidates")
    refs = np.arange(f.size) if site_refs is None else np.asarray(site_refs)
    order = np.argsort(f, kind="stable")
    fs, refs_sorted = f[order], refs[order]

    def result_from(idx: np.ndarray, best_trace, micd, iters) -> SelectionResult:
        idx = np.sort(idx)
        chosen = [(int(refs_sorted[i]), float(fs[i])) for i in idx]
        return SelectionResult(
            chosen=chosen,
            centroids=fs[idx].copy(),
            min_diff=min_pairwise_diff(fs[idx]) if len(idx) >= 2 else 0.0,
            min_diff_trace=best_trace,
            iterations=iters,
            _micd=micd,
        )

    if f.size == m:
        idx = np.arange(m)
        beta = min_pairwise_diff(fs) if m >= 2 else 0.0
        one = result_from(idx, [beta], [0.0], 1)
        return one, result_from(idx, [beta], [0.0], 1)

    rng = np.random.default_rng(config.rng_seed)
    init = seed_centroids(fs, m, config.seeding, rng)

    # centroids may not exist in the pool at initialization, so the stored
    # baseline is the snapped seed list
    best_idx = _snap_distinct(fs, init)
    beta_p = min_pairwise_diff(fs[best_idx])
    chi_trace = [beta_p]
    bounds_log: list[np.ndarray] = []
    cents_log: list[np.ndarray] = []
    final_idx = best_idx
    iterations = 0
    for iteration, c, bounds, _ in _kmeans_iterations(fs, init, config.k_max):
        iterations = iteration
        snapped = np.sort(_snap_distinct(fs, c))
        chosen = fs[snapped]
        beta_c = float((chosen[1:] - chosen[:-1]).min())
        chi_trace.append(beta_c)
        bounds_log.append(bounds)
        cents_log.append(c)
        if beta_c > beta_p:
            beta_p, best_idx = beta_c, snapped
        final_idx = snapped
    micd = _micd_record(fs, bounds_log, cents_log)
    improved = result_from(best_idx, chi_trace, micd, iterations)
    plain = result_from(final_idx, chi_trace, micd, iterations)
    return improved, plain


def improved_kmeans(freqs, config: SelectionConfig, site_refs=None) -> SelectionResult:
    """Grouping with global-maximum retention.

    Runs 1-D K-means, snapping centroids to nearest existing frequencies
    every iteration, and returns the snapped list with the largest minimum
    pairwise difference seen over all iterations, never the final one.
    """
    improved, _ = _run_kmeans(freqs, config, site_refs)
    return improved


def plain_kmeans(freqs, config: SelectionConfig, site_refs=None) -> SelectionResult:
    """Baseline: identical EM loop, but returns the final iteration's snap."""
    _, plain = _run_kmeans(freqs, config, site_refs)
    return plain


def _map_to_indices(nu: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Indices of the given values in sorted nu; duplicates consume successive slots."""
    used: dict[int, int] = {}
    out = np.empty(values.size, dtype=np.intp)
    for k, v in enumerate(np.sort(values)):
        i = int(np.searchsorted(nu, v, side="left"))
        while i < nu.size and nu[i] == v and used.get(i):
            i += 1
        if i >= nu.size or nu[i] != v:
            raise ValueError(f"centroid {v} is not a member of the candidate list")
        used[i] = 1
        out[k] = i
    return out


def relocate_centroids(
    nu, lp, max_iter: int = 200, site_refs=None
) -> SelectionResult:
    """Widen the smallest centroid gap by sliding one of its endpoints.

    Per round: find the minimum adjacent gap; compare the two neighboring
    gaps (a missing neighbor counts as infinite) to pick a direction; slide
    that endpoint through the intervening candidates, accepting the farthest
    position whose new gap to the fixed neighbor still exceeds the old
    minimum; try the opposite direction if no such position exists.  Stops
    when neither direction admits a move or after ``max_iter`` rounds.  The
    returned minimum difference never falls below the input's.
    """
    nu = np.asarray(nu, dtype=float)
    if nu.ndim != 1 or nu.size < 2:
        raise ValueError("candidate list must be 1-D with at least 2 entries")
    if np.any(np.diff(nu) < 0):
        raise ValueError("candidate list must be sorted ascending")
    lp = np.asarray(lp, dtype=float)
    if lp.size < 2:
        raise ValueError(f"need at least 2 centroids, got {lp.size}")
    refs = np.arange(nu.size) if site_refs is None else np.asarray(site_refs)

    pos = np.sort(_map_to_indices(nu, lp))
    trace: list[float] = [min_pairwise_diff(nu[pos])]

    def try_move(direction: str, k_m: int, th: float) -> bool:
        if direction == "L":
            mover = k_m
            left = pos[k_m - 1] if k_m >= 1 else -1
            if left < 0:
                j = 0
            else:
                j = int(np.searchsorted(nu, nu[left] + th, side="right"))
            if j >= pos[mover] or nu[j] >= nu[pos[mover]]:
                return False
            pos[mover] = j
            return True
        mover = k_m + 1
        right = pos[k_m + 2] if k_m + 2 < pos.size else nu.size
        if right >= nu.size:
            j = nu.size - 1
        else:
            j = int(np.searchsorted(nu, nu[right] - th, side="left")) - 1
        if j <= pos[mover] or nu[j] <= nu[pos[mover]]:
            return False
        pos[mover] = j
        return True

    iterations = 0
    for _ in range(max_iter):
        gaps = np.diff(nu[pos])
        k_m = int(np.argmin(gaps))
        th = float(gaps[k_m])
        left_gap = float(gaps[k_m - 1]) if k_m >= 1 else np.inf
        right_gap = float(gaps[k_m + 1]) if k_m + 1 < gaps.size else np.inf
        prefer = "L" if left_gap > right_gap else "R"
        other = "R" if prefer == "L" else "L"
        if not (try_move(prefer, k_m, th) or try_move(other, k_m, th)):
            break
        iterations += 1
        trace.append(min_pairwise_diff(nu[pos]))

    chosen = [(int(refs[i]), float(nu[i])) for i in pos]
    return SelectionResult(
        chosen=chosen,
        centroids=nu[pos].copy(),
        min_diff=min_pairwise_diff(nu[pos]),
        min_diff_trace=trace,
        iterations=iterations,
    )


def baseline_select(
    freqs,
    m: int,
    method: Literal["mean_based", "median_based", "random_select"],
    rng: np.random.Generator | None = None,
    site_refs=None,
) -> SelectionResult:
    """Non-clustering selectors used for comparison.

    mean_based snaps an equal-distance grid to nearest existing frequencies;
    median_based picks equal-count positions; random_select draws M distinct
    candidates uniformly.
    """
    f = _require_candidates(freqs)
    if f.size < m:
        raise ValueError(f"cannot select {m} from {f.size} candidates")
    refs = np.arange(f.size) if site_refs is None else np.asarray(site_refs)
    order = np.argsort(f, kind="stable")
    fs, refs_sorted = f[order], refs[order]
    if method == "mean_based":
        idx = _snap_distinct(fs, np.linspace(fs[0], fs[-1], m))
    elif method == "median_based":
        idx = np.round(np.linspace(0, fs.size - 1, m)).astype(np.intp)
    elif method == "random_select":
        if rng is None:
            rng = np.random.default_rng(0)
        idx = rng.choice(fs.size, size=m, replace=False)
    else:
        raise ValueError(f"unknown baseline method {method!r}")
    idx = np.sort(idx)
    chosen = [(int(refs_sorted[i]), float(fs[i])) for i in idx]
    return SelectionResult(
        chosen=chosen,
        centroids=fs[idx].copy(),
        min_diff=min_pairwise_diff(fs[idx]),
    )
