"""Phase-2 frequency selection.

Chooses M oscillator frequencies out of the cleaned candidate pool so that
the minimum pairwise frequency difference is as large as possible: 1-D
K-means that snaps centroids to existing frequencies each iteration and keeps
the globally best snapped list, followed by an iterative centroid-relocation
pass that widens the currently smallest gap.  Baseline selectors are provided
for comparison.

Each K-means iteration works on the sorted candidates, where every cluster is
one contiguous slice, so it needs no label vector and no sort, and one
iteration serves many pools at once (``batched_kmeans``).  The mean
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


def _micd_record(fs: np.ndarray, b: np.ndarray, c: np.ndarray) -> _MicdRecord | list[float]:
    """The slices a K-means run must reduce for its MICD trace, from the
    (iterations, M + 1) bounds and (iterations, M) centroids."""
    if not len(c):
        return []
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


class _SortedRows:
    """The sorted candidate arrays of several pools, searched and gathered
    together.

    ``padded`` lays the arrays end to end, each between -inf and +inf, with
    array r's first candidate at ``starts[r]``.  ``search`` equals
    ``np.searchsorted`` on each row's own array.  When no candidate is
    negative, -0.0 or non-finite, the arrays are also laid end to end as
    int64 keys (the bit pattern of a non-negative double orders like its
    value; keys are clipped to the candidates' range and offset by row), so
    one ``searchsorted`` serves all rows.  The searched values must then be
    non-negative and not -0.0 too, as means and midpoints of such
    candidates are.  Other candidates are searched row by row.
    """

    def __init__(self, arrays: Sequence[np.ndarray]) -> None:
        self.arrays = list(arrays)
        self.sizes = np.array([a.size for a in self.arrays], dtype=np.intp)
        self.starts = 1 + np.concatenate([[0], np.cumsum(self.sizes + 2)[:-1]])
        edge = [np.array([-np.inf]), np.array([np.inf])]
        self.padded = np.concatenate([x for a in self.arrays for x in (edge[0], a, edge[1])])
        self.keys = None
        values = np.concatenate(self.arrays)
        if np.isfinite(values).all() and not np.signbit(values).any():
            lo = int(values.min().view(np.int64))
            self._shift = lo - 1
            self._top = int(values.max().view(np.int64)) - self._shift + 1
            self._width = self._top + 1
            if self._width <= np.iinfo(np.int64).max // (len(self.arrays) + 1):
                self._key_offsets = np.concatenate([[0], np.cumsum(self.sizes)[:-1]])
                rows = np.repeat(np.arange(len(self.arrays)), self.sizes)
                self.keys = rows * self._width + self._rank(values)

    def _rank(self, x: np.ndarray) -> np.ndarray:
        """Key of each value within its row: 1..top-1 over the candidates'
        range, 0 below it and top above it."""
        key = np.ascontiguousarray(x).view(np.int64) - self._shift
        np.minimum(key, self._top, out=key)
        np.maximum(key, 0, out=key)
        return key

    def search(self, rows: np.ndarray, x: np.ndarray, side: str) -> np.ndarray:
        """Positions of the values ``x[i]`` in array ``rows[i]``."""
        if rows.size == 1:
            return np.searchsorted(self.arrays[rows[0]], x, side)
        if self.keys is None:
            return np.stack([np.searchsorted(self.arrays[r], xi, side)
                             for r, xi in zip(rows.tolist(), x)])
        q = self._rank(x)
        q += rows[:, None] * self._width
        pos = np.searchsorted(self.keys, q, side)
        pos -= self._key_offsets[rows, None]
        return pos

    def snap(self, rows: np.ndarray, cents: np.ndarray) -> np.ndarray:
        """``np.sort(_snap_distinct(...))`` of each row of sorted centroids."""
        pos = self.search(rows, cents, "left")
        at = self.starts[rows, None] + pos
        d_lo = cents - self.padded[at - 1]
        d_hi = self.padded[at] - cents
        nearest = pos - (d_lo <= d_hi)
        for i in np.flatnonzero(~(nearest[:, 1:] > nearest[:, :-1]).all(axis=1)):
            nearest[i] = np.sort(_snap_distinct(self.arrays[rows[i]], cents[i]))
        return nearest


def batched_kmeans(
    freqs: Sequence, configs: Sequence[SelectionConfig], site_refs: Sequence | None = None
) -> list[tuple[SelectionResult, SelectionResult]]:
    """K-means selection of several candidate pools at once; per pool, the
    (global-best, final-iteration) results.

    Every pool runs its own 1-D expectation-maximization on its sorted
    candidates, where every cluster is a contiguous slice: an update step
    (the mean of each cluster; an empty cluster is re-seeded to the
    candidate farthest from all current centroids), then the M + 1 bounds of
    the new clusters (a candidate on a midpoint joins the lower cluster) and
    the snap of the centroids to distinct candidates.  A pool stops when an
    update without re-seeds leaves its centroids unchanged, or after its
    ``k_max`` iterations.  Each step runs for all pools still active at once,
    on a (pools, M) centroid matrix, and gives every pool the results it
    would get alone.  All configs must share one M.  Both results of a pool
    share one pending MICD trace (see ``micd_traces``).
    """
    if len(configs) != len(freqs):
        raise ValueError("need one config per candidate pool")
    if site_refs is None:
        site_refs = [None] * len(freqs)
    ms = {c.m for c in configs}
    if len(ms) > 1:
        raise ValueError(f"pools of one batch must share M, got {sorted(ms)}")
    out: list = [None] * len(freqs)
    pools, inits, best, trace0 = [], [], [], []
    for d, (f, cfg, refs) in enumerate(zip(freqs, configs, site_refs)):
        f = _require_candidates(f)
        m = cfg.m
        if f.size < m:
            raise ValueError(f"cannot select {m} from {f.size} candidates")
        refs = np.arange(f.size) if refs is None else np.asarray(refs)
        order = np.argsort(f, kind="stable")
        fs, refs_sorted = f[order], refs[order]
        if f.size == m:
            idx = np.arange(m)
            beta = min_pairwise_diff(fs) if m >= 2 else 0.0
            out[d] = tuple(_result(fs, refs_sorted, idx, [beta], [0.0], 1) for _ in range(2))
            continue
        init = seed_centroids(fs, m, cfg.seeding, np.random.default_rng(cfg.rng_seed))
        # centroids may not exist in the pool at initialization, so the
        # stored baseline is the snapped seed list
        snapped = _snap_distinct(fs, init)
        pools.append((d, fs, refs_sorted, cfg.k_max))
        inits.append(np.sort(init))
        best.append(snapped)
        trace0.append(min_pairwise_diff(fs[snapped]))
    if pools:
        _em_batch(pools, np.array(inits), best, trace0, out)
    return out


def _result(fs, refs_sorted, idx, trace, micd, iterations) -> SelectionResult:
    idx = np.sort(idx)
    return SelectionResult(
        chosen=[(int(refs_sorted[i]), float(fs[i])) for i in idx],
        centroids=fs[idx].copy(),
        min_diff=min_pairwise_diff(fs[idx]) if len(idx) >= 2 else 0.0,
        min_diff_trace=trace,
        iterations=iterations,
        _micd=micd,
    )


def _em_batch(pools, c: np.ndarray, best, trace0, out) -> None:
    """The EM iterations of ``batched_kmeans`` for pools with more
    candidates than centroids, from their sorted initial centroids ``c``;
    fills their entries of ``out``."""
    cands = _SortedRows([fs for _, fs, _, _ in pools])
    n = cands.sizes
    # each pool's prefix sums, with a leading 0, end to end
    cums = np.concatenate([np.concatenate([[0.0], np.cumsum(fs)]) for _, fs, _, _ in pools])
    cum_starts = np.concatenate([[0], np.cumsum(n + 1)[:-1]])
    k_max = np.array([k for _, _, _, k in pools])
    m = c.shape[1]
    ids = np.flatnonzero(k_max >= 1)  # the pools still iterating
    c = c[ids]
    mids = (c[:, :-1] + c[:, 1:]) / 2.0
    log = [(np.empty(0, dtype=np.intp), np.empty((0, m - 1), dtype=np.intp),
            np.empty((0, m)), np.empty((0, m), dtype=np.intp), np.empty(0))]
    iteration = 0
    while ids.size:
        iteration += 1
        # the update step assigns a candidate on a midpoint to the upper cluster
        bounds = np.empty((ids.size, m + 1), dtype=np.intp)
        bounds[:, 0], bounds[:, -1] = 0, n[ids]
        bounds[:, 1:-1] = cands.search(ids, mids, "left")
        counts = bounds[:, 1:] - bounds[:, :-1]
        edge_sums = cums[cum_starts[ids, None] + bounds]
        new_c = (edge_sums[:, 1:] - edge_sums[:, :-1]) / np.maximum(counts, 1)
        reseeded = (counts == 0).any(axis=1)
        for i in np.flatnonzero(reseeded):
            row = np.where(counts[i] > 0, new_c[i], c[i])
            fs = cands.arrays[ids[i]]
            for j in np.flatnonzero(counts[i] == 0):
                dist = np.abs(fs[:, None] - row[None, :]).min(axis=1)
                row[j] = fs[int(np.argmax(dist))]
            new_c[i] = row
        new_c.sort(axis=1)
        new_mids = (new_c[:, :-1] + new_c[:, 1:]) / 2.0
        snapped = cands.snap(ids, new_c)
        chosen = cands.padded[cands.starts[ids, None] + snapped]
        beta = (chosen[:, 1:] - chosen[:, :-1]).min(axis=1)
        log.append((ids, cands.search(ids, new_mids, "right"), new_c, snapped, beta))
        done = (new_c == c).all(axis=1) & ~reseeded
        done |= iteration >= k_max[ids]
        c, mids = new_c, new_mids
        if done.any():
            ids, c, mids = ids[~done], c[~done], mids[~done]

    # every pool's iterations, in order, as one slice of each logged array
    row_of = np.concatenate([entry[0] for entry in log])
    order = np.argsort(row_of, kind="stable")
    splits = np.cumsum(np.bincount(row_of, minlength=len(pools)))[:-1]
    inner, cents, snaps, betas = (
        np.split(np.concatenate([entry[k] for entry in log])[order], splits) for k in range(1, 5)
    )
    for p, (d, fs, refs, _) in enumerate(pools):
        iterations = len(cents[p])
        trace = [trace0[p], *betas[p].tolist()]
        # the kept list is the first strict maximum over the seed list and
        # every iteration
        top = int(np.argmax(trace))
        b = np.empty((iterations, m + 1), dtype=np.intp)
        b[:, 0], b[:, -1], b[:, 1:-1] = 0, fs.size, inner[p]
        micd = _micd_record(fs, b, cents[p])
        final = snaps[p][-1] if iterations else best[p]
        out[d] = (
            _result(fs, refs, best[p] if top == 0 else snaps[p][top - 1], trace, micd, iterations),
            _result(fs, refs, final, trace, micd, iterations),
        )


def improved_kmeans(freqs, config: SelectionConfig, site_refs=None) -> SelectionResult:
    """Grouping with global-maximum retention.

    Runs 1-D K-means, snapping centroids to nearest existing frequencies
    every iteration, and returns the snapped list with the largest minimum
    pairwise difference seen over all iterations, never the final one.  A
    one-pool call of ``batched_kmeans``.
    """
    return batched_kmeans([freqs], [config], [site_refs])[0][0]


def plain_kmeans(freqs, config: SelectionConfig, site_refs=None) -> SelectionResult:
    """Baseline: identical EM loop, but returns the final iteration's snap."""
    return batched_kmeans([freqs], [config], [site_refs])[0][1]


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
