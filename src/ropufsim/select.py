"""Phase-2 frequency selection.

Chooses M oscillator frequencies out of the cleaned candidate pool so that
the minimum pairwise frequency difference is as large as possible: 1-D
K-means that snaps centroids to existing frequencies each iteration and keeps
the globally best snapped list, followed by an iterative centroid-relocation
pass that widens the currently smallest gap.  A baseline selector is a
zero-iteration run (``k_max=0``), which keeps its snapped seed list: the
``linear`` seeding is the mean-based baseline, ``uniform_density`` the
median-based one and ``random_select`` the random one.

Each K-means iteration works on the sorted candidates, where every cluster is
one contiguous slice, so it needs no label vector and no sort, and one
iteration serves many pools at once (``batched_kmeans``, one result per
pool).  The neighbours of each step's search positions give the snap, the
chosen frequencies and the next bounds.  The mean intra-cluster distance
(MICD) after each iteration comes from the same prefix sums that give the
cluster means, in one pass over every pool's logged steps.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Literal, Sequence

import numpy as np

EVALUATED_RO_COUNTS = (8, 16, 32, 64)

SeedStrategy = Literal["linear", "uniform_density", "random_select"]


@dataclass
class SelectionConfig:
    """Knobs for the selection pipeline."""

    m: int
    seeding: SeedStrategy = "linear"
    k_max: int = 100
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
class SelectionResult:
    """Chosen sites/frequencies plus convergence diagnostics.

    ``refs`` (site references) and ``freqs`` (MHz) describe the M chosen
    oscillators, sorted by frequency; ``min_diff`` is the minimum over all
    pairwise differences of the chosen frequencies; ``micd_trace`` is the
    mean intra-cluster distance after each K-means iteration.
    """

    refs: np.ndarray
    freqs: np.ndarray
    min_diff: float
    min_diff_trace: list[float]
    micd_trace: list[float] = field(default_factory=list)

    @property
    def iterations(self) -> int:
        """K-means iterations or relocation moves: the trace entries after the start's."""
        return len(self.min_diff_trace) - 1

    def to_json_dict(self) -> dict:
        return {
            "chosen": pair_rows(self.refs, self.freqs),
            "centroids": self.freqs.tolist(),
            "min_diff_mhz": float(self.min_diff),
            "min_diff_trace": [float(x) for x in self.min_diff_trace],
            "micd_trace": [float(x) for x in self.micd_trace],
            "iterations": int(self.iterations),
        }


def pair_rows(refs: np.ndarray, freqs: np.ndarray) -> list[list]:
    """[site_ref, MHz] rows of parallel reference and frequency arrays, the
    file form of chosen oscillators."""
    return list(map(list, zip(refs.tolist(), freqs.tolist())))


def min_pairwise_diff(freqs: Sequence[float] | np.ndarray) -> float:
    """Smallest |f_i - f_j| over all unordered pairs."""
    a = np.sort(np.asarray(freqs, dtype=float))
    if a.size < 2:
        raise ValueError(f"need at least 2 frequencies, got {a.size}")
    return float(np.diff(a).min())


def _require_candidates(freqs) -> np.ndarray:
    """Candidate frequencies as a float array; an empty list or a NaN or
    infinite value raises ``ValueError``, the latter naming its index."""
    f = np.asarray(freqs, dtype=float)
    if f.size == 0:
        raise ValueError("empty candidate list")
    finite = np.isfinite(f)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise ValueError(f"candidate {bad} is not finite ({f.flat[bad]})")
    return f


def seed_centroids(
    freqs: Sequence[float] | np.ndarray,
    m: int,
    strategy: SeedStrategy = "linear",
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Initial centroid positions for M clusters.

    linear: equal spacing over [min, max].  uniform_density: existing values
    at equal-count positions.  random_select: M distinct uniform picks from
    the candidates.
    """
    f = _require_candidates(freqs)
    if f.size < m:
        raise ValueError(f"cannot place {m} centroids on {f.size} candidates")
    fs = np.sort(f)
    if strategy == "linear":
        return np.linspace(fs[0], fs[-1], m)
    if strategy == "uniform_density":
        idx = np.round(np.linspace(0, fs.size - 1, m)).astype(int)
        return fs[idx]
    if strategy == "random_select":
        if rng is None:
            rng = np.random.default_rng(0)
        return np.sort(rng.choice(f, size=m, replace=False))
    raise ValueError(f"unknown seeding strategy {strategy!r}")


def _snap_distinct(fs: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Nearest-existing-frequency indices, one distinct candidate per centroid.

    ``fs`` must be sorted.  Exact distance ties go to the lower value, which
    for duplicated frequencies is the lowest index.  Centroids are resolved
    in ascending order, and one whose nearest candidate is taken walks
    outward to the nearest free one: ``batched_kmeans``' collision walk.
    """
    n = fs.size
    centroids = np.asarray(centroids, dtype=float)
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


def _search(arrays: Sequence[np.ndarray], rows: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``"left"`` positions of the values ``x[i]`` in the sorted array
    ``arrays[rows[i]]``, one search per row; those of
    ``np.nextafter(x, np.inf)`` are the ``"right"`` positions of a finite ``x``."""
    pos = np.empty(x.shape, dtype=np.intp)
    for i, r in enumerate(rows.tolist()):
        pos[i] = arrays[r].searchsorted(x[i])
    return pos


def _nearest_centroid_distance(fs: np.ndarray, cents: np.ndarray) -> np.ndarray:
    """Distance of each sorted candidate to its nearest centroid.

    Equals ``np.abs(fs[:, None] - cents).min(axis=1)`` (bit for bit, but
    for the sign of a zero), so ``argmax`` picks the same candidate: rounded
    subtraction is monotone and sign-symmetric, so the nearest centroid on
    each side is the one next to the candidate in sorted order, found by one
    search of the candidates into the sorted centroids.
    """
    edges = np.concatenate([[-np.inf], np.sort(cents), [np.inf]])
    pos = np.searchsorted(edges, fs, "left")
    return np.minimum(fs - edges[pos - 1], edges[pos] - fs)


def _mean_distances(
    cum: np.ndarray, starts: np.ndarray, ends: np.ndarray, cents: np.ndarray, q: np.ndarray
) -> np.ndarray:
    """Mean of |x - c| over each slice [s, e) of sorted candidates, with c
    its centroid and q = clip(searchsorted(candidates, c), s, e): the
    candidates before q lie at or below c, those from q on at or above it.
    Entry i of the prefix sums ``cum`` sums the candidates before i; 0.0 when
    empty.
    """
    total = (cents * (q - starts) - (cum[q] - cum[starts])
             + (cum[ends] - cum[q]) - cents * (ends - q))
    return total / np.maximum(ends - starts, 1)


def batched_kmeans(
    freqs: Sequence, configs: Sequence[SelectionConfig], site_refs: Sequence | None = None
) -> list[SelectionResult]:
    """Improved K-means selection of several candidate pools at once: per
    pool, the snapped list of its step log with the largest minimum
    difference, the first one where steps tie.

    Every pool runs its own 1-D expectation-maximization on its sorted
    candidates, where every cluster is a contiguous slice: an update step
    (the mean of each cluster; an empty cluster is re-seeded to the first
    candidate farthest from all current centroids, found from each
    candidate's neighbours in the sorted centroids, the empty clusters of a
    pool filled one at a time), then the M + 1 bounds of the new clusters (a
    candidate on a midpoint joins the lower cluster) and the snap of the
    centroids to distinct candidates.  Each step makes one search per pool,
    of its centroids and of the next float above each midpoint; the two
    candidates beside each position give the snap, the chosen frequencies
    and the next update's bounds, and only a pool with a candidate exactly on
    a midpoint searches again.  Step 0 does the same for the sorted seed
    list.  A pool stops when an update without re-seeds leaves its centroids
    unchanged, or after its ``k_max`` iterations; with ``k_max=0`` it keeps
    its snapped seed list (a baseline selector).  Each step runs for all
    pools still active at once, on a (pools, M) centroid matrix, and gives
    every pool the result it would get alone; one pass over the whole log
    gives every iteration's MICD.  All configs must share one M.  A pool
    given in ascending order is used as it is, without a sorted copy.
    """
    if len(configs) != len(freqs):
        raise ValueError("need one config per candidate pool")
    if site_refs is None:
        site_refs = [None] * len(freqs)
    ms = {c.m for c in configs}
    if len(ms) > 1:
        raise ValueError(f"pools of one batch must share M, got {sorted(ms)}")
    pools, inits = [], []
    for d, (f, cfg, refs) in enumerate(zip(freqs, configs, site_refs)):
        try:
            f = _require_candidates(f)
        except ValueError as exc:
            raise ValueError(f"pool {d}: {exc}") from None
        m = cfg.m
        if f.size < m:
            raise ValueError(f"cannot select {m} from {f.size} candidates")
        refs = np.arange(f.size) if refs is None else np.asarray(refs, dtype=np.intp)
        if (f[1:] >= f[:-1]).all():
            fs, refs_sorted = f, refs
        else:
            order = np.argsort(f, kind="stable")
            fs, refs_sorted = f[order], refs[order]
        # only the random seeding draws from a generator
        rng = np.random.default_rng(cfg.rng_seed) if cfg.seeding == "random_select" else None
        pools.append((fs, refs_sorted, cfg.k_max))
        inits.append(np.sort(seed_centroids(fs, m, cfg.seeding, rng)))
    return _em_batch(pools, np.array(inits)) if pools else []


# Log rows per chunk of the MICD pass, whose temporaries take 8 M bytes per
# row: whole-log temporaries raised a population run's peak memory.
_MICD_ROWS = 64


def _em_batch(pools, c: np.ndarray) -> list[SelectionResult]:
    """The results of ``batched_kmeans`` from the pools' sorted seed lists
    ``c``, whose snap is step 0."""
    arrays = [fs for fs, _, _ in pools]
    n = np.array([fs.size for fs in arrays])
    # each pool's candidates between -inf and +inf, and its prefix sums with a
    # leading 0 and a trailing pad, end to end: at base[p] + i lie candidate
    # i - 1 of pool p and the sum of its first i candidates
    padded = np.concatenate([x for fs in arrays for x in ([-np.inf], fs, [np.inf])])
    cums = np.concatenate([x for fs in arrays for x in ([0.0], np.cumsum(fs), [0.0])])
    base = np.concatenate([[0], np.cumsum(n + 2)[:-1]])
    k_act = np.array([k for _, _, k in pools])
    m = c.shape[1]
    ids = np.arange(len(pools))  # the pools still in the log
    # the active pools' rows of every per-pool array, compacted as pools finish
    at0 = base[:, None]
    bounds = np.empty((ids.size, m + 1), dtype=np.intp)
    bounds[:, 0], bounds[:, -1] = 0, n
    # one search per step: the centroids at even columns and, at odd ones,
    # the next float above each midpoint, whose "left" positions are its "right" ones
    query = np.empty((ids.size, 2 * m - 1))
    # per field, its array of every step: the pools, the search positions,
    # the centroids, their snap and its minimum difference
    log = [[] for _ in range(5)]
    done = np.zeros(ids.size, dtype=bool)
    step = 0
    while True:
        query[:, 0::2] = c
        mids = (c[:, :-1] + c[:, 1:]) / 2.0
        np.nextafter(mids, np.inf, out=query[:, 1::2])
        pos = _search(arrays, ids, query)
        # every query's neighbours, the candidates before and at its position
        at = at0 + pos
        lo, hi = padded[at], padded[at + 1]
        # each centroid's nearest candidate, an exact tie going lower; a row
        # whose nearest candidates collide takes the walk of _snap_distinct
        below = c - lo[:, 0::2] <= hi[:, 0::2] - c
        snapped = pos[:, 0::2] - below
        chosen = np.where(below, lo[:, 0::2], hi[:, 0::2])
        for i in np.flatnonzero(~(snapped[:, 1:] > snapped[:, :-1]).all(axis=1)):
            fs = arrays[ids[i]]
            snapped[i] = np.sort(_snap_distinct(fs, c[i]))
            chosen[i] = fs[snapped[i]]
        beta = (chosen[:, 1:] - chosen[:, :-1]).min(axis=1)
        for field, x in zip(log, (ids, pos, c, snapped, beta)):
            field.append(x)
        # the update step assigns a candidate on a midpoint to the upper
        # cluster; the "right" positions differ from the "left" ones only
        # where the candidate before them lies on the midpoint
        on_mid = (lo[:, 1::2] == mids).any(axis=1)
        done |= step >= k_act
        if done.any():
            keep = ~done
            ids, c, mids, pos, on_mid = ids[keep], c[keep], mids[keep], pos[keep], on_mid[keep]
            k_act, at0, bounds, query = k_act[keep], at0[keep], bounds[keep], query[keep]
            if not ids.size:
                break
        step += 1
        bounds[:, 1:-1] = pos[:, 1::2]
        if on_mid.any():
            bounds[on_mid, 1:-1] = _search(arrays, ids[on_mid], mids[on_mid])
        counts = bounds[:, 1:] - bounds[:, :-1]
        edge_sums = cums[at0 + bounds]
        new_c = (edge_sums[:, 1:] - edge_sums[:, :-1]) / np.maximum(counts, 1)
        reseeded = (counts == 0).any(axis=1)
        for i in np.flatnonzero(reseeded):
            row = np.where(counts[i] > 0, new_c[i], c[i])
            fs = arrays[ids[i]]
            for j in np.flatnonzero(counts[i] == 0):
                row[j] = fs[int(np.argmax(_nearest_centroid_distance(fs, row)))]
            new_c[i] = row
        new_c.sort(axis=1)
        done = (new_c == c).all(axis=1) & ~reseeded
        c = new_c

    # each field as one array, its steps freed once joined
    rows, pos, cents, snaps, betas = (np.concatenate(log.pop(0)) for _ in range(5))
    # the MICD of every logged step's clusters, bounded by the "right" positions
    # of its midpoints, in chunks of rows
    micd = np.empty(rows.size)
    for r in range(0, rows.size, _MICD_ROWS):
        part = slice(r, r + _MICD_ROWS)
        at = base[rows[part], None]
        b = np.concatenate([at, at + pos[part, 1::2], at + n[rows[part], None]], axis=1)
        q = np.clip(at + pos[part, 0::2], b[:, :-1], b[:, 1:])
        means = _mean_distances(cums, b[:, :-1], b[:, 1:], cents[part], q)
        micd[part] = np.add.reduce(means, axis=1) / m
    # each pool's rows of the log, in step order
    order = np.argsort(rows, kind="stable")
    out = []
    for (fs, refs, _), steps in zip(pools, np.split(order, np.cumsum(np.bincount(rows))[:-1])):
        trace = betas[steps].tolist()
        top = int(np.argmax(trace))  # the first strict maximum
        idx = snaps[steps[top]]
        # the seed list's step has no MICD
        out.append(SelectionResult(refs=refs[idx], freqs=fs[idx], min_diff=trace[top],
                                   min_diff_trace=trace, micd_trace=micd[steps[1:]].tolist()))
    return out


def improved_kmeans(freqs, config: SelectionConfig, site_refs=None) -> SelectionResult:
    """Grouping with global-maximum retention.

    Runs 1-D K-means, snapping centroids to nearest existing frequencies
    every iteration, and returns the snapped list with the largest minimum
    pairwise difference seen over all iterations, never the final one.  A
    one-pool call of ``batched_kmeans``.
    """
    return batched_kmeans([freqs], [config], [site_refs])[0]


def _map_to_indices(nu: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Ascending indices of the given values in sorted nu; duplicates
    consume successive slots."""
    v = np.sort(values)
    # each value's first slot plus its rank within its run of equal values
    out = np.searchsorted(nu, v, side="left") + np.arange(v.size) - np.searchsorted(v, v)
    found = out < nu.size
    found[found] = nu[out[found]] == v[found]
    if not found.all():
        raise ValueError(f"centroid {v[np.argmin(found)]} is not a member of the candidate list")
    return out


# Rounds after which centroid relocation stops moving.
RELOCATION_MAX_ROUNDS = 200


def relocate_centroids(nu, lp, site_refs=None) -> SelectionResult:
    """Widen the smallest centroid gap by sliding one of its endpoints.

    Per round: find the minimum adjacent gap; compare the two neighboring
    gaps (a missing neighbor counts as infinite) to pick a direction; slide
    that endpoint through the intervening candidates, accepting the farthest
    position whose new gap to the fixed neighbor still exceeds the old
    minimum; try the opposite direction if no such position exists.  Stops
    when neither direction admits a move or after ``RELOCATION_MAX_ROUNDS``
    rounds.  The returned minimum difference never falls below the input's.
    The M positions, values and gaps are Python lists, and a move
    recomputes only the two gaps beside the mover.
    """
    nu = np.asarray(nu, dtype=float)
    if nu.ndim != 1 or nu.size < 2:
        raise ValueError("candidate list must be 1-D with at least 2 entries")
    if np.any(np.diff(nu) < 0):
        raise ValueError("candidate list must be sorted ascending")
    lp = np.asarray(lp, dtype=float)
    if lp.size < 2:
        raise ValueError(f"need at least 2 centroids, got {lp.size}")
    refs = np.arange(nu.size) if site_refs is None else np.asarray(site_refs, dtype=np.intp)

    # pos stays sorted, so each round's adjacent gaps are all the pairwise
    # ones and their minimum (the first one, as argmin) is the trace entry
    pos = _map_to_indices(nu, lp).tolist()
    vals = nu[pos].tolist()
    gaps = [b - a for a, b in zip(vals, vals[1:])]
    last = len(pos) - 1
    trace: list[float] = [min(gaps)]

    def try_move(direction: str, k_m: int, th: float) -> bool:
        if direction == "L":
            mover = k_m
            j = 0 if k_m == 0 else int(nu.searchsorted(vals[k_m - 1] + th, "right"))
            if j >= pos[mover] or nu.item(j) >= vals[mover]:
                return False
        else:
            mover = k_m + 1
            j = nu.size - 1 if mover == last else int(nu.searchsorted(vals[mover + 1] - th)) - 1
            if j <= pos[mover] or nu.item(j) <= vals[mover]:
                return False
        pos[mover], vals[mover] = j, nu.item(j)
        if mover > 0:
            gaps[mover - 1] = vals[mover] - vals[mover - 1]
        if mover < last:
            gaps[mover] = vals[mover + 1] - vals[mover]
        return True

    for _ in range(RELOCATION_MAX_ROUNDS):
        th = min(gaps)
        k_m = gaps.index(th)
        left_gap = gaps[k_m - 1] if k_m >= 1 else np.inf
        right_gap = gaps[k_m + 1] if k_m < last - 1 else np.inf
        prefer = "L" if left_gap > right_gap else "R"
        other = "R" if prefer == "L" else "L"
        if not (try_move(prefer, k_m, th) or try_move(other, k_m, th)):
            break
        trace.append(min(gaps))

    return SelectionResult(refs=refs[pos], freqs=nu[pos], min_diff=trace[-1], min_diff_trace=trace)
