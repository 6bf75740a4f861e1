import itertools
import warnings
from typing import get_args

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ropufsim.select as select
from ropufsim.select import (
    SeedStrategy,
    SelectionConfig,
    _slice_means,
    _snap_distinct,
    _SortedRows,
    baseline_select,
    batched_kmeans,
    improved_kmeans,
    mean_intracluster_distance,
    micd_traces,
    min_pairwise_diff,
    plain_kmeans,
    relocate_centroids,
    seed_centroids,
)


def brute_force_best_min_diff(freqs, m):
    """Independent oracle: exhaustive max over C(|F|, m) subsets."""
    best = 0.0
    fs = np.sort(np.asarray(freqs, dtype=float))
    for combo in itertools.combinations(fs, m):
        best = max(best, float(np.min(np.diff(np.asarray(combo)))))
    return best


def micd_reference(values, labels, centroids):
    """Masked-mean MICD: one boolean mask per cluster."""
    per_cluster = np.zeros(len(centroids))
    empty = []
    for j in range(len(centroids)):
        members = values[labels == j]
        if members.size == 0:
            empty.append(j)
        else:
            per_cluster[j] = float(np.abs(members - centroids[j]).mean())
    return per_cluster, float(per_cluster.mean()), empty


def snap_reference(fs, centroids):
    """Outward walk from each centroid, in ascending centroid order."""
    n = fs.size
    taken = set()
    out = np.empty(len(centroids), dtype=np.intp)
    for rank in np.argsort(centroids, kind="stable"):
        c = centroids[rank]
        pos = int(np.searchsorted(fs, c))
        best = -1
        lo, hi = pos - 1, pos
        while lo >= 0 or hi < n:
            d_lo = c - fs[lo] if lo >= 0 else np.inf
            d_hi = fs[hi] - c if hi < n else np.inf
            if d_lo <= d_hi:
                i, lo = lo, lo - 1
            else:
                i, hi = hi, hi + 1
            if i not in taken:
                best = i
                break
        if best < 0:
            raise ValueError("more centroids than candidates")
        taken.add(best)
        out[rank] = best
    return out


def kmeans_iterations_reference(fs, init, k_max):
    """Per-device 1-D EM on sorted candidates, yielding (iteration, sorted
    centroids, M + 1 cluster bounds, converged): the loop the batched kernel
    replaced, kept here as its reference."""
    n = fs.size
    cum = np.concatenate([[0.0], np.cumsum(fs)])
    c = np.sort(np.asarray(init, dtype=float))
    m = c.size
    mids = (c[:-1] + c[1:]) / 2.0
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


def kmeans_reference(freqs, cfg, site_refs=None):
    """One pool's (improved, plain) K-means outcome from the per-device loop,
    each as (chosen, centroids, min_diff, min_diff_trace, iterations), plus
    whether the run converged before ``k_max``."""
    f = np.asarray(freqs, dtype=float)
    m = cfg.m
    refs = np.arange(f.size) if site_refs is None else np.asarray(site_refs)
    order = np.argsort(f, kind="stable")
    fs, refs_sorted = f[order], refs[order]

    def outcome(idx, trace, iterations):
        idx = np.sort(idx)
        return ([(int(refs_sorted[i]), float(fs[i])) for i in idx], fs[idx].tolist(),
                min_pairwise_diff(fs[idx]), trace, iterations)

    if f.size == m:
        beta = min_pairwise_diff(fs)
        return outcome(np.arange(m), [beta], 1), outcome(np.arange(m), [beta], 1), True
    init = seed_centroids(fs, m, cfg.seeding, np.random.default_rng(cfg.rng_seed))
    best_idx = _snap_distinct(fs, init)
    beta_p = min_pairwise_diff(fs[best_idx])
    trace = [beta_p]
    final_idx, iterations, converged = best_idx, 0, False
    for iterations, c, _, converged in kmeans_iterations_reference(fs, init, cfg.k_max):
        snapped = np.sort(_snap_distinct(fs, c))
        chosen = fs[snapped]
        beta_c = float((chosen[1:] - chosen[:-1]).min())
        trace.append(beta_c)
        if beta_c > beta_p:
            beta_p, best_idx = beta_c, snapped
        final_idx = snapped
    return (outcome(best_idx, trace, iterations), outcome(final_idx, trace, iterations),
            converged)


def as_outcome(res):
    return (res.chosen, res.centroids.tolist(), res.min_diff, res.min_diff_trace,
            res.iterations)


def micd_trace_reference(f, cfg):
    """Per-iteration MICD of one K-means run from n-long label vectors, plus
    which hard cases the run met: duplicate frequencies, a candidate exactly
    on a midpoint, an empty cluster re-seeded, a snap collision."""
    fs = np.sort(np.asarray(f, dtype=float), kind="stable")
    met = {"duplicates": bool(np.any(np.diff(fs) == 0))}
    if fs.size == cfg.m:
        return [0.0], met
    init = seed_centroids(fs, cfg.m, cfg.seeding, np.random.default_rng(cfg.rng_seed))
    prev = np.sort(init)
    trace = []
    for _, c, bounds, _ in kmeans_iterations_reference(fs, init, cfg.k_max):
        mids = (c[:-1] + c[1:]) / 2.0
        labels = np.searchsorted(mids, fs)  # a candidate on a midpoint joins the lower cluster
        sizes = np.bincount(labels, minlength=cfg.m)
        assert bounds.tolist() == [0, *np.cumsum(sizes).tolist()]
        per_cluster, mean, _ = micd_reference(fs, labels, c)
        assert mean_intracluster_distance(fs, labels, c)["mean"] == mean
        trace.append(mean)
        update = np.searchsorted(fs, (prev[:-1] + prev[1:]) / 2.0)
        met["reseed"] = met.get("reseed", False) or bool(np.any(np.diff(update) == 0)
                                                         or update[0] == 0
                                                         or update[-1] == fs.size)
        met["on_midpoint"] = met.get("on_midpoint", False) or bool(np.isin(mids, fs).any())
        nearest = np.abs(fs[None, :] - c[:, None]).argmin(axis=1)
        met["collision"] = met.get("collision", False) or np.unique(nearest).size < cfg.m
        prev = c
    return trace, met


def config(m, **kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return SelectionConfig(m=m, **kw)


class TestSelectionConfig:
    def test_non_standard_ro_count_warns(self):
        with pytest.warns(UserWarning):
            SelectionConfig(m=12)

    def test_standard_counts_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            SelectionConfig(m=32)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            SelectionConfig(m=1)


class TestMinPairwiseDiff:
    def test_three_values(self):
        assert min_pairwise_diff([100.0, 110.0, 120.0]) == 10.0

    def test_duplicates_give_zero(self):
        assert min_pairwise_diff([100.0, 100.0, 200.0]) == 0.0

    def test_single_value_rejected(self):
        with pytest.raises(ValueError):
            min_pairwise_diff([5.0])


class TestMicd:
    def test_points_at_centroids(self):
        out = mean_intracluster_distance(
            np.array([1.0, 2.0]), np.array([0, 1]), np.array([1.0, 2.0])
        )
        assert out["mean"] == 0.0

    def test_hand_average(self):
        out = mean_intracluster_distance(
            np.array([99.0, 101.0]), np.array([0, 0]), np.array([100.0])
        )
        assert out["per_cluster"][0] == pytest.approx(1.0)

    def test_mean_of_cluster_means(self):
        values = np.array([99.0, 101.0, 7.0, 13.0])
        labels = np.array([0, 0, 1, 1])
        out = mean_intracluster_distance(values, labels, np.array([100.0, 10.0]))
        assert out["per_cluster"].tolist() == [1.0, 3.0]
        assert out["mean"] == pytest.approx(2.0)

    def test_empty_cluster_flagged(self):
        out = mean_intracluster_distance(
            np.array([1.0]), np.array([0]), np.array([1.0, 50.0])
        )
        assert out["empty_clusters"] == [1]
        assert out["per_cluster"][1] == 0.0


    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(0, 400),
        m=st.integers(1, 40),
        used=st.integers(1, 40),
        sort_labels=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_masked_mean(self, n, m, used, sort_labels, seed):
        rng = np.random.default_rng(seed)
        values = rng.uniform(380.0, 450.0, n)
        # labels drawn from a random subset of the clusters leave some empty
        pool = rng.choice(m, size=min(used, m), replace=False)
        labels = rng.choice(pool, size=n)
        if sort_labels:
            values, labels = np.sort(values), np.sort(labels)
        centroids = rng.uniform(380.0, 450.0, m)
        per_cluster, mean, empty = micd_reference(values, labels, centroids)
        out = mean_intracluster_distance(values, labels, centroids)
        assert out["per_cluster"].tolist() == per_cluster.tolist()
        assert out["mean"] == mean
        assert out["empty_clusters"] == empty


class TestMicdTraces:
    @staticmethod
    def case(kind, seed):
        """A candidate pool and a K-means config.  A half-unit grid gives
        duplicates, values on midpoints, empty clusters and snap collisions."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 60))
        if kind == "grid":
            f = rng.integers(0, int(rng.integers(1, 30)), n) / 2.0
        else:
            f = rng.uniform(380.0, 450.0, n)
        seeding = ["linear", "uniform_density", "kmeanspp", "random"][seed % 4]
        return f, config(int(rng.integers(2, min(n, 12) + 1)), seeding=seeding,
                         k_max=int(rng.integers(1, 30)), rng_seed=seed)

    @staticmethod
    def check(cases, block_values):
        """Batch the traces of all cases; each must equal its reference."""
        references = [micd_trace_reference(f, cfg) for f, cfg in cases]
        results = [improved_kmeans(f, cfg) for f, cfg in cases]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(select, "_BLOCK_VALUES", block_values)
            micd_traces(results)
            for (f, cfg), (trace, _), res in zip(cases, references, results):
                assert res.micd_trace == trace
                # the final-iteration result fills its own trace on first use
                assert plain_kmeans(f, cfg).micd_trace == trace
        return [met for _, met in references]

    @settings(max_examples=150, deadline=None)
    @given(
        kinds=st.lists(st.sampled_from(["grid", "uniform"]), min_size=1, max_size=5),
        seed=st.integers(0, 2**32 - 1),
        block_values=st.sampled_from([1, 7, 64, 1 << 17]),
    )
    def test_equals_per_iteration_reference(self, kinds, seed, block_values):
        self.check([self.case(k, seed + i) for i, k in enumerate(kinds)], block_values)

    def test_hard_cases_met_in_one_batch(self):
        cases = [self.case("grid" if s % 3 else "uniform", s) for s in range(40)]
        cases.append((np.array([3.0, 1.0, 2.0, 2.0]), config(4)))  # f.size == m
        met = self.check(cases, 64)
        for hard in ("duplicates", "on_midpoint", "reseed", "collision"):
            assert any(m.get(hard) for m in met), hard

    def test_row_reduce_matches_one_dimensional_reduce(self):
        # the batch relies on numpy summing each row of a C-contiguous matrix
        # with the same pairwise order as a 1-D reduce of that row
        rng = np.random.default_rng(11)
        values = rng.uniform(380.0, 450.0, 2048)
        for length in range(1, 1025):
            rows = rng.uniform(380.0, 450.0, (3, length))
            assert np.add.reduce(rows, axis=1).tolist() == [np.add.reduce(r) for r in rows]
            starts = rng.integers(0, values.size - length + 1, 3)
            cents = rng.uniform(380.0, 450.0, 3)
            got = _slice_means(values, starts, starts + length, cents)
            want = [np.add.reduce(np.abs(values[s:s + length] - c)) / length
                    for s, c in zip(starts, cents)]
            assert got.tolist() == want

    def test_slice_means_blocks_and_empty_slices(self):
        rng = np.random.default_rng(12)
        values = rng.uniform(0.0, 1.0, 5000)
        starts = np.concatenate([rng.integers(0, 4000, 300), [10, 20]])
        ends = np.concatenate([starts[:300] + 1000, [10, 20]])
        cents = rng.uniform(0.0, 1.0, starts.size)
        want = [np.add.reduce(np.abs(values[s:e] - c)) / (e - s) if e > s else 0.0
                for s, e, c in zip(starts, ends, cents)]
        assert _slice_means(values, starts, ends, cents).tolist() == want


class TestSnapDistinct:
    @pytest.mark.parametrize("fs,centroids", [
        ([1.0, 2.0, 3.0, 4.0], [2.1, 2.2, 2.3]),          # collision on one site
        ([1.0, 2.0, 3.0, 4.0], [1.5, 2.5, 3.5]),          # exact ties go lower
        ([1.0, 2.0, 2.0, 2.0, 5.0], [2.0, 2.0, 2.0]),     # duplicate frequencies
        ([1.0, 2.0, 3.0], [-50.0, 0.0, 99.0]),            # beyond either end
        ([1.0, 2.0, 3.0], [9.0, 8.0, 7.0]),               # all past the top
        ([1.0, 2.0, 3.0, 4.0], [4.0, 1.0]),               # unsorted, distinct
    ])
    def test_cases_match_walk(self, fs, centroids):
        fs, centroids = np.asarray(fs), np.asarray(centroids)
        assert _snap_distinct(fs, centroids).tolist() == snap_reference(fs, centroids).tolist()

    def test_more_centroids_than_candidates(self):
        with pytest.raises(ValueError, match="more centroids"):
            _snap_distinct(np.array([1.0, 2.0]), np.array([1.0, 1.5, 2.0]))

    @settings(max_examples=400, deadline=None)
    @given(
        grid=st.lists(st.integers(0, 20), min_size=1, max_size=30),
        cents=st.lists(st.integers(-10, 50), min_size=1, max_size=30),
    )
    def test_matches_walk(self, grid, cents):
        # half-unit grids make duplicates, exact midpoint ties and centroids
        # beyond either end common
        fs = np.sort(np.asarray(grid, dtype=float) / 2.0)
        centroids = np.asarray(cents, dtype=float) / 4.0
        if centroids.size > fs.size:
            with pytest.raises(ValueError):
                _snap_distinct(fs, centroids)
            return
        assert _snap_distinct(fs, centroids).tolist() == snap_reference(fs, centroids).tolist()


class TestSeedCentroids:
    def test_linear_equal_spacing(self):
        cents = seed_centroids(np.array([100.0, 105.0, 111.0, 130.0]), 4, "linear")
        assert cents.tolist() == [100.0, 110.0, 120.0, 130.0]

    def test_uniform_density_equal_counts(self):
        f = np.arange(100, dtype=float)
        cents = seed_centroids(f, 5, "uniform_density")
        assert all(c in f for c in cents)
        gaps = np.diff(np.searchsorted(f, cents))
        assert np.all(np.abs(gaps - gaps.mean()) <= 1)

    def test_kmeanspp_degenerate_identical_points(self):
        f = np.full(10, 7.0)
        cents = seed_centroids(f, 3, "kmeanspp", np.random.default_rng(0))
        assert np.all(cents == 7.0)

    def test_too_few_candidates(self):
        with pytest.raises(ValueError):
            seed_centroids(np.array([1.0, 2.0]), 3, "linear")

    def test_random_within_range(self):
        f = np.linspace(10.0, 20.0, 12)
        cents = seed_centroids(f, 8, "random", np.random.default_rng(0))
        assert np.all((cents >= 10.0) & (cents <= 20.0))


class TestImprovedKmeans:
    def test_returns_at_least_plain_and_at_most_oracle(self):
        f = np.array([100.0, 101.0, 105.0, 110.0, 120.0])
        cfg = config(3, rng_seed=1)
        imp = improved_kmeans(f, cfg)
        pla = plain_kmeans(f, cfg)
        opt = brute_force_best_min_diff(f, 3)
        assert opt == 10.0  # exhaustive over C(5,3): {100, 110, 120}
        assert imp.min_diff >= pla.min_diff
        assert imp.min_diff <= opt + 1e-12
        # linear seeds land on the optimum for this instance
        assert imp.min_diff == pytest.approx(10.0)

    def test_exactly_m_points_selects_all(self):
        f = np.array([3.0, 1.0, 2.0])
        res = improved_kmeans(f, config(3))
        assert sorted(res.frequencies.tolist()) == [1.0, 2.0, 3.0]
        assert res.iterations == 1

    def test_global_max_retention_exact(self):
        rng = np.random.default_rng(2)
        f = np.sort(rng.uniform(0, 100, 200))
        res = improved_kmeans(f, config(8, rng_seed=3))
        assert res.min_diff == max(res.min_diff_trace)

    def test_chosen_are_distinct_members(self):
        rng = np.random.default_rng(4)
        f = rng.uniform(0, 50, 100)
        res = improved_kmeans(f, config(8, rng_seed=5))
        assert len(set(res.site_refs)) == 8
        for _, freq in res.chosen:
            assert freq in f

    def test_min_diff_equals_recomputed_pairwise_min(self):
        rng = np.random.default_rng(6)
        f = rng.uniform(0, 50, 60)
        res = improved_kmeans(f, config(4, rng_seed=6))
        assert res.min_diff == pytest.approx(min_pairwise_diff(res.frequencies))

    def test_deterministic_under_fixed_seed(self):
        rng = np.random.default_rng(7)
        f = rng.uniform(0, 90, 300)
        a = improved_kmeans(f, config(16, seeding="kmeanspp", rng_seed=11))
        b = improved_kmeans(f, config(16, seeding="kmeanspp", rng_seed=11))
        assert a.chosen == b.chosen

    def test_site_refs_map_back_to_candidates(self):
        f = np.array([5.0, 1.0, 9.0, 3.0])
        refs = np.array([40, 10, 90, 30])
        res = improved_kmeans(f, config(2), site_refs=refs)
        assert res.chosen == [(10, 1.0), (90, 9.0)]

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            improved_kmeans(np.array([]), config(2))


class TestRelocation:
    def test_small_instance_reaches_brute_force_optimum(self):
        nu = np.array([100.0, 101.0, 102.0, 103.0, 110.0])
        res = relocate_centroids(nu, np.array([100.0, 101.0, 110.0]))
        assert res.min_diff == pytest.approx(3.0)
        assert sorted(res.frequencies.tolist()) == [100.0, 103.0, 110.0]
        assert brute_force_best_min_diff(nu, 3) == pytest.approx(3.0)

    def test_fixpoint_when_already_spread(self):
        nu = np.array([0.0, 10.0, 20.0])
        res = relocate_centroids(nu, nu.copy())
        assert res.iterations == 0
        assert res.frequencies.tolist() == [0.0, 10.0, 20.0]

    def test_non_member_centroids_rejected(self):
        with pytest.raises(ValueError):
            relocate_centroids(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.5]))

    def test_unsorted_candidates_rejected(self):
        with pytest.raises(ValueError):
            relocate_centroids(np.array([3.0, 1.0, 2.0]), np.array([1.0, 2.0]))

    def test_never_decreases_on_random_instances(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            n = int(rng.integers(4, 40))
            m = int(rng.integers(2, min(9, n + 1)))
            nu = np.sort(rng.uniform(0, 100, n))
            pick = np.sort(rng.choice(n, m, replace=False))
            before = min_pairwise_diff(nu[pick])
            res = relocate_centroids(nu, nu[pick])
            assert res.min_diff >= before - 1e-12

    def test_duplicate_frequencies_tolerated(self):
        nu = np.array([1.0, 1.0, 1.0, 2.0, 5.0])
        res = relocate_centroids(nu, np.array([1.0, 1.0]))
        assert res.min_diff >= 0.0

    def test_two_centroids_slide_to_extremes(self):
        nu = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        res = relocate_centroids(nu, np.array([1.0, 2.0]))
        assert sorted(res.frequencies.tolist()) == [0.0, 4.0]


class TestBaselines:
    def test_mean_based_on_uniform_grid(self):
        f = np.arange(100.0, 131.0)
        res = baseline_select(f, 4, "mean_based")
        assert res.frequencies.tolist() == [100.0, 110.0, 120.0, 130.0]
        assert res.min_diff == 10.0

    def test_median_matches_mean_on_uniform_density(self):
        f = np.arange(100.0, 131.0)
        a = baseline_select(f, 4, "mean_based")
        b = baseline_select(f, 4, "median_based")
        assert a.frequencies.tolist() == b.frequencies.tolist()

    def test_random_select_distinct_members(self):
        f = np.arange(50.0)
        res = baseline_select(f, 10, "random_select", np.random.default_rng(1))
        assert len(set(res.site_refs)) == 10

    def test_random_select_below_improved_kmeans_in_distribution(self):
        rng = np.random.default_rng(9)
        wins = 0
        for seed in range(20):
            f = np.sort(rng.uniform(0, 100, 400))
            km = improved_kmeans(f, config(8, rng_seed=seed))
            rnd = baseline_select(f, 8, "random_select", np.random.default_rng(seed))
            if km.min_diff >= rnd.min_diff:
                wins += 1
        assert wins >= 18

    def test_too_few_candidates(self):
        with pytest.raises(ValueError):
            baseline_select(np.array([1.0]), 2, "mean_based")


class TestOracleBound:
    def test_pipeline_never_exceeds_brute_force(self):
        rng = np.random.default_rng(10)
        for trial in range(50):
            n = int(rng.integers(6, 16))
            m = int(rng.integers(2, 5))
            f = np.sort(rng.uniform(0, 100, n))
            km = improved_kmeans(f, config(m, rng_seed=trial))
            rel = relocate_centroids(f, km.centroids)
            assert rel.min_diff <= brute_force_best_min_diff(f, m) + 1e-9


class TestBatchedKmeans:
    """The batched kernel against the per-device reference loop."""

    SEEDINGS = get_args(SeedStrategy)

    @classmethod
    def pool(cls, kind, m, seed):
        """A candidate pool of at least m values and its config.  A half-unit
        grid gives duplicates, values on midpoints, empty clusters and snap
        collisions; negative values take the row-by-row search."""
        rng = np.random.default_rng(seed)
        n = m if kind == "exact" else int(rng.integers(m + 1, 70))
        if kind in ("grid", "negative"):
            f = rng.integers(0, int(rng.integers(1, 30)), n) / 2.0
            if kind == "negative":
                f -= 20.0
        else:
            f = rng.uniform(380.0, 450.0, n)
        cfg = config(m, seeding=cls.SEEDINGS[seed % len(cls.SEEDINGS)],
                     k_max=int(rng.choice([1, 2, 3, 7, 30, 100])), rng_seed=seed)
        return f, cfg, rng.permutation(n) + 1000

    @staticmethod
    def check(pools, block):
        """Batch the pools ``block`` at a time; every result must equal its
        reference, MICD trace included.  Returns the references."""
        refs = [kmeans_reference(f, cfg, r) for f, cfg, r in pools]
        got = []
        for start in range(0, len(pools), block):
            part = pools[start : start + block]
            got += batched_kmeans([f for f, _, _ in part], [c for _, c, _ in part],
                                  [r for _, _, r in part])
        for (f, cfg, _), (imp, pla, _), (g_imp, g_pla) in zip(pools, refs, got):
            assert as_outcome(g_imp) == imp
            assert as_outcome(g_pla) == pla
            assert g_imp.micd_trace == micd_trace_reference(f, cfg)[0]
        return refs

    @settings(max_examples=120, deadline=None)
    @given(
        kinds=st.lists(st.sampled_from(["grid", "uniform", "exact", "negative"]),
                       min_size=1, max_size=6),
        m=st.sampled_from([2, 3, 4, 8]),
        seed=st.integers(0, 2**32 - 1),
        block=st.sampled_from([1, 2, 7]),
    )
    def test_equals_per_device_reference(self, kinds, m, seed, block):
        self.check([self.pool(k, m, seed + i) for i, k in enumerate(kinds)], block)

    @pytest.mark.parametrize("block", [1, 100])
    def test_hard_cases_met(self, block):
        pools = [self.pool("grid" if s % 3 else "uniform", 4 + 4 * (s % 2), s)
                 for s in range(42)]
        pools = [p for p in pools if p[1].m == 4]
        pools.append(self.pool("exact", 4, 1))
        refs = self.check(pools, block)
        met = [micd_trace_reference(f, cfg)[1] for f, cfg, _ in pools]
        for hard in ("duplicates", "on_midpoint", "reseed", "collision"):
            assert any(m.get(hard) for m in met), hard
        converged_at = {imp[4] for imp, _, converged in refs if converged}
        assert len(converged_at) >= 3  # pools leave the batch at different iterations
        assert any(not converged and imp[4] == cfg.k_max
                   for (_, cfg, _), (imp, _, converged) in zip(pools, refs))
        assert any(f.size == cfg.m for f, cfg, _ in pools)

    def test_one_pool_calls(self):
        f, cfg, refs = self.pool("grid", 8, 3)
        imp, pla, _ = kmeans_reference(f, cfg, refs)
        assert as_outcome(improved_kmeans(f, cfg, site_refs=refs)) == imp
        assert as_outcome(plain_kmeans(f, cfg, site_refs=refs)) == pla

    def test_pools_must_share_m(self):
        f = np.arange(20.0)
        with pytest.raises(ValueError, match="share M"):
            batched_kmeans([f, f], [config(4), config(8)])


class TestSortedRowsSearch:
    """The batched search equals np.searchsorted on each row's own array."""

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.lists(
            st.lists(st.one_of(st.sampled_from([1.0, 2.5, 400.0]),
                               st.floats(1.0, 1e6)), min_size=1, max_size=20),
            min_size=1, max_size=5),
        offset=st.sampled_from([0.0, -1.0, -1e7]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_searchsorted(self, rows, offset, seed):
        # offset 0 takes the key path and -1e7 (negative candidates) the
        # row-by-row search; -1 puts a zero among the candidates, whose key
        # range fits only when all are near zero
        arrays = [np.sort(np.array([1.0, *r]) + offset) for r in rows]
        cands = _SortedRows(arrays)
        if offset != -1.0:
            assert (cands.keys is not None) == (offset == 0.0)
        rng = np.random.default_rng(seed)
        every = np.concatenate(arrays)
        picks = rng.integers(0, len(arrays), 6)
        # members, values between and beyond them, and the candidates' range
        x = np.stack([
            np.sort(np.concatenate([
                rng.choice(every, 3), rng.uniform(every.min() - 1, every.max() + 1, 3),
                [max(every.max(), 0.0) * 2 + 1, np.abs(every).min() / 2],
            ])) for _ in picks
        ])
        if offset == 0.0:
            x = np.abs(x)  # the key path searches non-negative values
        for side in ("left", "right"):
            want = [np.searchsorted(arrays[r], xi, side).tolist() for r, xi in zip(picks, x)]
            assert cands.search(picks, x, side).tolist() == want
            assert cands.search(picks[:1], x[:1], side).tolist() == want[:1]
