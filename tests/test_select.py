import itertools
import re
import warnings
from typing import get_args

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ropufsim.select as select
from ropufsim.select import (
    SeedStrategy,
    SelectionConfig,
    _map_to_indices,
    _mean_distances,
    _nearest_centroid_distance,
    _snap_distinct,
    _SortedRows,
    batched_kmeans,
    improved_kmeans,
    min_pairwise_diff,
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


def mean_distances(fs, starts, ends, cents):
    """``_mean_distances`` of sorted ``fs`` with its prefix sums."""
    return _mean_distances(fs, np.concatenate([[0.0], np.cumsum(fs)]), starts, ends, cents)


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


def map_to_indices_reference(nu, values):
    """Slots of the values in sorted nu, one value at a time: each takes the
    first free slot of its run of equal candidates."""
    used = set()
    out = []
    for v in np.sort(values):
        i = int(np.searchsorted(nu, v, side="left"))
        while i < nu.size and nu[i] == v and i in used:
            i += 1
        if i >= nu.size or nu[i] != v:
            raise ValueError(f"centroid {v} is not a member of the candidate list")
        used.add(i)
        out.append(i)
    return out


def relocate_reference(nu, lp, site_refs=None):
    """Centroid relocation on numpy arrays, recomputing every gap each
    round: (refs, freqs, min_diff_trace, iterations)."""
    nu = np.asarray(nu, dtype=float)
    refs = np.arange(nu.size) if site_refs is None else np.asarray(site_refs, dtype=np.intp)
    pos = _map_to_indices(nu, np.asarray(lp, dtype=float))
    gaps = np.diff(nu[pos])
    trace = [float(gaps.min())]

    def try_move(direction, k_m, th):
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
    for _ in range(select.RELOCATION_MAX_ROUNDS):
        k_m = int(np.argmin(gaps))
        th = float(gaps[k_m])
        left_gap = float(gaps[k_m - 1]) if k_m >= 1 else np.inf
        right_gap = float(gaps[k_m + 1]) if k_m + 1 < gaps.size else np.inf
        prefer = "L" if left_gap > right_gap else "R"
        other = "R" if prefer == "L" else "L"
        if not (try_move(prefer, k_m, th) or try_move(other, k_m, th)):
            break
        iterations += 1
        gaps = np.diff(nu[pos])
        trace.append(float(gaps.min()))
    return refs[pos].tolist(), nu[pos].tolist(), trace, iterations


def kmeans_reference(freqs, cfg, site_refs=None):
    """One pool's (improved, plain) K-means outcome from the per-device loop,
    each as (refs, freqs, min_diff, min_diff_trace, iterations), plus
    whether the run converged before ``k_max``."""
    f = np.asarray(freqs, dtype=float)
    m = cfg.m
    refs = np.arange(f.size) if site_refs is None else np.asarray(site_refs)
    order = np.argsort(f, kind="stable")
    fs, refs_sorted = f[order], refs[order]

    def outcome(idx, trace, iterations):
        idx = np.sort(idx)
        return (refs_sorted[idx].tolist(), fs[idx].tolist(), min_pairwise_diff(fs[idx]),
                trace, iterations)

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
    return (res.refs.tolist(), res.freqs.tolist(), res.min_diff, res.min_diff_trace,
            res.iterations)


def micd_trace_reference(f, cfg):
    """Per-iteration MICD of one K-means run from n-long label vectors, plus
    which hard cases the run met: duplicate frequencies, a candidate exactly
    on a midpoint, an empty cluster re-seeded, a snap collision of an
    iteration or of the seed list."""
    fs = np.sort(np.asarray(f, dtype=float), kind="stable")
    met = {"duplicates": bool(np.any(np.diff(fs) == 0))}
    init = seed_centroids(fs, cfg.m, cfg.seeding, np.random.default_rng(cfg.rng_seed))
    prev = np.sort(init)
    nearest = np.abs(fs[None, :] - prev[:, None]).argmin(axis=1)
    met["seed_collision"] = np.unique(nearest).size < cfg.m
    trace = []
    for _, c, bounds, _ in kmeans_iterations_reference(fs, init, cfg.k_max):
        mids = (c[:-1] + c[1:]) / 2.0
        labels = np.searchsorted(mids, fs)  # a candidate on a midpoint joins the lower cluster
        sizes = np.bincount(labels, minlength=cfg.m)
        assert bounds.tolist() == [0, *np.cumsum(sizes).tolist()]
        per_cluster, mean, _ = micd_reference(fs, labels, c)
        np.testing.assert_allclose(mean_distances(fs, bounds[:-1], bounds[1:], c),
                                   per_cluster, rtol=0, atol=1e-9)
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
    """Per-cluster mean distances of contiguous clusters of sorted
    candidates, from their prefix sums (``_mean_distances``)."""

    def test_points_at_centroids(self):
        out = mean_distances(np.array([1.0, 2.0]), np.array([0, 1]), np.array([1, 2]),
                             np.array([1.0, 2.0]))
        assert out.tolist() == [0.0, 0.0]

    def test_hand_average(self):
        out = mean_distances(np.array([99.0, 101.0]), np.array([0]), np.array([2]),
                             np.array([100.0]))
        assert out[0] == pytest.approx(1.0)

    def test_mean_of_cluster_means(self):
        values = np.array([7.0, 13.0, 99.0, 101.0])
        out = mean_distances(values, np.array([0, 2]), np.array([2, 4]), np.array([10.0, 100.0]))
        assert out.tolist() == [3.0, 1.0]
        assert out.mean() == pytest.approx(2.0)

    def test_empty_cluster_flagged(self):
        out = mean_distances(np.array([1.0]), np.array([0, 1]), np.array([1, 1]),
                             np.array([1.0, 50.0]))
        assert out.tolist() == [0.0, 0.0]

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(0, 400),
        m=st.integers(1, 40),
        used=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_masked_mean(self, n, m, used, seed):
        rng = np.random.default_rng(seed)
        values = np.sort(rng.uniform(380.0, 450.0, n))
        # sorted labels drawn from a random subset of the clusters make each
        # cluster a slice of the sorted values and leave some clusters empty
        pool = rng.choice(m, size=min(used, m), replace=False)
        labels = np.sort(rng.choice(pool, size=n))
        centroids = rng.uniform(380.0, 450.0, m)
        per_cluster, _, empty = micd_reference(values, labels, centroids)
        bounds = np.searchsorted(labels, np.arange(m + 1))
        out = mean_distances(values, bounds[:-1], bounds[1:], centroids)
        np.testing.assert_allclose(out, per_cluster, rtol=0, atol=1e-9)
        assert np.flatnonzero(bounds[:-1] == bounds[1:]).tolist() == empty


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
        seeding = get_args(SeedStrategy)[seed % len(get_args(SeedStrategy))]
        return f, config(int(rng.integers(2, min(n, 12) + 1)), seeding=seeding,
                         k_max=int(rng.integers(1, 30)), rng_seed=seed)

    @staticmethod
    def check(cases):
        """The trace of either result of each case must match its
        reference."""
        references = [micd_trace_reference(f, cfg) for f, cfg in cases]
        for (f, cfg), (trace, _) in zip(cases, references):
            for res in (improved_kmeans(f, cfg), batched_kmeans([f], [cfg])[0][1]):
                np.testing.assert_allclose(res.micd_trace, trace, rtol=0, atol=1e-9)
        return [met for _, met in references]

    @settings(max_examples=150, deadline=None)
    @given(
        kinds=st.lists(st.sampled_from(["grid", "uniform"]), min_size=1, max_size=5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_per_iteration_reference(self, kinds, seed):
        self.check([self.case(k, seed + i) for i, k in enumerate(kinds)])

    def test_hard_cases_met(self):
        cases = [self.case("grid" if s % 3 else "uniform", s) for s in range(40)]
        cases.append((np.array([3.0, 1.0, 2.0, 2.0]), config(4)))  # f.size == m
        met = self.check(cases)
        for hard in ("duplicates", "on_midpoint", "reseed", "collision"):
            assert any(m.get(hard) for m in met), hard


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

    def test_too_few_candidates(self):
        with pytest.raises(ValueError):
            seed_centroids(np.array([1.0, 2.0]), 3, "linear")

    def test_strategies_are_the_default_and_two_baselines(self):
        assert get_args(SeedStrategy) == ("linear", "uniform_density", "random_select")

    @pytest.mark.parametrize("strategy", get_args(SeedStrategy))
    def test_each_strategy_seeds_m_increasing_values_in_range(self, strategy):
        f = np.random.default_rng(3).uniform(380.0, 450.0, 40)
        cents = seed_centroids(f, 8, strategy, np.random.default_rng(0))
        assert cents.shape == (8,)
        assert np.all(np.diff(cents) > 0)
        assert f.min() <= cents[0] and cents[-1] <= f.max()

    @pytest.mark.parametrize("strategy", ["kmeanspp", "random"])
    def test_removed_strategy_rejected(self, strategy):
        with pytest.raises(ValueError, match=rf"^unknown seeding strategy '{strategy}'$"):
            seed_centroids(np.linspace(10.0, 20.0, 12), 3, strategy, np.random.default_rng(0))

    def test_random_select_draws_distinct_candidates_from_its_rng(self):
        f = np.linspace(10.0, 20.0, 12)
        cents = seed_centroids(f, 8, "random_select", np.random.default_rng(4))
        assert set(cents.tolist()) <= set(f.tolist()) and len(set(cents.tolist())) == 8
        assert np.array_equal(cents, seed_centroids(f, 8, "random_select", np.random.default_rng(4)))
        # without a generator it draws from seed 0
        assert np.array_equal(seed_centroids(f, 8, "random_select"),
                              seed_centroids(f, 8, "random_select", np.random.default_rng(0)))


class TestImprovedKmeans:
    def test_returns_at_least_plain_and_at_most_oracle(self):
        f = np.array([100.0, 101.0, 105.0, 110.0, 120.0])
        cfg = config(3, rng_seed=1)
        imp = improved_kmeans(f, cfg)
        pla = batched_kmeans([f], [cfg])[0][1]
        opt = brute_force_best_min_diff(f, 3)
        assert opt == 10.0  # exhaustive over C(5,3): {100, 110, 120}
        assert imp.min_diff >= pla.min_diff
        assert imp.min_diff <= opt + 1e-12
        # linear seeds land on the optimum for this instance
        assert imp.min_diff == pytest.approx(10.0)

    def test_exactly_m_points_selects_all(self):
        f = np.array([3.0, 1.0, 2.0])
        res = improved_kmeans(f, config(3))
        assert res.freqs.tolist() == [1.0, 2.0, 3.0]
        assert res.refs.tolist() == [1, 2, 0]
        assert res.iterations == 1

    def test_exactly_m_points_with_no_iteration_reports_none(self):
        f = np.array([1.0, 2.0, 4.0, 8.0, 9.0, 12.0, 20.0, 30.0])
        res = improved_kmeans(f, config(8, k_max=0))
        assert res.freqs.tolist() == f.tolist()
        assert res.iterations == 0
        assert res.micd_trace == []
        assert res.min_diff_trace == [1.0]

    def test_global_max_retention_exact(self):
        rng = np.random.default_rng(2)
        f = np.sort(rng.uniform(0, 100, 200))
        res = improved_kmeans(f, config(8, rng_seed=3))
        assert res.min_diff == max(res.min_diff_trace)

    def test_chosen_are_distinct_members(self):
        rng = np.random.default_rng(4)
        f = rng.uniform(0, 50, 100)
        res = improved_kmeans(f, config(8, rng_seed=5))
        assert np.unique(res.refs).size == 8
        assert np.array_equal(f[res.refs], res.freqs)

    def test_min_diff_equals_recomputed_pairwise_min(self):
        rng = np.random.default_rng(6)
        f = rng.uniform(0, 50, 60)
        res = improved_kmeans(f, config(4, rng_seed=6))
        assert res.min_diff == pytest.approx(min_pairwise_diff(res.freqs))

    def test_deterministic_under_fixed_seed(self):
        rng = np.random.default_rng(7)
        f = rng.uniform(0, 90, 300)
        a = improved_kmeans(f, config(16, seeding="random_select", rng_seed=11))
        b = improved_kmeans(f, config(16, seeding="random_select", rng_seed=11))
        assert np.array_equal(a.refs, b.refs) and np.array_equal(a.freqs, b.freqs)

    def test_site_refs_map_back_to_candidates(self):
        f = np.array([5.0, 1.0, 9.0, 3.0])
        refs = np.array([40, 10, 90, 30])
        res = improved_kmeans(f, config(2), site_refs=refs)
        assert res.refs.tolist() == [10, 90] and res.freqs.tolist() == [1.0, 9.0]

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            improved_kmeans(np.array([]), config(2))


class TestRelocation:
    def test_small_instance_reaches_brute_force_optimum(self):
        nu = np.array([100.0, 101.0, 102.0, 103.0, 110.0])
        res = relocate_centroids(nu, np.array([100.0, 101.0, 110.0]))
        assert res.min_diff == pytest.approx(3.0)
        assert res.freqs.tolist() == [100.0, 103.0, 110.0]
        assert res.refs.tolist() == [0, 3, 4]
        assert brute_force_best_min_diff(nu, 3) == pytest.approx(3.0)

    def test_fixpoint_when_already_spread(self):
        nu = np.array([0.0, 10.0, 20.0])
        res = relocate_centroids(nu, nu.copy())
        assert res.iterations == 0
        assert res.freqs.tolist() == [0.0, 10.0, 20.0]

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

    @settings(max_examples=300, deadline=None)
    @given(nu=st.lists(st.integers(0, 6), min_size=1, max_size=12),
           values=st.lists(st.integers(0, 7), min_size=1, max_size=12))
    def test_centroid_slots_match_the_slot_walk(self, nu, values):
        # half-unit values: duplicates, runs longer than nu's and non-members
        nu = np.sort(np.array(nu, dtype=float)) / 2
        values = np.array(values, dtype=float) / 2
        try:
            want = map_to_indices_reference(nu, values)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                _map_to_indices(nu, values)
        else:
            assert _map_to_indices(nu, values).tolist() == want

    def test_stops_after_max_rounds(self, monkeypatch):
        # gaps 12, 9, 4 widen over three rounds to 12, 7, 7
        nu = np.array([0.0, 2.0, 14.0, 18.0, 19.0, 20.0, 21.0, 22.0, 23.0, 26.0, 27.0, 28.0])
        lp = np.array([2.0, 14.0, 23.0, 27.0])
        full = relocate_centroids(nu, lp)
        assert full.iterations == 3
        assert full.freqs.tolist() == [2.0, 14.0, 21.0, 28.0]
        monkeypatch.setattr(select, "RELOCATION_MAX_ROUNDS", 1)
        one = relocate_centroids(nu, lp)
        assert one.iterations == 1
        assert 4.0 < one.min_diff < full.min_diff == 7.0

    @settings(max_examples=300, deadline=None)
    @given(
        nu=st.lists(st.one_of(st.integers(0, 30).map(float), st.floats(0.0, 100.0)),
                    min_size=2, max_size=40),
        data=st.data(),
        spread=st.booleans(),
        one_round=st.booleans(),
    )
    @example(nu=[0.0, 10.0, 20.0], data=None, spread=True, one_round=False)
    def test_equals_array_reference(self, nu, data, spread, one_round):
        # duplicate frequencies, M = 2 and already-spread inputs; one round
        # through RELOCATION_MAX_ROUNDS
        nu = np.sort(np.array(nu))
        if spread:
            lp = nu[np.unique(np.linspace(0, nu.size - 1, min(nu.size, 4)).astype(int))]
        else:
            m = data.draw(st.integers(2, nu.size))
            lp = nu[data.draw(st.permutations(range(nu.size)))[:m]]
        refs = np.arange(nu.size)[::-1] * 3
        with pytest.MonkeyPatch.context() as patch:
            if one_round:
                patch.setattr(select, "RELOCATION_MAX_ROUNDS", 1)
            want = relocate_reference(nu, lp, refs)
            got = relocate_centroids(nu, lp, site_refs=refs)
        assert (got.refs.tolist(), got.freqs.tolist(), got.min_diff_trace,
                got.iterations) == want
        assert got.min_diff == want[2][-1]

    def test_two_centroids_slide_to_extremes(self):
        nu = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        res = relocate_centroids(nu, np.array([1.0, 2.0]))
        assert res.freqs.tolist() == [0.0, 4.0]


class TestBaselines:
    """Baseline selectors: zero-iteration K-means runs, which keep the
    snapped seed list."""

    def test_mean_based_on_uniform_grid(self):
        f = np.arange(100.0, 131.0)
        res = improved_kmeans(f, config(4, seeding="linear", k_max=0))
        assert res.freqs.tolist() == [100.0, 110.0, 120.0, 130.0]
        assert res.min_diff == 10.0

    def test_median_matches_mean_on_uniform_density(self):
        f = np.arange(100.0, 131.0)
        a = improved_kmeans(f, config(4, seeding="linear", k_max=0))
        b = improved_kmeans(f, config(4, seeding="uniform_density", k_max=0))
        assert a.freqs.tolist() == b.freqs.tolist()

    def test_random_select_distinct_members(self):
        f = np.arange(50.0)
        res = improved_kmeans(f, config(10, seeding="random_select", k_max=0, rng_seed=1))
        assert np.unique(res.refs).size == 10

    def test_random_select_below_improved_kmeans_in_distribution(self):
        rng = np.random.default_rng(9)
        wins = 0
        for seed in range(20):
            f = np.sort(rng.uniform(0, 100, 400))
            km = improved_kmeans(f, config(8, rng_seed=seed))
            rnd = improved_kmeans(f, config(8, seeding="random_select", k_max=0, rng_seed=seed))
            if km.min_diff >= rnd.min_diff:
                wins += 1
        assert wins >= 18

    def test_too_few_candidates(self):
        with pytest.raises(ValueError):
            improved_kmeans(np.array([1.0]), config(2, seeding="linear", k_max=0))


class TestOracleBound:
    def test_pipeline_never_exceeds_brute_force(self):
        rng = np.random.default_rng(10)
        for trial in range(50):
            n = int(rng.integers(6, 16))
            m = int(rng.integers(2, 5))
            f = np.sort(rng.uniform(0, 100, n))
            km = improved_kmeans(f, config(m, rng_seed=trial))
            rel = relocate_centroids(f, km.freqs)
            assert rel.min_diff <= brute_force_best_min_diff(f, m) + 1e-9


class TestBatchedKmeans:
    """The batched kernel against the per-device reference loop."""

    SEEDINGS = get_args(SeedStrategy)

    @classmethod
    def pool(cls, kind, m, seed):
        """A candidate pool of at least m values and its config.  A half-unit
        grid gives duplicates, values on midpoints, empty clusters and snap
        collisions; a negative pool lies wholly below zero."""
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
            np.testing.assert_allclose(g_imp.micd_trace, micd_trace_reference(f, cfg)[0],
                                       rtol=0, atol=1e-9)
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
                 for s in range(54)]
        pools = [p for p in pools if p[1].m == 4]
        pools.append(self.pool("exact", 4, 1))
        refs = self.check(pools, block)
        met = [micd_trace_reference(f, cfg)[1] for f, cfg, _ in pools]
        for hard in ("duplicates", "on_midpoint", "reseed", "collision", "seed_collision"):
            assert any(m.get(hard) for m in met), hard
        converged_at = {imp[4] for imp, _, converged in refs if converged}
        assert len(converged_at) >= 3  # pools leave the batch at different iterations
        assert any(not converged and imp[4] == cfg.k_max
                   for (_, cfg, _), (imp, _, converged) in zip(pools, refs))
        assert any(f.size == cfg.m for f, cfg, _ in pools)

    @pytest.mark.parametrize("kind", ["grid", "uniform", "negative"])
    def test_zero_iteration_pools(self, kind):
        # baselines: pools that run no iteration, alone and beside iterating
        # ones, each seeding in both
        pools = []
        for seed in range(28):
            f, cfg, refs = self.pool(kind, 8, seed)
            cfg.k_max = 0 if seed % 4 else cfg.k_max
            pools.append((f, cfg, refs))
        for block in (1, 28):
            self.check(pools, block)
        assert any(micd_trace_reference(f, cfg)[1]["seed_collision"]
                   for f, cfg, _ in pools if cfg.k_max == 0)
        got = batched_kmeans([f for f, _, _ in pools[1:3]], [c for _, c, _ in pools[1:3]])
        for imp, pla in got:
            assert imp.iterations == 0 and len(imp.min_diff_trace) == 1
            assert imp.micd_trace == [] and imp.freqs.tolist() == pla.freqs.tolist()

    def test_one_pool_calls(self):
        f, cfg, refs = self.pool("grid", 8, 3)
        imp, pla, _ = kmeans_reference(f, cfg, refs)
        assert as_outcome(improved_kmeans(f, cfg, site_refs=refs)) == imp
        assert as_outcome(batched_kmeans([f], [cfg], [refs])[0][1]) == pla

    def test_sorted_pools_used_without_a_copy(self):
        pools = [self.pool(kind, 8, seed) for seed, kind in enumerate(["grid", "uniform"] * 3)]
        order = [np.argsort(f, kind="stable") for f, _, _ in pools]
        ascending = [(f[o], cfg, r[o]) for (f, cfg, r), o in zip(pools, order)]
        self.check(ascending, 4)
        got = batched_kmeans([f for f, _, _ in ascending], [c for _, c, _ in ascending],
                             [r for _, _, r in ascending])
        for imp, pla in got:
            assert imp.micd_trace is pla.micd_trace

    def test_pools_must_share_m(self):
        f = np.arange(20.0)
        with pytest.raises(ValueError, match="share M"):
            batched_kmeans([f, f], [config(4), config(8)])


class TestNearestCentroidDistance:
    """The sorted-search re-seed distance against the dense matrix that
    ``kmeans_iterations_reference`` uses."""

    @settings(max_examples=300, deadline=None)
    @given(
        # a half-unit grid gives duplicate candidates, repeated centroids and
        # exact ties; centroids reach beyond either end of the candidates
        cands=st.lists(st.one_of(st.integers(0, 40).map(lambda k: k / 2.0),
                                 st.floats(-1e6, 1e6)), min_size=1, max_size=40),
        cents=st.lists(st.one_of(st.integers(-10, 50).map(lambda k: k / 2.0),
                                 st.floats(-2e6, 2e6)), min_size=1, max_size=12),
    )
    @example(cands=[0.0, 1.0, 1.0, 2.0, 3.0, 4.0, 4.0], cents=[2.0, 2.0, -1.0])
    @example(cands=[1.0, 2.0, 3.0], cents=[5.0, 7.0, 5.0])
    @example(cands=[0.0, 0.5, 1.0, 1.5, 2.0], cents=[0.0, 2.0])
    def test_equals_dense_minimum_and_argmax(self, cands, cents):
        fs = np.sort(np.array(cands))
        row = np.array(cents)
        dense = np.abs(fs[:, None] - row[None, :]).min(axis=1)
        got = _nearest_centroid_distance(fs, row)
        # equal values: a centroid of -0.0 on a candidate of 0.0 gives -0.0
        # for the dense 0.0, which argmax treats alike
        assert np.array_equal(got, dense)
        assert int(np.argmax(got)) == int(np.argmax(dense))


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
        # offset 0 keeps every candidate positive, -1 puts a zero among them
        # beside values up to 1e6, and -1e7 makes them all negative
        arrays = [np.sort(np.array([1.0, *r]) + offset) for r in rows]
        cands = _SortedRows(arrays)
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
        # "left" positions of x, and of the next float above x, which are the
        # "right" positions of x
        for query, side in ((x, "left"), (np.nextafter(x, np.inf), "right")):
            want = [np.searchsorted(arrays[r], xi, side).tolist() for r, xi in zip(picks, x)]
            assert cands.search(picks, query).tolist() == want
            assert cands.search(picks[:1], query[:1]).tolist() == want[:1]

    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.lists(
            st.lists(st.sampled_from([-3.0, -1.0, -0.0, 0.0, 0.5, 1.0, 2.0, 2.0, 4.0]),
                     min_size=1, max_size=12),
            min_size=1, max_size=4),
        cents=st.lists(
            st.lists(st.sampled_from([-4.0, -3.0, -1.0, -0.0, 0.0, 1.0, 2.0, 3.0, 5.0]),
                     min_size=3, max_size=3),
            min_size=1, max_size=6),
        scale=st.sampled_from([1.0, -1.0, 1e-300, 1e300]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_merged_midpoint_query(self, rows, cents, scale, seed):
        # small integers, halves and signed zeros: duplicate candidates,
        # centroids on candidates and midpoints equal to candidates; the
        # scales make pools negative or near the ends of the float range
        arrays = [np.sort(np.array(r) * scale) for r in rows]
        cands = _SortedRows(arrays)
        c = np.sort(np.array(cents) * scale, axis=1)
        picks = np.random.default_rng(seed).integers(0, len(arrays), len(c))
        mids = (c[:, :-1] + c[:, 1:]) / 2.0
        query = np.empty((len(c), 2 * c.shape[1] - 1))
        query[:, 0::2], query[:, 1::2] = c, np.nextafter(mids, np.inf)
        pos = cands.search(picks, query)
        for r, row, ci, mi in zip(picks, pos, c, mids):
            assert row[0::2].tolist() == np.searchsorted(arrays[r], ci, "left").tolist()
            assert row[1::2].tolist() == np.searchsorted(arrays[r], mi, "right").tolist()


class TestNonFiniteCandidates:
    """A NaN or infinite candidate is rejected by name and index; it used to
    end in a bare IndexError deep in the EM loop."""

    BAD = (np.nan, np.inf, -np.inf)

    @pytest.mark.parametrize("bad", BAD)
    def test_improved_kmeans(self, bad):
        with pytest.raises(ValueError, match=rf"candidate 40 is not finite \({bad}\)"):
            improved_kmeans(np.r_[np.arange(40.0), bad], config(8))

    @pytest.mark.parametrize("bad", BAD)
    def test_batched_kmeans_names_pool(self, bad):
        pools = [np.arange(40.0), np.r_[np.arange(10.0), bad, np.arange(10.0, 40.0)],
                 np.arange(40.0)]
        with pytest.raises(ValueError, match=rf"pool 1: candidate 10 is not finite \({bad}\)"):
            batched_kmeans(pools, [config(8)] * 3)

    @pytest.mark.parametrize("bad", BAD)
    def test_seed_centroids_and_baselines(self, bad):
        f = np.r_[bad, np.arange(40.0)]
        with pytest.raises(ValueError, match=rf"candidate 0 is not finite \({bad}\)"):
            seed_centroids(f, 8, "linear")
        for seeding in ("linear", "uniform_density", "random_select"):
            with pytest.raises(ValueError, match=rf"candidate 0 is not finite \({bad}\)"):
                improved_kmeans(f, config(8, seeding=seeding, k_max=0))
