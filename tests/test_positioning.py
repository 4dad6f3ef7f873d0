import numpy as np
import pytest

from radioloc.floorplan import Point3
from radioloc.positioning import (
    MAX_ORDER,
    SCORE_BLOCK,
    SIMILARITY_CAP,
    WknnConfig,
    _best_k,
    error_curves,
    k_est_from_counts,
    locate,
    locate_many,
)
from radioloc.propagation import AccessPoint
from radioloc.radiomap import Fingerprint, Radiomap, RpArrays

from helpers import estimate_bits, oracle_wknn


def make_map(entries, area=100.0, n_aps=None):
    """entries: list of (x, y, rss list)."""
    if n_aps is None:
        n_aps = len(entries[0][2])
    aps = [AccessPoint(f"ap{i}", Point3(float(i), 0.0, 2.8)) for i in range(n_aps)]
    rps = RpArrays([(x, y, 1.2) for x, y, _ in entries], [rss for _, _, rss in entries],
                   [False] * len(entries))
    return Radiomap(aps, rps, area_m2=area)


def similarity(rp, target, order=2.0):
    """The similarity ``locate`` gives the one RP of a map to a target."""
    rmap = make_map([(0.0, 0.0, rp)])
    return locate(rmap, Fingerprint(target), WknnConfig(k=1, order=order)).similarities[0]


class TestSimilarity:
    def test_identical_returns_cap(self):
        assert similarity([-50.0, -60.0], [-50.0, -60.0]) == SIMILARITY_CAP

    def test_euclidean_three_four_five(self):
        assert similarity([-50.0, -60.0], [-53.0, -64.0], order=2.0) == pytest.approx(1.0 / 5.0)

    def test_manhattan(self):
        assert similarity([-50.0, -60.0, -70.0], [-51.0, -62.0, -73.0],
                          order=1.0) == pytest.approx(1.0 / 6.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length must match"):
            similarity([-50.0], [-50.0, -60.0])

    def test_order_below_one_rejected(self):
        with pytest.raises(ValueError, match=r"must lie in \[1, 34\]"):
            similarity([-50.0], [-51.0], order=0.5)


class TestKEst:
    def test_published_examples(self):
        # ceil(0.05 * (15 + 504)) = ceil(25.95)
        assert k_est_from_counts(15, 504, alpha=0.05) == 26
        # ceil(0.05 * 41) = ceil(2.05)
        assert k_est_from_counts(41, 0, alpha=0.05) == 3

    def test_integer_product_not_rounded_up(self):
        assert k_est_from_counts(20, 500, alpha=0.05) == 26
        # 0.55 * 100 and 0.07 * 100 are an ulp above 55 and 7.
        assert 0.55 * 100 > 55 and 0.07 * 100 > 7
        assert k_est_from_counts(40, 60, alpha=0.55) == 55
        assert k_est_from_counts(100, 0, alpha=0.07) == 7

    def test_density_form_matches_count_form(self):
        # ceil(alpha * (d_real + d_virtual) * area) over a map of 15 real and
        # 504 virtual RPs: the map's counts give its neighbour count.
        plain = make_map([(float(i), 0.0, [-50.0 - i % 50]) for i in range(519)])
        rmap = Radiomap(plain.aps, RpArrays(plain.rps.pos, plain.rps.rss, np.arange(519) >= 15),
                        area_m2=504.0)
        assert (rmap.n_real, rmap.n_virtual) == (15, 504)
        assert k_est_from_counts(15, 504, 0.05) == 26
        assert len(locate(rmap, Fingerprint([-60.0]), WknnConfig(alpha=0.05)).indices) == 26

    def test_validation(self):
        with pytest.raises(ValueError, match="not both zero"):
            k_est_from_counts(0, 0, 0.05)
        with pytest.raises(ValueError, match="alpha must lie in"):
            k_est_from_counts(10, 10, 0.0)
        with pytest.raises(ValueError, match="nonnegative"):
            k_est_from_counts(-1, 5)
        with pytest.raises(ValueError, match="nonnegative"):
            k_est_from_counts(5, -1)

    def test_tiny_alpha_gives_one_neighbor(self):
        # The ceiling of any positive product is at least 1, though rounding
        # to 9 decimals takes 1e-298 to 0.
        assert k_est_from_counts(72, 5040, alpha=1e-300) == 1
        assert k_est_from_counts(1, 0, alpha=1e-300) == 1
        assert k_est_from_counts(72, 5040, alpha=1.0) == 5112

    @pytest.mark.parametrize("alpha", [0.0, -0.05, 1.0000001, 1e308, float("inf"),
                                       float("nan")])
    def test_alpha_outside_unit_interval_raises(self, alpha):
        with pytest.raises(ValueError, match="alpha must lie in"):
            k_est_from_counts(72, 5040, alpha)
        with pytest.raises(ValueError, match="alpha must lie in"):
            k_est_from_counts(1, 0, alpha)
        with pytest.raises(ValueError, match="alpha must lie in"):
            WknnConfig(alpha=alpha)


class TestLocate:
    def test_k1_returns_most_similar_rp(self):
        rmap = make_map([(0.0, 0.0, [-50.0, -60.0]),
                         (10.0, 10.0, [-80.0, -90.0])])
        est = locate(rmap, Fingerprint([-79.0, -89.0]), WknnConfig(k=1))
        assert est.position == Point3(10.0, 10.0, 1.2)
        assert len(est.neighbors) == 1

    def test_equal_similarities_give_midpoint(self):
        rmap = make_map([(0.0, 0.0, [-50.0]), (10.0, 4.0, [-60.0])])
        est = locate(rmap, Fingerprint([-55.0]), WknnConfig(k=2))
        assert est.position.x == pytest.approx(5.0)
        assert est.position.y == pytest.approx(2.0)

    def test_exact_match_dominates_for_any_k(self):
        rng = np.random.default_rng(0)
        entries = [(float(rng.uniform(0, 30)), float(rng.uniform(0, 30)),
                    list(rng.uniform(-90, -40, 4))) for _ in range(40)]
        rmap = make_map(entries)
        target = Fingerprint(entries[17][2])
        # The cap must exceed any finite similarity by a large factor.
        ranked = locate(rmap, target, WknnConfig(k=40))
        assert ranked.indices[0] == 17 and ranked.similarities[0] == SIMILARITY_CAP
        assert SIMILARITY_CAP >= 1e6 * ranked.similarities[1]
        for k in (1, 5, 40):
            est = locate(rmap, target, WknnConfig(k=k))
            assert abs(est.position.x - entries[17][0]) < 1e-3
            assert abs(est.position.y - entries[17][1]) < 1e-3

    def test_neighbors_sorted_and_tie_broken_by_index(self):
        rmap = make_map([(0.0, 0.0, [-50.0]), (1.0, 1.0, [-52.0]),
                         (2.0, 2.0, [-52.0])])
        est = locate(rmap, Fingerprint([-51.0]), WknnConfig(k=3))
        sims = [s for _, s in est.neighbors]
        assert sims == sorted(sims, reverse=True)
        # RPs 1 and 2 tie; the lower index must come first.
        tied = [i for i, _ in est.neighbors if i in (1, 2)]
        assert tied == [1, 2]

    def test_alpha_drives_k_when_k_unset(self):
        entries = [(float(i), 0.0, [-50.0 - i]) for i in range(40)]
        rmap = make_map(entries)
        est = locate(rmap, Fingerprint([-50.0]), WknnConfig(alpha=0.1))
        assert len(est.neighbors) == 4  # ceil(0.1 * 40)

    def test_errors(self):
        rmap = make_map([(0.0, 0.0, [-50.0])])
        with pytest.raises(ValueError):
            locate(rmap, Fingerprint([-50.0]), WknnConfig(k=2))
        with pytest.raises(ValueError):
            locate(rmap, Fingerprint([-50.0, -60.0]), WknnConfig(k=1))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            WknnConfig(k=0)
        with pytest.raises(ValueError):
            WknnConfig(order=0.9)
        with pytest.raises(ValueError):
            WknnConfig(alpha=0.0)
        for order in (float("inf"), float("nan"), 34.000000000000004, 35.0, 1e308):
            with pytest.raises(ValueError, match=r"must lie in \[1, 34\]"):
                WknnConfig(order=order)
            with pytest.raises(ValueError, match=r"must lie in \[1, 34\]"):
                similarity([-50.0], [-60.0], order)
            with pytest.raises(ValueError, match=r"must lie in \[1, 34\]"):
                error_curves(np.array([[-50.0]]), np.zeros((1, 3)), np.array([[-60.0]]),
                             np.zeros((1, 3)), 1, order)

    @pytest.mark.parametrize("k", [2.5, 2.0, True])
    def test_non_integer_k_rejected(self, k):
        with pytest.raises(ValueError, match="k must be an integer"):
            WknnConfig(k=k)

    def test_numpy_integer_k_accepted(self):
        rmap = make_map([(0.0, 0.0, [-50.0]), (2.0, 0.0, [-60.0]), (9.0, 0.0, [-90.0])])
        target = Fingerprint([-52.0])
        assert (locate(rmap, target, WknnConfig(k=np.int64(2)))
                == locate(rmap, target, WknnConfig(k=2)))

    def test_order_that_overflows_every_distance_raises(self):
        # |d| ** 1e308 would overflow for every |d| > 1, and underflow to an
        # exact match's 0 for every |d| < 1: the order is refused.
        rmap = make_map([(0.0, 0.0, [-50.0, -60.0]), (10.0, 10.0, [-80.0, -90.0])])
        for target in ([-65.0, -75.0], [-50.0, -60.0]):
            with pytest.raises(ValueError, match=r"must lie in \[1, 34\], got 1e\+308"):
                locate(rmap, Fingerprint(target), WknnConfig(k=2, order=1e308))

    def test_highest_order_ranks_sub_decibel_distances(self):
        # 0.4 ** 34 and 0.2 ** 34 are normal doubles, so neither RP takes the
        # exact match's cap: the nearer one ranks first, with twice the weight.
        assert similarity([-50.4], [-50.0], MAX_ORDER) == pytest.approx(2.5, rel=1e-12)
        rmap = make_map([(0.0, 0.0, [-50.4]), (10.0, 0.0, [-50.2]), (20.0, 0.0, [-50.0])])
        est = locate(rmap, Fingerprint([-50.0]), WknnConfig(k=3, order=MAX_ORDER))
        assert est.indices.tolist() == [2, 1, 0]
        assert est.similarities.tolist()[0] == SIMILARITY_CAP
        assert est.similarities.tolist()[1:] == pytest.approx([5.0, 2.5], rel=1e-12)


class TestLocateMany:
    def _instance(self, n=30, length=4, n_targets=9):
        rng = np.random.default_rng(13)
        entries = [(float(rng.uniform(0, 50)), float(rng.uniform(0, 50)),
                    list(np.round(rng.uniform(-80, -60, length)))) for _ in range(n)]
        targets = np.round(rng.uniform(-80, -60, (n_targets, length)))
        targets[0] = entries[3][2]  # an exact match
        return make_map(entries), targets

    def test_matches_locate_per_row(self):
        rmap, targets = self._instance()
        for cfg in (WknnConfig(k=1), WknnConfig(k=7, order=1.0), WknnConfig(k=30),
                    WknnConfig(alpha=0.1)):
            got = locate_many(rmap, targets, cfg)
            want = [locate(rmap, Fingerprint(t), cfg) for t in targets]
            assert got == want
            assert estimate_bits(got) == estimate_bits(want)
            assert [e.neighbors for e in got] == [e.neighbors for e in want]
            assert all(type(i) is int and type(s) is float
                       for e in got for i, s in e.neighbors)

    def test_empty_batch(self):
        rmap, _ = self._instance()
        assert locate_many(rmap, np.empty((0, 4)), WknnConfig(k=3)) == []

    def test_errors(self):
        rmap, targets = self._instance()
        with pytest.raises(ValueError):
            locate_many(rmap, targets[:, :3], WknnConfig(k=3))
        with pytest.raises(ValueError):
            locate_many(rmap, targets, WknnConfig(k=31))
        empty = Radiomap(rmap.aps, RpArrays.empty(len(rmap.aps)), area_m2=100.0)
        with pytest.raises(ValueError):
            locate_many(empty, targets, WknnConfig(k=1))


class TestProperties:
    def _random_instance(self, rng, n=30, length=5):
        entries = [(float(rng.uniform(0, 50)), float(rng.uniform(0, 50)),
                    list(rng.uniform(-95, -35, length))) for _ in range(n)]
        target = Fingerprint(list(rng.uniform(-95, -35, length)))
        return make_map(entries), target

    def test_distance_scaling_invariance_power_of_two(self):
        # Scaling every fingerprint difference by 4 rescales all similarities
        # by 1/4 exactly in floating point, leaving the estimate unchanged.
        # Values sit in a narrow band so the scaled map stays within range.
        rng = np.random.default_rng(8)
        entries = [(float(rng.uniform(0, 50)), float(rng.uniform(0, 50)),
                    list(rng.uniform(-70, -60, 5))) for _ in range(30)]
        rmap = make_map(entries)
        target = Fingerprint(list(rng.uniform(-66, -64, 5)))
        est = locate(rmap, target, WknnConfig(k=7))
        scaled_rss = np.clip(target.rss + 4.0 * (rmap.rss_matrix() - target.rss), -120, 0)
        # Clipping would break exactness; the instance is built to avoid it.
        assert np.all(scaled_rss > -120) and np.all(scaled_rss < 0)
        scaled = Radiomap(rmap.aps, RpArrays(rmap.rps.pos, scaled_rss, rmap.rps.virtual),
                          rmap.area_m2)
        est_scaled = locate(scaled, target, WknnConfig(k=7))
        assert [i for i, _ in est.neighbors] == [i for i, _ in est_scaled.neighbors]
        assert est.position == est_scaled.position

    def test_estimate_in_neighbor_bounding_box(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            rmap, target = self._random_instance(rng)
            est = locate(rmap, target, WknnConfig(k=5))
            xs = [rmap.rps.pos[i, 0] for i, _ in est.neighbors]
            ys = [rmap.rps.pos[i, 1] for i, _ in est.neighbors]
            assert min(xs) - 1e-9 <= est.position.x <= max(xs) + 1e-9
            assert min(ys) - 1e-9 <= est.position.y <= max(ys) + 1e-9

    def test_monotone_refinement(self):
        rng = np.random.default_rng(10)
        rmap, target = self._random_instance(rng)
        refined = Radiomap(
            rmap.aps,
            rmap.rps + RpArrays([(33.0, 44.0, 1.2)], [target.rss], [True]),
            rmap.area_m2)
        est = locate(refined, target, WknnConfig(k=6))
        assert abs(est.position.x - 33.0) < 1e-3
        assert abs(est.position.y - 44.0) < 1e-3

    def test_oracle_equivalence_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            n = int(rng.integers(2, 60))
            length = int(rng.integers(1, 8))
            entries = [(float(rng.uniform(0, 50)), float(rng.uniform(0, 50)),
                        list(rng.uniform(-95, -35, length))) for _ in range(n)]
            rmap = make_map(entries)
            target = Fingerprint(list(rng.uniform(-95, -35, length)))
            k = int(rng.integers(1, n + 1))
            est = locate(rmap, target, WknnConfig(k=k))
            want_pos, want_idx, want_sims = oracle_wknn(
                rmap.rss_matrix(), rmap.positions_matrix(), target.rss, k)
            assert [i for i, _ in est.neighbors] == want_idx
            assert (est.position.x, est.position.y, est.position.z) == tuple(want_pos)
            for (_, s), ws in zip(est.neighbors, want_sims):
                assert s == ws


def best_k(rmap, tp_rss, tp_pos, k_max):
    """The sweep's k_opt in 1..k_max: ``_best_k`` over ``error_curves``' mean errors."""
    curves = error_curves(rmap.rss_matrix(), rmap.positions_matrix(), tp_rss, tp_pos, k_max)
    return _best_k(range(1, k_max + 1), curves.mean(axis=0))


class TestFindKOpt:
    """k_opt, the k of least mean error over test points, as the sweeps find it."""

    def test_single_rp_map(self):
        rmap = make_map([(5.0, 5.0, [-50.0])])
        assert best_k(rmap, [[-50.0]], [[5.0, 5.0, 1.2]], 1) == 1

    def test_colocated_tps_prefer_k1(self):
        entries = [(float(i * 3), float(i * 2), [-50.0 - 3 * i, -80.0 + 2 * i])
                   for i in range(10)]
        rmap = make_map(entries)
        tp_rss = [rss for _, _, rss in entries[:4]]
        tp_pos = [(x, y, 1.2) for x, y, _ in entries[:4]]
        assert best_k(rmap, tp_rss, tp_pos, 10) == 1

    def test_tie_prefers_smallest_k(self):
        # Exact-match target: the cap makes every k give the same zero error.
        entries = [(0.0, 0.0, [-50.0]), (8.0, 0.0, [-60.0]), (0.0, 8.0, [-70.0])]
        rmap = make_map(entries)
        assert best_k(rmap, [[-50.0]], [[0.0, 0.0, 1.2]], 3) == 1
        # means[k - 1] is k's mean error; the order of ks does not matter.
        assert _best_k([3, 1, 2], [0.5, 0.5, 0.5]) == 1
        assert _best_k([3, 2], [0.1, 0.7, 0.7]) == 2
        assert _best_k([1, 2, 3], [0.3, 0.1, 0.2]) == 2

    def test_validation(self):
        rmap = make_map([(0.0, 0.0, [-50.0]), (1.0, 0.0, [-55.0])])
        with pytest.raises(ValueError, match=r"k_max must lie in \[1, 2\]"):
            best_k(rmap, [[-52.0]], [[0.5, 0.0, 1.2]], 10)  # k beyond N
        assert error_curves(rmap.rss_matrix(), rmap.positions_matrix(), np.empty((0, 1)),
                            np.empty((0, 3)), 2).shape == (0, 2)

    def test_error_curves_rejects_non_integer_k_max(self):
        for k_max in (2.5, 2.0, True):
            with pytest.raises(ValueError, match="k_max must be an integer"):
                error_curves(np.array([[-50.0], [-55.0]]), np.zeros((2, 3)),
                             np.array([[-52.0]]), np.zeros((1, 3)), k_max)

    def test_error_curves_rejects_wrong_fingerprint_length(self):
        # Two 3-AP test points hold as many values as three 2-AP rows, and
        # with SCORE_BLOCK // 2 two-AP RPs each row block is a single test point.
        n = SCORE_BLOCK // 2
        rss = np.linspace(-90.0, -40.0, 2 * n).reshape(n, 2)
        tp_rss = np.array([[-52.0, -60.0, -70.0]] * 2)
        tp_pos = np.array([[0.5, 0.0, 1.2]] * 2)
        with pytest.raises(ValueError):
            error_curves(rss, np.zeros((n, 3)), tp_rss, tp_pos, 2)
        for bad_rss, bad_pos in ((tp_rss.ravel(), tp_pos), (tp_rss[:, :2], tp_pos[:1]),
                                 (tp_rss[:, :2], tp_pos[:, :2]),
                                 (tp_rss[:, :2] - 200.0, tp_pos)):
            with pytest.raises(ValueError):
                error_curves(rss, np.zeros((n, 3)), bad_rss, bad_pos, 2)
