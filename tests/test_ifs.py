import json
import math
import time

import numpy as np
import pytest

from fractal_fourier import ifs as ifs_module
from fractal_fourier.errors import BadConfig, InvalidIFS, ResourceExceeded, Unsupported
from fractal_fourier.ifs import (
    FRONTIER_BLOCK,
    GrowthVerdict,
    SelfSimilarIFS,
    SimilarityMap,
    chaos_game,
    fixed_point,
    ifs_1d,
    ifs_from_dict,
    ifs_to_dict,
    IFSDocument,
    is_homogeneous,
    non_expanding_heuristic,
    porosity_flag,
    separation_diagnostic,
    _count_stopping,
    _bool,
    _float,
    _int,
    stopping_decomposition,
)

from conftest import _homogeneous_leaf_arrays, _random_reversing_system, random_similarity


COVER_COLUMNS = (
    "ratios", "orientations", "translations", "weights", "anchors", "letters", "depths"
)


def one_d_map(r, t):
    return SimilarityMap(r, np.array([[1.0]]), np.array([t]))


class TestFixedPoint:
    def test_origin(self):
        assert fixed_point(one_d_map(1 / 3, 0.0)) == pytest.approx(0.0, abs=1e-15)

    def test_cantor_right_map(self):
        assert fixed_point(one_d_map(1 / 3, 2 / 3))[0] == pytest.approx(1.0, abs=1e-12)

    def test_rotation_in_plane(self):
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        m = SimilarityMap(0.5, rot, np.array([1.0, 0.0]))
        x = fixed_point(m)
        assert np.linalg.norm(m(x) - x) <= 1e-10

    def test_random_maps_residual(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            k = int(rng.integers(1, 4))
            m = random_similarity(rng, k)
            x = fixed_point(m)
            assert np.linalg.norm(m(x) - x) <= 1e-10


class TestValidation:
    def test_ratio_range(self):
        with pytest.raises(InvalidIFS):
            SimilarityMap(1.0, np.eye(1), np.zeros(1))
        with pytest.raises(InvalidIFS):
            SimilarityMap(-0.1, np.eye(1), np.zeros(1))

    def test_orthogonality(self):
        with pytest.raises(InvalidIFS, match="orthogonal"):
            SimilarityMap(0.5, np.array([[1.0, 0.1], [0.0, 1.0]]), np.zeros(2))

    def test_weight_sum(self):
        with pytest.raises(InvalidIFS, match="sum to 1"):
            SelfSimilarIFS((one_d_map(0.3, 0.0), one_d_map(0.3, 1.0)), (0.5, 0.4))

    def test_weight_defect_is_the_exact_sum_rounded_up(self):
        from fractions import Fraction

        assert ifs_1d([0.3, 0.3], [0.0, 1.0], [0.5, 0.5]).weight_defect == 0.0
        assert ifs_1d([0.3, 0.3], [0.0, 1.0], [0.25, 0.75]).weight_defect == 0.0
        for weights in ([0.5, 0.5 - 9e-13], [0.3, 0.7], [1 / 3] * 3):
            system = ifs_1d([0.3] * len(weights), [0.0, 1.0, 2.0][: len(weights)], weights)
            exact = abs(1 - sum(map(Fraction, weights)))
            assert exact > 0
            assert exact <= Fraction(system.weight_defect) <= exact * (1 + 2 * Fraction(2.0**-52))

    def test_weight_range(self):
        with pytest.raises(InvalidIFS):
            SelfSimilarIFS((one_d_map(0.3, 0.0), one_d_map(0.3, 1.0)), (1.0, 0.0))

    def test_shared_fixed_point_rejected(self):
        # Both maps fix x = 1: the invariant measure would be an atom.
        with pytest.raises(InvalidIFS, match="atom"):
            ifs_1d([0.5, 0.25], [0.5, 0.75])

    def test_needs_two_maps(self):
        with pytest.raises(InvalidIFS):
            SelfSimilarIFS((one_d_map(0.5, 0.0),), (1.0,))


class TestSupportBall:
    def test_cantor_ball_is_unit_interval(self, cantor):
        assert cantor.barycenter[0] == pytest.approx(0.5, abs=1e-14)
        assert cantor.support_radius == pytest.approx(0.5, abs=1e-12)

    def test_uniform12(self, uniform12):
        assert uniform12.barycenter[0] == pytest.approx(1.5, abs=1e-14)
        assert uniform12.support_radius == pytest.approx(0.5, abs=1e-12)

    def test_ball_invariant_under_maps(self, mixed_ratios):
        b = mixed_ratios.barycenter
        r = mixed_ratios.support_radius
        for m in mixed_ratios.maps:
            assert np.linalg.norm(m(b) - b) + m.ratio * r <= r + 1e-12

    def test_chaos_game_stays_in_ball(self, mixed_ratios):
        pts = chaos_game(mixed_ratios, 5000, seed=3)
        dist = np.linalg.norm(pts - mixed_ratios.barycenter, axis=1)
        assert dist.max() <= mixed_ratios.support_radius + 1e-12

    @pytest.mark.parametrize("system", ["cantor", "mixed_ratios", "square_2d"])
    def test_centred_system_is_the_measure_moved_by_minus_b(self, system, request):
        ifs = request.getfixturevalue(system)
        centred = ifs.centred
        assert not centred.barycenter.any() and centred.centred is centred
        assert centred.centring_drift == 0.0 <= ifs.centring_drift < 1e-15
        assert centred.support_radius == ifs.support_radius
        assert centred.max_point_norm == ifs.support_radius
        assert np.array_equal(centred.ratios, ifs.ratios)
        # the same chaos-game draws, moved by -b
        moved = chaos_game(ifs, 2000, seed=6) - ifs.barycenter
        assert np.abs(chaos_game(centred, 2000, seed=6) - moved).max() <= 1e-14
        assert ifs.second_moment <= ifs.support_radius**2
        assert np.mean(np.sum(moved**2, axis=1)) == pytest.approx(ifs.second_moment, rel=0.1)

    def test_centred_system_skips_the_atom_check(self):
        # fixed points 1e-12 apart: valid, but the rounded centred
        # translations f_i(b) - b put their spread just below FIXED_POINT_TOL
        system = ifs_1d([0.25, 0.359375], [1.25e-12, 0.0], [1 / 32, 31 / 32], [-1, 1])
        centred = system.centred
        assert not centred.barycenter.any()
        assert centred.support_radius == system.support_radius
        assert np.array_equal(centred.ratios, system.ratios)
        assert centred.weights == system.weights and centred.ambient_dim == 1
        # the maps themselves are still checked
        assert all(isinstance(m, SimilarityMap) for m in centred.maps)

    def test_chaos_game_deterministic(self, cantor):
        a = chaos_game(cantor, 1000, seed=5)
        b = chaos_game(cantor, 1000, seed=5)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("system", ["cantor", "reversing", "digits_b5", "square_2d", "rotating_2d",
                                        "rotating_3d"])
    @pytest.mark.parametrize("n_points", [1, 1000, 4096, 5000])
    def test_chaos_game_matches_the_per_map_loop(self, system, n_points, request):
        # one product with every map's linear part per step, against each
        # map applied to its own chains: the same bits, on the line and in
        # the plane and in R^3 with rotations and reflections
        systems = {
            "reversing": lambda: ifs_1d([0.4, 0.3, 0.2], [1.0, 1.4, 2.0], [0.5, 0.3, 0.2], [-1, 1, -1]),
            "digits_b5": lambda: ifs_1d([0.2] * 4, [0.0, 0.2, 0.4, 0.6]),
            **{f"rotating_{k}d": lambda k=k: SelfSimilarIFS(
                tuple(random_similarity(np.random.default_rng(40 + i), k) for i in range(3)), (0.2, 0.5, 0.3))
               for k in (2, 3)},
        }
        ifs = systems[system]() if system in systems else request.getfixturevalue(system)
        assert np.array_equal(chaos_game(ifs, n_points, seed=9), _chaos_game_reference(ifs, n_points, seed=9))


def _chaos_game_reference(ifs, n_points, seed):
    """The chaos game as a loop over the maps, each applied to the chains that drew it."""
    rng = np.random.default_rng(seed)
    chains = min(ifs_module.CHAOS_CHAINS, n_points)
    steps = ifs_module.CHAOS_BURN_IN + -(-n_points // chains)
    x = np.tile(ifs.barycenter, (chains, 1))
    letters = rng.choice(ifs.n_maps, size=(steps, chains), p=ifs.weight_array)
    keep = []
    for s in range(steps):
        row = letters[s]
        new = np.empty_like(x)
        for i, m in enumerate(ifs.maps):
            mask = row == i
            if np.any(mask):
                new[mask] = m(x[mask])
        x = new
        if s >= ifs_module.CHAOS_BURN_IN:
            keep.append(x.copy())
    return np.concatenate(keep, axis=0)[:n_points]


def _stopping_words_reference(ifs, scale):
    """Depth-first first-passage words, visited in lexicographic order.

    Returns (letters, ratio, orientation, translation, weight) per word.
    """
    k = ifs.ambient_dim
    out = []
    stack = [((), 1.0, np.eye(k), np.zeros(k), 1.0)]
    while stack:
        letters, ratio, orient, trans, weight = stack.pop()
        if ratio <= scale:
            out.append((letters, ratio, orient, trans, weight))
            continue
        for i in reversed(range(ifs.n_maps)):
            m = ifs.maps[i]
            stack.append(
                (
                    letters + (i,),
                    ratio * m.ratio,
                    orient @ m.orientation,
                    trans + ratio * orient @ m.translation,
                    weight * ifs.weights[i],
                )
            )
    return out


def _random_planar_system():
    rng = np.random.default_rng(16)
    return SelfSimilarIFS(tuple(random_similarity(rng, 2) for _ in range(3)), (0.5, 0.3, 0.2))


class TestStoppingDecomposition:
    def test_matches_depth_first_reference_planar(self):
        system = _random_planar_system()
        scale = 0.1
        dec = stopping_decomposition(system, scale)
        ref = _stopping_words_reference(system, scale)
        assert len(dec) > 100
        assert [w.letters for w in dec.words] == [r[0] for r in ref]
        b = system.barycenter
        for w, (_, ratio, orient, trans, weight) in zip(dec.words, ref):
            assert w.ratio == pytest.approx(ratio, rel=1e-12)
            assert w.weight == pytest.approx(weight, rel=1e-12)
            assert w.orientation == pytest.approx(orient, abs=1e-12)
            assert w.translation == pytest.approx(trans, abs=1e-12)
            assert w.anchor == pytest.approx(ratio * orient @ b + trans, abs=1e-12)

    def test_cantor_scale_one_ninth(self, cantor):
        dec = stopping_decomposition(cantor, 1 / 9)
        assert len(dec) == 4
        assert dec.ratios == pytest.approx([1 / 9] * 4, rel=1e-12)
        assert dec.weights == pytest.approx([1 / 4] * 4, rel=1e-12)

    def test_cantor_scale_one_quarter_needs_depth_two(self, cantor):
        dec = stopping_decomposition(cantor, 1 / 4)
        assert len(dec) == 4
        assert dec.ratios == pytest.approx([1 / 9] * 4, rel=1e-12)

    def test_mixed_ratio_stopping_tree(self, mixed_ratios):
        dec = stopping_decomposition(mixed_ratios, 1 / 4)
        letters = [w.letters for w in dec.words]
        assert letters == [(0, 0), (0, 1), (1,)]
        assert dec.ratios == pytest.approx([1 / 4, 1 / 8, 1 / 4], rel=1e-12)

    def test_invariants_random_scales(self, mixed_ratios):
        rng = np.random.default_rng(0)
        for scale in rng.uniform(0.002, 0.5, size=20):
            dec = stopping_decomposition(mixed_ratios, float(scale))
            assert abs(dec.weights.sum() - 1.0) <= 1e-10
            assert np.all(dec.ratios <= scale + 1e-15)
            assert np.all(dec.ratios >= dec.ratio_floor - 1e-15)

    def test_minimality_of_parents(self, mixed_ratios):
        scale = 0.1
        dec = stopping_decomposition(mixed_ratios, scale)
        ratios = {(): 1.0}
        for w in dec.words:
            parent = 1.0
            for letter in w.letters[:-1]:
                parent *= mixed_ratios.maps[letter].ratio
            assert parent > scale

    def test_word_products_match(self, mixed_ratios):
        dec = stopping_decomposition(mixed_ratios, 0.03)
        for w in dec.words:
            ratio = math.prod(mixed_ratios.maps[i].ratio for i in w.letters)
            weight = math.prod(mixed_ratios.weights[i] for i in w.letters)
            assert w.ratio == pytest.approx(ratio, rel=1e-12)
            assert w.weight == pytest.approx(weight, rel=1e-12)
            # anchor is the image of the barycenter under the composed word
            x = mixed_ratios.barycenter
            for letter in reversed(w.letters):
                x = mixed_ratios.maps[letter](x)
            assert w.anchor == pytest.approx(x, abs=1e-12)

    def test_refinement_consistency_homogeneous(self, cantor):
        # Decomposing at delta and then decomposing each cylinder at delta'
        # gives exactly the leaves of the direct decomposition at delta*delta'.
        coarse = stopping_decomposition(cantor, 1 / 3)
        sub = stopping_decomposition(cantor, 1 / 9)
        concatenated = {
            w.letters + v.letters for w in coarse.words for v in sub.words
        }
        direct = stopping_decomposition(cantor, (1 / 3) * (1 / 9))
        assert concatenated == {w.letters for w in direct.words}

    def test_scale_validation(self, cantor):
        with pytest.raises(BadConfig):
            stopping_decomposition(cantor, 0.0)
        with pytest.raises(BadConfig):
            stopping_decomposition(cantor, 1.5)

    def test_budget(self, cantor):
        with pytest.raises(ResourceExceeded):
            stopping_decomposition(cantor, 1e-4, budget=100)

    def test_homogeneous_words_share_ratio_and_orientation(self, cantor):
        dec = stopping_decomposition(cantor, 0.02)
        assert np.ptp(dec.ratios) == 0.0
        first = dec.words[0].orientation
        for w in dec.words:
            assert np.array_equal(w.orientation, first)


def _rotated_homogeneous_system():
    angle = 0.7
    c, s = math.cos(angle), math.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    maps = tuple(
        SimilarityMap(0.35, rot, np.array(t)) for t in ([0.0, 0.0], [1.0, 0.3], [0.2, 1.1])
    )
    return SelfSimilarIFS(maps, (0.5, 0.25, 0.25))


class TestStoppingCover:
    @pytest.mark.parametrize(
        "system, depth",
        [("cantor", 13), ("square_2d", 7), ("rotated", 8)],
    )
    def test_homogeneous_matches_reference(self, system, depth, request):
        ifs = (
            _rotated_homogeneous_system()
            if system == "rotated"
            else request.getfixturevalue(system)
        )
        ratio, orient, weights, _, anchors = _homogeneous_leaf_arrays(ifs, depth, 10**8)
        assert len(weights) > FRONTIER_BLOCK
        cover = stopping_decomposition(ifs, ratio)
        assert np.all(cover.depths == depth)
        assert np.array_equal(np.lexsort(cover.letters.T[::-1]), np.arange(len(cover)))
        assert np.array_equal(cover.weights, weights)
        assert np.all(cover.ratios == ratio)
        assert np.max(np.abs(cover.orientations - orient)) <= 1e-15
        assert np.max(np.abs(cover.anchors - anchors)) <= 1e-15

    def test_count_matches_enumeration(self):
        rng = np.random.default_rng(23)
        planar = SelfSimilarIFS(
            tuple(random_similarity(rng, 2) for _ in range(3)), (0.5, 0.3, 0.2)
        )
        cases = [(planar, 0.01)]
        for seed in range(12):
            cases.append((_random_reversing_system(seed), float(10 ** rng.uniform(-5.0, -2.5))))
        for ifs, scale in cases:
            n_leaves, snapped, depth = _count_stopping(ifs, scale, math.inf)
            cover = stopping_decomposition(ifs, scale)
            assert len(cover.ratios) == n_leaves
            assert snapped == cover.ratios.max() <= scale
            assert depth == cover.depths.max() == cover.letters.shape[1]
            again = stopping_decomposition(ifs, snapped)
            for name in COVER_COLUMNS:
                assert np.array_equal(getattr(cover, name), getattr(again, name))

    def test_count_depth_is_the_deepest_streamed_word(self, mixed_ratios, square_2d):
        # ratios 0.9 and 0.05, the first map reversing: words of depth 110
        reversing = ifs_1d([0.9, 0.05], [1.0, 0.3], signs=[-1, 1])
        for system, scale in [(mixed_ratios, 1e-4), (reversing, 1e-5), (square_2d, 1e-3)]:
            n_leaves, _, depth = _count_stopping(system, scale, math.inf)
            blocks = list(ifs_module._cover_blocks(system, scale, depth))
            assert sum(len(block[-1]) for block in blocks) == n_leaves
            assert max(int(block[-1].max()) for block in blocks) == depth
        assert depth == 7 and _count_stopping(reversing, 1e-5, math.inf)[2] == 110

    def test_count_of_root(self, mixed_ratios):
        assert _count_stopping(mixed_ratios, 1.0, math.inf) == (1, 1.0, 0)
        assert _count_stopping(mixed_ratios, math.inf, math.inf) == (1, 1.0, 0)

    def test_count_stops_at_the_budget(self):
        # ratios near 1: a tree of more than 3^20000 words, whose level dictionaries keep growing
        three = ifs_1d([0.999, 0.998, 0.997], [0.0, 0.001, 0.002], [0.3, 0.3, 0.4])
        start = time.monotonic()
        with pytest.raises(ResourceExceeded, match=r"needs \d+ leaves or more > budget 1000$") as info:
            _count_stopping(three, 1e-10, 1000)
        assert time.monotonic() - start < 1.0
        assert info.value.budget_name == "leaf_budget"
        # the lower bound after the level that passed the budget: 3^7
        assert "needs 2187 leaves" in str(info.value)

    def test_count_within_its_budget_is_exact(self, mixed_ratios):
        n_leaves = _count_stopping(mixed_ratios, 1e-4, math.inf)[0]
        assert _count_stopping(mixed_ratios, 1e-4, n_leaves) == _count_stopping(mixed_ratios, 1e-4, math.inf)
        with pytest.raises(ResourceExceeded, match=f"needs {n_leaves} leaves or more > budget {n_leaves - 1}$"):
            _count_stopping(mixed_ratios, 1e-4, n_leaves - 1)

    @pytest.mark.parametrize("scale", [0.0, -0.5, math.nan])
    def test_count_rejects_scales_that_never_stop(self, mixed_ratios, scale):
        with pytest.raises(BadConfig):
            _count_stopping(mixed_ratios, scale, math.inf)


class TestCoverColumns:
    """``StoppingDecomposition`` is columnar; ``words`` is built from the columns."""

    @staticmethod
    def _systems(mixed_ratios):
        return [
            (mixed_ratios, 1e-3),
            (_random_reversing_system(5), 1e-3),
            (_rotated_homogeneous_system(), 0.01),
            (_random_planar_system(), 0.01),
        ]

    def test_columns_equal_word_fields(self, mixed_ratios):
        for system, scale in self._systems(mixed_ratios):
            dec = stopping_decomposition(system, scale)
            assert len(dec.words) == len(dec) > 50
            for j, w in enumerate(dec.words):
                assert w.letters == tuple(dec.letters[j, : dec.depths[j]].tolist())
                assert w.ratio == dec.ratios[j]
                assert w.weight == dec.weights[j]
                assert np.array_equal(w.orientation, dec.orientations[j])
                assert np.array_equal(w.translation, dec.translations[j])
                assert np.array_equal(w.anchor, dec.anchors[j])

    def test_blocks_are_the_public_cover(self, mixed_ratios, cantor):
        # the letter-free blocks that the quadratures stream hold the same
        # rows, bit for bit, in expansion order
        cases = self._systems(mixed_ratios) + [(cantor, 0.3), (cantor, 1e-3), (mixed_ratios, 1e-5)]
        for system, scale in cases:
            dec = stopping_decomposition(system, scale)
            blocks = list(ifs_module._cover_blocks(system, scale))
            assert max(len(block[0]) for block in blocks) <= FRONTIER_BLOCK
            streamed = [np.concatenate(cols) for cols in zip(*blocks)]
            public = [dec.ratios, dec.orientations, dec.translations, dec.weights, dec.anchors]
            n = len(dec)
            keys = [np.column_stack([col.reshape(n, -1) for col in cols]) for cols in (streamed, public)]
            for key, cols in zip(keys, (streamed, public)):
                order = np.lexsort(key.T[::-1])
                cols[:] = [col[order] for col in cols]
            for a, b in zip(streamed, public):
                assert np.array_equal(a, b)

    def test_columns_read_only(self, mixed_ratios):
        dec = stopping_decomposition(mixed_ratios, 0.01)
        for name in COVER_COLUMNS:
            with pytest.raises(ValueError):
                getattr(dec, name)[0] = 0

    def test_len_builds_no_words(self, mixed_ratios, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("CylinderWord built")

        monkeypatch.setattr(ifs_module, "CylinderWord", fail)
        dec = stopping_decomposition(mixed_ratios, 1e-3)
        assert len(dec) == len(dec.ratios) > 0
        assert dec.nbytes == sum(getattr(dec, name).nbytes for name in COVER_COLUMNS)
        with pytest.raises(AssertionError):
            dec.words


class TestHomogeneity:
    def test_cantor(self, cantor):
        assert is_homogeneous(cantor)

    def test_mixed_ratios(self, mixed_ratios):
        assert not is_homogeneous(mixed_ratios)

    def test_rotation_mismatch(self):
        eye = np.eye(2)
        pi_rot = -np.eye(2)
        maps = (
            SimilarityMap(0.4, eye, np.zeros(2)),
            SimilarityMap(0.4, pi_rot, np.ones(2)),
        )
        assert not is_homogeneous(SelfSimilarIFS(maps, (0.5, 0.5)))

    @pytest.mark.parametrize("ratios", [(0.1, 0.1 + 9e-13), (0.1, 0.10000000000000002)])
    def test_linear_parts_must_be_bitwise_equal(self, ratios):
        # the product form would use map 0's ratio for both maps
        assert not is_homogeneous(ifs_1d(list(ratios), [0.0, 0.9]))
        assert is_homogeneous(ifs_1d([ratios[0]] * 2, [0.0, 0.9]))


class TestNonExpanding:
    def test_line_always(self, cantor):
        assert non_expanding_heuristic(cantor) is GrowthVerdict.NON_EXPANDING

    def test_finite_rotation_group_r3(self):
        rot_z = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        maps = (
            SimilarityMap(0.3, np.eye(3), np.zeros(3)),
            SimilarityMap(0.3, rot_z, np.ones(3)),
        )
        ifs = SelfSimilarIFS(maps, (0.5, 0.5))
        assert non_expanding_heuristic(ifs, depth=8) is GrowthVerdict.NON_EXPANDING

    def test_noncommuting_finite_group_closes(self):
        # Quarter turns about z and x generate the (non-abelian) rotation
        # group of the cube; the product set closes up, hence NonExpanding.
        rot_z = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        rot_x = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
        maps = (
            SimilarityMap(0.3, rot_z, np.zeros(3)),
            SimilarityMap(0.3, rot_x, np.ones(3)),
        )
        ifs = SelfSimilarIFS(maps, (0.5, 0.5))
        assert non_expanding_heuristic(ifs, depth=30) is GrowthVerdict.NON_EXPANDING

    def test_generic_rotations_expand(self):
        rng = np.random.default_rng(11)
        from conftest import random_orthogonal

        def rotation():
            q = random_orthogonal(rng, 3)
            if np.linalg.det(q) < 0:
                q[:, 0] = -q[:, 0]
            return q

        maps = (
            SimilarityMap(0.3, rotation(), np.zeros(3)),
            SimilarityMap(0.3, rotation(), np.ones(3)),
        )
        ifs = SelfSimilarIFS(maps, (0.5, 0.5))
        verdict = non_expanding_heuristic(ifs, depth=12, cap=10_000)
        assert verdict is GrowthVerdict.EXPANDING


class TestSeparationDiagnostic:
    def test_cantor_depth5(self, cantor):
        diag = separation_diagnostic(cantor, depth=5)
        assert diag.ssc_ok
        assert not diag.overlaps_detected
        assert diag.esc_distance == pytest.approx(2 / 3 * 3.0**-4, rel=1e-9)
        assert "diagnostic" in diag.note

    def test_touching_intervals(self, uniform01):
        diag = separation_diagnostic(uniform01, depth=3)
        assert not diag.ssc_ok
        assert not diag.overlaps_detected
        assert diag.esc_distance == pytest.approx(1 / 8, rel=1e-9)

    def test_overlapping_system(self):
        ifs = ifs_1d([2 / 3, 2 / 3], [0.0, 1 / 3])
        diag = separation_diagnostic(ifs, depth=4)
        assert diag.overlaps_detected
        assert not diag.ssc_ok

    def test_budget(self, cantor):
        with pytest.raises(ResourceExceeded):
            separation_diagnostic(cantor, depth=30)


def _dense_separation(ifs, depth):
    """The separation diagnostic from dense n x n (x k) pair arrays, for small n."""
    b, radius = ifs.barycenter, ifs.support_radius
    centers = np.array([m(b) for m in ifs.maps])
    radii = np.array([m.ratio * radius for m in ifs.maps])
    ssc_ok = all(
        np.linalg.norm(centers[i] - centers[j]) - (radii[i] + radii[j]) > 0.0
        for i in range(ifs.n_maps)
        for j in range(i + 1, ifs.n_maps)
    )
    columns = ifs_module._root_columns(ifs.ambient_dim)
    for _ in range(depth):
        columns = ifs_module._child_columns(ifs, *columns)
    ratios, orients, trans, _ = columns
    keys = np.round(np.log(ratios) / 1e-9).astype(np.int64)
    esc = math.inf
    for key in np.unique(keys):
        group = trans[keys == key]
        if len(group) < 2:
            continue
        dist = np.linalg.norm(group[:, None, :] - group[None, :, :], axis=-1)
        np.fill_diagonal(dist, np.inf)
        esc = min(esc, float(dist.min()))
    cyl_centers = trans + np.einsum("n,nij,j->ni", ratios, orients, b)
    cyl_radii = ratios * radius
    dist = np.linalg.norm(cyl_centers[:, None, :] - cyl_centers[None, :, :], axis=-1)
    pen = (cyl_radii[:, None] + cyl_radii[None, :]) - dist
    np.fill_diagonal(pen, -np.inf)
    overlap = float(pen.max()) > 1e-12 or esc < 1e-12
    return ifs_module.SeparationDiagnostic(
        ssc_ok=ssc_ok, overlaps_detected=overlap, esc_distance=esc, depth=depth
    )


def _separation_systems():
    """Seeded systems on the line and in the plane: separated, touching, overlapping."""
    systems = []
    for seed in range(12):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(2, 5))
        ratios = rng.choice([1 / 2, 1 / 3, 1 / 4, 0.3], size=n) if seed % 2 else [1 / n] * n
        signs = rng.choice([-1, 1], size=n).tolist()
        systems.append(ifs_1d(list(ratios), rng.uniform(-1.0, 1.0, size=n).tolist(),
                              signs=signs))
        # touching: base-m digits, neighbouring digits share an endpoint
        m = int(rng.integers(2, 5))
        digits = sorted(rng.choice(m, size=int(rng.integers(2, m + 1)), replace=False))
        flips = rng.choice([-1, 1], size=len(digits)).tolist()
        systems.append(ifs_1d([1 / m] * len(digits),
                              [(d + (s < 0)) / m for d, s in zip(digits, flips)],
                              signs=flips))
        maps = tuple(random_similarity(rng, 2) for _ in range(int(rng.integers(2, 4))))
        systems.append(SelfSimilarIFS(maps, tuple([1.0 / len(maps)] * len(maps))))
    # the plane: touching squares, and two maps with one image (a collision)
    corners = tuple(
        SimilarityMap(0.5, np.eye(2), np.array([x, y])) for x in (0.0, 0.5) for y in (0.0, 0.5)
    )
    systems.append(SelfSimilarIFS(corners, (0.25,) * 4))
    twin = SimilarityMap(0.4, np.eye(2), np.array([0.3, 0.1]))
    systems.append(SelfSimilarIFS((twin, twin, corners[3]), (0.3, 0.3, 0.4)))
    return systems


class TestSeparationScans:
    """The sort and block scans of ``separation_diagnostic`` against dense pair arrays."""

    @pytest.mark.parametrize("pair_block", [ifs_module.PAIR_BLOCK, 7])
    def test_matches_dense_pairs(self, monkeypatch, pair_block):
        monkeypatch.setattr(ifs_module, "PAIR_BLOCK", pair_block)
        seen = set()
        for ifs in _separation_systems():
            # depth 1 has no equal-ratio pair when the ratios differ
            for depth in (1, int(math.log(300) / math.log(ifs.n_maps))):
                diag = separation_diagnostic(ifs, depth=depth)
                assert diag == _dense_separation(ifs, depth)
                seen.add((ifs.ambient_dim, diag.ssc_ok, diag.overlaps_detected,
                          math.isinf(diag.esc_distance)))
        for k in (1, 2):
            for ssc in (True, False):
                assert any(s[:2] == (k, ssc) for s in seen)
            for overlap in (True, False):
                assert any(s[0] == k and s[2] == overlap for s in seen)
        assert any(s[3] for s in seen) and any(not s[3] for s in seen)

    def test_two_hundred_thousand_words_on_the_line(self):
        # 3^11 = 177,147 words: dense pair arrays would need ~250 GB
        ifs = ifs_1d([0.2] * 3, [0.0, 0.4, 0.8])
        started = time.perf_counter()
        diag = separation_diagnostic(ifs, depth=11)
        assert time.perf_counter() - started < 30.0
        assert diag.ssc_ok and not diag.overlaps_detected
        assert diag.esc_distance == pytest.approx(0.4 * 0.2**10, rel=1e-6)


class TestPorosity:
    def test_cantor_with_ssc(self, cantor):
        s = math.log(2) / math.log(3)
        assert porosity_flag(cantor, "SSC", s) is True

    def test_full_dimension(self, uniform01):
        assert porosity_flag(uniform01, "OSC", 1.0) is False

    def test_without_separation(self):
        ifs = ifs_1d([2 / 3, 2 / 3], [0.0, 1 / 3])
        assert porosity_flag(ifs, "none", 0.8) is False

    def test_unsupported_dimension(self, square_2d):
        with pytest.raises(Unsupported):
            porosity_flag(square_2d, "SSC", 0.9)


class TestJsonRoundTrip:
    def test_round_trip(self, tmp_path, mixed_ratios):
        doc = IFSDocument(mixed_ratios, "OSC", {"kappa1": 0.4})
        payload = ifs_to_dict(doc)
        again = ifs_from_dict(json.loads(json.dumps(payload)))
        assert again.declared_separation == "OSC"
        assert again.exponents == {"kappa1": 0.4}
        assert again.ifs.ratios == pytest.approx(mixed_ratios.ratios)

    def test_unknown_fields_rejected(self):
        with pytest.raises(BadConfig, match="unknown"):
            ifs_from_dict({"ambient_dim": 1, "maps": [], "weights": [], "extra": 1})

    def test_exponents_parsed_at_load(self, mixed_ratios):
        payload = ifs_to_dict(IFSDocument(mixed_ratios, "OSC"))
        payload["exponents"] = {"kappa1": 0.4, "kappa_p": {"1.5": 0.5}, "d_q": {"3": 0.6, "inf": 0.5}}
        exponents = ifs_from_dict(payload).exponents
        assert exponents == {"kappa1": 0.4, "kappa_p": {1.5: 0.5}, "d_q": {3.0: 0.6, math.inf: 0.5}}

    @pytest.mark.parametrize("exponents, message", [
        # once exit 5: build_profile's float() raised a ValueError
        ({"kappa1": "abc"}, "kappa1: malformed value 'abc'"),
        ({"kappa2": True}, "kappa2: malformed value True"),
        ({"kappa_p": {"x": 0.5}}, "kappa_p: malformed value"),
        ({"kappa_p": {"1.5": "0.5"}}, "kappa_p: malformed value"),
        ({"kappa_p": {"3": 0.5}}, "every p must lie in (1, 2.0]"),
        ({"kappa_p": {"1": 0.5}}, "every p must lie in (1, 2.0]"),
        ({"d_q": {"NaN": 0.5}}, "every q must lie in (1, inf]"),
        ({"d_q": [0.5]}, "d_q: malformed value"),
        ({"fourier_dim": 1.0}, "exponents has unknown fields: ['fourier_dim']"),
        ([0.4], "exponents: malformed value"),
    ])
    def test_malformed_exponents_rejected(self, mixed_ratios, exponents, message):
        payload = ifs_to_dict(IFSDocument(mixed_ratios, "OSC"))
        payload["exponents"] = exponents
        with pytest.raises(BadConfig) as err:
            ifs_from_dict(payload)
        assert message in str(err.value)

    @pytest.mark.parametrize("field, value", [
        ("ambient_dim", True), ("ambient_dim", 1.5), ("ambient_dim", "1"),
        ("weights", [0.5, True]), ("weights", ["0.5", 0.5]),
    ])
    def test_strict_scalars(self, mixed_ratios, field, value):
        payload = ifs_to_dict(IFSDocument(mixed_ratios, "OSC"))
        payload[field] = value
        with pytest.raises(BadConfig, match=f"{field}: malformed value"):
            ifs_from_dict(payload)

    @pytest.mark.parametrize("field, value", [
        ("ratio", True), ("ratio", "0.5"), ("translation", [True]), ("orientation", ["1"]),
        ("orientation", [[1.0], 1.0]),
    ])
    def test_strict_map_fields(self, mixed_ratios, field, value):
        # a bool was once read as 1.0, and a string as its number
        payload = ifs_to_dict(IFSDocument(mixed_ratios, "OSC"))
        payload["maps"][0][field] = value
        with pytest.raises(BadConfig, match=f"{field}: malformed value"):
            ifs_from_dict(payload)

    def test_strict_scalar_parsers(self):
        assert _int(3) == 3 and _int(4.0) == 4 and type(_int(4.0)) is int
        assert _float(2) == 2.0 and type(_float(2)) is float
        assert _bool(False) is False
        for parser, value in ((_int, True), (_int, 4.9), (_int, "4"), (_int, math.inf),
                              (_float, False), (_float, "1.0"), (_float, None),
                              (_bool, "false"), (_bool, 0)):
            with pytest.raises((TypeError, ValueError, OverflowError)):
                parser(value)

    def test_bad_separation(self):
        with pytest.raises(BadConfig):
            ifs_from_dict(
                {
                    "ambient_dim": 1,
                    "maps": [
                        {"ratio": 0.5, "orientation": [1.0], "translation": [0.0]},
                        {"ratio": 0.5, "orientation": [1.0], "translation": [0.5]},
                    ],
                    "weights": [0.5, 0.5],
                    "declared_separation": "STRONG",
                }
            )
