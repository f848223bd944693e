import numpy as np
import pytest

from fractal_fourier.errors import ResourceExceeded
from fractal_fourier.ifs import (
    SelfSimilarIFS,
    SimilarityMap,
    cantor_ifs,
    ifs_1d,
    uniform_ifs,
)


@pytest.fixture(scope="session")
def cantor():
    return cantor_ifs()


@pytest.fixture(scope="session")
def uniform01():
    return uniform_ifs(0.0, 1.0)


@pytest.fixture(scope="session")
def uniform12():
    return uniform_ifs(1.0, 2.0)


@pytest.fixture(scope="session")
def mixed_ratios():
    # Non-homogeneous: ratios {1/2, 1/4}, attractor inside [0, 1].
    return ifs_1d([0.5, 0.25], [0.0, 0.75])


@pytest.fixture(scope="session")
def square_2d():
    # Four-corner system on the unit square (SSC), ratio 1/3.
    maps = []
    eye = np.eye(2)
    for tx in (0.0, 2 / 3):
        for ty in (0.0, 2 / 3):
            maps.append(SimilarityMap(1 / 3, eye, np.array([tx, ty])))
    return SelfSimilarIFS(tuple(maps), (0.25, 0.25, 0.25, 0.25))


def random_orthogonal(rng, k):
    q, r = np.linalg.qr(rng.normal(size=(k, k)))
    q = q * np.sign(np.diag(r))
    return q


def random_similarity(rng, k):
    return SimilarityMap(
        ratio=rng.uniform(0.05, 0.95),
        orientation=random_orthogonal(rng, k),
        translation=rng.normal(size=k),
    )


def _random_reversing_system(seed):
    """Non-homogeneous system on the line; map 0 reverses orientation."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 4))
    signs = rng.choice([-1, 1], size=n)
    signs[0] = -1
    return ifs_1d(
        rng.uniform(0.15, 0.4, size=n).tolist(),
        rng.uniform(-1.0, 1.0, size=n).tolist(),
        rng.dirichlet(np.ones(n)).tolist(),
        signs.tolist(),
    )


# Test-only reference: the level-by-level homogeneous leaf builder, kept
# independent of the library's stopping-cover enumerator.
def _homogeneous_leaf_arrays(ifs: SelfSimilarIFS, depth: int, budget: int):
    """Vectorised leaf data for a homogeneous system at uniform depth.

    Returns (ratio, weights, translations, anchors) with rows in
    lexicographic word order; the shared orientation is O^depth.
    """
    n_leaves = ifs.n_maps ** depth
    if n_leaves > budget:
        raise ResourceExceeded(
            f"homogeneous depth-{depth} decomposition needs {n_leaves} leaves > budget {budget}",
            "leaf_budget",
        )
    k = ifs.ambient_dim
    trans = np.zeros((1, k))
    weights = np.ones(1)
    ratio = 1.0
    orient = np.eye(k)
    # Prepend letters one at a time: words in lexicographic order satisfy
    # t_{i w} = t_i + r_i O_i t_w, so each level concatenates letter-major.
    for _ in range(depth):
        blocks = [
            m.translation + (trans @ (m.ratio * m.orientation.T)) for m in ifs.maps
        ]
        trans = np.concatenate(blocks, axis=0)
        weights = np.concatenate([w * weights for w in ifs.weights])
        ratio *= ifs.maps[0].ratio
        orient = ifs.maps[0].orientation @ orient
    anchors = trans + ratio * (ifs.barycenter @ orient.T)
    return ratio, orient, weights, trans, anchors
