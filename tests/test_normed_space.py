import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import graphmann

from graphmann.errors import (
    DimensionMismatchError,
    InputError,
    UnsupportedCombinationError,
)
from graphmann.normed_space import (
    Ball,
    Box,
    MODULUS_OPTIMIZER_TOL,
    NormSpace,
    contains,
    diameter,
    modulus_uc_estimate,
    sample_point,
)
from testonly_operators import project

# reference values for the p=2 modulus, 1 - sqrt(1 - eps^2/4); the grid
# oracle below re-derives them before the estimator is held to them
P2_MODULUS = {
    0.5: 0.031754163448145745,
    1.0: 0.1339745962155614,
    1.5: 0.3385621722338523,
    2.0: 1.0,
}


def grid_modulus_p2_d2(eps: float, n_angles: int = 2048) -> float:
    """Brute-force oracle: minimize 1 - ||(x+y)/2|| over unit-circle pairs."""
    theta = np.linspace(0.0, 2.0 * np.pi, n_angles, endpoint=False)
    pts = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    best = np.inf
    for i in range(0, n_angles, 256):
        chunk = pts[i : i + 256]
        diff = chunk[:, None, :] - pts[None, :, :]
        dist = np.sqrt((diff**2).sum(-1))
        mid = (chunk[:, None, :] + pts[None, :, :]) / 2.0
        val = 1.0 - np.sqrt((mid**2).sum(-1))
        val[dist < eps] = np.inf
        best = min(best, float(val.min()))
    return best


class TestNorm:
    def test_pythagorean(self):
        assert NormSpace(2, 2.0).norm([3.0, 4.0]) == pytest.approx(5.0)

    def test_zero_vector(self):
        for p in (1.0, 2.0, 3.5, math.inf):
            assert NormSpace(2, p).norm([0.0, 0.0]) == 0.0

    def test_l1(self):
        assert NormSpace(2, 1.0).norm([1.0, -1.0]) == pytest.approx(2.0)

    def test_linf(self):
        assert NormSpace(3, math.inf).norm([1.0, -7.0, 2.0]) == pytest.approx(7.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            NormSpace(3, 2.0).norm([1.0, 2.0])

    def test_invalid_p(self):
        with pytest.raises(InputError):
            NormSpace(2, 0.5)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
    def test_axioms_on_bulk_samples(self, p, rng):
        # definiteness, homogeneity, triangle inequality at 1e-12
        space = NormSpace(4, p)
        xs = rng.standard_normal((10_000, 4))
        ys = rng.standard_normal((10_000, 4))
        alphas = rng.uniform(-3, 3, 10_000)
        nx, ny = space.norms(xs), space.norms(ys)
        assert np.all(nx >= 0)
        assert np.all(space.norms(alphas[:, None] * xs) <= np.abs(alphas) * nx + 1e-12)
        assert np.all(space.norms(alphas[:, None] * xs) >= np.abs(alphas) * nx - 1e-12)
        assert np.all(space.norms(xs + ys) <= nx + ny + 1e-12)
        assert space.norm(np.zeros(4)) == 0.0

    def test_flags(self):
        assert NormSpace(2, 2.0).uniformly_convex
        assert not NormSpace(2, 1.0).uniformly_convex
        assert not NormSpace(2, math.inf).uniformly_convex


class TestDiameter:
    def test_unit_square_euclidean(self):
        space = NormSpace(2, 2.0)
        assert diameter(space, Box([0, 0], [1, 1])) == pytest.approx(math.sqrt(2))

    def test_unit_square_l1(self):
        assert diameter(NormSpace(2, 1.0), Box([0, 0], [1, 1])) == pytest.approx(2.0)

    def test_ball_any_p(self):
        for p in (1.0, 2.0, math.inf):
            assert diameter(NormSpace(2, p), Ball([0, 0], 0.7)) == pytest.approx(1.4)

    @pytest.mark.parametrize("p", [1.0, 2.0, 2.7, math.inf])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_box_matches_exhaustive_corner_search(self, p, d, rng):
        space = NormSpace(d, p)
        lo = rng.uniform(-1, 0, d)
        hi = lo + rng.uniform(0.5, 2.0, d)
        corners = [
            np.where(np.array(bits), hi, lo)
            for bits in itertools.product([0, 1], repeat=d)
        ]
        brute = max(space.norm(u - v) for u in corners for v in corners)
        assert diameter(space, Box(lo, hi)) == pytest.approx(brute, abs=1e-12)


class TestProject:
    def test_box_clamp(self):
        space = NormSpace(2, 2.0)
        out = project(space, Box([0, 0], [1, 1]), [2.0, -1.0])
        assert np.allclose(out, [1.0, 0.0])

    def test_member_unchanged(self):
        space = NormSpace(2, 3.0)
        body = Box([0, 0], [1, 1])
        assert np.array_equal(project(space, body, [0.4, 0.9]), [0.4, 0.9])

    def test_ball_radial(self):
        space = NormSpace(2, 2.0)
        out = project(space, Ball([0, 0], 1.0), [3.0, 4.0])
        assert np.allclose(out, [0.6, 0.8])

    def test_ball_requires_p2(self):
        with pytest.raises(UnsupportedCombinationError):
            project(NormSpace(2, 1.0), Ball([0, 0], 1.0), [3.0, 4.0])

    @pytest.mark.parametrize("p", [1.0, 2.0, 4.0, math.inf])
    def test_box_projection_idempotent_and_nonexpansive(self, p, rng):
        space = NormSpace(3, p)
        body = Box([-1, 0, 0.5], [1, 2, 1.5])
        for _ in range(500):
            x = rng.uniform(-3, 3, 3)
            y = rng.uniform(-3, 3, 3)
            px, py = project(space, body, x), project(space, body, y)
            assert contains(space, body, px)
            assert np.array_equal(project(space, body, px), px)
            assert space.norm(px - py) <= space.norm(x - y) + 1e-12

    def test_sample_point_members(self, rng):
        space = NormSpace(3, 2.0)
        for body in (Box([0, 0, 0], [1, 2, 3]), Ball([1, 1, 1], 0.5)):
            for _ in range(200):
                assert contains(space, body, sample_point(space, body, rng))

    def test_box_requires_lo_le_hi(self):
        with pytest.raises(InputError):
            Box([1.0, 0.0], [0.0, 1.0])

    def test_ball_requires_positive_radius(self):
        with pytest.raises(InputError):
            Ball([0.0, 0.0], 0.0)


class TestModulus:
    def test_grid_oracle_confirms_p2_reference_values(self):
        for eps, ref in P2_MODULUS.items():
            assert grid_modulus_p2_d2(eps) == pytest.approx(ref, abs=2e-3)

    @pytest.mark.parametrize("eps", [0.5, 1.0, 1.5, 2.0])
    def test_p2_estimate_matches_reference(self, eps):
        space = NormSpace(2, 2.0)
        est = modulus_uc_estimate(space, eps, budget=40, seed=0)
        assert est == pytest.approx(P2_MODULUS[eps], abs=1e-2)
        # one-sided: the estimate never undershoots the infimum by more
        # than the documented optimizer tolerance
        assert est >= P2_MODULUS[eps] - MODULUS_OPTIMIZER_TOL

    def test_p1_flat_witness(self):
        # x=(1,0), y=(0.5,0.5): unit vectors at l1 distance 1 whose midpoint
        # still has norm 1
        space = NormSpace(2, 1.0)
        est = modulus_uc_estimate(space, 1.0, budget=24, seed=0)
        assert 0.0 - 1e-12 <= est <= 1e-6

    def test_eps2_forces_antipodal_pair(self):
        est = modulus_uc_estimate(NormSpace(2, 2.0), 2.0, budget=16, seed=0)
        assert est == pytest.approx(1.0, abs=1e-4)

    def test_nonincreasing_in_budget(self):
        space = NormSpace(2, 3.0)
        small = modulus_uc_estimate(space, 1.0, budget=6, seed=5)
        large = modulus_uc_estimate(space, 1.0, budget=18, seed=5)
        assert large <= small + 1e-15

    @pytest.mark.parametrize("p", [1.5, 2.0, 4.0])
    def test_nonnegative_for_uniformly_convex_p(self, p):
        est = modulus_uc_estimate(NormSpace(2, p), 0.8, budget=12, seed=2)
        assert est >= -1e-12

    def test_one_dimensional_closed_form(self):
        # on the line every norm is |x|; the optimum pair is (1, 1 - eps),
        # so the modulus equals eps / 2 regardless of p
        for p in (1.0, 2.0, math.inf):
            est = modulus_uc_estimate(NormSpace(1, p), 0.8, budget=12, seed=0)
            assert est == pytest.approx(0.4, abs=1e-6)

    def test_epsilon_validation(self):
        with pytest.raises(InputError):
            modulus_uc_estimate(NormSpace(2, 2.0), 0.0)
        with pytest.raises(InputError):
            modulus_uc_estimate(NormSpace(2, 2.0), 2.5)
        with pytest.raises(InputError):
            modulus_uc_estimate(NormSpace(2, 2.0), 1.0, budget=0)


@given(st.floats(0.1, 2.0), st.floats(-2.0, 2.0))
def test_norm_scaling_homogeneity(scale, coord):
    space = NormSpace(2, 2.0)
    x = np.array([coord, 1.0 - coord])
    assert space.norm(scale * x) == pytest.approx(scale * space.norm(x), rel=1e-12)


def test_import_leaves_scipy_optimize_unloaded():
    # only modulus_uc_estimate needs it, and it costs most of the import time
    src = str(Path(graphmann.__file__).resolve().parents[1])
    code = (
        "import sys, graphmann, graphmann.cli\n"
        "assert 'scipy.optimize' not in sys.modules, 'scipy.optimize imported'\n"
        "graphmann.modulus_uc_estimate(graphmann.NormSpace(2, 2.0), 1.0, budget=1)\n"
        "assert 'scipy.optimize' in sys.modules\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
