import itertools
import math
import os
import subprocess
import sys
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import graphmann

from graphmann.errors import DimensionMismatchError, InputError
from graphmann.normed_space import (
    Ball,
    Box,
    MODULUS_OPTIMIZER_TOL,
    NormSpace,
    box_reach,
    contains,
    diameter,
    modulus_uc_estimate,
    sample_point,
)
from testonly_operators import UnsupportedCombinationError, project

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


def decimal_modulus(d: int, p: float, eps: float) -> Decimal:
    """The modulus of l_p^d at eps to 40 digits, from the closed forms in
    `decimal` arithmetic (Hanner's equation by 140 bisection steps)."""
    with localcontext() as ctx:
        ctx.prec = 40
        half, one, two = Decimal(eps) / 2, Decimal(1), Decimal(2)
        if d == 1:
            return half
        if math.isinf(p) or p == 1.0:
            return Decimal(0)
        P = Decimal(p)
        if p >= 2.0:
            return one - (one - half**P) ** (one / P)
        lo, hi = Decimal(0), one
        for _ in range(140):
            mid = (lo + hi) / 2
            if (mid + half) ** P + abs(mid - half) ** P < two:
                lo = mid
            else:
                hi = mid
        return one - lo


MODULUS_PS = [1.0, 1.01, 1.5, 1.9, 2.0, 3.0, 4.0, 10.0, math.inf]
MODULUS_EPS = [0.1, 0.5, 1.0, 1.5, 1.99, 2.0]


class TestModulus:
    def test_grid_oracle_confirms_p2_reference_values(self):
        for eps, ref in P2_MODULUS.items():
            assert grid_modulus_p2_d2(eps) == pytest.approx(ref, abs=2e-3)

    @pytest.mark.parametrize("eps", [0.5, 1.0, 1.5, 2.0])
    def test_p2_estimate_matches_reference(self, eps):
        est = modulus_uc_estimate(NormSpace(2, 2.0), eps)
        assert abs(est - P2_MODULUS[eps]) <= MODULUS_OPTIMIZER_TOL

    @pytest.mark.parametrize("p", MODULUS_PS)
    @pytest.mark.parametrize("d", [1, 2, 16])
    def test_matches_decimal_reference(self, d, p):
        for eps in MODULUS_EPS:
            est = modulus_uc_estimate(NormSpace(d, p), eps)
            assert abs(Decimal(est) - decimal_modulus(d, p, eps)) <= MODULUS_OPTIMIZER_TOL

    def test_p1_flat_witness(self):
        # x=(1,0), y=(0.5,0.5): unit vectors at l1 distance 1 whose midpoint
        # still has norm 1
        assert modulus_uc_estimate(NormSpace(2, 1.0), 1.0) == 0.0

    @pytest.mark.parametrize("p", [1.01, 1.5, 1.9, 2.0, 3.0, 4.0, 10.0])
    @pytest.mark.parametrize("d", [2, 16])
    def test_eps2_forces_antipodal_pair(self, d, p):
        assert modulus_uc_estimate(NormSpace(d, p), 2.0) == 1.0

    @pytest.mark.parametrize("p", MODULUS_PS)
    @pytest.mark.parametrize("d", [1, 2, 16])
    def test_nondecreasing_between_zero_and_half_eps(self, d, p):
        space = NormSpace(d, p)
        eps = np.linspace(0.01, 2.0, 200)
        values = np.array([modulus_uc_estimate(space, e) for e in eps])
        assert np.all(np.diff(values) >= 0.0)
        assert np.all((values >= 0.0) & (values <= eps / 2.0))

    @pytest.mark.parametrize("p", [1.01, 1.5, 1.9, 2.0, 3.0, 4.0, 10.0])
    def test_extremal_pair_attains_the_modulus(self, p):
        # unit vectors of l_p^2 at distance eps whose midpoint has norm
        # 1 - modulus: (s, +-eps/2) for p >= 2, and for p < 2 Hanner's
        # (u + eps/2, u - eps/2) and its swap, scaled by 2^(-1/p)
        space = NormSpace(2, p)
        for eps in MODULUS_EPS[:-1]:
            delta = modulus_uc_estimate(space, eps)
            if p >= 2.0:
                x = np.array([1.0 - delta, eps / 2.0])
                y = x * [1.0, -1.0]
            else:
                x = np.array([1.0 - delta + eps / 2.0, 1.0 - delta - eps / 2.0]) / 2.0 ** (1.0 / p)
                y = x[::-1]
            assert space.norm(x) == pytest.approx(1.0, abs=1e-12)
            assert space.norm(x - y) == pytest.approx(eps, abs=1e-12)
            assert 1.0 - space.norm((x + y) / 2.0) == pytest.approx(delta, abs=1e-12)

    @pytest.mark.parametrize("p", [1.01, 1.5, 1.9, 2.0, 3.0, 4.0])
    def test_no_unit_pair_falls_below_the_modulus(self, p, rng):
        # the modulus is nondecreasing, so a pair of unit vectors eps' apart
        # has 1 - ||(x+y)/2|| >= modulus(eps') itself
        space = NormSpace(3, p)
        xs, ys = rng.standard_normal((2, 2000, 3))
        xs /= space.norms(xs)[:, None]
        ys /= space.norms(ys)[:, None]
        gaps = np.minimum(space.norms(xs - ys), 2.0)
        slack = 1.0 - space.norms((xs + ys) / 2.0)
        bounds = np.array([modulus_uc_estimate(space, g) for g in gaps])
        assert np.all(slack >= bounds - 1e-12)

    def test_one_dimensional_closed_form(self):
        # on the line every norm is |x|; the optimum pair is (1, 1 - eps),
        # so the modulus equals eps / 2 regardless of p
        for p in (1.0, 2.0, math.inf):
            assert modulus_uc_estimate(NormSpace(1, p), 0.8) == 0.4

    def test_epsilon_validation(self):
        with pytest.raises(InputError):
            modulus_uc_estimate(NormSpace(2, 2.0), 0.0)
        with pytest.raises(InputError):
            modulus_uc_estimate(NormSpace(2, 2.0), 2.5)


@given(st.floats(0.1, 2.0), st.floats(-2.0, 2.0))
def test_norm_scaling_homogeneity(scale, coord):
    space = NormSpace(2, 2.0)
    x = np.array([coord, 1.0 - coord])
    assert space.norm(scale * x) == pytest.approx(scale * space.norm(x), rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf]),
    st.integers(1, 300),
    st.integers(0, 2**32 - 1),
    st.floats(-8.0, 8.0),
    st.floats(0.0, 16.0),
    st.lists(st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]), max_size=3),
    st.sampled_from(["contiguous", "strided", "reversed"]),
)
def test_norm_is_bitwise_numpy_norm(p, d, seed, top, spread, specials, layout):
    # the reference for every residual and distance: np.linalg.norm itself.
    # Entries of magnitude 10**(top - spread) to 10**top, within 1e-8 to
    # 1e8, with a few zeros, NaNs or infs, also as a strided or reversed
    # view, whose p = 2 dot product BLAS sums in another order than a
    # contiguous one's
    rng = np.random.default_rng(seed)
    exponents = np.clip(top - spread * rng.random(d), -8.0, 8.0)
    v = rng.choice([-1.0, 1.0], d) * 10.0**exponents
    v[rng.integers(0, d, len(specials))] = specials
    if layout == "strided":
        v = np.stack([v, -v], axis=1)[:, 0]
    elif layout == "reversed":
        v = v[::-1].copy()[::-1]
    got = NormSpace(d, p).norm(v)
    assert np.float64(got).tobytes() == np.float64(np.linalg.norm(v, ord=p)).tobytes()


def reference_reach(lo, hi, anchor, w) -> float:
    """box_reach one coordinate at a time, in Python floats."""
    reach = math.inf
    for lo_i, hi_i, a_i, w_i in zip(lo.tolist(), hi.tolist(), anchor.tolist(), w.tolist()):
        if w_i > 1e-12:
            reach = min(reach, (hi_i - a_i) / w_i)
        elif w_i < -1e-12:
            reach = min(reach, (lo_i - a_i) / w_i)
    return reach


# direction entries, the tiny ones (|w| <= 1e-12, zeros included) ignored
DIRECTION_ENTRIES = st.one_of(
    st.floats(-10.0, 10.0),
    st.sampled_from([0.0, -0.0, 1e-12, -1e-12, 1e-13, -5e-13]),
)


@given(
    st.integers(1, 8).flatmap(
        lambda d: st.tuples(
            st.lists(st.floats(-5.0, 5.0), min_size=d, max_size=d),
            st.lists(st.floats(0.0, 3.0), min_size=d, max_size=d),
            st.lists(st.floats(0.0, 1.0), min_size=d, max_size=d),
            st.lists(DIRECTION_ENTRIES, min_size=d, max_size=d),
        )
    )
)
# a quotient that underflows to 0.0 is rounding, not a division by an
# ignored coordinate
@example(([0.0] * 6, [0.0] * 5 + [5e-324], [0.0] * 6, [0.0] * 5 + [2.0]))
def test_box_reach_is_the_distance_to_the_boundary(case):
    lo, width, where, w = map(np.array, case)
    hi = lo + width
    body = Box(lo, hi)
    anchor = np.clip(lo + where * width, lo, hi)
    # an ignored coordinate is not divided by: no division by zero, no 0/0
    with np.errstate(divide="raise", invalid="raise", over="raise"):
        reach = box_reach(body, anchor, w)
    # the same float (a zero reach may carry either sign)
    assert reach == reference_reach(body.lo, body.hi, anchor, w)
    used = np.abs(w) > 1e-12
    if not used.any():
        assert reach == math.inf
        return
    assert 0.0 <= reach < math.inf
    # in the coordinates it reads, anchor + reach * w lies in the box, and
    # on its boundary in the one that bounds the reach, up to rounding
    x, lo, hi = anchor[used] + reach * w[used], body.lo[used], body.hi[used]
    slack = 1e-12 * (1.0 + np.abs(lo) + np.abs(hi))
    assert np.all(x >= lo - slack) and np.all(x <= hi + slack)
    assert np.any(np.minimum(np.abs(x - lo), np.abs(x - hi)) <= slack)


def test_box_reach_ignores_tiny_directions():
    body = Box([0.0, 0.0, 0.0], [1.0, 2.0, 4.0])
    anchor = np.array([0.5, 0.5, 0.5])
    assert box_reach(body, anchor, np.array([0.0, 1e-12, -1e-12])) == math.inf
    assert box_reach(body, anchor, np.array([1e-13, 0.5, -0.25])) == 2.0
    assert box_reach(body, anchor, np.array([-0.25, 0.0, 1e-12])) == 2.0


def test_box_test_treats_nan_as_outside():
    space, body = NormSpace(2, 2.0), Box([0.0, 0.0], [1.0, 1.0])
    assert contains(space, body, [0.5, 1.0 + 1e-10])
    assert not contains(space, body, [0.5, math.nan])
    assert not contains(space, body, [math.inf, 0.5])


def test_modulus_loads_no_scipy_module():
    # the closed forms need only the standard library
    src = str(Path(graphmann.__file__).resolve().parents[1])
    code = (
        "import sys, graphmann, graphmann.cli\n"
        "for p in (1.5, 2.0, 3.0):\n"
        "    graphmann.modulus_uc_estimate(graphmann.NormSpace(2, p), 1.0)\n"
        "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        "assert not loaded, loaded\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
