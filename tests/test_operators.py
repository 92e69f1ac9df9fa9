import math

import numpy as np
import pytest

from graphmann import operators
from graphmann.errors import DomainError, InputError
from graphmann.mann import AuditStream, audit_block_rows
from graphmann.normed_space import Ball, Box, NormSpace, contains
from graphmann.operators import (
    OPNORM_TOL,
    Componentwise,
    Identity,
    MatrixAffine,
    NonmonotoneSwap,
    known_fixed_points,
    matrix_opnorm_bound,
)
from graphmann.order_graph import ConeRelation
from testonly_operators import audit_lipschitz_on_edges, audit_monotone, sample_domain_edge

SPACE = NormSpace(2, 2.0)
UNIT_BOX = Box([0.0, 0.0], [1.0, 1.0])
COORD = ConeRelation(np.eye(2))


def half_maps():
    """T(x) = 0.5 x + 0.25 on the unit square, fixed point (0.5, 0.5)."""
    return MatrixAffine(SPACE, UNIT_BOX, 0.5 * np.eye(2), [0.25, 0.25])


def shift_cap(space=None):
    """Componentwise f(x) = min(x + 0.1, 1) on [0, 1]."""
    sp = space or NormSpace(1, 2.0)
    return Componentwise(
        sp,
        Box([0.0], [1.0]),
        (np.array([0.0, 0.9, 1.0]),),
        (np.array([0.1, 1.0, 1.0]),),
    )


class TestEvaluate:
    def test_identity(self, rng):
        op = Identity(SPACE, UNIT_BOX)
        for _ in range(10):
            x = rng.uniform(0, 1, 2)
            assert np.array_equal(op.evaluate(x), x)

    def test_componentwise_shift_cap(self):
        assert shift_cap().evaluate([0.5]) == pytest.approx([0.6])
        assert shift_cap().evaluate([0.95]) == pytest.approx([1.0])

    def test_matrix_affine_formula(self):
        assert np.allclose(half_maps().evaluate([1.0, 1.0]), [0.75, 0.75])

    def test_outside_domain_rejected(self):
        with pytest.raises(DomainError):
            half_maps().evaluate([2.0, 0.5])

    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    def test_self_map_on_bulk_samples(self, p, rng):
        space = NormSpace(2, p)
        box = Box([0.0, 0.0], [1.0, 1.0])
        ops = [
            MatrixAffine(space, box, np.array([[0.4, 0.1], [0.2, 0.3]]), [0.1, 0.2]),
            Componentwise(
                space,
                box,
                (np.array([0.0, 1.0]), np.array([0.0, 0.5, 1.0])),
                (np.array([0.3, 0.8]), np.array([0.2, 0.6, 0.9])),
            ),
            Identity(space, box),
        ]
        xs = rng.uniform(0, 1, (10_000, 2))
        for op in ops:
            out = op.apply_batch(xs)
            assert np.all(out >= box.lo - 1e-12) and np.all(out <= box.hi + 1e-12)

    def test_batch_matches_pointwise(self, rng):
        op = half_maps()
        xs = rng.uniform(0, 1, (50, 2))
        batch = op.apply_batch(xs)
        for row, expect in zip(xs, batch):
            assert np.allclose(op.evaluate(row), expect)


class TestApplyBits:
    """The in-place images equal the np.clip expressions they replace."""

    @pytest.mark.parametrize("d", [1, 5, 64])
    def test_matrix_affine(self, rng, d):
        space, box = NormSpace(d, 1.5), Box(np.zeros(d), np.ones(d))
        matrix = rng.uniform(0, 1, (d, d))
        matrix *= 0.9 / max(matrix.sum(axis=0).max(), matrix.sum(axis=1).max())
        op = MatrixAffine(space, box, matrix, rng.uniform(0, 0.3, d))
        rows = rng.uniform(-0.5, 1.5, (50, d))  # clipped at both ends
        for x in rows:
            expect = np.clip(op.matrix @ x + op.offset, box.lo, box.hi)
            assert op._apply(x).tobytes() == expect.tobytes()

    @pytest.mark.parametrize("d", [1, 5, 64])
    @pytest.mark.parametrize("n", [1, 50])
    def test_matrix_affine_batch(self, rng, d, n):
        space, box = NormSpace(d, 2.0), Box(np.zeros(d), np.ones(d))
        matrix = rng.uniform(0, 1, (d, d))
        matrix *= 0.9 / max(matrix.sum(axis=0).max(), matrix.sum(axis=1).max())
        op = MatrixAffine(space, box, matrix, rng.uniform(0, 0.3, d))
        rows = rng.uniform(-0.5, 1.5, (n, d))  # clipped at both ends
        expect = np.clip(rows @ op.matrix.T + op.offset, box.lo, box.hi)
        assert op.apply_batch(rows).tobytes() == expect.tobytes()
        assert op.apply_batch(rows[::2]).tobytes() == expect[::2].tobytes()

    @pytest.mark.parametrize("d", [1, 5, 64])
    def test_swap(self, rng, d):
        box = Box(np.zeros(d), np.ones(d))
        op = NonmonotoneSwap(NormSpace(d, 2.0), box, 0.7, rng.uniform(-0.2, 0.5, d))
        for x in rng.uniform(-0.5, 1.5, (50, d)):
            expect = np.clip(op.factor * x[::-1] + op.offset, box.lo, box.hi)
            assert op._apply(x).tobytes() == expect.tobytes()

    # the clip ufunc is applied in place; these are the values where a
    # different clip would show: -0.0 against 0.0, NaN, the infinities, and
    # values on, just inside and outside the bounds
    SPECIAL = [-0.0, 0.0, math.nan, math.inf, -math.inf, 0.25, 0.5, 0.75, 1.0,
               5e-324, -5e-324, 1.0 + 2**-52, -1.0, 2.0]

    @pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (-0.0, 0.75), (0.25, 0.25), (0.5, 1.0)])
    def test_clip_ufunc_special_values(self, lo, hi):
        x = np.array(self.SPECIAL)
        bounds = np.full(x.size, lo), np.full(x.size, hi)
        expect = np.clip(x, *bounds)
        out = x.copy()
        assert operators._clip(out, *bounds, out) is out
        assert out.tobytes() == expect.tobytes()

    @pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (-0.0, 0.75), (0.25, 0.25), (0.5, 1.0)])
    def test_special_values(self, lo, hi):
        box = Box([lo], [hi])
        space = NormSpace(1, 2.0)
        affine = MatrixAffine(space, box, np.eye(1), [-0.0])
        swap = NonmonotoneSwap(space, box, 0.5, [-0.0])
        rows = np.array(self.SPECIAL)[:, None]
        for x in rows:
            expect = np.clip(affine.matrix @ x + affine.offset, lo, hi)
            assert affine._apply(x).tobytes() == expect.tobytes()
            expect = np.clip(0.5 * x[::-1] + swap.offset, lo, hi)  # keeps -0.0
            assert swap._apply(x).tobytes() == expect.tobytes()
        expect = np.clip(rows @ affine.matrix.T + affine.offset, lo, hi)
        assert affine.apply_batch(rows).tobytes() == expect.tobytes()


def block_test_operator(family, d, rng):
    """An operator of `family` at dimension d with random data, so that every
    product and interpolation carries rounding."""
    space, box = NormSpace(d, 2.0), Box(np.zeros(d), np.ones(d))
    if family == "matrix_affine":
        matrix = rng.uniform(0, 1, (d, d))
        matrix *= 0.9 / max(matrix.sum(axis=0).max(), matrix.sum(axis=1).max())
        return MatrixAffine(space, box, matrix, rng.uniform(0, 0.1, d))
    if family == "componentwise":
        knots_x = tuple(np.array([0.0, 0.3, 0.7, 1.0]) for _ in range(d))
        # rises of at most 0.25 over knot gaps of at least 0.3: slopes in [0, 1]
        knots_y = tuple(0.1 + np.cumsum(rng.uniform(0.0, 0.25, 4)) for _ in range(d))
        return Componentwise(space, box, knots_x, knots_y)
    if family == "identity":
        return Identity(space, box)
    return NonmonotoneSwap(space, box, 0.7, rng.uniform(0.0, 0.3, d))


class TestBlockedApplyBits:
    """T applied block by block over the audit's blocks has the bits of T
    applied to the whole array, so a blocked audit reads the same images."""

    @pytest.mark.parametrize("family", ["matrix_affine", "componentwise", "identity", "swap"])
    @pytest.mark.parametrize("d", [1, 4, 16, 256])
    def test_blocks_match_whole_array(self, family, d):
        rng = np.random.default_rng([d, 7])
        op = block_test_operator(family, d, rng)
        b = audit_block_rows(d)
        for n in (b - 1, b, b + 1, 2 * b + 1, 2 * b + 255, 3 * b + 1):
            rows = rng.uniform(0.0, 1.0, (n, d))
            blocks = []
            stream = AuditStream(op)
            stream.audit = blocks.append  # start, stop and tx outlive the call
            stream.open(np.empty(0), np.empty(0), np.empty(0))
            # (block, count) pairs, as `mann.iterate_rows` yields them
            for start in range(0, n, b):
                stream.push(rows[start : start + b + 1], min(b, n - start))
            stream.close()
            assert blocks[0].start == 0 and blocks[-1].stop == n
            # a tail shorter than a block folds into the block before it
            assert len(blocks) == max(1, n // b)
            assert min(block.stop - block.start for block in blocks) >= min(n, b)
            blocked = np.concatenate([block.tx for block in blocks])
            assert blocked.tobytes() == op.apply_batch(rows).tobytes()


class TestConstructionGuards:
    def test_negative_matrix_entry_rejected(self):
        with pytest.raises(InputError):
            MatrixAffine(SPACE, UNIT_BOX, np.array([[0.5, -0.1], [0.0, 0.5]]), [0, 0])

    def test_expansive_matrix_rejected(self):
        with pytest.raises(InputError):
            MatrixAffine(SPACE, UNIT_BOX, 1.2 * np.eye(2), [0.0, 0.0])

    def test_negative_offset_rejected(self):
        with pytest.raises(InputError):
            MatrixAffine(SPACE, UNIT_BOX, 0.5 * np.eye(2), [-0.1, 0.0])

    def test_slope_above_one_rejected(self):
        with pytest.raises(InputError):
            Componentwise(
                NormSpace(1, 2.0),
                Box([0.0], [1.0]),
                (np.array([0.0, 1.0]),),
                (np.array([0.0, 1.2]),),
            )

    def test_decreasing_knots_rejected(self):
        with pytest.raises(InputError):
            Componentwise(
                NormSpace(1, 2.0),
                Box([0.0], [1.0]),
                (np.array([0.5, 0.5]),),
                (np.array([0.1, 0.2]),),
            )

    def test_box_domain_required_for_affine(self):
        with pytest.raises(InputError):
            MatrixAffine(SPACE, Ball([0.5, 0.5], 0.5), 0.5 * np.eye(2), [0, 0])

    def test_swap_factor_must_contract(self):
        with pytest.raises(InputError):
            NonmonotoneSwap(SPACE, UNIT_BOX, 1.0, [0.0, 0.0])

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
    def test_accepts_exactly_the_certified_matrices(self, rng, p):
        # the interpolated bound decides first and the SVD only when it does
        # not certify M, so the accepted set is that of matrix_opnorm_bound
        matrices = [
            np.array([[0.6, 0.6], [0.6, 0.0]]),  # interpolated 1.2, spectral 0.97
            np.array([[0.6, 0.6], [0.6, 0.6]]),  # 1.2 in every l_p
            np.array([[0.5, 0.5], [0.5, 0.5]]),  # exactly 1
            np.array([[1.0 + 2e-9, 0.0], [0.0, 0.0]]),  # just beyond the tolerance
            np.array([[1.0 + 5e-10, 0.0], [0.0, 0.5]]),  # just within it
            np.array([[0.9, 0.2], [0.0, 0.7]]),
            np.zeros((2, 2)),
        ]
        for _ in range(40):
            m = rng.uniform(0, 1, (2, 2)) * rng.uniform(0, 1, (2, 2)) < 0.5
            m = m * rng.uniform(0, 1, (2, 2))
            matrices.append(m / max(matrix_opnorm_bound(m, 2.0), 1e-3) * rng.uniform(0.8, 1.2))
        for m in matrices:
            certified = matrix_opnorm_bound(m, p) <= 1.0 + OPNORM_TOL
            try:
                MatrixAffine(NormSpace(2, p), UNIT_BOX, m, [0.0, 0.0])
                accepted = True
            except InputError:
                accepted = False
            assert accepted == certified, (m, p)

    def test_svd_only_when_interpolation_does_not_certify(self, monkeypatch):
        calls = []
        svd = np.linalg.svd

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        d = 256
        perm = sum(np.eye(d)[np.random.default_rng(k).permutation(d)] for k in range(3)) / 3
        MatrixAffine(NormSpace(d, 2.0), Box(np.zeros(d), np.ones(d)), 0.995 * perm, np.zeros(d))
        assert calls == []
        MatrixAffine(SPACE, UNIT_BOX, np.array([[0.6, 0.6], [0.6, 0.0]]), [0.0, 0.0])
        assert calls == [(2, 2)]

    def test_rejected_matrix_message(self):
        with pytest.raises(InputError) as info:
            MatrixAffine(SPACE, UNIT_BOX, np.array([[0.6, 0.6], [0.6, 0.6]]), [0.0, 0.0])
        assert str(info.value) == "certified operator norm bound 1.2 exceeds 1 for p=2.0"

    def test_opnorm_bound_exact_for_p1_pinf(self):
        m = np.array([[0.5, 0.4], [0.1, 0.2]])
        assert matrix_opnorm_bound(m, 1.0) == pytest.approx(0.6)  # max column sum
        assert matrix_opnorm_bound(m, math.inf) == pytest.approx(0.9)  # max row sum
        assert matrix_opnorm_bound(m, 2.0) >= np.linalg.norm(m, 2) - 1e-12


class TestMonotoneAudit:
    def test_nonnegative_affine_preserves_coordinatewise_order(self, rng):
        report = audit_monotone(half_maps(), COORD, 1000, rng)
        assert report.failures == 0 and report.trials == 1000

    def test_componentwise_monotone(self, rng):
        space = NormSpace(2, 2.0)
        op = Componentwise(
            space,
            UNIT_BOX,
            (np.array([0.0, 1.0]), np.array([0.0, 1.0])),
            (np.array([0.2, 0.9]), np.array([0.1, 0.7])),
        )
        report = audit_monotone(op, COORD, 1000, rng)
        assert report.failures == 0

    def test_swap_breaks_half_space_order(self, rng):
        # the reversal maps the half-space {v1 >= 0} outside itself
        rel = ConeRelation(np.array([[1.0, 0.0]]))
        op = NonmonotoneSwap(SPACE, UNIT_BOX, 0.5, [0.3, 0.1])
        report = audit_monotone(op, rel, 500, rng)
        assert report.failures > 0
        assert report.witness is not None
        x, y = report.witness[0], report.witness[1]
        assert rel.contains(x, y) and not rel.contains(op.evaluate(x), op.evaluate(y))


class TestLipschitzAudit:
    def test_identity_ratio_is_one(self, rng):
        ratio = audit_lipschitz_on_edges(Identity(SPACE, UNIT_BOX), COORD, SPACE, 200, rng)
        assert ratio == pytest.approx(1.0, abs=1e-12)

    def test_half_slope_componentwise(self, rng):
        space = NormSpace(1, 2.0)
        rel = ConeRelation(np.eye(1))
        op = Componentwise(
            space, Box([0.0], [1.0]), (np.array([0.0, 1.0]),), (np.array([0.0, 0.5]),)
        )
        ratio = audit_lipschitz_on_edges(op, rel, space, 300, rng)
        assert ratio == pytest.approx(0.5, abs=1e-9)

    def test_affine_with_clamp_stays_nonexpansive(self, rng):
        # oracle: the spectral norm of M bounds the affine part, and the
        # clamp is 1-Lipschitz, so sampled ratios stay below 1
        m = np.array([[0.6, 0.3], [0.2, 0.5]])
        assert np.linalg.norm(m, 2) <= 1.0
        op = MatrixAffine(SPACE, UNIT_BOX, m, [0.05, 0.1])
        ratio = audit_lipschitz_on_edges(op, COORD, SPACE, 1000, rng)
        assert ratio <= 1.0 + 1e-9

    def test_library_families_nonexpansive_bulk(self, rng):
        ops = (
            half_maps(),
            Componentwise(
                SPACE,
                UNIT_BOX,
                (np.array([0.0, 0.5, 1.0]), np.array([0.0, 1.0])),
                (np.array([0.1, 0.55, 0.8]), np.array([0.2, 0.95])),
            ),
            Identity(SPACE, UNIT_BOX),
            NonmonotoneSwap(SPACE, UNIT_BOX, 0.5, [0.3, 0.1]),
        )
        for op in ops:
            assert audit_lipschitz_on_edges(op, COORD, SPACE, 1000, rng) <= 1.0 + 1e-9


class TestKnownFixedPoints:
    def test_identity_all_of_domain(self):
        fps = known_fixed_points(Identity(SPACE, UNIT_BOX))
        assert fps.description == "all of C"
        assert len(fps.known_points) > 0
        for point in fps.known_points:
            assert contains(SPACE, UNIT_BOX, point)

    def test_componentwise_midpoint_map(self):
        # f(x) = (x + 1)/2 on [0, 1] fixes exactly 1
        op = Componentwise(
            NormSpace(1, 2.0),
            Box([0.0], [1.0]),
            (np.array([0.0, 1.0]),),
            (np.array([0.5, 1.0]),),
        )
        fps = known_fixed_points(op)
        assert len(fps.known_points) == 1
        assert fps.known_points[0] == pytest.approx([1.0])

    def test_affine_linear_solve(self):
        fps = known_fixed_points(half_maps())
        assert np.allclose(fps.known_points[0], [0.5, 0.5])

    def test_every_known_point_is_fixed(self, rng):
        ops = [
            half_maps(),
            shift_cap(),
            NonmonotoneSwap(SPACE, UNIT_BOX, 0.5, [0.3, 0.1]),
        ]
        for op in ops:
            fps = known_fixed_points(op)
            for point in fps.known_points:
                assert op.space.norm(op.evaluate(point) - point) <= 1e-12

    def test_no_root_reports_none_known(self):
        assert known_fixed_points(shift_cap()).description != "none known"
        # f(x) = x/2 - shifted so its root leaves the knot span entirely
        op = Componentwise(
            NormSpace(1, 2.0),
            Box([0.0], [1.0]),
            (np.array([0.0, 0.4]),),
            (np.array([0.5, 0.9]),),
        )
        fps = known_fixed_points(op)
        assert fps.description == "none known" or all(
            op.space.norm(op.evaluate(p) - p) <= 1e-12 for p in fps.known_points
        )


def test_sample_domain_edge_yields_edges(rng):
    for rel in (COORD, ConeRelation(np.array([[1.0, 1.0]]))):
        for _ in range(100):
            x, y = sample_domain_edge(rel, SPACE, UNIT_BOX, rng)
            assert rel.contains(x, y)
            assert contains(SPACE, UNIT_BOX, x) and contains(SPACE, UNIT_BOX, y)
