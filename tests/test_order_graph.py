import numpy as np
import pytest

from graphmann.errors import DimensionMismatchError, InputError
from graphmann.order_graph import ConeRelation, sample_cone_element
from testonly_relations import (
    MetricBallRelation,
    StrictConeRelation,
    audit_cg,
    audit_reflexive,
    audit_transitive,
    chained_triple_source,
    edge_pair_source,
    gaussian_point_source,
)


def coordinatewise(d=2):
    return ConeRelation(np.eye(d))


def half_space():
    return ConeRelation(np.array([[1.0, 1.0]]))


class TestEdgeContains:
    def test_coordinatewise_increase(self):
        assert coordinatewise().contains([0, 0], [1, 2])

    def test_loop_at_every_vertex(self, rng):
        rel = half_space()
        for _ in range(20):
            x = rng.standard_normal(2)
            assert rel.contains(x, x)

    def test_incomparable_pair(self):
        assert not coordinatewise().contains([1, 0], [0, 1])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            coordinatewise().contains([0, 0, 0], [1, 1, 1])

    def test_full_relation_with_no_rows(self, rng):
        rel = ConeRelation(np.zeros((0, 3)))
        for _ in range(10):
            assert rel.contains(rng.standard_normal(3), rng.standard_normal(3))


def product_decisions(rel, diffs):
    """The matmul membership test the coordinatewise path replaces."""
    with np.errstate(invalid="ignore"):
        return np.all(diffs @ rel.generator_matrix.T >= -rel.slack_tol, axis=1)


def awkward_rows(rng, d, n=400):
    """Rows near the slack boundary, with signed zeros, infs and NaNs."""
    rows = rng.standard_normal((n, d)) * rng.choice([1e-12, 1.0], (n, 1))
    mask = rng.uniform(size=rows.shape) < 0.15
    specials = [np.inf, -np.inf, np.nan, 0.0, -0.0, 1e-12, -1e-12, -1.0000001e-12]
    rows[mask] = rng.choice(specials, mask.sum())
    return rows


class TestCoordinatewiseFastPath:
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("d", [1, 2, 3, 16])
    def test_same_decisions_as_the_product(self, rng, d, sign):
        rel = ConeRelation(sign * np.eye(d))
        assert rel._coordinate_sign == sign
        rows = awkward_rows(rng, d)
        expect = product_decisions(rel, rows)
        assert np.array_equal(rel.diffs_in_cone(rows), expect)
        assert [rel.diff_in_cone(r) for r in rows] == expect.tolist()
        assert expect.any() and not expect.all()

    def test_reversed_cone_uses_it_too(self, rng):
        rel = ConeRelation(np.eye(4)).reversed()
        rows = awkward_rows(rng, 4)
        assert rel._coordinate_sign == -1
        assert np.array_equal(rel.diffs_in_cone(rows), product_decisions(rel, rows))

    def test_non_finite_rows_are_outside_from_d_2(self):
        rel = coordinatewise(2)
        rows = np.array([[np.inf, 1.0], [1.0, np.nan], [np.inf, np.inf], [1.0, 2.0]])
        assert rel.diffs_in_cone(rows).tolist() == [False, False, False, True]
        # in d = 1 the product has no zero terms, so +inf is in the cone
        assert ConeRelation(np.eye(1)).diffs_in_cone(np.array([[np.inf], [np.nan]])).tolist() == [
            True,
            False,
        ]

    @pytest.mark.parametrize(
        "matrix",
        [
            np.array([[1.0, 1.0, 0.0]]),
            np.array([[1.0, -1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.0]]),
            np.diag([1.0, 1.0, -1.0]),
        ],
        ids=["half_space", "custom", "mixed_signs"],
    )
    def test_other_cones_keep_the_product(self, rng, matrix):
        rel = ConeRelation(matrix)
        assert rel._coordinate_sign == 0
        rows = awkward_rows(rng, 3)
        expect = product_decisions(rel, rows)
        with np.errstate(invalid="ignore"):  # the product meets inf and NaN
            assert np.array_equal(rel.diffs_in_cone(rows), expect)
            assert [rel.diff_in_cone(r) for r in rows] == expect.tolist()


class TestAuditReflexive:
    def test_cone_relation_always_passes(self, rng):
        report = audit_reflexive(coordinatewise(), 1000, gaussian_point_source(2, rng))
        assert report.status == "pass"
        assert report.trials == 1000
        assert report.failures == 0
        assert report.witness is None

    def test_strict_relation_fails_everywhere(self, rng):
        rel = StrictConeRelation(np.eye(2))
        report = audit_reflexive(rel, 50, gaussian_point_source(2, rng))
        assert report.failures == report.trials == 50
        assert report.witness is not None

    def test_empty_generator_passes(self, rng):
        rel = ConeRelation(np.zeros((0, 2)))
        report = audit_reflexive(rel, 10, gaussian_point_source(2, rng))
        assert report.failures == 0

    def test_rejects_zero_samples(self, rng):
        with pytest.raises(InputError):
            audit_reflexive(coordinatewise(), 0, gaussian_point_source(2, rng))


class TestAuditTransitive:
    def test_coordinatewise(self, rng):
        rel = coordinatewise()
        report = audit_transitive(rel, 1000, chained_triple_source(rel, rng))
        assert report.failures == 0 and report.trials == 1000

    def test_half_space_cone(self, rng):
        rel = half_space()
        report = audit_transitive(rel, 1000, chained_triple_source(rel, rng))
        assert report.failures == 0

    def test_metric_ball_witness(self):
        # direct exhibit: steps of length 1 chain, but the total exceeds 1
        rel = MetricBallRelation(dimension=2, radius=1.0)
        e1 = np.array([1.0, 0.0])
        assert rel.contains([0, 0], e1) and rel.contains(e1, 2 * e1)
        assert not rel.contains([0, 0], 2 * e1)

    def test_metric_ball_relation_fails(self, rng):
        rel = MetricBallRelation(dimension=2, radius=1.0)

        def sampler():
            x = rng.standard_normal(2)
            u = rng.standard_normal(2)
            v = rng.standard_normal(2)
            u *= rng.uniform(0.6, 1.0) / np.linalg.norm(u)
            v *= rng.uniform(0.6, 1.0) / np.linalg.norm(v)
            return x, x + u, x + u + v

        report = audit_transitive(rel, 300, sampler)
        assert report.failures > 0
        assert report.witness is not None


class TestAuditCg:
    def test_coordinatewise_convexity(self, rng):
        rel = coordinatewise()
        report = audit_cg(rel, 500, [0.0, 0.5, 1.0], edge_pair_source(rel, rng))
        assert report.failures == 0
        assert report.trials == 1500

    def test_endpoint_alphas_reduce_to_given_edges(self, rng):
        rel = half_space()
        report = audit_cg(rel, 100, [0.0, 1.0], edge_pair_source(rel, rng))
        assert report.failures == 0

    def test_alpha_out_of_range(self, rng):
        with pytest.raises(InputError):
            audit_cg(coordinatewise(), 10, [0.5, 1.5], edge_pair_source(coordinatewise(), rng))


class TestAuditReport:
    def test_witness_present_exactly_when_failing(self, rng):
        rel = StrictConeRelation(np.eye(2))
        failing = audit_reflexive(rel, 20, gaussian_point_source(2, rng))
        passing = audit_reflexive(coordinatewise(), 20, gaussian_point_source(2, rng))
        assert (failing.failures > 0) == (failing.witness is not None)
        assert (passing.failures > 0) == (passing.witness is not None)
        assert failing.trials >= failing.failures
        assert passing.trials >= passing.failures

    def test_to_dict_is_json_ready(self, rng):
        import json

        rel = StrictConeRelation(np.eye(2))
        report = audit_reflexive(rel, 5, gaussian_point_source(2, rng))
        payload = json.dumps(report.to_dict())
        assert '"status": "fail"' in payload


class TestSampler:
    @pytest.mark.parametrize(
        "matrix",
        [np.eye(3), np.array([[1.0, 1.0, -0.5]]), np.array([[1.0, 0.0], [1.0, 1.0]])],
    )
    def test_elements_lie_in_cone(self, matrix, rng):
        rel = ConeRelation(matrix)
        for _ in range(200):
            v = sample_cone_element(rel, rng)
            assert np.all(matrix @ v >= -rel.slack_tol)

    def test_reversed_relation_flips_edges(self, rng):
        rel = half_space()
        rev = rel.reversed()
        for _ in range(50):
            x, y = rng.standard_normal(2), rng.standard_normal(2)
            assert rel.contains(x, y) == rev.contains(y, x)
