"""Hierarchical basis, surplus coefficients, and the Chebyshev expansion."""

import dataclasses
import functools
import itertools
import json
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qkorobov import sparsegrid
from qkorobov.analysis import corpus, corpus_function, separable_function
from qkorobov.lcu import evaluate_via_circuit
from qkorobov.sparsegrid import (
    BATCH_ROWS,
    _axis_cells,
    _level_layout,
    GridIndex,
    SurplusMap,
    chebyshev_expansion,
    enumerate_levels,
    gauss_legendre,
    grid_count,
    hat,
    index_set,
    integral_coefficient,
    surplus_coefficients,
)

PROD_QUAD_1 = lambda X: X[:, 0] * (1 - X[:, 0])
PROD_QUAD_2 = lambda X: X[:, 0] * (1 - X[:, 0]) * X[:, 1] * (1 - X[:, 1])
ZERO_1 = lambda X: np.zeros(len(X))


def reference_surplus(f, n, d):
    """Surpluses by the tensor stencil: prod_j [-1/2, 1, -1/2] at spacing 2^-l_j.

    Reads f at node + offset * spacing for all 3^d offsets of every node, in
    the key order of ``SurplusMap.entries``.
    """
    nodes = [g for level in enumerate_levels(n, d) for g in index_set(level)]
    centre = np.array([g.node() for g in nodes])
    spacing = np.array([g.spacing() for g in nodes])
    offsets = np.array(list(itertools.product((-1, 0, 1), repeat=d)), dtype=float)
    weights = np.prod(np.where(offsets == 0, 1.0, -0.5), axis=1)
    pts = centre[:, None, :] + offsets[None, :, :] * spacing[:, None, :]
    values = np.asarray(f(pts.reshape(-1, d)), dtype=float).reshape(len(nodes), -1)
    return nodes, values @ weights


def column_from_entries(entries, n, d):
    """The coefficient column of a {GridIndex: value} dict in (level, index) order.

    Levels in ``enumerate_levels`` order, each level's nodes in ``index_set``
    order; an unlisted node is NaN.
    """
    nodes = [g for level in enumerate_levels(n, d) for g in index_set(level)]
    return np.array([entries.get(g, np.nan) for g in nodes])


def two_products(d):
    """x(1-x) y(1-y) z^2(1-z) + sin(pi x) y^2(1-y) sin(pi z), cut to d axes.

    A sum of two different products: no single product of one factor per
    axis equals it for d >= 2, and no permutation of the axes leaves it
    unchanged.
    """
    first = separable_function("first", ["x(1-x)", "x(1-x)", "x^2(1-x)"][:d]).f
    second = separable_function("second", ["sin(pi x)", "x^2(1-x)", "sin(pi x)"][:d]).f
    return lambda X: first(X) + second(X)


def reference_evaluate_batch(s, points):
    """The interpolant at (m, d) points by a plain loop over levels."""
    total = np.zeros(points.shape[0])
    for level in s.levels():
        coeffs = np.array([s[g] for g in index_set(level)]).reshape(
            [2 ** (l - 1) for l in level])
        phi = np.ones(points.shape[0])
        ok = np.ones(points.shape[0], dtype=bool)
        cell = []
        for j, l in enumerate(level):
            t = points[:, j] * (2.0 ** l)
            i = 2 * np.floor(t / 2.0).astype(np.int64) + 1
            ok &= (1 <= i) & (i <= 2 ** l - 1)
            i = np.clip(i, 1, 2 ** l - 1)
            phi *= np.maximum(0.0, 1.0 - np.abs(t - i))
            cell.append((i - 1) // 2)
        total += np.where(ok, coeffs[tuple(cell)] * phi, 0.0)
    return total


def reference_evaluate_grid(s, axes):
    """The interpolant on a tensor grid by a plain loop over levels."""
    axes = [np.asarray(a, dtype=float) for a in axes]
    total = np.zeros([len(a) for a in axes])
    for level in s.levels():
        coeffs = np.array([s[g] for g in index_set(level)]).reshape(
            [2 ** (l - 1) for l in level])
        cells, phis = [], []
        for a, l in zip(axes, level):
            t = a * 2.0 ** l
            i = np.clip(2 * np.floor(t / 2.0).astype(np.int64) + 1, 1, 2 ** l - 1)
            cells.append((i - 1) // 2)
            phis.append(np.maximum(0.0, 1.0 - np.abs(t - i)))
        contrib = coeffs[np.ix_(*cells)]
        for j, phi in enumerate(phis):
            contrib = contrib * phi.reshape([-1 if k == j else 1 for k in range(s.d)])
        total += contrib
    return total


def reference_scaled_hat(g, x):
    """Product of per-coordinate hats of ``g`` at the point ``x``."""
    x = np.asarray(x, dtype=float)
    assert x.shape == (g.d,)
    value = 1.0
    for j, (l, i) in enumerate(zip(g.level, g.index)):
        value *= hat(x[j] * 2.0 ** l - i)
    return value


def reference_locate_support(level, x):
    """The level's node whose open support holds ``x``, by a scalar loop.

    None when some coordinate sits on an even node of the level (all hats
    of the level vanish there, boundary included).
    """
    index = []
    for l, xj in zip(level, np.asarray(x, dtype=float).reshape(-1)):
        t = xj * 2.0 ** l
        i = 2 * int(np.floor(t / 2.0)) + 1
        if abs(t - i) >= 1.0 or i > 2 ** l - 1:
            return None
        index.append(i)
    return GridIndex(tuple(level), tuple(index))


def reference_evaluate(s, x):
    """The interpolant at one point: located hats, summed level by level."""
    total = 0.0
    for level in s.levels():
        g = reference_locate_support(level, x)
        if g is not None:
            total += s[g] * reference_scaled_hat(g, x)
    return total


def reference_chebyshev_expansion(s, x):
    """The signed Chebyshev terms at ``x`` by a scalar loop over levels.

    One (weight, degrees, arguments) tuple per term, in the row order of
    ``chebyshev_expansion``.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    terms = []
    for level in s.levels():
        g = reference_locate_support(level, x)
        if g is None:
            continue
        v = s[g]
        u = tuple(float(xj * 2.0 ** l - i) for xj, l, i in zip(x, g.level, g.index))
        positive = [uj >= 0.0 for uj in u]  # sgn(0) := +1
        for k in itertools.product((0, 1), repeat=s.d):
            flips = sum(kj for kj, pos in zip(k, positive) if pos)
            terms.append(((-1.0) ** flips * v, k, u))
    return terms


def kernel_locate(level, x):
    """The node ``_axis_cells`` locates, or None where a hat of the level is 0."""
    index = []
    for l, xj in zip(level, np.asarray(x, dtype=float).reshape(-1)):
        cell, hat_j, _ = _axis_cells(np.array([xj]), l)
        if not hat_j[0] > 0.0:
            return None
        index.append(2 * int(cell[0]) + 1)
    return GridIndex(tuple(level), tuple(index))


def kernel_hat(g, x):
    """Hat product of ``g`` at ``x`` read through ``_axis_cells`` (0 off its cells)."""
    value = 1.0
    for l, i, xj in zip(g.level, g.index, np.asarray(x, dtype=float)):
        cell, hat_j, _ = _axis_cells(np.array([xj]), l)
        value *= hat_j[0] if 2 * cell[0] + 1 == i else 0.0
    return value


def probe_points(rng, n, d, m=400):
    """Random interior points, dyadic points up to level n + 1, and boundary points."""
    level = rng.integers(1, n + 2, size=(m, d))
    dyadic = rng.integers(0, 2 ** level + 1) / 2.0 ** level
    boundary = rng.random((m, d))
    boundary[rng.random((m, d)) < 0.3] = 0.0
    boundary[rng.random((m, d)) < 0.3] = 1.0
    return np.concatenate([rng.random((m, d)), dyadic, boundary])


class TestHat:
    def test_fixtures(self):
        assert hat(0.0) == 1.0
        assert hat(1.0) == 0.0
        assert hat(-1.0) == 0.0
        assert hat(-0.4) == pytest.approx(0.6, abs=1e-15)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.floats(-10, 10))
    def test_range_and_support(self, u):
        v = hat(u)
        assert 0.0 <= v <= 1.0
        assert (v == 0.0) == (abs(u) >= 1.0)

    def test_vectorized(self):
        np.testing.assert_allclose(hat(np.array([0.0, 0.5, 2.0])), [1.0, 0.5, 0.0])


class TestScaledHat:
    """Hat products through the location kernel and the scalar reference."""

    def test_node_value(self):
        for scaled_hat in (kernel_hat, reference_scaled_hat):
            assert scaled_hat(GridIndex((2,), (3,)), [0.75]) == pytest.approx(1.0)

    def test_half_way(self):
        # u = (0.625 - 0.75) / 0.25 = -0.5
        for scaled_hat in (kernel_hat, reference_scaled_hat):
            assert scaled_hat(GridIndex((2,), (3,)), [0.625]) == pytest.approx(0.5)

    def test_product_form(self):
        g = GridIndex((1, 1), (1, 1))
        for scaled_hat in (kernel_hat, reference_scaled_hat):
            assert scaled_hat(g, [0.5, 0.25]) == pytest.approx(0.5)


class TestGridIndex:
    def test_rejects_even_index(self):
        with pytest.raises(ValueError):
            GridIndex((2,), (2,))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            GridIndex((2,), (5,))

    def test_node_and_support(self):
        g = GridIndex((2,), (1,))
        assert g.node() == (0.25,)


class TestEnumeration:
    def test_levels_examples(self):
        assert enumerate_levels(1, 1) == [(1,)]
        assert enumerate_levels(2, 2) == [(1, 1), (1, 2), (2, 1)]
        assert len(enumerate_levels(3, 2)) == 6

    def test_levels_lexicographic(self):
        levels = enumerate_levels(4, 3)
        assert levels == sorted(levels)

    def test_index_set_examples(self):
        assert [g.index for g in index_set((1,))] == [(1,)]
        assert [g.index for g in index_set((2,))] == [(1,), (3,)]
        assert [g.index for g in index_set((2, 2))] == [(1, 1), (1, 3), (3, 1), (3, 3)]

    @pytest.mark.parametrize("level", [(-1,), (0,), (2, 0), (3, -2, 1)])
    def test_index_set_rejects_level_below_one(self, level):
        with pytest.raises(ValueError, match=r"level component -?\d+ < 1"):
            index_set(level)

    def test_index_set_cardinality(self):
        for level in [(3,), (2, 3), (1, 2, 2)]:
            expected = int(np.prod([2 ** (l - 1) for l in level]))
            assert len(index_set(level)) == expected

    def test_grid_count_fixtures(self):
        assert grid_count(3, 1) == 7
        assert grid_count(2, 2) == 5
        assert grid_count(3, 2) == 17

    def test_grid_count_d1_closed_form(self):
        for n in range(1, 13):
            assert grid_count(n, 1) == 2 ** n - 1

    def test_grid_count_is_the_level_sum(self):
        for n in range(1, 8):
            for d in range(1, 6):
                levels = enumerate_levels(n, d)
                assert grid_count(n, d) == sum(2 ** (sum(l) - d) for l in levels)

    @pytest.mark.parametrize("n, d", [(0, 1), (1, 0), (-2, 3)])
    def test_grid_count_rejects_level_below_one(self, n, d):
        with pytest.raises(ValueError, match="n and d must be >= 1"):
            grid_count(n, d)


class TestSurplusCeiling:
    """A surplus build above MAX_SURPLUS_POINTS points is refused before it starts."""

    @pytest.mark.parametrize("n, d, nodes, faces", [
        (17, 3, 17_956_863, 12_582_918),
        (20, 2, 19_922_945, 4_194_300),
        (24, 1, 16_777_215, 2),
        (30, 2, 31_138_512_897, 4_294_967_292),
    ])
    def test_refused_with_its_counts(self, n, d, nodes, faces, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("built or evaluated before the check")

        monkeypatch.setattr(sparsegrid, "enumerate_levels", refuse)
        assert nodes == grid_count(n, d) and nodes + faces > sparsegrid.MAX_SURPLUS_POINTS
        with pytest.raises(ValueError, match=rf"d={d}, n={n} evaluates f on {nodes:,} nodes "
                                             rf"\+ {faces:,} face points, above the limit"):
            surplus_coefficients(refuse, n, d)

    def test_large_n_and_d_refused_at_once(self, monkeypatch):
        monkeypatch.setattr(sparsegrid, "enumerate_levels", None)
        start = time.perf_counter()
        for n, d in [(30, 12), (40, 1000), (10 ** 6, 1)]:
            with pytest.raises(ValueError, match="above the limit of 16,777,216 points"):
                surplus_coefficients(None, n, d)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("n, d", [(16, 3), (19, 2), (23, 1), (8, 4)])
    def test_largest_builds_pass_the_check(self, n, d):
        sparsegrid._check_surplus_size(n, d)  # d=3, n=16: 7.9 M nodes


class TestSurplusCoefficients:
    def test_quadratic_fixture(self):
        s = surplus_coefficients(PROD_QUAD_1, 2, 1)
        # stencil by hand: f(1/2); f(1/4) - f(1/2)/2; f(3/4) - f(1/2)/2
        assert s[GridIndex((1,), (1,))] == pytest.approx(0.25, abs=1e-12)
        assert s[GridIndex((2,), (1,))] == pytest.approx(3 / 16 - 1 / 8, abs=1e-12)
        assert s[GridIndex((2,), (3,))] == pytest.approx(1 / 16, abs=1e-12)

    def test_zero_function(self):
        s = surplus_coefficients(ZERO_1, 3, 1)
        assert len(s) == 7
        assert all(v == 0.0 for _, v in s.items())

    def test_d2_single_level(self):
        s = surplus_coefficients(PROD_QUAD_2, 1, 2)
        assert len(s) == 1
        assert s[GridIndex((1, 1), (1, 1))] == pytest.approx(1 / 16, abs=1e-12)

    def test_key_set_matches_enumeration(self):
        s = surplus_coefficients(PROD_QUAD_2, 3, 2)
        expected = {
            g for level in enumerate_levels(3, 2) for g in index_set(level)
        }
        assert set(dict(s.items())) == expected
        assert len(s) == grid_count(3, 2)

    def test_non_finite_propagation(self):
        def bad(X):
            out = PROD_QUAD_1(X).copy()
            out[np.isclose(X[:, 0], 0.75)] = np.nan
            return out

        with pytest.raises(ValueError, match="non-finite"):
            surplus_coefficients(bad, 2, 1)

    @pytest.mark.parametrize("wrong, shape", [
        (lambda X: PROD_QUAD_2(X)[:-1], r"\(44,\)"),
        (lambda X: np.append(PROD_QUAD_2(X), [0.0, 0.0, 0.0]), r"\(48,\)"),
        (lambda X: np.stack([PROD_QUAD_2(X)] * 2, axis=1), r"\(45, 2\)"),
        (lambda X: 0.0, r"\(\)"),
    ], ids=["one-short", "three-over", "two-columns", "scalar"])
    def test_one_value_per_point_required(self, wrong, shape):
        # 17 nodes and 4 face grids of 7 points at n=3, d=2
        with pytest.raises(ValueError, match=rf"f returned shape {shape} for 45 points; "
                                             "it must return one value per point"):
            surplus_coefficients(wrong, 3, 2)

    def test_column_of_values_accepted(self):
        s = surplus_coefficients(lambda X: PROD_QUAD_2(X)[:, None], 3, 2)
        assert np.array_equal(s.coefficients, surplus_coefficients(PROD_QUAD_2, 3, 2).coefficients)

    def test_one_call_on_nodes_and_faces(self):
        # N nodes plus the 2d face sparse grids of dimension d - 1
        for n, d, faces in ((8, 3, 6 * 1793), (6, 3, 6 * 321), (4, 1, 2)):
            calls = []
            f = corpus_function("prod-quad", d).f
            s = surplus_coefficients(lambda X: calls.append(len(X)) or f(X), n, d)
            assert calls == [len(s) + faces]
            assert faces == 2 * d * (grid_count(n, d - 1) if d > 1 else 1)


class TestBoundaryCheck:
    def test_affine_function_rejected(self):
        # the interpolant of 1 + x would be 0.0 at the node 0.5, where f = 1.5
        with pytest.raises(ValueError, match="does not vanish on the boundary"):
            surplus_coefficients(lambda X: 1 + X[:, 0], 2, 1)

    def test_single_face_rejected(self):
        # zero on three faces of the square, x_1 (1 - x_1) on the face x_2 = 1
        f = lambda X: X[:, 0] * (1 - X[:, 0]) * X[:, 1]
        with pytest.raises(ValueError, match=r"\[0\.\d+, 1\.0\]"):
            surplus_coefficients(f, 3, 2)

    def test_rounding_residue_accepted(self):
        # sin(pi * 1) = 1.2e-16 is below the tolerance
        for d in (1, 2):
            s = surplus_coefficients(corpus_function("prod-sin", d).f, 4, d)
            assert len(s) == grid_count(4, d)

    def test_tolerance_scales_with_f(self):
        big = lambda X: 1e6 * PROD_QUAD_1(X) + 1e-7 * X[:, 0]
        surplus_coefficients(big, 3, 1)  # 1e-7 <= 1e-12 * max |f| = 2.5e-7
        with pytest.raises(ValueError, match="boundary"):
            surplus_coefficients(lambda X: PROD_QUAD_1(X) + 1e-11 * X[:, 0], 3, 1)


class TestReferenceSurplus:
    """The unidirectional build against the tensor stencil."""

    @pytest.mark.parametrize("d, n_max", [(1, 6), (2, 6), (3, 6)])
    def test_prod_quad_exact(self, d, n_max):
        f = corpus_function("prod-quad", d).f
        for n in range(1, n_max + 1):
            nodes, want = reference_surplus(f, n, d)
            s = surplus_coefficients(f, n, d)
            assert list(s.entries) == nodes
            np.testing.assert_array_equal(list(s.entries.values()), want)

    def test_asym_cubic_exact(self):
        f = corpus_function("asym-cubic", 1).f
        for n in range(1, 9):
            _, want = reference_surplus(f, n, 1)
            got = list(surplus_coefficients(f, n, 1).entries.values())
            np.testing.assert_array_equal(got, want)

    def test_prod_sin_rounding_only(self):
        for d, n in ((1, 8), (2, 6)):
            f = corpus_function("prod-sin", d).f
            _, want = reference_surplus(f, n, d)
            got = np.array(list(surplus_coefficients(f, n, d).entries.values()))
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("d, n_max", [(1, 6), (2, 6), (3, 5)])
    def test_two_products_rounding_only(self, d, n_max):
        f = two_products(d)
        for n in range(1, n_max + 1):
            nodes, want = reference_surplus(f, n, d)
            s = surplus_coefficients(f, n, d)
            assert list(s.entries) == nodes
            scale = np.abs(f(np.array([g.node() for g in nodes]))).max()
            assert np.abs(s.coefficients - want).max() <= 1e-14 * scale

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        st.integers(1, 3).flatmap(lambda d: st.tuples(
            st.just(d),
            st.integers(1, 5),
            st.lists(st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3),
                              min_size=d, max_size=d),
                     min_size=1, max_size=2),
        ))
    )
    def test_random_separable_polynomials(self, case):
        # one or two products prod_j x_j (1 - x_j) (a_j + b_j x_j + c_j x_j^2), summed
        d, n, products = case

        def f(X):
            total = np.zeros(len(X))
            for factors in products:
                out = np.ones(len(X))
                for j, (a, b, c) in enumerate(factors):
                    t = X[:, j]
                    out = out * (t * (1 - t) * (a + b * t + c * t * t))
                total = total + out
            return total

        nodes, want = reference_surplus(f, n, d)
        got = np.array(list(surplus_coefficients(f, n, d).entries.values()))
        scale = np.abs(f(np.array([g.node() for g in nodes]))).max()
        assert np.abs(got - want).max() <= 1e-14 * scale


class TestIntegralOracle:
    def test_quadratic_level2(self):
        # integral form: int -2^-3 phi_{2,1} * (-2) = 2^-2 * (tent area 1/4) = 1/16
        dd = lambda X: -2.0 * np.ones(len(X))
        v = integral_coefficient(dd, GridIndex((2,), (1,)))
        assert v == pytest.approx(1 / 16, abs=1e-12)

    def test_matches_stencil_d1(self):
        f = lambda X: np.sin(np.pi * X[:, 0])
        dd = lambda X: -np.pi ** 2 * np.sin(np.pi * X[:, 0])
        s = surplus_coefficients(f, 3, 1)
        for g, v in s.items():
            assert integral_coefficient(dd, g) == pytest.approx(v, abs=1e-10)

    def test_matches_stencil_d2(self):
        dd = corpus_function("prod-quad", 2).mixed_derivative  # (-2)(-2) = 4, one factor per axis
        s = surplus_coefficients(PROD_QUAD_2, 3, 2)
        for g, v in s.items():
            assert integral_coefficient(dd, g) == pytest.approx(v, abs=1e-10)


class TestGaussLegendre:
    @pytest.mark.parametrize("order", [1, 8, 24, 32])
    def test_equals_leggauss_and_is_read_only(self, order):
        nodes, weights = gauss_legendre(order)
        want_nodes, want_weights = np.polynomial.legendre.leggauss(order)
        np.testing.assert_array_equal(nodes, want_nodes)
        np.testing.assert_array_equal(weights, want_weights)
        with pytest.raises(ValueError, match="read-only"):
            nodes[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            weights[0] = 0.0
        assert gauss_legendre(order)[0] is nodes  # computed once per order


class TestInterpolant:
    def test_node_value(self):
        s = surplus_coefficients(PROD_QUAD_1, 2, 1)
        assert s.evaluate([0.25]) == pytest.approx(3 / 16, abs=1e-14)

    def test_hand_value_between_nodes(self):
        s = surplus_coefficients(PROD_QUAD_1, 2, 1)
        # (1/4)(1/4) + (1/16)(1/2) by hand
        assert s.evaluate([0.125]) == pytest.approx(3 / 32, abs=1e-14)

    def test_boundary_vanishes(self):
        s = surplus_coefficients(PROD_QUAD_2, 3, 2)
        for x in ([0.0, 0.3], [1.0, 0.5], [0.25, 0.0], [0.6, 1.0]):
            assert s.evaluate(x) == 0.0

    def test_node_interpolation_exact(self):
        for f, n, d in ((PROD_QUAD_1, 4, 1), (PROD_QUAD_2, 4, 2)):
            s = surplus_coefficients(f, n, d)
            for g in dict(s.items()):
                x = np.array(g.node())
                assert s.evaluate(x) == pytest.approx(float(f(x[None, :])[0]), abs=1e-12)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(17)
        s = surplus_coefficients(PROD_QUAD_2, 4, 2)
        pts = rng.random((100, 2))
        batch = s.evaluate_batch(pts)
        single = np.array([s.evaluate(p) for p in pts])
        np.testing.assert_allclose(batch, single, atol=1e-15)

    @pytest.mark.parametrize("d, n", [(1, 6), (2, 5), (3, 4)])
    def test_batch_equals_level_loop(self, d, n):
        rng = np.random.default_rng(d * 10 + n)
        s = surplus_coefficients(corpus_function("prod-quad", d).f, n, d)
        pts = probe_points(rng, n, d)
        sin = surplus_coefficients(lambda X: np.prod(np.sin(np.pi * X), axis=1), n, d)
        for smap in (s, sin):
            np.testing.assert_array_equal(
                smap.evaluate_batch(pts), reference_evaluate_batch(smap, pts))

    def test_batch_across_row_blocks(self):
        rng = np.random.default_rng(3)
        s = surplus_coefficients(corpus_function("prod-quad", 2).f, 5, 2)
        pts = rng.random((2 * BATCH_ROWS + 37, 2))
        pts[BATCH_ROWS - 1] = (1.0, 0.5)
        got = s.evaluate_batch(pts)
        np.testing.assert_array_equal(got, reference_evaluate_batch(s, pts))
        assert got[BATCH_ROWS - 1] == 0.0

    @pytest.mark.parametrize("rows", [1, 5, BATCH_ROWS])
    @pytest.mark.parametrize("kind", ["quad", "sin", "aniso"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_batch_in_any_block_size(self, monkeypatch, rows, kind, d):
        s = corpus_map(kind, 4, d)
        pts = np.random.default_rng(d).random((3 * rows + 2, d))
        # a coordinate at 1.0 inside every block (every other row for one-row blocks)
        for k in range(rows // 2, len(pts), max(rows, 2)):
            pts[k, k % d] = 1.0
        want = reference_evaluate_batch(s, pts)
        monkeypatch.setattr(sparsegrid, "BATCH_ROWS", rows)
        got = s.evaluate_batch(pts)
        assert exact(got) == exact(want)
        assert (got[(pts == 1.0).any(axis=1)] == 0.0).all()

    @pytest.mark.parametrize("kind", ["quad", "two-products", "aniso"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_batch_rows_on_the_boundary_are_positive_zero(self, kind, d):
        # no mask: a row with a coordinate at 0 or 1 sums +-0.0 terms onto +0.0
        # (negative surpluses, which give the -0.0 terms, from d = 2 on)
        s = corpus_map(kind, 4, d)
        rng = np.random.default_rng(40 + d)
        pts = rng.random((64, d))
        pts[np.arange(0, 64, 2), rng.integers(0, d, 32)] = 1.0
        pts[1::4, 0] = 0.0
        pts[-1] = 1.0
        pts[-2] = 0.0
        got = s.evaluate_batch(pts)
        assert exact(got) == exact(reference_evaluate_batch(s, pts))
        boundary = ((pts == 0.0) | (pts == 1.0)).any(axis=1)
        assert exact(got[boundary]) == ["0x0.0p+0"] * int(boundary.sum())

    def test_batch_memory_is_bounded(self):
        # one cell table of BATCH_ROWS rows at a time, freed before the next block's
        s = corpus_map("quad", 8, 3)
        pts = np.random.default_rng(0).random((65536, 3))
        s.evaluate_batch(pts)
        tracemalloc.start()
        try:
            s.evaluate_batch(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 2 ** 20

    def test_batch_handles_grid_points(self):
        s = surplus_coefficients(PROD_QUAD_1, 3, 1)
        pts = np.linspace(0.0, 1.0, 17)[:, None]
        batch = s.evaluate_batch(pts)
        single = np.array([s.evaluate(p) for p in pts])
        np.testing.assert_allclose(batch, single, atol=1e-15)


def sin_product(X):
    return np.prod(np.sin(np.pi * X), axis=1)


def aniso(d):
    """A different factor on each axis: no permutation of the axes leaves it unchanged."""
    return separable_function("aniso", ["x(1-x)", "sin(pi x)", "x^2(1-x)"][:d])


KINDS = {
    "quad": lambda d: corpus_function("prod-quad", d).f,
    "sin": lambda d: sin_product,
    "aniso": lambda d: aniso(d).f,
    "two-products": two_products,
}


@functools.lru_cache(maxsize=None)
def corpus_map(kind, n, d):
    return surplus_coefficients(KINDS[kind](d), n, d)


def coeff_scale(s):
    return sum(abs(v) for _, v in s.items())


class TestGrid:
    """The axis-by-axis ``evaluate_grid`` against the per-level loop."""

    @pytest.mark.parametrize("d, n_max", [(1, 6), (2, 6), (3, 6)])
    def test_matches_level_loop(self, d, n_max):
        rng = np.random.default_rng(d)
        for n in range(1, n_max + 1):
            size = 9 if d == 3 else 33
            random = [rng.random(size) for _ in range(d)]
            dyadic = [rng.integers(0, 2 ** (n + 1) + 1, size) / 2.0 ** (n + 1) for _ in range(d)]
            ends = [np.concatenate([[0.0, 1.0], rng.random(size - 2)]) for _ in range(d)]
            mixed = [random[0], dyadic[1 % d], ends[2 % d]][:d]
            for kind in ("quad", "sin"):
                s = corpus_map(kind, n, d)
                for axes in (random, dyadic, ends, mixed):
                    got = s.evaluate_grid(axes)
                    want = reference_evaluate_grid(s, axes)
                    assert got.shape == want.shape
                    assert np.abs(got - want).max() <= 1e-14 * coeff_scale(s)

    def test_boundary_axes_give_zero(self):
        s = corpus_map("sin", 4, 2)
        grid = s.evaluate_grid([[0.0, 0.3, 1.0], [1.0, 0.0]])
        np.testing.assert_array_equal(grid, np.zeros((3, 2)))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_row_blocks_equal_the_whole_grid(self, d, monkeypatch):
        # any slice of rows reads the same values, through the reader or
        # evaluate_grid, and evaluate_grid does not depend on its block size
        s = corpus_map("aniso", 4, d)
        axes = [np.linspace(0.0, 1.0, 11 + 4 * j) for j in range(d)]
        whole = s.evaluate_grid(axes)
        inner = whole[0].size
        read = s.grid_rows(axes)
        for start, stop in ((0, 11), (3, 4), (5, 11), (2, 2)):
            want = whole[start:stop].reshape(stop - start, inner)
            out = np.empty((stop - start, inner))
            assert np.array_equal(read(slice(start, stop), out), want)
            assert s.evaluate_grid(axes, slice(start, stop), out, read) is out
            assert np.array_equal(out, want)
            assert np.array_equal(s.evaluate_grid(axes, slice(start, stop)), want)
        monkeypatch.setattr(sparsegrid, "GRID_BLOCK_VALUES", 7)
        assert np.array_equal(s.evaluate_grid(axes), whole)

    def test_axis_must_be_one_dimensional(self):
        # a (2, 2) axis is not read as four coordinates
        s = corpus_map("quad", 3, 2)
        with pytest.raises(ValueError, match=r"^axis 1 has shape \(2, 2\); each axis must be 1-D"):
            s.evaluate_grid([[0.5], np.full((2, 2), 0.25)])
        with pytest.raises(ValueError, match=r"^axis 0 has shape \(\)"):
            s.evaluate_grid([0.5, [0.25]])


# k / 1001 lies inside (0, 1) and, 1001 being odd, on no grid line of any
# level, so every level of a map supports it
INTERIOR = st.integers(1, 1000).map(lambda k: k / 1001)


def coordinates(n):
    """Random, dyadic (levels up to n + 1), boundary and interior coordinates."""
    dyadic = st.integers(1, n + 1).flatmap(
        lambda level: st.integers(0, 2 ** level).map(lambda k: k / 2.0 ** level))
    return st.one_of(st.floats(0.0, 1.0), dyadic, st.sampled_from([0.0, 1.0]), INTERIOR)


def agreement_cases(d_max, n_max):
    """(kind, d, n) and 1-4 points of mixed coordinates, then one interior point.

    The interior point's coordinates differ from each other, so an axis
    slip moves its value on an anisotropic map.
    """
    return st.tuples(
        st.sampled_from(sorted(KINDS)), st.integers(1, d_max), st.integers(1, n_max),
    ).flatmap(lambda c: st.tuples(
        st.just(c),
        st.tuples(
            st.lists(st.lists(coordinates(c[2]), min_size=c[1], max_size=c[1]),
                     min_size=1, max_size=4),
            st.lists(INTERIOR, min_size=c[1], max_size=c[1], unique=True),
        ).map(lambda p: p[0] + [p[1]]),
    ))


OUT_OF_DOMAIN = st.one_of(
    st.floats(max_value=-1e-300), st.floats(min_value=1.0, exclude_min=True),
    st.sampled_from([np.nan, np.inf, -np.inf]),
)


class TestEvaluatorsAgree:
    """Scalar, batch, grid and circuit values on one point set."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(agreement_cases(3, 5))
    def test_classical_evaluators(self, case):
        (kind, d, n), points = case
        s = corpus_map(kind, n, d)
        pts = np.array(points)
        tol = 1e-14 * coeff_scale(s)
        scalar = np.array([s.evaluate(x) for x in pts])
        np.testing.assert_allclose(s.evaluate_batch(pts), scalar, rtol=0, atol=tol)
        for x, value in zip(pts, scalar):
            grid = s.evaluate_grid([[c] for c in x])
            assert abs(grid.item() - value) <= tol
        # the full grid over the points' coordinates holds every point
        grid = s.evaluate_grid(pts.T)
        diagonal = grid[tuple(np.arange(len(pts)) for _ in range(d))]
        np.testing.assert_allclose(diagonal, scalar, rtol=0, atol=tol)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(agreement_cases(3, 5))
    def test_circuit(self, case):
        (kind, d, n), points = case
        s = corpus_map(kind, n, d)
        for x in np.array(points):
            value, _ = evaluate_via_circuit(s, x)
            assert abs(value - s.evaluate(x)) <= 1e-12 * max(1.0, coeff_scale(s))

    @pytest.mark.parametrize("d", [2, 3])
    def test_circuit_anisotropic(self, d):
        # interior points of a map with a different factor per axis, where
        # an axis-order slip anywhere from point to plan moves the value
        rng = np.random.default_rng(d)
        for n in range(1, 6):
            s = corpus_map("aniso", n, d)
            for x in rng.random((4, d)):
                value, _ = evaluate_via_circuit(s, x)
                assert abs(value - s.evaluate(x)) <= 1e-12 * max(1.0, coeff_scale(s))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(1, 2), st.integers(0, 1), coordinates(3), OUT_OF_DOMAIN)
    def test_out_of_domain_rejected(self, d, j, inside, outside):
        s = corpus_map("quad", 3, d)
        x = np.full(d, inside)
        x[j % d] = outside
        entries = (
            lambda: s.evaluate(x),
            lambda: s.evaluate_batch(x[None, :]),
            lambda: s.evaluate_grid([[c] for c in x]),
            lambda: evaluate_via_circuit(s, x),
        )
        for entry in entries:
            with pytest.raises(ValueError, match=r"is not a point of \[0,1\]\^d"):
                entry()


OUTSIDE = [(-0.5, 0.3), (np.nan, 0.3), (1.5, 0.3), (0.3, np.inf), (0.2, -1e-300)]


class TestDomainPolicy:
    """Every classical evaluator rejects the same inputs with the same error."""

    ENTRY_POINTS = {
        "evaluate": lambda s, x: s.evaluate(x),
        "evaluate_batch": lambda s, x: s.evaluate_batch(np.array([[0.5, 0.5], x])),
        "evaluate_grid": lambda s, x: s.evaluate_grid([[0.5, x[0]], [x[1]]]),
        "chebyshev_expansion": lambda s, x: chebyshev_expansion(s, x),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("x", OUTSIDE)
    def test_rejected(self, entry, x):
        s = surplus_coefficients(PROD_QUAD_2, 3, 2)
        with pytest.raises(ValueError, match=r"is not a point of \[0,1\]\^d"):
            self.ENTRY_POINTS[entry](s, np.array(x))

    def test_names_first_bad_row(self):
        s = surplus_coefficients(PROD_QUAD_2, 3, 2)
        pts = np.array([[0.5, 0.5], [0.2, 0.2], [1.5, 0.0], [-1.0, 0.0]])
        with pytest.raises(ValueError, match=r"^row 2 \(\[1\.5, 0\.0\]\)"):
            s.evaluate_batch(pts)
        with pytest.raises(ValueError, match=r"^axis 1 entry 1 "):
            s.evaluate_grid([[0.5], [0.25, np.nan]])

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_closed_domain_accepted(self, entry):
        s = surplus_coefficients(PROD_QUAD_2, 3, 2)
        for x in ((0.0, 0.3), (1.0, 1.0), (0.5, 0.25)):
            self.ENTRY_POINTS[entry](s, np.array(x))


class TestLocateSupport:
    """Cell location through the kernel and the scalar reference."""

    LOCATE = (kernel_locate, reference_locate_support)

    def test_inside_support(self):
        for locate_support in self.LOCATE:
            g = locate_support((2,), [0.3])
            assert g is not None and g.index == (1,)

    def test_even_node_returns_none(self):
        for locate_support in self.LOCATE:
            assert locate_support((2,), [0.5]) is None

    def test_level_one_covers_interior(self):
        for locate_support in self.LOCATE:
            g = locate_support((1, 1), [0.3, 0.7])
            assert g is not None and g.index == (1, 1)

    def test_boundary_returns_none(self):
        for locate_support in self.LOCATE:
            assert locate_support((2,), [0.0]) is None
            assert locate_support((2,), [1.0]) is None

    def test_unique_and_consistent(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            level = tuple(int(l) for l in rng.integers(1, 5, size=2))
            x = rng.random(2)
            g = kernel_locate(level, x)
            assert g == reference_locate_support(level, x)
            supported = [
                cand for cand in index_set(level) if reference_scaled_hat(cand, x) > 0.0
            ]
            if g is None:
                assert not supported
            else:
                assert supported == [g]


def corpus_probe(n, d, seed):
    """``probe_points`` plus coordinates at 1e-18 and 1 - 1e-16 in random places."""
    rng = np.random.default_rng(seed)
    pts = probe_points(rng, n, d, m=40)
    pts[rng.random(pts.shape) < 0.2] = 1e-18
    pts[rng.random(pts.shape) < 0.2] = 1.0 - 1e-16
    return pts


SMALL_CORPUS = [fn for fn in corpus() if fn.d <= 3]


def exact(values):
    """Floats as hex strings: equal only bit for bit, sign of zero included."""
    return [float(v).hex() for v in values]


class TestOneLocationKernel:
    """``evaluate`` and ``chebyshev_expansion`` against the scalar loops, bit for bit."""

    @pytest.mark.parametrize("fn", SMALL_CORPUS, ids=lambda fn: f"{fn.name}-d{fn.d}")
    def test_evaluate_is_batch_row(self, fn):
        for n in range(1, 6):
            s = surplus_coefficients(fn.f, n, fn.d)
            pts = corpus_probe(n, fn.d, seed=n)
            scalar = np.array([s.evaluate(x) for x in pts])
            batch = s.evaluate_batch(pts)
            np.testing.assert_array_equal(scalar, batch)
            np.testing.assert_array_equal(np.signbit(scalar), np.signbit(batch))
            assert exact(scalar) == exact(reference_evaluate(s, x) for x in pts)

    @pytest.mark.parametrize("fn", SMALL_CORPUS + [aniso(2), aniso(3)],
                             ids=lambda fn: f"{fn.name}-d{fn.d}")
    def test_expansion_equals_scalar_loop(self, fn):
        for n in range(1, 6):
            s = surplus_coefficients(fn.f, n, fn.d)
            for x in corpus_probe(n, fn.d, seed=10 + n):
                got = chebyshev_expansion(s, x)
                want = reference_chebyshev_expansion(s, x)
                assert got.dtype.fields["weight"][0] == np.float64
                assert got.dtype.fields["degrees"][0] == np.dtype((np.int8, (fn.d,)))
                assert got.dtype.fields["arguments"][0] == np.dtype((np.float64, (fn.d,)))
                assert len(got) == len(want)
                for a, (weight, degrees, arguments) in zip(got, want):
                    assert exact([a.weight]) == exact([weight])
                    assert exact(a.arguments) == exact(arguments)
                    assert tuple(a.degrees.tolist()) == degrees


class TestChebyshevExpansion:
    def test_sign_rule_negative_u(self):
        s = surplus_coefficients(PROD_QUAD_1, 1, 1)
        v = s[GridIndex((1,), (1,))]
        terms = chebyshev_expansion(s, [0.3])  # u = -0.4 < 0
        assert sorted(zip(map(tuple, terms.degrees.tolist()), terms.weight.tolist())) == [
            ((0,), v), ((1,), v)]
        total = sum(t.weight * np.prod([u ** k for u, k in zip(t.arguments, t.degrees)])
                    for t in terms)
        assert total == pytest.approx(0.6 * v, abs=1e-15)

    def test_sign_rule_positive_u(self):
        s = surplus_coefficients(PROD_QUAD_1, 1, 1)
        v = s[GridIndex((1,), (1,))]
        terms = chebyshev_expansion(s, [0.7])  # u = +0.4 > 0
        assert sorted(zip(map(tuple, terms.degrees.tolist()), terms.weight.tolist())) == [
            ((0,), v), ((1,), -v)]

    def test_node_point_sign_convention_irrelevant(self):
        s = surplus_coefficients(PROD_QUAD_1, 2, 1)
        terms = chebyshev_expansion(s, [0.5])
        value = sum(
            t.weight * np.prod([u ** k for u, k in zip(t.arguments, t.degrees)])
            for t in terms
        )
        # P_1(0) = 0 makes the degree-1 term vanish either way
        assert value == pytest.approx(s.evaluate([0.5]), abs=1e-15)

    def test_term_count_generic_point(self):
        for d, n in itertools.product((1, 2), (1, 2, 3, 4)):
            f = PROD_QUAD_1 if d == 1 else PROD_QUAD_2
            s = surplus_coefficients(f, n, d)
            x = np.full(d, 1 / 3)
            terms = chebyshev_expansion(s, x)
            assert len(terms) == 2 ** d * len(enumerate_levels(n, d))

    def test_consistency_with_interpolant(self):
        rng = np.random.default_rng(99)
        for d, n in itertools.product((1, 2), (1, 2, 3, 4)):
            f = PROD_QUAD_1 if d == 1 else PROD_QUAD_2
            s = surplus_coefficients(f, n, d)
            for x in rng.random((100, d)):
                total = sum(
                    t.weight
                    * np.prod([u ** k for u, k in zip(t.arguments, t.degrees)])
                    for t in chebyshev_expansion(s, x)
                )
                assert total == pytest.approx(s.evaluate(x), abs=1e-14)

    def test_arguments_inside_closed_interval(self):
        s = surplus_coefficients(PROD_QUAD_2, 3, 2)
        for x in np.random.default_rng(1).random((50, 2)):
            for t in chebyshev_expansion(s, x):
                assert all(abs(u) < 1.0 for u in t.arguments)


class TestJsonRoundTrip:
    def test_exact_round_trip(self):
        s = surplus_coefficients(lambda X: np.sin(np.pi * X[:, 0]), 4, 1)
        text = s.dumps()
        back = SurplusMap.loads(text)
        assert back.d == s.d and back.n == s.n
        for g, v in s.items():
            assert back[g] == v  # exact doubles via repr round trip

    @pytest.mark.parametrize("bad", ["Infinity", "-Infinity", "NaN"])
    def test_non_finite_coefficient_rejected(self, bad):
        s = surplus_coefficients(PROD_QUAD_1, 2, 1)
        text = s.dumps().replace('"value": 0.0625', f'"value": {bad}', 1)
        assert bad in text
        with pytest.raises(ValueError, match=r"level \[2\] index \[1\] is .*must be finite"):
            SurplusMap.loads(text)

    def test_non_finite_coefficient_rejected_at_construction(self):
        entries = dict(surplus_coefficients(PROD_QUAD_2, 2, 2).items())
        entries[GridIndex((2, 1), (3, 1))] = float("inf")
        with pytest.raises(ValueError, match=r"level \[2, 1\] index \[3, 1\] is inf"):
            SurplusMap(2, 2, column_from_entries(entries, 2, 2))

    def test_schema(self):
        s = surplus_coefficients(PROD_QUAD_2, 1, 2)
        doc = json.loads(s.dumps())
        assert doc["d"] == 2 and doc["n"] == 1
        assert doc["entries"] == [{"level": [1, 1], "index": [1, 1], "value": 0.0625}]

    def _doc(self):
        return json.loads(surplus_coefficients(PROD_QUAD_2, 2, 2).dumps())

    def test_duplicated_node_rejected(self):
        doc = self._doc()
        doc["entries"].append(dict(doc["entries"][1]))  # N + 1 entries, N nodes
        with pytest.raises(ValueError, match=r"node level \[1, 2\] index \[1, 1\] appears twice"):
            SurplusMap.from_json_dict(doc)

    def test_node_outside_index_set_rejected(self):
        doc = self._doc()
        doc["entries"][1].update(level=[3, 1], index=[1, 1])  # still N entries
        with pytest.raises(ValueError, match=r"node level \[3, 1\] index \[1, 1\] is not in "
                                             r"the level-2 index set"):
            SurplusMap.from_json_dict(doc)

    @pytest.mark.parametrize("row, change, message", [
        (1, dict(level=[1, 2, 1]), r"level and index dimensions differ"),
        (2, dict(level=[1, 1, 1], index=[1, 1, 1]),
         r"node level \[1, 1, 1\] index \[1, 1, 1\] is not in the level-2 index set "
         r"of dimension 2"),
        (1, dict(level=[1, 0]), r"level component 0 < 1"),
        (3, dict(index=[2, 1]), r"index 2 invalid for level 2 \(odd, in \[1, 2\^l-1\]\)"),
        (3, dict(index=[5, 1]), r"index 5 invalid for level 2"),
        (0, dict(index=[-1, 1]), r"index -1 invalid for level 1"),
    ])
    def test_invalid_entry_rejected(self, row, change, message):
        doc = self._doc()
        doc["entries"][row].update(change)
        with pytest.raises(ValueError, match=message):
            SurplusMap.from_json_dict(doc)

    def test_missing_entry_rejected(self):
        doc = self._doc()
        del doc["entries"][2]
        with pytest.raises(ValueError, match=r"4 entries, but the level-2 index set holds 5"):
            SurplusMap.from_json_dict(doc)

    def test_entry_order_is_free(self):
        s = surplus_coefficients(PROD_QUAD_2, 4, 2)
        doc = s.to_json_dict()
        doc["entries"].reverse()
        back = SurplusMap.from_json_dict(doc)
        assert list(back.items()) == list(s.items())


class TestReadOnlyMap:
    """One checked constructor; the stored column cannot be changed afterwards."""

    def _column(self):
        return column_from_entries(surplus_coefficients(PROD_QUAD_2, 3, 2).entries, 3, 2)

    def test_writing_through_level_values_raises(self):
        s = surplus_coefficients(PROD_QUAD_2, 3, 2)
        before = s.evaluate([0.3, 0.6])
        for level in s.levels():
            with pytest.raises(ValueError, match="read-only"):
                s.level_values(level)[0] = np.nan
        for smap in (s, SurplusMap.loads(s.dumps())):
            with pytest.raises(ValueError, match="read-only"):
                smap._level_arrays[1, 1][0, 0] = np.nan
        assert s.evaluate([0.3, 0.6]) == before

    def test_fields_cannot_be_assigned(self):
        s = surplus_coefficients(PROD_QUAD_2, 3, 2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.n = 4
        with pytest.raises(dataclasses.FrozenInstanceError):
            s._level_arrays = {}
        with pytest.raises(TypeError):
            s._level_arrays[1, 1] = np.zeros((1, 1))
        assert (s.d, s.n, len(s)) == (2, 3, grid_count(3, 2))

    def test_arrays_are_taken_over_without_a_copy(self):
        given = self._column()
        s = SurplusMap(2, 3, given)
        assert s.coefficients is given
        assert not given.flags.writeable
        for level in s.levels():
            assert np.shares_memory(s._level_arrays[level], given)

    def test_base_of_a_view_is_frozen_too(self):
        s = surplus_coefficients(PROD_QUAD_1, 2, 1)
        buffer = np.concatenate([[np.nan], s.coefficients])
        smap = SurplusMap(1, 2, buffer[1:])
        assert smap.coefficients.base is buffer  # taken over, not copied
        with pytest.raises(ValueError, match="read-only"):
            buffer[0] = np.nan
        assert smap.evaluate([0.3]) == s.evaluate([0.3])

    def test_one_constructor(self):
        assert not hasattr(SurplusMap, "_from_arrays")
        with pytest.raises(TypeError):
            SurplusMap(2, 3)

    def test_level_set_checked(self):
        column = self._column()
        for wrong in (column[:-1], np.append(column, 0.0)):
            with pytest.raises(ValueError, match=rf"^{len(wrong)} entries, but the level-3 index "
                                                 r"set holds 17$"):
                SurplusMap(2, 3, wrong)

    def test_shape_checked(self):
        column = self._column()
        for wrong in (column[:, None], column[None, :]):
            with pytest.raises(ValueError, match=r"^2-D array of 17 entries, but the level-3 "
                                                 r"index set holds 17$"):
                SurplusMap(2, 3, wrong)


class TestLevelArrayStorage:
    """The column is the only storage; the level arrays and every view read it."""

    def test_build_constructs_no_grid_index(self, monkeypatch):
        built = []
        trusted, post_init = GridIndex._trusted.__func__, GridIndex.__post_init__
        monkeypatch.setattr(GridIndex, "_trusted", classmethod(
            lambda cls, *a: built.append(a) or trusted(cls, *a)))
        monkeypatch.setattr(GridIndex, "__post_init__", lambda g: built.append(g) or post_init(g))
        s = surplus_coefficients(corpus_function("prod-quad", 3).f, 5, 3)
        assert built == []
        assert set(vars(s)) == {"d", "n", "coefficients", "_level_arrays"}
        monkeypatch.undo()
        for other in (SurplusMap(3, 5, column_from_entries(s.entries, 5, 3)),
                      SurplusMap.loads(s.dumps())):
            assert set(vars(other)) == {"d", "n", "coefficients", "_level_arrays"}

    @pytest.mark.parametrize("fn", SMALL_CORPUS, ids=lambda fn: f"{fn.name}-d{fn.d}")
    def test_views_read_the_level_arrays(self, fn):
        for n in range(1, 7):
            s = surplus_coefficients(fn.f, n, fn.d)
            arrays = s._level_arrays
            assert list(arrays) == s.levels()
            assert len(s) == grid_count(n, fn.d)
            for other in (SurplusMap(fn.d, n, column_from_entries(s.entries, n, fn.d)),
                          SurplusMap.loads(s.dumps())):
                assert list(other._level_arrays) == s.levels()
                for level in s.levels():
                    np.testing.assert_array_equal(other._level_arrays[level], arrays[level])
            pairs = list(s.items())
            flat = np.concatenate([arrays[level].reshape(-1) for level in s.levels()])
            assert [g for g, _ in pairs] == [
                g for level in s.levels() for g in index_set(level)]
            np.testing.assert_array_equal(s.coefficients, flat)
            np.testing.assert_array_equal([v for _, v in pairs], flat)
            np.testing.assert_array_equal([s[g] for g, _ in pairs], flat)
            assert all(type(v) is float and type(s[g]) is float for g, v in pairs)

    def test_flat_buffer_locates_every_cell(self):
        # the stored column that chebyshev_expansion gathers from, read-only
        for s in (surplus_coefficients(aniso(3).f, 4, 3), SurplusMap.loads(
                surplus_coefficients(aniso(2).f, 5, 2).dumps())):
            flat = s.coefficients
            assert not flat.flags.writeable
            levels, offsets, shifts = _level_layout(s.n, s.d)
            assert (levels + 1).tolist() == [list(level) for level in s.levels()]
            for k, level in enumerate(s.levels()):
                cells = np.argwhere(np.ones(s._level_arrays[level].shape, dtype=bool))
                got = flat[offsets[k] + (cells << shifts[k]).sum(axis=1)]
                assert np.array_equal(got, s.level_values(level))

    @pytest.mark.parametrize("d, n", [(1, 5), (2, 4), (3, 4)])
    def test_position_names_its_node(self, d, n):
        s = surplus_coefficients(aniso(d).f, n, d)
        nodes = [g for level in enumerate_levels(n, d) for g in index_set(level)]
        assert [g for g, _ in s.items()] == nodes
        assert sparsegrid._nodes_at(n, d, np.arange(len(s))) == nodes
        for position, g in enumerate(nodes):
            assert sparsegrid._nodes_at(n, d, [position]) == [g]
            assert s[g] == s.coefficients[position]

    def test_node_beyond_level_n_is_missing(self):
        s = surplus_coefficients(PROD_QUAD_2, 2, 2)
        for g in (GridIndex((3, 1), (1, 1)), GridIndex((2,), (1,))):
            with pytest.raises(KeyError):
                s[g]


class TestEachSurplusStoredOnce:
    """The column is a map's one store of its coefficients, before and after reads.

    A guard of the structure, not of timing: a built or loaded map holds
    exactly its documented fields, the column owns its memory, every level
    array views it, and it stays read-only after every reader has run.
    """

    FIELDS = {"d", "n", "coefficients", "_level_arrays"}

    def check(self, smap):
        assert set(vars(smap)) == self.FIELDS
        column = smap.coefficients
        assert column.shape == (grid_count(smap.n, smap.d),) and column.dtype == np.float64
        assert not column.flags.writeable
        assert column.base is None  # no face values or JSON columns kept behind it
        for values in smap._level_arrays.values():
            assert np.shares_memory(values, column) and not values.flags.writeable
        assert sum(values.size for values in smap._level_arrays.values()) == column.size

    @pytest.mark.parametrize("d, n", [(1, 5), (2, 5), (3, 4)])
    def test_after_build_load_and_reads(self, d, n):
        built = surplus_coefficients(two_products(d), n, d)
        points = np.random.default_rng(d).random((50, d))
        for smap in (built, SurplusMap.loads(built.dumps())):
            self.check(smap)
            chebyshev_expansion(smap, points[0])
            smap.evaluate_batch(points)
            smap.evaluate_grid(points[:7].T)
            self.check(smap)
