"""Corpus checks, error norms, studies, bounds, and resource formulas."""

import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.special

from qkorobov import analysis, sparsegrid
from qkorobov.analysis import (
    FACTORS,
    ConvergenceRow,
    _grid_error,
    _slope_fits,
    coefficient_bound_audit,
    convergence_study,
    corpus,
    corpus_function,
    depth_envelope_study,
    dual_oracle_gap,
    generic_point,
    lambert_w,
    local_seminorms_2,
    lp_error,
    lp_error_mc,
    resource_estimate,
    separable_function,
)
from qkorobov.sparsegrid import (
    GRID_BLOCK_VALUES,
    MAX_GRID_POINTS,
    GridIndex,
    SurplusMap,
    enumerate_levels,
    index_set,
    integral_coefficient,
    integral_coefficients,
    surplus_coefficients,
)
from test_sparsegrid import reference_evaluate_grid, two_products


def reference_support_sum(integrand, g, nodes_per_cell, kernel):
    """Sum of weight * integrand over the two-cell Gauss rule of one hat.

    Plain numpy, one node at a time: per axis the support splits at the node
    into two cells of ``nodes_per_cell`` Gauss-Legendre points; ``kernel``
    multiplies each axis weight by -2^-(l+1) phi(x 2^l - i).
    """
    base, base_w = np.polynomial.legendre.leggauss(nodes_per_cell)
    pts_1d, wts_1d = [], []
    for l, i in zip(g.level, g.index):
        h = 2.0 ** -l
        cells = [((i - 1) * h, i * h), (i * h, (i + 1) * h)]
        p = np.concatenate([(b - a) / 2 * base + (a + b) / 2 for a, b in cells])
        w = np.concatenate([(b - a) / 2 * base_w for a, b in cells])
        if kernel:
            w = w * -(2.0 ** -(l + 1)) * np.maximum(0.0, 1.0 - np.abs(p / h - i))
        pts_1d.append(p)
        wts_1d.append(w)
    pts = np.stack([m.ravel() for m in np.meshgrid(*pts_1d, indexing="ij")], axis=1)
    w = np.prod(np.stack([m.ravel() for m in np.meshgrid(*wts_1d, indexing="ij")]), axis=0)
    return float(np.sum(w * integrand(pts)))


def reference_violations(fn, n, scale):
    """The audit's violation list by a plain loop over nodes."""
    out = []
    for g, v in surplus_coefficients(fn.f, n, fn.d).items():
        l1 = sum(g.level)
        seminorm = math.sqrt(reference_support_sum(
            lambda X: fn.mixed_derivative(X) ** 2, g, 24, kernel=False))
        bounds = {
            "inf": 2.0 ** (-fn.d - 2 * l1) * fn.seminorm_inf,
            "2": 2.0 ** -fn.d * (2 / 3) ** (fn.d / 2) * 2.0 ** (-1.5 * l1) * seminorm,
        }
        for which, bound in bounds.items():
            ratio = abs(v * scale) / bound if bound else (0.0 if v == 0 else math.inf)
            if ratio > 1.0 + 1e-12:
                out.append((g, which, ratio))
    return out


def scalar_audit(fn, smap, scale):
    """The audit by a plain loop over nodes: per-node columns and the violation list.

    The bounds of one node are Python floats, in the order the docstring of
    ``coefficient_bound_audit`` writes them, so the columnar audit must agree
    with this loop bit for bit.
    """
    d, rows, violations = fn.d, [], []
    for level in smap.levels():
        l1 = sum(level)
        bound_inf = 2.0 ** (-d - 2 * l1) * fn.seminorm_inf
        seminorms = local_seminorms_2(fn.mixed_derivative, level).tolist()
        values = (smap.level_values(level) * scale).tolist()
        for g, value, seminorm in zip(index_set(level), values, seminorms):
            bound_2 = 2.0 ** -d * (2.0 / 3.0) ** (d / 2.0) * 2.0 ** (-1.5 * l1) * seminorm
            ratios = []
            for which, bound in (("inf", bound_inf), ("2", bound_2)):
                ratio = abs(value) / bound if bound else (0.0 if value == 0.0 else math.inf)
                if ratio > 1.0 + 1e-12:
                    violations.append((g, which, ratio))
                ratios.append(ratio)
            rows.append((value, bound_inf, bound_2, *ratios))
    return rows, violations


def reference_grid(smap, axes):
    """The interpolant on a tensor grid, point by point."""
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, smap.d)
    return np.array([smap.evaluate(x) for x in pts]).reshape([len(a) for a in axes])


def boundary_sample(d, per_face=9):
    interior = np.linspace(0.05, 0.95, per_face)
    pts = []
    for j in range(d):
        for edge in (0.0, 1.0):
            for combo in itertools.product(interior, repeat=d - 1):
                p = list(combo)
                p.insert(j, edge)
                pts.append(p)
    return np.array(pts)


def grid_points(axes):
    """The (m, d) points of the tensor grid ``axes``, axis 0 slowest."""
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


def aniso(d):
    """A different factor on each axis: no permutation of the axes leaves it unchanged."""
    return separable_function("aniso", ["x(1-x)", "sin(pi x)", "x^2(1-x)"][:d])


DYADIC = np.linspace(0.0, 1.0, 33)
GRID_AXES = [
    DYADIC,  # 0, 1 and dyadic values
    DYADIC[9:17],  # a block of rows, as chunking cuts it
    DYADIC[3::4],  # a strided view
    analysis._gl_composite(2)[0],
    np.array([0.375]),
    np.array([1.0]),
    np.array([0.0, 0.3, 0.7, 1.0]),
]
# every member with a grid form, and --expr products of two and three different factors
GRID_FUNCTIONS = [fn for fn in corpus() if fn.name != "asym-cubic"] + [
    separable_function("x^2(1-x)*sin(pi x)", ["x^2(1-x)", "sin(pi x)"]),
    aniso(2),
    aniso(3),
    separable_function("sin(pi x)*x(1-x)*x^2(1-x)", ["sin(pi x)", "x(1-x)", "x^2(1-x)"]),
]


class TestCorpus:
    def test_members(self):
        names = {(fn.name, fn.d) for fn in corpus()}
        assert names == {
            ("prod-quad", 1), ("prod-quad", 2), ("prod-quad", 3),
            ("prod-sin", 1), ("prod-sin", 2), ("asym-cubic", 1),
        }

    def test_prod_quad_values(self):
        fn = corpus_function("prod-quad", 2)
        assert fn.f(np.array([[0.5, 0.5]]))[0] == pytest.approx(1 / 16)
        # mixed derivative (-2) * (-2)
        assert fn.mixed_derivative(np.array([[0.3, 0.9]]))[0] == pytest.approx(4.0)
        assert fn.seminorm_inf == pytest.approx(4.0)

    def test_sin_seminorm(self):
        fn = corpus_function("prod-sin", 1)
        assert fn.seminorm_inf == pytest.approx(np.pi ** 2)
        assert fn.seminorm_2 == pytest.approx(np.pi ** 2 / np.sqrt(2.0))

    def test_boundary_vanishing(self):
        for fn in corpus():
            vals = fn.f(boundary_sample(fn.d))
            assert np.abs(vals).max() <= 1e-12

    def test_seminorm_inf_dominates_dense_sample(self):
        for fn in corpus():
            axes = [np.linspace(0, 1, 41)] * fn.d
            mesh = np.meshgrid(*axes, indexing="ij")
            pts = np.stack([m.ravel() for m in mesh], axis=1)
            assert fn.seminorm_inf >= np.abs(fn.mixed_derivative(pts)).max() - 1e-9

    def test_seminorm_2_matches_quadrature(self):
        base, w = np.polynomial.legendre.leggauss(48)
        pts = (base + 1.0) / 2.0
        w = w / 2.0
        for fn in corpus():
            if fn.d > 2:
                continue
            if fn.d == 1:
                vals = fn.mixed_derivative(pts[:, None]) ** 2
                norm = math.sqrt(float(vals @ w))
            else:
                mesh = np.meshgrid(pts, pts, indexing="ij")
                grid = np.stack([m.ravel() for m in mesh], axis=1)
                vals = (fn.mixed_derivative(grid) ** 2).reshape(48, 48)
                norm = math.sqrt(float(w @ vals @ w))
            assert norm == pytest.approx(fn.seminorm_2, rel=1e-10)

    def test_asym_cubic_shape(self):
        fn = corpus_function("asym-cubic", 1)
        x = np.array([[0.5]])
        assert fn.f(x)[0] == pytest.approx(0.5 ** 3 * 0.25)
        assert fn.seminorm_2 == pytest.approx(math.sqrt(12 / 35))

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            corpus_function("prod-quad", 5)


class TestGridForm:
    """``f.on_grid(axes)`` equals ``f`` on the meshgrid points of ``axes``, bit for bit."""

    @pytest.mark.parametrize("fn", GRID_FUNCTIONS, ids=lambda fn: f"{fn.name}-d{fn.d}")
    def test_equals_points_bit_for_bit(self, fn):
        picks = itertools.product(range(len(GRID_AXES)), repeat=fn.d)
        if fn.d == 3:  # each axis choice on each axis, with different choices beside it
            picks = [(k, (k + 2) % len(GRID_AXES), (k + 5) % len(GRID_AXES))
                     for k in range(len(GRID_AXES))] + [(0, 0, 0), (4, 0, 5)]
        for pick in picks:
            axes = [GRID_AXES[k] for k in pick]
            shape = tuple(len(a) for a in axes)
            got = fn.f.on_grid(axes)
            assert got.shape == shape
            assert np.array_equal(got, fn.f(grid_points(axes)).reshape(shape))

    def test_only_separable_products_have_it(self):
        assert not hasattr(corpus_function("asym-cubic", 1).f, "on_grid")
        with pytest.raises(ValueError, match="need 2 axes"):
            corpus_function("prod-quad", 2).f.on_grid([DYADIC])


class TestLpError:
    def test_identical_functions(self):
        fn = corpus_function("prod-quad", 1)
        assert lp_error(fn.f, fn.f, "inf", 1, 3) == 0.0
        assert lp_error(fn.f, fn.f, 2, 1, 3) == 0.0

    def test_exact_interpolation_error_closed_form(self):
        fn = corpus_function("prod-quad", 1)
        for n in range(1, 6):
            smap = surplus_coefficients(fn.f, n, 1)
            err = lp_error(fn.f, smap.evaluate_batch, "inf", 1, n)
            assert err == pytest.approx(4.0 ** -(n + 1), abs=1e-10)

    def test_constant_difference_l2(self):
        c = 0.37
        f = lambda X: np.full(len(X), c)
        g = lambda X: np.zeros(len(X))
        assert lp_error(f, g, 2, 1, 3) == pytest.approx(c, abs=1e-12)
        assert lp_error(f, g, 2, 2, 3) == pytest.approx(c, abs=1e-12)

    def test_nan_p_rejected_before_any_norm(self, monkeypatch):
        fn = corpus_function("prod-quad", 1)
        with pytest.raises(ValueError, match=r"p must be in \[2, inf\]"):
            lp_error(fn.f, fn.f, math.nan, 1, 3)
        calls = []
        monkeypatch.setattr(analysis, "lp_error", lambda *args, **kw: calls.append(args))
        with pytest.raises(ValueError, match=r"p must be in \[2, inf\]"):
            convergence_study(fn, float("nan"), [1, 2])
        assert calls == []

    @pytest.mark.parametrize("d", [1, 2])
    def test_nan_difference_is_not_dropped(self, d):
        # a NaN of f - g in any row block gives NaN for every p, never 0
        f = lambda x: np.where(x[:, 0] > 0.9, np.nan, 0.0)
        g = lambda x: np.zeros(len(x))
        for p in ("inf", 2, 3):
            assert math.isnan(lp_error(f, g, p, d, 2))

    def test_p4_between_p2_and_inf(self):
        fn = corpus_function("prod-sin", 1)
        smap = surplus_coefficients(fn.f, 3, 1)
        e2 = lp_error(fn.f, smap.evaluate_batch, 2, 1, 3)
        e4 = lp_error(fn.f, smap.evaluate_batch, 4, 1, 3)
        einf = lp_error(fn.f, smap.evaluate_batch, "inf", 1, 3)
        assert e2 <= e4 <= einf

    def test_monte_carlo_d3(self):
        fn = corpus_function("prod-quad", 3)
        g = lambda X: np.zeros(len(X))
        value, stderr = lp_error_mc(fn.f, g, 2.0, 3, seed=5)
        exact = (1.0 / 30.0) ** 1.5  # ||x(1-x)||_2^2 = 1/30 per factor
        assert stderr > 0
        assert value == pytest.approx(exact, rel=0.02)

    def test_rejects_small_p(self):
        with pytest.raises(ValueError):
            lp_error(lambda X: X[:, 0], lambda X: X[:, 0], 1.5, 1, 2)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_map_and_callable_share_the_grid_path(self, d):
        # a SurplusMap and its evaluate_batch differ only in how g is read
        fn = corpus_function("prod-quad", d)
        smap = surplus_coefficients(fn.f, 3, d)
        for p in ("inf", 2, 3):
            if d == 3 and p != "inf":
                continue  # Monte Carlo, no grid
            by_grid = lp_error(fn.f, smap, p, d, 3)
            by_points = lp_error(fn.f, smap.evaluate_batch, p, d, 3)
            assert by_grid == pytest.approx(by_points, rel=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_blocks_cover_the_grid_once(self, d):
        # every block size gives the unchunked value, with uneven weights too;
        # the grid form of f gives the point form's value exactly
        rng = np.random.default_rng(d)
        axes = [np.sort(np.concatenate([rng.random(7 + j), [0.0, 0.5, 1.0]])) for j in range(d)]
        weights = [rng.random(len(a)) for a in axes]
        tail = math.prod(len(a) for a in axes[1:])
        for fn in (corpus_function("prod-quad", d), aniso(d)):
            smap = surplus_coefficients(fn.f, 3, d)
            on_points = lambda x: fn.f(x)
            for g in (smap, smap.evaluate_batch):
                for p, w in ((math.inf, None), (2.0, weights)):
                    whole = _grid_error(fn.f, g, p, axes, w)
                    assert whole == _grid_error(on_points, g, p, axes, w)
                    for rows in (1, 2, 3):
                        chunked = _grid_error(fn.f, g, p, axes, w, budget=rows * tail)
                        assert chunked == _grid_error(on_points, g, p, axes, w,
                                                      budget=rows * tail)
                        assert chunked == pytest.approx(whole, rel=1e-13)
            power = np.abs(fn.f(grid_points(axes)).reshape([len(a) for a in axes])
                           - reference_grid(smap, axes)) ** 2
            for w in reversed(weights):
                power = power @ w
            assert _grid_error(fn.f, smap, 2.0, axes, weights, budget=tail) == pytest.approx(
                math.sqrt(power), rel=1e-13)


class TestGridNormsCallNoPoints:
    """The sup and Gauss-Legendre norms read a grid-capable ``f`` on the grid only.

    A guard of the structure, not of timing: ``f`` keeps its grid form but
    raises when it is called on points.
    """

    class GridOnly:
        def __init__(self, f):
            self.on_grid = f.on_grid

        def __call__(self, x):
            raise AssertionError("f was called on points")

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_no_point_call(self, d):
        fn = aniso(d)
        smap = surplus_coefficients(fn.f, 3, d)
        guarded = self.GridOnly(fn.f)
        with pytest.raises(AssertionError, match="on points"):
            guarded(np.full((1, d), 0.5))  # the guard is live
        for p in ("inf", 2) if d <= 2 else ("inf",):
            assert lp_error(guarded, smap, p, d, 3) == lp_error(fn.f, smap, p, d, 3)


def reference_grid_error(f, smap, p, axes, weights):
    """||f - smap||_p on the tensor grid ``axes`` in one unblocked pass, plain numpy.

    The interpolant comes from the per-level loop, ``f`` is called on every
    meshgrid point at once, and finite p sums |f - g|^p times the outer
    product of the axis weights in one reduction.
    """
    shape = [len(a) for a in axes]
    diff = np.abs(np.asarray(f(grid_points(axes)), dtype=float).reshape(shape)
                  - reference_evaluate_grid(smap, axes))
    if p == math.inf:
        return float(diff.max())
    return float(np.sum(diff ** p * functools.reduce(np.multiply.outer, weights))) ** (1.0 / p)


# every corpus member, and a different product per axis and a sum of two
# products (no grid form) at d = 1..3
STREAMED_FUNCTIONS = corpus() + [aniso(d) for d in (1, 2, 3)] + [
    analysis.KorobovTestFunction("two-products", d, two_products(d), None, 0.0, 0.0)
    for d in (1, 2, 3)]


class TestStreamedNorms:
    """The row-block pass of ``_grid_error`` against the unblocked reference."""

    @pytest.mark.parametrize("fn", STREAMED_FUNCTIONS, ids=lambda fn: f"{fn.name}-d{fn.d}")
    def test_matches_unblocked_reference(self, fn, monkeypatch):
        # dyadic and Gauss-Legendre grids of the norms at level n for d = 1,
        # at most 2 for d = 2 and 0 for d = 3 (17^3 and 32^3 points).
        # Dyadic axes have odd lengths, which no row block of more than one
        # row divides; 1,000 and 100 values per block cut the grids into
        # many blocks, the last one short.
        for n in range(1, 5):
            smap = surplus_coefficients(fn.f, n, fn.d)
            grid_n = min(n, {1: 4, 2: 2, 3: 0}[fn.d])
            gl_pts, gl_wts = analysis._gl_composite(grid_n)
            dyadic = analysis._dyadic_grid(grid_n)
            for points, wts in ((dyadic, np.gradient(dyadic)), (gl_pts, gl_wts)):
                axes, weights = [points] * fn.d, [wts] * fn.d
                for p in (2.0, 3.0, math.inf):
                    w = None if p == math.inf else weights
                    want = reference_grid_error(fn.f, smap, p, axes, w)
                    for block_values in (GRID_BLOCK_VALUES, 1000, 100):
                        monkeypatch.setattr(analysis, "GRID_BLOCK_VALUES", block_values)
                        for g in (smap, smap.evaluate_batch):
                            got = _grid_error(fn.f, g, p, axes, w)
                            assert got == pytest.approx(want, rel=1e-13), (n, p, block_values)

    def test_map_is_read_by_row_blocks(self, monkeypatch):
        # a guard of the structure: a norm reads the map through evaluate_grid
        # one row block at a time, every grid point once, with one reader
        # whose cell table and root partial sums are built once
        evaluate_grid, cell_table = SurplusMap.evaluate_grid, sparsegrid._cell_table
        calls, tables = [], []

        def recording_evaluate_grid(self, axes, rows=None, out=None, read=None):
            values = evaluate_grid(self, axes, rows, out, read)
            calls.append((rows, read, values.shape))
            return values

        monkeypatch.setattr(SurplusMap, "evaluate_grid", recording_evaluate_grid)
        monkeypatch.setattr(sparsegrid, "_cell_table",
                            lambda *args: tables.append(args) or cell_table(*args))
        for d in (1, 2, 3):
            fn = aniso(d)
            smap = surplus_coefficients(fn.f, 3, d)
            for p in ("inf", 2) if d <= 2 else ("inf",):
                calls.clear()
                tables.clear()
                want = lp_error(fn.f, smap, p, d, 3)
                grid, _ = analysis._norm_grid(analysis._norm_exponent(p), d, 3)
                inner = math.prod(len(a) for a in grid[1:])
                assert len(tables) == 1
                assert len({id(read) for _, read, _ in calls}) == 1
                assert all(rows is not None and shape[1] == inner and
                           shape[0] <= max(1, GRID_BLOCK_VALUES // inner)
                           for rows, _, shape in calls)
                assert sum(shape[0] for _, _, shape in calls) == len(grid[0])
                assert lp_error(fn.f, fn.f, p, d, 3) == 0.0  # a callable g reads no map
                assert len(tables) == 1
                assert want == lp_error(fn.f, smap, p, d, 3)

    def test_memory_is_bounded(self):
        # 2048^2 Gauss-Legendre points; the unblocked pass peaked at 82.9 MiB
        fn = corpus_function("prod-sin", 2)
        smap = surplus_coefficients(fn.f, 6, 2)
        lp_error(fn.f, smap, 2, 2, 6)
        tracemalloc.start()
        try:
            lp_error(fn.f, smap, 2, 2, 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20


class TestGridCeiling:
    """A norm grid above MAX_GRID_POINTS points is refused before it is read."""

    @pytest.mark.parametrize("p, d, n, points", [
        ("inf", 3, 6, 1025 ** 3),
        ("inf", 4, 4, 257 ** 4),
        (2, 2, 11, 2 ** 32),
        (3, 1, 26, 2 ** 31),
    ])
    def test_refused_with_its_size(self, p, d, n, points, monkeypatch):
        # refused before an axis is built or a point read
        def refuse(*args, **kwargs):
            raise AssertionError("built or read before the check")

        assert points > MAX_GRID_POINTS
        fn = lambda x: np.zeros(len(x))
        monkeypatch.setattr(analysis, "_grid_error", refuse)
        monkeypatch.setattr(np, "linspace", refuse)
        monkeypatch.setattr(np, "arange", refuse)
        with pytest.raises(ValueError, match=rf"d={d}, n={n} reads a tensor grid of {points:,} "):
            lp_error(fn, fn, p, d, n)

    @pytest.mark.parametrize("p, d, n", [("inf", 3, 5), (2, 2, 10), ("inf", 2, 10), (2, 3, 40)])
    def test_largest_grids_pass_the_check(self, p, d, n):
        # (2,3,40) is Monte Carlo: no grid, no ceiling
        analysis._norm_grid(analysis._norm_exponent(p), d, n)

    @pytest.mark.parametrize("p, n, points", [
        ("inf", 16, 2 ** 20 + 1), (2, 16, 2 ** 21), (3, 25, 2 ** 30), ("inf", 25, 2 ** 29 + 1)])
    def test_d1_axis_above_ceiling_refused(self, p, n, points, monkeypatch):
        # under MAX_GRID_POINTS, but one axis would hold more than MAX_AXIS_POINTS
        def refuse(*args, **kwargs):
            raise AssertionError("built or read before the check")

        assert points <= MAX_GRID_POINTS
        fn = lambda x: np.zeros(len(x))
        monkeypatch.setattr(analysis, "_grid_error", refuse)
        monkeypatch.setattr(np, "linspace", refuse)
        monkeypatch.setattr(np, "arange", refuse)
        with pytest.raises(ValueError, match=rf"d=1, n={n} builds an axis of {points:,} points, "
                                             rf"above the limit of 1,048,576"):
            lp_error(fn, fn, p, 1, n)

    @pytest.mark.parametrize("p", ["inf", 2])
    def test_largest_d1_axes_pass_the_check(self, p):
        axes, _ = analysis._norm_grid(analysis._norm_exponent(p), 1, 15)
        assert len(axes[0]) <= analysis.MAX_AXIS_POINTS

    @pytest.mark.parametrize("n", [0, -1, -5])
    def test_level_below_one_refused(self, n):
        fn = corpus_function("prod-quad", 1)
        for p in ("inf", 2):
            with pytest.raises(ValueError, match=rf"n must be >= 1, got {n}"):
                lp_error(fn.f, fn.f, p, 1, n)

    def test_study_checks_its_largest_n_first(self, monkeypatch):
        built = []
        monkeypatch.setattr(analysis, "surplus_coefficients",
                            lambda *args: built.append(args))
        fn = corpus_function("prod-quad", 3)
        with pytest.raises(ValueError, match=r"sup norm at d=3, n=6"):
            convergence_study(fn, 2, range(1, 7))
        # a study of the sup norm computes it whatever ``norms`` lists
        with pytest.raises(ValueError, match=r"sup norm at d=3, n=6"):
            convergence_study(fn, "inf", range(1, 7), norms=())
        assert built == []


@pytest.fixture(scope="module")
def quad1_study():
    return convergence_study(corpus_function("prod-quad", 1), "inf", range(1, 11))


@pytest.fixture(scope="module")
def sin1_study():
    return convergence_study(corpus_function("prod-sin", 1), "inf", range(3, 11))


@pytest.fixture(scope="module")
def quad2_study():
    return convergence_study(
        corpus_function("prod-quad", 2), "inf", range(1, 9), norms=("inf",)
    )


@pytest.fixture(scope="module")
def sin2_study():
    return convergence_study(
        corpus_function("prod-sin", 2), "inf", range(1, 9), norms=("inf",)
    )


class TestConvergence:
    def test_rows_carry_exact_counts(self, quad1_study):
        for row in quad1_study.rows:
            assert row.N == 2 ** row.n - 1

    def test_d1_slope_over_n3_to_10(self):
        study = convergence_study(corpus_function("prod-quad", 1), "inf", range(3, 11))
        assert study.slope == pytest.approx(-2.0, abs=0.05)
        # exact errors 4^-(n+1) mean raw and corrected coincide at d=1
        assert study.raw_slope == study.slope

    def test_sin_slope_band(self, sin1_study):
        assert -2.3 <= sin1_study.slope <= -1.7

    def test_d2_slopes(self, quad2_study):
        rows = [r for r in quad2_study.rows if r.n >= 3]
        sub = convergence_study(
            corpus_function("prod-quad", 2), "inf", range(3, 8), norms=("inf",)
        )
        assert -2.2 <= sub.slope <= -1.4
        # the uncorrected fit sits well above the band: the log factor is real
        assert sub.raw_slope > -1.4

    def test_monotone_decrease_d1(self):
        for name in ("prod-quad", "prod-sin", "asym-cubic"):
            study = convergence_study(corpus_function(name, 1), "inf", range(1, 11))
            errs = [r.error_inf for r in study.rows]
            assert all(errs[k + 1] < errs[k] for k in range(len(errs) - 1))
            errs2 = [r.error_2 for r in study.rows]
            assert all(errs2[k + 1] < errs2[k] for k in range(len(errs2) - 1))

    def test_monotone_decrease_d2(self, quad2_study, sin2_study):
        for study in (quad2_study, sin2_study):
            errs = [r.error_inf for r in study.rows]
            assert all(errs[k + 1] < errs[k] for k in range(len(errs) - 1))

    def test_shape_bound_single_constant(self, quad2_study):
        c = quad2_study.shape_constant
        assert c is not None and c > 0
        for row in quad2_study.rows:
            if row.N >= 2:
                bound = c * row.N ** -2 * math.log2(row.N) ** 3
                assert row.error_inf <= bound * (1 + 1e-9)

    def test_zero_error_rows_excluded(self):
        from qkorobov.analysis import KorobovTestFunction

        null = KorobovTestFunction(
            name="null",
            d=1,
            f=lambda X: np.zeros(len(X)),
            mixed_derivative=lambda X: np.zeros(len(X)),
            seminorm_inf=0.0,
            seminorm_2=0.0,
        )
        study = convergence_study(null, "inf", range(1, 4))
        assert study.slope is None

    def test_fit_keeps_rows_above_1e13_with_two_nodes(self):
        errors = [0.5, 1e-13, 0.01, None, 0.002, 0.0004]
        rows = [ConvergenceRow(n, N, e, None) for n, (N, e) in
                enumerate(zip((1, 3, 3, 7, 7, 15), errors), start=1)]
        keep, raw, corrected = _slope_fits(rows, errors, 2)
        assert keep == [(3, 0.01), (7, 0.002), (15, 0.0004)]
        x = np.log2([3, 7, 15])
        y = np.log2([0.01, 0.002, 0.0004])
        assert raw[0] == pytest.approx(np.polyfit(x, y, 1)[0], rel=1e-12)
        want = np.polyfit(x, y - 3.0 * np.log2(x), 1)[0]
        assert corrected[0] == pytest.approx(want, rel=1e-12)
        assert _slope_fits(rows[:3], errors[:3], 2) == ([(3, 0.01)], None, None)

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            convergence_study(corpus_function("prod-quad", 1), "inf", [])


def quad1_map(n):
    fn = corpus_function("prod-quad", 1)
    return fn, surplus_coefficients(fn.f, n, 1)


class TestCoefficientAudit:
    def test_equality_witness(self):
        fn, smap = quad1_map(2)
        report = coefficient_bound_audit(fn, smap)
        by_index = {g: ratio for (g, _), ratio in zip(smap.items(), report.ratio_inf.tolist())}
        assert by_index[GridIndex((1,), (1,))] == pytest.approx(1.0, abs=1e-12)
        # level 2: |v| = 1/16 vs 2^-5 * 2
        assert by_index[GridIndex((2,), (1,))] == pytest.approx(1.0, abs=1e-12)

    def test_corpus_passes(self):
        for fn in corpus():
            if fn.d > 2:
                continue
            for n in range(1, 5):
                report = coefficient_bound_audit(fn, surplus_coefficients(fn.f, n, fn.d))
                assert report.passed, report.violations
                assert report.max_ratio_inf <= 1.0 + 1e-12
                assert report.max_ratio_2 <= 1.0 + 1e-12

    def test_scale_hook_fails(self):
        report = coefficient_bound_audit(*quad1_map(2), scale=1.1)
        assert not report.passed
        assert any(g == GridIndex((1,), (1,)) for g, _, _ in report.violations)

    @pytest.mark.parametrize("scale", [math.nan, math.inf, -math.inf])
    def test_non_finite_scale_rejected(self, scale):
        # a NaN ratio is never > 1, so a NaN scale would pass every bound
        with pytest.raises(ValueError, match="scale must be finite"):
            coefficient_bound_audit(*quad1_map(2), scale=scale)

    def test_zero_function_vacuous(self):
        from qkorobov.analysis import KorobovTestFunction

        zero = KorobovTestFunction(
            "zero", 1, lambda X: np.zeros(len(X)), lambda X: np.zeros(len(X)), 0.0, 0.0
        )
        report = coefficient_bound_audit(zero, surplus_coefficients(zero.f, 2, 1))
        assert report.passed
        assert report.max_ratio_inf == 0.0

    @pytest.mark.parametrize("scale", [1.1, 3.0])
    def test_columns_equal_scalar_loop(self, scale):
        from qkorobov.analysis import KorobovTestFunction

        quad = corpus_function("prod-quad", 1)
        # zero bounds: vacuous for the zero function, a violation of every node otherwise
        flat = KorobovTestFunction("flat", 1, quad.f, lambda X: np.zeros(len(X)), 0.0, 0.0)
        zero = KorobovTestFunction("zero", 1, lambda X: np.zeros(len(X)),
                                   lambda X: np.zeros(len(X)), 0.0, 0.0)
        cases = [(fn, n) for fn in corpus() if fn.d <= 2 for n in range(1, 5)]
        cases += [(corpus_function("prod-quad", 3), n) for n in range(1, 4)]
        cases += [(flat, 3), (zero, 3)]
        for fn, n in cases:
            smap = surplus_coefficients(fn.f, n, fn.d)
            report = coefficient_bound_audit(fn, smap, scale=scale)
            rows, violations = scalar_audit(fn, smap, scale)
            columns = (report.values, report.bound_inf, report.bound_2,
                       report.ratio_inf, report.ratio_2)
            for got, want in zip(columns, np.array(rows).T):
                assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
            assert report.violations == violations, (fn.name, fn.d, n)
            assert report.max_ratio_inf == max(r[3] for r in rows)
            assert report.max_ratio_2 == max(r[4] for r in rows)
            if fn.name in ("flat", "zero"):
                assert (report.ratio_2 == (math.inf if fn is flat else 0.0)).all()

    def test_map_of_other_dimension_rejected(self):
        fn = corpus_function("prod-quad", 2)
        smap = surplus_coefficients(corpus_function("prod-quad", 1).f, 3, 1)
        assert coefficient_bound_audit(*quad1_map(3)).n == 3
        for check in (coefficient_bound_audit, dual_oracle_gap):
            with pytest.raises(ValueError, match="surplus map of d=1 for a function of d=2"):
                check(fn, smap)


class TestLevelQuadrature:
    """Level-batched quadratures against one-node forms and a numpy reference."""

    @pytest.mark.parametrize("fn, n", [
        pytest.param(fn, n, id=f"{fn.name}-d{fn.d}")
        for fn, n in [(fn, 5) for fn in corpus() if fn.d <= 2] + [(aniso(2), 4), (aniso(3), 3)]
    ])
    def test_batched_equals_one_node(self, fn, n):
        square = lambda X: fn.mixed_derivative(X) ** 2
        for level in enumerate_levels(n, fn.d):
            seminorms = local_seminorms_2(fn.mixed_derivative, level)
            coeffs = integral_coefficients(fn.mixed_derivative, level)
            nodes = index_set(level)
            assert seminorms.shape == coeffs.shape == (len(nodes),)
            for g, seminorm, coeff in zip(nodes, seminorms, coeffs):
                one = local_seminorms_2(fn.mixed_derivative, g.level, [[i] for i in g.index])[0]
                assert seminorm == pytest.approx(one, rel=1e-13, abs=0)
                ref = math.sqrt(reference_support_sum(square, g, 24, kernel=False))
                assert seminorm == pytest.approx(ref, rel=1e-13, abs=0)
                one = integral_coefficient(fn.mixed_derivative, g)
                assert coeff == pytest.approx(one, rel=1e-13, abs=1e-300)
                ref = reference_support_sum(fn.mixed_derivative, g, 32, kernel=True)
                assert coeff == pytest.approx(ref, rel=1e-13, abs=1e-300)

    def test_node_subset(self):
        fn = corpus_function("prod-sin", 2)
        got = integral_coefficients(fn.mixed_derivative, (3, 2), [[5, 1], [3]])
        want = [integral_coefficient(fn.mixed_derivative, GridIndex((3, 2), i))
                for i in ((5, 3), (1, 3))]
        np.testing.assert_allclose(got, want, rtol=1e-13)

    @pytest.mark.parametrize("level, indices", [
        ((2, 0), None), ((2,), [[2]]), ((2,), [[5]]), ((2, 1), [[1]]),
    ])
    def test_invalid_nodes_rejected(self, level, indices):
        dd = corpus_function("prod-quad", len(level)).mixed_derivative
        with pytest.raises(ValueError, match="level component|invalid for level|one index list"):
            integral_coefficients(dd, level, indices)

    def test_derivative_without_factors_rejected(self):
        # a sum of two products has no factor per axis, so no per-axis rule applies
        dd = two_products(2)
        for quadrature in (integral_coefficients, local_seminorms_2):
            with pytest.raises(ValueError, match=r"no factor per axis for level \(2, 1\)"):
                quadrature(dd, (2, 1))

    @pytest.mark.parametrize("scale", [1.0, 1.05, 1.1, 2.0])
    def test_scaled_audit_violations(self, scale):
        found = 0
        for fn in corpus():
            if fn.d > 2:
                continue
            for n in (1, 3, 4):
                smap = surplus_coefficients(fn.f, n, fn.d)
                got = coefficient_bound_audit(fn, smap, scale=scale).violations
                want = reference_violations(fn, n, scale)
                assert [(g, w) for g, w, _ in got] == [(g, w) for g, w, _ in want]
                for (_, _, a), (_, _, b) in zip(got, want):
                    assert a == pytest.approx(b, rel=1e-12)
                found += len(got)
        assert (found > 0) == (scale > 1.0)


class TestDualOracle:
    def test_gap_is_largest_node_difference(self):
        for fn in corpus():
            if fn.d > 2:
                continue
            for n in (1, 3):
                smap = surplus_coefficients(fn.f, n, fn.d)
                want = max(abs(v - integral_coefficient(fn.mixed_derivative, g))
                           for g, v in smap.items())
                assert dual_oracle_gap(fn, smap) == pytest.approx(want, rel=1e-9, abs=1e-18)

    def test_gaps_within_tolerance(self):
        for fn in corpus():
            if fn.d > 2:
                continue
            tol = 1e-8 if fn.d == 1 else 1e-6
            for n in range(1, 5):
                assert dual_oracle_gap(fn, surplus_coefficients(fn.f, n, fn.d)) <= tol


class TestLambertW:
    def test_fixed_points(self):
        assert lambert_w(0.0) == 0.0
        assert lambert_w(math.e) == pytest.approx(1.0, abs=1e-12)
        assert lambert_w(1.0) == pytest.approx(0.567143290410, abs=1e-9)

    def test_residual_sweep(self):
        for x in np.logspace(-6, 6, 1000):
            w = lambert_w(x)
            assert abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, x)

    def test_absolute_residual_moderate_range(self):
        for x in np.logspace(-6, 2, 1000):
            w = lambert_w(x)
            assert abs(w * math.exp(w) - x) <= 1e-12

    def test_against_scipy(self):
        for x in np.logspace(-6, 6, 200):
            assert lambert_w(x) == pytest.approx(
                float(scipy.special.lambertw(x).real), rel=1e-14, abs=1e-300
            )

    def test_against_scipy_up_to_the_largest_double(self):
        # w e^w overflows near x = 4e302; the log form takes over above 1e300
        xs = np.concatenate([np.logspace(250, np.log10(1.7e308), 400),
                             [1e300, np.nextafter(1e300, np.inf), 4e302, 1e305, 3e305,
                              1.7e308, np.finfo(float).max]])
        for x in xs:
            assert lambert_w(x) == pytest.approx(
                float(scipy.special.lambertw(x).real), rel=1e-14)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            lambert_w(-0.1)
        for x in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite x >= 0"):
                lambert_w(x)


class TestResourceEstimate:
    EPS_GRID = np.logspace(-4, np.log10(0.5), 10)

    def test_simplified_dominates_refined(self):
        for d in range(1, 6):
            for eps in self.EPS_GRID:
                for p in (2, "inf", 3, 5):
                    est = resource_estimate(eps, d, p)
                    assert est.simplified_depth_bound >= est.predicted_depth_bound - 1e-12
                    assert est.simplified_width_bound >= est.predicted_width_bound - 1e-12

    def test_depth_decreases_in_eps(self):
        for d in range(1, 6):
            depths = [resource_estimate(e, d, 2).predicted_depth_bound for e in self.EPS_GRID]
            assert all(a > b for a, b in zip(depths, depths[1:]))
        for d in range(2, 6):
            for p in (3, 5):
                depths = [resource_estimate(e, d, p).predicted_depth_bound for e in self.EPS_GRID]
                assert all(a > b for a, b in zip(depths, depths[1:]))

    def test_general_p_degenerates_at_d1(self):
        est = resource_estimate(0.01, 1, 3)
        assert est.beta == 0.0
        assert est.predicted_depth_bound == 0.0
        assert est.simplified_depth_bound == 0.0

    def test_alpha_limit(self):
        # (3p-1)/(2p-1) -> 3/2 from above
        alphas = [resource_estimate(0.1, 2, p).alpha for p in (3, 10, 100, 1e6)]
        assert all(a > 1.5 for a in alphas)
        assert all(a > b for a, b in zip(alphas, alphas[1:]))
        assert alphas[-1] == pytest.approx(1.5, abs=1e-5)

    def test_p2_inf_alpha_unset(self):
        est = resource_estimate(0.1, 2, "inf")
        assert est.alpha is None and est.beta is None
        assert est.formula == "p2-inf"

    def test_bridge_ratio_monotone_in_d(self):
        for eps in (0.01, 0.001):
            ratios = []
            for d in range(2, 7):
                both = (
                    resource_estimate(eps, d, 2, formula="general-p"),
                    resource_estimate(eps, d, 2, formula="p2-inf"),
                )
                ratios.append(both[0].predicted_depth_bound / both[1].predicted_depth_bound)
            assert all(a < b for a, b in zip(ratios, ratios[1:]))

    def test_epsilon_domain(self):
        with pytest.raises(ValueError):
            resource_estimate(0.0, 1, 2)

    @pytest.mark.parametrize("eps, d, p, field", [
        (1e-300, 1, 2, "simplified_depth_bound"),  # an OverflowError in epsilon ** -1.5
        (1e-300, 2, 2, "simplified_depth_bound"),  # inf from a product
        (1e-320, 3, 3, "simplified_depth_bound"),
        (1e-320, 1, 2, "Lambert W argument"),
        (1e-100, 60, 3, "predicted_depth_bound"),
    ])
    def test_non_finite_bound_refused(self, eps, d, p, field):
        with pytest.raises(ValueError, match=rf"^the {field} at epsilon={eps!r} \(d={d}, "
                                             rf"p={p}\) is (inf|nan), not a finite double"):
            resource_estimate(eps, d, p)

    def test_subnormal_epsilon(self):
        # log2(1 / epsilon) would be inf; -log2(epsilon) is about 1029.8
        eps, d = 1e-310, 5
        est = resource_estimate(eps, d, 2)
        assert all(math.isfinite(v) for v in (
            est.lambert_w_value, est.predicted_depth_bound, est.predicted_width_bound,
            est.simplified_depth_bound, est.simplified_width_bound))
        log_eps = -math.log2(eps)
        assert est.simplified_width_bound == 2.0 * d + eps ** (-1.0 / d) * log_eps ** 1.5
        with pytest.raises(ValueError):
            resource_estimate(1.0, 1, 2)

    def test_nan_p_rejected(self):
        for d in (1, 2):
            with pytest.raises(ValueError, match=r"p must be in \[2, inf\]"):
                resource_estimate(0.1, d, math.nan)

    def test_lambert_value_recorded(self):
        est = resource_estimate(0.01, 2, "inf")
        arg = 0.01 ** -0.5 / 2 * math.log2(100.0) ** 1.5
        assert est.lambert_w_value == pytest.approx(lambert_w(arg), rel=1e-12)


class TestDepthEnvelope:
    def test_ratio_stability(self):
        points = []
        for d in (1, 2):
            fn = corpus_function("prod-quad", d)
            pts, _ = depth_envelope_study(fn, range(1, 5))
            points.extend(pts)
        ratios = [p.ratio for p in points]
        fitted = (max(ratios) + min(ratios)) / 2.0
        assert all(abs(r - fitted) <= 0.2 * fitted for r in ratios)

    def test_generic_point_not_dyadic(self):
        x = generic_point(3)
        assert all(0 < v < 1 for v in x)
        for v in x:
            assert (v * 2 ** 12) % 1 != 0.0
