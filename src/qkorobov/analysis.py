"""Test corpus, error norms, convergence studies, and resource formulas.

The corpus members are boundary-vanishing products with closed-form order-2d
mixed derivatives and exact seminorms, so the coefficient decay bounds and
the dual-oracle coefficient checks can be evaluated without any fitted
constants.  Error norms follow fixed deterministic grids: the sup norm uses
a dyadic grid that supersamples every interpolant cell 16x (kinks of the
error sit on dyadic points only), finite p uses composite Gauss-Legendre
for d <= 2 and a seeded Monte Carlo estimate for every d >= 3.  Both grid
norms run as one streaming pass over row blocks of axis 0, which reads a
SurplusMap one block at a time with ``evaluate_grid`` and any other
approximant as a callable on points; a grid above MAX_GRID_POINTS points
is refused before it is read.
The test function is read the same way: a separable product (every corpus
member but ``asym-cubic``, and every ``--expr`` function) carries the grid
form ``f.on_grid(axes)``, which applies each factor once per axis value and
multiplies the broadcast factors in the order of the point form, so the
values are the same bit for bit and no (m, d) point array is built.  Any
other callable, a wrapped ``f`` included, is called on points.

The coefficient audit and the stencil-vs-integral gap read one support-sum
column each (``sparsegrid._support_column``): each factor of the mixed
derivative's ``factors`` is summed over the two-cell Gauss rule of every
support of every level once per axis, and a level's values are the outer
product of its d axis vectors, so no d-dimensional point array is built.
At d = 1 any callable is its own factor; at d >= 2 a derivative without
``factors`` is refused with a message naming d.  The audit's results are
float columns aligned with the map's coefficient column, and so is the
gap's oracle.

Resource bounds implement the epsilon-complexity formulas with every big-O
constant set to 1; outputs are relative units good for ordering and
monotonicity statements only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .lcu import assemble_lcu, plan_from_terms
from .simulator import resource_report
from .sparsegrid import (
    BATCH_ROWS,
    GRID_BLOCK_VALUES,
    MAX_GRID_POINTS,
    SurplusMap,
    chebyshev_expansion,
    gauss_legendre,
    grid_count,
    integral_coefficient,  # re-exported: part of this module's interface
    integral_column,
    _nodes_at,
    _support_column,
    surplus_coefficients,
)

MC_SAMPLES = 200_000
# the most points one axis of a norm grid may have (8 MiB per float axis): the
# d >= 2 grids under MAX_GRID_POINTS have at most 2^15 points per axis,
# so this bounds only d = 1, where the sup and Gauss-Legendre norms stop at n = 15
MAX_AXIS_POINTS = 1 << 20
SEMINORM_NODES_PER_CELL = 24
# a surplus violates a decay bound when |value| / bound is above this
RATIO_LIMIT = 1.0 + 1e-12


# ---------------------------------------------------------------------------
# corpus

@dataclass(frozen=True)
class KorobovTestFunction:
    """A test function with exact mixed-derivative seminorms.

    ``f`` and ``mixed_derivative`` accept (m, d) arrays; ``seminorm_inf`` and
    ``seminorm_2`` are the exact sup and L2 norms of the order-2d mixed
    derivative d^{2d} f / dx_1^2 ... dx_d^2.
    """

    name: str
    d: int
    f: Callable[[np.ndarray], np.ndarray]
    mixed_derivative: Callable[[np.ndarray], np.ndarray]
    seminorm_inf: float
    seminorm_2: float


@dataclass(frozen=True)
class _Factor:
    expr: str
    f: Callable
    dd: Callable
    sup: float
    l2: float


FACTORS = {
    "x(1-x)": _Factor(
        "x(1-x)",
        lambda t: t * (1.0 - t),
        lambda t: -2.0 * np.ones_like(t),
        sup=2.0,
        l2=2.0,
    ),
    "sin(pi x)": _Factor(
        "sin(pi x)",
        lambda t: np.sin(np.pi * t),
        lambda t: -np.pi ** 2 * np.sin(np.pi * t),
        sup=np.pi ** 2,
        l2=np.pi ** 2 / np.sqrt(2.0),
    ),
    "x^2(1-x)": _Factor(
        "x^2(1-x)",
        lambda t: t * t * (1.0 - t),
        lambda t: 2.0 - 6.0 * t,
        sup=4.0,
        l2=2.0,
    ),
}


class _SeparableProduct:
    """prod_j factors[j](x_j) on (m, d) points, with a tensor-grid form.

    ``on_grid(axes)`` applies each factor once to its axis values and
    multiplies the broadcast factors in the order the point form uses,
    ((1.0 * f_0) * f_1) * f_2, so it equals the point form on the meshgrid of
    ``axes`` bit for bit.  The grid form travels with this object: a wrapped
    or replaced ``f`` has none, and error norms then call it on points.
    """

    def __init__(self, factors: Sequence[Callable]):
        self.factors = tuple(factors)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.ones(x.shape[:-1])
        for j, factor in enumerate(self.factors):
            out = out * factor(x[..., j])
        return out

    def on_grid(self, axes: Sequence[np.ndarray]) -> np.ndarray:
        """Values on the tensor grid axes[0] x ... x axes[d-1], shape (len(axes[0]), ...)."""
        d = len(self.factors)
        if len(axes) != d:
            raise ValueError(f"need {d} axes")
        out = np.ones(())
        for j, (factor, axis) in enumerate(zip(self.factors, axes)):
            shape = [1] * d
            shape[j] = -1
            out = out * factor(np.asarray(axis, dtype=float)).reshape(shape)
        return out


def separable_function(name: str, factor_names: Sequence[str]) -> KorobovTestFunction:
    """Product of one corpus factor per coordinate; ``f`` has the grid form ``f.on_grid``."""
    factors = [FACTORS[fn] for fn in factor_names]
    return KorobovTestFunction(
        name=name,
        d=len(factors),
        f=_SeparableProduct([fac.f for fac in factors]),
        mixed_derivative=_SeparableProduct([fac.dd for fac in factors]),
        seminorm_inf=float(np.prod([fac.sup for fac in factors])),
        seminorm_2=float(np.prod([fac.l2 for fac in factors])),
    )


def _asym_cubic() -> KorobovTestFunction:
    # f = x(1-x) * x^2(1-x) = x^3(1-x)^2; f'' = 6x - 24x^2 + 20x^3,
    # maximal at x=1 (|f''(1)| = 2); ||f''||_2^2 = 12/35.
    return KorobovTestFunction(
        name="asym-cubic",
        d=1,
        f=lambda x: np.asarray(x)[..., 0] ** 3 * (1.0 - np.asarray(x)[..., 0]) ** 2,
        mixed_derivative=lambda x: (
            lambda t: 6.0 * t - 24.0 * t ** 2 + 20.0 * t ** 3
        )(np.asarray(x)[..., 0]),
        seminorm_inf=2.0,
        seminorm_2=math.sqrt(12.0 / 35.0),
    )


def corpus() -> list[KorobovTestFunction]:
    """The verification corpus; names repeat across dimensions."""
    funcs = [
        separable_function("prod-quad", ["x(1-x)"] * 1),
        separable_function("prod-quad", ["x(1-x)"] * 2),
        separable_function("prod-quad", ["x(1-x)"] * 3),
        separable_function("prod-sin", ["sin(pi x)"] * 1),
        separable_function("prod-sin", ["sin(pi x)"] * 2),
        _asym_cubic(),
    ]
    return funcs


def corpus_function(name: str, d: int) -> KorobovTestFunction:
    for fn in corpus():
        if fn.name == name and fn.d == d:
            return fn
    known = sorted({(fn.name, fn.d) for fn in corpus()})
    raise KeyError(f"no corpus function {name!r} with d={d}; have {known}")


# ---------------------------------------------------------------------------
# error norms

def _dyadic_grid(n: int, d: int = 1) -> np.ndarray:
    size = 2 ** (n + 4) + 1
    _check_grid_size("sup", size, d, n)
    return np.linspace(0.0, 1.0, size)


def _gl_composite(n: int, d: int = 1) -> tuple[np.ndarray, np.ndarray]:
    # 8-point Gauss-Legendre on each of 2^(n+2) equal subintervals of [0,1]
    base, base_w = gauss_legendre(8)
    cells = 2 ** (n + 2)
    _check_grid_size("Gauss-Legendre", cells * len(base), d, n)
    width = 1.0 / cells
    lo = np.arange(cells) * width
    pts = (lo[:, None] + width * (base[None, :] + 1.0) / 2.0).ravel()
    wts = np.tile(width / 2.0 * base_w, cells)
    return pts, wts


def _check_grid_size(norm: str, size: int, d: int, n: int) -> None:
    """Refuse a norm grid of ``size``^d points above MAX_GRID_POINTS, or an axis of
    ``size`` points above MAX_AXIS_POINTS, before it is built."""
    if size ** d > MAX_GRID_POINTS:
        raise ValueError(
            f"the {norm} norm at d={d}, n={n} reads a tensor grid of {size ** d:,} points, "
            f"above the limit of {MAX_GRID_POINTS:,}; use a smaller n or d")
    if size > MAX_AXIS_POINTS:
        raise ValueError(
            f"the {norm} norm at d={d}, n={n} builds an axis of {size:,} points, "
            f"above the limit of {MAX_AXIS_POINTS:,}; use a smaller n")


def _norm_grid(p: float, d: int, n: int):
    """The ``p`` norm's tensor grid at level n: (axes, weights), or None for Monte Carlo.

    The sup norm's weights are None; finite p at d >= 3 is a Monte Carlo
    estimate, with no grid.  n < 1 and a grid above MAX_GRID_POINTS points
    raise ValueError before any axis is built.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n!r}")
    if p == math.inf:
        return [_dyadic_grid(n, d)] * d, None
    if d >= 3:
        return None
    pts_1d, wts_1d = _gl_composite(n, d)
    return [pts_1d] * d, [wts_1d] * d


def _grid_error(f: Callable, g, p: float, axes: list[np.ndarray],
                weights: list[np.ndarray] | None) -> float:
    """||f - g||_p over the tensor grid ``axes``, in one streaming pass over axis 0.

    The rows of axis 0 go through in blocks of about GRID_BLOCK_VALUES
    values, written into the same few buffers, so the pass holds no
    grid-sized array.  ``g`` is a SurplusMap, read one row block at a time
    by ``g.evaluate_grid`` with one ``g.grid_rows`` reader, or a callable on
    (m, d) points.  ``f`` is read through its grid form ``f.on_grid`` when
    it has one (see ``separable_function``) and on points otherwise; a
    block's (m, d) points are built only for a callable that needs them.
    Either way the values are the same bit for bit.  The sup norm takes the
    maximum over the grid (``weights`` None); finite p contracts |f - g|^p
    into one sum per axis-0 row, then those with ``weights[0]`` once, so the
    sums group the same way whatever the row blocks.
    """
    d = len(axes)
    inner = math.prod(len(a) for a in axes[1:])
    block = max(1, GRID_BLOCK_VALUES // inner)
    on_grid = getattr(f, "on_grid", None)
    read = g.grid_rows(axes) if isinstance(g, SurplusMap) else None
    g_buf = np.empty((block, inner)) if read else None
    diff_buf = np.empty((block, inner))
    row_sums = np.empty(len(axes[0]))  # at most MAX_AXIS_POINTS
    worst = 0.0
    for a in range(0, len(axes[0]), block):
        rows = slice(a, min(a + block, len(axes[0])))
        count = rows.stop - a
        cut = [axes[0][rows], *axes[1:]]
        pts = None if on_grid and read else np.stack(
            np.meshgrid(*cut, indexing="ij", copy=False), axis=-1).reshape(-1, d)
        g_vals = (g.evaluate_grid(axes, rows, g_buf[:count], read) if read
                  else np.reshape(g(pts), (count, inner)))
        f_vals = on_grid(cut) if on_grid is not None else np.asarray(f(pts), dtype=float)
        diff = np.subtract(f_vals.reshape(count, inner), g_vals, out=diff_buf[:count])
        np.abs(diff, out=diff)
        if p == math.inf:
            worst = float(np.maximum(worst, diff.max()))  # a NaN stays, as in a sum
            continue
        diff **= p  # in place, the same square or power as diff ** p
        power = diff.reshape([count] + [len(ax) for ax in axes[1:]])
        for j in range(d - 1, 0, -1):
            power = power @ weights[j]
        row_sums[rows] = power
    return worst if p == math.inf else float(weights[0] @ row_sums) ** (1.0 / p)


def _norm_exponent(p) -> float:
    """``p`` as a float in [2, inf]; the string "inf" works too."""
    p = float("inf") if p in ("inf", np.inf, math.inf) else float(p)
    if not p >= 2:  # NaN fails every comparison
        raise ValueError("p must be in [2, inf]")
    return p


def lp_error(f: Callable, g, p, d: int, n: int, seed: int = 0) -> float:
    """||f - g||_p over [0,1]^d at the resolution tied to level ``n`` >= 1.

    ``p`` is 2 <= p < inf or inf (the string "inf" and numpy inf work too).
    The sup norm reads a dyadic tensor grid of (2^(n+4) + 1)^d points, and
    finite p at d <= 2 a composite Gauss-Legendre grid of (2^(n+5))^d, in
    one streaming pass (``_grid_error``) that holds a few row blocks and the
    root partial sums of one ``grid_rows`` reader, never the grid.  A grid
    above MAX_GRID_POINTS points is refused with a ValueError (exit 2 at the
    CLI) before anything is read.  ``f`` takes (m, d) arrays and is read
    there by its grid form ``f.on_grid`` when it has one; ``g`` may be the
    same or a SurplusMap, read one row block at a time by ``evaluate_grid``.
    Finite p at d >= 3 falls back to a seeded Monte Carlo estimate, which
    calls both on points.
    """
    p = _norm_exponent(p)
    grid = _norm_grid(p, d, n)
    if grid is None:
        g_fn = g.evaluate_batch if isinstance(g, SurplusMap) else g
        return lp_error_mc(f, g_fn, p, d, seed=seed)[0]
    return _grid_error(f, g, p, *grid)


def lp_error_mc(f: Callable, g: Callable, p: float, d: int,
                samples: int = MC_SAMPLES, seed: int = 0) -> tuple[float, float]:
    """Seeded Monte Carlo L^p error and its standard error (used for d >= 3)."""
    rng = np.random.default_rng(seed)
    pts = rng.random((samples, d))
    vals = np.abs(f(pts) - g(pts)) ** p
    mean = float(vals.mean())
    se_mean = float(vals.std(ddof=1) / math.sqrt(samples))
    value = mean ** (1.0 / p)
    stderr = se_mean / p * mean ** (1.0 / p - 1.0) if mean > 0 else se_mean
    return value, stderr


# ---------------------------------------------------------------------------
# convergence studies

@dataclass
class ConvergenceRow:
    n: int
    N: int
    error_inf: float | None
    error_2: float | None
    error_p: float | None = None


@dataclass
class ConvergenceStudy:
    function: str
    d: int
    p: float
    rows: list[ConvergenceRow]
    slope: float | None
    raw_slope: float | None
    slope_stderr: float | None
    shape_constant: float | None

    def errors_for_p(self) -> list[float | None]:
        if self.p == math.inf:
            return [r.error_inf for r in self.rows]
        if self.p == 2.0:
            return [r.error_2 for r in self.rows]
        return [r.error_p for r in self.rows]


def _fit_slope(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    a = np.vstack([x, np.ones_like(x)]).T
    coef, res, _, _ = np.linalg.lstsq(a, y, rcond=None)
    dof = len(x) - 2
    if dof > 0 and res.size:
        var = res[0] / dof / np.sum((x - x.mean()) ** 2)
        return float(coef[0]), float(math.sqrt(var))
    return float(coef[0]), 0.0


def _slope_fits(rows: Sequence[ConvergenceRow], errors: Sequence[float | None], d: int):
    """The rows a slope fit keeps, with their raw and log-corrected fits.

    A row is kept when its error is above 1e-13 and N >= 2.  The raw fit is
    log2(err) against log2(N); the corrected fit subtracts 3(d-1) log2(log2 N)
    first, for the model err ~ c * N^s * log2(N)^{3(d-1)}.  Returns the kept
    (N, error) pairs and the two (slope, stderr) fits, both None below two
    kept rows.
    """
    keep = [(r.N, e) for r, e in zip(rows, errors) if e is not None and e > 1e-13 and r.N >= 2]
    if len(keep) < 2:
        return keep, None, None
    x = np.log2([k[0] for k in keep])
    y = np.log2([k[1] for k in keep])
    return keep, _fit_slope(x, y), _fit_slope(x, y - 3.0 * (d - 1) * np.log2(x))


def convergence_study(func: KorobovTestFunction, p, n_range: Sequence[int],
                      norms: Sequence[str] = ("inf", "2"),
                      seed: int = 0) -> ConvergenceStudy:
    """Errors and fitted decay rate of the interpolant over ``n_range``.

    The gated ``slope`` comes from the log-corrected model
    err ~ c * N^s * log2(N)^{3(d-1)} (for d = 1 this is the plain
    least-squares slope); ``raw_slope`` is always the uncorrected fit.
    Rows with error below 1e-13 or N < 2 are excluded from the fits.
    Before the first row is built, the grids of the largest n are checked
    for every norm the study computes, so a grid above MAX_GRID_POINTS
    points raises ValueError (exit 2 at the CLI) with nothing computed.
    """
    p = _norm_exponent(p)
    n_values = sorted(n_range)
    if not n_values:
        raise ValueError("n_range must be non-empty")
    # the norms of each row, in the order they are computed: inf, 2, then p
    exponents = [q for q, wanted in ((math.inf, "inf" in norms or p == math.inf),
                                     (2.0, "2" in norms or p == 2.0),
                                     (p, p not in (math.inf, 2.0))) if wanted]
    for q in exponents:
        _norm_grid(q, func.d, n_values[-1])
    rows = []
    for n in n_values:
        smap = surplus_coefficients(func.f, n, func.d)
        errors = {q: lp_error(func.f, smap, q, func.d, n, seed=seed) for q in exponents}
        err_p = errors.get(p) if p not in (math.inf, 2.0) else None
        rows.append(ConvergenceRow(n, grid_count(n, func.d), errors.get(math.inf),
                                   errors.get(2.0), err_p))

    study = ConvergenceStudy(func.name, func.d, p, rows, None, None, None, None)
    keep, raw, corrected = _slope_fits(rows, study.errors_for_p(), func.d)
    if corrected is not None:
        study.raw_slope = raw[0]
        study.slope, study.slope_stderr = corrected
        study.shape_constant = float(
            np.max([e * k ** 2 / np.log2(k) ** (3 * (func.d - 1)) for k, e in keep])
        )
    return study


# ---------------------------------------------------------------------------
# coefficient bound audit

@dataclass(eq=False)
class AuditReport:
    """Both decay bounds of every surplus, as float columns aligned with ``smap.coefficients``.

    ``values`` are the scaled surpluses and a ratio is |value| / bound; a
    ratio above RATIO_LIMIT violates its bound.
    """

    function: str
    d: int
    n: int
    values: np.ndarray
    bound_inf: np.ndarray
    bound_2: np.ndarray
    ratio_inf: np.ndarray
    ratio_2: np.ndarray

    @property
    def max_ratio_inf(self) -> float:
        return float(self.ratio_inf.max())

    @property
    def max_ratio_2(self) -> float:
        return float(self.ratio_2.max())

    @property
    def passed(self) -> bool:
        return self.max_ratio_inf <= RATIO_LIMIT and self.max_ratio_2 <= RATIO_LIMIT

    def violations(self):
        """(node, "inf" or "2", ratio) per ratio above RATIO_LIMIT, in storage order, inf first.

        ``_nodes_at`` names the nodes of one block of BATCH_ROWS positions at a time.
        """
        for a in range(0, len(self.values), BATCH_ROWS):
            ratios = np.stack([self.ratio_inf[a:a + BATCH_ROWS], self.ratio_2[a:a + BATCH_ROWS]],
                              axis=1)
            position, which = np.nonzero(ratios > RATIO_LIMIT)  # row-major: inf before 2
            yield from zip(_nodes_at(self.n, self.d, a + position),
                           [("inf", "2")[w] for w in which.tolist()],
                           ratios[position, which].tolist())


def _check_map(func: KorobovTestFunction, smap: SurplusMap) -> None:
    if smap.d != func.d:
        raise ValueError(f"surplus map of d={smap.d} for a function of d={func.d}")


def coefficient_bound_audit(func: KorobovTestFunction, smap: SurplusMap,
                            scale: float = 1.0) -> AuditReport:
    """Check both decay bounds for every surplus of ``smap``, the map of ``func``.

    ``scale`` multiplies the computed coefficients and exists as a test hook
    for forcing violations.  Bounds:
      |v| <= 2^(-d - 2||l||_1) * |f|_{2,inf}
      |v| <= 2^(-d) (2/3)^(d/2) 2^(-1.5||l||_1) * |f restricted to supp|_{2,2}
    Each level's factors are Python floats, so the columns hold the bits of a
    node-by-node loop.  A zero bound is vacuous for a zero value only.
    """
    _check_map(func, smap)
    if not math.isfinite(scale):
        raise ValueError(f"scale must be finite, got {scale!r}")
    d = func.d
    levels = smap.levels()
    bounds = np.repeat([(2.0 ** (-d - 2 * sum(l)) * func.seminorm_inf,
                         2.0 ** -d * (2.0 / 3.0) ** (d / 2.0) * 2.0 ** (-1.5 * sum(l)))
                        for l in levels], [1 << (sum(l) - d) for l in levels], axis=0)
    bounds[:, 1] *= np.sqrt(_support_column(func.mixed_derivative, smap.n, d,
                                            SEMINORM_NODES_PER_CELL, power=2))
    values = smap.coefficients * scale
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(bounds == 0.0, np.where(values[:, None] == 0.0, 0.0, np.inf),
                          np.abs(values)[:, None] / bounds)
    return AuditReport(func.name, d, smap.n, values, bounds[:, 0], bounds[:, 1],
                       ratios[:, 0], ratios[:, 1])


def dual_oracle_gap(func: KorobovTestFunction, smap: SurplusMap) -> float:
    """Max |stencil surplus of ``smap`` - integral-formula surplus of ``func``|."""
    _check_map(func, smap)
    quadrature = integral_column(func.mixed_derivative, smap.n, smap.d)
    return float(np.abs(smap.coefficients - quadrature).max())


# ---------------------------------------------------------------------------
# Lambert W and resource formulas

def lambert_w(x: float) -> float:
    """Principal-branch W(x) for finite x >= 0.

    Halley iteration on w e^w = x from ln(1+x); above 1e300, where w e^w
    would overflow in the residual, Newton iteration on w + ln w = ln x.
    """
    x = float(x)
    if not 0.0 <= x < math.inf:
        raise ValueError(f"principal branch implemented for finite x >= 0 only, got {x!r}")
    if x == 0.0:
        return 0.0
    if x > 1e300:
        log_x = math.log(x)
        w = log_x - math.log(log_x)
        for _ in range(50):
            step = (w + math.log(w) - log_x) / (1.0 + 1.0 / w)
            w -= step
            if abs(step) <= 1e-16 * w:
                break
        return w
    w = math.log1p(x)
    for _ in range(50):
        e = math.exp(w)
        resid = w * e - x
        if resid == 0.0:
            break
        wp1 = w + 1.0
        step = resid / (e * wp1 - (w + 2.0) * resid / (2.0 * wp1))
        w -= step
        if abs(step) <= 1e-16 * (1.0 + abs(w)):
            break
    return w


@dataclass(frozen=True)
class ResourceEstimate:
    """Depth/width bounds in relative units (all big-O constants set to 1).

    ``predicted_*`` are the refined forms carrying Lambert's W;
    ``simplified_*`` follow from W(x) <= x and are never smaller.
    ``alpha``/``beta`` are populated only by the general-p form.
    """

    epsilon: float
    d: int
    p: float
    formula: str
    alpha: float | None
    beta: float | None
    lambert_w_value: float
    predicted_depth_bound: float
    predicted_width_bound: float
    simplified_depth_bound: float
    simplified_width_bound: float


def resource_estimate(epsilon: float, d: int, p, formula: str = "auto") -> ResourceEstimate:
    """Evaluate the epsilon-complexity bounds for one (epsilon, d, p).

    ``formula`` picks "p2-inf" (sharp for p in {2, inf}) or "general-p"
    (2 < p < inf); "auto" dispatches on p.  At d = 1 the general-p form
    degenerates to zero bounds (beta = 0 empties the level-count factor).
    """
    epsilon = float(epsilon)
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if d < 1:
        raise ValueError("d must be >= 1")
    p = _norm_exponent(p)
    if formula == "auto":
        formula = "p2-inf" if p in (2.0, math.inf) else "general-p"
    if formula not in ("p2-inf", "general-p"):
        raise ValueError(f"unknown formula {formula!r}")

    log_eps = -math.log2(epsilon)  # log2(1 / epsilon), finite for subnormal epsilon too

    def bound(name: str, compute: Callable[[], float]) -> float:
        """``compute()``, refused with a ValueError naming ``name`` unless it is finite."""
        try:
            value = compute()
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise ValueError(f"the {name} at epsilon={epsilon!r} (d={d}, p={p:g}) is "
                             f"{value!r}, not a finite double; use a larger epsilon")
        return value

    if formula == "p2-inf":
        if p not in (2.0, math.inf):
            raise ValueError("the p2-inf form covers p in {2, inf} only")
        w = lambert_w(bound("Lambert W argument",
                            lambda: epsilon ** (-1.0 / d) / d * log_eps ** 1.5))
        depth = bound("predicted_depth_bound", lambda: d * d * (2.0 * log_eps ** 1.5) ** d / (
            epsilon ** 0.5 * log_eps ** 1.5
        ) * w)
        width = bound("predicted_width_bound", lambda: 2.0 * d + d * w)
        s_depth = bound("simplified_depth_bound",
                        lambda: d * epsilon ** -(0.5 + 1.0 / d) * (2.0 * log_eps ** 1.5) ** d)
        s_width = bound("simplified_width_bound",
                        lambda: 2.0 * d + epsilon ** (-1.0 / d) * log_eps ** 1.5)
        return ResourceEstimate(
            epsilon, d, p, formula, None, None, w, depth, width, s_depth, s_width
        )

    if not 2.0 <= p < math.inf:
        raise ValueError("the general-p form covers finite p >= 2 only")
    alpha = (3.0 * p - 1.0) / (2.0 * p - 1.0)
    beta = alpha * (d - 1)
    t = beta * math.log2(beta) if beta > 0 else 0.0
    if beta > 0 and t <= 0:
        raise ValueError("the general-p form needs beta > 1 (integer d >= 2)")
    eps_term = epsilon ** (-p / (2.0 * p - 1.0))
    eps_term_d = epsilon ** (-p / (d * (2.0 * p - 1.0)))
    w = lambert_w(bound("Lambert W argument", lambda: (
        (6.0 * t) ** alpha * alpha ** alpha * eps_term_d * log_eps ** alpha / d)))
    depth = bound("predicted_depth_bound", lambda: (
        d * d * (12.0 * t) ** beta * alpha ** beta * eps_term * log_eps ** beta * w
    ))
    width = bound("predicted_width_bound", lambda: 2.0 * d + d * w)
    s_depth = bound("simplified_depth_bound", lambda: (
        d
        * (12.0 * t) ** (alpha + beta)
        * alpha ** (alpha + beta)
        * epsilon ** (-(p / (2.0 * p - 1.0)) * (1.0 + 1.0 / d))
        * log_eps ** (alpha + beta)
        * eps_term_d
    ))
    s_width = bound("simplified_width_bound", lambda: (
        2.0 * d + (6.0 * t) ** alpha * alpha ** alpha * eps_term_d * log_eps ** alpha))
    return ResourceEstimate(
        epsilon, d, p, formula, alpha, beta, w, depth, width, s_depth, s_width
    )


# ---------------------------------------------------------------------------
# depth envelope of the assembled circuits

@dataclass
class EnvelopePoint:
    n: int
    terms: int
    degree_norm: int
    touch_depth: int
    envelope: float

    @property
    def ratio(self) -> float:
        return self.touch_depth / self.envelope


def generic_point(d: int) -> np.ndarray:
    # non-dyadic rationals, inside every level's support
    primes = [3, 7, 11, 13, 17, 19, 23, 29]
    return np.array([(j + 1) / primes[j % len(primes)] for j in range(d)])


def depth_envelope_study(func: KorobovTestFunction, n_values: Sequence[int],
                         x=None) -> tuple[list[EnvelopePoint], float]:
    """touch_depth against (2||n||_1 + dM) log2(max(M, 2)) across levels.

    Returns the per-level points and the fitted constant C (midpoint of the
    min/max ratio); the combination circuit itself (no test ancilla) is
    measured, matching the select-oracle depth statement.
    """
    x = generic_point(func.d) if x is None else np.asarray(x, dtype=float)
    points = []
    for n in n_values:
        smap = surplus_coefficients(func.f, n, func.d)
        terms = chebyshev_expansion(smap, x)
        plan = plan_from_terms(terms, func.d)
        if plan is None:
            raise ValueError(f"no supported terms at n={n}; pick a generic x")
        m = plan.term_count
        degree_norm = int(terms["degrees"][terms["weight"] != 0.0].sum())
        report = resource_report(assemble_lcu(plan))
        envelope = (2.0 * degree_norm + func.d * m) * math.log2(max(m, 2))
        points.append(EnvelopePoint(n, m, degree_norm, report.touch_depth, envelope))
    ratios = [pt.ratio for pt in points]
    fitted = (max(ratios) + min(ratios)) / 2.0
    return points, fitted
