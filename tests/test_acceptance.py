"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines as
they appear; without -s they show in the captured output of failing tests.
Criteria with stated runtime budgets measure wall time and assert it.
"""

import itertools
import math
import time
from contextlib import contextmanager

import numpy as np

from qkorobov.analysis import (
    coefficient_bound_audit,
    convergence_study,
    corpus,
    corpus_function,
    depth_envelope_study,
    generic_point,
    integral_coefficient,
    lambert_w,
    resource_estimate,
)
from qkorobov.lcu import (
    assemble_lcu,
    direct_amplitude,
    evaluate_via_circuit,
    hadamard_test,
    plan_from_terms,
)
from qkorobov.qsp import (
    bind_signal,
    chebyshev_circuit,
    chebyshev_first_kind,
    chebyshev_second_kind,
)
from qkorobov.simulator import circuit_unitary, resource_report, run_circuit
from qkorobov.sparsegrid import (
    GridIndex,
    chebyshev_expansion,
    enumerate_levels,
    grid_count,
    surplus_coefficients,
)


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


XS_201 = np.linspace(-1.0, 1.0, 201)


def test_01_qsp_chebyshev_identity():
    with criterion(1, "qsp-chebyshev-identity"):
        start = time.monotonic()
        for r in range(33):
            circ = chebyshev_circuit(r)
            t = chebyshev_first_kind(r, XS_201)
            u = (
                chebyshev_second_kind(r - 1, XS_201)
                if r >= 1
                else np.zeros_like(XS_201)
            )
            s = np.sqrt(np.maximum(0.0, 1.0 - XS_201 ** 2))
            for k, x in enumerate(XS_201):
                bound = bind_signal(circ, x)
                amp = run_circuit(bound).amplitudes[0]
                assert abs(amp - t[k]) <= 1e-10
                matrix = circuit_unitary(bound)
                expected = np.array(
                    [[t[k], 1j * s[k] * u[k]], [1j * s[k] * u[k], t[k]]]
                )
                assert np.abs(matrix - expected).max() <= 1e-10
        elapsed = time.monotonic() - start
        assert elapsed < 2.0, f"identity sweep took {elapsed:.2f}s (budget 2s)"


def test_02_pythagorean_invariant():
    with criterion(2, "pythagorean-invariant"):
        for r in range(33):
            t = chebyshev_first_kind(r, XS_201)
            u = (
                chebyshev_second_kind(r - 1, XS_201)
                if r >= 1
                else np.zeros_like(XS_201)
            )
            residual = t ** 2 + (1.0 - XS_201 ** 2) * u ** 2 - 1.0
            assert np.abs(residual).max() <= 1e-10


def test_03_resource_fixture():
    with criterion(3, "qsp-resource-fixture"):
        for r in range(33):
            report = resource_report(chebyshev_circuit(r))
            assert report.width == 1
            assert report.touch_depth == 2 * r + 1


def test_04_dual_oracle_coefficients():
    with criterion(4, "dual-oracle-coefficients"):
        # frozen fixture: stencil of x(1-x) at n=2
        smap = surplus_coefficients(lambda X: X[:, 0] * (1 - X[:, 0]), 2, 1)
        fixtures = {
            GridIndex((1,), (1,)): 0.25,
            GridIndex((2,), (1,)): 0.0625,
            GridIndex((2,), (3,)): 0.0625,
        }
        for g, expected in fixtures.items():
            assert abs(smap[g] - expected) <= 1e-12
        for fn in corpus():
            if fn.d > 2:
                continue
            tol = 1e-8 if fn.d == 1 else 1e-6
            for n in range(1, 5):
                smap = surplus_coefficients(fn.f, n, fn.d)
                for g, v in smap.items():
                    other = integral_coefficient(fn.mixed_derivative, g)
                    assert abs(v - other) <= tol, (fn.name, fn.d, n, g)


def test_05_coefficient_bounds():
    with criterion(5, "coefficient-decay-bounds"):
        for fn in corpus():
            if fn.d > 2:
                continue
            for n in range(1, 5):
                report = coefficient_bound_audit(fn, surplus_coefficients(fn.f, n, fn.d))
                assert report.passed, report.violations
        quad1 = corpus_function("prod-quad", 1)
        witness = coefficient_bound_audit(quad1, surplus_coefficients(quad1.f, 1, 1))
        ratio = witness.ratio_inf[0]
        assert abs(ratio - 1.0) <= 1e-12


def test_06_grid_counts():
    with criterion(6, "grid-counts"):
        for n in range(1, 13):
            assert grid_count(n, 1) == 2 ** n - 1
        assert grid_count(2, 2) == 5
        assert grid_count(3, 2) == 17
        ratios = [
            grid_count(n, 2) / (2.0 ** n * n) for n in range(3, 11)
        ]
        assert max(ratios) / min(ratios) <= 4.0


def test_07_circuit_vs_classical():
    with criterion(7, "circuit-vs-classical"):
        start = time.monotonic()
        rng = np.random.default_rng(20250810)
        functions = {1: corpus_function("prod-quad", 1), 2: corpus_function("prod-quad", 2)}
        for d, n in itertools.product((1, 2), (1, 2, 3, 4)):
            fn = functions[d]
            smap = surplus_coefficients(fn.f, n, d)
            for x in rng.random((20, d)):
                classical = smap.evaluate(x)
                plan = plan_from_terms(chebyshev_expansion(smap, x), d)
                if plan is None:
                    assert classical == 0.0
                    continue
                target = assemble_lcu(plan)
                via_test = hadamard_test(target)
                assert abs(plan.one_norm * via_test - classical) <= 1e-9
                assert abs(via_test - direct_amplitude(target).real) <= 1e-12
        elapsed = time.monotonic() - start
        assert elapsed < 30.0, f"circuit sweep took {elapsed:.2f}s (budget 30s)"


def test_08_node_interpolation():
    with criterion(8, "node-interpolation"):
        for fn in corpus():
            for n in range(1, 5):
                smap = surplus_coefficients(fn.f, n, fn.d)
                for g in dict(smap.items()):
                    x = np.array(g.node())
                    assert abs(smap.evaluate(x) - float(fn.f(x[None, :])[0])) <= 1e-12


def test_09_convergence_rates():
    with criterion(9, "convergence-rates"):
        start = time.monotonic()
        quad1 = corpus_function("prod-quad", 1)
        study = convergence_study(quad1, "inf", range(1, 11), norms=("inf",))
        for row in study.rows:
            assert abs(row.error_inf - 4.0 ** -(row.n + 1)) <= 1e-10
        slope_study = convergence_study(quad1, "inf", range(3, 11), norms=("inf",))
        assert abs(slope_study.slope + 2.0) <= 0.05

        sin1 = convergence_study(
            corpus_function("prod-sin", 1), "inf", range(3, 11), norms=("inf",)
        )
        assert -2.3 <= sin1.slope <= -1.7

        quad2 = convergence_study(
            corpus_function("prod-quad", 2), "inf", range(3, 8), norms=("inf",)
        )
        assert -2.2 <= quad2.slope <= -1.4
        c = quad2.shape_constant
        assert c is not None and c > 0.0
        for row in quad2.rows:
            bound = c * row.N ** -2 * math.log2(row.N) ** 3
            assert row.error_inf <= bound * (1.0 + 1e-9)
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"convergence studies took {elapsed:.2f}s (budget 60s)"


def test_10_width_and_depth_envelope():
    with criterion(10, "width-and-depth-envelope"):
        # width = d + ceil(log2 M) + 1, with the d=1, n=2 instance equal to 4
        for d in (1, 2):
            fn = corpus_function("prod-quad", d)
            for n in (1, 2, 3, 4):
                smap = surplus_coefficients(fn.f, n, d)
                x = generic_point(d)
                m = len(chebyshev_expansion(smap, x))
                assert m == 2 ** d * len(enumerate_levels(n, d))
                _, report = evaluate_via_circuit(smap, x)
                assert report.width == d + max(0, math.ceil(math.log2(m))) + 1
        smap = surplus_coefficients(corpus_function("prod-quad", 1).f, 2, 1)
        _, report = evaluate_via_circuit(smap, generic_point(1))
        assert report.width == 4

        points = []
        for d in (1, 2):
            pts, _ = depth_envelope_study(corpus_function("prod-quad", d), range(1, 5))
            points.extend(pts)
        ratios = [p.ratio for p in points]
        fitted = (max(ratios) + min(ratios)) / 2.0
        for p in points:
            assert p.touch_depth <= max(ratios) * p.envelope * (1 + 1e-12)
            assert abs(p.ratio - fitted) <= 0.20 * fitted
        print(f"  [envelope constant C = {fitted:.4f}, "
              f"spread {min(ratios):.4f}..{max(ratios):.4f}]")


def test_11_lambert_w():
    with criterion(11, "lambert-w"):
        for x in np.logspace(-6, 6, 1000):
            w = lambert_w(x)
            # scaled residual: the absolute form is below f64 conditioning
            # for x beyond ~1e3 ((1+W)e^W ulp(W)/2 ~ 1e-9 at x = 1e6)
            assert abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, x)
        for x in np.logspace(-6, 2, 1000):
            w = lambert_w(x)
            assert abs(w * math.exp(w) - x) <= 1e-12
        assert abs(lambert_w(1.0) - 0.567143290410) <= 1e-9
        assert abs(lambert_w(math.e) - 1.0) <= 1e-12


def test_12_resource_estimate_ordering():
    with criterion(12, "resource-estimate-ordering"):
        eps_grid = np.logspace(-4, np.log10(0.5), 10)
        d_grid = range(1, 6)
        for p in (2, "inf", 3, 5):
            for d in d_grid:
                estimates = [resource_estimate(e, d, p) for e in eps_grid]
                for est in estimates:
                    assert est.simplified_depth_bound >= est.predicted_depth_bound - 1e-12
                    assert est.simplified_width_bound >= est.predicted_width_bound - 1e-12
                depths = [est.predicted_depth_bound for est in estimates]
                if p in (2, "inf") or d >= 2:
                    # general-p bounds at d = 1 degenerate to zero (beta = 0)
                    assert all(a > b for a, b in zip(depths, depths[1:]))
