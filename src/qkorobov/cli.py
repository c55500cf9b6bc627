"""Command-line front end for the interpolation-to-circuit pipeline.

Subcommands:

  eval          classical and circuit values of the interpolant at points
  coeffs        dump the surplus coefficients (optionally with the
                integral-formula cross values)
  convergence   error decay study, CSV/JSON/SVG
  resources     epsilon-complexity estimates plus measured circuit sizes
  audit         coefficient decay bounds and stencil-vs-integral gap
  circuit       JSON gate trace of one evaluation circuit

Each subcommand takes only the options its handler reads (``COMMANDS``),
plus --config and --out; argparse rejects any other option, or a --format the
command does not write, with exit 2.  A --config file's keys must be options
of the command; its values become the subcommand's defaults before a second
parse, so an explicit flag always wins.

Exit codes: 0 success, 2 configuration error, 3 invariant/audit violation.
Every command is deterministic given its arguments and seed; CSV (17
significant digits) and JSON (shortest repr) both round-trip doubles exactly.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from collections.abc import Iterator
from typing import Sequence

import numpy as np

from . import analysis, lcu, sparsegrid
from .analysis import KorobovTestFunction

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VIOLATION = 3

DEFAULT_EPS_GRID = [float(f"{e:.17g}") for e in np.logspace(-4, np.log10(0.5), 10)]


class ConfigError(Exception):
    pass


def fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _zero_function(d: int) -> KorobovTestFunction:
    zero = analysis._SeparableProduct([np.zeros_like] * d)
    return KorobovTestFunction("zero", d, zero, zero, 0.0, 0.0)


def resolve_function(args) -> KorobovTestFunction:
    if args.expr and args.fn:
        raise ConfigError("give either --fn or --expr, not both")
    if args.expr:
        names = [part.strip() for part in args.expr.split("*")]
        unknown = [nm for nm in names if nm not in analysis.FACTORS]
        if unknown:
            raise ConfigError(
                f"unknown factor(s) {unknown}; choose from {sorted(analysis.FACTORS)}"
            )
        func = analysis.separable_function(args.expr, names)
        if args.d is not None and args.d != func.d:
            raise ConfigError(f"--d {args.d} does not match the {func.d}-factor --expr")
        return func
    name = args.fn or "prod-quad"
    d = args.d if args.d is not None else 1
    if name == "zero":
        return _zero_function(d)
    try:
        return analysis.corpus_function(name, d)
    except KeyError as exc:
        raise ConfigError(str(exc)) from None


def parse_points(text: str, d: int) -> list[np.ndarray]:
    points = []
    for chunk in text.split(";"):
        if any(c.strip() == "" for c in chunk.split(",")):
            raise ConfigError(f"point {chunk!r} has an empty coordinate")
        coords = [float(c) for c in chunk.split(",")]
        if len(coords) != d:
            raise ConfigError(f"point {chunk!r} does not have {d} coordinates")
        if any(not 0.0 <= c <= 1.0 for c in coords):
            raise ConfigError(f"point {chunk!r} leaves [0,1]^d")
        points.append(np.array(coords))
    if not points:
        raise ConfigError("no evaluation points given")
    return points


def _parse_float(text: str, option: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"cannot parse {option} {text!r}") from None


def parse_p(text: str) -> float:
    """--p as a float ("oo" is inf too); the library checks 2 <= p <= inf."""
    return math.inf if text == "oo" else _parse_float(text, "--p")


def parse_n_range(args) -> list[int]:
    if args.n_range:
        try:
            lo, hi = args.n_range.split("..")
            lo, hi = int(lo), int(hi)
        except ValueError:
            raise ConfigError(f"cannot parse --n-range {args.n_range!r}") from None
        if hi < lo:
            raise ConfigError("--n-range must be increasing")
        return list(range(lo, hi + 1))
    if args.n is not None:
        return [args.n]
    raise ConfigError("need --n or --n-range")


def check_out(path: str) -> None:
    """Refuse, before any work, an --out that names a directory or lies in none."""
    directory = os.path.dirname(path) or "."
    if os.path.isdir(path):
        raise ConfigError(f"cannot write --out {path}: it is a directory")
    if not os.path.isdir(directory):
        raise ConfigError(f"cannot write --out {path}: no directory {directory}")


@contextlib.contextmanager
def _output(path: str | None):
    """The text stream of --out ``path``, or stdout; an OSError becomes a ConfigError."""
    if not path:
        yield sys.stdout
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise ConfigError(f"cannot write --out {path}: {exc.strerror or exc}") from None


def write_out(text: str, path: str | None) -> None:
    with _output(path) as fh:
        fh.write(text)


def write_json(doc, path: str | None) -> None:
    """``json_text(doc)`` to ``path`` or stdout, handed over in pieces, never joined."""
    with _output(path) as fh:
        json_text(doc, fh)


def csv_text(header: Sequence[str], rows: Sequence[Sequence], comments: Sequence[str] = ()) -> str:
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(header))
    lines.extend(",".join(fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


_encode_str = json.encoder.encode_basestring_ascii
_ONLY_INT = {int}

# A finite float array of at least DISTINCT_MIN_VALUES values is written from
# the texts of its distinct values and rows: with 18 distinct values that took
# 0.26 ms at 256 values against 0.37 ms for one template, and 0.12 against
# 0.09 ms at 64 (2-vCPU x86 host).  When most values of an evenly spaced
# sample of fewer than 2 * DISTINCT_SAMPLE of them are distinct, the template
# is used instead, since the sort would cost more than the repeats save.
DISTINCT_MIN_VALUES = 256
DISTINCT_SAMPLE = 1024


# Once this many pieces have gathered after an item of a list, they go to the
# stream, so a long list, lazily made or not, is never held whole as text.
SPILL_PIECES = 1 << 14


def json_text(doc, stream=None) -> str | None:
    """``doc`` as the text of ``json.dumps(doc, indent=2) + "\\n"``, with these values.

    A finite float is written as its shortest round-trip repr, a non-finite
    one as the string "inf", "-inf" or "nan"; a numpy scalar of at most 8
    bytes as its ``.item()``, a tuple or an iterator as a list and a float
    ndarray of at most 8-byte floats as its ``tolist()``.  Any other type
    json cannot write raises ``TypeError``, a long double included.

    A float array whose dtype, shape, indent and bytes repeat one written
    earlier in the same document reuses that text, as does a list of plain
    ints at the same indent; the texts are dropped when the call returns.

    With a text ``stream`` the pieces of the text go to its ``writelines``
    unjoined, in batches cut between list items, and None is returned; the
    items of an iterator need then never be held at once.
    """
    out: list[str] = []
    _write_json(doc, "\n", out, {}, stream)
    out.append("\n")
    if stream is None:
        return "".join(out)
    stream.writelines(out)
    return None


def _float_text(x: float) -> str:
    text = float.__repr__(x)
    return text if math.isfinite(x) else _encode_str(text)


def _key_text(key) -> str:
    # json's rule for dict keys: str as is, numbers, bools and None as their JSON text
    if not isinstance(key, str):
        if not (isinstance(key, (int, float)) or key is None):
            raise TypeError(f"keys must be str, int, float, bool or None, "
                            f"not {type(key).__name__}")
        key = json.dumps(key)
    return _encode_str(key)


def _write_json(obj, nl: str, out: list[str], texts: dict, stream) -> None:
    """Append the text of ``obj``, whose line starts with ``nl`` (newline and indent).

    ``texts`` maps (dtype, shape, indent, bytes) of each finite float array
    and (indent, *values) of each non-empty list of plain ints written so far
    in this document to its text; ``stream``, if any, takes the pieces of
    ``out`` as a list is written.  A plain str, float or int is told by its
    exact type and a list of plain ints is one ``str.join``; a bool, a
    subclass or a numpy value takes the ``isinstance`` chain after them.
    """
    kind = type(obj)
    if kind is str:
        out.append(_encode_str(obj))
    elif kind is float:
        out.append(_float_text(obj))
    elif kind is int:
        out.append(int.__repr__(obj))
    elif isinstance(obj, dict):
        inner = nl + "  "
        out.append("{")
        for i, (key, value) in enumerate(obj.items()):
            key = _encode_str(key) if type(key) is str else _key_text(key)
            out.append(("," if i else "") + inner + key + ": ")
            _write_json(value, inner, out, texts, stream)
        out.append(nl + "}" if obj else "}")
    elif kind is list and {*map(type, obj)} == _ONLY_INT:  # a non-empty list of plain ints
        key = (nl, *obj)
        text = texts.get(key)
        if text is None:
            inner = nl + "  "
            text = texts[key] = "[" + inner + ("," + inner).join(map(str, obj)) + nl + "]"
        out.append(text)
    elif isinstance(obj, np.ndarray) and obj.dtype.kind == "f" and obj.itemsize <= 8:
        key = (obj.dtype, obj.shape, nl, obj.tobytes())
        text = texts.get(key)  # kept for finite arrays only
        if text is not None:
            out.append(text)
        elif np.isfinite(obj).all():
            text = texts[key] = _float_array_text(obj, nl)
            out.append(text)
        else:  # non-finite values print as strings, one element at a time
            _write_json(obj.tolist(), nl, out, texts, stream)
    elif isinstance(obj, (list, tuple, Iterator)):
        inner = nl + "  "
        out.append("[")
        empty = True
        for value in obj:
            out.append(inner if empty else "," + inner)
            _write_json(value, inner, out, texts, stream)
            empty = False
            if stream is not None and len(out) >= SPILL_PIECES:
                stream.writelines(out)
                out.clear()
        out.append("]" if empty else nl + "]")
    elif isinstance(obj, str):
        out.append(_encode_str(obj))
    elif obj is None or obj is True or obj is False:
        out.append("null" if obj is None else "true" if obj else "false")
    elif isinstance(obj, float):
        out.append(_float_text(obj))
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, (np.floating, np.integer)) and obj.itemsize <= 8:
        # a long double's item() is itself: unwritable
        _write_json(obj.item(), nl, out, texts, stream)
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _bracketed(items: list[str], outer: str) -> str:
    """The JSON list of the item texts, its items on lines indented past ``outer``.

    ``items`` is consumed: the brackets go onto its first and last item, so a
    long list is copied once, by one ``str.join``.
    """
    inner = outer + "  "
    items[0] = "[" + inner + items[0]
    items[-1] += outer + "]"
    return ("," + inner).join(items)


def _distinct(keys: np.ndarray) -> np.ndarray:
    """``np.unique(keys)`` for a 1-D integer array, by one sort and a neighbour test.

    numpy 2.x finds the distinct integers of ``np.unique`` by a hash table:
    on the 131,072 value bits of the d=3, n=4 trace's F that took 3.7 ms
    against 0.3 ms for the sort (2-vCPU x86 host).
    """
    keys = np.sort(keys)
    new = np.empty(keys.size, dtype=bool)
    new[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    return keys[new]


def _float_array_text(arr: np.ndarray, nl: str) -> str:
    """A finite float array as the text of its nested ``tolist()``.

    Values are told apart by their bits, so 0.0 and -0.0 stay distinct.  A
    large array with few distinct values calls ``float.__repr__`` once per
    distinct value and writes each distinct innermost row once; the rows are
    then put in place by their inverse index, one ``str.join`` per list.
    Any other array fills a ``%s`` template of its layout with the repr of
    every value, which costs no sort.
    """
    flat = np.ascontiguousarray(arr).reshape(-1)
    bits = flat.view(f"u{flat.itemsize}")
    sample = bits[::max(1, bits.size // DISTINCT_SAMPLE)]
    if bits.size < DISTINCT_MIN_VALUES or 2 * len(_distinct(sample)) > sample.size:
        template = "%s"
        for depth in range(arr.ndim - 1, -1, -1):
            template = (_bracketed([template] * arr.shape[depth], nl + "  " * depth)
                        if arr.shape[depth] else "[]")
        return template % tuple(map(float.__repr__, flat.tolist()))
    values = _distinct(bits)
    codes = np.searchsorted(values, bits)  # cheaper than np.unique's return_inverse
    texts = list(map(float.__repr__, values.view(flat.dtype).tolist()))
    depth, width = arr.ndim - 1, arr.shape[-1]
    if depth and width * len(texts).bit_length() < np.iinfo(np.intp).bits:  # one key per row
        dims = (len(texts),) * width
        keys = np.ravel_multi_index(codes.reshape(-1, width).T, dims)
        rows = _distinct(keys)
        codes = np.searchsorted(rows, keys)
        outer = nl + "  " * depth
        texts = [_bracketed([texts[c] for c in row], outer)
                 for row in np.column_stack(np.unravel_index(rows, dims)).tolist()]
        depth -= 1
    items = np.array(texts, dtype=object)[codes].tolist()
    for depth in range(depth, -1, -1):
        size, outer = arr.shape[depth], nl + "  " * depth
        items = [_bracketed(items[i:i + size], outer) for i in range(0, len(items), size)]
    return items[0]


# ---------------------------------------------------------------------------
# subcommands

def cmd_eval(args) -> int:
    func = resolve_function(args)
    n = args.n if args.n is not None else 2
    points = parse_points(args.x or "0.5", func.d)
    smap = sparsegrid.surplus_coefficients(func.f, n, func.d)
    rows = []
    for x in points:
        classical = smap.evaluate(x)
        value, report = lcu.evaluate_via_circuit(
            smap, x, include_identity=args.include_identity_gates
        )
        row = {
            "x": list(map(float, x)),
            "classical": classical,
            "circuit": value,
            "abs_diff": abs(classical - value),
            "true": float(func.f(x[None, :])[0]),
            "width": report.width,
            "gate_count": report.gate_count,
            "multi_depth": report.multi_depth,
            "layered_depth": report.layered_depth,
            "touch_depth": report.touch_depth,
        }
        if args.normalized:
            weights = sparsegrid.chebyshev_expansion(smap, x)["weight"]
            # Python's left-to-right sum: numpy's pairwise sum can differ in the last bit
            one_norm = float(sum(np.abs(weights).tolist()))
            row["one_norm"] = one_norm
            row["normalized_amplitude"] = value / one_norm if one_norm else 0.0
        rows.append(row)
    if args.format == "json":
        write_json({"function": func.name, "d": func.d, "n": n, "rows": rows}, args.out)
    else:
        keys = [k for k in rows[0] if k != "x"]
        header = [f"x_{j + 1}" for j in range(func.d)] + keys
        table = [[*r["x"], *[r[k] for k in keys]] for r in rows]
        write_out(csv_text(header, table, [f"function={func.name} d={func.d} n={n}"]), args.out)
    return EXIT_OK


def cmd_coeffs(args) -> int:
    func = resolve_function(args)
    n = args.n if args.n is not None else 2
    smap = sparsegrid.surplus_coefficients(func.f, n, func.d)
    doc = smap.to_json_dict()
    if args.quadrature:
        quadrature = sparsegrid.integral_column(func.mixed_derivative, n, func.d).tolist()
        for entry, q in zip(doc["entries"], quadrature):
            entry["quadrature"] = q
    doc["function"] = func.name
    write_json(doc, args.out)
    return EXIT_OK


def _svg_polyline(xs, ys, width=480, height=360, margin=42):
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    sx = lambda x: margin + (x - x0) / max(x1 - x0, 1e-12) * (width - 2 * margin)
    sy = lambda y: height - margin - (y - y0) / max(y1 - y0, 1e-12) * (height - 2 * margin)
    return sx, sy


def svg_convergence(study: analysis.ConvergenceStudy) -> str:
    rows = [(math.log2(r.N), math.log2(e)) for r, e in zip(study.rows, study.errors_for_p())
            if e and e > 0 and r.N >= 2]
    label = (
        f"{study.function} d={study.d} p={study.p} "
        f"log-exponent 3(d-1)={3 * (study.d - 1)} slope={fmt(study.slope)}"
    )
    svg = ['<svg xmlns="http://www.w3.org/2000/svg" width="480" height="360">',
           f'  <text x="10" y="16" font-size="11">{label}</text>']
    if rows:  # with no plottable row the plot is the label alone
        xs, ys = zip(*rows)
        sx, sy = _svg_polyline(xs, ys)
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in rows)
        # reference line of slope -2 through the first point
        ref = " ".join(f"{sx(x):.2f},{sy(ys[0] - 2.0 * (x - xs[0])):.2f}" for x in (xs[0], xs[-1]))
        svg += [f'  <polyline points="{ref}" fill="none" stroke="#999" stroke-dasharray="4 3"/>',
                f'  <polyline points="{pts}" fill="none" stroke="#125699" stroke-width="1.5"/>']
    return "\n".join(svg + ["</svg>", ""])


def cmd_convergence(args) -> int:
    func = resolve_function(args)
    p = parse_p(args.p or "inf")
    n_values = parse_n_range(args)
    study = analysis.convergence_study(func, p, n_values, seed=args.seed)
    if args.format == "svg":
        write_out(svg_convergence(study), args.out)
        return EXIT_OK
    if args.format == "json":
        doc = {
            "function": func.name,
            "d": func.d,
            "p": p,
            "log_exponent": 3 * (func.d - 1),
            "rows": [
                {"n": r.n, "N": r.N, "error_inf": r.error_inf,
                 "error_2": r.error_2, "error_p": r.error_p}
                for r in study.rows
            ],
            "slope": study.slope,
            "slope_ci": study.slope_stderr,
            "raw_slope": study.raw_slope,
            "shape_constant": study.shape_constant,
        }
        write_json(doc, args.out)
        return EXIT_OK
    errs = study.errors_for_p()
    general_p = p not in (2.0, math.inf)  # the slope is fitted on error_p
    rows = []
    for k, row in enumerate(study.rows):
        _, _, fit = analysis._slope_fits(study.rows[: k + 1], errs[: k + 1], func.d)
        running = fit[0] if fit else None
        rows.append([row.n, row.N, row.error_inf, row.error_2,
                     *([row.error_p] if general_p else []), running])
    header = ["n", "N", "error_inf", "error_2", *(["error_p"] if general_p else []),
              "slope_running"]
    comments = [
        f"function={func.name} d={func.d} p={fmt(p)} "
        f"log_exponent=3(d-1)={3 * (func.d - 1)}"
    ]
    write_out(csv_text(header, rows, comments), args.out)
    return EXIT_OK


def cmd_resources(args) -> int:
    p = parse_p(args.p or "2")
    eps_values = (
        [_parse_float(e, "--eps") for e in args.eps.split(",")] if args.eps else DEFAULT_EPS_GRID
    )
    d_values = [args.d] if args.d is not None else [1, 2, 3, 4, 5]
    estimates = []
    for d in d_values:
        for eps in eps_values:
            try:
                est = analysis.resource_estimate(eps, d, p)
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
            estimates.append(
                {
                    "epsilon": est.epsilon, "d": est.d,
                    "p": est.p,
                    "formula": est.formula, "alpha": est.alpha, "beta": est.beta,
                    "lambert_w": est.lambert_w_value,
                    "refined_depth": est.predicted_depth_bound,
                    "refined_width": est.predicted_width_bound,
                    "simplified_depth": est.simplified_depth_bound,
                    "simplified_width": est.simplified_width_bound,
                }
            )
    n_values = parse_n_range(args) if (args.n is not None or args.n_range) else [1, 2, 3, 4]
    if args.format == "csv":
        header = ["epsilon", "d", "formula", "lambert_w", "refined_depth",
                  "refined_width", "simplified_depth", "simplified_width"]
        rows = [[e["epsilon"], e["d"], e["formula"], e["lambert_w"], e["refined_depth"],
                 e["refined_width"], e["simplified_depth"], e["simplified_width"]]
                for e in estimates]
        write_out(csv_text(header, rows, [f"p={fmt(p)}"]), args.out)
        return EXIT_OK
    funcs = {}
    for d in d_values:  # every d's largest build is checked before the first is made
        with contextlib.suppress(KeyError):
            funcs[d] = analysis.corpus_function("prod-quad", d)
            sparsegrid._check_surplus_size(n_values[-1], d)
    measured = []
    for d in d_values:
        for n in n_values:
            func = funcs.get(d)
            if func is None:
                measured.append({"d": d, "n": n, "feasible": False,
                                 "reason": "no corpus function for this d"})
                continue
            smap = sparsegrid.surplus_coefficients(func.f, n, d)
            terms = sparsegrid.chebyshev_expansion(smap, analysis.generic_point(d))
            plan = lcu.plan_from_terms(terms, d)
            report = lcu.hadamard_test_report(plan)
            measured.append(
                {"d": d, "n": n, "terms": plan.term_count, "width": report.width,
                 "touch_depth": report.touch_depth, "gate_count": report.gate_count,
                 "feasible": True}
            )
    doc = {"p": p, "estimates": estimates, "measured": measured}
    write_json(doc, args.out)
    return EXIT_OK


def cmd_audit(args) -> int:
    n_max = args.n if args.n is not None else 4
    if n_max < 1:
        raise ConfigError("--n must be at least 1")
    funcs = [
        fn for fn in analysis.corpus()
        if (fn.d <= 2 if args.d is None else fn.d == args.d)
        and (args.fn is None or fn.name == args.fn)
    ]
    if not funcs:
        raise ConfigError("no corpus function matches the audit filter")
    for func in funcs:  # the largest builds, checked before the first is made
        sparsegrid._check_surplus_size(n_max, func.d)
    audits = []
    for func in funcs:
        for n in range(1, n_max + 1):
            smap = sparsegrid.surplus_coefficients(func.f, n, func.d)
            audit = analysis.coefficient_bound_audit(func, smap, scale=args.scale_coeffs)
            gap = analysis.dual_oracle_gap(func, smap)
            audits.append((audit, gap, 1e-8 if func.d == 1 else 1e-6))
    failed = any(not audit.passed or gap > gap_tol for audit, gap, gap_tol in audits)
    reports = [{
        "function": audit.function, "d": audit.d, "n": audit.n,
        "max_ratio_inf": audit.max_ratio_inf,
        "max_ratio_2": audit.max_ratio_2,
        "violations": ({"level": list(g.level), "index": list(g.index), "bound": which,
                        "ratio": ratio} for g, which, ratio in audit.violations()),  # never held
        "stencil_vs_integral_max_gap": gap,
        "gap_tolerance": gap_tol,
    } for audit, gap, gap_tol in audits]
    write_json({"scale": args.scale_coeffs, "pass": not failed, "reports": reports}, args.out)
    return EXIT_VIOLATION if failed else EXIT_OK


def cmd_circuit(args) -> int:
    func = resolve_function(args)
    n = args.n if args.n is not None else 2
    points = parse_points(args.x or "0.5", func.d)
    if len(points) != 1:
        raise ConfigError(f"circuit traces one point; --x gives {len(points)}")
    [x] = points
    smap = sparsegrid.surplus_coefficients(func.f, n, func.d)
    plan = lcu.plan_from_terms(
        sparsegrid.chebyshev_expansion(smap, x), func.d,
        include_identity=args.include_identity_gates,
    )
    # a point no term supports (grid lines, boundary) traces the empty circuit
    doc = {
        "function": func.name, "d": func.d, "n": n, "x": list(map(float, x)),
        "width": 0, "terms": 0, "one_norm": 0.0, "ops": [],
    }
    if plan is not None:
        circuit = lcu.hadamard_test_circuit(lcu.assemble_lcu(plan))
        doc.update(width=circuit.width, terms=plan.term_count, one_norm=plan.one_norm,
                   ops=lcu.circuit_json_ops(circuit))
    write_json(doc, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing

OPTIONS = {
    "--config": dict(help="JSON file with defaults; flags override"),
    "--fn": dict(help="corpus function name (or 'zero')"),
    "--expr": dict(help="product of factors, e.g. 'x(1-x)*sin(pi x)'"),
    "--d": dict(type=int, help="dimension"),
    "--n": dict(type=int, help="truncation level"),
    "--n-range": dict(help="inclusive level range A..B"),
    "--p": dict(help="norm: 2, inf, or a float in (2, inf)"),
    "--x": dict(help="points: coords comma-separated, points ';'-separated"),
    "--eps": dict(help="comma-separated epsilon grid"),
    "--out": dict(help="output path (default stdout)"),
    "--seed": dict(type=int, default=0),
    "--normalized": dict(action="store_true", default=False,
                         help="also report the pre-rescaling amplitude"),
    "--quadrature": dict(action="store_true", default=False,
                         help="add the integral-formula cross value per entry"),
    "--include-identity-gates": dict(default=True, action=argparse.BooleanOptionalAction,
                                     help="materialise zero-angle phase gates (default on)"),
    "--scale-coeffs": dict(type=float, default=1.0,
                           help="test hook: scale coefficients by this factor"),
}

# Each subcommand: its handler, its output formats (the first is the default;
# none for a JSON-only command) and the options its handler reads.  --config
# and --out go to every command.
COMMANDS = {
    "eval": (cmd_eval, ["csv", "json"],
             "--fn --expr --d --n --x --normalized --include-identity-gates"),
    "coeffs": (cmd_coeffs, [], "--fn --expr --d --n --quadrature"),
    "convergence": (cmd_convergence, ["csv", "json", "svg"],
                    "--fn --expr --d --n --n-range --p --seed"),
    "resources": (cmd_resources, ["json", "csv"], "--d --n --n-range --p --eps"),
    "audit": (cmd_audit, [], "--fn --d --n --scale-coeffs"),
    "circuit": (cmd_circuit, [], "--fn --expr --d --n --x --include-identity-gates"),
}


def _command_options(command: str) -> dict[str, tuple[str, dict]]:
    """The options of ``command``: dest -> (flag, argparse keyword arguments)."""
    _, formats, flags = COMMANDS[command]
    options = [(flag, OPTIONS[flag]) for flag in ["--config", *flags.split(), "--out"]]
    if formats:
        options.append(("--format", dict(choices=formats, default=formats[0])))
    return {flag[2:].replace("-", "_"): (flag, kwargs) for flag, kwargs in options}


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The ``qkorobov`` parser and its subparsers by command name."""
    parser = argparse.ArgumentParser(
        prog="qkorobov",
        description="sparse-grid interpolants compiled to QSP+LCU circuits",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, _, _) in COMMANDS.items():
        sp = sub.add_parser(name)
        sp.set_defaults(handler=handler)
        for flag, kwargs in _command_options(name).values():
            sp.add_argument(flag, **kwargs)
    return parser, sub.choices


# JSON types a config value may have, by the argparse type of its option
_CONFIG_TYPES = {
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    None: ((str, int, float), "a string or number"),
}


def _config_value(attr: str, value, kwargs: dict):
    """A config value checked and converted like the same flag on the command line."""
    if "action" in kwargs:
        if not isinstance(value, bool):
            raise ConfigError(f"config key {attr!r} must be true or false, got {value!r}")
        return value
    convert = kwargs.get("type")
    types, kind = _CONFIG_TYPES[convert]
    if isinstance(value, bool) or not isinstance(value, types):
        raise ConfigError(f"config key {attr!r} must be {kind}, got {value!r}")
    value = convert(value) if convert else str(value)
    if "choices" in kwargs and value not in kwargs["choices"]:
        raise ConfigError(f"config key {attr!r} must be one of {kwargs['choices']}")
    return value


def _config_defaults(args) -> dict:
    """The values of the --config file, checked against the options of the command."""
    try:
        with open(args.config, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read --config: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("--config must hold a JSON object")
    options = _command_options(args.command)
    defaults = {}
    for key, value in doc.items():
        attr = key.replace("-", "_")
        if attr == "config" or attr not in options:
            raise ConfigError(f"config key {key!r} is not an option of {args.command!r}")
        defaults[attr] = _config_value(attr, value, options[attr][1])
    return defaults


def _parse(parser, subparsers, argv) -> argparse.Namespace:
    # argparse hands a subcommand's unknown options up to the top-level parser;
    # report them with the usage of the command they were given to
    args, extras = parser.parse_known_args(argv)
    if extras:
        subparsers[args.command].error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv=None) -> int:
    parser, subparsers = build_parser()
    try:
        args = _parse(parser, subparsers, argv)
        if args.config:
            # config values become the subcommand's defaults, so explicit flags win
            subparsers[args.command].set_defaults(**_config_defaults(args))
            args = _parse(parser, subparsers, argv)
        if getattr(args, "seed", 0) < 0:  # from the command line or the --config file
            raise ConfigError(f"--seed must be a non-negative integer, got {args.seed}")
        if args.out:
            check_out(args.out)
        return args.handler(args)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    except (ConfigError, ValueError) as exc:
        # the library raises ValueError for out-of-range input such as --n 0
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
