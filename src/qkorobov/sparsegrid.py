"""Hierarchical hat basis, sparse grids, and surplus coefficients.

The level-l grid on [0,1] keeps the odd multiples of 2^{-l}; the hat centred
at node i*2^{-l} is phi((x - i*2^{-l}) * 2^l) with phi(u) = max(0, 1 - |u|).
A d-dimensional basis function is the product of one hat per coordinate, and
the sparse approximation space of level n keeps every level vector l >= 1
with ||l||_1 <= n + d - 1.

Surplus coefficients follow the unidirectional principle (Bungartz and
Griebel, "Sparse grids", Acta Numerica 13, 2004, section 4): ``f`` is
evaluated once at each of the N nodes, and the one-dimensional stencil
[-1/2, 1, -1/2] is applied one axis at a time.  Along axis j, the levels
that share every other component interleave into one nodal line of
2^L + 1 points whose ends are the zero boundary values, and each level's
surplus reads its own spacing's neighbours off that line.  The work is
O(d N) and the memory O(N).  The zero boundary is checked, not assumed:
``f`` is also evaluated on the 2d face sparse grids (coordinate j fixed at
0 or 1, the rest a level-n node in d - 1 dimensions), which are the
boundary points the stencil reads, so the build costs N plus
2d * grid_count(n, d - 1) evaluations of ``f``.  The integral
representation of the coefficients (hat kernel against the order-2d mixed
derivative) is kept in ``integral_coefficients`` (one level at a time; all
of them in storage order with ``integral_column``) and
``integral_coefficient`` (one node) purely as an independent check, as
products of one 1-D sum per axis of the derivative's ``factors``.

The classical evaluators accept points of [0,1]^d only: ``evaluate``,
``evaluate_batch``, ``evaluate_grid`` and ``chebyshev_expansion`` reject a
non-finite or out-of-domain coordinate with a ValueError.

A ``SurplusMap`` stores each coefficient once, in one read-only column in
storage order: levels in ``enumerate_levels`` order, cells in C order, where
cell c holds the node with odd index 2c + 1.  Each level's array is a view
of the column, and ``_level_layout`` is the one place that computes the
order (``_nodes_at`` inverts it).  GridIndex nodes are built on demand.
``SurplusMap(d, n, coefficients)`` is the one constructor, which
``surplus_coefficients`` (hierarchizing in place through the views) and
``from_json_dict`` (numpy columns of level, index and value) both end in:
it checks the column once and keeps it read-only, without a copy.  Every
read locates its hats with one kernel, ``_axis_cells``: for a coordinate x
and a level l it gives the cell of the one hat whose support holds x, the
hat value 1 - |u| and the local coordinate u in [-1, 1].  ``evaluate`` is
a one-row ``evaluate_batch``; it (per row block) and ``grid_rows`` (behind
``evaluate_grid``) read one ``_cell_table`` of every (axis, level), and
``chebyshev_expansion`` a (d, n) table of its one point.  For a point
inside the supports, each per-coordinate hat splits into Chebyshev
polynomials of degree 0 and 1, 1 -/+ u = P0(u) -/+ P1(u).
``chebyshev_expansion`` emits these terms for the circuit pipeline as one
read-only ``numpy.recarray`` with the columns ``weight``, ``degrees`` and
``arguments``: one gather of the supporting levels' surpluses from the
column, the sign rule applied as an array operation, and no Python object
per term.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
from operator import itemgetter
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

import numpy as np

Level = tuple[int, ...]

# a face value of f counts as non-zero above this share of max |f(nodes)|
BOUNDARY_TOLERANCE = 1e-12
# rows per block of ``SurplusMap.evaluate_batch`` and its cell table: at d=3, n=8
# on a 2-vCPU x86 host, the ``hierarchize`` peak RSS was 45.3 MiB with the old
# prefix-tree walk, 47.9 MiB with 8,192-row tables and 46.0 MiB with 4,096 rows
BATCH_ROWS = 4096
# values per row block of the tensor-grid pass (``SurplusMap.grid_rows`` and the
# error norms): 256 KiB per float buffer, reused block after block (2^14 and
# 2^16 timed the same within noise on the ``verify`` benchmark, 2-vCPU x86 host)
GRID_BLOCK_VALUES = 1 << 15
# the most points an error norm's tensor grid may have, checked before it is read
MAX_GRID_POINTS = 1 << 30
# the most points (nodes plus face points) a surplus build may evaluate f on,
# checked before any node array exists: d=3, n=16 (13.8 M) is the largest
# d=3 build, d=2 stops at n=19 and d=1 at n=23
MAX_SURPLUS_POINTS = 1 << 24
SURPLUS_NODES_PER_CELL = 32


@dataclass(frozen=True)
class GridIndex:
    """One hierarchical node: level vector l and odd index vector i."""

    level: Level
    index: tuple[int, ...]

    @classmethod
    def _trusted(cls, level: Level, index: tuple[int, ...]) -> "GridIndex":
        """An index built without checks, for int tuples valid by construction."""
        g = object.__new__(cls)
        g.__dict__.update(level=level, index=index)
        return g

    def __post_init__(self):
        object.__setattr__(self, "level", tuple(int(l) for l in self.level))
        object.__setattr__(self, "index", tuple(int(i) for i in self.index))
        if len(self.level) != len(self.index):
            raise ValueError("level and index dimensions differ")
        for l, i in zip(self.level, self.index):
            if l < 1:
                raise ValueError(f"level component {l} < 1")
            if not (1 <= i <= 2 ** l - 1) or i % 2 == 0:
                raise ValueError(f"index {i} invalid for level {l} (odd, in [1, 2^l-1])")

    @property
    def d(self) -> int:
        return len(self.level)

    def spacing(self) -> tuple[float, ...]:
        return tuple(2.0 ** -l for l in self.level)

    def node(self) -> tuple[float, ...]:
        return tuple(i * h for i, h in zip(self.index, self.spacing()))


def hat(u):
    """The reference hat max(0, 1 - |u|); accepts scalars or arrays."""
    out = np.maximum(0.0, 1.0 - np.abs(np.asarray(u, dtype=float)))
    return out if out.ndim else float(out)


def enumerate_levels(n: int, d: int) -> list[Level]:
    """All level vectors l >= 1 with ||l||_1 <= n + d - 1, lexicographic."""
    if n < 1 or d < 1:
        raise ValueError("n and d must be >= 1")
    levels: list[Level] = [()]
    for j in range(d):  # component j leaves at least 1 for each of the d - 1 - j after it
        levels = [p + (l,) for p in levels for l in range(1, n + j - sum(p) + 1)]
    return levels


def _check_level(level: Sequence[int]) -> Level:
    level = tuple(int(l) for l in level)
    for l in level:
        if l < 1:
            raise ValueError(f"level component {l} < 1")
    return level


def index_set(level: Sequence[int]) -> list[GridIndex]:
    """All odd index vectors of one level, lexicographic."""
    level = _check_level(level)
    ranges = [range(1, 2 ** l, 2) for l in level]
    # odd and in [1, 2^l - 1] by construction
    return [GridIndex._trusted(level, idx) for idx in itertools.product(*ranges)]


def grid_count(n: int, d: int) -> int:
    """Exact number of sparse-grid nodes at truncation level n.

    The C(k + d - 1, d - 1) levels with ||l||_1 = k + d hold 2^k nodes each,
    for k = 0..n-1, so the count takes O(n) steps whatever d.
    """
    if n < 1 or d < 1:
        raise ValueError("n and d must be >= 1")
    return sum(math.comb(k + d - 1, d - 1) << k for k in range(n))


def _check_surplus_size(n: int, d: int) -> None:
    """Refuse a surplus build above MAX_SURPLUS_POINTS points, before it starts.

    The build evaluates f on grid_count(n, d) nodes and 2d face grids of
    grid_count(n, d - 1) points (2 points at d = 1).
    """
    if n < 1 or d < 1:
        raise ValueError("n and d must be >= 1")
    # level (n, 1, ..., 1) alone holds 2^(n - 1) nodes, so a larger n needs no count
    if n > 64:
        need = f"at least 2^{n - 1} nodes"
    else:
        nodes = grid_count(n, d)
        faces = 2 * d * grid_count(n, d - 1) if d > 1 else 2
        if nodes + faces <= MAX_SURPLUS_POINTS:
            return
        need = f"{nodes:,} nodes + {faces:,} face points"
    raise ValueError(f"a surplus build at d={d}, n={n} evaluates f on {need}, above the "
                     f"limit of {MAX_SURPLUS_POINTS:,} points; use a smaller n or d")


@dataclass(frozen=True, eq=False, repr=False, init=False)
class SurplusMap:
    """Hierarchical surplus coefficients of one function at truncation n.

    ``coefficients`` is the only storage: the N coefficients (zeros
    included) as one read-only column in storage order.  Level l reads it
    through a view of shape (2^(l_1 - 1), ..., 2^(l_d - 1)).  The
    constructor takes the column over without a copy when it is contiguous
    float64, checks it once and makes it, and any array it views, read-only.
    ``items()``, ``entries`` and ``smap[g]`` are views built on demand, in
    lexicographic (level, index) order.
    """

    d: int
    n: int
    coefficients: np.ndarray
    _level_arrays: Mapping[Level, np.ndarray]

    def __init__(self, d: int, n: int, coefficients: np.ndarray):
        d, n = int(d), int(n)
        column = np.ascontiguousarray(coefficients, dtype=float)
        count = grid_count(n, d)
        if column.shape != (count,):
            got = len(column) if column.ndim == 1 else f"{column.ndim}-D array of {column.size}"
            raise ValueError(f"{got} entries, but the level-{n} index set holds {count}")
        finite = np.isfinite(column)
        if not finite.all():
            bad = int(np.argmin(finite))
            g, = _nodes_at(n, d, [bad])
            raise ValueError(
                f"coefficient of level {list(g.level)} index {list(g.index)} "
                f"is {column[bad].item()!r}; every coefficient must be finite")
        base = column
        while isinstance(base, np.ndarray):  # a writeable base would reach the cells too
            base.flags.writeable = False
            base = base.base
        # views taken after freezing are read-only; frozen: the fields are set once, here
        self.__dict__.update(d=d, n=n, coefficients=column,
                             _level_arrays=MappingProxyType(_split_levels(column, n, d)))

    def __len__(self) -> int:
        return self.coefficients.size

    def __getitem__(self, g: GridIndex) -> float:
        return self._level_arrays[g.level][tuple((i - 1) // 2 for i in g.index)].item()

    def levels(self) -> list[Level]:
        return list(self._level_arrays)  # stored in ``enumerate_levels`` order

    def level_values(self, level: Level) -> np.ndarray:
        """The coefficients of one level as a flat array, in ``index_set`` order."""
        return self._level_arrays[tuple(level)].reshape(-1)

    def items(self):
        """(GridIndex, coefficient) pairs in lexicographic (level, index) order."""
        for level in self.levels():
            yield from zip(index_set(level), self.level_values(level).tolist())

    @property
    def entries(self) -> dict[GridIndex, float]:
        """Every node and its coefficient, built from the level arrays."""
        return dict(self.items())

    def evaluate(self, x) -> float:
        """Value of the interpolant at one point of [0,1]^d: one row of ``evaluate_batch``."""
        return float(self.evaluate_batch(_point(x, self.d)[None, :])[0])

    def evaluate_batch(self, points: np.ndarray) -> np.ndarray:
        """Vectorised interpolant values for an (m, d) array of points.

        Per block of BATCH_ROWS rows, one ``_cell_table`` gives the cell and
        hat of every (axis, level), freed before the next block's.  Each level
        of ``_level_layout``, in storage order, gathers its surpluses at the
        C-order positions of its cells, times its hats multiplied in axis
        order, so the values equal a plain per-level loop's bit for bit.
        """
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.d:
            raise ValueError("points must have shape (m, d)")
        _check_domain(points)
        levels, offsets, _ = _level_layout(self.n, self.d)
        layout = list(zip(levels.tolist(), offsets.tolist()))
        total = np.zeros(points.shape[0])
        for a in range(0, len(points), BATCH_ROWS):
            block = total[a:a + BATCH_ROWS]
            table = _cell_table(np.ascontiguousarray(points[a:a + BATCH_ROWS].T), self.n)
            for row, offset in layout:
                position, phi = table[0][row[0]]
                for j in range(1, self.d):  # C order: Horner over the level's cell counts
                    cell, hat_j = table[j][row[j]]
                    position = (position << row[j]) + cell
                    phi = phi * hat_j
                np.add(block, self.coefficients[offset:][position] * phi, out=block)
            del table  # before the next block builds its own
        # a coordinate at 1 has hat +0.0 at every level, so its row sums +-0.0 onto +0.0
        return total

    def evaluate_grid(self, axes: Sequence[np.ndarray], rows: slice | None = None,
                      out: np.ndarray | None = None, read=None) -> np.ndarray:
        """Interpolant on the tensor grid axes[0] x ... x axes[d-1], each axis 1-D.

        Without ``rows`` this is the whole grid, of shape (len(axes[0]), ...,
        len(axes[d-1])), filled by ``grid_rows`` in row blocks of about
        GRID_BLOCK_VALUES values.  With ``rows``, a slice of axis 0, it is
        only those rows, as an array of shape (rows, prod of the later axis
        sizes), written into ``out`` when given.  ``read``, from
        ``grid_rows(axes)``, keeps the root partial sums between calls, so a
        caller that streams the grid one row block at a time (the error
        norms) builds them once.  Every value takes the same operations
        whatever the blocks.
        """
        read = read or self.grid_rows(axes)
        sizes = [len(a) for a in axes]
        inner = math.prod(sizes[1:])
        if rows is not None:
            if out is None:
                out = np.empty((len(range(sizes[0])[rows]), inner))
            return read(rows, out)
        whole = np.empty(sizes)
        flat = whole.reshape(sizes[0], inner)
        step = max(1, GRID_BLOCK_VALUES // max(1, inner))
        for a in range(0, sizes[0], step):
            read(slice(a, a + step), flat[a:a + step])
        return whole

    def grid_rows(self, axes: Sequence[np.ndarray]) -> Callable[[slice, np.ndarray], np.ndarray]:
        """A reader of the interpolant on the tensor grid ``axes``, by blocks of axis-0 rows.

        Sum factorisation over the level prefix tree (Bungartz and Griebel,
        section 4): the partial sum below a prefix (l_0 .. l_{k-1}) is an
        array with one coefficient axis per prefix level and one grid axis
        per remaining coordinate.  Each child l_k contributes one gather of
        its level-l_k cells along axis k, times that axis's hat, so every
        (axis, level) cell and hat is computed once.  The partial sums below
        the n root levels l_0 do not depend on axis 0, so the reader builds
        them on its first call and keeps them: (2^n - 1) x prod(sizes[1:])
        values, the only memory it holds besides one scratch block.  The axes
        are checked here, before anything is built.  ``read(rows, out)`` writes
        the values of the rows ``axes[0][rows]`` into ``out``, a float array
        of shape (rows, prod(sizes[1:])), and returns it: per root level one
        gather of its cells, times the hat, added in l_0 order.  Each value
        takes the same operations whatever the blocks, and the sums group by
        prefix instead of running level by level, so values differ from a
        plain per-level loop by rounding only.
        """
        if len(axes) != self.d:
            raise ValueError(f"need {self.d} axes")
        axes = [np.asarray(a, dtype=float) for a in axes]
        for j, a in enumerate(axes):
            if a.ndim != 1:
                raise ValueError(f"axis {j} has shape {a.shape}; each axis must be 1-D")
            _check_domain(a[:, None], f"axis {j} entry")
        d, arrays = self.d, self._level_arrays
        sizes = [len(a) for a in axes]
        cells = []  # _cell_table(axes, n), built with the roots

        def contract(prefix: Level, budget: int) -> np.ndarray:
            # (prefix cells, axis k, remaining grid axes) sum over the subtree
            k = len(prefix)
            outer = math.prod(2 ** (l - 1) for l in prefix)
            inner = math.prod(sizes[k + 1:])
            out = np.empty((outer, sizes[k], inner))
            buf = np.empty_like(out)
            for l in range(1, budget - (d - 1 - k) + 1):
                level = prefix + (l,)
                sub = arrays[level] if k + 1 == d else contract(level, budget - l)
                cell, hat_k = cells[k][l - 1]
                target = out if l == 1 else buf
                # the cells are in range; "clip" lets take write into target unbuffered
                np.take(sub.reshape(outer, -1, inner), cell, axis=1, out=target, mode="clip")
                target *= hat_k[:, None]
                if l > 1:
                    out += buf
            return out

        inner = math.prod(sizes[1:])
        roots = []  # per root level l_0: its axis-0 cells and hats, and the sum below it
        scratch = np.empty(0)

        def read(rows: slice, out: np.ndarray) -> np.ndarray:
            nonlocal scratch
            if not roots:
                cells.extend(_cell_table(axes, self.n))
                for l, (cell, hat_0) in enumerate(cells[0], 1):
                    partial = arrays[(l,)] if d == 1 else contract((l,), self.n + d - 1 - l)
                    roots.append((cell, hat_0, partial.reshape(2 ** (l - 1), inner)))
            if scratch.size < out.size:
                scratch = np.empty(out.size)
            buf = scratch[:out.size].reshape(out.shape)
            for l, (cell, hat_0, partial) in enumerate(roots, 1):
                target = out if l == 1 else buf
                np.take(partial, cell[rows], axis=0, out=target, mode="clip")
                target *= hat_0[rows, None]
                if l > 1:
                    out += buf
            return out

        return read

    # -- JSON round trip ----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "n": self.n,
            "entries": [
                {"level": list(g.level), "index": list(g.index), "value": v}
                for g, v in self.items()
            ],
        }

    def dumps(self, **kwargs) -> str:
        return json.dumps(self.to_json_dict(), **kwargs)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "SurplusMap":
        """The map of a ``to_json_dict`` document: each node of the index set once."""
        d, n = int(doc["d"]), int(doc["n"])
        rows, m = doc["entries"], len(doc["entries"])
        for e in rows:
            if len(e["level"]) != d or len(e["index"]) != d:
                raise _outside(GridIndex(e["level"], e["index"]), n, d)
        level, index = (
            np.fromiter(itertools.chain.from_iterable(map(itemgetter(key), rows)),
                        dtype=np.int64, count=m * d).reshape(m, d)
            for key in ("level", "index"))
        values = np.fromiter(map(itemgetter("value"), rows), dtype=float, count=m)
        ok = ((level >= 1) & (index >= 1) & (index < 2.0 ** level) & (index % 2 == 1)).all(1)
        ok &= level.sum(axis=1) <= n + d - 1
        if not ok.all():
            k = int(np.argmin(ok))
            raise _outside(GridIndex(level[k], index[k]), n, d)  # GridIndex raises first
        keys = np.concatenate([level, index], axis=1)
        order = np.lexsort(keys.T[::-1])  # (level, index) lexicographic: the storage order
        repeat = (keys[order[1:]] == keys[order[:-1]]).all(axis=1)
        if repeat.any():
            k = int(order[1:][repeat].min())
            raise ValueError(
                f"node level {level[k].tolist()} index {index[k].tolist()} appears twice")
        return cls(d, n, values[order])

    @classmethod
    def loads(cls, text: str) -> "SurplusMap":
        return cls.from_json_dict(json.loads(text))


def _outside(g: GridIndex, n: int, d: int) -> ValueError:
    return ValueError(f"node level {list(g.level)} index {list(g.index)} is not in the "
                      f"level-{n} index set of dimension {d}")


def _check_domain(points: np.ndarray, row_name: str = "row") -> None:
    """Reject an (m, k) array holding a non-finite value or one outside [0, 1]."""
    inside = (points >= 0.0) & (points <= 1.0)  # False for NaN
    if not inside.all():
        row = int(np.argmin(inside.all(axis=1)))
        raise ValueError(
            f"{row_name} {row} ({points[row].tolist()}) is not a point of [0,1]^d; "
            "every coordinate must be finite and in [0, 1]"
        )


def _point(x, d: int) -> np.ndarray:
    """One point of [0,1]^d as a flat array; a wrong dimension or domain raises."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != d:
        raise ValueError(f"point of dimension {x.size} does not match d={d}")
    _check_domain(x[None, :])
    return x


def _axis_cells(x: np.ndarray, l: int):
    """Cell (i - 1) / 2, hat and local coordinate u of level ``l`` at ``x`` in [0, 1].

    This is the one place that locates hats.  The odd index
    i = 2 floor(x 2^(l-1)) + 1 has the support that holds x, and
    u = x 2^l - i = 2 frac(x 2^(l-1)) - 1 exactly, so the hat is 1 - |u|.
    At x = 1 the index leaves the level: the cell is clipped to the last
    one, where the hat is 0.
    """
    q = x * 2.0 ** (l - 1)
    whole = np.floor(q)
    u = 2.0 * (q - whole) - 1.0
    return np.minimum(whole, 2 ** (l - 1) - 1).astype(np.int64), 1.0 - np.abs(u), u


def _cell_table(axes: Sequence[np.ndarray], n: int):
    """Cell and hat of every axis and level: entry [j][l - 1] holds level l on axis j."""
    return [[_axis_cells(a, l)[:2] for l in range(1, n + 1)] for a in axes]


@functools.lru_cache(maxsize=None)
def _level_layout(n: int, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where each level's cells sit in ``SurplusMap.coefficients``, as read-only arrays.

    Row k is level k of ``enumerate_levels(n, d)``: ``levels`` holds l - 1
    (also the column of level l in a ``_axis_cells`` table), and cell c of
    that level is entry offsets[k] + sum_j c_j << shifts[k, j] of the
    buffer, its C-order position after the levels before it.
    """
    levels = np.array(enumerate_levels(n, d), dtype=np.int64) - 1
    offsets = np.concatenate([[0], np.cumsum(1 << levels.sum(axis=1))[:-1]])
    shifts = np.cumsum(levels[:, ::-1], axis=1)[:, ::-1] - levels  # sum over the axes after j
    for table in (levels, offsets, shifts):
        table.flags.writeable = False
    return levels, offsets, shifts


def _nodes_at(n: int, d: int, positions) -> list[GridIndex]:
    """The nodes at ``positions`` of a level-n column: ``_level_layout`` inverted.

    Position p is in the last level k with offsets[k] <= p, and its cell on
    axis j is the l_j - 1 bits of p - offsets[k] from bit shifts[k, j] up.
    """
    levels, offsets, shifts = _level_layout(n, d)
    positions = np.asarray(positions, dtype=np.int64)
    k = np.searchsorted(offsets, positions, side="right") - 1
    cells = ((positions - offsets[k])[:, None] >> shifts[k]) & ((1 << levels[k]) - 1)
    return [GridIndex._trusted(tuple(level), tuple(index))
            for level, index in zip((levels[k] + 1).tolist(), (2 * cells + 1).tolist())]


def _level_nodes(level: Level) -> np.ndarray:
    """Nodes of one level as an (m, d) array, rows in ``index_set`` order."""
    axes = [np.arange(1, 2 ** l, 2) * 2.0 ** -l for l in level]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=1)


def _split_levels(flat: np.ndarray, n: int, d: int) -> dict[Level, np.ndarray]:
    """Per-level views of a column in storage order, cut at ``_level_layout``'s offsets."""
    levels, offsets, _ = _level_layout(n, d)
    return {tuple(l + 1 for l in row): flat[start:start + (1 << sum(row))].reshape(
                [1 << l for l in row])
            for row, start in zip(levels.tolist(), offsets.tolist())}


def _face_points(n: int, d: int) -> np.ndarray:
    """The 2d face sparse grids: x_j in {0, 1}, the rest a level-n node."""
    if d == 1:
        rest = np.empty((1, 0))
    else:
        rest = np.concatenate([_level_nodes(l) for l in enumerate_levels(n, d - 1)])
    return np.concatenate(
        [np.insert(rest, j, side, axis=1) for j in range(d) for side in (0.0, 1.0)]
    )


def _hierarchize_axis(arrays: dict[Level, np.ndarray], j: int) -> None:
    """Apply the 1-D stencil [-1/2, 1, -1/2] along axis j to nodal level arrays, in place.

    Levels that agree off axis j hold l_j = 1..top; their arrays interleave
    into one nodal line of 2^top + 1 points with zero ends, where level l_j
    sits at the odd multiples of h = 2^(top - l_j) and its neighbours at +-h.
    """
    groups: dict[Level, list[Level]] = {}
    for level in arrays:  # lexicographic, so l_j ascends within a group
        groups.setdefault(level[:j] + level[j + 1:], []).append(level)
    for group in groups.values():
        top = group[-1][j]
        shape = arrays[group[0]].shape
        before, after = int(np.prod(shape[:j])), int(np.prod(shape[j + 1:]))
        line = np.zeros((before, 2 ** top + 1, after))
        for level in group:
            h = 2 ** (top - level[j])
            line[:, h::2 * h] = arrays[level].reshape(before, -1, after)
        for level in group:
            h = 2 ** (top - level[j])
            left = line[:, :-h:2 * h]
            centre = line[:, h::2 * h]
            right = line[:, 2 * h::2 * h]
            arrays[level][...] = (centre - 0.5 * left - 0.5 * right).reshape(arrays[level].shape)


def surplus_coefficients(f: Callable, n: int, d: int) -> SurplusMap:
    """Hierarchical surpluses of ``f`` over the sparse index set.

    ``f`` must accept an (m, d) array and return m values (an (m, 1) array
    is accepted too; any other shape raises ValueError), and must vanish on
    the boundary of [0,1]^d: a face value above BOUNDARY_TOLERANCE times
    max(1, max |f(nodes)|) raises ValueError.  The interpolant induced by the
    result reproduces f at every node of the truncated grid.  ``f`` is called
    once, on the N nodes followed by the 2d face sparse grids.  A build of
    more than MAX_SURPLUS_POINTS points raises ValueError before any node
    array exists (``_check_surplus_size``).
    """
    _check_surplus_size(n, d)
    levels = enumerate_levels(n, d)
    nodes = [_level_nodes(level) for level in levels]
    count = sum(len(block) for block in nodes)
    pts = np.concatenate(nodes + [_face_points(n, d)])
    values = np.asarray(f(pts), dtype=float)
    if values.shape not in ((len(pts),), (len(pts), 1)):
        raise ValueError(f"f returned shape {values.shape} for {len(pts)} points; "
                         "it must return one value per point")
    values = values.reshape(-1)
    if not np.isfinite(values).all():
        bad = int(np.argmin(np.isfinite(values)))
        raise ValueError(f"function returned a non-finite value at {pts[bad].tolist()}")
    tol = BOUNDARY_TOLERANCE * max(1.0, float(np.abs(values[:count]).max()))
    off = np.abs(values[count:]) > tol
    if off.any():
        bad = count + int(np.argmax(off))
        raise ValueError(
            f"function does not vanish on the boundary: f({pts[bad].tolist()}) = "
            f"{float(values[bad])!r}; surplus coefficients need f = 0 on the "
            "boundary of [0,1]^d"
        )

    column = values[:count].copy()  # the node values without the face values
    arrays = _split_levels(column, n, d)
    for j in range(d):
        _hierarchize_axis(arrays, j)
    return SurplusMap(d, n, column)


def chebyshev_expansion(s: SurplusMap, x) -> np.recarray:
    """Signed degree-(0,1) Chebyshev product terms reproducing s at ``x``.

    One read-only record of M rows, row r standing for the term
    weight_r * prod_j T_{k_j}(u_j), with the fields ``weight`` (float64),
    ``degrees`` (int8, shape (d,)) and ``arguments`` (float64, shape (d,)).
    Only levels whose support holds x contribute, in ``s.levels()`` order,
    each with 2^d rows in ``itertools.product((0, 1), repeat=d)`` degree
    order.  ``arguments`` are the level's local coordinates u_j = (x_j -
    node_j) / spacing_j, each in (-1, 1), and ``weight`` is the surplus with
    the sign rule (-1)^{sum_j k_j (sgn(u_j)+1)/2} applied (sgn(0) := +1,
    which is value-irrelevant because P_1(0) = 0).  Summing the terms gives
    ``s.evaluate(x)``; a point that no level's support holds (a boundary
    point) gives M = 0 rows.
    """
    x = _point(x, s.d)
    d = s.d
    # (d, n) tables of cell, hat and u: entry [j, l - 1] is level l on axis j
    cell, hat_value, u = _axis_cells(x[:, None], np.arange(1, s.n + 1))
    axes = np.arange(d)
    levels, offsets, shifts = _level_layout(s.n, d)
    # x on a grid line of a level (boundary included): some hat of it is 0
    inside = (hat_value[axes, levels] > 0.0).all(axis=1)
    cells = cell[axes, levels[inside]]
    values = s.coefficients[offsets[inside] + (cells << shifts[inside]).sum(axis=1)]
    arguments = u[axes, levels[inside]]
    degrees = np.array(list(itertools.product((0, 1), repeat=d)), dtype=np.int8)
    flips = (degrees[None, :, :] * (arguments >= 0.0)[:, None, :]).sum(axis=2)
    terms = np.recarray(values.size * 2 ** d, dtype=[
        ("weight", float), ("degrees", np.int8, (d,)), ("arguments", float, (d,))])
    terms["weight"] = np.where(flips % 2, -values[:, None], values[:, None]).reshape(-1)
    terms["degrees"] = np.tile(degrees, (values.size, 1))
    terms["arguments"] = np.repeat(arguments, 2 ** d, axis=0)
    terms.flags.writeable = False
    return terms


@functools.lru_cache(maxsize=None)
def gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only nodes and weights of the ``order``-point Gauss-Legendre rule on [-1, 1].

    ``np.polynomial.legendre.leggauss(order)``, computed once per order.
    """
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _support_sums(mixed_derivative: Callable, level: Sequence[int],
                 indices: Sequence[Sequence[int]] | None = None, nodes_per_cell: int = 32,
                 kernel: bool = False, power: int = 1) -> np.ndarray:
    """Two-cell Gauss-Legendre sums of the mixed derivative over the hat supports of one level.

    The derivative is read as one factor a_j per axis from its ``factors``; at
    d = 1 any callable on (m, 1) points is its own factor, and at d >= 2 one
    without them raises ValueError.  Along axis j the support of hat (l, i)
    splits at its node into two cells of ``nodes_per_cell`` points, so the
    hat's kink falls between cells, and the node's axis sum is
    sum_q w_q a_j(x_q)^power; with ``kernel`` every weight carries the kernel
    -2^-(l+1) phi_{l,i}(x) of the surplus representation.  Returns the
    product of the axis sums for each node of the product of ``indices`` (all
    of the level by default), in ``index_set`` order.
    """
    level = _check_level(level)
    if indices is None:
        indices = [range(1, 2 ** l, 2) for l in level]
    if len(indices) != len(level):
        raise ValueError("need one index list per level component")
    factors = getattr(mixed_derivative, "factors", None)
    if factors is None and len(level) == 1:
        factors = [lambda t: np.reshape(mixed_derivative(t.reshape(-1, 1)), t.shape)]
    if factors is None or len(factors) != len(level):
        raise ValueError(f"the mixed derivative has no factor per axis for level {level}; "
                         "d >= 2 needs a product of one factor per axis")
    base, base_w = gauss_legendre(nodes_per_cell)
    out = np.ones(())
    for l, idx, factor in zip(level, indices, factors):
        odd = np.asarray(idx, dtype=np.int64)
        if ((odd < 1) | (odd > 2 ** l - 1) | (odd % 2 == 0)).any():
            raise ValueError(f"indices {odd.tolist()} invalid for level {l} (odd, in [1, 2^l-1])")
        h = 2.0 ** -l
        i = odd.astype(float)[:, None]
        node = i * h
        # cells (node - h, node) and (node, node + h) on every row
        p = np.concatenate([h / 2 * base + (node - h / 2), h / 2 * base + (node + h / 2)], axis=1)
        w = np.concatenate([h / 2 * base_w] * 2)
        if kernel:
            w = w * (-(2.0 ** -(l + 1)) * hat(p / h - i))
        values = np.asarray(factor(p), dtype=float)
        out = np.multiply.outer(out, np.sum(w * values ** power, axis=1))
    return out.ravel()


def integral_coefficients(mixed_derivative: Callable, level: Sequence[int],
                          indices: Sequence[Sequence[int]] | None = None) -> np.ndarray:
    """Surpluses of one level via the integral representation (check oracle).

    Integrates prod_j(-2^{-(l_j+1)} phi_{l_j,i_j}(x_j)) times the order-2d
    mixed derivative over each hat's support as a product of one 1-D sum per
    axis.  Returns one value per node, in ``index_set`` order.
    """
    return _support_sums(mixed_derivative, level, indices, SURPLUS_NODES_PER_CELL, kernel=True)


def integral_column(mixed_derivative: Callable, n: int, d: int) -> np.ndarray:
    """``integral_coefficients`` of every level, as one column in storage order (check oracle)."""
    return np.concatenate([integral_coefficients(mixed_derivative, level)
                           for level in enumerate_levels(n, d)])


def integral_coefficient(mixed_derivative: Callable, g: GridIndex) -> float:
    """Surplus of ``g`` via the integral representation (check oracle)."""
    indices = [[i] for i in g.index]
    return float(integral_coefficients(mixed_derivative, g.level, indices)[0])
