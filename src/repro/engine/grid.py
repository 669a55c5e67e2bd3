"""Structure-of-arrays experiment grids.

The engine's hot callers all follow the same shape: expand a sweep
(hidden sizes x head counts, microbatches x stages, ...) into a grid of
GEMM shapes, evaluate every point, then tabulate a few derived columns.
Historically each caller expanded that grid into per-point Python
objects — dataclasses, tuples, list appends — and only the innermost
evaluation was vectorized.  That per-shape Python overhead is the exact
"GEMM sliver" anti-pattern the paper warns about, applied to our own
evaluator.

:class:`ShapeGrid` keeps the whole grid columnar from expansion to
materialization: every field (``batch/m/n/k`` plus any caller-defined
annotation column) is one NumPy array, grid construction is a chain of
ufuncs, and no per-shape Python object exists until
:meth:`GridResult.rows` materializes the final table — one ``.tolist()``
per *column*, not one object per *point*.

Layout contract:

- All columns share one length ``N`` (scalars broadcast at build time).
- ``batch``, ``m``, ``n``, ``k`` are mandatory ``int64`` columns;
  :attr:`ShapeGrid.shapes` assembles them into the canonical ``(N, 4)``
  array :func:`~repro.engine.vectorized.evaluate_batch` consumes.
- Annotation columns keep whatever dtype :func:`numpy.asarray` infers
  (floats, ints, fixed-width strings) and ride along untouched.

``ShapeGrid`` is immutable after construction; derived grids come from
:meth:`with_columns`, :meth:`select`, and :meth:`concat`.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

from repro.engine.vectorized import BatchResult
from repro.gpu.tiles import TileConfig

#: The four mandatory shape columns, in canonical ``shape_array`` order.
SHAPE_COLUMNS = ("batch", "m", "n", "k")


def _as_column(name: str, value: Any) -> np.ndarray:
    arr = np.asarray(value)
    if name in SHAPE_COLUMNS:
        arr = arr.astype(np.int64, copy=False)
    if arr.dtype == object:
        raise TypeError(f"column {name!r} has object dtype; use numeric or str")
    if arr.ndim > 1:
        raise ValueError(f"column {name!r} must be scalar or 1-D, got {arr.ndim}-D")
    return arr


class ShapeGrid:
    """An immutable columnar grid of GEMM shapes plus annotations."""

    __slots__ = ("_columns", "_length")

    def __init__(self, columns: Mapping[str, Any]) -> None:
        cols = {name: _as_column(name, value) for name, value in columns.items()}
        for required in SHAPE_COLUMNS:
            cols.setdefault(required, np.asarray(1, dtype=np.int64))
        length = max((c.shape[0] for c in cols.values() if c.ndim == 1), default=1)
        self._columns: Dict[str, np.ndarray] = {}
        for name, col in cols.items():
            if col.ndim == 0:
                col = np.broadcast_to(col, (length,))
            elif col.shape[0] != length:
                raise ValueError(
                    f"column {name!r} has length {col.shape[0]}, grid has {length}"
                )
            self._columns[name] = np.ascontiguousarray(col)
        self._length = length

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_columns(cls, **columns: Any) -> "ShapeGrid":
        """Build a grid from keyword columns (scalars broadcast)."""
        return cls(columns)

    @classmethod
    def concat(cls, grids: Sequence["ShapeGrid"]) -> "ShapeGrid":
        """Stack grids that share a column set into one larger grid."""
        if not grids:
            raise ValueError("cannot concat zero grids")
        names = list(grids[0]._columns)
        for g in grids[1:]:
            if list(g._columns) != names:
                raise ValueError(
                    f"column mismatch: {names} vs {list(g._columns)}"
                )
        return cls(
            {
                name: np.concatenate([g._columns[name] for g in grids])
                for name in names
            }
        )

    # -- views --------------------------------------------------------------

    def __len__(self) -> int:
        return self._length

    @property
    def names(self) -> List[str]:
        return list(self._columns)

    def column(self, name: str) -> np.ndarray:
        return self._columns[name]

    @property
    def shapes(self) -> np.ndarray:
        """The canonical ``(N, 4)`` int64 ``[batch, m, n, k]`` array."""
        return np.ascontiguousarray(
            np.stack([self._columns[c] for c in SHAPE_COLUMNS], axis=1)
        )

    def with_columns(self, **columns: Any) -> "ShapeGrid":
        """A new grid with extra (or replaced) annotation columns."""
        merged: Dict[str, Any] = dict(self._columns)
        merged.update(columns)
        return ShapeGrid(merged)

    def select(self, mask: Any) -> "ShapeGrid":
        """A new grid keeping only rows where ``mask`` is true."""
        mask = np.asarray(mask, dtype=bool)
        return ShapeGrid({n: c[mask] for n, c in self._columns.items()})


class GridResult:
    """A :class:`ShapeGrid` joined with its :class:`BatchResult`.

    Column resolution order: grid annotation columns first, then any
    array field of the batch result (``latency_s``, ``tflops``,
    ``waves``, ...).  Materialization is columnar — :meth:`rows` does
    one ``.tolist()`` per requested column and zips, which is the only
    point per-row Python objects come into existence.
    """

    __slots__ = ("grid", "batch")

    def __init__(self, grid: ShapeGrid, batch: BatchResult) -> None:
        if len(grid) != len(batch.shapes):
            raise ValueError(
                f"grid has {len(grid)} rows, batch has {len(batch.shapes)}"
            )
        self.grid = grid
        self.batch = batch

    def __len__(self) -> int:
        return len(self.grid)

    def column(self, name: str) -> np.ndarray:
        if name in self.grid.names:
            return self.grid.column(name)
        if name in BatchResult._ARRAY_FIELDS:
            return getattr(self.batch, name)
        if name == "bound":
            return self.batch.bound
        raise KeyError(f"unknown column {name!r}")

    def columns(self, names: Iterable[str]) -> Dict[str, list]:
        """Materialize the named columns as Python lists (one tolist each)."""
        out = {}
        for name in names:
            col = self.column(name)
            out[name] = col.tolist()
        return out

    def rows(self, names: Sequence[str]) -> List[tuple]:
        """Materialize rows ``[(col0, col1, ...), ...]`` for a table."""
        cols = self.columns(names)
        return list(zip(*(cols[n] for n in names)))


class TileSweep:
    """A :class:`ShapeGrid` priced with each candidate tile pinned in turn.

    ``batch`` holds ``C x N`` rows for ``C`` tiles and ``N`` grid
    shapes, tile-major: row ``c * N + i`` is shape ``i`` with
    ``pool[c]`` pinned.  :meth:`matrix` reads one field as a ``(C, N)``
    view, with no copy; row ``c`` equals that field of
    ``evaluate_grid(grid, ..., tile=pool[c])`` bit for bit.
    """

    __slots__ = ("grid", "batch")

    def __init__(self, grid: ShapeGrid, batch: BatchResult) -> None:
        if len(batch) != len(batch.pool) * len(grid):
            raise ValueError(
                f"sweep has {len(batch)} rows, expected "
                f"{len(batch.pool)} tiles x {len(grid)} shapes"
            )
        self.grid = grid
        self.batch = batch

    @property
    def pool(self) -> Tuple[TileConfig, ...]:
        return self.batch.pool

    def __len__(self) -> int:
        return len(self.batch.pool)

    def matrix(self, name: str) -> np.ndarray:
        """Array field ``name`` as a ``(tiles, shapes)`` view."""
        return getattr(self.batch, name).reshape(len(self), len(self.grid))
