"""Block-sparse layout: which square blocks of the attention matrix exist.

A layout is a boolean matrix over block coordinates.  It provides the
statistics the cost model needs (nonzero blocks, per-row nonzero
distribution for the load-imbalance model, density for the
conservative-allocation analysis) and the gather/scatter helpers the
numeric kernels use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.dtypes import DType
from repro.common.errors import ConfigError, ShapeError
from repro.common.validation import require_positive


class BlockSparseLayout:
    """A block mask over an ``L x L`` attention matrix.

    Parameters
    ----------
    mask:
        Boolean array of shape ``(n_block_rows, n_block_cols)``; True
        marks a nonzero (computed) block.
    block_size:
        Side of each square block in elements.
    """

    def __init__(self, mask: np.ndarray, block_size: int) -> None:
        require_positive("block_size", block_size)
        mask = np.asarray(mask, dtype=bool)
        if mask.ndim != 2:
            raise ShapeError(f"block mask must be 2-D, got shape {mask.shape}")
        if not mask.any():
            raise ConfigError("block mask has no nonzero blocks")
        self.mask = mask
        self.block_size = block_size
        # Nonzero block coordinates in row-major order — this is the
        # storage order of the block data array.
        rows, cols = np.nonzero(mask)
        self.block_rows = rows
        self.block_cols = cols
        self._rows_by_nnz: "list[tuple[np.ndarray, np.ndarray]] | None" = None

    # -- shape ---------------------------------------------------------

    @property
    def n_block_rows(self) -> int:
        """Block rows in the layout."""
        return self.mask.shape[0]

    @property
    def n_block_cols(self) -> int:
        """Block columns in the layout."""
        return self.mask.shape[1]

    @property
    def seq_len(self) -> int:
        """Row length ``L`` in elements (square attention matrix)."""
        return self.n_block_rows * self.block_size

    @property
    def row_length(self) -> int:
        """Column count in elements."""
        return self.n_block_cols * self.block_size

    # -- statistics ----------------------------------------------------

    @property
    def nnz_blocks(self) -> int:
        """Total nonzero blocks."""
        return len(self.block_rows)

    @property
    def density(self) -> float:
        """Fraction of blocks that are nonzero."""
        return self.nnz_blocks / self.mask.size

    def row_nnz_blocks(self) -> np.ndarray:
        """Nonzero blocks per block row."""
        return self.mask.sum(axis=1)

    @property
    def mean_row_nnz(self) -> float:
        """Mean nonzero blocks per block row."""
        return float(self.row_nnz_blocks().mean())

    @property
    def max_row_nnz(self) -> int:
        """Maximum nonzero blocks in any block row (global rows are
        dense, so this is often the full row)."""
        return int(self.row_nnz_blocks().max())

    def nnz_elements(self) -> int:
        """Nonzero elements of the attention matrix."""
        return self.nnz_blocks * self.block_size * self.block_size

    def storage_bytes(self, dtype: DType = DType.FP16) -> int:
        """Bytes to store the block data."""
        return self.nnz_elements() * dtype.nbytes

    # -- conversions ---------------------------------------------------

    def element_mask(self) -> np.ndarray:
        """Element-wise boolean mask of shape ``(L, L)``."""
        return np.kron(self.mask, np.ones((self.block_size, self.block_size),
                                          dtype=bool))

    def blocks_in_row(self, block_row: int) -> np.ndarray:
        """Indices into the block-data array for one block row."""
        return np.nonzero(self.block_rows == block_row)[0]

    def rows_by_nnz(self) -> "list[tuple[np.ndarray, np.ndarray]]":
        """Nonempty block rows grouped by their nonzero count.

        Returns ``(rows, block_idx)`` pairs, one per distinct per-row
        nonzero count ``k``: ``rows`` holds the block-row indices of
        the group and ``block_idx`` (shape ``(len(rows), k)``) their
        blocks' indices into the block-data array, ascending within
        each row exactly as :meth:`blocks_in_row` yields them.  This is
        what lets the numeric kernels replace per-row Python loops with
        one batched einsum per group — real layouts have only a handful
        of distinct row populations (window rows vs global rows).
        """
        if self._rows_by_nnz is None:
            counts = self.mask.sum(axis=1)
            # block_rows is sorted (row-major nonzero order), so each
            # row's block indices form a contiguous ascending run.
            row_start = np.searchsorted(
                self.block_rows, np.arange(self.n_block_rows)
            )
            groups = []
            for k in np.unique(counts):
                if k == 0:
                    continue
                rows = np.nonzero(counts == k)[0]
                block_idx = row_start[rows][:, None] + np.arange(int(k))
                groups.append((rows, block_idx))
            self._rows_by_nnz = groups
        return self._rows_by_nnz

    def transposed(self) -> "BlockSparseLayout":
        """The layout of the transposed matrix (used by backward-pass
        MatMuls such as ``dK = dX^T Q``)."""
        return BlockSparseLayout(self.mask.T.copy(), self.block_size)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BlockSparseLayout)
            and self.block_size == other.block_size
            and np.array_equal(self.mask, other.mask)
        )

    def __repr__(self) -> str:
        return (
            f"BlockSparseLayout({self.n_block_rows}x{self.n_block_cols} "
            f"blocks of {self.block_size}, nnz={self.nnz_blocks}, "
            f"density={self.density:.3f})"
        )


@dataclass
class BlockSparseMatrix:
    """Block data plus its layout.

    ``data`` has shape ``(batch, nnz_blocks, block_size, block_size)``,
    blocks stored in the layout's row-major nonzero order.
    """

    layout: BlockSparseLayout
    data: np.ndarray

    def __post_init__(self) -> None:
        bs = self.layout.block_size
        expected_tail = (self.layout.nnz_blocks, bs, bs)
        if self.data.ndim != 4 or tuple(self.data.shape[1:]) != expected_tail:
            raise ShapeError(
                f"block data shape {self.data.shape} does not match layout "
                f"(batch, {expected_tail[0]}, {bs}, {bs})"
            )

    @property
    def batch(self) -> int:
        """Leading batch (x heads) dimension."""
        return self.data.shape[0]

    def to_dense(self, fill: float = 0.0) -> np.ndarray:
        """Materialise ``(batch, L, L)`` with ``fill`` in zero blocks.

        A pure scatter: one advanced-indexed assignment through a
        ``(batch, rows, bs, cols, bs)`` view instead of a Python loop
        over nonzero blocks.
        """
        layout, bs = self.layout, self.layout.block_size
        dense = np.full(
            (self.batch, layout.seq_len, layout.row_length),
            fill,
            dtype=np.float32,
        )
        blocked = dense.reshape(
            self.batch, layout.n_block_rows, bs, layout.n_block_cols, bs
        )
        # Advanced indexing on the separated block axes moves the nnz
        # dimension to the front, so the data axes move to match.
        blocked[:, layout.block_rows, :, layout.block_cols, :] = (
            np.moveaxis(self.data, 1, 0)
        )
        return dense

    @classmethod
    def from_dense(
        cls, dense: np.ndarray, layout: BlockSparseLayout
    ) -> "BlockSparseMatrix":
        """Gather the layout's nonzero blocks out of a dense matrix."""
        if dense.ndim != 3:
            raise ShapeError(f"dense matrix must be 3-D, got {dense.shape}")
        bs = layout.block_size
        batch = dense.shape[0]
        blocked = np.asarray(dense, dtype=np.float32).reshape(
            batch, layout.n_block_rows, bs, layout.n_block_cols, bs
        )
        gathered = blocked[:, layout.block_rows, :, layout.block_cols, :]
        return cls(layout, np.ascontiguousarray(np.moveaxis(gathered, 0, 1)))
