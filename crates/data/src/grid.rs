//! The partitioning algebra of §3.5 (Eq. 1 and Eq. 2).
//!
//! A dataset `D(i×j)` is split into a grid `G(k×l)` of blocks `B(m×n)`
//! with `i = k·m` and `j = l·n`. Block dimension and grid dimension are
//! inversely proportional — the thread-level vs. task-level parallelism
//! trade-off at the heart of the paper.

use std::fmt;

/// Shape of the input dataset `D(i×j)`: `i` rows × `j` columns of elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DatasetDim {
    /// Rows (`i`).
    pub rows: u64,
    /// Columns (`j`).
    pub cols: u64,
}

/// Shape of one block `B(m×n)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockDim {
    /// Rows per block (`m`).
    pub rows: u64,
    /// Columns per block (`n`).
    pub cols: u64,
}

/// Shape of the grid `G(k×l)`: `k` block-rows × `l` block-columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GridDim {
    /// Block-rows (`k`).
    pub rows: u64,
    /// Block-columns (`l`).
    pub cols: u64,
}

/// Why a partitioning is invalid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionError {
    /// A dimension was zero.
    ZeroDimension,
    /// The grid has more blocks along an axis than the dataset has
    /// elements (§3.5's second constraint).
    GridExceedsDataset {
        /// Grid extent.
        grid: u64,
        /// Dataset extent.
        dataset: u64,
    },
    /// Ceiling-divided blocks leave at least one grid cell empty — the
    /// requested grid is too fine for the dataset shape.
    DegenerateGrid {
        /// Grid extent.
        grid: u64,
        /// Dataset extent.
        dataset: u64,
    },
    /// A workload that needs a square matrix got a rectangular dataset.
    NotSquare {
        /// Dataset rows.
        rows: u64,
        /// Dataset columns.
        cols: u64,
    },
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionError::ZeroDimension => write!(f, "dimension must be positive"),
            PartitionError::GridExceedsDataset { grid, dataset } => {
                write!(f, "grid extent {grid} exceeds dataset extent {dataset}")
            }
            PartitionError::DegenerateGrid { grid, dataset } => {
                write!(
                    f,
                    "grid extent {grid} leaves empty blocks over dataset extent {dataset}"
                )
            }
            PartitionError::NotSquare { rows, cols } => {
                write!(f, "dataset of {rows} rows and {cols} columns is not square")
            }
        }
    }
}

impl std::error::Error for PartitionError {}

impl DatasetDim {
    /// Total number of elements (`i × j`).
    pub fn elements(&self) -> u64 {
        self.rows * self.cols
    }
}

impl BlockDim {
    /// Total elements per block (`m × n`).
    pub fn elements(&self) -> u64 {
        self.rows * self.cols
    }

    /// Block payload in bytes for the given element width.
    pub fn bytes(&self, elem_bytes: u64) -> u64 {
        self.elements() * elem_bytes
    }

    /// Eq. 2: derives the (nominal) block dimension for a dataset split by
    /// `grid`, using ceiling division — the trailing block of an axis may
    /// be smaller, as in dislib. Fails when any grid cell would be empty.
    pub fn for_grid(dataset: DatasetDim, grid: GridDim) -> Result<BlockDim, PartitionError> {
        if dataset.rows == 0 || dataset.cols == 0 || grid.rows == 0 || grid.cols == 0 {
            return Err(PartitionError::ZeroDimension);
        }
        if grid.rows > dataset.rows {
            return Err(PartitionError::GridExceedsDataset {
                grid: grid.rows,
                dataset: dataset.rows,
            });
        }
        if grid.cols > dataset.cols {
            return Err(PartitionError::GridExceedsDataset {
                grid: grid.cols,
                dataset: dataset.cols,
            });
        }
        let m = dataset.rows.div_ceil(grid.rows);
        let n = dataset.cols.div_ceil(grid.cols);
        // Every grid cell must hold at least one element (§3.5).
        if (grid.rows - 1) * m >= dataset.rows {
            return Err(PartitionError::DegenerateGrid {
                grid: grid.rows,
                dataset: dataset.rows,
            });
        }
        if (grid.cols - 1) * n >= dataset.cols {
            return Err(PartitionError::DegenerateGrid {
                grid: grid.cols,
                dataset: dataset.cols,
            });
        }
        Ok(BlockDim { rows: m, cols: n })
    }
}

impl GridDim {
    /// A square grid `g × g`.
    pub const fn square(g: u64) -> Self {
        GridDim { rows: g, cols: g }
    }

    /// A row-wise grid `k × 1` (the paper's K-means chunking).
    pub const fn row_wise(k: u64) -> Self {
        GridDim { rows: k, cols: 1 }
    }

    /// Number of blocks in the grid (`k × l`).
    pub fn blocks(&self) -> u64 {
        self.rows * self.cols
    }

    /// Eq. 2 inverted: derives the grid for a dataset split into blocks of
    /// (at most) `block` shape, using ceiling division.
    pub fn for_block(dataset: DatasetDim, block: BlockDim) -> Result<GridDim, PartitionError> {
        if dataset.rows == 0 || dataset.cols == 0 || block.rows == 0 || block.cols == 0 {
            return Err(PartitionError::ZeroDimension);
        }
        if block.rows > dataset.rows || block.cols > dataset.cols {
            return Err(PartitionError::GridExceedsDataset {
                grid: block.rows.max(block.cols),
                dataset: dataset.rows.min(dataset.cols),
            });
        }
        Ok(GridDim {
            rows: dataset.rows.div_ceil(block.rows),
            cols: dataset.cols.div_ceil(block.cols),
        })
    }
}

macro_rules! impl_fmt_dims {
    ($($ty:ty),*) => {$(
        impl fmt::Display for $ty {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}x{}", self.rows, self.cols)
            }
        }
    )*};
}
impl_fmt_dims!(GridDim, BlockDim, DatasetDim);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq1_holds_for_derived_block() {
        let d = DatasetDim {
            rows: 32768,
            cols: 32768,
        };
        let g = GridDim::square(16);
        let b = BlockDim::for_grid(d, g).unwrap();
        assert_eq!(
            b,
            BlockDim {
                rows: 2048,
                cols: 2048
            }
        );
        // Eq. 1: i = k·m, j = l·n.
        assert_eq!(d.rows, g.rows * b.rows);
        assert_eq!(d.cols, g.cols * b.cols);
    }

    #[test]
    fn grid_and_block_derivations_are_inverse() {
        let d = DatasetDim {
            rows: 12_500_000,
            cols: 100,
        };
        let g = GridDim::row_wise(256);
        let b = BlockDim::for_grid(d, g).unwrap();
        assert_eq!(GridDim::for_block(d, b).unwrap(), g);
    }

    #[test]
    fn ragged_split_uses_ceiling_blocks() {
        // 10 rows over 3 block-rows -> nominal 4-row blocks (4, 4, 2).
        let d = DatasetDim { rows: 10, cols: 10 };
        let b = BlockDim::for_grid(d, GridDim { rows: 3, cols: 1 }).unwrap();
        assert_eq!(b, BlockDim { rows: 4, cols: 10 });
    }

    #[test]
    fn rejects_degenerate_grid() {
        // 10 rows over 6 block-rows -> 2-row blocks cover it in 5; the
        // sixth block would be empty.
        let d = DatasetDim { rows: 10, cols: 10 };
        let err = BlockDim::for_grid(d, GridDim { rows: 6, cols: 1 }).unwrap_err();
        assert!(matches!(err, PartitionError::DegenerateGrid { .. }));
    }

    #[test]
    fn rejects_grid_larger_than_dataset() {
        let d = DatasetDim { rows: 4, cols: 4 };
        let err = BlockDim::for_grid(d, GridDim::square(8)).unwrap_err();
        assert!(matches!(err, PartitionError::GridExceedsDataset { .. }));
    }

    #[test]
    fn rejects_zero_dims() {
        let d = DatasetDim { rows: 0, cols: 4 };
        assert_eq!(
            BlockDim::for_grid(d, GridDim::square(1)).unwrap_err(),
            PartitionError::ZeroDimension
        );
    }

    #[test]
    fn block_bytes_for_f64() {
        let b = BlockDim {
            rows: 2048,
            cols: 2048,
        };
        assert_eq!(b.bytes(8), 32 * 1024 * 1024);
    }

    #[test]
    fn displays_as_k_x_l() {
        assert_eq!(GridDim::square(4).to_string(), "4x4");
        assert_eq!(GridDim::row_wise(8).to_string(), "8x1");
    }
}
