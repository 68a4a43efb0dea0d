//! Distributed blocked arrays — the dislib `ds_array` equivalent.
//!
//! [`DsArraySpec`] is the descriptor the simulator plans with: dataset
//! shape, grid, and derived block geometry. [`DsArray`] additionally holds
//! real block data for functional validation at test scale.

use crate::dataset::DatasetSpec;
use crate::grid::{BlockDim, GridDim, PartitionError};
use crate::matrix::Matrix;

/// How blocks are assigned to tasks (Fig. 5 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChunkingPolicy {
    /// Row-wise chunking (`k × 1` grids): the paper's K-means layout.
    RowWise,
    /// Hybrid row- and column-wise chunking (`k × l`): the Matmul layout.
    Hybrid,
}

impl ChunkingPolicy {
    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            ChunkingPolicy::RowWise => "row-wise",
            ChunkingPolicy::Hybrid => "hybrid row/col",
        }
    }
}

/// Coordinates of a block inside a grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockCoord {
    /// Block-row index in `0..grid.rows`.
    pub row: u64,
    /// Block-column index in `0..grid.cols`.
    pub col: u64,
}

/// Descriptor of a blocked array: everything the simulator needs to plan
/// tasks over it, with no actual data attached.
#[derive(Debug, Clone, PartialEq)]
pub struct DsArraySpec {
    /// The underlying dataset.
    pub dataset: DatasetSpec,
    /// Grid shape `G(k×l)`.
    pub grid: GridDim,
    /// Derived block shape `B(m×n)` (Eq. 2).
    pub block: BlockDim,
}

impl DsArraySpec {
    /// Partitions `dataset` by `grid`.
    ///
    /// # Errors
    /// Propagates the Eq. 2 constraint violations.
    pub fn partition(dataset: DatasetSpec, grid: GridDim) -> Result<Self, PartitionError> {
        let block = BlockDim::for_grid(dataset.dim, grid)?;
        Ok(DsArraySpec {
            dataset,
            grid,
            block,
        })
    }

    /// Partitions a square `dataset` into a `grid × grid` layout (the
    /// Matmul, FMA and Cholesky operands).
    ///
    /// # Errors
    /// [`PartitionError::NotSquare`] for a rectangular dataset, then the
    /// Eq. 2 constraint violations.
    pub fn square(dataset: DatasetSpec, grid: u64) -> Result<Self, PartitionError> {
        let dim = dataset.dim;
        if dim.rows != dim.cols {
            return Err(PartitionError::NotSquare {
                rows: dim.rows,
                cols: dim.cols,
            });
        }
        Self::partition(dataset, GridDim::square(grid))
    }

    /// Bytes of one block.
    pub fn block_bytes(&self) -> u64 {
        self.block.bytes(self.dataset.elem_bytes)
    }

    /// Block size in decimal megabytes (K-means axis labels in the paper).
    pub fn block_mb(&self) -> f64 {
        self.block_bytes() as f64 / 1e6
    }

    /// Block size in binary mebibytes (Matmul axis labels in the paper).
    pub fn block_mib(&self) -> f64 {
        self.block_bytes() as f64 / (1u64 << 20) as f64
    }

    /// Number of blocks in the grid.
    pub fn blocks(&self) -> u64 {
        self.grid.blocks()
    }

    /// Iterates block coordinates in row-major order.
    pub fn coords(&self) -> impl Iterator<Item = BlockCoord> + '_ {
        let cols = self.grid.cols;
        (0..self.grid.rows).flat_map(move |row| (0..cols).map(move |col| BlockCoord { row, col }))
    }

    /// Actual shape of the block at `coord`: trailing blocks of an axis
    /// may be smaller than the nominal [`DsArraySpec::block`] when the
    /// grid does not divide the dataset exactly.
    pub fn block_dim_at(&self, coord: BlockCoord) -> BlockDim {
        let row0 = coord.row * self.block.rows;
        let col0 = coord.col * self.block.cols;
        BlockDim {
            rows: self.block.rows.min(self.dataset.dim.rows - row0),
            cols: self.block.cols.min(self.dataset.dim.cols - col0),
        }
    }

    /// The chunking policy this grid realises.
    pub fn chunking(&self) -> ChunkingPolicy {
        if self.grid.cols == 1 {
            ChunkingPolicy::RowWise
        } else {
            ChunkingPolicy::Hybrid
        }
    }
}

/// A blocked array with real data, for functional validation.
#[derive(Debug, Clone, PartialEq)]
pub struct DsArray {
    spec: DsArraySpec,
    /// Row-major grid of blocks.
    blocks: Vec<Matrix>,
}

impl DsArray {
    /// Splits `matrix` into a blocked array by `grid`.
    ///
    /// # Errors
    /// Propagates partitioning violations.
    pub fn from_matrix(
        dataset: DatasetSpec,
        matrix: &Matrix,
        grid: GridDim,
    ) -> Result<Self, PartitionError> {
        assert_eq!(
            (matrix.rows() as u64, matrix.cols() as u64),
            (dataset.dim.rows, dataset.dim.cols),
            "matrix shape must match its dataset spec"
        );
        let spec = DsArraySpec::partition(dataset, grid)?;
        let (m, n) = (spec.block.rows as usize, spec.block.cols as usize);
        let blocks = spec
            .coords()
            .map(|c| {
                let d = spec.block_dim_at(c);
                matrix.submatrix(
                    c.row as usize * m,
                    c.col as usize * n,
                    d.rows as usize,
                    d.cols as usize,
                )
            })
            .collect();
        Ok(DsArray { spec, blocks })
    }

    /// Materialises `dataset` and splits it.
    ///
    /// # Errors
    /// Fails when the dataset is too large to materialise or the grid does
    /// not divide it.
    pub fn generate(dataset: DatasetSpec, grid: GridDim) -> Result<Self, String> {
        let matrix = dataset
            .materialize()
            .map_err(|n| format!("dataset too large to materialise: {n} elements"))?;
        DsArray::from_matrix(dataset, &matrix, grid).map_err(|e| e.to_string())
    }

    /// The descriptor.
    pub fn spec(&self) -> &DsArraySpec {
        &self.spec
    }

    /// Block at the given grid coordinates.
    ///
    /// # Panics
    /// Panics on out-of-range coordinates.
    pub fn block(&self, coord: BlockCoord) -> &Matrix {
        assert!(coord.row < self.spec.grid.rows && coord.col < self.spec.grid.cols);
        &self.blocks[(coord.row * self.spec.grid.cols + coord.col) as usize]
    }

    /// Reassembles the full matrix from the blocks.
    pub fn to_matrix(&self) -> Matrix {
        let (m, n) = (self.spec.block.rows as usize, self.spec.block.cols as usize);
        let mut out = Matrix::zeros(
            self.spec.dataset.dim.rows as usize,
            self.spec.dataset.dim.cols as usize,
        );
        for coord in self.spec.coords() {
            out.set_submatrix(
                coord.row as usize * m,
                coord.col as usize * n,
                self.block(coord),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetSpec;

    fn spec_4x4() -> DsArraySpec {
        DsArraySpec::partition(DatasetSpec::uniform("t", 32, 32, 0), GridDim::square(4)).unwrap()
    }

    #[test]
    fn partition_derives_block_geometry() {
        let s = spec_4x4();
        assert_eq!(s.block, BlockDim { rows: 8, cols: 8 });
        assert_eq!(s.blocks(), 16);
        assert_eq!(s.block_bytes(), 8 * 8 * 8);
    }

    #[test]
    fn coords_cover_grid_row_major() {
        let s = spec_4x4();
        let coords: Vec<_> = s.coords().collect();
        assert_eq!(coords.len(), 16);
        assert_eq!(coords[0], BlockCoord { row: 0, col: 0 });
        assert_eq!(coords[1], BlockCoord { row: 0, col: 1 });
        assert_eq!(coords[15], BlockCoord { row: 3, col: 3 });
    }

    #[test]
    fn chunking_detected_from_grid_shape() {
        assert_eq!(spec_4x4().chunking(), ChunkingPolicy::Hybrid);
        let row =
            DsArraySpec::partition(DatasetSpec::uniform("t", 32, 32, 0), GridDim::row_wise(8))
                .unwrap();
        assert_eq!(row.chunking(), ChunkingPolicy::RowWise);
    }

    #[test]
    fn split_and_reassemble_roundtrips() {
        let ds = DatasetSpec::uniform("t", 24, 16, 5);
        let matrix = ds.materialize().unwrap();
        let arr = DsArray::from_matrix(ds, &matrix, GridDim { rows: 3, cols: 2 }).unwrap();
        assert_eq!(arr.to_matrix(), matrix);
    }

    #[test]
    fn block_contents_match_submatrix() {
        let ds = DatasetSpec::uniform("t", 8, 8, 9);
        let matrix = ds.materialize().unwrap();
        let arr = DsArray::from_matrix(ds, &matrix, GridDim::square(2)).unwrap();
        let b = arr.block(BlockCoord { row: 1, col: 0 });
        assert_eq!(*b, matrix.submatrix(4, 0, 4, 4));
    }

    #[test]
    fn ragged_split_reassembles() {
        let ds = DatasetSpec::uniform("t", 10, 7, 13);
        let matrix = ds.materialize().unwrap();
        let arr = DsArray::from_matrix(ds, &matrix, GridDim { rows: 3, cols: 2 }).unwrap();
        // Nominal 4x4 blocks; trailing blocks are 2 rows / 3 cols.
        assert_eq!(
            arr.spec().block_dim_at(BlockCoord { row: 2, col: 1 }),
            BlockDim { rows: 2, cols: 3 }
        );
        assert_eq!(arr.to_matrix(), matrix);
    }

    #[test]
    fn block_size_labels() {
        // Matmul 8 GB at 16x16 -> 32 MiB blocks, as on the paper's x-axes.
        let s = DsArraySpec::partition(crate::dataset::paper::matmul_8gb(), GridDim::square(16))
            .unwrap();
        assert_eq!(s.block_mib(), 32.0);
        // K-means 10 GB at 256x1 -> ~39 MB blocks.
        let k =
            DsArraySpec::partition(crate::dataset::paper::kmeans_10gb(), GridDim::row_wise(256))
                .unwrap();
        assert!((k.block_mb() - 39.06).abs() < 0.01);
    }
}
