//! The operands of the algorithms' task loops: a blocked array in a
//! workflow under construction ([`ArrayHandle`]) and a small non-blocked
//! object ([`ObjectHandle`]). Every config and [`Session`](crate::Session)
//! registers its storage blocks here, so one rule
//! (`ArrayHandle::block_dim`) sizes every block they store or cost.

use gpuflow_data::{BlockCoord, BlockDim, DatasetDim, DsArraySpec, GridDim};
use gpuflow_runtime::{DataId, WorkflowBuilder};

/// A handle to a blocked array in a workflow under construction (a
/// [`Session`](crate::Session) operand or result, or a config's operand):
/// its geometry plus the data ids of its blocks (row-major over the grid).
#[derive(Debug, Clone)]
pub struct ArrayHandle {
    /// Grid shape.
    pub grid: GridDim,
    /// Nominal block shape.
    pub block: BlockDim,
    /// Bytes per element.
    pub elem_bytes: u64,
    /// Logical shape in elements (trailing blocks may be ragged).
    dim: DatasetDim,
    /// `None` for a block never registered.
    blocks: Vec<Option<DataId>>,
}

impl ArrayHandle {
    /// Registers every block of `spec` as a storage input named
    /// `name[row,col]`, row-major, each sized by
    /// [`block_dim`](Self::block_dim).
    pub(crate) fn inputs(b: &mut WorkflowBuilder, spec: &DsArraySpec, name: &str) -> Self {
        Self::register(b, spec, name, |_| true)
    }

    /// As [`inputs`](Self::inputs), but only the blocks on and below the
    /// diagonal (the half a Cholesky factorization reads).
    pub(crate) fn lower_inputs(b: &mut WorkflowBuilder, spec: &DsArraySpec, name: &str) -> Self {
        Self::register(b, spec, name, |c| c.col <= c.row)
    }

    fn register(
        b: &mut WorkflowBuilder,
        spec: &DsArraySpec,
        name: &str,
        keep: impl Fn(BlockCoord) -> bool,
    ) -> Self {
        let mut a = ArrayHandle {
            grid: spec.grid,
            block: spec.block,
            elem_bytes: spec.dataset.elem_bytes,
            dim: spec.dataset.dim,
            blocks: Vec::new(),
        };
        a.blocks = spec
            .coords()
            .map(|c| {
                keep(c).then(|| {
                    b.input(
                        format!("{name}[{},{}]", c.row, c.col),
                        a.block_dim(c.row, c.col).bytes(a.elem_bytes),
                    )
                })
            })
            .collect();
        a
    }

    /// The same grid and block shape over other blocks, of logical shape
    /// `(rows, cols)`.
    pub(crate) fn with_blocks(&self, (rows, cols): (u64, u64), blocks: Vec<DataId>) -> Self {
        ArrayHandle {
            grid: self.grid,
            block: self.block,
            elem_bytes: self.elem_bytes,
            dim: DatasetDim { rows, cols },
            blocks: blocks.into_iter().map(Some).collect(),
        }
    }

    /// Block id at grid coordinates.
    ///
    /// # Panics
    /// Panics on out-of-range coordinates, or on a block that was never
    /// registered (above the diagonal of a Cholesky config's operand).
    pub fn block(&self, row: u64, col: u64) -> DataId {
        assert!(
            row < self.grid.rows && col < self.grid.cols,
            "block out of range"
        );
        self.blocks[(row * self.grid.cols + col) as usize].expect("block registered")
    }

    /// The shape block `(row, col)` is stored and costed at: the one
    /// block-sizing rule of every config and [`Session`](crate::Session).
    /// A square grid of square blocks (the Matmul, FMA and Cholesky
    /// layout, whose kernels are costed at the block order) counts every
    /// block at the nominal shape, ragged trailing blocks included; any
    /// other layout (the row-wise K-means and KNN grids) counts each
    /// block at its own shape.
    pub(crate) fn block_dim(&self, row: u64, col: u64) -> BlockDim {
        if self.grid.rows == self.grid.cols && self.block.rows == self.block.cols {
            return self.block;
        }
        BlockDim {
            rows: self.block.rows.min(self.dim.rows - row * self.block.rows),
            cols: self.block.cols.min(self.dim.cols - col * self.block.cols),
        }
    }

    /// Rows of the blocks in block-row `row`, by
    /// [`block_dim`](Self::block_dim).
    pub(crate) fn block_rows(&self, row: u64) -> u64 {
        self.block_dim(row, 0).rows
    }

    /// Bytes of one (nominal) block.
    pub fn block_bytes(&self) -> u64 {
        self.block.bytes(self.elem_bytes)
    }

    /// Logical shape in elements, `(rows, cols)`.
    pub fn shape(&self) -> (u64, u64) {
        (self.dim.rows, self.dim.cols)
    }
}

/// A handle to a small non-blocked object (centers, candidate sets).
#[derive(Debug, Clone, Copy)]
pub struct ObjectHandle {
    /// The object's data id.
    pub data: DataId,
    /// Payload bytes.
    pub bytes: u64,
}
