//! Contiguous row-major matrices and reusable scratch workspaces.
//!
//! Every batched path in the workspace (forward, quantized forward,
//! training, NPU invocation) moves rows through these types instead of
//! `Vec<Vec<f64>>`: one flat allocation per matrix, grow-only resizing, and
//! borrowed views so callers can hand out sub-ranges of rows without
//! copying. Together with [`Scratch`] this gives the hot path a
//! zero-allocation steady state — once the workspace has seen one full
//! tile of a model, repeated batched invocations perform no heap
//! allocation at all.

use crate::walk::TileScratch;

/// An owned row-major `rows × cols` matrix of `f64`.
///
/// # Examples
///
/// ```
/// use rumba_nn::Matrix;
///
/// let mut m = Matrix::zeros(2, 3);
/// m.row_mut(1)[2] = 5.0;
/// assert_eq!(m.row(1), &[0.0, 0.0, 5.0]);
/// assert_eq!(m.as_slice().len(), 6);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// A `rows × cols` matrix of zeros.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Wraps an existing flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    #[must_use]
    pub fn from_flat(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "flat buffer length must be rows * cols");
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// True when the matrix holds no elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Reshapes to `rows × cols`, zero-filling new elements. The backing
    /// `Vec`'s capacity only ever grows, so once a workspace has seen its
    /// peak shape, further resizes allocate nothing.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Row `i` as a slice.
    #[must_use]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Row `i` as a mutable slice.
    #[must_use]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The whole buffer, row-major.
    #[must_use]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// The whole buffer, row-major, mutable.
    #[must_use]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// A borrowed view of the whole matrix.
    #[must_use]
    pub fn view(&self) -> MatrixView<'_> {
        MatrixView { rows: self.rows, cols: self.cols, data: &self.data }
    }

    /// Consumes the matrix, returning the flat row-major buffer.
    #[must_use]
    pub fn into_flat(self) -> Vec<f64> {
        self.data
    }
}

/// A borrowed row-major view over `rows × cols` elements.
#[derive(Debug, Clone, Copy)]
pub struct MatrixView<'a> {
    rows: usize,
    cols: usize,
    data: &'a [f64],
}

impl<'a> MatrixView<'a> {
    /// Views a flat row-major slice as a matrix.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    #[must_use]
    pub fn new(data: &'a [f64], rows: usize, cols: usize) -> Self {
        assert_eq!(data.len(), rows * cols, "view length must be rows * cols");
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row `i` as a slice.
    #[must_use]
    pub fn row(&self, i: usize) -> &'a [f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The underlying flat buffer.
    #[must_use]
    pub fn as_slice(&self) -> &'a [f64] {
        self.data
    }

    /// A sub-view covering rows `start..end` (no copy).
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the view.
    #[must_use]
    pub fn rows_range(&self, start: usize, end: usize) -> MatrixView<'a> {
        assert!(start <= end && end <= self.rows, "row range out of bounds");
        MatrixView {
            rows: end - start,
            cols: self.cols,
            data: &self.data[start * self.cols..end * self.cols],
        }
    }
}

/// A mutable borrowed row-major view.
#[derive(Debug)]
pub struct MatrixViewMut<'a> {
    rows: usize,
    cols: usize,
    data: &'a mut [f64],
}

impl<'a> MatrixViewMut<'a> {
    /// Views a flat row-major slice as a mutable matrix.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    #[must_use]
    pub fn new(data: &'a mut [f64], rows: usize, cols: usize) -> Self {
        assert_eq!(data.len(), rows * cols, "view length must be rows * cols");
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row `i` as a mutable slice.
    #[must_use]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The underlying flat buffer, mutable.
    #[must_use]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        self.data
    }
}

/// Lane workspace of the trainer's SIMD layer kernel: the transpose-packed
/// input tile and the per-neuron padded accumulator row. Grow-only `Vec`s,
/// preserving the zero-allocation steady state.
#[derive(Debug, Clone, Default)]
pub(crate) struct LaneScratch {
    /// Transpose-packed input tile: `in_dim` features × `rp` padded rows,
    /// feature-major so each feature's row axis is contiguous (the SIMD
    /// load axis).
    pub(crate) xt: Vec<f64>,
    /// One output neuron's accumulators across the padded tile rows.
    pub(crate) yt: Vec<f64>,
}

/// Reusable workspace for the batched forward/predict paths.
///
/// Holds the tile workspace of the row-tile walker (lane-major `f64`
/// activation tiles, `i16` tiles for the fixed-point path, one staging
/// row for edited inputs) and the quantized path's grid-rounded parameter
/// copies. Every buffer is grow-only and bounded by one tile of the
/// widest layer or by the model's parameter count — none grows with the
/// batch — so a `Scratch` reused across calls allocates nothing once it
/// has seen a full tile of the model it runs.
#[derive(Debug, Clone, Default)]
pub struct Scratch {
    pub(crate) tiles: TileScratch,
    pub(crate) grid_weights: Vec<f64>,
    pub(crate) grid_biases: Vec<f64>,
}

impl Scratch {
    /// An empty workspace; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_rows() {
        let m = Matrix::zeros(3, 2);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 2);
        assert_eq!(m.row(2), &[0.0, 0.0]);
        assert!(!m.is_empty());
        assert!(Matrix::default().is_empty());
    }

    #[test]
    fn from_flat_round_trips() {
        let m = Matrix::from_flat(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.into_flat(), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "rows * cols")]
    fn from_flat_checks_length() {
        let _ = Matrix::from_flat(2, 2, vec![1.0]);
    }

    #[test]
    fn resize_is_grow_only_in_capacity() {
        let mut m = Matrix::zeros(8, 8);
        let cap = m.data.capacity();
        m.resize(2, 2);
        m.resize(8, 8);
        assert_eq!(m.data.capacity(), cap, "shrinking then regrowing must not reallocate");
        assert_eq!(m.as_slice().len(), 64);
    }

    #[test]
    fn views_window_rows() {
        let m = Matrix::from_flat(4, 2, (0..8).map(f64::from).collect());
        let v = m.view();
        assert_eq!(v.row(3), &[6.0, 7.0]);
        let sub = v.rows_range(1, 3);
        assert_eq!(sub.rows(), 2);
        assert_eq!(sub.row(0), &[2.0, 3.0]);
        assert_eq!(sub.row(1), &[4.0, 5.0]);
    }

    #[test]
    fn mut_view_writes_through() {
        let mut data = vec![0.0; 4];
        let mut v = MatrixViewMut::new(&mut data, 2, 2);
        v.row_mut(1)[0] = 9.0;
        assert_eq!(v.rows(), 2);
        assert_eq!(v.cols(), 2);
        assert_eq!(data, vec![0.0, 0.0, 9.0, 0.0]);
    }
}
