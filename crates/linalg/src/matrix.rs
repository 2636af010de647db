use std::borrow::Cow;
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Neg, Sub};

use crate::{Cholesky, LinalgError, LuDecomposition, QrDecomposition, SymmetricEigen};

/// A dense, row-major matrix of `f64`.
///
/// The type is deliberately simple: storage is a single `Vec<f64>` of length
/// `rows * cols`, indexed as `data[r * cols + c]`. All arithmetic validates
/// dimensions and returns [`LinalgError`] on mismatch rather than panicking,
/// except for the `Index`/operator sugar which follows std conventions and
/// panics (documented per impl).
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    ///
    /// # Example
    /// ```
    /// let z = rcr_linalg::Matrix::zeros(2, 3);
    /// assert_eq!(z.shape(), (2, 3));
    /// ```
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows x cols` matrix with every entry set to `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Errors
    /// Returns [`LinalgError::InvalidInput`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, LinalgError> {
        if data.len() != rows * cols {
            return Err(LinalgError::InvalidInput(format!(
                "data length {} does not match {rows}x{cols}",
                data.len()
            )));
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a matrix from row slices.
    ///
    /// # Errors
    /// Returns [`LinalgError::InvalidInput`] if the rows are empty or ragged.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self, LinalgError> {
        if rows.is_empty() || rows[0].is_empty() {
            return Err(LinalgError::InvalidInput("empty matrix".into()));
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            if r.len() != cols {
                return Err(LinalgError::InvalidInput("ragged rows".into()));
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Creates a square diagonal matrix from `diag`.
    pub fn from_diag(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m.data[i * n + i] = d;
        }
        m
    }

    /// Builds a matrix by evaluating `f(r, c)` for each entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Whether the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow the underlying row-major data.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the underlying row-major data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix, returning the row-major data vector.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Returns entry `(r, c)` or `None` when out of bounds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> Option<f64> {
        if r < self.rows && c < self.cols {
            Some(self.data[r * self.cols + c])
        } else {
            None
        }
    }

    /// Sets entry `(r, c)`.
    ///
    /// # Panics
    /// Panics if `r` or `c` is out of bounds.
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[r * self.cols + c] = v;
    }

    /// Borrows row `r` as a slice.
    ///
    /// This is a hot accessor on the IBP/CROWN propagation paths, so the
    /// friendly bounds message is a `debug_assert!`; release builds rely on
    /// the slice-range check below, which still panics for any `r` out of
    /// bounds (when `cols > 0`) — just with the std range message.
    ///
    /// # Panics
    /// Panics if `r >= self.rows()`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        debug_assert!(r < self.rows, "row {r} out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a new vector.
    ///
    /// # Panics
    /// Panics if `c >= self.cols()`.
    pub fn col(&self, c: usize) -> Vec<f64> {
        assert!(c < self.cols, "column {c} out of bounds");
        (0..self.rows)
            .map(|r| self.data[r * self.cols + c])
            .collect()
    }

    /// Returns the main diagonal.
    pub fn diag(&self) -> Vec<f64> {
        let n = self.rows.min(self.cols);
        (0..n).map(|i| self.data[i * self.cols + i]).collect()
    }

    /// Sum of diagonal entries.
    pub fn trace(&self) -> f64 {
        self.diag().iter().sum()
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// True when every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Symmetry check with absolute tolerance `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for r in 0..self.rows {
            for c in (r + 1)..self.cols {
                if (self.data[r * self.cols + c] - self.data[c * self.cols + r]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Returns `(self + self^T) / 2`, the symmetric part.
    ///
    /// # Errors
    /// Returns [`LinalgError::NotSquare`] for non-square input.
    pub fn symmetrize(&self) -> Result<Matrix, LinalgError> {
        if !self.is_square() {
            return Err(LinalgError::NotSquare {
                rows: self.rows,
                cols: self.cols,
            });
        }
        let n = self.rows;
        let mut out = self.clone();
        for r in 0..n {
            for c in 0..n {
                out.data[r * n + c] = 0.5 * (self.data[r * n + c] + self.data[c * n + r]);
            }
        }
        Ok(out)
    }

    /// Matrix–matrix product `self * rhs`.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] if the inner dimensions differ.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix, LinalgError> {
        if self.cols != rhs.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "matmul",
                got: vec![self.rows, self.cols, rhs.rows, rhs.cols],
            });
        }
        // Register/cache-blocked kernel, bit-identical to the historical
        // naive i-k-j loop (see rcr_kernels::gemm for the contract).
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        rcr_kernels::gemm(
            self.rows,
            self.cols,
            rhs.cols,
            &self.data,
            &rhs.data,
            &mut out.data,
        );
        Ok(out)
    }

    /// Matrix–vector product `self * x`.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if x.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                op: "matvec",
                got: vec![self.rows, self.cols, x.len()],
            });
        }
        let mut out = vec![0.0; self.rows];
        rcr_kernels::gemv(self.rows, self.cols, &self.data, x, &mut out);
        Ok(out)
    }

    /// Matrix–vector product `self * x` written into `out` — the
    /// allocation-free form of [`Matrix::matvec`] for hot loops that own a
    /// reusable buffer (e.g. the ADMM iteration in `rcr-convex`).
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] if `x.len() != self.cols()`
    /// or `out.len() != self.rows()`.
    pub fn matvec_into(&self, x: &[f64], out: &mut [f64]) -> Result<(), LinalgError> {
        if x.len() != self.cols || out.len() != self.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "matvec_into",
                got: vec![self.rows, self.cols, x.len(), out.len()],
            });
        }
        rcr_kernels::gemv(self.rows, self.cols, &self.data, x, out);
        Ok(())
    }

    /// Transposed matrix–vector product `self^T * x`.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] if `x.len() != self.rows()`.
    pub fn matvec_t(&self, x: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if x.len() != self.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "matvec_t",
                got: vec![self.rows, self.cols, x.len()],
            });
        }
        let mut out = vec![0.0; self.cols];
        rcr_kernels::gemv_t(self.rows, self.cols, &self.data, x, &mut out);
        Ok(out)
    }

    /// Transposed matrix–vector product `self^T * x` written into `out` —
    /// the allocation-free form of [`Matrix::matvec_t`].
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] if `x.len() != self.rows()`
    /// or `out.len() != self.cols()`.
    pub fn matvec_t_into(&self, x: &[f64], out: &mut [f64]) -> Result<(), LinalgError> {
        if x.len() != self.rows || out.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                op: "matvec_t_into",
                got: vec![self.rows, self.cols, x.len(), out.len()],
            });
        }
        rcr_kernels::gemv_t(self.rows, self.cols, &self.data, x, out);
        Ok(())
    }

    /// Quadratic form `x^T * self * x`.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] on size mismatch.
    pub fn quadratic_form(&self, x: &[f64]) -> Result<f64, LinalgError> {
        let ax = self.matvec(x)?;
        Ok(ax.iter().zip(x).map(|(a, b)| a * b).sum())
    }

    /// Scales every entry by `s` in place, returning `self` for chaining.
    pub fn scale(mut self, s: f64) -> Matrix {
        for v in &mut self.data {
            *v *= s;
        }
        self
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Maximum absolute row sum (operator infinity norm).
    pub fn inf_norm(&self) -> f64 {
        (0..self.rows)
            .map(|r| self.row(r).iter().map(|v| v.abs()).sum::<f64>())
            .fold(0.0, f64::max)
    }

    /// Maximum absolute entry.
    pub fn max_abs(&self) -> f64 {
        // Eight independent lanes instead of one latency-bound chain, each
        // a compare-and-select that vectorises to a packed max. The
        // maximum of a set does not depend on the grouping; a NaN `|v|`
        // fails `>` and is skipped as `f64::max` skips it; and `|v|` is
        // never `-0.0`. So this is the one-chain `f64::max` fold's value
        // exactly.
        let mut lanes = [0.0f64; 8];
        let mut chunks = self.data.chunks_exact(lanes.len());
        for chunk in &mut chunks {
            for (m, v) in lanes.iter_mut().zip(chunk) {
                let a = v.abs();
                if a > *m {
                    *m = a;
                }
            }
        }
        let tail = chunks
            .remainder()
            .iter()
            .fold(0.0f64, |m, v| m.max(v.abs()));
        lanes.iter().fold(tail, |m, &v| m.max(v))
    }

    /// Frobenius inner product `<self, rhs>`.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] on shape mismatch.
    pub fn inner(&self, rhs: &Matrix) -> Result<f64, LinalgError> {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::DimensionMismatch {
                op: "inner",
                got: vec![self.rows, self.cols, rhs.rows, rhs.cols],
            });
        }
        // rcr_kernels::dot reproduces the historical zip-map-`.sum()`
        // chain bit-for-bit (same -0.0 fold seed as std's Sum<f64>).
        Ok(rcr_kernels::dot(&self.data, &rhs.data))
    }

    /// Writes `block` into `self` with its top-left corner at `(r0, c0)`.
    ///
    /// # Panics
    /// Panics if the block does not fit.
    pub fn set_block(&mut self, r0: usize, c0: usize, block: &Matrix) {
        assert!(r0 + block.rows <= self.rows && c0 + block.cols <= self.cols);
        for r in 0..block.rows {
            for c in 0..block.cols {
                self.data[(r0 + r) * self.cols + c0 + c] = block.data[r * block.cols + c];
            }
        }
    }

    /// Cholesky decomposition (requires symmetric positive definite input).
    ///
    /// # Errors
    /// See [`Cholesky::new`].
    pub fn cholesky(&self) -> Result<Cholesky, LinalgError> {
        Cholesky::new(self)
    }

    /// Householder QR decomposition.
    ///
    /// # Errors
    /// See [`QrDecomposition::new`].
    pub fn qr(&self) -> Result<QrDecomposition, LinalgError> {
        QrDecomposition::new(self)
    }

    /// Symmetric eigendecomposition via tridiagonalization + implicit QL.
    ///
    /// # Errors
    /// See [`SymmetricEigen::new`].
    pub fn symmetric_eigen(&self) -> Result<SymmetricEigen, LinalgError> {
        SymmetricEigen::new(self)
    }

    /// Solves `self * x = b` via LU.
    ///
    /// # Errors
    /// Returns [`LinalgError::Singular`] when the matrix is singular and
    /// dimension errors when shapes mismatch.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        LuDecomposition::new(self)?.solve(b)
    }

    /// Projects a symmetric matrix onto the positive semidefinite cone by
    /// clipping negative eigenvalues to zero (the Euclidean projection).
    ///
    /// This is the core primitive of the conic-ADMM SDP solver used for the
    /// paper's trace-minimization relaxation (Eq. 10). The matrix is
    /// symmetrized first, so mild asymmetry is tolerated. The work is
    /// [`Matrix::project_psd_in_place`] on a copy.
    ///
    /// # Errors
    /// * [`LinalgError::NotSquare`] for non-square input.
    /// * [`LinalgError::NotFinite`] for NaN/inf entries.
    /// * [`LinalgError::NonConvergence`] if the eigensolver fails to
    ///   converge (practically unreachable for finite input).
    pub fn psd_projection(&self) -> Result<Matrix, LinalgError> {
        let mut p = self.clone();
        p.project_psd_in_place(&mut rcr_kernels::Scratch::new())?;
        Ok(p)
    }

    /// Replaces `self` by its projection onto the positive semidefinite
    /// cone, with the kernel's workspaces drawn from `scratch`: the bits
    /// of [`Matrix::psd_projection`], and once the pool is warm no heap
    /// allocation, so an iterative solver can project every iteration into
    /// the same buffer.
    ///
    /// `self` is replaced by its symmetric part `(A + Aᵀ)/2`, then
    /// `rcr_kernels::psd_projection` reduces it to tridiagonal form and,
    /// when one side of the spectrum has at most `n /
    /// rcr_kernels::PSD_PARTIAL_DIVISOR` eigenvalues, computes only those
    /// (`Σ λ·v·vᵀ` over the positive ones, or `A − Σ λ·v·vᵀ` over the
    /// negative ones); otherwise it takes every eigenpair and rebuilds
    /// `V·diag(max(λ, 0))·Vᵀ`.
    ///
    /// # Errors
    /// As for [`Matrix::psd_projection`]; on an error the contents of
    /// `self` are unspecified.
    pub fn project_psd_in_place(
        &mut self,
        scratch: &mut rcr_kernels::Scratch,
    ) -> Result<(), LinalgError> {
        if !self.is_square() {
            return Err(LinalgError::NotSquare {
                rows: self.rows,
                cols: self.cols,
            });
        }
        let n = self.rows;
        // The entries of `symmetrize`: each pair's one sum, halved, goes
        // to both positions (IEEE addition commutes), and the diagonal is
        // `0.5·(a + a)` too, so an overflowing one turns infinite there as
        // well.
        for r in 0..n {
            let (above, rest) = self.data.split_at_mut(r * n);
            let mut column = above.iter_mut().skip(r).step_by(n.max(1));
            // Row r left of the diagonal pairs with column r above it;
            // the column runs out exactly at the diagonal.
            for x in rest.iter_mut().take(r + 1) {
                *x = match column.next() {
                    Some(upper) => {
                        *upper = 0.5 * (*x + *upper);
                        *upper
                    }
                    None => 0.5 * (*x + *x),
                };
            }
        }
        if !self.is_finite() {
            return Err(LinalgError::NotFinite);
        }
        rcr_kernels::psd_projection(&mut self.data, n, scratch)
            .map_err(|iterations| LinalgError::NonConvergence { iterations })
    }

    /// Smallest eigenvalue of the symmetrized matrix; a cheap PSD test.
    ///
    /// # Errors
    /// Returns [`LinalgError::NotSquare`] for non-square input.
    pub fn min_eigenvalue(&self) -> Result<f64, LinalgError> {
        let eig = self.symmetrize()?.symmetric_eigen()?;
        Ok(eig
            .eigenvalues()
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min))
    }
}

/// Lets a constructor that can work in its argument's own buffer, such as
/// [`Cholesky::new`], take either `&Matrix` (it copies) or
/// `Cow::Owned(matrix)` (it does not).
impl<'a> From<&'a Matrix> for Cow<'a, Matrix> {
    fn from(m: &'a Matrix) -> Self {
        Cow::Borrowed(m)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    /// # Panics
    /// Panics when the index is out of bounds.
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &mut self.data[r * self.cols + c]
    }
}

impl Add for &Matrix {
    type Output = Matrix;

    /// # Panics
    /// Panics on shape mismatch; use explicit methods for fallible code paths.
    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "matrix addition shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a + b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl Sub for &Matrix {
    type Output = Matrix;

    /// # Panics
    /// Panics on shape mismatch.
    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.shape(),
            rhs.shape(),
            "matrix subtraction shape mismatch"
        );
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a - b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;

    fn mul(self, s: f64) -> Matrix {
        self.clone().scale(s)
    }
}

impl Neg for &Matrix {
    type Output = Matrix;

    fn neg(self) -> Matrix {
        self.clone().scale(-1.0)
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows {
            write!(f, "[")?;
            for c in 0..self.cols {
                if c > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:10.4}", self.data[r * self.cols + c])?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
        let i = Matrix::identity(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
        assert_eq!(i.trace(), 3.0);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn from_rows_rejects_ragged() {
        assert!(Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]).is_err());
        assert!(Matrix::from_rows(&[]).is_err());
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_dimension_error() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(
            a.matmul(&b),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn matvec_and_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        let y = a.matvec(&[1.0, 0.0, -1.0]).unwrap();
        assert_eq!(y, vec![-2.0, -2.0]);
        let yt = a.matvec_t(&[1.0, 1.0]).unwrap();
        assert_eq!(yt, vec![5.0, 7.0, 9.0]);
        let t = a.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(2, 1)], 6.0);
    }

    #[test]
    fn quadratic_form_matches_manual() {
        let p = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 3.0]]).unwrap();
        let q = p.quadratic_form(&[1.0, 2.0]).unwrap();
        assert_eq!(q, 2.0 + 12.0);
    }

    #[test]
    fn symmetrize_and_checks() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[0.0, 1.0]]).unwrap();
        assert!(!a.is_symmetric(1e-12));
        let s = a.symmetrize().unwrap();
        assert!(s.is_symmetric(1e-12));
        assert_eq!(s[(0, 1)], 1.0);
    }

    #[test]
    fn lane_folded_max_abs_is_the_single_chain_fold() {
        for len in [0usize, 1, 7, 8, 9, 17, 64, 130] {
            let mut data: Vec<f64> = (0..len)
                .map(|k| ((k * 37 % 23) as f64 - 11.0) * 0.3)
                .collect();
            // A NaN and a -0.0 in the lanes, and at length 130 an infinity
            // in the remainder.
            for (k, v) in [(3, f64::NAN), (5, -0.0), (129, f64::NEG_INFINITY)] {
                if let Some(d) = data.get_mut(k) {
                    *d = v;
                }
            }
            let m = Matrix::from_vec(1, len, data.clone()).unwrap();
            let chain = data.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            assert_eq!(m.max_abs().to_bits(), chain.to_bits(), "len {len}");
        }
    }

    #[test]
    fn norms() {
        let a = Matrix::from_rows(&[&[3.0, -4.0], &[0.0, 0.0]]).unwrap();
        assert_eq!(a.frobenius_norm(), 5.0);
        assert_eq!(a.inf_norm(), 7.0);
        assert_eq!(a.max_abs(), 4.0);
    }

    #[test]
    fn psd_projection_clips_negative_modes() {
        let a = Matrix::from_diag(&[2.0, -1.0, 0.5]);
        let p = a.psd_projection().unwrap();
        assert!(p.min_eigenvalue().unwrap() >= -1e-10);
        assert!((p[(0, 0)] - 2.0).abs() < 1e-10);
        assert!(p[(1, 1)].abs() < 1e-10);
    }

    #[test]
    fn set_block_writes_at_offset() {
        let s = Matrix::from_rows(&[&[5.0, 6.0], &[9.0, 10.0]]).unwrap();
        let mut b = Matrix::zeros(4, 4);
        b.set_block(2, 2, &s);
        assert_eq!(b[(2, 2)], 5.0);
        assert_eq!(b[(3, 3)], 10.0);
    }

    #[test]
    fn display_is_nonempty() {
        let a = Matrix::identity(2);
        assert!(!format!("{a}").is_empty());
    }
}
