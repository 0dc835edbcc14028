use std::iter::FromIterator;
use std::ops::{Add, Index, IndexMut, Sub};

/// A dense `f64` vector.
///
/// `Vector` is a thin, value-semantics wrapper around `Vec<f64>` that adds
/// the handful of BLAS-1 style operations the solvers need. All binary
/// operations panic on dimension mismatch (the solvers construct operands of
/// matching sizes by design, so a mismatch is a programming error, not a
/// recoverable condition).
///
/// # Examples
///
/// ```
/// use dspp_linalg::Vector;
///
/// let a = Vector::from(vec![1.0, 2.0, 3.0]);
/// let b = Vector::filled(3, 1.0);
/// assert_eq!(a.dot(&b), 6.0);
/// assert_eq!((&a + &b).as_slice(), &[2.0, 3.0, 4.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Vector {
    data: Vec<f64>,
}

impl Vector {
    /// Creates a vector of `n` zeros.
    pub fn zeros(n: usize) -> Self {
        Vector { data: vec![0.0; n] }
    }

    /// Creates a vector of `n` copies of `value`.
    pub fn filled(n: usize, value: f64) -> Self {
        Vector {
            data: vec![value; n],
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the vector has no entries.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrows the entries as a slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Borrows the entries as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Iterates over the entries.
    pub fn iter(&self) -> std::slice::Iter<'_, f64> {
        self.data.iter()
    }

    /// Iterates mutably over the entries.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, f64> {
        self.data.iter_mut()
    }

    /// Dot product `self · other`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn dot(&self, other: &Vector) -> f64 {
        assert_eq!(
            self.len(),
            other.len(),
            "dot: length {} vs {}",
            self.len(),
            other.len()
        );
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| a * b)
            .sum()
    }

    /// In-place `self += alpha * x` (BLAS `axpy`).
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn axpy(&mut self, alpha: f64, x: &Vector) {
        assert_eq!(
            self.len(),
            x.len(),
            "axpy: length {} vs {}",
            self.len(),
            x.len()
        );
        for (s, xi) in self.data.iter_mut().zip(x.data.iter()) {
            *s += alpha * xi;
        }
    }

    /// In-place multiplication by a scalar.
    pub fn scale(&mut self, alpha: f64) {
        for s in &mut self.data {
            *s *= alpha;
        }
    }

    /// Infinity norm (largest absolute entry; `0.0` for the empty vector).
    pub fn norm_inf(&self) -> f64 {
        self.data.iter().fold(0.0f64, |m, &x| m.max(x.abs()))
    }

    /// Writes the element-wise product `self ∘ other` into `out`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn hadamard_into(&self, other: &Vector, out: &mut Vector) {
        assert_eq!(self.len(), other.len(), "hadamard_into: length mismatch");
        assert_eq!(self.len(), out.len(), "hadamard_into: output length");
        for ((o, a), b) in out.data.iter_mut().zip(&self.data).zip(&other.data) {
            *o = a * b;
        }
    }

    /// Overwrites every entry with a copy of `other`'s.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn copy_from(&mut self, other: &Vector) {
        assert_eq!(self.len(), other.len(), "copy_from: length mismatch");
        self.data.copy_from_slice(&other.data);
    }

    /// Sets every entry to `value`.
    pub fn fill(&mut self, value: f64) {
        self.data.fill(value);
    }

    /// Applies `f` to every entry, returning a new vector.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Vector {
        self.data.iter().map(|&x| f(x)).collect()
    }

    /// Returns `true` if every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

impl From<Vec<f64>> for Vector {
    fn from(data: Vec<f64>) -> Self {
        Vector { data }
    }
}

impl From<&[f64]> for Vector {
    fn from(data: &[f64]) -> Self {
        Vector {
            data: data.to_vec(),
        }
    }
}

impl FromIterator<f64> for Vector {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Vector {
            data: iter.into_iter().collect(),
        }
    }
}

impl Index<usize> for Vector {
    type Output = f64;
    fn index(&self, i: usize) -> &f64 {
        &self.data[i]
    }
}

impl IndexMut<usize> for Vector {
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.data[i]
    }
}

impl<'a> IntoIterator for &'a Vector {
    type Item = &'a f64;
    type IntoIter = std::slice::Iter<'a, f64>;
    fn into_iter(self) -> Self::IntoIter {
        self.data.iter()
    }
}

impl Add for &Vector {
    type Output = Vector;
    fn add(self, rhs: &Vector) -> Vector {
        assert_eq!(self.len(), rhs.len(), "add: length mismatch");
        self.data
            .iter()
            .zip(rhs.data.iter())
            .map(|(a, b)| a + b)
            .collect()
    }
}

impl Sub for &Vector {
    type Output = Vector;
    fn sub(self, rhs: &Vector) -> Vector {
        assert_eq!(self.len(), rhs.len(), "sub: length mismatch");
        self.data
            .iter()
            .zip(rhs.data.iter())
            .map(|(a, b)| a - b)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn constructors() {
        assert_eq!(Vector::zeros(3).as_slice(), &[0.0; 3]);
        assert_eq!(Vector::filled(2, 7.5).as_slice(), &[7.5, 7.5]);
        assert!(Vector::zeros(0).is_empty());
    }

    #[test]
    fn dot_and_norms() {
        let a = Vector::from(vec![3.0, 4.0]);
        assert_eq!(a.dot(&a), 25.0);
        assert_eq!(a.norm_inf(), 4.0);
        assert_eq!(Vector::zeros(0).norm_inf(), 0.0);
    }

    #[test]
    fn axpy_updates_in_place() {
        let mut a = Vector::from(vec![1.0, 2.0]);
        a.axpy(2.0, &Vector::from(vec![10.0, 20.0]));
        assert_eq!(a.as_slice(), &[21.0, 42.0]);
    }

    #[test]
    fn arithmetic_operators() {
        let a = Vector::from(vec![1.0, 2.0]);
        let b = Vector::from(vec![3.0, 5.0]);
        assert_eq!((&a + &b).as_slice(), &[4.0, 7.0]);
        assert_eq!((&b - &a).as_slice(), &[2.0, 3.0]);
    }

    #[test]
    fn hadamard_and_map() {
        let a = Vector::from(vec![1.0, 2.0]);
        let b = Vector::from(vec![3.0, 4.0]);
        let mut ab = Vector::zeros(2);
        a.hadamard_into(&b, &mut ab);
        assert_eq!(ab.as_slice(), &[3.0, 8.0]);
        assert_eq!(a.map(|x| x * x).as_slice(), &[1.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "dot: length")]
    fn dot_length_mismatch_panics() {
        Vector::zeros(2).dot(&Vector::zeros(3));
    }

    #[test]
    fn is_finite_detects_nan_and_inf() {
        assert!(Vector::from(vec![1.0, 2.0]).is_finite());
        assert!(!Vector::from(vec![1.0, f64::NAN]).is_finite());
        assert!(!Vector::from(vec![f64::INFINITY]).is_finite());
    }

    #[test]
    fn iteration_and_collection() {
        let a: Vector = (0..4).map(|i| i as f64).collect();
        let doubled: Vector = a.iter().map(|x| 2.0 * x).collect();
        assert_eq!(doubled.as_slice(), &[0.0, 2.0, 4.0, 6.0]);
        let total: f64 = (&a).into_iter().sum();
        assert_eq!(total, 6.0);
    }

    proptest! {
        #[test]
        fn prop_dot_commutes(xs in prop::collection::vec(-1e3f64..1e3, 0..32)) {
            let a = Vector::from(xs.clone());
            let b = a.map(|x| x + 1.0);
            prop_assert!((a.dot(&b) - b.dot(&a)).abs() < 1e-6);
        }

        #[test]
        fn prop_triangle_inequality(
            xs in prop::collection::vec(-1e3f64..1e3, 1..32),
            ys in prop::collection::vec(-1e3f64..1e3, 1..32),
        ) {
            let n = xs.len().min(ys.len());
            let a = Vector::from(xs[..n].to_vec());
            let b = Vector::from(ys[..n].to_vec());
            prop_assert!((&a + &b).norm_inf() <= a.norm_inf() + b.norm_inf() + 1e-9);
        }

        #[test]
        fn prop_axpy_matches_operator(
            xs in prop::collection::vec(-1e3f64..1e3, 1..16),
            alpha in -10.0f64..10.0,
        ) {
            let a = Vector::from(xs.clone());
            let mut c = a.clone();
            c.axpy(alpha, &a);
            let mut scaled = a.clone();
            scaled.scale(alpha);
            let expect = &a + &scaled;
            prop_assert!((&c - &expect).norm_inf() < 1e-9);
        }
    }
}
