use dspp_linalg::{Matrix, Vector};
use dspp_solver::{SolveStatus, SolverError};

/// A dense convex quadratic program
/// `min ½xᵀPx + qᵀx  s.t.  Ax = b, Gx ≤ h`.
///
/// `P` must be symmetric positive semidefinite; the builder only checks
/// shapes and finiteness (definiteness failures surface as factorization
/// errors at solve time).
///
/// # Examples
///
/// ```
/// use dspp_linalg::{Matrix, Vector};
/// use dspp_oracle::QpProblem;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let p = Matrix::identity(2);
/// let q = Vector::zeros(2);
/// let qp = QpProblem::new(p, q)?
///     .with_inequalities(Matrix::from_rows(&[&[-1.0, 0.0]])?, Vector::from(vec![-1.0]))?;
/// assert_eq!(qp.num_vars(), 2);
/// assert_eq!(qp.num_inequalities(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QpProblem {
    pub(crate) p: Matrix,
    pub(crate) q: Vector,
    pub(crate) a: Matrix,
    pub(crate) b: Vector,
    pub(crate) g: Matrix,
    pub(crate) h: Vector,
}

impl QpProblem {
    /// Creates an unconstrained QP `min ½xᵀPx + qᵀx`.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::InvalidProblem`] if `P` is not square, its
    /// dimension does not match `q`, or any entry is non-finite.
    pub fn new(p: Matrix, q: Vector) -> Result<Self, SolverError> {
        if !p.is_square() {
            return Err(SolverError::InvalidProblem(format!(
                "P is {}x{}, expected square",
                p.rows(),
                p.cols()
            )));
        }
        if p.rows() != q.len() {
            return Err(SolverError::InvalidProblem(format!(
                "P is {}x{} but q has length {}",
                p.rows(),
                p.cols(),
                q.len()
            )));
        }
        if !p.is_finite() || !q.is_finite() {
            return Err(SolverError::InvalidProblem(
                "P or q contains non-finite entries".into(),
            ));
        }
        let n = q.len();
        Ok(QpProblem {
            p,
            q,
            a: Matrix::zeros(0, n),
            b: Vector::zeros(0),
            g: Matrix::zeros(0, n),
            h: Vector::zeros(0),
        })
    }

    /// Adds (replaces) the equality constraints `Ax = b`.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::InvalidProblem`] on shape mismatch or
    /// non-finite data.
    pub fn with_equalities(mut self, a: Matrix, b: Vector) -> Result<Self, SolverError> {
        if a.cols() != self.num_vars() {
            return Err(SolverError::InvalidProblem(format!(
                "A has {} columns, expected {}",
                a.cols(),
                self.num_vars()
            )));
        }
        if a.rows() != b.len() {
            return Err(SolverError::InvalidProblem(format!(
                "A has {} rows but b has length {}",
                a.rows(),
                b.len()
            )));
        }
        if !a.is_finite() || !b.is_finite() {
            return Err(SolverError::InvalidProblem(
                "A or b contains non-finite entries".into(),
            ));
        }
        self.a = a;
        self.b = b;
        Ok(self)
    }

    /// Adds (replaces) the inequality constraints `Gx ≤ h`.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::InvalidProblem`] on shape mismatch or
    /// non-finite data.
    pub fn with_inequalities(mut self, g: Matrix, h: Vector) -> Result<Self, SolverError> {
        if g.cols() != self.num_vars() {
            return Err(SolverError::InvalidProblem(format!(
                "G has {} columns, expected {}",
                g.cols(),
                self.num_vars()
            )));
        }
        if g.rows() != h.len() {
            return Err(SolverError::InvalidProblem(format!(
                "G has {} rows but h has length {}",
                g.rows(),
                h.len()
            )));
        }
        if !g.is_finite() || !h.is_finite() {
            return Err(SolverError::InvalidProblem(
                "G or h contains non-finite entries".into(),
            ));
        }
        self.g = g;
        self.h = h;
        Ok(self)
    }

    /// Number of decision variables.
    pub fn num_vars(&self) -> usize {
        self.q.len()
    }

    /// Number of equality constraints.
    pub fn num_equalities(&self) -> usize {
        self.b.len()
    }

    /// Number of inequality constraints.
    pub fn num_inequalities(&self) -> usize {
        self.h.len()
    }

    /// Evaluates the objective `½xᵀPx + qᵀx`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != num_vars()`.
    pub fn objective(&self, x: &Vector) -> f64 {
        0.5 * x.dot(&self.p.matvec(x)) + self.q.dot(x)
    }

    /// Largest violation of the constraints at `x` (`0.0` if feasible).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != num_vars()`.
    pub fn max_violation(&self, x: &Vector) -> f64 {
        let mut v: f64 = 0.0;
        if self.num_equalities() > 0 {
            v = v.max((&self.a.matvec(x) - &self.b).norm_inf());
        }
        if self.num_inequalities() > 0 {
            let slack = &self.h - &self.g.matvec(x);
            v = v.max((-slack.min()).max(0.0));
        }
        v
    }
}

/// Primal–dual solution of a [`QpProblem`].
#[derive(Debug, Clone, PartialEq)]
pub struct QpSolution {
    /// Primal solution.
    pub x: Vector,
    /// Multipliers of the equality constraints `Ax = b`.
    pub y: Vector,
    /// Multipliers of the inequality constraints `Gx ≤ h` (non-negative).
    pub z: Vector,
    /// Slacks `h − Gx` at the solution (non-negative).
    pub s: Vector,
    /// Objective value at `x`.
    pub objective: f64,
    /// Interior-point iterations used.
    pub iterations: usize,
    /// Termination status.
    pub status: SolveStatus,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_validates_shapes() {
        assert!(QpProblem::new(Matrix::zeros(2, 3), Vector::zeros(2)).is_err());
        assert!(QpProblem::new(Matrix::identity(2), Vector::zeros(3)).is_err());
        let qp = QpProblem::new(Matrix::identity(2), Vector::zeros(2)).unwrap();
        assert!(qp
            .clone()
            .with_inequalities(Matrix::zeros(1, 3), Vector::zeros(1))
            .is_err());
        assert!(qp
            .clone()
            .with_inequalities(Matrix::zeros(2, 2), Vector::zeros(1))
            .is_err());
        assert!(qp
            .clone()
            .with_equalities(Matrix::zeros(1, 2), Vector::zeros(2))
            .is_err());
        assert!(qp
            .with_equalities(Matrix::zeros(1, 2), Vector::zeros(1))
            .is_ok());
    }

    #[test]
    fn builder_rejects_non_finite_data() {
        let mut p = Matrix::identity(2);
        p[(0, 1)] = f64::NAN;
        assert!(QpProblem::new(p, Vector::zeros(2)).is_err());
        let qp = QpProblem::new(Matrix::identity(1), Vector::zeros(1)).unwrap();
        assert!(qp
            .with_inequalities(Matrix::zeros(1, 1), Vector::from(vec![f64::INFINITY]))
            .is_err());
    }

    #[test]
    fn objective_and_violation() {
        let qp = QpProblem::new(Matrix::identity(2), Vector::from(vec![1.0, 0.0]))
            .unwrap()
            .with_inequalities(
                Matrix::from_rows(&[&[1.0, 0.0]]).unwrap(),
                Vector::from(vec![0.5]),
            )
            .unwrap();
        let x = Vector::from(vec![1.0, 1.0]);
        assert!((qp.objective(&x) - 2.0).abs() < 1e-12);
        assert!((qp.max_violation(&x) - 0.5).abs() < 1e-12);
        let x = Vector::from(vec![0.0, 0.0]);
        assert_eq!(qp.max_violation(&x), 0.0);
    }
}
