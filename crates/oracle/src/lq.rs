use dspp_linalg::{Matrix, Vector};
use dspp_solver::SolverError;

/// One stage of a stage-structured linear-quadratic problem.
///
/// The stage contributes cost `½xᵀQx + qᵀx + ½uᵀRu + rᵀu`, obeys the
/// dynamics `x⁺ = A x + B u + c`, and is subject to the mixed stage
/// constraint `Cx·x + Cu·u ≤ d`.
#[derive(Debug, Clone, PartialEq)]
pub struct LqStage {
    /// Dynamics matrix `A` (`n × n`).
    pub a: Matrix,
    /// Input matrix `B` (`n × m_u`).
    pub b: Matrix,
    /// Affine dynamics offset `c` (`n`).
    pub c: Vector,
    /// State cost Hessian `Q` (`n × n`, PSD).
    pub q_mat: Matrix,
    /// State cost gradient `q` (`n`).
    pub q_vec: Vector,
    /// Input cost Hessian `R` (`m_u × m_u`, PD).
    pub r_mat: Matrix,
    /// Input cost gradient `r` (`m_u`).
    pub r_vec: Vector,
    /// State constraint matrix (`m_c × n`).
    pub cx: Matrix,
    /// Input constraint matrix (`m_c × m_u`).
    pub cu: Matrix,
    /// Constraint right-hand side (`m_c`).
    pub d: Vector,
}

impl LqStage {
    /// Creates a stage with identity dynamics (`x⁺ = x + u`), the natural
    /// shape for the DSPP where `u` is the change in server counts.
    ///
    /// The stage starts with zero costs and no constraints; populate it with
    /// the `with_*` methods.
    pub fn identity_dynamics(n: usize) -> Self {
        LqStage {
            a: Matrix::identity(n),
            b: Matrix::identity(n),
            c: Vector::zeros(n),
            q_mat: Matrix::zeros(n, n),
            q_vec: Vector::zeros(n),
            r_mat: Matrix::zeros(n, n),
            r_vec: Vector::zeros(n),
            cx: Matrix::zeros(0, n),
            cu: Matrix::zeros(0, n),
            d: Vector::zeros(0),
        }
    }

    /// Sets the linear state cost `qᵀx`.
    pub fn with_state_cost(mut self, q: Vector) -> Self {
        self.q_vec = q;
        self
    }

    /// Sets a diagonal quadratic input cost `Σ w_i u_i²` (i.e. `R = 2·diag(w)`
    /// so that `½uᵀRu = Σ w_i u_i²`).
    pub fn with_input_penalty(mut self, w: &Vector) -> Self {
        self.r_mat = Matrix::from_diag(&w.scaled(2.0));
        self
    }

    /// Appends stage constraints `Cx·x + Cu·u ≤ d`.
    ///
    /// # Panics
    ///
    /// Panics if the row counts of `cx`, `cu` and `d` differ or the column
    /// counts do not match the stage dimensions.
    pub fn with_constraints(mut self, cx: Matrix, cu: Matrix, d: Vector) -> Self {
        assert_eq!(cx.rows(), d.len(), "constraint row mismatch");
        assert_eq!(cu.rows(), d.len(), "constraint row mismatch");
        assert_eq!(cx.cols(), self.state_dim(), "cx column mismatch");
        assert_eq!(cu.cols(), self.input_dim(), "cu column mismatch");
        self.cx = self.cx.vstack(&cx).expect("cx stack");
        self.cu = self.cu.vstack(&cu).expect("cu stack");
        let mut dd = self.d.clone();
        dd.extend(d.iter().copied());
        self.d = dd;
        self
    }

    /// State dimension `n`.
    pub fn state_dim(&self) -> usize {
        self.a.rows()
    }

    /// Input dimension `m_u`.
    pub fn input_dim(&self) -> usize {
        self.b.cols()
    }

    /// Number of stage constraints.
    pub fn num_constraints(&self) -> usize {
        self.d.len()
    }

    /// Stage cost at `(x, u)`.
    pub fn cost(&self, x: &Vector, u: &Vector) -> f64 {
        0.5 * x.dot(&self.q_mat.matvec(x))
            + self.q_vec.dot(x)
            + 0.5 * u.dot(&self.r_mat.matvec(u))
            + self.r_vec.dot(u)
    }
}

/// Terminal data of a stage-structured problem: cost `½xᵀQx + qᵀx` and
/// constraint `Cx·x ≤ d` on the final state.
#[derive(Debug, Clone, PartialEq)]
pub struct LqTerminal {
    /// Terminal cost Hessian (`n × n`, PSD).
    pub q_mat: Matrix,
    /// Terminal cost gradient (`n`).
    pub q_vec: Vector,
    /// Terminal constraint matrix (`m_c × n`).
    pub cx: Matrix,
    /// Terminal constraint right-hand side (`m_c`).
    pub d: Vector,
}

impl LqTerminal {
    /// Creates an empty terminal (zero cost, no constraints).
    pub fn free(n: usize) -> Self {
        LqTerminal {
            q_mat: Matrix::zeros(n, n),
            q_vec: Vector::zeros(n),
            cx: Matrix::zeros(0, n),
            d: Vector::zeros(0),
        }
    }

    /// Sets the linear terminal cost `qᵀx`.
    pub fn with_state_cost(mut self, q: Vector) -> Self {
        self.q_vec = q;
        self
    }

    /// Appends terminal constraints `Cx·x ≤ d`.
    ///
    /// # Panics
    ///
    /// Panics on row/column mismatches.
    pub fn with_constraints(mut self, cx: Matrix, d: Vector) -> Self {
        assert_eq!(cx.rows(), d.len(), "constraint row mismatch");
        assert_eq!(cx.cols(), self.q_vec.len(), "cx column mismatch");
        self.cx = self.cx.vstack(&cx).expect("cx stack");
        let mut dd = self.d.clone();
        dd.extend(d.iter().copied());
        self.d = dd;
        self
    }

    /// Terminal cost at `x`.
    pub fn cost(&self, x: &Vector) -> f64 {
        0.5 * x.dot(&self.q_mat.matvec(x)) + self.q_vec.dot(x)
    }
}

/// A stage-structured linear-quadratic program over a horizon of `N` stages.
///
/// ```text
/// min  Σ_{k=0}^{N-1} [½x_kᵀQ_k x_k + q_kᵀx_k + ½u_kᵀR_k u_k + r_kᵀu_k]
///      + ½x_NᵀQ_N x_N + q_Nᵀx_N
/// s.t. x_{k+1} = A_k x_k + B_k u_k + c_k
///      Cx_k x_k + Cu_k u_k ≤ d_k,   Cx_N x_N ≤ d_N
///      x_0 fixed.
/// ```
///
/// This is the horizon-truncated DSPP of the paper (Section IV-D) in its
/// natural form. Solve with [`crate::solve_lq`], or flatten to a dense QP
/// with [`crate::flatten_lq`].
#[derive(Debug, Clone, PartialEq)]
pub struct LqProblem {
    /// Initial state (fixed, not a decision variable).
    pub x0: Vector,
    /// The `N` stages.
    pub stages: Vec<LqStage>,
    /// Terminal cost and constraints on `x_N`.
    pub terminal: LqTerminal,
}

impl LqProblem {
    /// Creates a problem, validating all dimensions.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::InvalidProblem`] if the horizon is empty, any
    /// dimension is inconsistent, or any entry is non-finite.
    pub fn new(
        x0: Vector,
        stages: Vec<LqStage>,
        terminal: LqTerminal,
    ) -> Result<Self, SolverError> {
        if stages.is_empty() {
            return Err(SolverError::InvalidProblem("horizon is empty".into()));
        }
        let n = x0.len();
        if n == 0 {
            return Err(SolverError::InvalidProblem(
                "state dimension is zero".into(),
            ));
        }
        if !x0.is_finite() {
            return Err(SolverError::InvalidProblem("x0 is non-finite".into()));
        }
        for (k, st) in stages.iter().enumerate() {
            let mu = st.input_dim();
            let checks: [(bool, &str); 10] = [
                (st.a.rows() == n && st.a.cols() == n, "A shape"),
                (st.b.rows() == n, "B rows"),
                (st.c.len() == n, "c length"),
                (st.q_mat.rows() == n && st.q_mat.cols() == n, "Q shape"),
                (st.q_vec.len() == n, "q length"),
                (st.r_mat.rows() == mu && st.r_mat.cols() == mu, "R shape"),
                (st.r_vec.len() == mu, "r length"),
                (st.cx.cols() == n, "Cx columns"),
                (st.cu.cols() == mu, "Cu columns"),
                (
                    st.cx.rows() == st.d.len() && st.cu.rows() == st.d.len(),
                    "constraint rows",
                ),
            ];
            for (ok, what) in checks {
                if !ok {
                    return Err(SolverError::InvalidProblem(format!(
                        "stage {k}: inconsistent {what}"
                    )));
                }
            }
            let finite = st.a.is_finite()
                && st.b.is_finite()
                && st.c.is_finite()
                && st.q_mat.is_finite()
                && st.q_vec.is_finite()
                && st.r_mat.is_finite()
                && st.r_vec.is_finite()
                && st.cx.is_finite()
                && st.cu.is_finite()
                && st.d.is_finite();
            if !finite {
                return Err(SolverError::InvalidProblem(format!(
                    "stage {k}: non-finite entries"
                )));
            }
        }
        if terminal.q_mat.rows() != n
            || terminal.q_mat.cols() != n
            || terminal.q_vec.len() != n
            || terminal.cx.cols() != n
            || terminal.cx.rows() != terminal.d.len()
        {
            return Err(SolverError::InvalidProblem(
                "terminal: inconsistent dimensions".into(),
            ));
        }
        Ok(LqProblem {
            x0,
            stages,
            terminal,
        })
    }

    /// Horizon length `N`.
    pub fn horizon(&self) -> usize {
        self.stages.len()
    }

    /// State dimension `n`.
    pub fn state_dim(&self) -> usize {
        self.x0.len()
    }

    /// Total number of inequality constraints across all stages.
    pub fn num_constraints(&self) -> usize {
        self.stages
            .iter()
            .map(LqStage::num_constraints)
            .sum::<usize>()
            + self.terminal.d.len()
    }

    /// Simulates the dynamics from `x0` under the input sequence `us`.
    ///
    /// Returns the state trajectory `x_0..x_N`.
    ///
    /// # Panics
    ///
    /// Panics if `us.len() != horizon()` or an input has the wrong length.
    pub fn rollout(&self, us: &[Vector]) -> Vec<Vector> {
        assert_eq!(us.len(), self.horizon(), "rollout: wrong input count");
        let mut xs = Vec::with_capacity(self.horizon() + 1);
        xs.push(self.x0.clone());
        for (k, st) in self.stages.iter().enumerate() {
            let x = &xs[k];
            let mut xn = st.a.matvec(x);
            xn += &st.b.matvec(&us[k]);
            xn += &st.c;
            xs.push(xn);
        }
        xs
    }

    /// Total objective of a trajectory.
    ///
    /// # Panics
    ///
    /// Panics on trajectory length mismatches.
    pub fn objective(&self, xs: &[Vector], us: &[Vector]) -> f64 {
        assert_eq!(xs.len(), self.horizon() + 1, "objective: state count");
        assert_eq!(us.len(), self.horizon(), "objective: input count");
        let mut j = 0.0;
        for (k, st) in self.stages.iter().enumerate() {
            j += st.cost(&xs[k], &us[k]);
        }
        j + self.terminal.cost(&xs[self.horizon()])
    }

    /// Largest stage/terminal constraint violation along a trajectory.
    pub fn max_violation(&self, xs: &[Vector], us: &[Vector]) -> f64 {
        let mut v: f64 = 0.0;
        for (k, st) in self.stages.iter().enumerate() {
            if st.num_constraints() > 0 {
                let lhs = &st.cx.matvec(&xs[k]) + &st.cu.matvec(&us[k]);
                v = v.max((&lhs - &st.d).max().max(0.0));
            }
        }
        if !self.terminal.d.is_empty() {
            let lhs = self.terminal.cx.matvec(&xs[self.horizon()]);
            v = v.max((&lhs - &self.terminal.d).max().max(0.0));
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_problem() -> LqProblem {
        let n = 2;
        let stage = LqStage::identity_dynamics(n)
            .with_state_cost(Vector::from(vec![1.0, 2.0]))
            .with_input_penalty(&Vector::from(vec![0.5, 0.5]));
        LqProblem::new(
            Vector::zeros(n),
            vec![stage.clone(), stage],
            LqTerminal::free(n).with_state_cost(Vector::from(vec![1.0, 2.0])),
        )
        .unwrap()
    }

    #[test]
    fn builder_shapes() {
        let p = simple_problem();
        assert_eq!(p.horizon(), 2);
        assert_eq!(p.state_dim(), 2);
        assert_eq!(p.num_constraints(), 0);
    }

    #[test]
    fn rejects_empty_horizon() {
        let err = LqProblem::new(Vector::zeros(1), vec![], LqTerminal::free(1)).unwrap_err();
        assert!(matches!(err, SolverError::InvalidProblem(_)));
    }

    #[test]
    fn rejects_dimension_mismatch() {
        let stage = LqStage::identity_dynamics(2);
        let err = LqProblem::new(Vector::zeros(3), vec![stage], LqTerminal::free(3)).unwrap_err();
        assert!(matches!(err, SolverError::InvalidProblem(_)));
    }

    #[test]
    fn rejects_non_finite() {
        let mut stage = LqStage::identity_dynamics(1);
        stage.q_vec = Vector::from(vec![f64::NAN]);
        let err = LqProblem::new(Vector::zeros(1), vec![stage], LqTerminal::free(1)).unwrap_err();
        assert!(matches!(err, SolverError::InvalidProblem(_)));
    }

    #[test]
    fn rollout_tracks_identity_dynamics() {
        let p = simple_problem();
        let us = vec![Vector::from(vec![1.0, 0.0]), Vector::from(vec![0.0, 2.0])];
        let xs = p.rollout(&us);
        assert_eq!(xs[0].as_slice(), &[0.0, 0.0]);
        assert_eq!(xs[1].as_slice(), &[1.0, 0.0]);
        assert_eq!(xs[2].as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn objective_adds_stage_and_terminal_costs() {
        let p = simple_problem();
        let us = vec![Vector::from(vec![1.0, 0.0]), Vector::zeros(2)];
        let xs = p.rollout(&us);
        // Stage 0: x=(0,0) cost 0; u penalty 0.5*1² = 0.5.
        // Stage 1: x=(1,0) cost 1; u penalty 0.
        // Terminal: x=(1,0) cost 1.
        assert!((p.objective(&xs, &us) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn with_constraints_accumulates_rows() {
        let n = 2;
        let stage = LqStage::identity_dynamics(n)
            .with_constraints(
                Matrix::from_rows(&[&[1.0, 0.0]]).unwrap(),
                Matrix::zeros(1, n),
                Vector::from(vec![5.0]),
            )
            .with_constraints(
                Matrix::from_rows(&[&[0.0, 1.0]]).unwrap(),
                Matrix::zeros(1, n),
                Vector::from(vec![7.0]),
            );
        assert_eq!(stage.num_constraints(), 2);
        assert_eq!(stage.d.as_slice(), &[5.0, 7.0]);
    }

    #[test]
    fn violation_measures_worst_row() {
        let n = 1;
        let stage = LqStage::identity_dynamics(n).with_constraints(
            Matrix::from_rows(&[&[1.0]]).unwrap(),
            Matrix::zeros(1, 1),
            Vector::from(vec![0.5]),
        );
        let p = LqProblem::new(Vector::from(vec![2.0]), vec![stage], LqTerminal::free(n)).unwrap();
        let us = vec![Vector::zeros(1)];
        let xs = p.rollout(&us);
        assert!((p.max_violation(&xs, &us) - 1.5).abs() < 1e-12);
    }
}
