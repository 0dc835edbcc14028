//! The dense expansion of a structured problem.

use crate::{LqProblem, LqStage, LqTerminal};
use dspp_linalg::{Matrix, Vector};
use dspp_solver::StructuredLq;

/// Expands `slq` to the equivalent dense [`LqProblem`]: identity dynamics,
/// `R_k = diag(r_k)`, and the slot rows written out as one dense
/// constraint matrix on every slot `1..=W`. A box bound becomes
/// `[I; −I]·u ≤ u_max` input rows appended after the state rows of every
/// stage (stage 0 carries only those).
///
/// # Panics
///
/// Does not panic: a valid [`StructuredLq`] always expands to a valid
/// [`LqProblem`].
pub fn expand(slq: &StructuredLq) -> LqProblem {
    let (n, w, m_rows) = (slq.state_dim(), slq.horizon(), slq.num_rows());
    let mut cx = Matrix::zeros(m_rows, n);
    for dr in slq.diag_rows() {
        cx[(dr.row, dr.arc)] = dr.coeff;
    }
    for c in slq.group_a().iter().chain(slq.group_b()) {
        for &(e, coeff) in &c.entries {
            cx[(c.row, e)] = coeff;
        }
    }
    let box_rows = slq.input_bound().map(|u_max| {
        let mut cu = Matrix::zeros(2 * n, n);
        for e in 0..n {
            cu[(e, e)] = 1.0;
            cu[(n + e, e)] = -1.0;
        }
        (cu, Vector::filled(2 * n, u_max))
    });
    let mut stages = Vec::with_capacity(w);
    for k in 0..w {
        let mut st = LqStage::identity_dynamics(n);
        st.r_mat = Matrix::from_diag(slq.input_cost_diag(k));
        st.r_vec = slq.input_cost_linear(k).clone();
        st.q_vec = slq.state_cost(k).clone();
        if k > 0 {
            st = st.with_constraints(cx.clone(), Matrix::zeros(m_rows, n), slq.rhs(k).clone());
        }
        if let Some((cu, d)) = &box_rows {
            st = st.with_constraints(Matrix::zeros(2 * n, n), cu.clone(), d.clone());
        }
        stages.push(st);
    }
    let terminal = LqTerminal::free(n)
        .with_state_cost(slq.state_cost(w).clone())
        .with_constraints(cx, slq.rhs(w).clone());
    LqProblem::new(slq.x0().clone(), stages, terminal).expect("structured expansion is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dspp_solver::{CouplingRow, DiagRow};

    /// Two DCs × two locations, every arc usable: 4 arcs, 2 demand rows
    /// (group A), 2 capacity rows (group B), 4 non-negativity diag rows.
    fn dspp_like(w: usize) -> StructuredLq {
        let n = 4; // arcs: (dc0,v0) (dc0,v1) (dc1,v0) (dc1,v1)
        let m_rows = 2 + 2 + n;
        let diag_rows = (0..n)
            .map(|e| DiagRow {
                row: 4 + e,
                arc: e,
                coeff: -1.0,
            })
            .collect();
        let group_a = vec![
            CouplingRow {
                row: 0,
                entries: vec![(0, -1.0), (2, -1.2)],
            },
            CouplingRow {
                row: 1,
                entries: vec![(1, -0.8), (3, -1.0)],
            },
        ];
        let group_b = vec![
            CouplingRow {
                row: 2,
                entries: vec![(0, 1.0), (1, 1.0)],
            },
            CouplingRow {
                row: 3,
                entries: vec![(2, 1.0), (3, 1.0)],
            },
        ];
        let mut d = Vector::zeros(m_rows);
        d[0] = -5.0;
        d[1] = -3.0;
        d[2] = 40.0;
        d[3] = 40.0;
        StructuredLq::new(
            Vector::zeros(n),
            Vector::zeros(n),
            vec![Vector::from(vec![1.0, 2.0, 3.0, 1.5]); w],
            vec![Vector::filled(n, 0.2); w],
            vec![Vector::zeros(n); w],
            vec![d; w],
            diag_rows,
            group_a,
            group_b,
            m_rows,
        )
        .unwrap()
    }

    #[test]
    fn dense_expansion_reproduces_the_rows() {
        let slq = dspp_like(3);
        let dense = expand(&slq);
        assert_eq!(dense.horizon(), 3);
        assert_eq!(dense.stages[0].num_constraints(), 0);
        assert_eq!(&dense.terminal.d, slq.rhs(3));
        let cx = &dense.terminal.cx;
        assert_eq!(cx[(0, 2)], -1.2);
        assert_eq!(cx[(3, 3)], 1.0);
        assert_eq!(cx[(4, 0)], -1.0);
        // A box bound adds 2n input rows to every stage, none to the
        // terminal.
        let bounded = expand(&dspp_like(3).with_input_bound(0.5).unwrap());
        assert_eq!(bounded.stages[0].num_constraints(), 8);
        assert_eq!(bounded.stages[1].num_constraints(), 8 + 8);
        assert_eq!(bounded.terminal.d.len(), 8);
        assert_eq!(bounded.stages[1].cu[(8 + 4 + 1, 1)], -1.0);
        assert!(dspp_like(1).with_input_bound(0.0).is_err());
    }
}
