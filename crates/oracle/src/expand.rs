//! The dense expansion of a structured problem.

use crate::dense::MatrixOps;
use crate::{LqProblem, LqStage, LqTerminal};
use dspp_linalg::{Matrix, Vector};
use dspp_solver::StructuredLq;

/// Expands `slq` to the equivalent dense [`LqProblem`]: identity dynamics,
/// `R = diag(r)` on every stage, and the slot rows — demand, capacity,
/// then `−x_e ≤ 0` per arc — written out as one dense constraint matrix on
/// every slot `1..=W`; stage 0 carries no rows.
///
/// # Panics
///
/// Does not panic: a valid [`StructuredLq`] always expands to a valid
/// [`LqProblem`].
pub fn expand(slq: &StructuredLq) -> LqProblem {
    let (n, w, m_rows) = (slq.state_dim(), slq.horizon(), slq.num_rows());
    let coupling = slq.demand_rows().len() + slq.capacity_rows().len();
    let mut cx = Matrix::zeros(m_rows, n);
    for e in 0..n {
        cx[(coupling + e, e)] = -1.0;
    }
    let rows = slq.demand_rows().iter().chain(slq.capacity_rows());
    for (i, c) in rows.enumerate() {
        for &(e, coeff) in &c.entries {
            cx[(i, e)] = coeff;
        }
    }
    // The coupling rows' right-hand side, then zero for non-negativity.
    let rhs = |k: usize| -> Vector {
        let mut d = Vector::zeros(m_rows);
        for (di, &v) in d.iter_mut().zip(slq.rhs(k).iter()) {
            *di = v;
        }
        d
    };
    let mut stages = Vec::with_capacity(w);
    for k in 0..w {
        let mut st = LqStage::identity_dynamics(n);
        st.r_mat = Matrix::from_diag(slq.reconfiguration());
        if k > 0 {
            st.q_vec = slq.prices(k).clone();
            st = st.with_constraints(cx.clone(), Matrix::zeros(m_rows, n), rhs(k));
        }
        stages.push(st);
    }
    let terminal = LqTerminal::free(n)
        .with_state_cost(slq.prices(w).clone())
        .with_constraints(cx, rhs(w));
    LqProblem::new(slq.x0().clone(), stages, terminal).expect("structured expansion is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dspp_solver::CouplingRow;

    /// Two DCs × two locations, every arc usable: 4 arcs, 2 demand rows,
    /// 2 capacity rows, 4 implicit non-negativity rows.
    fn dspp_like(w: usize) -> StructuredLq {
        let n = 4; // arcs: (dc0,v0) (dc0,v1) (dc1,v0) (dc1,v1)
        let demand = vec![
            CouplingRow {
                entries: vec![(0, -1.0), (2, -1.2)],
            },
            CouplingRow {
                entries: vec![(1, -0.8), (3, -1.0)],
            },
        ];
        let capacity = vec![
            CouplingRow {
                entries: vec![(0, 1.0), (1, 1.0)],
            },
            CouplingRow {
                entries: vec![(2, 1.0), (3, 1.0)],
            },
        ];
        StructuredLq::new(
            Vector::zeros(n),
            vec![Vector::from(vec![1.0, 2.0, 3.0, 1.5]); w],
            Vector::filled(n, 0.2),
            demand,
            capacity,
            vec![Vector::from(vec![-5.0, -3.0, 40.0, 40.0]); w],
        )
        .unwrap()
    }

    #[test]
    fn dense_expansion_reproduces_the_rows() {
        let slq = dspp_like(3);
        let dense = expand(&slq);
        assert_eq!(dense.horizon(), 3);
        assert_eq!(dense.stages[0].num_constraints(), 0);
        assert_eq!(
            dense.terminal.d.as_slice(),
            &[-5.0, -3.0, 40.0, 40.0, 0.0, 0.0, 0.0, 0.0]
        );
        let cx = &dense.terminal.cx;
        assert_eq!(cx[(0, 2)], -1.2);
        assert_eq!(cx[(3, 3)], 1.0);
        assert_eq!(cx[(4, 0)], -1.0);
    }
}
