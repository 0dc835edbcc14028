use std::error::Error;
use std::fmt;

/// Errors produced by the linear-algebra kernels.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum LinalgError {
    /// Two operands had incompatible dimensions.
    ///
    /// Carries a human-readable description of the mismatch, e.g.
    /// `"from_rows: row 0 has 3 columns but row 1 has 2"`.
    DimensionMismatch(String),
    /// A factorization failed because the matrix is not (numerically)
    /// positive definite.
    NotPositiveDefinite {
        /// Index of the pivot at which the failure was detected.
        pivot: usize,
    },
    /// A factorization failed because the matrix is (numerically) singular.
    Singular {
        /// Index of the pivot at which the failure was detected.
        pivot: usize,
    },
    /// A least-squares problem was rank deficient.
    RankDeficient {
        /// Column index at which the deficiency was detected.
        column: usize,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::DimensionMismatch(msg) => write!(f, "dimension mismatch: {msg}"),
            LinalgError::NotPositiveDefinite { pivot } => {
                write!(f, "matrix is not positive definite (pivot {pivot})")
            }
            LinalgError::Singular { pivot } => {
                write!(f, "matrix is numerically singular (pivot {pivot})")
            }
            LinalgError::RankDeficient { column } => {
                write!(
                    f,
                    "least-squares system is rank deficient (column {column})"
                )
            }
        }
    }
}

impl Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = LinalgError::DimensionMismatch("a 2x2 vs b 3".into());
        assert!(e.to_string().contains("dimension mismatch"));
        let e = LinalgError::NotPositiveDefinite { pivot: 3 };
        assert!(e.to_string().contains("pivot 3"));
        let e = LinalgError::Singular { pivot: 1 };
        assert!(e.to_string().contains("singular"));
        let e = LinalgError::RankDeficient { column: 0 };
        assert!(e.to_string().contains("rank deficient"));
    }

    #[test]
    fn error_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LinalgError>();
    }
}
