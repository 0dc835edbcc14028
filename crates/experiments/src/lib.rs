//! Regenerators for every figure of the ICDCS'12 evaluation (Section VII).
//!
//! One module per figure; each `run*` function returns a [`Figure`] holding
//! the same series the paper plots, which the `figN` binaries print and
//! write to `results/figN.csv`. Run everything with
//!
//! ```text
//! cargo run -p dspp-experiments --release --bin all
//! ```
//!
//! The paper's Table I is its notation table — there is nothing to
//! regenerate for it. The mapping from figure to module, workload and
//! expected shape lives in `DESIGN.md` §5 and the measured outcomes in
//! `EXPERIMENTS.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod extras;
pub mod fig10;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod scenario;
pub mod streaming;
pub mod tournament;

use std::error::Error;
use std::fs;
use std::path::{Path, PathBuf};

/// Convenience alias used by every experiment.
pub type ExpResult<T> = Result<T, Box<dyn Error + Send + Sync>>;

/// A reproduced figure: a labelled table of series plus shape notes.
#[derive(Debug, Clone)]
pub struct Figure {
    /// Identifier, e.g. `"fig5"`.
    pub id: &'static str,
    /// Human-readable title (mirrors the paper's caption).
    pub title: String,
    /// Column names; the first column is the x axis.
    pub header: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<f64>>,
    /// Shape observations (who wins, where peaks/crossovers fall).
    pub notes: Vec<String>,
}

impl Figure {
    /// Writes the figure as CSV under `dir`, returning the path.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn write_csv(&self, dir: &Path) -> std::io::Result<PathBuf> {
        fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.csv", self.id));
        let mut out = String::new();
        out.push_str(&self.header.join(","));
        out.push('\n');
        for row in &self.rows {
            let line: Vec<String> = row.iter().map(|x| format!("{x:.6}")).collect();
            out.push_str(&line.join(","));
            out.push('\n');
        }
        fs::write(&path, out)?;
        Ok(path)
    }

    /// Renders the figure as a text table plus its notes.
    pub fn render(&self) -> String {
        let mut s = format!("== {} — {} ==\n", self.id, self.title);
        s.push_str(&self.header.join("\t"));
        s.push('\n');
        for row in &self.rows {
            let line: Vec<String> = row.iter().map(|x| format!("{x:.3}")).collect();
            s.push_str(&line.join("\t"));
            s.push('\n');
        }
        for note in &self.notes {
            s.push_str(&format!("note: {note}\n"));
        }
        s
    }
}

/// The output directory: `$DSPP_RESULTS` or `./results`.
pub fn results_dir() -> PathBuf {
    std::env::var_os("DSPP_RESULTS")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// Runs a figure function, prints its table and writes its CSV.
///
/// # Errors
///
/// Propagates the experiment's own failure or the CSV write.
pub fn emit(figure: ExpResult<Figure>) -> ExpResult<()> {
    let figure = figure?;
    print!("{}", figure.render());
    let path = figure.write_csv(&results_dir())?;
    println!("wrote {}\n", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_csv_roundtrip() {
        let fig = Figure {
            id: "figtest",
            title: "test".into(),
            header: vec!["x".into(), "y".into()],
            rows: vec![vec![1.0, 2.0], vec![3.0, 4.0]],
            notes: vec!["shape holds".into()],
        };
        let dir = std::env::temp_dir().join("dspp-exp-test");
        let path = fig.write_csv(&dir).unwrap();
        let text = std::fs::read_to_string(path).unwrap();
        assert!(text.starts_with("x,y\n"));
        assert!(text.contains("3.000000,4.000000"));
        assert!(fig.render().contains("figtest"));
        assert!(fig.render().contains("note: shape holds"));
    }
}
