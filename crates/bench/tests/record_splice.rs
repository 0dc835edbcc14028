//! `dspp-bench record --only` splices its rows into an existing baseline.
//!
//! Recording one workload into a copy of the committed
//! `BENCH_BASELINE.json` must rewrite that workload's row in place and
//! leave every other row byte for byte.

use std::process::Command;

use dspp_bench::baseline::WORKLOADS;

#[test]
fn record_only_splices_into_the_committed_baseline() {
    let committed = include_str!("../../../BENCH_BASELINE.json");
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("record-splice-{}.json", std::process::id()));
    std::fs::write(&out, committed).unwrap();
    let recorded = "telemetry.slo_eval";
    let status = Command::new(env!("CARGO_BIN_EXE_dspp-bench"))
        .args(["record", "--only", recorded, "--iters", "1", "--out"])
        .arg(&out)
        .status()
        .unwrap();
    assert!(status.success(), "dspp-bench record exited {status}");
    let spliced = std::fs::read_to_string(&out).unwrap();
    std::fs::remove_file(&out).unwrap();
    let before: Vec<&str> = committed.lines().collect();
    let after: Vec<&str> = spliced.lines().collect();
    assert_eq!(after.len(), before.len(), "rows kept:\n{spliced}");
    let row = |name: &str| format!("{{\"name\": \"{name}\",");
    let mut unchanged = 0;
    for (old, new) in before.iter().zip(&after) {
        if old.trim_start().starts_with(&row(recorded)) {
            assert!(new.trim_start().starts_with(&row(recorded)), "{new}");
            assert!(new.contains("\"samples\": 1,"), "{new}");
        } else {
            assert_eq!(old, new);
            unchanged += usize::from(old.trim_start().starts_with("{\"name\""));
        }
    }
    assert_eq!(unchanged, WORKLOADS.len() - 1);
}
