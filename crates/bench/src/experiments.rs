//! The experiment table: one row per paper artifact or ablation, each a
//! function that appends its report to a `String`. The `experiments` binary
//! prints rows; `tests/experiments_golden.rs` compares every row's bytes to
//! the committed capture in `crates/bench/expected/<name>.txt`.

mod ablations;
mod paper;

/// An experiment: its name and the function that writes its report.
pub type Row = (&'static str, fn(&mut String));

/// Every experiment, in the order DESIGN.md §5 and EXPERIMENTS.md list them.
pub const EXPERIMENTS: [Row; 18] = [
    ("e1_pktbuf_rates", paper::e1_pktbuf_rates),
    ("e2_lookup_latency", paper::e2_lookup_latency),
    ("e3_statestore_bw", paper::e3_statestore_bw),
    ("e4_incast", paper::e4_incast),
    ("e5_overhead", paper::e5_overhead),
    ("e6_capacity", paper::e6_capacity),
    ("a1_cache_ablation", ablations::a1_cache_ablation),
    ("a2_atomics_ablation", ablations::a2_atomics_ablation),
    ("a3_threshold_ablation", ablations::a3_threshold_ablation),
    ("a4_recirculation", ablations::a4_recirculation),
    ("a5_rdma_priority", ablations::a5_rdma_priority),
    ("a6_kvcache", ablations::a6_kvcache),
    ("a7_trace_capture", ablations::a7_trace_capture),
    ("a8_slowpath_vs_remote", ablations::a8_slowpath_vs_remote),
    ("a9_loss_sweep", ablations::a9_loss_sweep),
    ("a10_failover", ablations::a10_failover),
    ("a12_capacity", ablations::a12_capacity),
    ("a13_remote_ops", ablations::a13_remote_ops),
];

/// The rows `names` asks for, in the order given; every row when `names` is
/// empty. A name that is not in the table, or given twice, is an error that
/// lists the valid names — decided before any row runs.
pub fn select(names: &[String]) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for (i, name) in names.iter().enumerate() {
        match EXPERIMENTS.iter().find(|(n, _)| n == name) {
            Some(row) if !names[..i].contains(name) => rows.push(*row),
            _ => {
                let valid: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
                return Err(format!(
                    "unknown or repeated experiment `{name}`; valid names: {}",
                    valid.join(" ")
                ));
            }
        }
    }
    Ok(if rows.is_empty() {
        EXPERIMENTS.to_vec()
    } else {
        rows
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(rows: &[Row]) -> Vec<&'static str> {
        rows.iter().map(|(n, _)| *n).collect()
    }

    #[test]
    fn select_rejects_unknown_and_duplicate_names_before_running_anything() {
        let args = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(select(&[]).unwrap().len(), EXPERIMENTS.len());
        assert_eq!(
            names(&select(&args(&["e5_overhead", "a6_kvcache"])).unwrap()),
            ["e5_overhead", "a6_kvcache"]
        );
        let unknown = select(&args(&["e5_overhead", "e7_nope"])).unwrap_err();
        assert!(unknown.contains("`e7_nope`"), "{unknown}");
        let repeated = select(&args(&["e6_capacity", "a6_kvcache", "e6_capacity"])).unwrap_err();
        assert!(repeated.contains("`e6_capacity`"), "{repeated}");
        for err in [unknown, repeated] {
            for (name, _) in EXPERIMENTS {
                assert!(err.contains(name), "{err} does not list {name}");
            }
        }
    }
}
