//! Every experiment row against its committed capture, byte for byte.
//!
//! `crates/bench/expected/<name>.txt` is what the row printed when it was
//! last reviewed; the simulator is deterministic across machines and
//! processes, so any difference is a change in simulated behaviour (or in
//! the report's wording) that must be looked at and, if intended, committed
//! by regenerating the file: `experiments NAME > crates/bench/expected/NAME.txt`
//! (or `scripts/run_all_experiments.sh crates/bench/expected` for all).

use extmem_bench::experiments::EXPERIMENTS;

const GOLDEN: [(&str, &str); 18] = [
    ("e1_pktbuf_rates", include_str!("../expected/e1_pktbuf_rates.txt")),
    ("e2_lookup_latency", include_str!("../expected/e2_lookup_latency.txt")),
    ("e3_statestore_bw", include_str!("../expected/e3_statestore_bw.txt")),
    ("e4_incast", include_str!("../expected/e4_incast.txt")),
    ("e5_overhead", include_str!("../expected/e5_overhead.txt")),
    ("e6_capacity", include_str!("../expected/e6_capacity.txt")),
    ("a1_cache_ablation", include_str!("../expected/a1_cache_ablation.txt")),
    ("a2_atomics_ablation", include_str!("../expected/a2_atomics_ablation.txt")),
    ("a3_threshold_ablation", include_str!("../expected/a3_threshold_ablation.txt")),
    ("a4_recirculation", include_str!("../expected/a4_recirculation.txt")),
    ("a5_rdma_priority", include_str!("../expected/a5_rdma_priority.txt")),
    ("a6_kvcache", include_str!("../expected/a6_kvcache.txt")),
    ("a7_trace_capture", include_str!("../expected/a7_trace_capture.txt")),
    ("a8_slowpath_vs_remote", include_str!("../expected/a8_slowpath_vs_remote.txt")),
    ("a9_loss_sweep", include_str!("../expected/a9_loss_sweep.txt")),
    ("a10_failover", include_str!("../expected/a10_failover.txt")),
    ("a12_capacity", include_str!("../expected/a12_capacity.txt")),
    ("a13_remote_ops", include_str!("../expected/a13_remote_ops.txt")),
];

/// The two rows that are 26 of the full run's 28 release-mode seconds; an
/// unoptimized build skips them so tier-1 stays fast. `scripts/ci.sh` runs
/// all eighteen under the release profile.
const SLOW: [&str; 2] = ["a12_capacity", "e1_pktbuf_rates"];

#[test]
fn every_row_matches_its_golden_file() {
    assert_eq!(
        EXPERIMENTS.map(|(name, _)| name),
        GOLDEN.map(|(name, _)| name),
        "one golden file per row, in table order"
    );
    for ((name, row), (_, golden)) in EXPERIMENTS.iter().zip(GOLDEN) {
        if cfg!(debug_assertions) && SLOW.contains(name) {
            continue;
        }
        let mut out = String::new();
        row(&mut out);
        assert!(
            out == golden,
            "{name} no longer prints crates/bench/expected/{name}.txt; it printed:\n{out}"
        );
    }
}

#[test]
fn row_names_are_unique() {
    for (i, (name, _)) in EXPERIMENTS.iter().enumerate() {
        assert!(
            EXPERIMENTS[..i].iter().all(|(earlier, _)| earlier != name),
            "{name} is in the table twice"
        );
    }
}

/// The row an experiment id ("E1", "A13") names: the one whose name starts
/// with the lower-cased id and an underscore.
fn row_for(id: &str) -> Option<&'static str> {
    let prefix = format!("{}_", id.to_lowercase());
    EXPERIMENTS
        .iter()
        .map(|(name, _)| *name)
        .find(|name| name.starts_with(&prefix))
}

/// `E<n>` / `A<n>` at the start of `text`, if it starts with one.
fn leading_id(text: &str) -> Option<&str> {
    let digits = text
        .strip_prefix(['E', 'A'])?
        .chars()
        .take_while(char::is_ascii_digit)
        .count();
    (digits > 0).then(|| &text[..1 + digits])
}

#[test]
fn every_documented_experiment_names_a_row() {
    // DESIGN.md §5: the index table, one `| E1 | …` line per experiment.
    let design = include_str!("../../../DESIGN.md");
    let index = design
        .split("## 5. Experiment index")
        .nth(1)
        .and_then(|rest| rest.split("\n## ").next())
        .expect("DESIGN.md has a §5");
    let indexed: Vec<&str> = index
        .lines()
        .filter_map(|line| leading_id(line.strip_prefix("| ")?))
        .collect();
    assert_eq!(indexed.len(), EXPERIMENTS.len(), "{indexed:?}");
    for id in indexed {
        assert!(row_for(id).is_some(), "DESIGN.md §5 lists {id}: no such row");
    }

    // EXPERIMENTS.md: one `## E1 — …` heading per experiment, with the
    // row's golden file named and quoted in the section. A11 is the one heading
    // without a row: it is the `simperf::insert_churn` scenario, which
    // asserts its table instead of printing it.
    let doc = include_str!("../../../EXPERIMENTS.md");
    let mut documented = 0;
    for section in doc.split("\n## ").skip(1) {
        let Some(id) = leading_id(section).filter(|id| *id != "A11") else {
            continue;
        };
        let name = row_for(id).unwrap_or_else(|| panic!("EXPERIMENTS.md has {id}: no such row"));
        assert!(
            section.contains(&format!("crates/bench/expected/{name}.txt")),
            "EXPERIMENTS.md {id} does not name its golden file"
        );
        // ... and quoted in full: the section's one ```text block is the
        // golden file, so the document cannot drift from what the row prints.
        let mut fences = section.split("```text\n").skip(1);
        let block = fences.next().and_then(|rest| rest.split("```").next());
        let golden = GOLDEN.iter().find(|(golden, _)| *golden == name);
        assert!(
            block == golden.map(|(_, text)| *text) && fences.next().is_none(),
            "EXPERIMENTS.md {id}: its ```text block is not crates/bench/expected/{name}.txt"
        );
        documented += 1;
    }
    assert_eq!(documented, EXPERIMENTS.len());
}
