//! The benchmark's command line: one repetition in a child process, and the
//! parent that schedules repetitions, checks them against each other and
//! prints the results.
//!
//! Every repetition is a fresh child process (this same executable with
//! `child` as its first argument), so peak RSS, allocator state and the wire
//! crate's process-global counters all start from zero. Host-timed metrics
//! are noisy on a shared two-core host, in phases that last tens of seconds;
//! the parent therefore runs rounds — each round runs every scheduled
//! workload once, round-robin, so all workloads sample the same noise — and
//! reports medians with quartiles. Count and simulated metrics must repeat
//! exactly between rounds of one seed, which makes every benchmark run a
//! determinism check.

use crate::json;
use crate::metrics::{
    self, MetricDef, Values, ALLOCATION, ALLOC_REPEAT_TOLERANCE, END_TO_END, PER_LAYER, SIMULATED,
};
use crate::workloads::Workload;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Rounds of the full run.
const ROUNDS: usize = 7;
/// Seed when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// `--repeat-check` lets `setup_s` differ by this much whatever its bound:
/// a set-up of milliseconds is timer and page-cache noise, not a signal.
const SETUP_FLOOR_S: f64 = 0.05;

/// What one repetition reports, as it crosses the process boundary.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Rep {
    /// Metric values by name.
    pub values: BTreeMap<String, f64>,
    /// Measurements printed beside the metrics but not declared in
    /// `BENCHMARK.json` (the replay kernels' sample sizes and the replayed
    /// `process_request` cost).
    pub notes: BTreeMap<String, f64>,
    /// Frames offered.
    pub attempted: u64,
    /// Frames not delivered valid.
    pub failed: u64,
    /// Trace digest.
    pub digest: u64,
    /// Simulator events.
    pub events: u64,
    /// Timed-section wall time.
    pub wall_ns: u64,
    /// Latency samples behind the percentiles.
    pub lat_samples: u64,
    /// Failed oracle checks.
    pub failures: Vec<String>,
}

impl Rep {
    /// The line protocol a child prints on stdout.
    pub fn to_lines(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.values {
            out.push_str(&format!("metric {k} {}\n", json::number(*v)));
        }
        for (k, v) in &self.notes {
            out.push_str(&format!("note {k} {}\n", json::number(*v)));
        }
        out.push_str(&format!("info attempted {}\n", self.attempted));
        out.push_str(&format!("info failed {}\n", self.failed));
        out.push_str(&format!("info digest {}\n", self.digest));
        out.push_str(&format!("info events {}\n", self.events));
        out.push_str(&format!("info wall_ns {}\n", self.wall_ns));
        out.push_str(&format!("info lat_samples {}\n", self.lat_samples));
        for f in &self.failures {
            out.push_str(&format!("fail {}\n", f.replace('\n', " ")));
        }
        out.push_str("done\n");
        out
    }

    /// Parse [`Rep::to_lines`]; an output without the final `done` line is a
    /// child that died part-way.
    pub fn from_lines(text: &str) -> Result<Rep, String> {
        let mut rep = Rep::default();
        let mut done = false;
        for line in text.lines() {
            let mut it = line.splitn(3, ' ');
            match (it.next(), it.next(), it.next()) {
                (Some("metric"), Some(k), Some(v)) => {
                    let v = v.parse().map_err(|_| format!("bad metric value: {line}"))?;
                    rep.values.insert(k.to_string(), v);
                }
                (Some("note"), Some(k), Some(v)) => {
                    let v = v.parse().map_err(|_| format!("bad note value: {line}"))?;
                    rep.notes.insert(k.to_string(), v);
                }
                (Some("info"), Some(k), Some(v)) => {
                    let v: u64 = v.parse().map_err(|_| format!("bad info value: {line}"))?;
                    match k {
                        "attempted" => rep.attempted = v,
                        "failed" => rep.failed = v,
                        "digest" => rep.digest = v,
                        "events" => rep.events = v,
                        "wall_ns" => rep.wall_ns = v,
                        "lat_samples" => rep.lat_samples = v,
                        _ => return Err(format!("unknown info: {line}")),
                    }
                }
                (Some("fail"), ..) => rep
                    .failures
                    .push(line.get(5..).unwrap_or_default().to_string()),
                (Some("done"), None, None) => done = true,
                _ => return Err(format!("unexpected child output: {line}")),
            }
        }
        if done {
            Ok(rep)
        } else {
            Err("child output ended without 'done'".to_string())
        }
    }
}

/// Run one repetition in this process and collect what it reports. A traced
/// repetition also runs the replay kernels and, given `trace_out`, writes
/// the sampled spans there as Chrome trace-event JSON. `scale` is 1.0 in
/// every benchmark run (tests run smaller); `started` is when the
/// repetition's process began `main`, the origin of `setup_s`.
pub fn measure(
    workload: Workload,
    seed: u64,
    scale: f64,
    traced: bool,
    trace_out: Option<&Path>,
    started: Instant,
) -> Rep {
    let mut run = workload.run(seed, scale, traced, started);
    let rss = metrics::peak_rss_mb();
    let mut notes = BTreeMap::new();
    let values: Values = match run.trace.take() {
        None => metrics::end_to_end(&run, rss),
        Some(trace) => {
            let costs = crate::replay::run(&trace, &run.replay);
            notes.extend([
                ("replay.roce_frames".to_string(), costs.roce_frames as f64),
                ("replay.requests".to_string(), costs.requests as f64),
                (
                    "replay.process_request_ns".to_string(),
                    costs.process_request_ns,
                ),
            ]);
            if let Some(path) = trace_out {
                let written = std::fs::File::create(path).and_then(|f| {
                    let mut w = std::io::BufWriter::new(f);
                    trace.write_chrome_trace(&mut w)?;
                    std::io::Write::flush(&mut w)
                });
                if let Err(e) = written {
                    run.failures
                        .push(format!("writing {}: {e}", path.display()));
                }
            }
            metrics::per_layer(&run, &trace, &costs)
        }
    };
    Rep {
        values: values
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
        notes,
        attempted: run.frames_offered,
        failed: run.frames_failed(),
        digest: run.digest,
        events: run.events,
        wall_ns: run.timed.wall_ns,
        lat_samples: run.latency.map_or(0, |l| l.count as u64),
        failures: run.failures,
    }
}

/// Parsed command line of the parent.
#[derive(Clone, Debug, PartialEq)]
pub struct Options {
    /// One workload (the `BENCHMARK.json` contract) or all of them.
    pub workload: Option<Workload>,
    /// Seed every input derives from.
    pub seed: u64,
    /// Contract mode: how long to keep starting rounds.
    pub seconds: f64,
    /// Contract mode: report per-layer instead of end-to-end metrics.
    pub trace: bool,
    /// Full mode: run two sets and compare them against the bounds.
    pub repeat_check: bool,
}

impl Options {
    /// Parse the arguments after the program name.
    pub fn parse(args: &[String]) -> Result<Options, String> {
        let mut o = Options {
            workload: None,
            seed: DEFAULT_SEED,
            seconds: 10.0,
            trace: false,
            repeat_check: false,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if flag == "--repeat-check" {
                o.repeat_check = true;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => {
                    o.workload = Some(Workload::from_name(value).ok_or_else(|| {
                        let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                        format!("unknown workload {value}; one of {}", names.join(", "))
                    })?);
                }
                "--seed" => o.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => o.seconds = value.parse().map_err(|_| bad())?,
                "--trace" => {
                    o.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        if !(o.seconds > 0.0 && o.seconds.is_finite()) {
            return Err("--seconds must be positive".to_string());
        }
        if o.repeat_check && o.workload.is_some() {
            return Err("--repeat-check runs every workload; drop --workload".to_string());
        }
        Ok(o)
    }
}

/// `child` entry point: `child <workload> <seed> <0|1> [trace-out]`, one
/// full-size repetition in this process, whose `main` began at `started`.
pub fn child_main(args: &[String], started: Instant) -> Result<(), String> {
    let [workload, seed, traced, rest @ ..] = args else {
        return Err("child: expected <workload> <seed> <0|1> [trace-out]".to_string());
    };
    let workload = Workload::from_name(workload).ok_or("child: unknown workload")?;
    let seed = seed.parse().map_err(|_| "child: bad seed")?;
    let traced = traced == "1";
    let trace_out = rest.first().map(Path::new);
    let rep = measure(workload, seed, 1.0, traced, trace_out, started);
    print!("{}", rep.to_lines());
    Ok(())
}

/// Where the Chrome traces go: `benchmark/` beside the profile directory the
/// executable was built into (`target/benchmark/` in a plain checkout,
/// `$CARGO_TARGET_DIR/benchmark/` otherwise).
fn trace_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = exe
        .parent()
        .and_then(Path::parent)
        .ok_or("executable has no grandparent directory")?
        .join("benchmark");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Run one repetition in a fresh child process and wait for it.
fn spawn(workload: Workload, o: &Options, traced: bool) -> Result<Rep, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let trace_out = if traced {
        let file = format!("{}-seed{}.trace.json", workload.name(), o.seed);
        Some(trace_dir()?.join(file))
    } else {
        None
    };
    let mut cmd = Command::new(exe);
    cmd.arg("child")
        .arg(workload.name())
        .arg(o.seed.to_string())
        .arg(if traced { "1" } else { "0" })
        .args(trace_out);
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning child: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{} child exited with {}",
            workload.name(),
            out.status
        ));
    }
    Rep::from_lines(&String::from_utf8_lossy(&out.stdout))
        .map_err(|e| format!("{}: {e}", workload.name()))
}

/// Median, quartiles and count of each metric over `reps`.
fn summarise(defs: &[MetricDef], reps: &[Rep]) -> BTreeMap<&'static str, (f64, f64, f64, usize)> {
    defs.iter()
        .map(|d| {
            let vals: Vec<f64> = reps
                .iter()
                .filter_map(|r| r.values.get(d.name).copied())
                .collect();
            let (q1, med, q3) = metrics::quartiles(&vals);
            (d.name, (med, q1, q3, vals.len()))
        })
        .collect()
}

/// What must hold between the untraced rounds of one workload and seed.
fn verify_rounds(workload: Workload, reps: &[Rep]) -> Vec<String> {
    let mut bad = Vec::new();
    let name = workload.name();
    for (i, r) in reps.iter().enumerate() {
        for f in &r.failures {
            bad.push(format!("{name} round {i}: {f}"));
        }
        if r.failed > 0 {
            bad.push(format!(
                "{name} round {i}: {} of {} frames failed",
                r.failed, r.attempted
            ));
        }
        for d in &END_TO_END {
            if !r.values.contains_key(d.name) {
                bad.push(format!("{name} round {i}: no value for {}", d.name));
            }
        }
    }
    let Some(first) = reps.first() else {
        bad.push(format!("{name}: no rounds ran"));
        return bad;
    };
    for (i, r) in reps.iter().enumerate().skip(1) {
        if r.digest != first.digest {
            bad.push(format!(
                "{name}: digest {:016x} in round {i}, {:016x} in round 0",
                r.digest, first.digest
            ));
        }
        for m in SIMULATED {
            if r.values.get(m) != first.values.get(m) {
                bad.push(format!(
                    "{name}: {m} = {:?} in round {i}, {:?} in round 0",
                    r.values.get(m),
                    first.values.get(m)
                ));
            }
        }
        if workload.sequential() {
            for m in ALLOCATION {
                let (a, b) = (r.values.get(m).copied(), first.values.get(m).copied());
                let close = matches!((a, b), (Some(a), Some(b))
                    if (a - b).abs() <= ALLOC_REPEAT_TOLERANCE * b.abs());
                if !close {
                    bad.push(format!(
                        "{name}: {m} = {a:?} in round {i}, {b:?} in round 0"
                    ));
                }
            }
        }
    }
    bad
}

/// `fabric_shard_p2` must simulate exactly what `fabric_shard` simulates.
fn verify_twins(seq: &Rep, par: &Rep) -> Vec<String> {
    let mut bad = Vec::new();
    if seq.digest != par.digest {
        bad.push(format!(
            "fabric_shard_p2 digest {:016x} != fabric_shard digest {:016x}",
            par.digest, seq.digest
        ));
    }
    if seq.events != par.events {
        bad.push(format!(
            "fabric_shard_p2 ran {} events, fabric_shard {}",
            par.events, seq.events
        ));
    }
    for m in SIMULATED {
        if seq.values.get(m) != par.values.get(m) {
            bad.push(format!(
                "{m}: fabric_shard_p2 {:?} != fabric_shard {:?}",
                par.values.get(m),
                seq.values.get(m)
            ));
        }
    }
    bad
}

fn print_end_to_end(workload: Workload, reps: &[Rep]) {
    let s = summarise(&END_TO_END, reps);
    let attempted: u64 = reps.iter().map(|r| r.attempted).sum();
    let failed: u64 = reps.iter().map(|r| r.failed).sum();
    println!(
        "{}: ops_attempted {attempted} ops_failed {failed} latency_samples {} digest {:016x}",
        workload.name(),
        reps.first().map_or(0, |r| r.lat_samples),
        reps.first().map_or(0, |r| r.digest)
    );
    for d in &END_TO_END {
        let (med, q1, q3, n) = s[d.name];
        println!(
            "  {:<22} {:>16.6} {:<7} q1 {:.6} q3 {:.6} n {n}",
            d.name, med, d.unit, q1, q3
        );
    }
}

fn print_per_layer(workload: Workload, rep: &Rep) {
    println!(
        "{}: per-layer metrics (one traced repetition)",
        workload.name()
    );
    for d in &PER_LAYER {
        let v = rep.values.get(d.name).copied().unwrap_or(0.0);
        println!("  {:<32} {:>16.6} {}", d.name, v, d.unit);
    }
    for (k, v) in &rep.notes {
        println!("  ({k} {v:.6})");
    }
}

fn metrics_json(defs: &[MetricDef], value_of: impl Fn(&str) -> f64) -> String {
    let fields: Vec<String> = defs
        .iter()
        .map(|d| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(d.name),
                json::number(value_of(d.name)),
                json::quote(d.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The one-line result the `BENCHMARK.json` contract asks for.
fn contract_line(correct: bool, attempted: u64, failed: u64, metrics: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {metrics}}}",
        attempted.max(1)
    )
}

/// Contract mode, `--trace 0`: rounds of one workload for as long as the
/// next one is expected to end within `--seconds` (one at least), then every
/// end-to-end metric as the median over rounds.
fn contract_untraced(workload: Workload, o: &Options) -> Result<bool, String> {
    let start = Instant::now();
    let mut reps = Vec::new();
    let mut longest_s = 0.0f64;
    loop {
        let round = Instant::now();
        reps.push(spawn(workload, o, false)?);
        longest_s = longest_s.max(round.elapsed().as_secs_f64());
        if start.elapsed().as_secs_f64() + longest_s > o.seconds {
            break;
        }
    }
    let bad = verify_rounds(workload, &reps);
    print_end_to_end(workload, &reps);
    for b in &bad {
        println!("FAILED: {b}");
    }
    let s = summarise(&END_TO_END, &reps);
    println!(
        "{}",
        contract_line(
            bad.is_empty(),
            reps.iter().map(|r| r.attempted).sum(),
            reps.iter().map(|r| r.failed).sum(),
            &metrics_json(&END_TO_END, |n| s[n].0),
        )
    );
    Ok(bad.is_empty())
}

/// Median `host_ns_per_pkt` over `reps`.
fn host_ns_per_pkt(reps: &[Rep]) -> f64 {
    metrics::median(
        &reps
            .iter()
            .map(|r| r.values["host_ns_per_pkt"])
            .collect::<Vec<_>>(),
    )
}

/// `sim.par_speedup`: how much faster the parallel workload's rounds ran
/// than its sequential twin's.
fn par_speedup(sequential: &[Rep], parallel: &[Rep]) -> f64 {
    host_ns_per_pkt(sequential) / host_ns_per_pkt(parallel)
}

/// One traced repetition of `workload` with the cross-run metrics filled in
/// from `untraced` rounds, except `sim.par_speedup`, which needs the twin's
/// rounds too and is left 0 for the caller.
fn traced_rep(
    workload: Workload,
    o: &Options,
    untraced: &[Rep],
) -> Result<(Rep, Vec<String>), String> {
    let mut rep = spawn(workload, o, true)?;
    let mut bad: Vec<String> = rep
        .failures
        .iter()
        .map(|f| format!("{} traced: {f}", workload.name()))
        .collect();
    let untraced_ns_per_pkt = host_ns_per_pkt(untraced);
    let untraced_wall_ns = untraced_ns_per_pkt * rep.attempted as f64;
    let per_pkt = |name: &str| rep.values.get(name).copied().unwrap_or(0.0);
    let wire_ns_per_pkt = per_pkt("wire.roce_pkts_per_pkt")
        * (per_pkt("wire.build_ns_per_pkt") + per_pkt("wire.parse_ns_per_pkt"));
    let cross = [
        (
            "trace.overhead_frac",
            rep.wall_ns as f64 / untraced_wall_ns - 1.0,
        ),
        (
            "sim.events_per_s",
            rep.events as f64 / (untraced_wall_ns / 1e9),
        ),
        ("wire.est_share", wire_ns_per_pkt / untraced_ns_per_pkt),
    ];
    for (name, v) in cross {
        rep.values.insert(name.to_string(), v);
    }
    if let Some(first) = untraced.first() {
        if first.digest != rep.digest {
            bad.push(format!(
                "{}: traced digest {:016x} != untraced {:016x}",
                workload.name(),
                rep.digest,
                first.digest
            ));
        }
    }
    if rep.values.get("rnic.cpu_packets").copied().unwrap_or(0.0) != 0.0 {
        bad.push(format!("{}: rnic.cpu_packets is not 0", workload.name()));
    }
    for d in &PER_LAYER {
        if !rep.values.contains_key(d.name) {
            bad.push(format!(
                "{} traced: no value for {}",
                workload.name(),
                d.name
            ));
        }
    }
    Ok((rep, bad))
}

/// Contract mode, `--trace 1`: one untraced repetition (the overhead base)
/// and one traced repetition; for the parallel workload also one repetition
/// of its sequential twin, if `--seconds` has room for it (a sequential
/// repetition takes no longer than a parallel one today).
fn contract_traced(workload: Workload, o: &Options) -> Result<bool, String> {
    let start = Instant::now();
    let untraced = [spawn(workload, o, false)?];
    let base_s = start.elapsed().as_secs_f64();
    let mut bad = verify_rounds(workload, &untraced);
    let (mut rep, traced_bad) = traced_rep(workload, o, &untraced)?;
    bad.extend(traced_bad);
    if workload == Workload::FabricShardP2 {
        if start.elapsed().as_secs_f64() + base_s <= o.seconds {
            let twin = [spawn(Workload::FabricShard, o, false)?];
            bad.extend(verify_twins(&twin[0], &untraced[0]));
            rep.values
                .insert("sim.par_speedup".to_string(), par_speedup(&twin, &untraced));
        } else {
            println!("no room in --seconds for the sequential twin: sim.par_speedup left 0");
        }
    }
    print_per_layer(workload, &rep);
    for b in &bad {
        println!("FAILED: {b}");
    }
    println!(
        "{}",
        contract_line(
            bad.is_empty(),
            rep.attempted,
            rep.failed,
            &metrics_json(&PER_LAYER, |n| rep.values.get(n).copied().unwrap_or(0.0)),
        )
    );
    Ok(bad.is_empty())
}

/// One set of the full run: `rounds` rounds, each running every workload
/// once, round-robin.
fn run_set(o: &Options) -> Result<BTreeMap<&'static str, Vec<Rep>>, String> {
    let mut reps: BTreeMap<&'static str, Vec<Rep>> = BTreeMap::new();
    for round in 0..ROUNDS {
        for w in Workload::ALL {
            eprintln!("round {}/{ROUNDS} {}", round + 1, w.name());
            reps.entry(w.name()).or_default().push(spawn(w, o, false)?);
        }
    }
    Ok(reps)
}

fn verify_set(reps: &BTreeMap<&'static str, Vec<Rep>>) -> Vec<String> {
    let mut bad = Vec::new();
    for w in Workload::ALL {
        bad.extend(verify_rounds(w, &reps[w.name()]));
    }
    bad.extend(verify_twins(
        &reps[Workload::FabricShard.name()][0],
        &reps[Workload::FabricShardP2.name()][0],
    ));
    bad
}

/// Full mode: R rounds of all five workloads, one traced repetition each,
/// every check, every metric printed; the last line is one JSON object.
fn full(o: &Options) -> Result<bool, String> {
    let reps = run_set(o)?;
    let mut bad = verify_set(&reps);
    let mut layers = BTreeMap::new();
    for w in Workload::ALL {
        eprintln!("traced {}", w.name());
        let (mut rep, traced_bad) = traced_rep(w, o, &reps[w.name()])?;
        bad.extend(traced_bad);
        if w == Workload::FabricShardP2 {
            rep.values.insert(
                "sim.par_speedup".to_string(),
                par_speedup(&reps[Workload::FabricShard.name()], &reps[w.name()]),
            );
        }
        layers.insert(w.name(), rep);
    }
    println!("seed {} rounds {ROUNDS}", o.seed);
    let mut doc = Vec::new();
    for w in Workload::ALL {
        print_end_to_end(w, &reps[w.name()]);
        print_per_layer(w, &layers[w.name()]);
        let s = summarise(&END_TO_END, &reps[w.name()]);
        let l = &layers[w.name()].values;
        doc.push(format!(
            "{}: {{\"end_to_end\": {}, \"per_layer\": {}}}",
            json::quote(w.name()),
            metrics_json(&END_TO_END, |n| s[n].0),
            metrics_json(&PER_LAYER, |n| l.get(n).copied().unwrap_or(0.0)),
        ));
    }
    if let Ok(dir) = trace_dir() {
        println!(
            "Chrome traces: {}/<workload>-seed{}.trace.json",
            dir.display(),
            o.seed
        );
    }
    for b in &bad {
        println!("FAILED: {b}");
    }
    println!(
        "{{\"correct\": {}, \"seed\": {}, \"rounds\": {ROUNDS}, \"workloads\": {{{}}}}}",
        bad.is_empty(),
        o.seed,
        doc.join(", ")
    );
    Ok(bad.is_empty())
}

/// An end-to-end metric's bound as `BENCHMARK.json` fixes it.
fn bounds_from_benchmark_json() -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("reading BENCHMARK.json from the current directory: {e}"))?;
    let doc = json::parse(&text)?;
    let mut out = BTreeMap::new();
    for m in doc.get("end_to_end").map_or(&[][..], |v| v.items()) {
        let name = m
            .get("name")
            .and_then(json::Value::as_str)
            .ok_or("metric without a name")?;
        let bound = m
            .get("bound")
            .and_then(json::Value::as_f64)
            .ok_or("metric without a bound")?;
        out.insert(name.to_string(), bound);
    }
    Ok(out)
}

/// `--repeat-check`: two full sets of untraced rounds of the same code; every
/// workload × end-to-end metric must agree within the metric's bound
/// (`setup_s`: within its bound or [`SETUP_FLOOR_S`], whichever is more).
fn repeat_check(o: &Options) -> Result<bool, String> {
    let bounds = bounds_from_benchmark_json()?;
    let a = run_set(o)?;
    let b = run_set(o)?;
    let mut bad = verify_set(&a);
    bad.extend(verify_set(&b));
    println!("seed {} rounds {ROUNDS} per set", o.seed);
    println!(
        "{:<16} {:<22} {:>16} {:>16} {:>10} {:>8}",
        "workload", "metric", "set A", "set B", "rel diff", "bound"
    );
    for w in Workload::ALL {
        let (sa, sb) = (
            summarise(&END_TO_END, &a[w.name()]),
            summarise(&END_TO_END, &b[w.name()]),
        );
        for d in &END_TO_END {
            let (va, vb) = (sa[d.name].0, sb[d.name].0);
            let diff = if va == vb {
                0.0
            } else {
                (vb - va).abs() / va.abs()
            };
            let bound = *bounds
                .get(d.name)
                .ok_or_else(|| format!("BENCHMARK.json has no bound for {}", d.name))?;
            let floor = if d.name == "setup_s" {
                SETUP_FLOOR_S
            } else {
                0.0
            };
            let over = (vb - va).abs() > (bound * va.abs()).max(floor);
            println!(
                "{:<16} {:<22} {:>16.6} {:>16.6} {:>10.5} {:>8.5}{}",
                w.name(),
                d.name,
                va,
                vb,
                diff,
                bound,
                if over { "  EXCEEDED" } else { "" }
            );
            if over {
                bad.push(format!(
                    "{} {}: sets differ by {diff:.5}, bound {bound}",
                    w.name(),
                    d.name
                ));
            }
        }
    }
    for b in &bad {
        println!("FAILED: {b}");
    }
    Ok(bad.is_empty())
}

/// Parent entry point. `Ok(true)` = ran and every check passed.
pub fn parent_main(args: &[String]) -> Result<bool, String> {
    let o = Options::parse(args)?;
    match (o.workload, o.repeat_check) {
        (Some(w), _) if o.trace => contract_traced(w, &o),
        (Some(w), _) => contract_untraced(w, &o),
        (None, true) => repeat_check(&o),
        (None, false) => full(&o),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn rep_survives_the_process_boundary() {
        let rep = Rep {
            values: BTreeMap::from([("a.b".to_string(), 1.25), ("c".to_string(), 3221.4879123)]),
            notes: BTreeMap::from([("replay.requests".to_string(), 2048.0)]),
            attempted: 10,
            failed: 1,
            digest: u64::MAX - 5,
            events: 77,
            wall_ns: 123456789,
            lat_samples: 9,
            failures: vec!["sink received 9\nof 10".to_string()],
        };
        let back = Rep::from_lines(&rep.to_lines()).unwrap();
        // Newlines in a failure message are flattened; all else is exact.
        let expected = Rep {
            failures: vec!["sink received 9 of 10".to_string()],
            ..rep.clone()
        };
        assert_eq!(back, expected);
        // A child that died before finishing is an error, not a short result.
        let cut = rep.to_lines().replace("done\n", "");
        assert!(Rep::from_lines(&cut).is_err());
    }

    #[test]
    fn options_parse_the_contract_command_line() {
        let o = Options::parse(&args(
            "--workload pktbuf_lossy --seed 42 --seconds 16 --trace 1",
        ))
        .unwrap();
        assert_eq!(o.workload, Some(Workload::PktbufLossy));
        assert_eq!((o.seed, o.seconds, o.trace), (42, 16.0, true));
        let o = Options::parse(&args("--repeat-check --seed 9")).unwrap();
        assert!(o.repeat_check && o.workload.is_none());
        assert_eq!(o.seed, 9);
        for bad in [
            "--workload nope",
            "--seed",
            "--trace 2",
            "--seconds 0",
            "--frobnicate 1",
            "--repeat-check --workload lookup_ops",
        ] {
            assert!(Options::parse(&args(bad)).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn rounds_must_repeat_exactly_where_they_should() {
        let base = Rep {
            values: END_TO_END
                .iter()
                .map(|d| (d.name.to_string(), 1.0))
                .collect(),
            attempted: 5,
            digest: 7,
            ..Rep::default()
        };
        assert!(verify_rounds(Workload::LookupOps, &[base.clone(), base.clone()]).is_empty());
        let mut host = base.clone();
        host.values.insert("host_ns_per_pkt".to_string(), 2.0);
        assert!(verify_rounds(Workload::LookupOps, &[base.clone(), host]).is_empty());
        let mut sim = base.clone();
        sim.values.insert("sim_lat_p99_ns".to_string(), 2.0);
        assert_eq!(
            verify_rounds(Workload::LookupOps, &[base.clone(), sim.clone()]).len(),
            1
        );
        assert_eq!(
            verify_rounds(Workload::FabricShardP2, &[base.clone(), sim]).len(),
            1
        );
        let mut allocs = base.clone();
        allocs
            .values
            .insert("allocs_per_pkt".to_string(), 1.0 + 1e-6);
        assert!(verify_rounds(Workload::FabricShard, &[base.clone(), allocs.clone()]).is_empty());
        allocs.values.insert("allocs_per_pkt".to_string(), 1.01);
        assert_eq!(
            verify_rounds(Workload::FabricShard, &[base.clone(), allocs.clone()]).len(),
            1
        );
        assert!(verify_rounds(Workload::FabricShardP2, &[base.clone(), allocs]).is_empty());
        let mut digest = base.clone();
        digest.digest = 8;
        assert_eq!(verify_twins(&base, &digest).len(), 1);
        assert!(!verify_rounds(Workload::LookupOps, &[]).is_empty());
    }

    #[test]
    fn contract_line_is_json_with_exactly_the_four_keys() {
        let line = contract_line(true, 0, 0, &metrics_json(&END_TO_END, |_| 1.5));
        let v = json::parse(&line).unwrap();
        let json::Value::Object(m) = &v else {
            panic!("not an object")
        };
        let keys: Vec<_> = m.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(v.get("attempted").and_then(json::Value::as_f64), Some(1.0));
        let json::Value::Object(ms) = v.get("metrics").unwrap() else {
            panic!()
        };
        assert_eq!(ms.len(), END_TO_END.len());
        assert_eq!(
            ms["setup_s"].get("unit").and_then(json::Value::as_str),
            Some("s")
        );
    }
}
