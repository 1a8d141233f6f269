//! A8 — the paper's central §2.2 comparison: CPU slow path vs remote
//! memory for table misses.
//!
//! "even if the traffic pattern leads to frequent cache misses and remote
//! fetching, there is no CPU overhead or software latency."
//!
//! Both pipelines run the same DSCP workload with the same 16-entry SRAM
//! cache; only the miss path differs: punt to a CPU (25/50/100 µs software
//! round trip, bounded punt queue) vs WRITE+READ to server DRAM (~2 µs,
//! no CPU). The skew sweep varies how often misses happen.

use extmem_apps::scenario::{host_ip, host_mac, Built, Testbed};
use extmem_apps::workload::{FlowPick, SinkNode, WorkloadSpec};
use extmem_bench::table::{f2, print_table};
use extmem_core::lookup::ActionEntry;
use extmem_core::slow_path::CpuSlowPathProgram;
use extmem_sim::LinkSpec;
use extmem_switch::{SwitchConfig, SwitchNode};
use extmem_types::{FiveTuple, Rate, Time, TimeDelta};
use extmem_wire::MacAddr;

const N_FLOWS: usize = 256;
const COUNT: u64 = 4_000;
const CACHE: usize = 16;

fn flows() -> Vec<FiveTuple> {
    (0..N_FLOWS)
        .map(|v| {
            FiveTuple::new(
                host_ip(0),
                0x0a01_0000 + v as u32,
                40_000 + v as u16,
                80,
                17,
            )
        })
        .collect()
}

/// Run the CPU-slow-path baseline; returns (median us, p99 us, delivered,
/// punts, punt drops).
fn run_slowpath(skew: f64, cpu_us: u64, seed: u64) -> (f64, f64, u64, u64, u64) {
    let link = LinkSpec::testbed_40g();
    let mut tb = Testbed::new(seed);
    tb.gen(
        WorkloadSpec {
            src_mac: host_mac(0),
            dst_mac: MacAddr::local(200),
            flows: flows().into(),
            pick: FlowPick::Zipf(skew),
            frame_len: 256,
            offered: Some(Rate::from_gbps(2)),
            arrival: extmem_apps::workload::Arrival::Paced,
            count: COUNT,
            seed: seed ^ 0x51,
            flow_id_base: 0,
        },
        link,
    );
    let mut sink = SinkNode::new("server");
    sink.expect_dscp = Some(46);
    let server_port = tb.host(sink, link);
    let mut prog =
        CpuSlowPathProgram::new(tb.fib(), Some(CACHE), TimeDelta::from_micros(cpu_us), 1024);
    for f in flows() {
        let mut act = ActionEntry::set_dscp(46);
        act.port_override = Some(server_port);
        prog.install(f, act);
    }
    let Built {
        mut sim,
        switch,
        hosts,
        ..
    } = tb.build(SwitchConfig::default(), Box::new(prog));
    sim.run_until(Time::from_millis(50));
    let sink = sim.node::<SinkNode>(hosts[1]);
    assert_eq!(sink.dscp_mismatch, 0);
    let lat = sink.latency.summarize().expect("sink received no packets");
    let sw: &SwitchNode = sim.node(switch);
    let s = sw.program::<CpuSlowPathProgram>().stats();
    (
        lat.median.as_micros_f64(),
        lat.p99.as_micros_f64(),
        sink.received,
        s.punts,
        s.punt_drops,
    )
}

/// Run the remote-lookup pipeline on the same workload; returns
/// (median us, p99 us, delivered, remote lookups).
fn run_remote(skew: f64, seed: u64) -> (f64, f64, u64, u64) {
    let r = extmem_apps::baremetal::run_gateway(extmem_apps::baremetal::GatewayConfig {
        n_vips: N_FLOWS,
        pick: FlowPick::Zipf(skew),
        count: COUNT,
        frame_len: 256,
        offered: Rate::from_gbps(2),
        cache: Some(CACHE),
        table_entries: 8192,
        entry_size: 2048,
        recirculate: false,
        seed,
    });
    (
        r.latency.median.as_micros_f64(),
        r.latency.p99.as_micros_f64(),
        r.delivered,
        r.lookup.remote_lookups,
    )
}

fn main() {
    println!("A8: table-miss handling — CPU slow path vs remote memory");
    println!("(256 flows, 16-entry cache, 4000 packets @ 2G, DSCP action)");
    for &skew in &[0.8f64, 1.2] {
        let mut rows = Vec::new();
        for cpu_us in [25u64, 50, 100] {
            let (med, p99, delivered, punts, drops) = run_slowpath(skew, cpu_us, 91);
            rows.push(vec![
                format!("CPU slow path ({cpu_us}us)"),
                f2(med),
                f2(p99),
                format!("{delivered}/{COUNT}"),
                punts.to_string(),
                drops.to_string(),
            ]);
        }
        let (med, p99, delivered, lookups) = run_remote(skew, 91);
        rows.push(vec![
            "remote memory (RDMA)".into(),
            f2(med),
            f2(p99),
            format!("{delivered}/{COUNT}"),
            lookups.to_string(),
            "0".into(),
        ]);
        print_table(
            &format!("zipf skew = {skew}"),
            &[
                "miss path",
                "median us",
                "p99 us",
                "delivered",
                "misses",
                "miss drops",
            ],
            &rows,
        );
    }
    println!("\nexpectation: identical medians (the cache serves both), but the slow path's");
    println!("p99 carries the software latency — 10-50x the remote-memory tail — and its");
    println!("punt queue can drop under miss bursts. The remote path needs no CPU at all.");
}
