//! `experiments` runs every row of `extmem_bench::experiments::EXPERIMENTS`
//! in table order; `experiments NAME…` runs the named rows.
//!
//! A row's report goes to stdout — the bytes `crates/bench/expected/` pins —
//! and its `== name ==` header to stderr before the row starts, so a row
//! that panics is named by the line above the panic message.

use extmem_bench::experiments::select;

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let rows = select(&names).unwrap_or_else(|e| {
        eprintln!("experiments: {e}");
        std::process::exit(2)
    });
    for (name, row) in rows {
        eprintln!("== {name} ==");
        let mut out = String::new();
        row(&mut out);
        print!("{out}");
    }
}
