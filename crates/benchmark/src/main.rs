//! `extmem-benchmark`: see `README.md` in this directory and `run.sh`.

use extmem_benchmark::alloc::CountingAlloc;
use extmem_benchmark::runner;
use std::process::ExitCode;

// Installed here, in the benchmark binary only: the library and its tests
// run on the system allocator unchanged.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() -> ExitCode {
    // First thing: a repetition's `setup_s` counts from here.
    let started = std::time::Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((first, rest)) if first == "child" => runner::child_main(rest, started).map(|()| true),
        _ => runner::parent_main(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("extmem-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
