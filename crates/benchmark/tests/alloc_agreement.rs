//! The counting allocator against the wire crate's own payload counter, in
//! a process that runs one simulation at a time. One test function on
//! purpose: both counters are process-wide, so nothing else may allocate
//! concurrently in this binary.

use extmem_benchmark::alloc::{AllocReading, CountingAlloc};
use extmem_benchmark::workloads::{timed, Workload};
use extmem_wire::Payload;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn counting_allocator_agrees_with_the_wire_payload_counter() {
    // Controlled: each `copy_from_slice` is one Vec and one Arc allocation,
    // and one tick of the wire counter.
    const N: u64 = 1000;
    let mut keep = Vec::with_capacity(N as usize);
    let (_, t) = timed(|| {
        for _ in 0..N {
            keep.push(Payload::copy_from_slice(&[7u8; 64]));
        }
    });
    assert_eq!(t.wire.payload_allocs, N);
    assert_eq!(t.alloc.calls, 2 * N, "one Vec and one Arc per payload");
    assert!(t.alloc.bytes >= N * 64 && t.alloc.bytes <= N * 128, "{t:?}");
    drop(keep);

    // Reset/read around a section: nothing allocated, nothing counted.
    let before = AllocReading::now();
    let (_, t) = timed(|| std::hint::black_box(3u64.pow(7)));
    assert_eq!(t.alloc, AllocReading::default());
    assert_eq!(AllocReading::now().since(before), AllocReading::default());

    // A real run: every payload the wire crate counted is a heap allocation
    // the global counter saw, and the run allocates more than payloads.
    let run = Workload::LookupVerbs.run(11, 0.005, false, std::time::Instant::now());
    assert!(run.failures.is_empty(), "{:?}", run.failures);
    let (wire, heap) = (run.timed.wire.payload_allocs, run.timed.alloc.calls);
    assert!(
        wire >= run.frames_offered,
        "every frame is at least one payload: {wire}"
    );
    assert!(
        heap > wire,
        "heap {heap} must cover payloads {wire} and more"
    );
    assert!(
        run.timed.alloc.bytes >= wire * 40,
        "an Arc<Vec> header per payload"
    );
}
