//! The completion-predicate driver every workload runs under.
//!
//! `simperf` drives its scenarios to a deadline fixed in simulated time
//! (`send_time + 5 ms`), which is why they cannot be made longer: at
//! 20,000 frames per generator `fabric_shard` has not converged by then and
//! the oracle assertion fires. The benchmark instead steps
//! [`Simulator::run_until`] in slices and stops at the first slice boundary
//! where the workload's own predicate holds (sink count reached, program
//! settled, ring drained). A run that reaches the simulated-time cap without
//! completing is an error — never a hang, never a silent truncation.
//!
//! The slice grid is part of the workload definition: the run ends on a
//! slice boundary, so the trace digest depends on the slice length. It does
//! not depend on the scheduler backend, which is what lets `fabric_shard`
//! and `fabric_shard_p2` be compared digest for digest.

use extmem_sim::Simulator;
use extmem_types::{Time, TimeDelta};
use std::fmt;

/// The run reached its simulated-time cap with the predicate still false.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CapReached {
    /// What the run was waiting for.
    pub waiting_for: &'static str,
    /// The cap that was hit.
    pub cap: Time,
}

impl fmt::Display for CapReached {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "simulated-time cap {:.3} ms reached while waiting for: {}",
            self.cap.as_millis_f64(),
            self.waiting_for
        )
    }
}

impl std::error::Error for CapReached {}

/// Advance `sim` one `slice` at a time until `done(sim)` holds, checking
/// before the first slice and after each one. Returns the simulated time at
/// which the predicate first held, or [`CapReached`] once `sim.now()` has
/// reached `cap`.
pub fn run_until_done(
    sim: &mut Simulator,
    slice: TimeDelta,
    cap: Time,
    waiting_for: &'static str,
    mut done: impl FnMut(&Simulator) -> bool,
) -> Result<Time, CapReached> {
    assert!(slice > TimeDelta::ZERO, "zero slice would never advance");
    loop {
        if done(sim) {
            return Ok(sim.now());
        }
        if sim.now() >= cap {
            return Err(CapReached { waiting_for, cap });
        }
        let next = (sim.now() + slice).min(cap);
        sim.run_until(next);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use extmem_sim::{Node, NodeCtx, SimBuilder};
    use extmem_types::PortId;
    use extmem_wire::Packet;

    /// Re-arms a 1 µs timer forever, like the state-store flush tick: a
    /// simulation that never goes quiescent on its own.
    struct Ticker {
        ticks: u64,
    }

    impl Node for Ticker {
        fn on_packet(&mut self, _: &mut NodeCtx<'_>, _: PortId, _: Packet) {}
        fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _: u64) {
            self.ticks += 1;
            ctx.schedule(TimeDelta::from_micros(1), 0);
        }
        fn name(&self) -> &str {
            "ticker"
        }
    }

    fn ticker_sim() -> (Simulator, extmem_types::NodeId) {
        let mut b = SimBuilder::new(1);
        let id = b.add_node(Box::new(Ticker { ticks: 0 }));
        let mut sim = b.build();
        sim.schedule_timer(id, TimeDelta::ZERO, 0);
        (sim, id)
    }

    #[test]
    fn stops_at_the_first_boundary_where_the_predicate_holds() {
        let (mut sim, id) = ticker_sim();
        let at = run_until_done(
            &mut sim,
            TimeDelta::from_micros(10),
            Time::from_millis(1),
            "25 ticks",
            |s| s.node::<Ticker>(id).ticks >= 25,
        )
        .expect("completes well before the cap");
        // 25 ticks need 24 µs; the first 10 µs boundary past that is 30 µs.
        assert_eq!(at, Time::from_micros(30));
        assert_eq!(sim.now(), at);
    }

    #[test]
    fn cap_is_an_error_not_a_hang_or_a_truncation() {
        let (mut sim, id) = ticker_sim();
        let err = run_until_done(
            &mut sim,
            TimeDelta::from_micros(7),
            Time::from_micros(50),
            "a million ticks",
            |s| s.node::<Ticker>(id).ticks >= 1_000_000,
        )
        .expect_err("cannot complete under the cap");
        assert_eq!(err.cap, Time::from_micros(50));
        assert_eq!(sim.now(), Time::from_micros(50), "stops exactly at the cap");
        assert!(err.to_string().contains("a million ticks"));
    }
}
