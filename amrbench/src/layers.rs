//! Measuring the applications and their layers from outside: the
//! application loop interface, traffic deltas around public calls, and
//! the obs phase table.

use std::collections::BTreeMap;
use std::time::Instant;

use forust_comm::{Communicator, StatsSnapshot, ThreadComm};

use crate::common::{Report, Samples};

/// Program phases (spans the library already emits) reported per unit
/// of the measured workload's loop as `obs.<phase>_ms` self time.
pub const OBS_PHASES: [&str; 29] = [
    "advect.step",
    "advect.adapt",
    "seismic.step",
    "device.step",
    "device.transfer",
    "mantle.adapt",
    "rk.stage",
    "rk.update",
    "rhs.interior",
    "rhs.exchange_wait",
    "rhs.boundary",
    "halo.begin",
    "halo.finish",
    "halo.begin_f32",
    "halo.finish_f32",
    "halo.rebuild",
    "forest.new",
    "forest.refine",
    "forest.coarsen",
    "forest.partition",
    "forest.balance",
    "forest.ghost",
    "forest.nodes",
    "ghost.exchange_begin",
    "ghost.exchange_end",
    "nodes.assemble_begin",
    "nodes.assemble_end",
    "adapt.transfer",
    "adapt.rebuild",
];

/// The span each application opens around the timed part of a unit.
pub const UNIT_SPAN: &str = "amrbench.unit";

/// One application's closed loop, driven a slice at a time: each unit
/// starts as soon as the previous one of the same application returns.
pub trait App {
    /// Build the application's state from scratch once more and drop it;
    /// returns the wall time (one `setup_s` sample).
    fn setup_sample(&mut self, comm: &ThreadComm) -> f64;

    /// One unit and its correctness gate. Returns the unit's wall time in
    /// seconds, gate excluded, and opens [`UNIT_SPAN`] around the timed
    /// part.
    fn unit(&mut self, comm: &ThreadComm) -> f64;

    /// The application's metrics and unit counts; in a traced run also
    /// its replays on the live state.
    fn finish(self: Box<Self>, comm: &ThreadComm, trace: bool) -> Report;
}

/// This rank's communication counters at a point in time.
pub struct Traffic(StatsSnapshot);

impl Traffic {
    pub fn start(comm: &impl Communicator) -> Traffic {
        Traffic(comm.stats().snapshot())
    }

    /// Bytes this rank sent since `start` (point-to-point + collective).
    pub fn bytes(&self, comm: &impl Communicator) -> u64 {
        comm.stats().snapshot().since(&self.0).total_bytes()
    }

    /// Point-to-point messages this rank sent since `start`.
    pub fn msgs(&self, comm: &impl Communicator) -> u64 {
        comm.stats().snapshot().since(&self.0).p2p_msgs
    }
}

/// Run a library check that reports failure by panicking; `true` when it
/// passed on every rank. Collective.
pub fn no_panic(comm: &impl Communicator, f: impl FnOnce()) -> bool {
    let ok = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).is_ok();
    !comm.allreduce_or(!ok)
}

/// Time `f` under a benchmark span (traced runs only call this).
pub fn replay<R>(span: &'static str, s: &mut Samples, f: impl FnOnce() -> R) -> R {
    let _g = forust_obs::span!(span);
    let t = Instant::now();
    let r = std::hint::black_box(f());
    s.push(t.elapsed().as_secs_f64());
    r
}

/// Self and total time per span name, summed over the recorded slices.
#[derive(Default)]
pub struct PhaseTable(BTreeMap<String, (u64, u64)>);

impl PhaseTable {
    /// Add the phases of one recorder (one traced slice).
    pub fn absorb(&mut self, report: Option<forust_obs::LocalReport>) {
        for p in report.into_iter().flat_map(|r| r.phases) {
            let e = self.0.entry(p.name).or_default();
            e.0 += p.self_ns;
            e.1 += p.total_ns;
        }
    }

    /// The `obs.*` metrics: every program phase's self time per traced
    /// unit, the share of the unit time no program span covers (the self
    /// time of the unit span and of the benchmark's spans around public
    /// calls), and the tracing overhead: the fastest traced unit against
    /// the fastest untraced unit of the same run.
    pub fn report(&self, rep: &mut Report, traced: &Samples, untraced: &Samples) {
        let n = traced.0.len().max(1) as f64;
        for name in OBS_PHASES {
            let self_ns = self.0.get(name).map_or(0, |p| p.0);
            rep.set(&format!("obs.{name}_ms"), self_ns as f64 / n / 1e6, "ms");
        }
        let total_ns = self.0.get(UNIT_SPAN).map_or(1, |p| p.1.max(1));
        let untracked_ns: u64 = self
            .0
            .iter()
            .filter(|(k, _)| *k == UNIT_SPAN || k.starts_with("amrbench.call."))
            .map(|(_, p)| p.0)
            .sum();
        rep.set(
            "obs.untracked_pct",
            100.0 * untracked_ns as f64 / total_ns as f64,
            "%",
        );
        rep.set(
            "obs.trace_overhead_pct",
            100.0 * (traced.min() / untraced.min() - 1.0),
            "%",
        );
    }
}
