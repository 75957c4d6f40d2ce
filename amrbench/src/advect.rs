//! `advect-amr`: the Fig. 5 adaptive dG advection of four spherical
//! fronts on the 24-tree shell, adapted every four steps and mirrored to
//! a diskless checkpoint after each adapt, as the recovery supervisor
//! does. One rank, one worker: the plain single-threaded baseline.

use std::sync::Arc;
use std::time::Instant;

use forust::connectivity::builders;
use forust::dim::D3;
use forust::forest::Forest;
use forust_advect::{four_fronts, rotation_velocity, AdvectConfig, AdvectSolver};
use forust_comm::{Communicator, ThreadComm};
use forust_dg::geometry::MeshGeometry;
use forust_dg::halo::HaloExchange;
use forust_dg::kernels;
use forust_dg::mesh::DgMesh;
use forust_dg::transfer::transfer_fields;
use forust_geom::ShellMap;

use crate::common::{self, Report, Samples, SharedMap};
use crate::layers::{self, App};

/// Steps between adapts (the solver's own schedule is disabled).
pub const STEPS_PER_ADAPT: usize = 4;
/// Largest relative drift of the total mass from its initial value. The
/// advective volume form on curved elements is not exactly conservative;
/// the drift measured over 160 steps is ~2e-6.
pub const MASS_DRIFT_BOUND: f64 = 1e-4;
/// Adapt cycles after which the loop restores the post-warm-up
/// checkpoint, so every run times the same window of the simulation
/// however many cycles fit in it (the fronts keep moving otherwise, and
/// the element count with them).
pub const WINDOW: usize = 8;

pub fn config() -> AdvectConfig {
    AdvectConfig {
        degree: 3,
        initial_level: 1,
        min_level: 1,
        max_level: 2,
        adapt_every: usize::MAX,
        cfl: 0.4,
        refine_tol: 0.1,
        coarsen_tol: 0.05,
    }
}

pub fn setup(comm: &impl Communicator, seed: u64) -> (AdvectSolver, SharedMap) {
    let conn = Arc::new(builders::shell24());
    let forest = Forest::<D3>::new_uniform(Arc::clone(&conn), comm, 1);
    let map = common::rotated(Arc::new(ShellMap::new(conn, 0.55, 1.0)), seed);
    let s = AdvectSolver::new(
        comm,
        forest,
        Arc::clone(&map),
        config(),
        four_fronts,
        rotation_velocity,
    );
    (s, map)
}

/// The per-cycle gate: a finite field whose mass stayed within the bound.
pub fn gate(comm: &impl Communicator, s: &AdvectSolver, mass0: f64) -> Option<String> {
    let drift = ((s.total_mass(comm) - mass0) / mass0).abs();
    common::first_failure(&[
        (common::all_finite(&s.c), "advect: non-finite field"),
        (drift <= MASS_DRIFT_BOUND, "advect: mass drift above bound"),
    ])
}

fn restore_segment(
    comm: &impl Communicator,
    map: &SharedMap,
    segment: Vec<u8>,
) -> Result<AdvectSolver, forust::forest::CheckpointError> {
    AdvectSolver::restore_from_segments(
        comm,
        Arc::new(builders::shell24()),
        Arc::clone(map),
        config(),
        rotation_velocity,
        &[segment],
    )
}

fn restore(comm: &impl Communicator, map: &SharedMap, segment: Vec<u8>) -> AdvectSolver {
    restore_segment(comm, map, segment).expect("the warm-up checkpoint restores")
}

/// The recovery gate: restoring the checkpoint gives the field bitwise.
pub fn restore_gate(
    comm: &impl Communicator,
    s: &AdvectSolver,
    map: &SharedMap,
    segment: Vec<u8>,
) -> Option<String> {
    let same = restore_segment(comm, map, segment).is_ok_and(|r| {
        r.c.len() == s.c.len()
            && r.c
                .iter()
                .zip(&s.c)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    });
    (!same).then(|| "advect: checkpoint does not restore the field bitwise".into())
}

/// The `advect-amr` application: adapt cycles in a loop.
pub struct Advect {
    seed: u64,
    s: AdvectSolver,
    map: SharedMap,
    mass0: f64,
    /// The post-warm-up checkpoint every window starts from.
    start: Vec<u8>,
    /// The last cycle's checkpoint.
    segment: Vec<u8>,
    in_window: usize,
    step: Samples,
    adapt: Samples,
    ckpt: Samples,
    /// Element-steps per second of each adapt cycle.
    throughput: Samples,
    rep: Report,
}

impl Advect {
    /// Set-up and one warm-up cycle, whose checkpoint starts every window.
    pub fn new(comm: &ThreadComm, seed: u64) -> Advect {
        let (s, map) = setup(comm, seed);
        let mut a = Advect {
            seed,
            mass0: s.total_mass(comm),
            s,
            map,
            start: Vec::new(),
            segment: Vec::new(),
            in_window: 0,
            step: Samples::default(),
            adapt: Samples::default(),
            ckpt: Samples::default(),
            throughput: Samples::default(),
            rep: Report::default(),
        };
        a.cycle(comm, false);
        a.start = a.segment.clone();
        a
    }

    /// Four steps, an adapt and a checkpoint, then the gate. Returns the
    /// cycle's wall time, gate excluded.
    fn cycle(&mut self, comm: &ThreadComm, record: bool) -> f64 {
        let s = &mut self.s;
        let u = forust_obs::span!(layers::UNIT_SPAN);
        let t_cycle = Instant::now();
        let mut elem_steps = 0;
        for _ in 0..STEPS_PER_ADAPT {
            elem_steps += s.num_global_elements();
            let t = Instant::now();
            s.step(comm);
            if record {
                self.step.push(t.elapsed().as_secs_f64());
            }
        }
        let t = Instant::now();
        s.adapt(comm);
        let t_adapt = t.elapsed().as_secs_f64();
        let t = Instant::now();
        self.segment = {
            let _c = forust_obs::span!("amrbench.call.checkpoint_segment");
            s.checkpoint_segment(comm.size())
        };
        let t_ckpt = t.elapsed().as_secs_f64();
        let el = t_cycle.elapsed().as_secs_f64();
        drop(u);
        if record {
            self.adapt.push(t_adapt);
            self.ckpt.push(t_ckpt);
            self.throughput.push(elem_steps as f64 / el);
        }
        self.rep.unit(gate(comm, s, self.mass0));
        el
    }
}

impl App for Advect {
    fn setup_sample(&mut self, comm: &ThreadComm) -> f64 {
        let t = Instant::now();
        std::hint::black_box(setup(comm, self.seed).0.num_global_elements());
        t.elapsed().as_secs_f64()
    }

    fn unit(&mut self, comm: &ThreadComm) -> f64 {
        if self.in_window == WINDOW {
            self.s = restore(comm, &self.map, self.start.clone());
            self.in_window = 0;
        }
        self.in_window += 1;
        self.cycle(comm, true)
    }

    fn finish(mut self: Box<Self>, comm: &ThreadComm, trace: bool) -> Report {
        let mut rep = std::mem::take(&mut self.rep);
        rep.unit(restore_gate(comm, &self.s, &self.map, self.segment.clone()));
        // The best cycle, like every timing: Σ(elements × steps) ÷ the wall
        // time of one whole adapt cycle, adapt and checkpoint included.
        let best = self.throughput.0.iter().copied().fold(f64::NAN, f64::max);
        rep.set("advect.elem_steps_per_s", best, "1/s");
        rep.timing("advect.step_ms", &self.step, 1e3, "ms");
        rep.timing("advect.adapt_ms", &self.adapt, 1e3, "ms");
        rep.timing("resilience.checkpoint_ms", &self.ckpt, 1e3, "ms");
        rep.set(
            "resilience.checkpoint_bytes",
            self.segment.len() as f64,
            "B",
        );
        if trace {
            replays(comm, &mut self.s, &self.map, &mut rep);
        }
        rep
    }
}

/// Per-layer replays on the live state: three more adapt cycles, each
/// followed by the public dG builders and the solution transfer
/// old → new, and the volume kernel over the live mesh.
fn replays(comm: &impl Communicator, s: &mut AdvectSolver, map: &SharedMap, rep: &mut Report) {
    let (mut mesh_t, mut geo_t, mut halo_t, mut xfer_t, mut vol_t) = Default::default();
    for _ in 0..3 {
        for _ in 0..STEPS_PER_ADAPT {
            s.step(comm);
        }
        let (old, old_c) = (s.forest.clone(), s.c.clone());
        s.adapt(comm);
        let re = &s.mesh.re;
        layers::replay("amrbench.replay.transfer", &mut xfer_t, || {
            transfer_fields(re, &old, &old_c, &s.forest, 1)
        });
        let mesh = layers::replay("amrbench.replay.mesh_build", &mut mesh_t, || {
            DgMesh::build(&s.forest, comm, s.config.degree)
        });
        layers::replay("amrbench.replay.geometry", &mut geo_t, || {
            MeshGeometry::build(&mesh, &**map)
        });
        layers::replay("amrbench.replay.halo_build", &mut halo_t, || {
            HaloExchange::build(&mesh)
        });
        volume_replay(s, &mut vol_t);
    }
    rep.timing("dg.mesh_build_ms", &mesh_t, 1e3, "ms");
    rep.timing("dg.geometry_ms", &geo_t, 1e3, "ms");
    rep.timing("dg.halo_build_ms", &halo_t, 1e3, "ms");
    rep.timing("dg.transfer_ms", &xfer_t, 1e3, "ms");
    rep.timing("dg.advect_volume_us_per_elem", &vol_t, 1e6, "us");
}

/// `kernels::advect_volume_rhs` over every live element; records the
/// time per element.
fn volume_replay(s: &AdvectSolver, out: &mut Samples) {
    let re = &s.mesh.re;
    let (np, npe) = (re.np, re.nodes_per_elem(3));
    let nel = s.mesh.num_elements();
    let mut metr = vec![0.0; nel * 9 * npe];
    let mut vels = vec![0.0; nel * 3 * npe];
    for e in 0..nel {
        let vel: Vec<[f64; 3]> = s
            .geo
            .elem_pos(e)
            .iter()
            .map(|&x| rotation_velocity(x))
            .collect();
        kernels::pack_volume_soa(
            s.geo.elem_inv(e),
            &vel,
            &mut metr[e * 9 * npe..(e + 1) * 9 * npe],
            &mut vels[e * 3 * npe..(e + 1) * 3 * npe],
        );
    }
    let (mut grad, mut rhs) = (vec![0.0; 3 * npe], vec![0.0; npe]);
    let mut t = Samples::default();
    layers::replay("amrbench.replay.advect_volume", &mut t, || {
        for e in 0..nel {
            kernels::advect_volume_rhs(
                &re.diff,
                np,
                &s.c[e * npe..(e + 1) * npe],
                &metr[e * 9 * npe..(e + 1) * 9 * npe],
                &vels[e * 3 * npe..(e + 1) * 3 * npe],
                &mut grad,
                &mut rhs,
            );
        }
        rhs[0]
    });
    out.push(t.median() / nel as f64);
}
