//! `mantle-stokes`: the Fig. 7 nonlinear Stokes solve on the cubed
//! sphere. Picard iterations with MINRES at the Fig. 7 budget, and an
//! adapt after every two of them; the Nodes-based FEM is rebuilt at each
//! adapt.

use std::sync::Arc;
use std::time::Instant;

use forust::connectivity::builders;
use forust::dim::D3;
use forust::forest::Forest;
use forust_comm::{Communicator, ThreadComm};
use forust_geom::ShellMap;
use forust_mantle::{MantleConfig, MantleSolver, StokesFem};

use crate::common::{self, Report, Samples, SharedMap};
use crate::layers::{self, App, Traffic};

/// Picard iterations per AMR cycle.
pub const PICARD_PER_CYCLE: usize = 2;

pub fn config() -> MantleConfig {
    MantleConfig {
        picard_iters: usize::MAX,
        amr_every: usize::MAX,
        max_level: 3,
        minres_iters: 150,
        minres_tol: 1e-5,
        ..Default::default()
    }
}

pub fn setup(comm: &impl Communicator, seed: u64) -> (MantleSolver, SharedMap) {
    let conn = Arc::new(builders::cubed_sphere());
    let forest = Forest::<D3>::new_uniform(Arc::clone(&conn), comm, 1);
    let map = common::rotated(Arc::new(ShellMap::new(conn, 0.55, 1.0)), seed);
    (
        MantleSolver::new(comm, forest, Arc::clone(&map), config()),
        map,
    )
}

/// `true` when `v` is finite on every rank. Collective. (`fem.dot` cannot
/// tell: its exact fixed-point sum maps a NaN term to a finite value.)
fn finite(comm: &impl Communicator, v: &[f64]) -> bool {
    !comm.allreduce_or(!common::all_finite(v))
}

/// `‖b − A x‖ / ‖b‖` of the last linear solve, from the public FEM
/// operators; NaN when the residual vector is not finite. Collective.
pub fn rel_residual(comm: &impl Communicator, s: &MantleSolver) -> f64 {
    let b = s.fem.buoyancy_rhs(comm, s.config.ra);
    let mut ax = vec![0.0; b.len()];
    s.fem.apply(comm, &s.x, &mut ax);
    let r: Vec<f64> = b.iter().zip(&ax).map(|(b, a)| b - a).collect();
    if !finite(comm, &r) {
        return f64::NAN;
    }
    (s.fem.dot(comm, &r, &r) / s.fem.dot(comm, &b, &b)).sqrt()
}

/// The per-cycle gate: finite residual and finite solution. Collective.
pub fn gate(comm: &impl Communicator, s: &MantleSolver, residual: f64) -> Option<String> {
    let norm = s.solution_norm(comm);
    common::first_failure(&[
        (residual.is_finite(), "mantle: non-finite residual"),
        (
            finite(comm, &s.x) && norm.is_finite(),
            "mantle: non-finite solution",
        ),
    ])
}

/// The `mantle-stokes` application: AMR cycles in a loop.
pub struct Stokes {
    seed: u64,
    s: MantleSolver,
    map: SharedMap,
    picard: Samples,
    adapt: Samples,
    resid: Samples,
    iters: usize,
    picards: usize,
    rep: Report,
}

impl Stokes {
    /// Set-up and the warm-up: adapts only refine, so the mesh grows at
    /// the first adapts and then stays fixed; from there every cycle does
    /// the same work.
    pub fn new(comm: &ThreadComm, seed: u64) -> Stokes {
        let (s, map) = setup(comm, seed);
        let mut m = Stokes {
            seed,
            s,
            map,
            picard: Samples::default(),
            adapt: Samples::default(),
            resid: Samples::default(),
            iters: 0,
            picards: 0,
            rep: Report::default(),
        };
        for _ in 0..8 {
            let before = m.s.forest.num_global();
            m.cycle(comm, false);
            if m.s.forest.num_global() == before {
                break;
            }
        }
        m
    }

    /// Two Picard iterations, the residual and gate of the last solve,
    /// then the adapt. Returns the cycle's wall time, gate excluded.
    fn cycle(&mut self, comm: &ThreadComm, record: bool) -> f64 {
        let s = &mut self.s;
        let u = forust_obs::span!(layers::UNIT_SPAN);
        let it0 = s.timers.krylov_iters;
        let t = Instant::now();
        for _ in 0..PICARD_PER_CYCLE {
            s.picard_step(comm);
        }
        let t_picard = t.elapsed().as_secs_f64();
        drop(u);
        let res = rel_residual(comm, s);
        let problem = gate(comm, s, res);
        let u = forust_obs::span!(layers::UNIT_SPAN);
        let t = Instant::now();
        s.adapt(comm);
        let t_adapt = t.elapsed().as_secs_f64();
        drop(u);
        if record {
            self.picard
                .push((t_picard + t_adapt) / PICARD_PER_CYCLE as f64);
            self.adapt.push(t_adapt);
            self.resid.push(res);
            self.iters += s.timers.krylov_iters - it0;
            self.picards += PICARD_PER_CYCLE;
        }
        self.rep.unit(problem);
        t_picard + t_adapt
    }
}

impl App for Stokes {
    fn setup_sample(&mut self, comm: &ThreadComm) -> f64 {
        let t = Instant::now();
        std::hint::black_box(setup(comm, self.seed).0.forest.num_local());
        t.elapsed().as_secs_f64()
    }

    fn unit(&mut self, comm: &ThreadComm) -> f64 {
        self.cycle(comm, true)
    }

    fn finish(mut self: Box<Self>, comm: &ThreadComm, trace: bool) -> Report {
        let mut rep = std::mem::take(&mut self.rep);
        rep.timing("mantle.picard_s", &self.picard, 1.0, "s");
        rep.set("mantle.rel_residual", self.resid.median(), "1");
        rep.timing("mantle.adapt_ms", &self.adapt, 1e3, "ms");
        let per_picard = self.iters as f64 / self.picards.max(1) as f64;
        rep.set("mantle.minres_iters", per_picard, "count");
        rep.set(
            "mantle.elements",
            self.s.forest.num_global() as f64,
            "count",
        );
        let unknowns = self.s.fem.num_global_unknowns() as f64;
        rep.set("mantle.unknowns", unknowns, "count");
        if trace {
            replays(comm, &mut self.s, &self.map, &mut rep);
            rep.merge(comm_replay(self.seed));
        }
        rep
    }
}

/// Traffic of one Picard iteration on [`common::COMM_RANKS`] ranks
/// (traced runs only): node assembly and the Lanczos allreduces, which
/// the timed loop's one rank does not send.
fn comm_replay(seed: u64) -> Report {
    let mut reports = common::spmd(common::COMM_RANKS, |comm| {
        let mut rep = Report::default();
        let (mut s, _) = setup(comm, seed);
        let tr = Traffic::start(comm);
        s.picard_step(comm);
        let bytes = comm.allreduce_sum_u64(tr.bytes(comm)) as f64;
        let msgs = comm.allreduce_sum_u64(tr.msgs(comm)) as f64;
        rep.set("mantle.bytes_per_picard", bytes, "B");
        rep.set("mantle.msgs_per_picard", msgs, "count");
        rep
    });
    reports.swap_remove(0)
}

/// The FEM's public operators replayed on the live state.
fn replays(comm: &impl Communicator, s: &mut MantleSolver, map: &SharedMap, rep: &mut Report) {
    // One Picard step so x holds a solve on the current mesh.
    s.picard_step(comm);
    let x = s.x.clone();
    let mut y = vec![0.0; x.len()];
    let (mut apply, mut dot, mut pre, mut visc, mut rhs, mut build) = Default::default();
    for _ in 0..20 {
        layers::replay("amrbench.replay.apply", &mut apply, || {
            s.fem.apply(comm, &x, &mut y)
        });
        layers::replay("amrbench.replay.dot", &mut dot, || s.fem.dot(comm, &x, &y));
    }
    for _ in 0..3 {
        layers::replay("amrbench.replay.precond_setup", &mut pre, || {
            s.fem.preconditioner_diagonals(comm)
        });
        layers::replay("amrbench.replay.viscosity", &mut visc, || {
            s.fem.update_viscosity(&s.config.rheology, &x)
        });
        layers::replay("amrbench.replay.rhs", &mut rhs, || {
            s.fem.buoyancy_rhs(comm, s.config.ra)
        });
        layers::replay("amrbench.replay.fem_build", &mut build, || {
            StokesFem::build(&s.forest, comm, map, &s.config.rheology)
        });
    }
    rep.timing("mantle.apply_us", &apply, 1e6, "us");
    rep.timing("mantle.dot_us", &dot, 1e6, "us");
    rep.timing("mantle.precond_setup_ms", &pre, 1e3, "ms");
    rep.timing("mantle.viscosity_ms", &visc, 1e3, "ms");
    rep.timing("mantle.rhs_ms", &rhs, 1e3, "ms");
    rep.timing("mantle.fem_build_ms", &build, 1e3, "ms");
}
