//! `seismic-wave`: the Fig. 9/10 elastic wave solve on the static,
//! mortared, wavelength-adapted shell mesh. f64 host steps and f32 device
//! steps advance from the same initial state and are compared.

use std::sync::Arc;
use std::time::Instant;

use forust::connectivity::builders;
use forust::dim::D3;
use forust::forest::Forest;
use forust_comm::{Communicator, ThreadComm};
use forust_dg::kernels;
use forust_dg::soa::{self, LANES};
use forust_geom::ShellMap;
use forust_seismic::{prem_like_at, DeviceState, SeismicConfig, SeismicSolver, NCOMP};

use crate::common::{self, Report, Samples};
use crate::layers::{self, App, Traffic};
use crate::probe::Peak;

/// The documented device error bound: relative L∞ deviation of the f32
/// device state from the f64 host state after O(10) steps.
pub const DEVICE_REL_BOUND: f64 = 2e-4;
/// Host+device step pairs before timing: past the Ricker ramp, whose
/// near-zero early fields are subnormal in f32.
pub const WARMUP_STEPS: usize = 8;
/// Units after which the loop rewinds host and device to the
/// post-warm-up state, so every run times the same stretch of the wave's
/// evolution however many units fit in it: the step cost can depend on
/// the data (subnormal values are slow), and the device error grows with
/// the step count.
/// `seismic.device_rel_err` is the median over the first window, so it
/// is the same on every run of a seed. Between seeds it differs about
/// twofold: the source, 0.02 wide, is narrower than the node spacing, so
/// where it falls between nodes sets the field the error is relative to.
pub const WINDOW: usize = 16;
/// Gated step pairs of the traced run's multi-rank replay.
pub const HALO_PAIRS: usize = 4;
/// Hand-counted flops of `soa_penalty_flux` per face node and lane.
const FLUX_FLOPS_PER_NODE: f64 = 114.0;

pub fn setup(comm: &impl Communicator, seed: u64) -> (SeismicSolver, DeviceState, f64) {
    let conn = Arc::new(builders::shell24());
    let forest = Forest::<D3>::new_uniform(Arc::clone(&conn), comm, 1);
    // The seed turns the map and leaves the source (on the +z axis at
    // radius 0.9) where it is in physical space, so each seed puts it at
    // another place relative to the trees and mortars. The PREM-like
    // model is radial: the mesh and the work per step stay the same.
    let map = common::rotated(Arc::new(ShellMap::new(conn, 0.55, 1.0)), seed);
    let config = SeismicConfig {
        degree: 3,
        min_level: 1,
        max_level: 2,
        f0: 2.0,
        ..Default::default()
    };
    let s = SeismicSolver::new(comm, forest, map, config, prem_like_at);
    let mut dev = DeviceState::new();
    let t = Instant::now();
    dev.transfer_from_host(&s);
    (s, dev, t.elapsed().as_secs_f64())
}

/// Host+device step pairs from set-up to past the Ricker ramp.
pub fn warm_up(comm: &impl Communicator, s: &mut SeismicSolver, dev: &mut DeviceState) {
    for _ in 0..WARMUP_STEPS {
        s.step(comm);
        dev.step(s, comm);
    }
}

/// Allocation counters that must not rise in the static-mesh loop. The
/// halo's two only move with ghost traces, which the timed loop's one
/// rank has none of; the traced run's [`common::COMM_RANKS`]-rank pairs
/// ([`HALO_PAIRS`]) gate them.
pub fn grow_events(s: &SeismicSolver, dev: &DeviceState) -> [u64; 4] {
    [
        s.ws.grow_events(),
        dev.transfer_grow_events(),
        s.halo.scratch_grow_events(),
        s.halo.scratch32_grow_events(),
    ]
}

/// The per-unit gate. Collective.
pub fn gate(
    comm: &impl Communicator,
    s: &SeismicSolver,
    dev: &DeviceState,
    grow0: [u64; 4],
) -> (f64, Option<String>) {
    let err = dev.rel_error_vs_host(s, comm);
    let energy = s.energy(comm);
    let grew = comm.allreduce_or(grow_events(s, dev) != grow0);
    let finite = !comm.allreduce_or(!common::all_finite(&s.q));
    let problem = common::first_failure(&[
        (
            finite && energy.is_finite(),
            "seismic: non-finite host state or energy",
        ),
        (
            err.is_finite() && err <= DEVICE_REL_BOUND,
            "seismic: device error above bound",
        ),
        (!grew, "seismic: steady-state loop allocated"),
    ]);
    (err, problem)
}

/// The `seismic-wave` application: host and device step pairs in a loop.
pub struct Wave {
    seed: u64,
    s: SeismicSolver,
    dev: DeviceState,
    grow0: [u64; 4],
    /// The post-warm-up state every window starts from.
    q0: Vec<f64>,
    time0: f64,
    in_window: usize,
    host: Samples,
    device: Samples,
    rel_err: Samples,
    transfer: Samples,
    peak: Option<Peak>,
    rep: Report,
}

impl Wave {
    /// Set-up and the warm-up past the Ricker ramp.
    pub fn new(comm: &ThreadComm, seed: u64, peak: Option<Peak>) -> Wave {
        let (mut s, mut dev, xfer) = setup(comm, seed);
        warm_up(comm, &mut s, &mut dev);
        Wave {
            seed,
            grow0: grow_events(&s, &dev),
            q0: s.q.clone(),
            time0: s.time,
            s,
            dev,
            in_window: 0,
            host: Samples::default(),
            device: Samples::default(),
            rel_err: Samples::default(),
            transfer: Samples(vec![xfer]),
            peak,
            rep: Report::default(),
        }
    }
}

impl App for Wave {
    fn setup_sample(&mut self, comm: &ThreadComm) -> f64 {
        let t = Instant::now();
        let (_, _, xfer) = setup(comm, self.seed);
        self.transfer.push(xfer);
        t.elapsed().as_secs_f64()
    }

    fn unit(&mut self, comm: &ThreadComm) -> f64 {
        let (s, dev) = (&mut self.s, &mut self.dev);
        if self.in_window == WINDOW {
            s.q.copy_from_slice(&self.q0);
            s.time = self.time0;
            dev.transfer_from_host(s);
            self.in_window = 0;
        }
        self.in_window += 1;
        let u = forust_obs::span!(layers::UNIT_SPAN);
        let t = Instant::now();
        s.step(comm);
        let th = t.elapsed().as_secs_f64();
        let t = Instant::now();
        dev.step(s, comm);
        let td = t.elapsed().as_secs_f64();
        drop(u);
        self.host.push(th);
        self.device.push(td);
        let (err, problem) = gate(comm, s, dev, self.grow0);
        if self.rel_err.0.len() < WINDOW {
            self.rel_err.push(err);
        }
        self.rep.unit(problem);
        th + td
    }

    fn finish(mut self: Box<Self>, comm: &ThreadComm, trace: bool) -> Report {
        // `device_rel_err` needs the whole first window.
        while self.rel_err.0.len() < WINDOW {
            self.unit(comm);
        }
        let mut rep = std::mem::take(&mut self.rep);
        let us = 1e6 / self.s.forest.num_global() as f64;
        rep.timing("seismic.host_us_per_elem_step", &self.host, us, "us");
        rep.timing("seismic.device_us_per_elem_step", &self.device, us, "us");
        rep.set("seismic.device_rel_err", self.rel_err.median(), "1");
        rep.timing("seismic.transfer_ms", &self.transfer, 1e3, "ms");
        rep.set(
            "seismic.transfer_bytes",
            self.dev.transfer_bytes() as f64,
            "B",
        );
        let flops = self.s.flops_per_step() as f64;
        rep.set(
            "seismic.host_gflops",
            flops / self.host.min() / 1e9,
            "GFlop/s",
        );
        if trace {
            kernel_replays(&self.s, &mut rep, self.peak);
            rep.merge(comm_replays(self.seed));
        }
        rep
    }
}

/// The halo on [`common::COMM_RANKS`] ranks (traced runs only): the
/// timed loop's one rank exchanges nothing. After the warm-up,
/// [`HALO_PAIRS`] host+device step pairs go through [`gate`] as units, so
/// the halo's scratch counters are checked where the halo has traces.
fn comm_replays(seed: u64) -> Report {
    let mut reports = common::spmd(common::COMM_RANKS, |comm| {
        let mut rep = Report::default();
        let (mut s, mut dev, _) = setup(comm, seed);
        warm_up(comm, &mut s, &mut dev);
        let grow0 = grow_events(&s, &dev);
        for _ in 0..HALO_PAIRS {
            s.step(comm);
            dev.step(&s, comm);
            rep.unit(gate(comm, &s, &dev, grow0).1);
        }
        let nel = s.mesh.num_elements() as f64;
        let mean = s.forest.num_global() as f64 / comm.size() as f64;
        rep.set(
            "seismic.elem_imbalance",
            comm.allreduce_max_f64(nel) / mean,
            "1",
        );
        halo_replays(comm, &s, &mut rep);
        rep
    });
    reports.swap_remove(0)
}

/// The halo's public calls on the live state: split-phase f64 exchange
/// of all nine components and the f32 lane, with their traffic.
fn halo_replays(comm: &impl Communicator, s: &SeismicSolver, rep: &mut Report) {
    let npe = s.mesh.re.nodes_per_elem(3);
    let (mut begin, mut wait, mut f32t) = Default::default();
    let (mut bytes, mut bytes32, mut msgs) = (0, 0, 0);
    for _ in 0..10 {
        comm.barrier();
        let tr = Traffic::start(comm);
        let pending = layers::replay("amrbench.replay.halo_begin", &mut begin, || {
            s.halo.begin(comm, &s.q, NCOMP)
        });
        layers::replay("amrbench.replay.halo_wait", &mut wait, || {
            pending.finish().trace(0, 0).len()
        });
        (bytes, msgs) = (tr.bytes(comm), tr.msgs(comm));
        comm.barrier();
        let tr = Traffic::start(comm);
        layers::replay("amrbench.replay.halo_f32", &mut f32t, || {
            let q = &s.q;
            s.halo
                .exchange_f32_with(comm, |e, c, v| q[(e * NCOMP + c) * npe + v] as f32, NCOMP)
                .trace(0, 0)
                .len()
        });
        bytes32 = tr.bytes(comm);
    }
    rep.timing("dg.halo_begin_us", &begin, 1e6, "us");
    rep.timing("dg.halo_wait_us", &wait, 1e6, "us");
    rep.timing("dg.halo_f32_us", &f32t, 1e6, "us");
    rep.set("dg.halo_bytes", comm.allreduce_sum_u64(bytes) as f64, "B");
    rep.set(
        "dg.halo_f32_bytes",
        comm.allreduce_sum_u64(bytes32) as f64,
        "B",
    );
    rep.set("dg.halo_msgs", comm.allreduce_sum_u64(msgs) as f64, "count");
}

/// The nine-field gradient (f64 element engine and f32 SoA engine) and
/// the f32 lane-batched penalty flux, on the live host state of this
/// rank. Each reports µs per element, GFlop/s and % of measured peak.
fn kernel_replays(s: &SeismicSolver, rep: &mut Report, peak: Option<Peak>) {
    let re = &s.mesh.re;
    let (np, npe, npf) = (re.np, re.nodes_per_elem(3), re.nodes_per_face(3));
    let nel = s.mesh.num_elements();
    let grad_flops = (NCOMP * 3 * 2 * npe * np) as f64;

    let mut grad = vec![0.0; NCOMP * 3 * npe];
    let mut t64 = Samples::default();
    for _ in 0..5 {
        layers::replay("amrbench.replay.grad9_f64", &mut t64, || {
            for e in 0..nel {
                let fields = &s.q[e * NCOMP * npe..(e + 1) * NCOMP * npe];
                kernels::batched_gradient_into(&re.diff, np, 3, fields, NCOMP, &mut grad);
            }
            grad[0]
        });
    }

    // f32 SoA blocks of the live state, packed outside the timed region.
    let nb = soa::num_blocks(nel);
    let diff32: Vec<f32> = re.diff.data.iter().map(|&x| x as f32).collect();
    let mut blocks = vec![0.0f32; nb * NCOMP * npe * LANES];
    let mut comp = vec![0.0; nel * npe];
    for c in 0..NCOMP {
        for e in 0..nel {
            comp[e * npe..(e + 1) * npe]
                .copy_from_slice(&s.q[(e * NCOMP + c) * npe..(e * NCOMP + c + 1) * npe]);
        }
        for b in 0..nb {
            let plane =
                &mut blocks[(b * NCOMP + c) * npe * LANES..(b * NCOMP + c + 1) * npe * LANES];
            soa::pack_plane(&comp, npe, nel, b * LANES, plane);
        }
    }
    let mut grad32 = vec![0.0f32; NCOMP * 3 * npe * LANES];
    let mut t32 = Samples::default();
    for _ in 0..5 {
        layers::replay("amrbench.replay.grad9_f32", &mut t32, || {
            for b in 0..nb {
                let fields = &blocks[b * NCOMP * npe * LANES..(b + 1) * NCOMP * npe * LANES];
                soa::soa_batched_gradient(&diff32, np, fields, NCOMP, &mut grad32);
            }
            grad32[0]
        });
    }

    // Flux on face panels: my side from face 2k, the other side from face
    // 2k+1 of the same block, normals along the face axis, PREM material.
    let fp = npf * LANES;
    let mut panels = vec![0.0f32; nb * 6 * NCOMP * fp];
    for b in 0..nb {
        for f in 0..6 {
            let face = re.face_nodes(3, f);
            for c in 0..NCOMP {
                let plane = &blocks[(b * NCOMP + c) * npe * LANES..];
                for (j, &v) in face.iter().enumerate() {
                    let dst = ((b * 6 + f) * NCOMP + c) * fp + j * LANES;
                    panels[dst..dst + LANES].copy_from_slice(&plane[v * LANES..(v + 1) * LANES]);
                }
            }
        }
    }
    let m = prem_like_at([0.0, 0.0, 0.8]);
    let (rho, lam, mu) = (
        vec![m.rho as f32; fp],
        vec![m.lambda() as f32; fp],
        vec![m.mu() as f32; fp],
    );
    let mut d = vec![0.0f32; NCOMP * fp];
    let mut tflux = Samples::default();
    let nrms: Vec<Vec<f32>> = (0..3)
        .map(|axis| {
            let mut n = vec![0.0f32; 3 * fp];
            n[axis * fp..(axis + 1) * fp].fill(1.0);
            n
        })
        .collect();
    for _ in 0..5 {
        layers::replay("amrbench.replay.flux_f32", &mut tflux, || {
            for b in 0..nb {
                for f in 0..6 {
                    let (mine, other) = (b * 6 + f, b * 6 + (f ^ 1));
                    soa::soa_penalty_flux(
                        npf,
                        &panels[mine * NCOMP * fp..(mine + 1) * NCOMP * fp],
                        &panels[other * NCOMP * fp..(other + 1) * NCOMP * fp],
                        &nrms[f / 2],
                        &rho,
                        &lam,
                        &mu,
                        &mut d,
                    );
                }
            }
            d[0]
        });
    }

    let kernels = [
        (
            "grad9_f64",
            &t64,
            grad_flops * nel as f64,
            peak.map(|p| p.gflops_f64),
        ),
        (
            "grad9_f32",
            &t32,
            grad_flops * (nb * LANES) as f64,
            peak.map(|p| p.gflops_f32),
        ),
        (
            "flux_f32",
            &tflux,
            FLUX_FLOPS_PER_NODE * (nb * 6 * fp) as f64,
            peak.map(|p| p.gflops_f32),
        ),
    ];
    for (name, t, flops, peak) in kernels {
        let gflops = flops / t.min() / 1e9;
        rep.timing(&format!("dg.{name}_us_per_elem"), t, 1e6 / nel as f64, "us");
        rep.set(&format!("dg.{name}_gflops"), gflops, "GFlop/s");
        rep.set(
            &format!("dg.{name}_pct_peak"),
            peak.map_or(f64::NAN, |p| 100.0 * gflops / p),
            "%",
        );
    }
}
