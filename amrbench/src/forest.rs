//! `forest-fractal`: the Fig. 4 pipeline New → Refine → Partition →
//! Balance → Ghost → Nodes on the six-tree `rotcubes6` forest, refined
//! three levels deep by a 4-of-8 child-id rule per tree.

use std::sync::Arc;
use std::time::Instant;

use forust::connectivity::{builders, Connectivity};
use forust::dim::D3;
use forust::forest::{BalanceType, Forest};
use forust_comm::{Communicator, ThreadComm};

use crate::common::{self, Report, Rng, Samples};
use crate::layers::{self, App, Traffic};

const BASE_LEVEL: u8 = 2;
const DEPTH: u8 = 3;
/// The paper's fractal rule: children 0, 3, 5 and 6 refine.
pub const PAPER_CHILDREN: [usize; 4] = [0, 3, 5, 6];
/// The mirror image of the paper's set: the other four corners.
pub const MIRROR_CHILDREN: [usize; 4] = [1, 2, 4, 7];

/// The seed's refining child-id set for each of the six trees. Seed 0
/// uses the paper's set everywhere; any other seed picks, per tree, the
/// paper's set or its mirror image (never all six the paper's). Each tree
/// then holds the same number of octants as under the paper's rule, so
/// seeds move where the fractal grades against its neighbours, not how
/// big the forest is.
pub fn children_for_seed(seed: u64) -> [[usize; 4]; 6] {
    let mut mask = if seed == 0 {
        0
    } else {
        Rng::new(seed, 2).next_u64() % 63 + 1
    };
    std::array::from_fn(|_| {
        let kids = if mask & 1 == 0 {
            PAPER_CHILDREN
        } else {
            MIRROR_CHILDREN
        };
        mask >>= 1;
        kids
    })
}

/// One pipeline cycle on this rank: the forest it ends with, the global
/// ghost and node counts, and per-algorithm wall times (s) and bytes sent.
pub struct Cycle {
    pub forest: Forest<D3>,
    pub ghosts: u64,
    pub nodes_global: u64,
    pub times: [f64; 6],
    pub bytes: [u64; 4],
}

pub const ALGOS: [&str; 6] = ["new", "refine", "partition", "balance", "ghost", "nodes"];

fn refine_fractal(f: &mut Forest<D3>, comm: &impl Communicator, kids: [[usize; 4]; 6]) {
    f.refine(comm, true, |t, o| {
        o.level < BASE_LEVEL + DEPTH && kids[t as usize].contains(&o.child_id())
    });
}

/// Build the input forest: uniform base level, then the fractal rule.
pub fn input_forest(
    conn: &Arc<Connectivity<D3>>,
    comm: &impl Communicator,
    kids: [[usize; 4]; 6],
) -> Forest<D3> {
    let mut f = Forest::<D3>::new_uniform(Arc::clone(conn), comm, BASE_LEVEL);
    refine_fractal(&mut f, comm, kids);
    f
}

/// One full pipeline cycle, each public call timed and wrapped in a
/// benchmark span.
pub fn cycle(
    conn: &Arc<Connectivity<D3>>,
    comm: &impl Communicator,
    kids: [[usize; 4]; 6],
) -> Cycle {
    let _u = forust_obs::span!(layers::UNIT_SPAN);
    let mut times = [0.0; 6];
    let mut bytes = [0u64; 4];
    let t = Instant::now();
    let mut forest = {
        let _s = forust_obs::span!("amrbench.call.core.new");
        Forest::<D3>::new_uniform(Arc::clone(conn), comm, BASE_LEVEL)
    };
    times[0] = t.elapsed().as_secs_f64();
    let t = Instant::now();
    {
        let _s = forust_obs::span!("amrbench.call.core.refine");
        refine_fractal(&mut forest, comm, kids);
    }
    times[1] = t.elapsed().as_secs_f64();
    let tr = Traffic::start(comm);
    let t = Instant::now();
    {
        let _s = forust_obs::span!("amrbench.call.core.partition");
        forest.partition(comm);
    }
    times[2] = t.elapsed().as_secs_f64();
    bytes[0] = tr.bytes(comm);
    let tr = Traffic::start(comm);
    let t = Instant::now();
    {
        let _s = forust_obs::span!("amrbench.call.core.balance");
        forest.balance(comm, BalanceType::Full);
    }
    times[3] = t.elapsed().as_secs_f64();
    bytes[1] = tr.bytes(comm);
    let tr = Traffic::start(comm);
    let t = Instant::now();
    let ghost = {
        let _s = forust_obs::span!("amrbench.call.core.ghost");
        forest.ghost(comm)
    };
    times[4] = t.elapsed().as_secs_f64();
    bytes[2] = tr.bytes(comm);
    let tr = Traffic::start(comm);
    let t = Instant::now();
    let nodes = {
        let _s = forust_obs::span!("amrbench.call.core.nodes");
        forest.nodes(comm, &ghost, 1)
    };
    times[5] = t.elapsed().as_secs_f64();
    bytes[3] = tr.bytes(comm);
    drop(_u);
    Cycle {
        ghosts: comm.allreduce_sum_u64(ghost.ghosts.len() as u64),
        nodes_global: nodes.num_global,
        forest,
        times,
        bytes,
    }
}

/// What every cycle of one seed must reproduce exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    pub octants: u64,
    pub ghosts: u64,
    pub nodes_global: u64,
    /// Digest of the global leaf set and of its partition.
    pub leaves: u64,
}

/// The correctness gate of one cycle: a valid, fully 2:1-balanced forest
/// and a non-empty node numbering. Collective.
///
/// With no `reference` (the warm-up cycle) it runs the library's checks,
/// `check_valid` and `check_balanced(Full)`. They gather every leaf on
/// every rank and cost about twice a cycle, so a timed cycle instead
/// must reproduce the verified warm-up forest exactly: the same leaves,
/// partition, ghost count and node count.
pub fn gate(
    comm: &impl Communicator,
    c: &Cycle,
    reference: Option<&Counts>,
) -> (Counts, Option<String>) {
    let counts = Counts {
        octants: c.forest.num_global(),
        ghosts: c.ghosts,
        nodes_global: c.nodes_global,
        leaves: leaf_digest(comm, &c.forest),
    };
    let valid = match reference {
        None => layers::no_panic(comm, || {
            c.forest.check_valid(comm);
            c.forest.check_balanced(comm, BalanceType::Full);
        }),
        Some(r) => counts == *r,
    };
    let problem = common::first_failure(&[
        (
            valid,
            "forest: not the valid, 2:1-balanced forest of the warm-up cycle",
        ),
        (counts.nodes_global > 0, "forest: global node count is 0"),
    ]);
    (counts, problem)
}

/// Digest of the global leaf set and of how it is partitioned. Collective.
pub fn leaf_digest(comm: &impl Communicator, f: &Forest<D3>) -> u64 {
    let mine: Vec<u64> = f
        .iter_local()
        .flat_map(|(t, o)| [t as u64, o.morton(), o.level as u64])
        .collect();
    let leaves = comm.allgatherv(&mine).into_iter().flatten();
    common::digest(leaves.chain(f.counts().iter().copied()))
}

/// The `forest-fractal` application: the pipeline cycle in a loop.
pub struct Fractal {
    kids: [[usize; 4]; 6],
    conn: Arc<Connectivity<D3>>,
    reference: Counts,
    cycle_s: Samples,
    algo: Vec<Samples>,
    rep: Report,
}

impl Fractal {
    /// Set-up and the warm-up cycle, which runs the full checks and is
    /// the forest every timed cycle must reproduce.
    pub fn new(comm: &ThreadComm, seed: u64) -> Fractal {
        let kids = children_for_seed(seed);
        let (conn, input) = setup(comm, kids);
        let mut rep = Report::default();
        let (reference, problem) = gate(comm, &cycle(&conn, comm, kids), None);
        let leaves = leaf_digest(comm, &input);
        rep.unit(problem.or_else(|| {
            (reference.leaves != leaves).then(|| "forest: cycle leaves differ from set-up".into())
        }));
        Fractal {
            kids,
            conn,
            reference,
            cycle_s: Samples::default(),
            algo: vec![Samples::default(); 6],
            rep,
        }
    }
}

/// Connectivity and the partitioned, balanced input forest.
fn setup(comm: &ThreadComm, kids: [[usize; 4]; 6]) -> (Arc<Connectivity<D3>>, Forest<D3>) {
    let conn = Arc::new(builders::rotcubes6());
    let mut f = input_forest(&conn, comm, kids);
    f.partition(comm);
    f.balance(comm, BalanceType::Full);
    (conn, f)
}

impl App for Fractal {
    fn setup_sample(&mut self, comm: &ThreadComm) -> f64 {
        let t = Instant::now();
        std::hint::black_box(setup(comm, self.kids).1.num_local());
        t.elapsed().as_secs_f64()
    }

    fn unit(&mut self, comm: &ThreadComm) -> f64 {
        let c = cycle(&self.conn, comm, self.kids);
        self.rep.unit(gate(comm, &c, Some(&self.reference)).1);
        for (s, &t) in self.algo.iter_mut().zip(&c.times) {
            s.push(t);
        }
        let total = c.times.iter().sum();
        self.cycle_s.push(total);
        total
    }

    fn finish(self: Box<Self>, _comm: &ThreadComm, trace: bool) -> Report {
        let mut rep = self.rep;
        rep.timing("forest.cycle_s", &self.cycle_s, 1.0, "s");
        for (name, s) in ALGOS.iter().zip(&self.algo) {
            rep.timing(&format!("core.{name}_ms"), s, 1e3, "ms");
        }
        rep.set("core.octants", self.reference.octants as f64, "count");
        rep.set(
            "core.nodes_global",
            self.reference.nodes_global as f64,
            "count",
        );
        if trace {
            rep.merge(comm_replay(self.kids));
        }
        rep
    }
}

/// Traffic and ghost layer of one cycle on [`common::COMM_RANKS`] ranks
/// (traced runs only): on the one rank of the timed loop, Partition,
/// Ghost and Nodes send nothing.
fn comm_replay(kids: [[usize; 4]; 6]) -> Report {
    let mut reports = common::spmd(common::COMM_RANKS, |comm| {
        let mut rep = Report::default();
        let c = cycle(&Arc::new(builders::rotcubes6()), comm, kids);
        for (name, b) in ALGOS[2..].iter().zip(c.bytes) {
            let total = comm.allreduce_sum_u64(b) as f64;
            rep.set(&format!("core.{name}_bytes"), total, "B");
        }
        rep.set("core.ghost_octants", c.ghosts as f64, "count");
        rep
    });
    reports.swap_remove(0)
}
