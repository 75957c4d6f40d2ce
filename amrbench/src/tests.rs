//! The benchmark's own tests: seeds make meshes, and every correctness
//! gate trips on a deliberately corrupted input.
//!
//! `cargo test --release --manifest-path amrbench/Cargo.toml`

use std::sync::Arc;

use forust::connectivity::builders;
use forust_comm::Communicator;

use crate::common::{self, digest};
use crate::{advect, forest, mantle, seismic};

/// Digest of a solver's node positions: a rotation changes it even where
/// the octants stay the same.
fn geometry_digest(pos: &[[f64; 3]]) -> u64 {
    digest(pos.iter().flat_map(|p| p.map(f64::to_bits)))
}

fn forest_mesh(seed: u64) -> forest::Counts {
    let kids = forest::children_for_seed(seed);
    common::spmd(common::COMM_RANKS, |comm| {
        let conn = Arc::new(builders::rotcubes6());
        forest::gate(comm, &forest::cycle(&conn, comm, kids), None).0
    })[0]
}

fn advect_mesh(seed: u64) -> (u64, u64, usize, u64) {
    common::spmd(common::RANKS, |comm| {
        let (s, _) = advect::setup(comm, seed);
        (
            s.num_global_elements(),
            forest::leaf_digest(comm, &s.forest),
            s.c.len(),
            geometry_digest(&s.geo.pos),
        )
    })[0]
}

/// Index of the mesh node nearest to a physical point: where the point
/// sits relative to the trees and elements.
fn nearest_node(pos: &[[f64; 3]], p: [f64; 3]) -> usize {
    let d2 = |q: &[f64; 3]| (0..3).map(|i| (q[i] - p[i]).powi(2)).sum::<f64>();
    (0..pos.len())
        .min_by(|&a, &b| d2(&pos[a]).total_cmp(&d2(&pos[b])))
        .expect("the mesh has nodes")
}

fn seismic_mesh(seed: u64) -> (u64, u64, u64, usize) {
    common::spmd(1, |comm| {
        let (s, _, _) = seismic::setup(comm, seed);
        (
            s.forest.num_global(),
            s.num_global_unknowns(),
            geometry_digest(&s.geo.pos),
            nearest_node(&s.geo.pos, s.config.src),
        )
    })[0]
}

fn mantle_mesh(seed: u64) -> (u64, u64, u64, u64) {
    common::spmd(1, |comm| {
        let (s, _) = mantle::setup(comm, seed);
        (
            s.forest.num_global(),
            s.fem.num_global_unknowns(),
            forest::leaf_digest(comm, &s.forest),
            geometry_digest(&s.fem.qp_pos),
        )
    })[0]
}

#[test]
fn same_seed_same_mesh() {
    for seed in [0, 7] {
        assert_eq!(forest_mesh(seed), forest_mesh(seed));
        assert_eq!(advect_mesh(seed), advect_mesh(seed));
        assert_eq!(seismic_mesh(seed), seismic_mesh(seed));
        assert_eq!(mantle_mesh(seed), mantle_mesh(seed));
    }
}

#[test]
fn different_seeds_different_meshes() {
    for (a, b) in [(0, 1), (1, 2)] {
        assert_ne!(forest_mesh(a).leaves, forest_mesh(b).leaves);
        assert_ne!(advect_mesh(a).1, advect_mesh(b).1);
        // The seismic mesh is graded by a radial model, so a rotation
        // keeps its octants and moves its geometry, and with it the
        // source's place on the mesh.
        let (sa, sb) = (seismic_mesh(a), seismic_mesh(b));
        assert_eq!((sa.0, sa.1), (sb.0, sb.1));
        assert!(sa.2 != sb.2 && sa.3 != sb.3);
        let (ma, mb) = (mantle_mesh(a), mantle_mesh(b));
        assert!(ma.2 != mb.2 && ma.3 != mb.3);
    }
}

#[test]
fn seed_zero_is_the_paper_setup() {
    assert_eq!(forest::children_for_seed(0), [forest::PAPER_CHILDREN; 6]);
    assert_eq!(
        common::seed_rotation(0),
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    );
    for seed in 1..200 {
        assert_ne!(forest::children_for_seed(seed), [forest::PAPER_CHILDREN; 6]);
    }
}

#[test]
fn forest_gate_trips() {
    let kids = forest::children_for_seed(0);
    common::spmd(common::COMM_RANKS, |comm| {
        let conn = Arc::new(builders::rotcubes6());
        let good = forest::cycle(&conn, comm, kids);
        let (reference, problem) = forest::gate(comm, &good, None);
        assert_eq!(problem, None);
        assert_eq!(forest::gate(comm, &good, Some(&reference)).1, None);
        // The fractal forest before Balance is not 2:1 balanced.
        let mut unbalanced = forest::input_forest(&conn, comm, kids);
        unbalanced.partition(comm);
        let unbalanced = forest::Cycle {
            forest: unbalanced,
            ..forest::cycle(&conn, comm, kids)
        };
        assert!(forest::gate(comm, &unbalanced, None).1.is_some());
        assert!(forest::gate(comm, &unbalanced, Some(&reference))
            .1
            .is_some());
        // Another forest (the mirror rule on tree 0) is not the reference.
        let mut other = kids;
        other[0] = forest::MIRROR_CHILDREN;
        let other = forest::cycle(&conn, comm, other);
        assert_eq!(forest::gate(comm, &other, None).1, None);
        assert!(forest::gate(comm, &other, Some(&reference)).1.is_some());
        let no_nodes = forest::Cycle {
            nodes_global: 0,
            ..good
        };
        assert!(forest::gate(comm, &no_nodes, None).1.is_some());
    });
}

#[test]
fn advect_gates_trip() {
    common::spmd(common::RANKS, |comm| {
        let (mut s, map) = advect::setup(comm, 0);
        let mass0 = s.total_mass(comm);
        s.step(comm);
        assert_eq!(advect::gate(comm, &s, mass0), None);
        let segment = s.checkpoint_segment(comm.size());
        assert_eq!(advect::restore_gate(comm, &s, &map, segment.clone()), None);

        // A field that moved after the checkpoint no longer restores.
        let c = s.c.clone();
        s.c[0] += 1e-12;
        assert!(advect::restore_gate(comm, &s, &map, segment.clone()).is_some());
        // A damaged checkpoint does not restore.
        let mut bad = segment;
        let mid = bad.len() / 2;
        bad[mid] ^= 0xFF;
        s.c = c.clone();
        assert!(advect::restore_gate(comm, &s, &map, bad).is_some());

        s.c.iter_mut().for_each(|v| *v *= 1.01);
        assert!(advect::gate(comm, &s, mass0).is_some(), "mass drift");
        s.c = c;
        s.c[3] = f64::NAN;
        assert!(advect::gate(comm, &s, mass0).is_some(), "non-finite field");
    });
}

#[test]
fn seismic_gates_trip() {
    common::spmd(1, |comm| {
        let (mut s, mut dev, _) = seismic::setup(comm, 0);
        seismic::warm_up(comm, &mut s, &mut dev);
        let grow0 = seismic::grow_events(&s, &dev);
        assert_eq!(seismic::gate(comm, &s, &dev, grow0).1, None);

        let mut grown = grow0;
        grown[2] += 1;
        assert!(
            seismic::gate(comm, &s, &dev, grown).1.is_some(),
            "allocation"
        );

        let q = s.q.clone();
        let peak = q.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        s.q[7] += 1e-2 * peak;
        let (err, problem) = seismic::gate(comm, &s, &dev, grow0);
        assert!(
            err > seismic::DEVICE_REL_BOUND && problem.is_some(),
            "device error"
        );

        s.q = q;
        s.q[11] = f64::INFINITY;
        assert!(
            seismic::gate(comm, &s, &dev, grow0).1.is_some(),
            "non-finite state"
        );
    });
}

/// The halo's scratch counters are gated on ranks that exchange traces.
#[test]
fn seismic_halo_pairs_pass_the_gate() {
    common::spmd(common::COMM_RANKS, |comm| {
        let (mut s, mut dev, _) = seismic::setup(comm, 1);
        assert!(s.halo.trace_len() > 0);
        seismic::warm_up(comm, &mut s, &mut dev);
        let grow0 = seismic::grow_events(&s, &dev);
        for _ in 0..seismic::HALO_PAIRS {
            s.step(comm);
            dev.step(&s, comm);
            assert_eq!(seismic::gate(comm, &s, &dev, grow0).1, None);
        }
    });
}

#[test]
fn mantle_gates_trip() {
    common::spmd(1, |comm| {
        let (mut s, _) = mantle::setup(comm, 0);
        s.picard_step(comm);
        let r = mantle::rel_residual(comm, &s);
        assert!(r.is_finite() && r > 0.0);
        assert_eq!(mantle::gate(comm, &s, r), None);
        assert!(
            mantle::gate(comm, &s, f64::NAN).is_some(),
            "non-finite residual"
        );
        s.x[5] = f64::NAN;
        assert!(mantle::gate(comm, &s, r).is_some(), "non-finite solution");
        s.x.fill(f64::NAN);
        assert!(mantle::rel_residual(comm, &s).is_nan());
    });
}
