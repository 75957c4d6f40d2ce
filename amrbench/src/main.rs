//! `amrbench`: one workload of the repository benchmark per process.
//!
//! ```text
//! amrbench run --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!              [--peak-f64 <GFlop/s> --peak-f32 <GFlop/s>]
//! amrbench probe
//! ```
//!
//! `run` builds all four applications and splits `--seconds` of timed
//! loops equally between them, so every run reports every metric; the
//! named workload's application gives the run's memory and, in a traced
//! run, its phase table. It prints one JSON line with all metrics, the
//! unit counts and the run's context; `run.py` turns that into the
//! benchmark's result line. `probe` measures the attainable bounds.

mod advect;
mod common;
mod forest;
mod layers;
mod mantle;
mod probe;
mod seismic;
#[cfg(test)]
mod tests;

use std::time::Instant;

use forust_comm::{Communicator, ThreadComm};

use common::{Report, Samples};
use layers::App;
use probe::Peak;

/// The applications, one per workload name. In each round the named
/// workload's application runs first, then the others in this order.
const WORKLOADS: [&str; 4] = [
    "forest-fractal",
    "advect-amr",
    "seismic-wave",
    "mantle-stokes",
];

/// Rounds a run is cut into. Each round takes one `setup_s` sample (all
/// four applications set up from scratch) and then an equal slice of
/// every application's loop, so every metric samples the whole run: the
/// measuring box slows down and speeds up by tens of per cent over
/// seconds, and one contiguous stretch per application turned that into
/// run-to-run spread.
const ROUNDS: usize = 8;

fn new_app(workload: &str, comm: &ThreadComm, a: &Args) -> Box<dyn App> {
    match workload {
        "forest-fractal" => Box::new(forest::Fractal::new(comm, a.seed)),
        "advect-amr" => Box::new(advect::Advect::new(comm, a.seed)),
        "seismic-wave" => Box::new(seismic::Wave::new(comm, a.seed, a.peak)),
        "mantle-stokes" => Box::new(mantle::Stokes::new(comm, a.seed)),
        _ => unreachable!("workload names are checked on entry"),
    }
}

/// Set up every application, run the rounds, and collect the metrics.
/// `setup_s` is the median over the rounds of the time to set up all
/// four applications' state from scratch, so set-up work of every
/// application shows on every workload. `peak_rss_mb` is the process's
/// peak resident set after the named application's set-up, warm-up and
/// one more set-up from scratch, before the other applications are
/// built: that application's own memory. In a traced run the obs
/// recorder records the named application's slices in every second
/// round; the other rounds' units are the untraced ones
/// `obs.trace_overhead_pct` compares against, so drift of the box over
/// the run affects both alike.
fn measure(a: &Args) -> Report {
    let mut reports = common::spmd(common::RANKS, |comm| {
        let mut measured = new_app(&a.workload, comm, a);
        measured.setup_sample(comm);
        let own_rss = common::peak_rss_mb();
        let mut apps = vec![measured];
        apps.extend(
            WORKLOADS
                .iter()
                .filter(|w| **w != a.workload)
                .map(|w| new_app(w, comm, a)),
        );
        let slice = a.seconds / (apps.len() * ROUNDS) as f64;
        let mut setup = Samples::default();
        let (mut untraced, mut traced) = (Samples::default(), Samples::default());
        let mut phases = layers::PhaseTable::default();
        for round in 0..ROUNDS {
            setup.push(apps.iter_mut().map(|app| app.setup_sample(comm)).sum());
            for (i, app) in apps.iter_mut().enumerate() {
                let m = i == 0;
                let record = m && a.trace && round % 2 == 1;
                if record {
                    forust_obs::install(comm.rank());
                }
                let start = Instant::now();
                loop {
                    let t = app.unit(comm);
                    if m {
                        if record {
                            traced.push(t)
                        } else {
                            untraced.push(t)
                        }
                    }
                    if start.elapsed().as_secs_f64() >= slice {
                        break;
                    }
                }
                if record {
                    phases.absorb(forust_obs::uninstall());
                }
            }
        }
        let mut rep = Report::default();
        rep.timing_median("setup_s", &setup, 1.0, "s");
        rep.set("peak_rss_mb", own_rss, "MB");
        if a.trace {
            phases.report(&mut rep, &traced, &untraced);
        }
        for app in apps {
            rep.merge(app.finish(comm, a.trace));
        }
        rep
    });
    reports.swap_remove(0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    peak: Option<Peak>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let get = |flag: &str| -> Option<&str> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let need = |flag: &str| get(flag).ok_or(format!("missing {flag}"));
    let workload = need("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    let seed = need("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = need("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match need("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    let peak = match (get("--peak-f64"), get("--peak-f32")) {
        (Some(a), Some(b)) => Some(Peak {
            gflops_f64: a.parse().map_err(|e| format!("--peak-f64: {e}"))?,
            gflops_f32: b.parse().map_err(|e| format!("--peak-f32: {e}"))?,
        }),
        _ => None,
    };
    if trace && peak.is_none() {
        return Err("--trace 1 needs --peak-f64 and --peak-f32 (from `amrbench probe`)".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        peak,
    })
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", forust_obs::json::escape(s))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("probe") => return probe::main(),
        Some("run") => {}
        _ => {
            eprintln!("usage: amrbench run --workload <name> --seed <n> --seconds <s> --trace <0|1> | amrbench probe");
            std::process::exit(2);
        }
    }
    let a = match parse(&args[1..]) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("amrbench: {e}");
            std::process::exit(2);
        }
    };

    let report = measure(&a);

    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(k, m)| {
            let mut s = format!(
                "{}: {{\"value\": {}, \"unit\": {}",
                json_str(k),
                json_num(m.value),
                json_str(m.unit)
            );
            if let Some(t) = &m.stats {
                s += &format!(", \"n\": {}, \"median\": {}", t.n, json_num(t.median));
                if let Some((p, v)) = t.tail {
                    s += &format!(", \"tail_pct\": {p}, \"tail_value\": {}", json_num(v));
                }
            }
            s + "}"
        })
        .collect();
    let failures: Vec<String> = report.failures.iter().map(|f| json_str(f)).collect();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "{{\"attempted\": {}, \"failed\": {}, \"failures\": [{}], \"metrics\": {{{}}}, \
         \"context\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"cores\": {cores}, \"process_peak_rss_mb\": {}, \"ranks\": {}, \"comm_replay_ranks\": {}, \"workers_per_rank\": 1, \"lanes\": {}}}}}",
        report.attempted,
        report.failed,
        failures.join(", "),
        metrics.join(", "),
        json_str(&a.workload),
        a.seed,
        a.seconds,
        a.trace,
        json_num(common::peak_rss_mb()),
        common::RANKS,
        common::COMM_RANKS,
        forust_dg::soa::LANES,
    );
}
