//! One benchmark for the study, the query daemon and live swap.
//!
//! ```text
//! topple-perfbench --workload paper-study|live-swap --seed N
//!                  --seconds S --trace 0|1 [--smoke] [--daemon PATH] [--work DIR]
//! ```
//!
//! Every run goes through the same three phases, and each workload gives
//! its own phase the measuring window of `--seconds`:
//!
//! * study: `Study::run` and every paper artifact, in-process (the long
//!   phase of `paper-study`), plus report passes over the first study;
//! * query: the study's snapshot served by `topple-experiments serve`,
//!   driven over loopback in short slices;
//! * live: `serve --live` fed day deltas while a query stream runs (the
//!   long phase of `live-swap`).
//!
//! Every run checks the program's outputs and exits 1, naming the failed
//! check, if one fails. Otherwise the last line of stdout is one JSON
//! object: the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! of the traced run (`--trace 1`). Spans and the per-layer metrics are
//! also written to `<work>/trace-<workload>-<seed>.json`.

mod alloc;
mod daemon;
mod live;
mod oracle;
// The program's own report code, so `report_s` times what the program
// renders; the benchmark uses the paper artifacts, not the extra reports.
#[path = "../../crates/experiments/src/render.rs"]
#[allow(dead_code)]
mod render;
mod serve;
mod stats;
mod study;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use topple_sim::WorldConfig;

use crate::stats::median;
use crate::trace::{json_num, Tracer};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// The end-to-end metrics, in output order, with their units.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("study_s", "s"),
    ("report_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("swap_ms", "ms"),
];

/// Seed of every simulated world: the reference seed of the paper-scale
/// report. Different world seeds are different-sized workloads (Study::run
/// at medium scale moved 3.9–5.4 s across five seeds, more than the host's
/// own noise), so the world stays fixed and the workload seed draws the
/// request mixes and the live ingest order.
pub const WORLD_SEED: u64 = 20220201;

/// The world sizes of each phase.
pub struct Scales {
    pub study: fn(u64) -> WorldConfig,
    pub study_label: &'static str,
    pub live: fn(u64) -> WorldConfig,
    pub live_label: &'static str,
}

/// Measured runs: a medium study (and its snapshot), a small live world.
const MEASURED: Scales = Scales {
    study: WorldConfig::medium,
    study_label: "medium",
    live: WorldConfig::small,
    live_label: "small",
};

/// `--smoke`: every phase and check on tiny worlds, in seconds.
const SMOKE: Scales = Scales {
    study: WorldConfig::small,
    study_label: "small",
    live: WorldConfig::tiny,
    live_label: "tiny",
};

/// The run's checks: each is one operation; a failed one fails the run.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, name: &str, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = verdict {
            self.failed.push(format!("{name}: {why}"));
        }
    }
}

/// SplitMix64: the benchmark's own seeded generator for its inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x7f4a_7c15_9e37_79b9)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }
}

/// One step of a run after its first study round.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Step {
    Study,
    Report,
    Query,
    Live,
}

/// How much of each phase a workload runs. The workload's own phase gets
/// the `--seconds` window; the steps are interleaved evenly over the run,
/// so every metric's samples straddle the host's slower drifts.
struct Plan {
    /// Study rounds after the first.
    study_rounds: usize,
    /// Report passes over the first round's study, between the others.
    report_passes: usize,
    query_slices: usize,
    slice: serve::Lengths,
    live_rounds: usize,
}

impl Plan {
    fn for_workload(workload: &str, seconds: f64, smoke: bool) -> Plan {
        // A medium study round takes about 6 s and a small live round 5 s,
        // so `extra` of either fills the window; the other of the two gets
        // two passes, and the read path four half-second query slices. A
        // report takes under a second, and a median over two rounds' reports
        // alone moved by a quarter between runs, so every run also renders
        // it six more times, spread over the run.
        let extra = (seconds / 5.0).ceil() as usize;
        let short = if smoke { 0.25 } else { 0.5 };
        let slice = |s: f64| serve::Lengths { pipelined_s: s, open_s: s };
        let report_passes = if smoke { 1 } else { 6 };
        match workload {
            "paper-study" => Plan { study_rounds: extra, report_passes, query_slices: 4, slice: slice(short), live_rounds: 2 },
            _ => Plan { study_rounds: 1, report_passes, query_slices: 4, slice: slice(short), live_rounds: 1 + extra },
        }
    }

    /// Every step, each kind spread evenly: the i-th of n steps of a kind
    /// sits at (i + ½) / n of the run.
    fn steps(&self) -> Vec<Step> {
        let mut at: Vec<(f64, usize, Step)> = Vec::new();
        for (order, (n, step)) in
            [
                (self.study_rounds, Step::Study),
                (self.report_passes, Step::Report),
                (self.query_slices, Step::Query),
                (self.live_rounds, Step::Live),
            ]
                .into_iter()
                .enumerate()
        {
            at.extend((0..n).map(|i| ((i as f64 + 0.5) / n as f64, order, step)));
        }
        at.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        at.into_iter().map(|(_, _, step)| step).collect()
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    daemon: PathBuf,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut smoke = false;
    let mut daemon = None;
    let mut work = PathBuf::from(".bench_work");
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|_| "--seconds needs a number")?),
            "--trace" => trace = Some(value()? == "1"),
            "--smoke" => smoke = true,
            "--daemon" => daemon = Some(PathBuf::from(value()?)),
            "--work" => work = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["paper-study", "live-swap"].contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let daemon = match daemon {
        Some(d) => d,
        None => {
            let target = std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
            target.join("release").join("topple-experiments")
        }
    };
    if !daemon.is_file() {
        return Err(format!("daemon binary {} not found; build topple-experiments first", daemon.display()));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smoke,
        daemon,
        work,
    })
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<String, String> {
    let scales = if args.smoke { &SMOKE } else { &MEASURED };
    std::fs::create_dir_all(&args.work).map_err(|e| format!("work dir: {e}"))?;
    let plan = Plan::for_workload(&args.workload, args.seconds, args.smoke);
    let mut tr = Tracer::new(format!("{}-seed{}-trace{}", args.workload, args.seed, u8::from(args.trace)));
    let mut checks = Checks::default();
    let mut rng = Rng::new(args.seed);
    let t0 = Instant::now();

    // The first study round feeds the query phase and the report passes;
    // traced, it also records the study's per-layer metrics.
    let first = study::round(scales, &mut checks, &mut tr, args.trace)?;
    // The study's own peak, read before the serving phases add their inputs
    // to this process and later rounds reuse its fragmented heap.
    let study_rss = stats::peak_rss_mib(None).unwrap_or(f64::NAN);
    let (mut study_s, mut report_s) = (vec![first.study_s], vec![first.report_s]);
    let mut query = serve::QueryPhase::start(
        &args.daemon,
        &args.work,
        &first.study,
        &first.baked,
        scales.study_label,
        &mut rng,
        &mut tr,
        args.trace,
    )?;
    let mut live = live::LiveRunner::start(&args.daemon, &args.work, scales, &mut rng, plan.live_rounds, &mut tr, args.trace)?;
    for step in plan.steps() {
        match step {
            Step::Study => {
                let r = study::round(scales, &mut checks, &mut tr, false)?;
                study_s.push(r.study_s);
                report_s.push(r.report_s);
            }
            Step::Report => report_s.push(study::report_pass(&first, &mut checks, &mut tr)),
            Step::Query => query.slice(&plan.slice, &mut tr)?,
            Step::Live => live.round(&args.daemon, &mut checks, &mut tr)?,
        }
    }
    let qp = query.finish(&mut checks, &mut tr, args.trace)?;
    let lp = live.finish(&mut tr, args.trace)?;
    eprintln!(
        "# {} seed {}: {:.1}s, {} study rounds, {} swaps, {} checks",
        args.workload,
        args.seed,
        stats::secs(t0),
        study_s.len(),
        lp.swap_ms.len(),
        checks.attempted
    );

    let window = |f: fn(&(f64, f64, f64)) -> f64, w: &[(f64, f64, f64)]| median(&w.iter().map(f).collect::<Vec<_>>());
    let end_to_end = [
        median(&qp.boot_s) + median(&lp.boot_s),
        median(&study_s),
        median(&report_s),
        // The process doing the workload's work: the benchmark process
        // runs the study in-process, the live daemon runs the swaps.
        if args.workload == "paper-study" { study_rss } else { lp.peak_rss_mib },
        median(&lp.swap_ms),
    ];
    // The read path's throughput and latencies are per-layer figures: on a
    // shared virtual machine they move more between runs of one build than
    // any bound could allow (throughput 36k–77k requests/s over ten runs).
    let tails = [
        ("serve.query_rps", median(&qp.window_rps)),
        ("serve.open_loop_p50_us", window(|w| w.0, &qp.window_pct_us)),
        ("serve.open_loop_p90_us", window(|w| w.1, &qp.window_pct_us)),
        ("serve.open_loop_p99_us", window(|w| w.2, &qp.window_pct_us)),
        ("live.stream_p50_us", window(|w| w.0, &lp.swap_pct_us)),
        ("live.stream_p90_us", window(|w| w.1, &lp.swap_pct_us)),
        ("live.stream_p99_us", window(|w| w.2, &lp.swap_pct_us)),
    ];
    for (name, v) in tails {
        let unit = if name.ends_with("_rps") { "req/s" } else { "us" };
        eprintln!("# {name} = {v:.1} {unit}");
        if args.trace {
            tr.metric(name, v, unit);
        }
    }
    for ((name, unit), v) in END_TO_END.iter().zip(&end_to_end) {
        eprintln!("# {name} = {v:.4} {unit}");
        if args.trace {
            // The traced run's own end-to-end figures, for the overhead.
            tr.metric(format!("traced.{name}"), *v, "");
        }
    }
    let trace_path = args.work.join(format!("trace-{}-{}.json", args.workload, args.seed));
    tr.write(&trace_path).map_err(|e| format!("cannot write {}: {e}", trace_path.display()))?;

    if !checks.failed.is_empty() {
        return Err(format!("{} of {} checks failed:\n  {}", checks.failed.len(), checks.attempted, checks.failed.join("\n  ")));
    }
    let metrics: Vec<String> = if args.trace {
        tr.metrics()
            .iter()
            .filter(|(name, _, _)| !name.starts_with("traced."))
            .map(|(name, v, unit)| format!("\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}", json_num(*v)))
            .collect()
    } else {
        END_TO_END
            .iter()
            .zip(&end_to_end)
            .map(|((name, unit), v)| format!("\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}", json_num(*v)))
            .collect()
    };
    let attempted = checks.attempted + qp.requests + lp.operations;
    let failed = qp.failed + lp.failed;
    Ok(format!(
        "{{\"correct\":true,\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        metrics.join(",")
    ))
}
