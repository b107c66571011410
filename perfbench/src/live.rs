//! The live phase: `topple-experiments serve --live --workers 1` booted
//! from the first half of the window, the other half arriving one day at a
//! time as `tpld` deltas on `POST /v1/admin/ingest` while a low fixed-rate
//! query stream runs on a second connection. One adjacent pair of days
//! arrives out of order: the first of the pair must park, the second must
//! swap both days in at once. After the last swap the served id and a
//! fixed sample of bodies must equal the offline `snapshot write` /
//! `snapshot body` path, regenerated every run.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use topple_core::Study;
use topple_serve::{Delta, DeltaIdentity, QuerySnapshot, Snapshot};
use topple_sim::{World, WorldConfig};
use topple_vantage::DayShards;

use crate::daemon::{self, get_request, post_request, Conn, Daemon};
use crate::oracle::Json;
use crate::serve::{draw_mix, Req};
use crate::stats::{self, median};
use crate::trace::Tracer;
use crate::{Checks, Rng, Scales, WORLD_SEED};

/// Rate of the query stream that runs while swaps happen, requests per
/// second.
pub const STREAM_RATE: f64 = 1_000.0;
/// Shares of rank, movement and compare requests in the stream, no
/// artifacts. Assumed, like the query mix's.
const STREAM_SHARES: (f64, f64, f64) = (0.6, 0.3, 0.1);
/// Live boots per run; set-up time is their median.
pub const BOOTS: usize = 3;
/// How long a swap may take to become visible before the run fails.
const SWAP_TIMEOUT: Duration = Duration::from_secs(120);

/// Everything the live phase feeds the daemon, made before timing.
struct Inputs {
    config: WorldConfig,
    label: &'static str,
    base: PathBuf,
    base_artifacts: Vec<(String, String)>,
    /// Every day's shards, kept for the traced run's rebuild replica only.
    shards: Vec<DayShards>,
    base_days: usize,
    /// `(day, tpld bytes)` in posting order: the first completes set-up.
    deltas: Vec<(usize, Vec<u8>)>,
    oracle: PathBuf,
    oracle_id: String,
    /// Sample request paths and the bodies the offline path renders for
    /// them at the final generation.
    sample: Vec<(String, String)>,
    /// The query stream's requests.
    stream: Vec<Vec<u8>>,
}

fn inputs(bin: &Path, work: &Path, scales: &Scales, rng: &mut Rng, traced: bool) -> Result<Inputs, String> {
    let config = (scales.live)(WORLD_SEED);
    let n_days = config.days.len();
    let base_days = n_days / 2;
    let world = World::generate(config.clone()).map_err(|e| format!("live world: {e}"))?;
    let shards = topple_core::observe_day_shards(&world, n_days, 2);
    let base_study = Study::from_shards(world, shards[..base_days].to_vec()).map_err(|e| format!("base study: {e}"))?;
    let base_artifacts = vec![("table1".to_owned(), crate::render::table1(&base_study))];
    let base = work.join("live-base.tpls");
    topple_serve::write_study(&base_study, scales.live_label, &base_artifacts, &base)
        .map_err(|e| format!("base snapshot write: {e}"))?;
    drop(base_study);

    let identity = DeltaIdentity {
        seed: config.seed,
        n_sites: config.n_sites as u64,
        n_clients: config.n_clients as u64,
        scale: scales.live_label.to_owned(),
    };
    // The first delta completes set-up; one adjacent pair of the rest, drawn
    // by the workload seed, arrives out of order.
    let mut order: Vec<usize> = (base_days..n_days).collect();
    let pair = 1 + rng.below(order.len() - 2);
    order.swap(pair, pair + 1);
    let deltas = order
        .into_iter()
        .map(|d| {
            let delta = Delta::new(identity.clone(), shards[d].clone()).map_err(|e| format!("delta {d}: {e}"))?;
            Ok((d, delta.to_bytes()))
        })
        .collect::<Result<Vec<_>, String>>()?;

    // The offline oracle: a streaming `Study::run` over the whole window,
    // written with the base snapshot's artifacts.
    let oracle = work.join("live-oracle.tpls");
    let out = Command::new(bin)
        .args(["snapshot", "write"])
        .arg(&oracle)
        .args(["--scale", scales.live_label, "--seed", &config.seed.to_string(), "--artifacts-from"])
        .arg(&base)
        .output()
        .map_err(|e| format!("cannot run snapshot write: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let oracle_id = stdout
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix("snapshot="))
        .filter(|_| out.status.success())
        .ok_or_else(|| format!("snapshot write failed: {}", String::from_utf8_lossy(&out.stderr)))?
        .to_owned();

    let base_snap = Snapshot::read_from(&base).map_err(|e| format!("base snapshot: {e}"))?;
    let names = base_snap.index.table().names();
    // One delta parks, so the last swap is generation `deltas - 1`.
    let generation = deltas.len() as u64 - 1;
    let sample = [0usize, 1, 7, 42, 250, names.len() / 3, names.len() - 1]
        .iter()
        .flat_map(|&i| {
            let d = names[i.min(names.len() - 1)].as_str();
            [format!("/v1/rank/tranco/{d}"), format!("/v1/rank/crux/{d}"), format!("/v1/movement/{d}")]
        })
        .map(|path| {
            let body = oracle_body(bin, &oracle, generation, &path)?;
            Ok((path, body))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let stream = draw_mix(&base_snap, rng, 1_024, STREAM_SHARES, config.zipf_exponent)
        .iter()
        .map(|r: &Req| get_request(&r.path()))
        .collect();
    Ok(Inputs {
        config,
        label: scales.live_label,
        base,
        base_artifacts,
        shards: if traced { shards } else { Vec::new() },
        base_days,
        deltas,
        oracle,
        oracle_id,
        sample,
        stream,
    })
}

/// Polls `/v1/snapshot` until it reports `generation` (or more); returns
/// the body's generation and day count.
fn await_generation(conn: &mut Conn, generation: u64) -> Result<(u64, u64, String), String> {
    let t0 = Instant::now();
    loop {
        let (status, body) = conn.get("/v1/snapshot")?;
        if status != 200 {
            return Err(format!("/v1/snapshot got {status}"));
        }
        let j = Json::parse(&body).map_err(|e| format!("/v1/snapshot: {e}"))?;
        let g = j.get("generation").and_then(Json::as_u64).ok_or("no generation")?;
        if g >= generation {
            let days = j.get("n_days").and_then(Json::as_u64).ok_or("no n_days")?;
            let id = j.get("snapshot").and_then(Json::as_str).ok_or("no snapshot id")?.to_owned();
            return Ok((g, days, id));
        }
        if t0.elapsed() > SWAP_TIMEOUT {
            return Err(format!("generation {generation} never became visible"));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn post(conn: &mut Conn, bytes: &[u8]) -> Result<(u16, String), String> {
    conn.call(&post_request("/v1/admin/ingest", bytes))
}

pub struct LivePhase {
    pub boot_s: Vec<f64>,
    pub swap_ms: Vec<f64>,
    /// `(p50, p90, p99)` of the query stream's latency within each swap
    /// (from the delta's 202 to the swap being visible), µs.
    pub swap_pct_us: Vec<(f64, f64, f64)>,
    pub peak_rss_mib: f64,
    pub operations: u64,
    pub failed: u64,
}

/// Boots the live daemon and posts the first delta at `ready`; set-up ends
/// when that swap is visible.
fn boot(bin: &Path, inp: &Inputs, log: &Path) -> Result<(Daemon, Conn, f64), String> {
    let t0 = Instant::now();
    let (daemon, _) = Daemon::spawn(bin, &inp.base, &["--live"], log)?;
    let mut conn = daemon.connect()?;
    let (status, reply) = post(&mut conn, &inp.deltas[0].1)?;
    if status != 202 {
        return Err(format!("first delta got {status}: {reply}"));
    }
    await_generation(&mut conn, 1)?;
    Ok((daemon, conn, stats::secs(t0)))
}

/// The live phase's inputs and what its rounds measured so far.
pub struct LiveRunner {
    inp: Inputs,
    log: PathBuf,
    out: LivePhase,
    ingest_ms: Vec<f64>,
    cpu_per_swap: Vec<f64>,
    /// The query stream's send lateness over every round, µs.
    late_us: Vec<f64>,
    /// The last round's last `swap_ms` and served id.
    last: Option<(f64, String)>,
}

impl LiveRunner {
    /// Makes the inputs (before any timing) and boots the live daemon
    /// until, with the `rounds` to come, it has booted [`BOOTS`] times.
    pub fn start(
        bin: &Path,
        work: &Path,
        scales: &Scales,
        rng: &mut Rng,
        rounds: usize,
        tr: &mut Tracer,
        traced: bool,
    ) -> Result<LiveRunner, String> {
        let inp = tr.leaf("live.inputs", || inputs(bin, work, scales, rng, traced)).0?;
        let log = work.join("live-daemon.log");
        let mut out = LivePhase {
            boot_s: Vec::new(),
            swap_ms: Vec::new(),
            swap_pct_us: Vec::new(),
            peak_rss_mib: 0.0,
            operations: 0,
            failed: 0,
        };
        for _ in 0..BOOTS.saturating_sub(rounds) {
            let (daemon, _, s) = tr.leaf("live.boot", || boot(bin, &inp, &log)).0?;
            out.boot_s.push(s);
            out.peak_rss_mib = out.peak_rss_mib.max(daemon.usage().0);
            out.operations += 2;
        }
        Ok(LiveRunner {
            inp,
            log,
            out,
            ingest_ms: Vec::new(),
            cpu_per_swap: Vec::new(),
            late_us: Vec::new(),
            last: None,
        })
    }

    /// One round: a fresh daemon, then every delta after the first.
    pub fn round(&mut self, bin: &Path, checks: &mut Checks, tr: &mut Tracer) -> Result<(), String> {
        let (inp, log) = (&self.inp, &self.log);
        let (daemon, conn, s) = tr.leaf("live.boot", || boot(bin, inp, log)).0?;
        let round = tr.leaf("live.round", || ingest_round(&daemon, conn, inp, checks)).0?;
        let out = &mut self.out;
        out.boot_s.push(s);
        out.peak_rss_mib = out.peak_rss_mib.max(daemon.usage().0);
        out.swap_ms.extend(&round.swap_ms);
        out.swap_pct_us.extend(round.per_swap_percentiles());
        out.operations += 2 + round.operations + round.stream.attempted;
        out.failed += round.stream.failed;
        self.ingest_ms.extend(&round.ingest_ms);
        self.late_us.extend(&round.stream.late_us);
        self.cpu_per_swap.push(round.cpu_s / round.swap_ms.len() as f64);
        self.last = Some((round.last_swap_ms, round.served_id));
        Ok(())
    }

    /// The per-layer figures when traced; removes the snapshot files.
    pub fn finish(mut self, tr: &mut Tracer, traced: bool) -> Result<LivePhase, String> {
        let late = &mut self.late_us;
        late.sort_by(f64::total_cmp);
        eprintln!(
            "# live stream: {} requests at {STREAM_RATE}/s, send lateness p50 {:.1} µs p99 {:.1} µs max {:.1} µs",
            late.len(),
            stats::nearest_rank(late, 0.5),
            stats::nearest_rank(late, 0.99),
            late.last().copied().unwrap_or(0.0)
        );
        let inp = &self.inp;
        if traced {
            tr.metric("live.ingest_ms", median(&self.ingest_ms), "ms");
            let kib: Vec<f64> = inp.deltas.iter().map(|(_, b)| b.len() as f64 / 1024.0).collect();
            tr.metric("live.delta_kib", median(&kib), "KiB");
            tr.metric("live.daemon_cpu_s_per_swap", median(&self.cpu_per_swap), "s");
            let (last_swap_ms, served_id) = self.last.as_ref().ok_or("no ingest round ran")?;
            let rebuild_ms = rebuild_replica(inp, served_id, tr)?;
            tr.metric("live.rebuild_ms", rebuild_ms, "ms");
            tr.metric("live.visibility_lag_ms", last_swap_ms - rebuild_ms, "ms");
        }
        for p in [&inp.base, &inp.oracle] {
            let _ = std::fs::remove_file(p);
        }
        Ok(self.out)
    }
}

struct Round {
    swap_ms: Vec<f64>,
    /// Each swap's `(202, visible)` times, seconds after the round's `t0`.
    swaps: Vec<(f64, f64)>,
    ingest_ms: Vec<f64>,
    last_swap_ms: f64,
    served_id: String,
    stream: daemon::Load,
    operations: u64,
    cpu_s: f64,
}

impl Round {
    /// Percentiles of the stream requests scheduled inside each swap.
    fn per_swap_percentiles(&self) -> Vec<(f64, f64, f64)> {
        let st = &self.stream;
        self.swaps
            .iter()
            .filter_map(|&(from, to)| {
                let mut v: Vec<f64> = st
                    .due_s
                    .iter()
                    .zip(&st.latencies_us)
                    .filter(|(&due, _)| due >= from && due < to)
                    .map(|(_, &l)| l)
                    .collect();
                if v.is_empty() {
                    return None;
                }
                v.sort_by(f64::total_cmp);
                Some((stats::nearest_rank(&v, 0.5), stats::nearest_rank(&v, 0.9), stats::nearest_rank(&v, 0.99)))
            })
            .collect()
    }
}

/// Posts every delta after the first, each once the previous swap is
/// visible, with the query stream running; then checks the end state
/// against the offline oracle.
fn ingest_round(daemon: &Daemon, mut conn: Conn, inp: &Inputs, checks: &mut Checks) -> Result<Round, String> {
    let stop = AtomicBool::new(false);
    let stream_conn = daemon.connect()?;
    let cpu0 = daemon.usage().1;
    let t0 = Instant::now();
    let mut round = std::thread::scope(|s| {
        let stream = s.spawn(|| daemon::paced_stream(stream_conn, inp.stream.clone(), STREAM_RATE, &stop, t0));
        let result = post_all(&mut conn, inp, checks, t0);
        stop.store(true, Ordering::Relaxed);
        let load = stream.join().map_err(|_| "query stream panicked".to_owned());
        let mut round = result?;
        round.stream = load?;
        Ok::<Round, String>(round)
    })?;
    round.cpu_s = daemon.usage().1 - cpu0;
    let failed = round.stream.failed;
    checks.check(
        "no query fails during swaps",
        if failed == 0 { Ok(()) } else { Err(format!("{failed} of {} failed", round.stream.attempted)) },
    );

    // End state against the offline path.
    let served_base = round.served_id.rsplit_once("-g").map_or(round.served_id.as_str(), |(b, _)| b);
    checks.check(
        "live id equals the offline snapshot id",
        if served_base == inp.oracle_id { Ok(()) } else { Err(format!("served {served_base}, offline {}", inp.oracle_id)) },
    );
    for (path, want) in &inp.sample {
        let (status, body) = conn.get(path)?;
        round.operations += 1;
        checks.check(
            &format!("live body {path} equals the offline body"),
            if status == 200 && body == *want { Ok(()) } else { Err(format!("status {status}, served `{body}`, offline `{want}`")) },
        );
    }
    Ok(round)
}

fn post_all(conn: &mut Conn, inp: &Inputs, checks: &mut Checks, t0: Instant) -> Result<Round, String> {
    let mut round = Round {
        swap_ms: Vec::new(),
        swaps: Vec::new(),
        ingest_ms: Vec::new(),
        last_swap_ms: 0.0,
        served_id: String::new(),
        stream: daemon::Load::default(),
        operations: 0,
        cpu_s: 0.0,
    };
    let (mut generation, mut prefix) = (1u64, inp.base_days as u64 + 1);
    let mut present: Vec<usize> = (0..=inp.base_days).collect();
    for (day, bytes) in &inp.deltas[1..] {
        let t = Instant::now();
        let (status, reply) = post(conn, bytes)?;
        round.ingest_ms.push(stats::secs(t) * 1e3);
        round.operations += 1;
        checks.check(&format!("delta for day {day} accepted"), if status == 202 { Ok(()) } else { Err(format!("{status}: {reply}")) });
        let t202 = Instant::now();
        present.push(*day);
        present.sort_unstable();
        let new_prefix = present.iter().enumerate().take_while(|&(i, &d)| i == d).count() as u64;
        if new_prefix == prefix {
            // Parked: a gap below this day. The next delta fills it, and
            // the generation check after it proves this one swapped nothing.
            continue;
        }
        let (g, days, id) = await_generation(conn, generation + 1)?;
        let ms = stats::secs(t202) * 1e3;
        round.swaps.push((t202.duration_since(t0).as_secs_f64(), stats::secs(t0)));
        round.swap_ms.push(ms);
        round.last_swap_ms = ms;
        round.operations += 1;
        checks.check(
            &format!("day {day} swaps in generation {} with {new_prefix} days", generation + 1),
            if g == generation + 1 && days == new_prefix { Ok(()) } else { Err(format!("generation {g} with {days} days")) },
        );
        generation += 1;
        prefix = new_prefix;
        round.served_id = id;
    }
    Ok(round)
}

/// The body the offline path renders for `path` at `generation`.
fn oracle_body(bin: &Path, oracle: &Path, generation: u64, path: &str) -> Result<String, String> {
    let out = Command::new(bin)
        .args(["snapshot", "body"])
        .arg(oracle)
        .args(["--generation", &generation.to_string(), path])
        .output()
        .map_err(|e| format!("cannot run snapshot body: {e}"))?;
    if !out.status.success() {
        return Err(format!("snapshot body {path} failed: {}", String::from_utf8_lossy(&out.stderr)));
    }
    Ok(String::from_utf8_lossy(&out.stdout).into_owned())
}

/// An in-process replica of the last swap, one child span per stage; its
/// snapshot id must equal the daemon's, ignoring the `-gN` suffix.
fn rebuild_replica(inp: &Inputs, served_id: &str, tr: &mut Tracer) -> Result<f64, String> {
    let n_days = inp.config.days.len();
    let lineage: Vec<String> = Vec::new();
    let (id, m) = tr.span("live.rebuild", |tr| {
        let world = tr.leaf("live.rebuild.world_generate", || World::generate(inp.config.clone())).0.map_err(|e| e.to_string())?;
        let shards = inp.shards[..n_days].to_vec();
        let study = tr.leaf("live.rebuild.from_shards", || Study::from_shards(world, shards)).0.map_err(|e| e.to_string())?;
        let bytes = tr.leaf("live.rebuild.encode_study", || topple_serve::encode_study(&study, inp.label, &inp.base_artifacts)).0;
        let snap = tr.leaf("live.rebuild.decode", || Snapshot::from_bytes(&bytes)).0.map_err(|e| e.to_string())?;
        let qs = tr.leaf("live.rebuild.query_snapshot", || QuerySnapshot::with_generation(snap, 1, &lineage)).0;
        Ok::<String, String>(qs.snapshot().id())
    });
    let id = id?;
    let served_base = served_id.rsplit_once("-g").map_or(served_id, |(b, _)| b);
    if id != served_base {
        return Err(format!("rebuild replica id {id} differs from the served {served_base}"));
    }
    Ok(m.ms)
}
