//! The query phase: the study's snapshot served by `topple-experiments
//! serve --workers 1`, a closed-loop pipelined phase that measures
//! capacity, an open-loop phase at a fixed rate, and a field-by-field check
//! of every distinct request against the benchmark's own computation from
//! the snapshot file.

use std::collections::{BTreeSet, HashMap};
use std::path::{Path, PathBuf};
use std::time::Instant;

use topple_core::{ListColumns, Study};
use topple_lists::ListSource;
use topple_serve::{QuerySnapshot, Snapshot};

use crate::daemon::{self, get_request, Conn, Daemon};
use crate::oracle::{self, num, opt_num, Json, PositionMap};
use crate::stats::{self, median};
use crate::trace::Tracer;
use crate::{Checks, Rng};

/// Requests kept in flight by the closed-loop phase.
pub const PIPELINE_DEPTH: usize = 64;
/// Fixed rate of the open-loop phase, requests per second: well under the
/// single-shard capacity, so the tail measures the daemon, not a queue.
pub const OPEN_LOOP_RATE: f64 = 2_000.0;
/// Closed-loop throughput is the median over windows of this length.
const WINDOW_S: f64 = 0.25;
/// Open-loop percentiles are taken per window of this length, and the
/// median over windows reported, so one host stall does not move the run.
pub const LATENCY_WINDOW_S: f64 = 1.0;
/// Distinct-ish requests drawn per run; the load cycles through them.
const POOL: usize = 4_096;
/// Shares of rank, movement and compare requests in the query mix; the
/// rest are artifacts. Assumed: the repository has no query log to take
/// them from.
pub const QUERY_SHARES: (f64, f64, f64) = (0.6, 0.25, 0.1);
/// Daemon boots per run; set-up time is their median.
pub const BOOTS: usize = 3;

/// The URL name of each list, the benchmark's own table.
pub fn url_name(source: ListSource) -> &'static str {
    match source {
        ListSource::Alexa => "alexa",
        ListSource::Umbrella => "umbrella",
        ListSource::Majestic => "majestic",
        ListSource::Secrank => "secrank",
        ListSource::Tranco => "tranco",
        ListSource::Trexa => "trexa",
        ListSource::Crux => "crux",
    }
}

/// One request of the mix, as the benchmark understands it.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Req {
    Rank(ListSource, String),
    Movement(String),
    Compare(ListSource, ListSource, u64),
    Artifact(String),
}

impl Req {
    pub fn path(&self) -> String {
        match self {
            Req::Rank(s, d) => format!("/v1/rank/{}/{d}", url_name(*s)),
            Req::Movement(d) => format!("/v1/movement/{d}"),
            Req::Compare(a, b, k) => format!("/v1/compare?a={}&b={}&k={k}", url_name(*a), url_name(*b)),
            Req::Artifact(n) => format!("/v1/artifact/{n}"),
        }
    }
}

/// Zipf(s) sampler over `0..n`.
pub struct Zipf(Vec<f64>);

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        Zipf((1..=n).map(|i| {
            acc += 1.0 / (i as f64).powf(s);
            acc
        }).collect())
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let total = self.0.last().copied().unwrap_or(0.0);
        let u = rng.unit() * total;
        self.0.partition_point(|&c| c < u).min(self.0.len() - 1)
    }
}

/// Draws `n` requests: `shares` = (rank, movement, compare) with the rest
/// artifacts; domains Zipf-distributed, with the exponent of the world's
/// own site popularity (`WorldConfig::zipf_exponent`), over the snapshot's
/// domain table.
pub fn draw_mix(snap: &Snapshot, rng: &mut Rng, n: usize, shares: (f64, f64, f64), zipf_s: f64) -> Vec<Req> {
    let table = snap.index.table();
    let zipf = Zipf::new(table.len(), zipf_s);
    let names = table.names();
    let pick_list = |rng: &mut Rng| ListSource::ALL[rng.below(ListSource::ALL.len())];
    (0..n)
        .map(|_| {
            let u = rng.unit();
            if u < shares.0 {
                let list = pick_list(rng);
                Req::Rank(list, names[zipf.sample(rng)].as_str().to_owned())
            } else if u < shares.0 + shares.1 {
                Req::Movement(names[zipf.sample(rng)].as_str().to_owned())
            } else if u < shares.0 + shares.1 + shares.2 {
                let (a, b) = (pick_list(rng), pick_list(rng));
                let k = snap.magnitudes[rng.below(snap.magnitudes.len())].1;
                Req::Compare(a, b, k)
            } else {
                Req::Artifact(snap.artifacts[rng.below(snap.artifacts.len())].0.clone())
            }
        })
        .collect()
}

/// The benchmark's own answer for every request, computed from the
/// decoded snapshot's columns with its own maps and sets.
pub struct Expect<'a> {
    snap: &'a Snapshot,
    ids: HashMap<&'a str, u32>,
    monthly: Vec<(ListSource, PositionMap)>,
    alexa_daily: Vec<PositionMap>,
    umbrella_daily: Vec<PositionMap>,
}

fn positions(cols: &ListColumns) -> PositionMap {
    PositionMap::new(cols.ids.iter().map(|d| d.raw()))
}

impl<'a> Expect<'a> {
    pub fn new(snap: &'a Snapshot) -> Self {
        let ids = snap.index.table().names().iter().enumerate().map(|(i, n)| (n.as_str(), i as u32)).collect();
        Expect {
            snap,
            ids,
            monthly: ListSource::ALL.iter().map(|&s| (s, positions(snap.index.monthly(s)))).collect(),
            alexa_daily: snap.index.alexa_daily().iter().map(positions).collect(),
            umbrella_daily: snap.index.umbrella_daily().iter().map(positions).collect(),
        }
    }

    /// Monthly rank (ordered lists) or bucket (CrUX) of a domain id.
    fn monthly_value(&self, source: ListSource, id: Option<u32>) -> Option<u64> {
        let (_, map) = self.monthly.iter().find(|(s, _)| *s == source)?;
        let pos = map.position(id?)?;
        let cols = self.snap.index.monthly(source);
        if cols.ordered {
            Some(u64::from(pos) + 1)
        } else {
            cols.values.get(pos as usize).map(|&b| u64::from(b))
        }
    }

    /// The top-`k` cut of a monthly list, as raw ids.
    fn top(&self, source: ListSource, k: u64) -> Vec<u32> {
        let cols = self.snap.index.monthly(source);
        if cols.ordered {
            cols.ids.iter().take(k as usize).map(|d| d.raw()).collect()
        } else {
            cols.ids.iter().zip(&cols.values).filter(|(_, &b)| u64::from(b) <= k).map(|(d, _)| d.raw()).collect()
        }
    }

    /// Checks a served body against the benchmark's own computation.
    pub fn verify(&self, req: &Req, served_id: &str, body: &str) -> Result<(), String> {
        let j = Json::parse(body).map_err(|e| format!("unparsable body: {e}"))?;
        oracle::expect_field(&j, "snapshot", &Json::Str(served_id.to_owned()))?;
        match req {
            Req::Rank(source, domain) => {
                oracle::expect_field(&j, "list", &Json::Str(url_name(*source).to_owned()))?;
                oracle::expect_field(&j, "domain", &Json::Str(domain.clone()))?;
                let value = self.monthly_value(*source, self.ids.get(domain.as_str()).copied());
                oracle::expect_field(&j, "present", &Json::Bool(value.is_some()))?;
                if let Some(v) = value {
                    let key = if self.snap.index.monthly(*source).ordered { "rank" } else { "bucket" };
                    oracle::expect_field(&j, key, &num(v))?;
                }
                Ok(())
            }
            Req::Movement(domain) => {
                let id = self.ids.get(domain.as_str()).copied();
                oracle::expect_field(&j, "present", &Json::Bool(id.is_some()))?;
                let monthly = j.get("monthly").ok_or("field `monthly` missing")?;
                for &source in &ListSource::ALL {
                    oracle::expect_field(monthly, url_name(source), &opt_num(self.monthly_value(source, id)))?;
                }
                for (key, maps) in [("alexa_daily", &self.alexa_daily), ("umbrella_daily", &self.umbrella_daily)] {
                    let want = Json::Arr(
                        maps.iter().map(|m| opt_num(id.and_then(|i| m.position(i)).map(|p| u64::from(p) + 1))).collect(),
                    );
                    oracle::expect_field(&j, key, &want)?;
                }
                Ok(())
            }
            Req::Compare(a, b, k) => {
                let (ta, tb) = (self.top(*a, *k), self.top(*b, *k));
                oracle::expect_field(&j, "len_a", &num(ta.len() as u64))?;
                oracle::expect_field(&j, "len_b", &num(tb.len() as u64))?;
                oracle::expect_field(&j, "intersection", &num(oracle::intersection(&ta, &tb) as u64))?;
                let served = j.get("jaccard").and_then(Json::as_f64).ok_or("field `jaccard` missing")?;
                let mine = oracle::jaccard(&ta, &tb);
                if served == mine {
                    Ok(())
                } else {
                    Err(format!("field `jaccard`: served {served}, expected {mine}"))
                }
            }
            Req::Artifact(name) => {
                let text = self.snap.artifacts.iter().find(|(n, _)| n == name).map(|(_, t)| t.clone());
                oracle::expect_field(&j, "name", &Json::Str(name.clone()))?;
                oracle::expect_field(&j, "body", &Json::Str(text.ok_or("no such artifact in the file")?))
            }
        }
    }
}

/// How long one slice of query load runs.
pub struct Lengths {
    pub pipelined_s: f64,
    pub open_s: f64,
}

/// What the query phase measured over all its slices.
pub struct ServePhase {
    pub boot_s: Vec<f64>,
    pub window_rps: Vec<f64>,
    /// Daemon CPU per request over the pipelined load, µs.
    pub cpu_us_per_req: f64,
    /// `(p50, p90, p99)` of each open-loop window, µs.
    pub window_pct_us: Vec<(f64, f64, f64)>,
    pub requests: u64,
    pub failed: u64,
}

/// The query daemon, kept up for the whole run so its load can come in
/// slices spread over the run.
pub struct QueryPhase {
    path: PathBuf,
    snap: Snapshot,
    mix: Vec<Req>,
    requests: Vec<Vec<u8>>,
    daemon: Daemon,
    conn: Conn,
    out: ServePhase,
    pipelined: u64,
    pipelined_cpu_s: f64,
    late_us: Vec<f64>,
}

impl QueryPhase {
    /// Writes the study's snapshot, draws the mix, and boots the daemon
    /// [`BOOTS`] times; the last boot serves the load.
    #[allow(clippy::too_many_arguments)]
    pub fn start(
        bin: &Path,
        work: &Path,
        study: &Study,
        baked: &[(String, String)],
        scale: &str,
        rng: &mut Rng,
        tr: &mut Tracer,
        traced: bool,
    ) -> Result<QueryPhase, String> {
        let path = work.join("query.tpls");
        let (written, _) = tr.leaf("serve.write_study", || topple_serve::write_study(study, scale, baked, &path));
        written.map_err(|e| format!("snapshot write failed: {e}"))?;
        if traced {
            snapshot_layers(study, scale, baked, &path, tr)?;
        }
        let snap = Snapshot::read_from(&path).map_err(|e| format!("cannot read back the snapshot: {e}"))?;
        let mix = draw_mix(&snap, rng, POOL, QUERY_SHARES, study.world.config.zipf_exponent);
        let requests: Vec<Vec<u8>> = mix.iter().map(|r| get_request(&r.path())).collect();

        let log = work.join("query-daemon.log");
        let mut boot_s = Vec::new();
        let mut daemon: Option<Daemon> = None;
        for _ in 0..BOOTS {
            drop(daemon.take());
            let (d, ready) = tr.leaf("serve.boot", || Daemon::spawn(bin, &path, &[], &log)).0?;
            boot_s.push(ready);
            daemon = Some(d);
        }
        let daemon = daemon.ok_or("no daemon booted")?;
        let mut conn = daemon.connect()?;
        let warm = daemon::pipelined(&mut conn, &requests, PIPELINE_DEPTH, 0.2, WINDOW_S)?;
        Ok(QueryPhase {
            path,
            snap,
            mix,
            requests,
            daemon,
            conn,
            out: ServePhase {
                boot_s,
                window_rps: Vec::new(),
                cpu_us_per_req: 0.0,
                window_pct_us: Vec::new(),
                requests: warm.attempted,
                failed: warm.failed,
            },
            pipelined: 0,
            pipelined_cpu_s: 0.0,
            late_us: Vec::new(),
        })
    }

    /// One slice of load: pipelined, then open loop.
    pub fn slice(&mut self, lengths: &Lengths, tr: &mut Tracer) -> Result<(), String> {
        let cpu0 = self.daemon.usage().1;
        let (closed, _) = tr.leaf("load.pipelined", || {
            daemon::pipelined(&mut self.conn, &self.requests, PIPELINE_DEPTH, lengths.pipelined_s, WINDOW_S)
        });
        let closed = closed?;
        self.pipelined_cpu_s += self.daemon.usage().1 - cpu0;
        self.pipelined += closed.attempted;
        let (open, _) = tr.leaf("load.open_loop", || {
            daemon::open_loop(&mut self.conn, &self.requests, OPEN_LOOP_RATE, lengths.open_s)
        });
        let open = open?;
        self.out.requests += closed.attempted + open.attempted;
        self.out.failed += closed.failed + open.failed;
        self.out.window_rps.extend(closed.window_rps);
        self.late_us.extend(open.late_us);
        // Whole windows only; a slice shorter than one window is one window.
        let windows = ((lengths.open_s / LATENCY_WINDOW_S) as usize).max(1);
        let per_window = (open.latencies_us.len() / windows).max(1);
        self.out.window_pct_us.extend(
            open.latencies_us
                .chunks(per_window)
                .filter(|c| c.len() == per_window)
                .map(|c| {
                    let mut c = c.to_vec();
                    c.sort_by(f64::total_cmp);
                    (stats::nearest_rank(&c, 0.5), stats::nearest_rank(&c, 0.9), stats::nearest_rank(&c, 0.99))
                }),
        );
        Ok(())
    }

    /// Checks every timed response, the per-layer figures when traced, and
    /// every distinct request of the mix field by field; stops the daemon.
    pub fn finish(mut self, checks: &mut Checks, tr: &mut Tracer, traced: bool) -> Result<ServePhase, String> {
        let failed = self.out.failed;
        checks.check(
            "every timed response is a complete 200",
            if failed == 0 { Ok(()) } else { Err(format!("{failed} non-200 responses")) },
        );
        let mut late = std::mem::take(&mut self.late_us);
        late.sort_by(f64::total_cmp);
        eprintln!(
            "# open loop: {} requests at {OPEN_LOOP_RATE}/s, send lateness p50 {:.1} µs p99 {:.1} µs max {:.1} µs",
            late.len(),
            stats::nearest_rank(&late, 0.5),
            stats::nearest_rank(&late, 0.99),
            late.last().copied().unwrap_or(0.0)
        );
        self.out.cpu_us_per_req = self.pipelined_cpu_s * 1e6 / self.pipelined.max(1) as f64;
        if traced {
            tr.metric("serve.cpu_us_per_req", self.out.cpu_us_per_req, "us");
            self.out.requests += serve_layers(&mut self.conn, &self.path, &self.mix, &self.requests, tr)?;
        }

        let expect = Expect::new(&self.snap);
        let distinct: BTreeSet<&Req> = self.mix.iter().collect();
        let mut verify = self.daemon.connect()?;
        let mut wrong = Vec::new();
        for req in &distinct {
            let (status, body) = verify.get(&req.path())?;
            self.out.requests += 1;
            let verdict = if status == 200 {
                expect.verify(req, &self.daemon.snapshot_id, &body)
            } else {
                Err(format!("status {status}"))
            };
            if let Err(e) = verdict {
                wrong.push(format!("{}: {e}", req.path()));
            }
        }
        checks.check(
            &format!("{} distinct served bodies match the snapshot", distinct.len()),
            match wrong.first() {
                None => Ok(()),
                Some(first) => Err(format!("{} wrong, first {first}", wrong.len())),
            },
        );
        drop(self.daemon);
        let _ = std::fs::remove_file(&self.path);
        Ok(self.out)
    }
}

/// Snapshot encode, size, decode, hot-cache build and mmap load, each
/// timed around its public call.
fn snapshot_layers(study: &Study, scale: &str, baked: &[(String, String)], path: &Path, tr: &mut Tracer) -> Result<(), String> {
    let (bytes, m) = tr.leaf("serve.encode", || topple_serve::encode_study(study, scale, baked));
    tr.metric("serve.encode_ms", m.ms, "ms");
    tr.metric("serve.snapshot_kib", bytes.len() as f64 / 1024.0, "KiB");
    let (snap, m) = tr.leaf("serve.decode", || Snapshot::from_bytes(&bytes));
    tr.metric("serve.decode_ms", m.ms, "ms");
    let snap = snap.map_err(|e| format!("encoded snapshot does not decode: {e}"))?;
    let (_, m) = tr.leaf("serve.hot_cache", || QuerySnapshot::new(snap));
    tr.metric("serve.hot_cache_ms", m.ms, "ms");
    let (loaded, m) = tr.leaf("serve.load", || QuerySnapshot::load(path));
    tr.metric("serve.load_ms", m.ms, "ms");
    loaded.map_err(|e| format!("snapshot does not load: {e}"))?;
    Ok(())
}

/// Kinds of in-process query the per-layer metrics split by.
const KINDS: [&str; 6] = ["rank_hot", "rank_cold", "movement_hot", "movement_cold", "compare", "artifact"];

/// In-process query cost by kind, the daemon's own counters, and the HTTP
/// share of a sequential round trip. Returns the requests it sent.
fn serve_layers(conn: &mut Conn, path: &Path, mix: &[Req], requests: &[Vec<u8>], tr: &mut Tracer) -> Result<u64, String> {
    let qs = QuerySnapshot::load(path).map_err(|e| format!("snapshot does not load: {e}"))?;
    let mut us: [Vec<f64>; 6] = Default::default();
    let mut allocs: [Vec<f64>; 6] = Default::default();
    let mut all_us = Vec::new();
    const REPEAT: usize = 8;
    for req in mix {
        let (kind, (_, m)) = match req {
            Req::Rank(s, d) => match qs.hot_rank(*s, d) {
                Some(_) => (0, tr.leaf("serve.query", || (0..REPEAT).map(|_| qs.hot_rank(*s, d).map_or(0, <[u8]>::len)).sum::<usize>())),
                None => (1, tr.leaf("serve.query", || (0..REPEAT).map(|_| qs.rank(url_name(*s), d).body.len()).sum())),
            },
            Req::Movement(d) => match qs.hot_movement(d) {
                Some(_) => (2, tr.leaf("serve.query", || (0..REPEAT).map(|_| qs.hot_movement(d).map_or(0, <[u8]>::len)).sum())),
                None => (3, tr.leaf("serve.query", || (0..REPEAT).map(|_| qs.movement(d).body.len()).sum())),
            },
            Req::Compare(a, b, k) => (4, tr.leaf("serve.query", || {
                (0..REPEAT).map(|_| qs.compare(url_name(*a), url_name(*b), &k.to_string()).body.len()).sum()
            })),
            Req::Artifact(n) => (5, tr.leaf("serve.query", || (0..REPEAT).map(|_| qs.artifact(n).body.len()).sum())),
        };
        let per = m.ms * 1e3 / REPEAT as f64;
        us[kind].push(per);
        allocs[kind].push(m.thread_allocs as f64 / REPEAT as f64);
        all_us.push(per);
    }
    for (i, kind) in KINDS.iter().enumerate() {
        tr.metric(format!("serve.query_us.{kind}"), median(&us[i]), "us");
        tr.metric(format!("serve.query_allocs.{kind}"), median(&allocs[i]), "count");
    }

    // One sequential round trip at a time, minus the in-process query time.
    let mut rtt = Vec::new();
    for r in requests.iter().take(2_000) {
        let t = Instant::now();
        let (status, _) = conn.call(r)?;
        rtt.push(stats::secs(t) * 1e6);
        if status != 200 {
            return Err(format!("sequential request got {status}"));
        }
    }
    tr.metric("serve.http_us", median(&rtt) - median(&all_us[..rtt.len().min(all_us.len())]), "us");

    let (status, body) = conn.get("/v1/metrics")?;
    if status != 200 {
        return Err(format!("/v1/metrics got {status}"));
    }
    let j = Json::parse(&body).map_err(|e| format!("/v1/metrics: {e}"))?;
    let counts = |v: Option<&Json>| -> Vec<f64> {
        match v {
            Some(Json::Arr(items)) => items.iter().filter_map(Json::as_f64).collect(),
            _ => Vec::new(),
        }
    };
    // Bucket upper bounds 1, 2, 4, …, 64, then an open bucket counted at 128.
    let flush = counts(j.get("event_loop").and_then(|e| e.get("pipelined_per_flush")));
    let (n, sum) = flush.iter().enumerate().fold((0.0, 0.0), |(n, s), (i, c)| (n + c, s + c * f64::from(1u32 << i)));
    tr.metric("serve.responses_per_flush", sum / n, "count");
    let hot = j.get("hot_cache");
    let field = |o: Option<&Json>, k: &str| o.and_then(|o| o.get(k)).and_then(Json::as_f64).unwrap_or(f64::NAN);
    let (hits, misses) = (field(hot, "hits"), field(hot, "misses"));
    tr.metric("serve.hot_hit_ratio", hits / (hits + misses), "ratio");
    tr.metric("serve.compare_cache_hits", field(Some(&j), "compare_cache_hits"), "count");
    Ok(rtt.len() as u64 + 1)
}
