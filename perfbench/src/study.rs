//! The study phase: `Study::run`, every paper artifact through the public
//! `topple_core` analyses, the checks on both, and (traced) the per-layer
//! replicas of the pipeline's stages.

use std::collections::HashSet;

use topple_core::{listeval, CoreError, Study};
use topple_lists::{
    alexa, crux, majestic, secrank, tranco, trexa, umbrella, DomainTable, ListSource,
    NormalizedList, Normalizer, RankedList,
};
use topple_sim::{EventSink, TrafficScratch, World, WorldConfig};
use topple_vantage::{
    CdnVantage, CfMetric, ChromeVantage, CrawlerVantage, DayScratch, DayShards, DnsVantage,
    PanelVantage,
};

use crate::oracle;
use crate::render;
use crate::stats::{self, median};
use crate::trace::Tracer;
use crate::{Checks, Scales, WORLD_SEED};

/// The 11 paper artifacts, in the order the report renders them.
const ARTIFACTS: [&str; 11] = [
    "table1", "table2", "table3", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
];

/// Monthly CF top-k (k = a tenth of the sites) must recall more than this
/// share of the ground-truth CF-served top-k, for every final metric.
const MIN_TRUTH_RECALL: f64 = 0.5;

/// The world the study phase measures: fixed scale and seed, two workers.
pub fn study_config(scales: &Scales) -> WorldConfig {
    WorldConfig {
        workers: Some(2),
        ..(scales.study)(WORLD_SEED)
    }
}

/// One study round: the study, its baked artifacts, and its timings.
pub struct StudyRound {
    pub study: Study,
    /// Every artifact's text, in [`ARTIFACTS`] order (`None` if it failed).
    pub texts: Vec<Option<String>>,
    /// The rendered `table1` and `fig1`, baked into the served snapshot.
    pub baked: Vec<(String, String)>,
    pub study_s: f64,
    pub report_s: f64,
}

/// One round of study plus report, checked. Traced, it also records the
/// per-layer metrics of every stage.
pub fn round(scales: &Scales, checks: &mut Checks, tr: &mut Tracer, traced: bool) -> Result<StudyRound, String> {
    let config = study_config(scales);
    let (study, m) = tr.leaf("core.study_run", || Study::run(config));
    let study = study.map_err(|e| format!("Study::run failed: {e}"))?;
    let study_s = m.ms / 1e3;
    let cpu0 = stats::cpu_s(None).unwrap_or(f64::NAN);
    let (rendered, m) = tr.span("core.report", |tr| render_all(&study, tr, traced));
    if traced {
        let cpu = stats::cpu_s(None).unwrap_or(f64::NAN) - cpu0;
        tr.metric("core.report_cpu_s", cpu, "s");
        tr.metric("core.report_allocs_process", m.process_allocs as f64, "count");
    }
    // The checks' own Figure 2 evaluation, outside the timed report.
    let fig2 = listeval::figure2(&study, heat_k(&study));
    check_study(&study, &rendered, &fig2, checks);
    let texts: Vec<Option<String>> = rendered.into_iter().map(|(_, text)| text.ok()).collect();
    let baked = ARTIFACTS
        .iter()
        .zip(&texts)
        .filter(|(name, _)| matches!(**name, "table1" | "fig1"))
        .filter_map(|(name, text)| Some(((*name).to_owned(), text.clone()?)))
        .collect();
    if traced {
        layers(&study, study_s, tr)?;
    }
    Ok(StudyRound {
        study,
        texts,
        baked,
        study_s,
        report_s: m.ms / 1e3,
    })
}

/// The report once more over a round's study, kept from the round: its
/// wall time in seconds. Every artifact must come out as the round's did.
pub fn report_pass(round: &StudyRound, checks: &mut Checks, tr: &mut Tracer) -> f64 {
    let (rendered, m) = tr.span("core.report", |tr| render_all(&round.study, tr, false));
    let differ: Vec<&str> = rendered
        .iter()
        .zip(&round.texts)
        .filter(|((_, now), then)| now.as_ref().ok() != then.as_ref())
        .map(|((name, _), _)| *name)
        .collect();
    checks.check(
        "report pass repeats the round's artifacts",
        if differ.is_empty() { Ok(()) } else { Err(format!("{} differ", differ.join(", "))) },
    );
    m.ms / 1e3
}

/// The scaled "100K" magnitude Figure 2 is computed at, as the program's
/// report does.
fn heat_k(study: &Study) -> usize {
    let mags = study.magnitudes();
    mags[mags.len().saturating_sub(2)].1
}

type Rendered = Vec<(&'static str, Result<String, CoreError>)>;

/// One artifact, rendered by the program's own report code (Figure 5 for
/// Alexa and CrUX, as `topple-experiments` prints it).
fn render(study: &Study, name: &str) -> Result<String, CoreError> {
    Ok(match name {
        "table1" => render::table1(study),
        "table2" => render::table2(study)?,
        "table3" => render::table3(study)?,
        "fig1" => render::fig1(study),
        "fig2" => render::fig2(study)?,
        "fig3" => render::fig3(study),
        "fig4" => render::fig4(study),
        "fig5" => render::fig5(study, ListSource::Alexa) + &render::fig5(study, ListSource::Crux),
        "fig6" => render::fig6(study),
        "fig7" => render::fig7(study),
        "fig8" => render::fig8(study)?,
        other => unreachable!("`{other}` is not one of ARTIFACTS"),
    })
}

/// Computes and renders every artifact, one span each.
fn render_all(study: &Study, tr: &mut Tracer, traced: bool) -> Rendered {
    let mut out = Vec::with_capacity(ARTIFACTS.len());
    for name in ARTIFACTS {
        let (text, m) = tr.leaf(&format!("core.artifact.{name}"), || render(study, name));
        if traced {
            tr.metric(format!("core.artifact_ms.{name}"), m.ms, "ms");
        }
        out.push((name, text));
    }
    out
}

/// The study checks: ground-truth recall, CrUX's Figure 2a lead, one
/// independently recomputed Figure 2a cell per list, duplicate-free lists,
/// and every artifact rendered.
fn check_study(study: &Study, rendered: &Rendered, ev: &listeval::ListEvaluation, checks: &mut Checks) {
    for (name, text) in rendered {
        checks.check(&format!("artifact {name} renders"), match text {
            Ok(t) if !t.trim().is_empty() => Ok(()),
            Ok(_) => Err("empty".to_owned()),
            Err(e) => Err(e.to_string()),
        });
    }

    let world = &study.world;
    let k = world.sites.len() / 10;
    let mut truth: Vec<usize> = (0..world.sites.len()).filter(|&i| world.sites[i].cloudflare).collect();
    // Ground truth by the simulator's true site weights, best first.
    truth.sort_by(|&a, &b| world.sites[b].weight.total_cmp(&world.sites[a].weight).then(a.cmp(&b)));
    let truth: Vec<&str> = truth.iter().take(k).map(|&i| world.sites[i].domain.as_str()).collect();
    for metric in CfMetric::final_seven() {
        let got = study.cf_monthly_domains(metric);
        let got: Vec<&str> = got.iter().take(k).map(|d| d.as_str()).collect();
        let r = oracle::recall(&truth, &got);
        checks.check(
            &format!("{} recalls ground truth", metric.label()),
            if r > MIN_TRUTH_RECALL { Ok(()) } else { Err(format!("recall {r:.3} <= {MIN_TRUTH_RECALL}")) },
        );
    }

    let crux_row = ev.lists.iter().position(|&l| l == ListSource::Crux);
    for (mi, metric) in ev.metrics.iter().enumerate() {
        let verdict = match crux_row {
            None => Err("CrUX missing from Figure 2".to_owned()),
            Some(cr) => {
                let crux = ev.jaccard[cr][mi];
                match (0..ev.lists.len()).filter(|&li| li != cr).find(|&li| ev.jaccard[li][mi] >= crux) {
                    Some(li) => Err(format!("{} {:.3} >= CrUX {crux:.3}", ev.lists[li].name(), ev.jaccard[li][mi])),
                    None => Ok(()),
                }
            }
        };
        checks.check(&format!("CrUX leads Figure 2a under {}", metric.label()), verdict);
    }

    // One cell per list, recomputed from the two top-k domain sets.
    let cf_served: HashSet<&str> = world.sites.iter().filter(|s| s.cloudflare).map(|s| s.domain.as_str()).collect();
    let table = study.index().table();
    let n_days = world.config.days.len();
    for (li, &src) in ev.lists.iter().enumerate() {
        let mi = li % ev.metrics.len();
        let mut sum = 0.0;
        for day in 0..n_days {
            let cols = study.index().daily(src, day);
            let top: Vec<&str> = if cols.ordered {
                cols.ids.iter().take(ev.k).map(|&id| table.name(id).as_str()).collect()
            } else {
                cols.ids.iter().zip(&cols.values).filter(|(_, &b)| b as usize <= ev.k).map(|(&id, _)| table.name(id).as_str()).collect()
            };
            let subset: Vec<&str> = top.into_iter().filter(|d| cf_served.contains(d)).collect();
            let scores = study.cdn.daily_final(mi, day);
            let mut ranked: Vec<usize> = (0..scores.len()).filter(|&i| scores[i] > 0.0).collect();
            ranked.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]).then(a.cmp(&b)));
            let cf_top: Vec<&str> = ranked.iter().take(subset.len()).map(|&i| world.sites[i].domain.as_str()).collect();
            sum += oracle::jaccard(&subset, &cf_top);
        }
        let mine = sum / n_days as f64;
        let theirs = ev.jaccard[li][mi];
        checks.check(
            &format!("Figure 2a {}×{} recomputed", src.name(), ev.metrics[mi].label()),
            if (mine - theirs).abs() <= 1e-12 { Ok(()) } else { Err(format!("benchmark {mine} vs program {theirs}")) },
        );
    }

    let ranked: Vec<(&str, &RankedList)> = [
        ("majestic", &study.majestic),
        ("secrank", &study.secrank),
        ("tranco", &study.tranco),
        ("trexa", &study.trexa),
    ]
    .into_iter()
    .chain(study.alexa_daily.iter().map(|l| ("alexa daily", l)))
    .chain(study.umbrella_daily.iter().map(|l| ("umbrella daily", l)))
    .collect();
    for (name, list) in ranked {
        let dup = oracle::first_duplicate(list.entries.iter().map(|e| &e.name));
        checks.check(&format!("{name} list has no duplicates"), dup.map_or(Ok(()), |d| Err(format!("`{d}` listed twice"))));
    }
    let dup = oracle::first_duplicate(study.crux.entries.iter().map(|e| &e.name));
    checks.check("crux list has no duplicates", dup.map_or(Ok(()), |d| Err(format!("`{d}` listed twice"))));
}

/// Counts what the traffic engine emits, and nothing else.
#[derive(Default)]
struct CountingSink {
    events: u64,
}

impl EventSink for CountingSink {
    fn page_load(&mut self, _: &topple_sim::PageLoad) {
        self.events += 1;
    }
    fn third_party(&mut self, _: &topple_sim::ThirdPartyFetch) {
        self.events += 1;
    }
    fn background(&mut self, _: &topple_sim::BackgroundQuery) {
        self.events += 1;
    }
}

/// Days sampled by the single-threaded per-day layers.
const SAMPLE_DAYS: usize = 7;

/// The per-layer replicas of the study's stages, each timed around a
/// public call; the list builders are called again on the study's own
/// accumulators and must reproduce the study's fields exactly.
fn layers(study: &Study, study_s: f64, tr: &mut Tracer) -> Result<(), String> {
    let config = study.world.config.clone();
    let n_days = config.days.len();

    // sim: world generation, by phase.
    let (generated, m) = tr.leaf("sim.world_gen", || World::generate_instrumented(config.clone()));
    let (world, timings) = generated.map_err(|e| format!("world generation failed: {e}"))?;
    let world_gen_s = m.ms / 1e3;
    tr.metric("sim.world_gen_ms", m.ms, "ms");
    tr.metric("sim.world_gen_allocs_process", m.process_allocs as f64, "count");
    for (phase, d) in &timings.phases {
        tr.metric(format!("sim.world_gen_ms.{phase}"), d.as_secs_f64() * 1e3, "ms");
    }

    // sim: one day of traffic into a counting sink, one thread.
    let days = SAMPLE_DAYS.min(n_days);
    let mut scratch = TrafficScratch::for_world(&world);
    let (mut day_ms, mut events, mut allocs) = (Vec::new(), Vec::new(), Vec::new());
    for d in 0..days {
        let mut sink = CountingSink::default();
        let (_, m) = tr.leaf("sim.traffic_day", || world.simulate_day_into(d, &mut scratch, &mut sink));
        day_ms.push(m.ms);
        events.push(sink.events as f64);
        if d > 0 {
            allocs.push(m.thread_allocs as f64);
        }
    }
    let traffic_ms = median(&day_ms);
    tr.metric("sim.traffic_day_ms", traffic_ms, "ms");
    tr.metric("sim.events_per_day", median(&events), "count");
    tr.metric("sim.traffic_allocs_per_day", median(&allocs), "count");

    // vantage: traffic plus all five observers, one thread.
    let mut scratch = DayScratch::new(&world);
    let (mut obs_ms, mut obs_allocs) = (Vec::new(), Vec::new());
    for d in 0..days {
        let (_, m) = tr.leaf("vantage.observe_day", || scratch.observe_day(&world, d));
        obs_ms.push(m.ms);
        if d > 0 {
            obs_allocs.push(m.thread_allocs as f64);
        }
    }
    tr.metric("vantage.observe_day_ms", median(&obs_ms), "ms");
    tr.metric("vantage.observe_only_ms", median(&obs_ms) - traffic_ms, "ms");
    tr.metric("vantage.observe_allocs_per_day", median(&obs_allocs), "count");

    // vantage: the parallel day loop, wall and process CPU.
    let cpu0 = stats::cpu_s(None).unwrap_or(f64::NAN);
    let (shards, m) = tr.leaf("vantage.day_loop", || topple_core::observe_day_shards(&world, n_days, 2));
    let day_loop_s = m.ms / 1e3;
    tr.metric("vantage.day_loop_wall_s", day_loop_s, "s");
    tr.metric("vantage.day_loop_cpu_s", stats::cpu_s(None).unwrap_or(f64::NAN) - cpu0, "s");
    tr.metric("vantage.day_loop_allocs_process", m.process_allocs as f64, "count");
    let kib: Vec<f64> = shards
        .iter()
        .map(|s| {
            let mut out = Vec::new();
            s.encode(&mut out);
            out.len() as f64 / 1024.0
        })
        .collect();
    tr.metric("vantage.shard_kib", median(&kib), "KiB");

    // vantage: each accumulator's fold, per day.
    fold_layers(&world, &shards, tr);
    let (crawl, m) = tr.leaf("vantage.crawl", || CrawlerVantage::crawl(&world, 25, usize::MAX));
    tr.metric("vantage.crawl_ms", m.ms, "ms");
    drop(crawl);

    // core: the whole rebuild from shards, and the assembly share of run.
    let (rebuilt, m) = tr.leaf("core.from_shards", || Study::from_shards(world, shards));
    rebuilt.map_err(|e| format!("Study::from_shards failed: {e}"))?;
    tr.metric("core.from_shards_s", m.ms / 1e3, "s");
    tr.metric("core.assemble_s", study_s - world_gen_s - day_loop_s, "s");

    list_layers(study, tr)
}

fn fold_layers(world: &World, shards: &[DayShards], tr: &mut Tracer) {
    let mut cdn = CdnVantage::new(world);
    let mut chrome = ChromeVantage::new(world);
    let mut umbrella_dns = DnsVantage::new(topple_sim::Resolver::Umbrella);
    let mut china_dns = DnsVantage::new(topple_sim::Resolver::ChinaVoting);
    let mut panel = PanelVantage::new(world);
    let mut ms: [Vec<f64>; 5] = Default::default();
    for s in shards {
        let s = s.clone();
        ms[0].push(tr.leaf("vantage.fold.cdn", || cdn.ingest_shard(s.cdn)).1.ms);
        ms[1].push(tr.leaf("vantage.fold.chrome", || chrome.ingest_shard(s.chrome)).1.ms);
        ms[2].push(tr.leaf("vantage.fold.umbrella_dns", || umbrella_dns.ingest_shard(world, s.umbrella)).1.ms);
        ms[3].push(tr.leaf("vantage.fold.china_dns", || china_dns.ingest_shard(world, s.china)).1.ms);
        ms[4].push(tr.leaf("vantage.fold.panel", || panel.ingest_shard(s.panel)).1.ms);
    }
    for (name, v) in ["cdn", "chrome", "umbrella_dns", "china_dns", "panel"].iter().zip(&ms) {
        tr.metric(format!("vantage.fold_ms.{name}"), median(v), "ms");
    }
}

/// Each list builder called again on the study's accumulators; its output
/// must equal the study's own field, so the timing comes from the same path.
fn list_layers(study: &Study, tr: &mut Tracer) -> Result<(), String> {
    let world = &study.world;
    let n_days = world.config.days.len();
    let len = world.sites.len();
    let same = |name: &str, ok: bool| -> Result<(), String> {
        if ok {
            Ok(())
        } else {
            Err(format!("rebuilt {name} list differs from the study's"))
        }
    };
    let timed = |tr: &mut Tracer, name: &str, f: &mut dyn FnMut() -> bool| -> Result<(), String> {
        let (ok, m) = tr.leaf(&format!("lists.build.{name}"), f);
        tr.metric(format!("lists.build_ms.{name}"), m.ms, "ms");
        tr.metric(format!("lists.build_allocs.{name}"), m.thread_allocs as f64, "count");
        same(name, ok)
    };
    timed(tr, "alexa_daily", &mut || {
        (0..n_days).map(|d| alexa::build_daily(world, &study.panel, d, n_days, len)).collect::<Vec<_>>() == study.alexa_daily
    })?;
    timed(tr, "umbrella_daily", &mut || {
        (0..n_days).map(|d| umbrella::build_daily(world, &study.umbrella_dns, d, 3, len)).collect::<Vec<_>>()
            == study.umbrella_daily
    })?;
    timed(tr, "majestic", &mut || majestic::build(world, &study.crawl, len) == study.majestic)?;
    timed(tr, "secrank", &mut || secrank::build(world, &study.china_dns, n_days, len) == study.secrank)?;
    let mut norm = Normalizer::new(&world.psl);
    let umbrella_domains: Vec<RankedList> =
        study.umbrella_daily.iter().map(|l| norm.ranked(l).to_ranked_list()).collect();
    timed(tr, "tranco", &mut || {
        let mut inputs: Vec<&RankedList> = study.alexa_daily.iter().collect();
        inputs.extend(umbrella_domains.iter());
        inputs.extend(std::iter::repeat_n(&study.majestic, n_days));
        tranco::build(&inputs, len) == study.tranco
    })?;
    let alexa_month = study.alexa_daily.last().ok_or("no alexa days")?;
    timed(tr, "trexa", &mut || trexa::build(&study.tranco, alexa_month, 2, len) == study.trexa)?;
    let magnitudes: Vec<usize> = world.config.rank_magnitudes().iter().map(|&(_, k)| k).collect();
    timed(tr, "crux", &mut || crux::build(world, &study.chrome, &magnitudes) == study.crux)?;

    // Normalization of every monthly and daily list, into one table.
    let umbrella_month = umbrella::build_monthly(world, &study.umbrella_dns, len);
    let (normalized, m) = tr.leaf("lists.normalize", || {
        let mut table = DomainTable::with_capacity(len);
        for s in &world.sites {
            table.intern(&s.domain);
        }
        let mut norm = Normalizer::with_table(&world.psl, table);
        let mut out: Vec<NormalizedList> = Vec::new();
        for l in [&study.majestic, &study.secrank, &study.tranco, &study.trexa] {
            out.push(norm.ranked(l));
        }
        out.push(norm.ranked(&umbrella_month));
        out.push(norm.bucketed(&study.crux));
        for l in study.alexa_daily.iter().chain(&study.umbrella_daily) {
            out.push(norm.ranked(l));
        }
        out
    });
    tr.metric("lists.normalize_ms", m.ms, "ms");
    drop(normalized);
    let ranked = [&study.majestic, &study.secrank, &study.tranco, &study.trexa, &umbrella_month];
    let entries = ranked.iter().map(|l| l.len()).sum::<usize>()
        + study.alexa_daily.iter().chain(&study.umbrella_daily).map(RankedList::len).sum::<usize>()
        + study.crux.len();
    tr.metric("lists.entries", entries as f64, "count");
    Ok(())
}
