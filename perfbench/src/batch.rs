//! The batch workloads: `vtld study` and `vtld analyze`, each timed in
//! fresh processes, and their traced in-process replays.

use std::fs::File;
use std::io;
use std::path::Path;
use std::time::Instant;

use vt_label_dynamics::dynamics::categorize::Categorize;
use vt_label_dynamics::dynamics::causes::Causes;
use vt_label_dynamics::dynamics::correlation::Correlation;
use vt_label_dynamics::dynamics::flips::Flips;
use vt_label_dynamics::dynamics::intervals::Intervals;
use vt_label_dynamics::dynamics::landscape::Landscape;
use vt_label_dynamics::dynamics::metrics::{Metrics, WindowGrowth};
use vt_label_dynamics::dynamics::stability::Stability;
use vt_label_dynamics::dynamics::stabilization::Stabilization;
use vt_label_dynamics::dynamics::{
    freshdyn, records_from_store, Analysis, AnalysisCtx, Collector, SampleRecord, Study,
    StudyResults, TrajectoryTable,
};
use vt_label_dynamics::engines::{EngineFleet, FleetConfig};
use vt_label_dynamics::model::time::{Month, Timestamp};
use vt_label_dynamics::model::ScanReport;
use vt_label_dynamics::obs::Obs;
use vt_label_dynamics::report::experiments::render_full_report;
use vt_label_dynamics::sim::fault::{FaultPlan, FaultyFeed};
use vt_label_dynamics::sim::SimConfig;
use vt_label_dynamics::store::{read_store, PartitionStats};

use crate::metrics::{Report, STAGES};
use crate::oracle::{self, fnv1a};
use crate::proc::{self, Exit};
use crate::stats::{median, tail};
use crate::trace::{self, Trace};
use crate::Ctx;

/// Samples per `vtld study` invocation. Reports per sample are heavy
/// tailed, so the work behind a fixed sample count varies with the
/// seed; at 200 000 samples that variation is about ±2%.
const STUDY_SAMPLES: u64 = 200_000;

/// Samples in the store `vtld analyze` reads (same reasoning).
const ANALYZE_SAMPLES: u64 = 200_000;

/// Samples of the start-up invocation timed as `study`'s set-up: a
/// study small enough that process start and fixed costs dominate.
const STARTUP_SAMPLES: u64 = 1_000;

/// Start-up invocations per `study` run. Each takes about 30 ms, and
/// the median of three moved by almost half between runs.
const STARTUP_REPEATS: usize = 15;

/// Set-ups (and at least this many timed invocations) per run.
const REPEATS: usize = 3;

/// The engine-fleet seed `vtld simulate` derives from a platform seed
/// (and prints for `vtld analyze --fleet-seed`).
fn fleet_seed(sim_seed: u64) -> u64 {
    sim_seed ^ 0xF1EE_7000
}

/// Runs `vtld` once and checks its standard output against `expected`.
fn invoke_checked(
    ctx: &Ctx,
    args: &[String],
    expected: u64,
    out: &Path,
) -> io::Result<(Exit, bool)> {
    let exit = proc::run_timed(&ctx.vtld, args, out)?;
    let ok = exit.success && fnv1a(&std::fs::read(out)?) == expected;
    Ok((exit, ok))
}

/// Times invocations of `args` until `ctx.seconds` passed (and at least
/// [`REPEATS`] ran), checking each against `expected`.
fn timed_invocations(
    ctx: &Ctx,
    args: &[String],
    expected: u64,
    report: &mut Report,
) -> io::Result<Vec<Exit>> {
    let out = ctx.work.join("stdout.txt");
    let started = Instant::now();
    let mut exits = Vec::new();
    while exits.len() < REPEATS || started.elapsed().as_secs_f64() < ctx.seconds {
        let (exit, ok) = invoke_checked(ctx, args, expected, &out)?;
        report.count(ok);
        exits.push(exit);
    }
    Ok(exits)
}

/// Sets the end-to-end metrics a batch workload reports: one
/// invocation is one request.
fn batch_end_to_end(report: &mut Report, samples: u64, setup: &[f64], exits: &[Exit]) {
    let walls: Vec<f64> = exits.iter().map(|e| e.wall_s).collect();
    let rss: Vec<f64> = exits.iter().map(|e| e.max_rss_kb as f64 / 1024.0).collect();
    let wall = median(&walls);
    let (p, tail_s) = tail(&walls);
    eprintln!(
        "perfbench: {} invocations; query_p99_us reports their p{p}",
        walls.len()
    );
    report.set("setup_s", median(setup));
    report.set("samples_per_s", samples as f64 / wall);
    report.set("peak_rss_mb", median(&rss));
    report.set("query_p50_us", wall * 1e6);
    report.set("query_p99_us", tail_s * 1e6);
    report.set("ok_frac", report.ok_frac());
}

fn study_args(ctx: &Ctx, samples: u64) -> Vec<String> {
    vec![
        "study".into(),
        "--samples".into(),
        samples.to_string(),
        "--seed".into(),
        ctx.sim_seed().to_string(),
    ]
}

/// `study`: `vtld study` end to end. `vtld study` has no set-up phase of
/// its own, so its set-up is start-up: [`STARTUP_REPEATS`] checked
/// invocations on [`STARTUP_SAMPLES`] samples.
pub fn study(ctx: &Ctx, report: &mut Report) -> io::Result<()> {
    let startup = SimConfig::new(ctx.sim_seed(), STARTUP_SAMPLES);
    let startup_expected = oracle::batch_reference(startup, ctx.workers);
    let out = ctx.work.join("startup.txt");
    let mut setup = Vec::new();
    for _ in 0..STARTUP_REPEATS {
        let args = study_args(ctx, STARTUP_SAMPLES);
        let (exit, ok) = invoke_checked(ctx, &args, startup_expected, &out)?;
        report.count(ok);
        setup.push(exit.wall_s);
    }
    let config = SimConfig::new(ctx.sim_seed(), STUDY_SAMPLES);
    let expected = oracle::batch_reference(config, ctx.workers);
    let exits = timed_invocations(ctx, &study_args(ctx, STUDY_SAMPLES), expected, report)?;
    batch_end_to_end(report, STUDY_SAMPLES, &setup, &exits);
    Ok(())
}

/// `vtld simulate` into `path`; its wall time is analyze's set-up.
fn simulate(ctx: &Ctx, path: &Path) -> io::Result<Exit> {
    let args = vec![
        "simulate".into(),
        "--samples".into(),
        ANALYZE_SAMPLES.to_string(),
        "--seed".into(),
        ctx.sim_seed().to_string(),
        "--out".into(),
        path.display().to_string(),
    ];
    proc::run_timed(&ctx.vtld, &args, &ctx.work.join("simulate.txt"))
}

fn analyze_args(ctx: &Ctx, store: &Path) -> Vec<String> {
    vec![
        "analyze".into(),
        "--store".into(),
        store.display().to_string(),
        "--fleet-seed".into(),
        fleet_seed(ctx.sim_seed()).to_string(),
    ]
}

/// Writes the analyze input [`REPEATS`] times; every store must be
/// byte-identical. Returns the path and the set-up times.
fn timed_simulations(ctx: &Ctx, report: &mut Report) -> io::Result<(std::path::PathBuf, Vec<f64>)> {
    let mut times = Vec::new();
    let mut digests = Vec::new();
    let mut path = ctx.work.join("feed-0.vtstore");
    for i in 0..REPEATS {
        path = ctx.work.join(format!("feed-{i}.vtstore"));
        let exit = simulate(ctx, &path)?;
        report.count(exit.success);
        times.push(exit.wall_s);
        digests.push(fnv1a(&std::fs::read(&path)?));
    }
    report.count(digests.iter().all(|&d| d == digests[0]));
    Ok((path, times))
}

/// `analyze`: `vtld analyze` over a store `vtld simulate` wrote. Its
/// output must equal the reference for the same seed.
pub fn analyze(ctx: &Ctx, report: &mut Report) -> io::Result<()> {
    let (store, setup) = timed_simulations(ctx, report)?;
    let config = SimConfig::new(ctx.sim_seed(), ANALYZE_SAMPLES);
    let expected = oracle::batch_reference(config, ctx.workers);
    let exits = timed_invocations(ctx, &analyze_args(ctx, &store), expected, report)?;
    batch_end_to_end(report, ANALYZE_SAMPLES, &setup, &exits);
    Ok(())
}

// ---- traced runs ---------------------------------------------------------

/// Table, *S* and every registry stage over `records`, each call in its
/// own span, assembled into the results `analyze_records` returns.
fn analyze_traced(
    t: &mut Trace,
    records: &[SampleRecord],
    partitions: Vec<PartitionStats>,
    fleet: &EngineFleet,
    window_start: Timestamp,
    workers: usize,
) -> (StudyResults, usize) {
    let table = t.span("table.build_ms", || {
        TrajectoryTable::build_with(records, window_start, workers, Obs::noop())
    });
    let s = t.span("analysis.freshdyn_ms", || {
        freshdyn::build_from_table(&table, workers)
    });
    let ctx = AnalysisCtx::new(records, &table, &s, fleet, window_start).with_workers(workers);
    let [landscape, stability, metrics, window_growth, intervals, cat_all, cat_pe, causes, stabilization, flips, correlation] =
        STAGES;
    let (dataset, fig1) = t.span(landscape, || Landscape.run(&ctx));
    let stability = t.span(stability, || Stability.run(&ctx));
    let metrics = t.span(metrics, || Metrics.run(&ctx));
    let window_growth = t.span(window_growth, || WindowGrowth::default().run(&ctx));
    let intervals = t.span(intervals, || Intervals::default().run(&ctx));
    let categories_all = t.span(cat_all, || Categorize::ALL.run(&ctx));
    let categories_pe = t.span(cat_pe, || Categorize::PE.run(&ctx));
    let causes = t.span(causes, || Causes.run(&ctx));
    let stabilization = t.span(stabilization, || Stabilization.run(&ctx));
    let flips = t.span(flips, || Flips.run(&ctx));
    let (correlation_global, correlation_per_type) =
        t.span(correlation, || Correlation::default().run(&ctx));
    let results = StudyResults {
        dataset,
        fig1,
        partitions,
        stability,
        s_samples: s.len() as u64,
        s_reports: s.reports,
        metrics,
        window_growth,
        intervals,
        categories_all,
        categories_pe,
        causes,
        rank_stabilization: stabilization.rank,
        label_stabilization_all: stabilization.label_all,
        label_stabilization_multi: stabilization.label_multi,
        flips,
        correlation_global,
        correlation_per_type,
        stage_timings: Vec::new(),
    };
    (results, table.report_rows())
}

/// One traced pass of what `vtld study` runs: generate, load the store,
/// analyze, render, free. Returns the report's digest, the table's
/// report rows and the store's stored bytes.
fn study_pass(t: &mut Trace, config: SimConfig, workers: usize) -> (u64, usize, u64) {
    let study = t.span("sim.busy_ms", || {
        Study::generate_with_workers_obs(config, workers, Obs::noop())
    });
    let store = t.span("store.encode_ms", || study.build_store());
    let partitions = store.partition_stats();
    let store_bytes = partitions.iter().map(|p| p.stored_bytes).sum();
    let (results, rows) = analyze_traced(
        t,
        study.records(),
        partitions,
        study.sim().fleet(),
        config.window_start(),
        workers,
    );
    let text = t.span("report.render_ms", || {
        render_full_report(&results, study.sim().fleet())
    });
    drop((results, store, study));
    (fnv1a(format!("{text}\n").as_bytes()), rows, store_bytes)
}

/// The collector pass `vtld study --metrics-out` adds (plain
/// `vtld study` loads the store directly): a clean feed of the same
/// reports through the fault-tolerant collector, timed on its own.
fn study_collector(config: SimConfig, workers: usize, report: &mut Report) {
    let study = Study::generate_with_workers(config, workers);
    let reports: Vec<ScanReport> = study
        .records()
        .iter()
        .flat_map(|r| r.reports.iter().cloned())
        .collect();
    let feed = FaultyFeed::new(reports, FaultPlan::clean(config.seed));
    let started = Instant::now();
    let outcome = Collector::default().run_with_obs(feed, Obs::noop());
    report.set("collector.busy_ms", started.elapsed().as_secs_f64() * 1e3);
    collector_counts(report, &outcome.stats);
}

/// Sets the collector's outcome counters and its accept ratio.
pub fn collector_counts(report: &mut Report, s: &vt_label_dynamics::dynamics::IngestStats) {
    report.set("collector.accepted", s.accepted as f64);
    report.set("collector.dropped_duplicates", s.deduped as f64);
    report.set("collector.quarantined", s.quarantined as f64);
    let attempts = s.accepted + s.deduped + s.quarantined + s.lost_entries;
    report.set(
        "collector.accept_ratio",
        s.accepted as f64 / attempts.max(1) as f64,
    );
}

/// Median wall time of [`REPEATS`] checked untraced invocations, in ms.
fn untraced_baseline(
    ctx: &Ctx,
    args: &[String],
    expected: u64,
    report: &mut Report,
) -> io::Result<f64> {
    let out = ctx.work.join("stdout.txt");
    let mut walls = Vec::new();
    for _ in 0..REPEATS {
        let (exit, ok) = invoke_checked(ctx, args, expected, &out)?;
        report.count(ok);
        walls.push(exit.wall_s * 1e3);
    }
    Ok(median(&walls))
}

/// Traced `study`: the same pipeline in-process, one span per public
/// call, repeated for the run's duration.
pub fn study_trace(ctx: &Ctx, report: &mut Report) -> io::Result<()> {
    let config = SimConfig::new(ctx.sim_seed(), STUDY_SAMPLES);
    let expected = oracle::batch_reference(config, ctx.workers);
    let args = study_args(ctx, STUDY_SAMPLES);
    let untraced_ms = untraced_baseline(ctx, &args, expected, report)?;
    let (rows, bytes) = trace::repeat(report, ctx.seconds, REPEATS, untraced_ms, |t| {
        let (digest, rows, bytes) = study_pass(t, config, ctx.workers);
        Ok((digest == expected, (rows, bytes)))
    })?;
    report.set("table.rows", rows as f64);
    report.set("store.bytes", bytes as f64);
    study_collector(config, ctx.workers, report);
    Ok(())
}

/// One traced pass of what `vtld analyze` runs: load the store, rebuild
/// records, analyze, render, free. Returns the report's digest and the
/// table's report rows.
fn analyze_pass(
    t: &mut Trace,
    path: &Path,
    fleet_seed: u64,
    workers: usize,
) -> io::Result<(u64, usize)> {
    let store = t.span("store.decode_ms", || {
        let mut file = File::open(path)?;
        read_store(&mut file).map_err(io::Error::other)
    })?;
    let records = t.span("records.busy_ms", || records_from_store(&store));
    let fleet = EngineFleet::new(
        FleetConfig::builder()
            .seed(fleet_seed)
            .build()
            .map_err(io::Error::other)?,
    );
    let (results, rows) = analyze_traced(
        t,
        &records,
        store.partition_stats(),
        &fleet,
        Month::COLLECTION_START.start(),
        workers,
    );
    let text = t.span("report.render_ms", || render_full_report(&results, &fleet));
    drop((results, records, store));
    Ok((fnv1a(format!("{text}\n").as_bytes()), rows))
}

/// Traced `analyze`.
pub fn analyze_trace(ctx: &Ctx, report: &mut Report) -> io::Result<()> {
    let path = ctx.work.join("feed.vtstore");
    let exit = simulate(ctx, &path)?;
    report.count(exit.success);
    let config = SimConfig::new(ctx.sim_seed(), ANALYZE_SAMPLES);
    let expected = oracle::batch_reference(config, ctx.workers);
    let untraced_ms = untraced_baseline(ctx, &analyze_args(ctx, &path), expected, report)?;
    let fleet_seed = fleet_seed(ctx.sim_seed());
    let rows = trace::repeat(report, ctx.seconds, REPEATS, untraced_ms, |t| {
        let (digest, rows) = analyze_pass(t, &path, fleet_seed, ctx.workers)?;
        Ok((digest == expected, rows))
    })?;
    report.set("table.rows", rows as f64);
    report.set("store.bytes", std::fs::metadata(&path)?.len() as f64);
    Ok(())
}
