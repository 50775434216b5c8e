//! The daemon workload: `vtld serve` answering an open-loop mix of
//! reads after `ingest_done` (`serve_query`), and its traced run, which
//! also reads beside the ingest and replays the daemon's ingest path
//! in-process.

use std::collections::BTreeMap;
use std::io;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use vt_label_dynamics::dynamics::{
    merge_partition_stats, AlertConfig, Collector, DecodeArena, IncrementalStudy, IngestStats,
    SlotMergeTree, StudyResults, TrajectoryTable,
};
use vt_label_dynamics::model::time::Timestamp;
use vt_label_dynamics::model::EngineId;
use vt_label_dynamics::obs::Obs;
use vt_label_dynamics::sim::fault::{FaultPlan, FaultyFeed};
use vt_label_dynamics::sim::{SimConfig, VirusTotalSim};
use vt_label_dynamics::store::{
    read_segment, write_segment, PartitionStats, Segment, SegmentWriter,
};

use crate::loadgen::{self, Outcome, Poll, Record, Request, Rng, Schedule, Stop, Verb, Zipf};
use crate::metrics::Report;
use crate::oracle::{self, GroundTruth, SampleVerdict, Status};
use crate::proc::{self, Daemon};
use crate::stats::{median, percentile, tail, windowed_percentile};
use crate::trace::{self, Trace};
use crate::Ctx;

/// Samples each daemon ingests: about four seconds of ingest on two
/// cores. Reports per sample are heavy-tailed; at this count the report
/// total moves by about ±4% between seeds.
const SERVE_SAMPLES: u64 = 100_000;

/// Reports per sealed segment. The daemon's default (20 000) would seal
/// every slot only at drain at this size, so nothing would be published
/// while reads arrive; 2 500 seals each of the 8 slots about seven times.
const SEGMENT_REPORTS: u64 = 2_500;

/// Mean arrival rate of the open-loop `sample` reads, requests per
/// second. No measurement, paper figure or repository workload gives a
/// query rate (`benches/serve_load.rs` runs closed loops), so this is an
/// assumption. It stands for a lookup front-end serving about ten
/// consumers, each looking up every report of a feed at the paper's
/// average rate: 847,567,045 reports over 14 months is about 23 per
/// second. With Nagle's algorithm on the daemon's sockets an answer
/// leaves with the next read, so scheduling delays in the daemon or the
/// sender add to the latency in proportion to how short the gaps are.
/// On a two-vCPU VM, with the daemon and this runner niced below two
/// CPU-bound processes, p50 rose 33% and p99 14% at 500 reads a second,
/// and 20% and −3% at this rate.
const QUERY_RATE: f64 = 250.0;

/// Period of the `status` poll on a connection of its own: the 5 ms
/// `ingest_done` poll of `benches/serve_load.rs`, with one poll
/// outstanding at a time. It is also how a run notices `ingest_done`.
const STATUS_PERIOD: Duration = Duration::from_millis(5);

/// Answers per window of `query_p99_us`: the fewest that leave ten
/// beyond the p99 (the percentile rule of [`crate::stats`]), so a run
/// of `--seconds 25` at [`QUERY_RATE`] has six windows.
const TAIL_WINDOW: usize = 1_000;

/// `k` of every `flip_leaders` request.
const FLIP_K: usize = 10;

/// Zipf exponent of `sample` popularity, as in `benches/serve_load.rs`:
/// its hot set is wider than the daemon's 1 024-entry response cache.
const ZIPF_S: f64 = 1.0;

/// Closed-loop requests per verb in the traced run's per-verb probes.
const PROBES: usize = 500;

/// Ingest slots of the daemon (`vt_label_dynamics::serve::INGEST_SLOTS`).
const SLOTS: usize = vt_label_dynamics::serve::INGEST_SLOTS;

/// Sample ordinals per collector run in the daemon's feeder.
const CHUNK_SAMPLES: u64 = 1_024;

/// Daemons set up per `serve_query` run (the set-up is their ingest).
const SETUPS: usize = 3;

/// Longest a run waits for one ingest.
const INGEST_LIMIT: Duration = Duration::from_secs(120);

/// Longest a run waits for outstanding answers after its last request.
const DRAIN: Duration = Duration::from_secs(10);

/// The fault plan `ServeConfig::new` applies to the feed.
fn daemon_plan(seed: u64) -> FaultPlan {
    FaultPlan::clean(seed)
        .with_duplicates(0.01)
        .with_reordering(0.05, 30)
}

fn daemon_args(ctx: &Ctx) -> Vec<String> {
    vec![
        "--samples".into(),
        SERVE_SAMPLES.to_string(),
        "--seed".into(),
        ctx.sim_seed().to_string(),
        "--segment-reports".into(),
        SEGMENT_REPORTS.to_string(),
    ]
}

/// The open-loop mix of `benches/serve_load.rs`'s read arm: Zipf(1.0)
/// `sample` reads on a seeded Poisson schedule. It also draws the
/// arguments of the traced run's per-verb probes.
struct Mix {
    rng: Rng,
    schedule: Schedule,
    zipf: Zipf,
    hashes: Vec<String>,
    engines: Vec<String>,
}

impl Mix {
    fn new(sim: &VirusTotalSim, seed: u64) -> Self {
        let mut rng = Rng::new(seed, 1);
        let zipf = Zipf::new(SERVE_SAMPLES, ZIPF_S, &mut rng);
        let hashes = (0..SERVE_SAMPLES)
            .map(|o| sim.population().sample(o).hash.to_hex())
            .collect();
        let fleet = sim.fleet();
        let engines = (0..fleet.engine_count())
            .map(|i| fleet.profile(EngineId::new(i)).name.to_string())
            .collect();
        Self {
            rng: Rng::new(seed, 2),
            schedule: Schedule::new(QUERY_RATE, Rng::new(seed, 3)),
            zipf,
            hashes,
            engines,
        }
    }

    /// The next read of the open-loop mix and its due offset.
    fn next(&mut self) -> (Duration, Request) {
        (self.schedule.next_due(), self.request(Verb::Sample))
    }

    /// One `verb` request: a Zipf-drawn sample, a uniformly drawn
    /// engine, or the verb's fixed line.
    fn request(&mut self, verb: Verb) -> Request {
        let (arg, line) = match verb {
            Verb::Sample => {
                let o = self.zipf.draw(&mut self.rng);
                let h = &self.hashes[o as usize];
                (o, format!("{{\"cmd\":\"sample\",\"hash\":\"{h}\"}}"))
            }
            Verb::Status => (0, "{\"cmd\":\"status\"}".to_string()),
            Verb::FlipLeaders => (0, format!("{{\"cmd\":\"flip_leaders\",\"k\":{FLIP_K}}}")),
            Verb::Engine => {
                let e = self.rng.below(self.engines.len() as u64);
                let name = &self.engines[e as usize];
                (e, format!("{{\"cmd\":\"engine\",\"name\":\"{name}\"}}"))
            }
            Verb::Recommend => (0, "{\"cmd\":\"recommend\"}".to_string()),
        };
        Request { verb, arg, line }
    }
}

/// What checking one open-loop phase found.
#[derive(Default)]
struct Checked {
    latencies_us: Vec<f64>,
    late_us: Vec<f64>,
    per_verb_us: BTreeMap<Verb, Vec<f64>>,
    statuses: Vec<Status>,
    found: u64,
    not_found: u64,
}

/// Checks every answer of a phase; counts each request in `report`.
/// `sample` answers must match the simulator's ground truth, and from
/// `done_epoch` on (every hash ingested) they must be found.
fn check(
    records: &[Record],
    truth: &mut GroundTruth,
    engines: &[String],
    done_epoch: u64,
    report: &mut Report,
) -> Checked {
    let mut c = Checked::default();
    let mut last_status_epoch = 0;
    for r in records {
        let ok = check_one(
            r,
            truth,
            engines,
            done_epoch,
            &mut c,
            &mut last_status_epoch,
        );
        report.count(ok);
        c.late_us.push(r.late_us());
        if let (true, Some(us)) = (ok, r.latency_us()) {
            c.latencies_us.push(us);
            c.per_verb_us.entry(r.verb).or_default().push(us);
        }
    }
    c
}

fn check_one(
    r: &Record,
    truth: &mut GroundTruth,
    engines: &[String],
    done_epoch: u64,
    c: &mut Checked,
    last_status_epoch: &mut u64,
) -> bool {
    if r.answered.is_none() {
        return false;
    }
    match r.verb {
        Verb::Sample => match oracle::check_sample(&r.response, truth.get(r.arg)) {
            SampleVerdict::Found => {
                c.found += 1;
                true
            }
            SampleVerdict::NotFound => {
                c.not_found += 1;
                oracle::split_epoch(&r.response).is_some_and(|(epoch, _)| epoch < done_epoch)
            }
            SampleVerdict::Wrong => false,
        },
        Verb::Status => match oracle::parse_status(&r.response) {
            Some(s) if s.epoch >= *last_status_epoch => {
                *last_status_epoch = s.epoch;
                c.statuses.push(s);
                true
            }
            _ => false,
        },
        Verb::FlipLeaders => oracle::check_flip_leaders(&r.response, FLIP_K),
        Verb::Engine => oracle::check_engine(&r.response, &engines[r.arg as usize]),
        Verb::Recommend => oracle::check_recommend(&r.response),
    }
}

/// Sets `query_p50_us` over every checked answer, and `query_p99_us`
/// as the median over windows of [`TAIL_WINDOW`] answers of each
/// window's p99.
fn set_latency(report: &mut Report, latencies_us: &[f64]) {
    let (p, at) = tail(latencies_us);
    report.set("query_p50_us", median(latencies_us));
    report.set(
        "query_p99_us",
        windowed_percentile(latencies_us, TAIL_WINDOW, 99.0),
    );
    eprintln!(
        "perfbench: {} answers; whole-run p99 = {:.1} us; highest supported tail p{p} = {at:.1} us",
        latencies_us.len(),
        percentile(latencies_us, 99.0)
    );
}

/// Boots a daemon and waits for `ingest_done` with no other traffic.
/// Returns the daemon and its spawn-to-done seconds.
fn ingested_daemon(ctx: &Ctx, report: &mut Report) -> io::Result<(Daemon, Status, f64)> {
    let daemon = Daemon::start(&ctx.vtld, &daemon_args(ctx), &ctx.work.join("daemon.log"))?;
    let (status, done_s) = daemon.wait_ingest_done(INGEST_LIMIT)?;
    let status = oracle::parse_status(&status).ok_or_else(|| io::Error::other("bad status"))?;
    report.count(status.samples == SERVE_SAMPLES);
    Ok((daemon, status, done_s))
}

/// One open-loop phase of `seconds` against a daemon that published
/// `done_epoch` at `ingest_done`.
fn query_phase(
    daemon: &Daemon,
    mix: &mut Mix,
    seconds: f64,
    done_epoch: u64,
    truth: &mut GroundTruth,
    report: &mut Report,
) -> io::Result<(Checked, usize)> {
    let stop = Stop::At(Duration::from_secs_f64(seconds));
    let outcome = open_loop(daemon, mix, Instant::now(), stop)?;
    let checked = check(&outcome.records, truth, &mix.engines, done_epoch, report);
    check(&outcome.polls, truth, &mix.engines, done_epoch, report);
    Ok((checked, outcome.records.len()))
}

/// The mix on one connection and the `status` poll on another, against
/// `daemon`, from `start` until `stop`.
fn open_loop(daemon: &Daemon, mix: &mut Mix, start: Instant, stop: Stop) -> io::Result<Outcome> {
    let poll = Poll {
        stream: TcpStream::connect(daemon.addr)?,
        period: STATUS_PERIOD,
    };
    loadgen::run(
        TcpStream::connect(daemon.addr)?,
        Some(poll),
        start,
        || mix.next(),
        stop,
        DRAIN,
    )
}

/// A closed-loop probe of one verb: [`PROBES`] requests on a fresh
/// connection, each sent once the previous answer arrived, so the
/// figure is the verb's own cost. Returns the median latency of the
/// answers the oracle accepted.
fn probe(
    daemon: &Daemon,
    mix: &mut Mix,
    verb: Verb,
    done_epoch: u64,
    truth: &mut GroundTruth,
    report: &mut Report,
) -> io::Result<f64> {
    let records = loadgen::closed_loop(TcpStream::connect(daemon.addr)?, PROBES, || {
        mix.request(verb)
    })?;
    let checked = check(&records, truth, &mix.engines, done_epoch, report);
    let values = checked
        .per_verb_us
        .get(&verb)
        .map_or(&[][..], Vec::as_slice);
    Ok(if values.is_empty() {
        0.0
    } else {
        median(values)
    })
}

/// `serve_query`: the mix against a daemon that finished ingesting.
/// Set-up is spawn to `ingest_done`, over [`SETUPS`] fresh daemons.
pub fn serve_query(ctx: &Ctx, report: &mut Report) -> io::Result<()> {
    let sim = VirusTotalSim::new(SimConfig::new(ctx.sim_seed(), SERVE_SAMPLES));
    let mut truth = GroundTruth::new(&sim);
    let mut setups = Vec::new();
    for _ in 1..SETUPS {
        let (daemon, _, done_s) = ingested_daemon(ctx, report)?;
        setups.push(done_s);
        daemon.stop()?;
    }
    let (daemon, status, done_s) = ingested_daemon(ctx, report)?;
    setups.push(done_s);
    let mut mix = Mix::new(&sim, ctx.seed);
    let (checked, _) = query_phase(
        &daemon,
        &mut mix,
        ctx.seconds,
        status.epoch,
        &mut truth,
        report,
    )?;
    let rss_mb = daemon.vm_hwm_kb()? as f64 / 1024.0;
    daemon.stop()?;
    let rates: Vec<f64> = setups.iter().map(|s| SERVE_SAMPLES as f64 / s).collect();
    report.set("setup_s", median(&setups));
    report.set("samples_per_s", median(&rates));
    report.set("peak_rss_mb", rss_mb);
    set_latency(report, &checked.latencies_us);
    report.set("ok_frac", report.ok_frac());
    Ok(())
}

// ---- traced runs ---------------------------------------------------------

/// Traced `serve_query`. The set-up ingest runs under the open-loop
/// mix (reads beside writes), and the daemon's `status` answers during
/// it give the serve-layer counts. A query phase on the same daemon
/// gives the generator's lateness, and closed-loop probes give each
/// verb's own latency. Then the daemon's feeder → shard → merger path
/// is replayed in-process with a span around every public call, and
/// its results must equal the daemon's `results`.
pub fn serve_query_trace(ctx: &Ctx, report: &mut Report) -> io::Result<()> {
    let sim = VirusTotalSim::new(SimConfig::new(ctx.sim_seed(), SERVE_SAMPLES));
    let mut truth = GroundTruth::new(&sim);
    let daemon = Daemon::start(&ctx.vtld, &daemon_args(ctx), &ctx.work.join("daemon.log"))?;
    let mut mix = Mix::new(&sim, ctx.seed);
    let start = Instant::now();
    let outcome = open_loop(&daemon, &mut mix, start, Stop::IngestDone(INGEST_LIMIT))?;
    let done_at = outcome
        .ingest_done_at
        .ok_or_else(|| io::Error::other("ingest did not finish in time"))?;
    let ingest_ms = ((start - daemon.spawned) + done_at).as_secs_f64() * 1e3;
    let done = oracle::parse_status(&proc::ask(daemon.addr, "{\"cmd\":\"status\"}")?)
        .ok_or_else(|| io::Error::other("unparsable status"))?;
    report.count(done.samples == SERVE_SAMPLES && done.ingest_done);
    let during = check(
        &outcome.records,
        &mut truth,
        &mix.engines,
        done.epoch,
        report,
    );
    let polled = check(&outcome.polls, &mut truth, &mix.engines, done.epoch, report);
    let results = proc::ask(daemon.addr, "{\"cmd\":\"results\"}")?;
    let mut query_mix = Mix::new(&sim, ctx.seed.wrapping_add(1));
    let (after, sent) = query_phase(
        &daemon,
        &mut query_mix,
        ctx.seconds,
        done.epoch,
        &mut truth,
        report,
    )?;
    for (verb, name) in [
        (Verb::Sample, "serve.sample_p50_us"),
        (Verb::Status, "serve.status_p50_us"),
        (Verb::FlipLeaders, "serve.flip_leaders_p50_us"),
        (Verb::Engine, "serve.engine_p50_us"),
        (Verb::Recommend, "serve.recommend_p50_us"),
    ] {
        let p50 = probe(
            &daemon,
            &mut query_mix,
            verb,
            done.epoch,
            &mut truth,
            report,
        )?;
        report.set(name, p50);
    }
    daemon.stop()?;

    report.set("loadgen.late_p99_us", percentile(&after.late_us, 99.0));
    report.set("loadgen.sent", sent as f64);
    let asked = (during.found + during.not_found).max(1);
    report.set("serve.found_ratio", during.found as f64 / asked as f64);
    report.set("serve.epochs", done.epoch as f64);
    report.set(
        "serve.cache_hit_ratio",
        done.cache_hits as f64 / (done.cache_hits + done.cache_misses).max(1) as f64,
    );
    let backlog = polled
        .statuses
        .iter()
        .map(|st| st.accepted.saturating_sub(st.reports))
        .max()
        .unwrap_or(0);
    report.set("serve.backlog_reports_max", backlog as f64);

    let daemon_body = oracle::split_epoch(&results).map_or("", |(_, body)| body);
    let counts = trace::repeat(report, ctx.seconds, 1, ingest_ms, |t| {
        let (results, counts) = replay(&sim, ctx.workers, t);
        Ok((oracle::results_body(&results) == daemon_body, counts))
    })?;
    crate::batch::collector_counts(report, &counts.collector);
    report.set("store.bytes", counts.bytes as f64);
    report.set("store.segments", counts.segments as f64);
    report.set("incremental.segments", counts.segments as f64);
    report.set("table.rows", counts.rows as f64);
    Ok(())
}

/// Counts the replay accumulates.
#[derive(Default)]
struct ReplayCounts {
    collector: IngestStats,
    bytes: u64,
    segments: u64,
    rows: u64,
}

/// The replay's state: one slot-local study per ingest slot (as the
/// daemon's shard workers keep them), the merger's slot tree, and one
/// reused decode arena.
struct Replay<'a> {
    studies: Vec<IncrementalStudy<'a>>,
    partitions: Vec<Vec<PartitionStats>>,
    tree: SlotMergeTree,
    arena: DecodeArena,
    counts: ReplayCounts,
    window_start: Timestamp,
    workers: usize,
}

impl<'a> Replay<'a> {
    fn new(sim: &'a VirusTotalSim, workers: usize) -> Self {
        let window_start = sim.config().window_start();
        let studies = (0..SLOTS)
            .map(|slot| {
                IncrementalStudy::new(sim.fleet(), window_start)
                    .with_workers(workers)
                    .with_index()
                    .with_alerts(AlertConfig {
                        slot: slot as u32,
                        ..AlertConfig::default()
                    })
            })
            .collect();
        Self {
            studies,
            partitions: vec![Vec::new(); SLOTS],
            tree: SlotMergeTree::new(SLOTS),
            arena: DecodeArena::new(),
            counts: ReplayCounts::default(),
            window_start,
            workers,
        }
    }

    /// One sealed segment through the shard worker and the merger:
    /// container round trip, arena decode, table, fold, slot re-merge,
    /// finish.
    fn publish(&mut self, slot: usize, segment: &Segment, t: &mut Trace) -> StudyResults {
        let bytes = t.span("store.encode_ms", || {
            let mut buf = Vec::new();
            write_segment(segment, &mut buf).expect("in-memory segment write");
            buf
        });
        let arena = &mut self.arena;
        let segment = t.span("store.decode_ms", || {
            let segment = read_segment(&mut bytes.as_slice()).expect("own segment re-reads");
            arena.clear();
            segment.store().for_each_row(arena);
            segment
        });
        let table = t.span("table.build_ms", || {
            TrajectoryTable::build_from_arena(arena, self.window_start, self.workers, Obs::noop())
        });
        let study = &mut self.studies[slot];
        t.span("incremental.fold_ms", || {
            study.fold_table(&table, Obs::noop());
            study.take_alerts();
        });
        let (tree, partitions) = (&mut self.tree, &mut self.partitions[slot]);
        t.span("incremental.merge_ms", || {
            merge_partition_stats(partitions, &segment.store().partition_stats());
            tree.update_slot(slot, study.partials().cloned(), partitions.clone());
        });
        let results = t.span("incremental.finish_ms", || {
            let root = tree.root().expect("a slot was just folded");
            root.finish(tree.root_partitions().to_vec(), Obs::noop())
        });
        self.counts.bytes += bytes.len() as u64;
        self.counts.segments += 1;
        self.counts.rows += table.report_rows() as u64;
        results
    }
}

/// The daemon's ingest path, serially and in-process: per 1 024-sample
/// chunk, simulate the chaos feed, run the collector, group by sample,
/// route by hash to the slot's segment writer, and publish each sealed
/// segment ([`Replay::publish`]); then drain the writers.
fn replay(sim: &VirusTotalSim, workers: usize, t: &mut Trace) -> (StudyResults, ReplayCounts) {
    let plan = daemon_plan(sim.config().seed);
    let mut writers: Vec<Option<SegmentWriter>> = (0..SLOTS)
        .map(|_| Some(SegmentWriter::resuming(SEGMENT_REPORTS, 0)))
        .collect();
    let mut state = Replay::new(sim, workers);
    let mut last = None;
    let mut start = 0;
    while start < SERVE_SAMPLES {
        let end = (start + CHUNK_SAMPLES).min(SERVE_SAMPLES);
        let feed = t.span("sim.busy_ms", || {
            FaultyFeed::from_sim(sim, start..end, plan)
        });
        let outcome = t.span("collector.busy_ms", || {
            Collector::default().run_with_obs(feed, Obs::noop())
        });
        add_stats(&mut state.counts.collector, &outcome.stats);
        let groups = t.span("store.decode_ms", || outcome.store.group_by_sample());
        for (hash, reports) in groups {
            let slot = (hash.0 % SLOTS as u128) as usize;
            let writer = writers[slot]
                .as_mut()
                .expect("writers drain once, at the end");
            if let Some(segment) = t.span("store.encode_ms", || writer.push_sample(&reports)) {
                last = Some(state.publish(slot, &segment, t));
            }
        }
        start = end;
    }
    for (slot, writer) in writers.iter_mut().enumerate() {
        let writer = writer.take().expect("each writer drains once");
        if let Some(segment) = t.span("store.encode_ms", || writer.finish()) {
            last = Some(state.publish(slot, &segment, t));
        }
    }
    let results = last.expect("the feed sealed at least one segment");
    (results, state.counts)
}

fn add_stats(acc: &mut IngestStats, s: &IngestStats) {
    acc.accepted += s.accepted;
    acc.deduped += s.deduped;
    acc.quarantined += s.quarantined;
    acc.lost_entries += s.lost_entries;
}
