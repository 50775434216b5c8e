//! `perfbench` — the repository benchmark: `vtld study`, `vtld analyze`
//! and `vtld serve` end to end (tracing off, fresh processes), and a
//! separate traced run per workload that splits the time across the
//! repository's layers. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --vtld PATH --work-dir DIR --workload W --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the line before it
//! records the workload, seed, `nproc` and commit. A human-readable
//! report goes to standard error.

mod batch;
mod loadgen;
mod metrics;
mod oracle;
mod proc;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use metrics::Report;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["study", "analyze", "serve_query"];

/// What every workload needs: the binary under test, a scratch
/// directory, the seed, the run length and the worker count the CLI
/// defaults to.
pub struct Ctx {
    /// The `vtld` binary built from this checkout.
    pub vtld: PathBuf,
    /// Scratch directory for this run (removed at the end).
    pub work: PathBuf,
    /// The workload seed.
    pub seed: u64,
    /// How long the measured phase lasts.
    pub seconds: f64,
    /// Worker threads (`vtld`'s default: one per core).
    pub workers: usize,
}

impl Ctx {
    /// The simulator's platform seed for this run's inputs.
    pub fn sim_seed(&self) -> u64 {
        0x7e57_0000 ^ self.seed.wrapping_mul(0x9E37_79B9)
    }
}

struct Args {
    vtld: PathBuf,
    work_root: PathBuf,
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let get = |key: &str| -> Result<String, String> {
        let i = args
            .iter()
            .position(|a| a == key)
            .ok_or_else(|| format!("missing {key}"))?;
        args.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{key} needs a value"))
    };
    let number = |key: &str, v: String| -> Result<u64, String> {
        v.parse()
            .map_err(|_| format!("{key} expects an integer, got '{v}'"))
    };
    let workload = get("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (one of {WORKLOADS:?})"
        ));
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace expects 0 or 1, got '{other}'")),
    };
    Ok(Args {
        vtld: PathBuf::from(get("--vtld")?),
        work_root: PathBuf::from(get("--work-dir")?),
        seed: number("--seed", get("--seed")?)?,
        seconds: number("--seconds", get("--seconds")?)?.max(1),
        workload,
        trace,
    })
}

/// Reason given for every per-layer metric a workload does not touch.
const NOT_ON_PATH: &str = "this workload does not call the layer";

fn run(args: &Args, report: &mut Report) -> std::io::Result<()> {
    let ctx = Ctx {
        vtld: args.vtld.clone(),
        work: proc::scratch_dir(&args.work_root, &args.workload)?,
        seed: args.seed,
        seconds: args.seconds as f64,
        workers: vt_label_dynamics::dynamics::par::default_workers(),
    };
    let outcome = match (args.workload.as_str(), args.trace) {
        ("study", false) => batch::study(&ctx, report),
        ("study", true) => batch::study_trace(&ctx, report),
        ("analyze", false) => batch::analyze(&ctx, report),
        ("analyze", true) => batch::analyze_trace(&ctx, report),
        ("serve_query", false) => serve::serve_query(&ctx, report),
        ("serve_query", true) => serve::serve_query_trace(&ctx, report),
        _ => unreachable!("workload names are validated at parse time"),
    };
    let cleaned = std::fs::remove_dir_all(&ctx.work);
    outcome.and(cleaned)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let context = metrics::context_line(
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
        nproc,
        &metrics::commit(std::path::Path::new(".")),
    );
    eprintln!("{context}");
    let mut report = Report::default();
    if let Err(e) = run(&args, &mut report) {
        eprintln!("perfbench: {} failed: {e}", args.workload);
        return ExitCode::FAILURE;
    }
    let (roster, default_why) = if args.trace {
        (metrics::per_layer(), Some(NOT_ON_PATH))
    } else {
        (metrics::END_TO_END.to_vec(), None)
    };
    let line = report.finish(&roster, default_why);
    eprint!(
        "perfbench: {} (trace {}): {} attempted, {} failed\n{}",
        args.workload,
        u8::from(args.trace),
        report.attempted,
        report.failed,
        report.render(&roster)
    );
    println!("{context}");
    println!("{line}");
    ExitCode::SUCCESS
}
