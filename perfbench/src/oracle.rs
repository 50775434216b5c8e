//! Output oracles. Every answer the benchmark times is checked here,
//! after the timed phase, against a computation that does not share the
//! path under test.

use std::collections::HashMap;

use vt_label_dynamics::dynamics::{IncrementalStudy, Study, StudyResults};
use vt_label_dynamics::obs::json::{self, Value};
use vt_label_dynamics::obs::Obs;
use vt_label_dynamics::report::experiments::render_full_report;
use vt_label_dynamics::sim::{SimConfig, VirusTotalSim};

/// FNV-1a over a byte string: the digest batch outputs are compared by.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Chunks the reference folds the record set in.
const REFERENCE_CHUNKS: usize = 4;

/// Digest of what `vtld study` (and `vtld analyze` over the store
/// `vtld simulate` writes for the same seed) must print on standard
/// output, computed through the streaming algebra instead of the batch
/// stages: the generated records are folded in [`REFERENCE_CHUNKS`]
/// segments through [`IncrementalStudy`] and finished once.
pub fn batch_reference(config: SimConfig, workers: usize) -> u64 {
    let study = Study::generate_with_workers(config, workers);
    let partitions = study.build_store().partition_stats();
    let records = study.records();
    let chunk = records.len().div_ceil(REFERENCE_CHUNKS).max(1);
    let mut incremental =
        IncrementalStudy::new(study.sim().fleet(), config.window_start()).with_workers(workers);
    for part in records.chunks(chunk) {
        incremental.fold_segment(part, Obs::noop());
    }
    let results = incremental.results(partitions, Obs::noop());
    // The CLI prints the report with `println!`.
    let text = render_full_report(&results, study.sim().fleet()) + "\n";
    fnv1a(text.as_bytes())
}

/// One sample's ground truth from the simulator: its hash, file type
/// name, per-report positives and analysis minutes in date order.
#[derive(Debug, Clone, PartialEq)]
pub struct Truth {
    /// Hex hash as the wire renders it.
    pub hash: String,
    /// File type name.
    pub file_type: String,
    /// AV-Rank per report.
    pub positives: Vec<u64>,
    /// Analysis date per report, in minutes.
    pub dates_min: Vec<i64>,
}

/// Ground truth per sample ordinal, simulated on first use.
pub struct GroundTruth<'a> {
    sim: &'a VirusTotalSim,
    cache: HashMap<u64, Truth>,
}

impl<'a> GroundTruth<'a> {
    /// Ground truth drawn from `sim`.
    pub fn new(sim: &'a VirusTotalSim) -> Self {
        Self {
            sim,
            cache: HashMap::new(),
        }
    }

    /// The trajectory the simulator generates for `ordinal`.
    pub fn get(&mut self, ordinal: u64) -> &Truth {
        let sim = self.sim;
        self.cache.entry(ordinal).or_insert_with(|| {
            let (meta, reports) = sim.sample_trajectory(ordinal);
            let mut rows: Vec<(i64, u64)> = reports
                .iter()
                .map(|r| (r.analysis_date.0, u64::from(r.positives())))
                .collect();
            rows.sort_by_key(|&(date, _)| date);
            Truth {
                hash: meta.hash.to_hex(),
                file_type: meta.file_type.name().to_string(),
                positives: rows.iter().map(|&(_, p)| p).collect(),
                dates_min: rows.iter().map(|&(d, _)| d).collect(),
            }
        })
    }
}

/// Verdict on one `sample` answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleVerdict {
    /// Found and equal to the ground truth.
    Found,
    /// Well-formed `found:false` (allowed only before `ingest_done`).
    NotFound,
    /// Malformed, an error, or different from the ground truth.
    Wrong,
}

/// Checks one `sample` answer against the simulator's ground truth: the
/// hash and file type, the report count, and the positives and analysis
/// minutes in date order.
pub fn check_sample(response: &str, truth: &Truth) -> SampleVerdict {
    let Ok(v) = json::parse(response) else {
        return SampleVerdict::Wrong;
    };
    if v.get("error").is_some() || v.get("epoch").and_then(Value::as_u64).is_none() {
        return SampleVerdict::Wrong;
    }
    if v.get("hash").and_then(Value::as_str) != Some(truth.hash.as_str()) {
        return SampleVerdict::Wrong;
    }
    match v.get("found").and_then(Value::as_bool) {
        Some(false) => return SampleVerdict::NotFound,
        Some(true) => {}
        None => return SampleVerdict::Wrong,
    }
    let numbers = |key: &str| -> Option<Vec<f64>> {
        v.get(key)?.as_array()?.iter().map(Value::as_f64).collect()
    };
    let positives: Option<Vec<u64>> =
        numbers("positives").map(|xs| xs.iter().map(|&x| x as u64).collect());
    let dates: Option<Vec<i64>> =
        numbers("dates_min").map(|xs| xs.iter().map(|&x| x as i64).collect());
    let ok = v.get("file_type").and_then(Value::as_str) == Some(truth.file_type.as_str())
        && v.get("reports").and_then(Value::as_u64) == Some(truth.positives.len() as u64)
        && positives.as_deref() == Some(truth.positives.as_slice())
        && dates.as_deref() == Some(truth.dates_min.as_slice());
    if ok {
        SampleVerdict::Found
    } else {
        SampleVerdict::Wrong
    }
}

/// The fields of a `status` answer the benchmark reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Status {
    /// Snapshot epoch.
    pub epoch: u64,
    /// Ingest finished and every sealed segment is published.
    pub ingest_done: bool,
    /// Samples folded into the published snapshot.
    pub samples: u64,
    /// Reports folded into the published snapshot.
    pub reports: u64,
    /// Reports the collector accepted so far.
    pub accepted: u64,
    /// Response-cache hits counted at publish.
    pub cache_hits: u64,
    /// Response-cache misses counted at publish.
    pub cache_misses: u64,
}

/// Parses a `status` answer; `None` if it is malformed or an error.
pub fn parse_status(response: &str) -> Option<Status> {
    let v = json::parse(response).ok()?;
    if v.get("error").is_some() {
        return None;
    }
    let n = |key: &str| v.get(key).and_then(Value::as_u64);
    Some(Status {
        epoch: n("epoch")?,
        ingest_done: v.get("ingest_done")?.as_bool()?,
        samples: n("samples")?,
        reports: n("reports")?,
        accepted: n("accepted")?,
        cache_hits: n("cache_hits")?,
        cache_misses: n("cache_misses")?,
    })
}

/// Checks a `flip_leaders` answer for `k`: at most `k` leaders, ranked
/// by flips descending.
pub fn check_flip_leaders(response: &str, k: usize) -> bool {
    let Ok(v) = json::parse(response) else {
        return false;
    };
    let Some(leaders) = v.get("leaders").and_then(Value::as_array) else {
        return false;
    };
    let flips: Option<Vec<u64>> = leaders
        .iter()
        .map(|l| l.get("flips").and_then(Value::as_u64))
        .collect();
    v.get("error").is_none()
        && leaders.len() <= k
        && flips.is_some_and(|f| f.windows(2).all(|w| w[0] >= w[1]))
}

/// Checks an `engine` answer names `name` and carries its counts.
pub fn check_engine(response: &str, name: &str) -> bool {
    let Ok(v) = json::parse(response) else {
        return false;
    };
    v.get("error").is_none()
        && v.get("engine").and_then(Value::as_str) == Some(name)
        && v.get("flips").and_then(Value::as_u64).is_some()
        && v.get("opportunities").and_then(Value::as_u64).is_some()
}

/// Checks a `recommend` answer carries a threshold and an engine list.
pub fn check_recommend(response: &str) -> bool {
    let Ok(v) = json::parse(response) else {
        return false;
    };
    let Some(r) = v.get("recommend") else {
        return false;
    };
    v.get("error").is_none()
        && r.get("threshold").and_then(Value::as_u64).is_some()
        && r.get("engines").and_then(Value::as_array).is_some()
}

/// The `results` answer's body (everything after its epoch) for a
/// finished study, in the daemon's wire layout.
pub fn results_body(r: &StudyResults) -> String {
    let c = &r.correlation_global;
    let ranks: Vec<String> = r
        .rank_stabilization
        .iter()
        .map(|x| {
            format!(
                "{{\"r\":{},\"samples\":{},\"stabilized\":{}}}",
                x.r, x.samples, x.stabilized
            )
        })
        .collect();
    let window_growth = if r.window_growth.is_finite() {
        format!("{}", r.window_growth)
    } else {
        "null".to_string()
    };
    format!(
        ",\"dataset\":{{\"samples\":{},\"reports\":{}}},\
         \"s_samples\":{},\"s_reports\":{},\
         \"stability\":{{\"stable\":{},\"dynamic\":{}}},\
         \"window_growth\":{window_growth},\
         \"flips\":{{\"total\":{},\"up\":{},\"down\":{},\"hazard\":{}}},\
         \"correlation\":{{\"engine_count\":{},\"rows\":{},\"strong_pairs\":{},\"groups\":{}}},\
         \"rank_stabilization\":[{}]}}",
        r.dataset.total_samples(),
        r.dataset.total_reports(),
        r.s_samples,
        r.s_reports,
        r.stability.stable,
        r.stability.dynamic,
        r.flips.flips,
        r.flips.flips_up,
        r.flips.flips_down,
        r.flips.hazard_flips,
        c.engine_count,
        c.rows,
        c.strong_pairs.len(),
        c.groups.len(),
        ranks.join(","),
    )
}

/// Splits a wire answer into its leading `{"epoch":N` member's epoch
/// and the rest of the answer.
pub fn split_epoch(response: &str) -> Option<(u64, &str)> {
    let rest = response.strip_prefix("{\"epoch\":")?;
    let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
    Some((rest[..digits].parse().ok()?, &rest[digits..]))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `sample` answer in the daemon's layout for `truth`.
    fn answer(truth: &Truth) -> String {
        let join = |xs: Vec<String>| xs.join(",");
        format!(
            "{{\"epoch\":3,\"hash\":\"{}\",\"found\":true,\"file_type\":\"{}\",\"reports\":{},\
             \"current_positives\":{},\"positives\":[{}],\"dates_min\":[{}]}}",
            truth.hash,
            truth.file_type,
            truth.positives.len(),
            truth.positives.last().copied().unwrap_or(0),
            join(truth.positives.iter().map(u64::to_string).collect()),
            join(truth.dates_min.iter().map(i64::to_string).collect()),
        )
    }

    #[test]
    fn the_oracle_rejects_a_corrupted_sample_answer() {
        let sim = VirusTotalSim::new(SimConfig::new(0xBE7C, 500));
        let mut truth = GroundTruth::new(&sim);
        let ordinal = (0..500)
            .find(|&o| truth.get(o).positives.len() >= 3)
            .expect("some sample has three reports");
        let t = truth.get(ordinal).clone();
        let good = answer(&t);
        assert_eq!(check_sample(&good, &t), SampleVerdict::Found);

        // One positives count off by one.
        let mut bumped = t.clone();
        bumped.positives[1] += 1;
        assert_eq!(check_sample(&answer(&bumped), &t), SampleVerdict::Wrong);
        // A report dropped.
        let mut short = t.clone();
        short.positives.pop();
        short.dates_min.pop();
        assert_eq!(check_sample(&answer(&short), &t), SampleVerdict::Wrong);
        // Two reports swapped out of date order.
        let mut swapped = t.clone();
        swapped.dates_min.swap(0, 1);
        assert_eq!(check_sample(&answer(&swapped), &t), SampleVerdict::Wrong);
        // Another sample's answer.
        let other = truth.get((ordinal + 1) % 500).clone();
        assert_eq!(check_sample(&answer(&other), &t), SampleVerdict::Wrong);
        // Typed errors and garbage.
        assert_eq!(
            check_sample("{\"epoch\":3,\"error\":\"overloaded\"}", &t),
            SampleVerdict::Wrong
        );
        assert_eq!(check_sample("not json", &t), SampleVerdict::Wrong);
        let missing = format!("{{\"epoch\":3,\"hash\":\"{}\",\"found\":false}}", t.hash);
        assert_eq!(check_sample(&missing, &t), SampleVerdict::NotFound);
    }

    #[test]
    fn status_and_verb_checks() {
        let s = parse_status(
            "{\"epoch\":4,\"segments\":2,\"samples\":10,\"reports\":30,\"accepted\":35,\
             \"ingest_done\":false,\"rejected\":0,\"evicted\":0,\"cache_hits\":1,\
             \"cache_misses\":2}",
        )
        .expect("status parses");
        assert_eq!((s.epoch, s.accepted - s.reports, s.cache_misses), (4, 5, 2));
        assert!(parse_status("{\"epoch\":1,\"error\":\"x\"}").is_none());
        assert!(check_flip_leaders(
            "{\"epoch\":1,\"k\":2,\"leaders\":[{\"flips\":5},{\"flips\":3}]}",
            2
        ));
        assert!(!check_flip_leaders(
            "{\"epoch\":1,\"k\":2,\"leaders\":[{\"flips\":3},{\"flips\":5}]}",
            2
        ));
        assert!(check_engine(
            "{\"epoch\":1,\"engine\":\"A\",\"flips\":1,\"opportunities\":2}",
            "A"
        ));
        assert!(!check_engine(
            "{\"epoch\":1,\"engine\":\"B\",\"flips\":1,\"opportunities\":2}",
            "A"
        ));
        assert_eq!(
            split_epoch("{\"epoch\":12,\"x\":1}"),
            Some((12, ",\"x\":1}"))
        );
        assert_eq!(split_epoch("{\"error\":\"x\"}"), None);
    }
}
