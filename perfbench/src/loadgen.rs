//! Open-loop load generator: one pipelined connection, one sender and
//! one receiver thread.
//!
//! Requests are due on a schedule the seed fixes before the run;
//! the sender never waits for an answer, so a slow daemon cannot slow
//! the arrivals (independent users make an open loop). Each request's
//! latency runs from when it was *due*, not when it was sent, so a
//! stall in the sender or the daemon is charged to every request queued
//! behind it; how late the sender ran is reported on its own.
//!
//! [`closed_loop`] is the other shape: one request at a time, each timed
//! from its send, to price a verb on its own.

use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The wire verbs the benchmark sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verb {
    /// `{"cmd":"sample","hash":H}` for a Zipf-drawn sample.
    Sample,
    /// `{"cmd":"status"}`; the poll's verb, and how a run notices
    /// `ingest_done`.
    Status,
    /// `{"cmd":"flip_leaders","k":10}`.
    FlipLeaders,
    /// `{"cmd":"engine","name":N}` for a uniformly drawn engine.
    Engine,
    /// `{"cmd":"recommend"}`.
    Recommend,
}

/// One request the mix produced: its verb, the ordinal it names (the
/// sample ordinal or engine index; 0 otherwise) and its wire line.
#[derive(Debug, Clone)]
pub struct Request {
    /// Wire verb.
    pub verb: Verb,
    /// Sample ordinal or engine index the request names.
    pub arg: u64,
    /// The request line, without its newline.
    pub line: String,
}

/// SplitMix64: the benchmark's seeded generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and stream `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Zipf(s) popularity over `n` items, each rank mapped to an item by a
/// seeded permutation (so the hot items are not the first ordinals the
/// feed delivers).
#[derive(Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
    items: Vec<u64>,
}

impl Zipf {
    /// Popularity `1 / rank^s` over `n` items, permuted by `rng`.
    pub fn new(n: u64, s: f64, rng: &mut Rng) -> Self {
        let mut acc = 0.0;
        let mut cdf = Vec::with_capacity(n as usize);
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        let mut items: Vec<u64> = (0..n).collect();
        for i in (1..items.len()).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
        Self { cdf, items }
    }

    /// Draws one item.
    pub fn draw(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        let rank = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1);
        self.items[rank]
    }
}

/// Due times of a Poisson arrival process at `rate` per second.
#[derive(Debug)]
pub struct Schedule {
    rng: Rng,
    rate: f64,
    next: Duration,
}

impl Schedule {
    /// Arrivals at `rate` per second, the first one due at zero.
    pub fn new(rate: f64, rng: Rng) -> Self {
        Self {
            rng,
            rate,
            next: Duration::ZERO,
        }
    }

    /// The next due time, as an offset from the start of the run.
    pub fn next_due(&mut self) -> Duration {
        let due = self.next;
        let gap = -self.rng.unit().ln() / self.rate;
        self.next += Duration::from_secs_f64(gap);
        due
    }
}

/// When the sender stops issuing requests.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After the schedule passes this offset.
    At(Duration),
    /// When a [`Poll`] answer reports `ingest_done` (or at the limit).
    IngestDone(Duration),
}

impl Stop {
    /// Whether a request due at `due` is past the stop, given whether a
    /// poll has reported `ingest_done`.
    fn reached(self, due: Duration, ingest_done: bool) -> bool {
        match self {
            Stop::At(end) => due >= end,
            Stop::IngestDone(limit) => ingest_done || due >= limit,
        }
    }
}

/// One request's life: due, sent and answered offsets from the start
/// of the run, and the raw answer (checked after the run, so checking
/// never delays the receiver).
#[derive(Debug, Clone)]
pub struct Record {
    /// Wire verb.
    pub verb: Verb,
    /// Sample ordinal or engine index.
    pub arg: u64,
    /// When the schedule said to send it.
    pub due: Duration,
    /// When it was written to the socket.
    pub sent: Duration,
    /// When its answer arrived; `None` if none did.
    pub answered: Option<Duration>,
    /// The answer line.
    pub response: String,
}

impl Record {
    /// Due-to-answer latency in microseconds, if answered.
    pub fn latency_us(&self) -> Option<f64> {
        self.answered
            .map(|a| a.saturating_sub(self.due).as_secs_f64() * 1e6)
    }

    /// How late the sender wrote it, in microseconds.
    pub fn late_us(&self) -> f64 {
        self.sent.saturating_sub(self.due).as_secs_f64() * 1e6
    }
}

/// What one open-loop run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Every request of the open-loop mix, in send order.
    pub records: Vec<Record>,
    /// Every `status` poll, in send order.
    pub polls: Vec<Record>,
    /// When a poll first reported `ingest_done`.
    pub ingest_done_at: Option<Duration>,
}

/// A `status` poll on a connection of its own, every `period` from the
/// start of the run, with at most one poll outstanding. The sender
/// writes each poll when it falls due and picks its answer up without
/// blocking whenever it wakes, so the run needs no third thread and a
/// slow `status` answer never holds back the mix's schedule. A poll
/// falls due only once the previous one was answered; the answer's
/// arrival is seen at the sender's next wake-up, so poll latencies are
/// coarse and are not reported.
pub struct Poll {
    /// The poll's connection.
    pub stream: TcpStream,
    /// Time between polls.
    pub period: Duration,
}

const STATUS_LINE: &str = "{\"cmd\":\"status\"}";

/// The sender's side of a [`Poll`]: its non-blocking connection, the
/// bytes of an answer read so far, and the poll in flight.
struct Poller {
    stream: TcpStream,
    buf: Vec<u8>,
    period: Duration,
    next_due: Duration,
    /// Due and sent offsets of the poll awaiting its answer.
    outstanding: Option<(Duration, Duration)>,
    records: Vec<Record>,
    ingest_done_at: Option<Duration>,
    closed: bool,
}

impl Poller {
    fn new(poll: Poll) -> io::Result<Self> {
        poll.stream.set_nodelay(true)?;
        poll.stream.set_nonblocking(true)?;
        Ok(Self {
            stream: poll.stream,
            buf: Vec::new(),
            period: poll.period,
            next_due: Duration::ZERO,
            outstanding: None,
            records: Vec::new(),
            ingest_done_at: None,
            closed: false,
        })
    }

    /// When the sender must next wake for the poll: its due time, or
    /// never while one is outstanding (its answer is picked up at the
    /// mix's next wake-up).
    fn wake_at(&self) -> Option<Duration> {
        (self.outstanding.is_none() && !self.closed).then_some(self.next_due)
    }

    /// Takes in an answer that arrived, then writes the next poll if it
    /// is due. Never blocks.
    fn step(&mut self, start: Instant) {
        if self.outstanding.is_some() {
            self.collect(start);
        }
        let now = start.elapsed();
        if self.closed || self.outstanding.is_some() || now < self.next_due {
            return;
        }
        let line = format!("{STATUS_LINE}\n");
        match self.stream.write(line.as_bytes()) {
            Ok(n) if n == line.len() => self.outstanding = Some((self.next_due, now)),
            _ => self.fail(self.next_due, now),
        }
        self.next_due += self.period;
    }

    /// Reads what has arrived; records the answer once its line is
    /// complete. End of stream or a read error closes the poll.
    fn collect(&mut self, start: Instant) {
        let mut chunk = [0u8; 4096];
        while !self.closed {
            match self.stream.read(&mut chunk) {
                Ok(0) => self.closed = true,
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => self.closed = true,
            }
        }
        let Some(end) = self.buf.iter().position(|&b| b == b'\n') else {
            return;
        };
        let line: Vec<u8> = self.buf.drain(..=end).collect();
        let Some((due, sent)) = self.outstanding.take() else {
            return;
        };
        let response = String::from_utf8_lossy(&line).trim_end().to_string();
        let answered = start.elapsed();
        // Slots that passed while the poll was outstanding are skipped.
        while self.next_due < answered {
            self.next_due += self.period;
        }
        if self.ingest_done_at.is_none() && response.contains("\"ingest_done\":true") {
            self.ingest_done_at = Some(answered);
        }
        self.records.push(Record {
            verb: Verb::Status,
            arg: 0,
            due,
            sent,
            answered: Some(answered),
            response,
        });
    }

    fn fail(&mut self, due: Duration, sent: Duration) {
        self.closed = true;
        self.records.push(Record {
            verb: Verb::Status,
            arg: 0,
            due,
            sent,
            answered: None,
            response: String::new(),
        });
    }

    /// Waits up to `drain` for the outstanding poll's answer, then closes
    /// the connection. An answer that does not come is kept as a failure.
    fn finish(mut self, start: Instant, drain: Duration) -> (Vec<Record>, Option<Duration>) {
        let deadline = Instant::now() + drain;
        self.collect(start);
        while self.outstanding.is_some() && !self.closed && Instant::now() < deadline {
            std::thread::sleep(Duration::from_micros(200));
            self.collect(start);
        }
        if let Some((due, sent)) = self.outstanding.take() {
            self.fail(due, sent);
        }
        let _ = self.stream.shutdown(Shutdown::Both);
        (self.records, self.ingest_done_at)
    }
}

/// One connection used closed-loop: each request is answered before the
/// next is written.
struct Caller {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Caller {
    fn new(stream: TcpStream) -> io::Result<Self> {
        stream.set_nodelay(true)?;
        Ok(Self {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Sends `req`, waits for its answer, and records both, timed from
    /// the send. A failed write or read leaves `answered` empty.
    fn call(&mut self, req: Request, start: Instant) -> Record {
        let sent = start.elapsed();
        let mut response = String::new();
        let answered = self
            .writer
            .write_all(format!("{}\n", req.line).as_bytes())
            .and_then(|()| self.reader.read_line(&mut response))
            .ok()
            .filter(|&n| n > 0)
            .map(|_| start.elapsed());
        Record {
            verb: req.verb,
            arg: req.arg,
            due: sent,
            sent,
            answered,
            response: response.trim_end().to_string(),
        }
    }
}

struct Pending {
    verb: Verb,
    arg: u64,
    due: Duration,
    sent: Duration,
}

fn sleep_until(start: Instant, due: Duration) {
    let now = start.elapsed();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// Runs one open-loop phase over `stream`, starting the schedule at
/// `start`. `next` yields each request in schedule order with its due
/// offset; `poll`, if given, polls `status` beside it. Blocks until
/// every answer arrived or `drain` passed after the last send;
/// unanswered requests come back with `answered: None`.
pub fn run(
    stream: TcpStream,
    poll: Option<Poll>,
    start: Instant,
    mut next: impl FnMut() -> (Duration, Request),
    stop: Stop,
    drain: Duration,
) -> io::Result<Outcome> {
    stream.set_nodelay(true)?;
    let mut poller = poll.map(Poller::new).transpose()?;
    let pending: Arc<Mutex<VecDeque<Pending>>> = Arc::new(Mutex::new(VecDeque::new()));
    let answered = Arc::new(AtomicU64::new(0));
    let reader = BufReader::with_capacity(1 << 16, stream.try_clone()?);
    let receiver = {
        let (pending, answered) = (Arc::clone(&pending), Arc::clone(&answered));
        std::thread::spawn(move || receive(reader, start, &pending, &answered))
    };

    let mut writer = stream;
    let mut sent = 0u64;
    loop {
        let (due, req) = next();
        // Serve the poll while the read is not yet due.
        let stopped = loop {
            if let Some(p) = poller.as_mut() {
                p.step(start);
            }
            let done = poller.as_ref().is_some_and(|p| p.ingest_done_at.is_some());
            if stop.reached(due, done) {
                break true;
            }
            let wake = poller
                .as_ref()
                .and_then(Poller::wake_at)
                .map_or(due, |at| at.min(due));
            if wake >= due && start.elapsed() >= due {
                break false;
            }
            sleep_until(start, wake);
        };
        if stopped {
            break;
        }
        let sent_at = start.elapsed();
        pending
            .lock()
            .expect("receiver never panics holding the queue")
            .push_back(Pending {
                verb: req.verb,
                arg: req.arg,
                due,
                sent: sent_at,
            });
        let mut line = req.line;
        line.push('\n');
        if writer.write_all(line.as_bytes()).is_err() {
            break;
        }
        sent += 1;
    }
    let deadline = Instant::now() + drain;
    while answered.load(Ordering::SeqCst) < sent && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    // Closing our half makes the daemon close the connection, which ends
    // the receiver's read loop.
    let _ = writer.shutdown(Shutdown::Both);
    let (polls, ingest_done_at) = match poller {
        Some(p) => p.finish(start, drain),
        None => (Vec::new(), None),
    };
    let mut records = receiver.join().expect("receiver thread panicked");
    let leftover = pending
        .lock()
        .expect("receiver has exited")
        .drain(..)
        .map(|p| Record {
            verb: p.verb,
            arg: p.arg,
            due: p.due,
            sent: p.sent,
            answered: None,
            response: String::new(),
        })
        .collect::<Vec<_>>();
    records.extend(leftover);
    Ok(Outcome {
        records,
        polls,
        ingest_done_at,
    })
}

/// The receiver: timestamps each answer line and pairs it, in order,
/// with the oldest request still waiting.
fn receive(
    mut reader: BufReader<TcpStream>,
    start: Instant,
    pending: &Mutex<VecDeque<Pending>>,
    answered: &AtomicU64,
) -> Vec<Record> {
    let mut records = Vec::new();
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let at = start.elapsed();
        let Some(p) = pending
            .lock()
            .expect("sender never panics holding the queue")
            .pop_front()
        else {
            // An answer nobody asked for (an eviction notice): stop.
            break;
        };
        records.push(Record {
            verb: p.verb,
            arg: p.arg,
            due: p.due,
            sent: p.sent,
            answered: Some(at),
            response: line.trim_end().to_string(),
        });
        answered.fetch_add(1, Ordering::SeqCst);
    }
    records
}

/// Sends `count` requests from `next` one at a time over `stream`, each
/// after the previous answer arrived, and times each from its send.
/// A closed loop prices each answer alone: nothing is queued behind it
/// and no earlier answer is left unacknowledged.
pub fn closed_loop(
    stream: TcpStream,
    count: usize,
    mut next: impl FnMut() -> Request,
) -> io::Result<Vec<Record>> {
    let mut caller = Caller::new(stream)?;
    let start = Instant::now();
    let mut records = Vec::with_capacity(count);
    for _ in 0..count {
        let record = caller.call(next(), start);
        let answered = record.answered.is_some();
        records.push(record);
        if !answered {
            break;
        }
    }
    let _ = caller.writer.shutdown(Shutdown::Both);
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{SocketAddr, TcpListener};
    use std::thread::JoinHandle;

    fn echo_request(line: &str) -> Request {
        Request {
            verb: Verb::Status,
            arg: 0,
            line: line.to_string(),
        }
    }

    /// A one-connection echo server. It answers request `stall_at`
    /// after sleeping `stall` and every other request at once, and sets
    /// `TCP_NODELAY` on its socket when `nodelay` holds.
    fn echo_server(
        nodelay: bool,
        stall_at: usize,
        stall: Duration,
    ) -> (SocketAddr, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            stream.set_nodelay(nodelay).expect("nodelay");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let mut writer = stream;
            let mut line = String::new();
            let mut n = 0;
            while reader.read_line(&mut line).expect("read") > 0 {
                if n == stall_at {
                    std::thread::sleep(stall);
                }
                writer.write_all(line.as_bytes()).expect("write");
                line.clear();
                n += 1;
            }
        });
        (addr, server)
    }

    /// Runs requests `r1, r2, ...` due every `gap` until `end` against
    /// the server at `addr`.
    fn run_every(addr: SocketAddr, gap: Duration, end: Duration) -> Outcome {
        let mut i = 0u32;
        run(
            TcpStream::connect(addr).expect("connect"),
            None,
            Instant::now(),
            || {
                let due = gap * i;
                i += 1;
                (due, echo_request(&format!("r{i}")))
            },
            Stop::At(end),
            Duration::from_secs(5),
        )
        .expect("run")
    }

    /// Median latency, in microseconds, of the answered records from
    /// index `from` on.
    fn median_latency_us(outcome: &Outcome, from: usize) -> f64 {
        let mut latencies: Vec<f64> = outcome.records[from..]
            .iter()
            .map(|r| r.latency_us().expect("answered"))
            .collect();
        latencies.sort_by(f64::total_cmp);
        latencies[latencies.len() / 2]
    }

    #[test]
    fn poisson_schedule_is_seeded_and_has_the_requested_rate() {
        let mut a = Schedule::new(1_000.0, Rng::new(7, 1));
        let mut b = Schedule::new(1_000.0, Rng::new(7, 1));
        let due_a: Vec<Duration> = (0..20_000).map(|_| a.next_due()).collect();
        let due_b: Vec<Duration> = (0..20_000).map(|_| b.next_due()).collect();
        assert_eq!(due_a, due_b);
        assert_eq!(due_a[0], Duration::ZERO);
        assert!(due_a.windows(2).all(|w| w[0] <= w[1]));
        let rate = 20_000.0 / due_a[19_999].as_secs_f64();
        assert!((950.0..1_050.0).contains(&rate), "rate {rate}");
    }

    #[test]
    fn zipf_prefers_a_few_items() {
        let mut rng = Rng::new(3, 0);
        let zipf = Zipf::new(1_000, 1.0, &mut rng);
        let mut counts = vec![0u32; 1_000];
        for _ in 0..50_000 {
            counts[zipf.draw(&mut rng) as usize] += 1;
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        // Under Zipf(1.0) over 1 000 items the top item takes ~13%.
        assert!(counts[0] > 5_000 && counts[0] < 8_500, "{}", counts[0]);
    }

    /// A stalled server must not slow the schedule: requests stay due at
    /// their scheduled offsets, and the stall shows as latency on every
    /// request queued behind it, timed from its due time.
    #[test]
    fn stalls_are_charged_from_the_due_time() {
        let stall = Duration::from_millis(150);
        let (addr, server) = echo_server(true, 0, stall);
        let gap = Duration::from_millis(10);
        let outcome = run_every(addr, gap, Duration::from_millis(300));
        server.join().expect("server");
        let records = &outcome.records;
        assert_eq!(records.len(), 30);
        for (k, r) in records.iter().enumerate() {
            assert_eq!(r.due, gap * k as u32, "schedule moved");
            assert_eq!(r.response, format!("r{}", k + 1), "answers pair in order");
            assert!(r.late_us() < 50_000.0, "sender ran {}us late", r.late_us());
        }
        // Request k was due at 10k ms; the first answer left at ~150ms,
        // so every request due before then waited for the stall.
        for r in records.iter().take(10) {
            let waited = (stall.saturating_sub(r.due)).as_secs_f64() * 1e6;
            assert!(r.latency_us().expect("answered") >= waited * 0.95);
        }
        assert!(median_latency_us(&outcome, 20) < 2_000.0);
        assert!(outcome.ingest_done_at.is_none());
    }

    /// An echo server that answers at once must be timed at well under
    /// the arrival gap: the generator itself adds no wait for the next
    /// request to the latency it reports.
    #[test]
    fn instant_answers_are_not_charged_the_gap() {
        let (addr, server) = echo_server(true, usize::MAX, Duration::ZERO);
        let outcome = run_every(addr, Duration::from_millis(10), Duration::from_millis(300));
        server.join().expect("server");
        assert_eq!(outcome.records.len(), 30);
        let p50 = median_latency_us(&outcome, 0);
        assert!(p50 < 2_000.0, "median {p50}us at 10ms gaps");
    }

    /// Nagle's algorithm on the server's socket, over loopback TCP. The
    /// server holds each small answer while an earlier one is
    /// unacknowledged. Once one slow answer lets the next request go out
    /// before it arrived, the client's ACK of every answer rides on its
    /// next request, so each later answer waits for the next arrival:
    /// latency becomes the gap. With `TCP_NODELAY` on the server the same
    /// run answers well under the gap. `nagle_probe.py` shows the same on
    /// `vtld serve`.
    #[test]
    fn a_nagle_server_answers_at_the_next_request() {
        let gap = Duration::from_millis(10);
        let stall = Duration::from_millis(15);
        let (addr, server) = echo_server(false, 3, stall);
        let nagle = run_every(addr, gap, Duration::from_millis(400));
        server.join().expect("server");
        let (addr, server) = echo_server(true, 3, stall);
        let nodelay = run_every(addr, gap, Duration::from_millis(400));
        server.join().expect("server");
        let (nagle_p50, nodelay_p50) = (
            median_latency_us(&nagle, 10),
            median_latency_us(&nodelay, 10),
        );
        assert!(
            nagle_p50 > 8_000.0,
            "Nagle server: median {nagle_p50}us at 10ms gaps"
        );
        assert!(
            nodelay_p50 < 2_000.0,
            "TCP_NODELAY server: median {nodelay_p50}us"
        );
    }

    #[test]
    fn unanswered_requests_are_kept_as_failures() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let mut writer = stream;
            let mut line = String::new();
            // Answer the first request only, then read and drop the rest.
            reader.read_line(&mut line).expect("read");
            writer.write_all(line.as_bytes()).expect("write");
            while reader.read_line(&mut line).unwrap_or(0) > 0 {}
        });
        let mut i = 0u32;
        let outcome = run(
            TcpStream::connect(addr).expect("connect"),
            None,
            Instant::now(),
            || {
                i += 1;
                (Duration::from_millis(u64::from(i)), echo_request("x"))
            },
            Stop::At(Duration::from_millis(5)),
            Duration::from_millis(200),
        )
        .expect("run");
        server.join().expect("server");
        let answered = outcome
            .records
            .iter()
            .filter(|r| r.answered.is_some())
            .count();
        assert_eq!(answered, 1);
        assert_eq!(outcome.records.len(), 4);
    }

    /// The poll runs on its own connection at its period, and
    /// `Stop::IngestDone` ends the mix at the first wake-up after a poll
    /// answer reports `ingest_done`.
    #[test]
    fn polls_stop_the_mix_at_ingest_done() {
        let (mix_addr, mix_server) = echo_server(true, usize::MAX, Duration::ZERO);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let poll_addr = listener.local_addr().expect("addr");
        let poll_server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            stream.set_nodelay(true).expect("nodelay");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let mut writer = stream;
            let mut line = String::new();
            let mut n = 0;
            while reader.read_line(&mut line).expect("read") > 0 {
                n += 1;
                let answer = format!("{{\"ingest_done\":{}}}\n", n >= 3);
                writer.write_all(answer.as_bytes()).expect("write");
                line.clear();
            }
        });
        let period = Duration::from_millis(20);
        let gap = Duration::from_millis(5);
        let mut i = 0u32;
        let outcome = run(
            TcpStream::connect(mix_addr).expect("connect"),
            Some(Poll {
                stream: TcpStream::connect(poll_addr).expect("connect"),
                period,
            }),
            Instant::now(),
            || {
                let due = gap * i;
                i += 1;
                (due, echo_request(&format!("r{i}")))
            },
            Stop::IngestDone(Duration::from_secs(5)),
            Duration::from_secs(5),
        )
        .expect("run");
        mix_server.join().expect("mix server");
        poll_server.join().expect("poll server");
        assert_eq!(outcome.polls.len(), 3);
        for (k, p) in outcome.polls.iter().enumerate() {
            assert_eq!(p.due, period * k as u32);
            assert_eq!(p.verb, Verb::Status);
        }
        let done = outcome
            .ingest_done_at
            .expect("third poll reports ingest_done");
        assert!(done >= period * 2);
        // Reads due at 0, 5, ..., 40 ms went out: the third poll's
        // answer, written at 40 ms, is seen when the sender wakes for the
        // read due at 45 ms, which stays unsent.
        assert_eq!(outcome.records.len(), 9);
        assert!(outcome.records.iter().all(|r| r.answered.is_some()));
    }

    /// A poll answer that takes longer than many arrival gaps neither
    /// delays the mix's sends nor is lost, and no second poll goes out
    /// while it is outstanding.
    #[test]
    fn a_slow_poll_does_not_delay_the_mix() {
        let (mix_addr, mix_server) = echo_server(true, usize::MAX, Duration::ZERO);
        let (poll_addr, poll_server) = echo_server(true, 0, Duration::from_millis(100));
        let gap = Duration::from_millis(5);
        let mut i = 0u32;
        let outcome = run(
            TcpStream::connect(mix_addr).expect("connect"),
            Some(Poll {
                stream: TcpStream::connect(poll_addr).expect("connect"),
                period: Duration::from_millis(20),
            }),
            Instant::now(),
            || {
                let due = gap * i;
                i += 1;
                (due, echo_request(&format!("r{i}")))
            },
            Stop::At(Duration::from_millis(150)),
            Duration::from_secs(5),
        )
        .expect("run");
        mix_server.join().expect("mix server");
        poll_server.join().expect("poll server");
        assert_eq!(outcome.records.len(), 30);
        for r in &outcome.records {
            assert!(r.late_us() < 20_000.0, "sender ran {}us late", r.late_us());
        }
        let first = &outcome.polls[0];
        assert_eq!(first.response, STATUS_LINE);
        assert!(first.latency_us().expect("answered") >= 95_000.0);
        // Polls fall due every 20 ms once the first was answered at about
        // 100 ms, so the next is due at 100 or 120 ms, not at 20 ms.
        assert!(outcome.polls[1].due >= Duration::from_millis(100));
        assert!(outcome.polls.iter().all(|p| p.answered.is_some()));
    }

    #[test]
    fn closed_loop_times_each_request_from_its_send() {
        let (addr, server) = echo_server(true, 2, Duration::from_millis(30));
        let mut i = 0u32;
        let records = closed_loop(TcpStream::connect(addr).expect("connect"), 5, || {
            i += 1;
            echo_request(&format!("c{i}"))
        })
        .expect("closed loop");
        server.join().expect("server");
        assert_eq!(records.len(), 5);
        for (k, r) in records.iter().enumerate() {
            assert_eq!(r.response, format!("c{}", k + 1));
            assert_eq!(r.due, r.sent, "timed from the send");
        }
        // Only the stalled request carries the stall.
        assert!(records[2].latency_us().expect("answered") >= 28_000.0);
        assert!(records[3].latency_us().expect("answered") < 28_000.0);
    }
}
