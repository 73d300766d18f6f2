//! The load generator: closed-loop readers and an open-loop writer, each on
//! its own connection and thread, all inside this one process.

use crate::check;
use crate::daemon::{parse_response, Conn};
use crate::trace::{Span, Tracer};
use bfhrf::RfAverage;
use bfhrf_cli::proto::{Request, Response, WireEncoding};
use std::time::{Duration, Instant};

/// The read side of a workload: pre-rendered `batch` frames (frame `k`
/// carries id `k` and queries `k*frame_len ..`) and the answer tables
/// they are checked against.
pub struct Reads<'a> {
    pub frames: &'a [String],
    pub frame_len: usize,
    pub tables: [&'a [RfAverage]; 2],
    pub encoding: Option<WireEncoding>,
}

/// What one reader connection saw.
#[derive(Default)]
pub struct ReaderReport {
    /// Round trip of each answered frame, in milliseconds.
    pub frame_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Completion time of each answered frame, from the common start.
    pub done_at: Vec<Duration>,
    /// Frames answered from an odd (base + writer trees) snapshot.
    pub odd_snaps: u64,
    pub spans: Vec<Span>,
}

/// Run `conns` closed-loop readers, each keeping one frame in flight,
/// until `window` has passed. A wrong answer aborts; a refused frame
/// counts as failed.
pub fn read_loop(
    addr: &str,
    reads: &Reads<'_>,
    conns: usize,
    start: Instant,
    window: Duration,
    tracing: bool,
) -> Result<Vec<ReaderReport>, String> {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| s.spawn(move || reader(addr, reads, c, conns, start, window, tracing)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reader thread panicked"))
            .collect()
    })
}

fn reader(
    addr: &str,
    reads: &Reads<'_>,
    first: usize,
    stride: usize,
    start: Instant,
    window: Duration,
    tracing: bool,
) -> Result<ReaderReport, String> {
    let mut conn = Conn::connect(addr)?;
    conn.hello(reads.encoding)?;
    let mut tr = Tracer::new(start, tracing);
    let mut rep = ReaderReport::default();
    let n = reads.frames.len();
    let mut k = first % n;
    while start.elapsed() < window {
        let t0 = Instant::now();
        let root = tr.open("frame", None, k as u64);
        rep.attempted += 1;
        let sp = tr.open("send", Some(root), k as u64);
        conn.send(&reads.frames[k])?;
        tr.close(sp);
        let sp = tr.open("wait", Some(root), k as u64);
        let line = conn.recv()?;
        tr.close(sp);
        let sp = tr.open("decode", Some(root), k as u64);
        let (resp, id) = parse_response(line)?;
        tr.close(sp);
        let sp = tr.open("check", Some(root), k as u64);
        if let Response::Error { .. } = resp {
            rep.failed += 1;
        } else {
            if id != Some(k as u64) {
                return Err(format!("frame {k} answered with id {id:?}"));
            }
            let snap =
                check::check_scores(&resp, k * reads.frame_len, reads.frame_len, reads.tables)
                    .map_err(|e| format!("frame {k}: {e}"))?;
            rep.odd_snaps += snap % 2;
            rep.frame_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            rep.done_at.push(start.elapsed());
        }
        tr.close(sp);
        tr.close(root);
        k = (k + stride) % n;
    }
    rep.spans = tr.spans;
    Ok(rep)
}

/// Queries answered per second in each of `slices` equal slices of the
/// window, counting the frames that completed inside each slice.
pub fn slice_rates(
    reports: &[ReaderReport],
    frame_len: usize,
    window: Duration,
    slices: usize,
) -> Vec<f64> {
    let width = window.as_secs_f64() / slices as f64;
    let mut frames = vec![0u64; slices];
    for t in reports.iter().flat_map(|r| &r.done_at) {
        let k = (t.as_secs_f64() / width) as usize;
        if k < slices {
            frames[k] += 1;
        }
    }
    frames
        .into_iter()
        .map(|f| (f * frame_len as u64) as f64 / width)
        .collect()
}

/// When the writer sends.
pub enum Schedule {
    /// Open loop: one operation every `1/rate` seconds until `window` has
    /// passed, each timed from when it was due.
    Rate { rate: f64, window: Duration },
    /// `n` add/remove pairs back to back, each timed from its send.
    Pairs(usize),
}

/// Refused writes tolerated (and counted as failed) before the run aborts.
const MAX_REFUSED_WRITES: u64 = 10;

/// What the writer saw. Operations alternate add, remove, add, ...
#[derive(Default)]
pub struct WriterReport {
    /// Latency of each operation in milliseconds, in send order.
    pub op_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// How late the generator sent its latest-sent operation, in ms.
    pub max_lag_ms: f64,
}

impl WriterReport {
    /// Mean latency of each completed add/remove pair: one number per
    /// return to the base collection, so the two operations' different
    /// costs do not split the sample into two modes.
    pub fn pair_ms(&self) -> Vec<f64> {
        self.op_ms
            .chunks_exact(2)
            .map(|p| (p[0] + p[1]) / 2.0)
            .collect()
    }

    pub fn add_ms(&self) -> Vec<f64> {
        self.op_ms.iter().step_by(2).copied().collect()
    }

    pub fn remove_ms(&self) -> Vec<f64> {
        self.op_ms.iter().skip(1).step_by(2).copied().collect()
    }
}

/// Alternate `add` and `remove` of the same `trees` on one connection,
/// checking each `applied` answer, and always end on a remove so the
/// collection is back at its `base_trees` state.
pub fn write_loop(
    addr: &str,
    encoding: Option<WireEncoding>,
    trees: &[String],
    base_trees: usize,
    start: Instant,
    schedule: Schedule,
) -> Result<WriterReport, String> {
    let mut conn = Conn::connect(addr)?;
    conn.hello(encoding)?;
    let mut rep = WriterReport::default();
    // `slot` counts scheduled sends; `done` counts applied operations, so
    // a refused operation is retried at the next slot and the add/remove
    // alternation (and with it the snapshot parity) is kept.
    let (mut slot, mut done) = (0usize, 0usize);
    loop {
        let add = done % 2 == 0;
        let due = match schedule {
            Schedule::Rate { rate, window } => {
                let due = start + Duration::from_secs_f64(slot as f64 / rate);
                if add && due.duration_since(start) >= window {
                    break;
                }
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                due
            }
            Schedule::Pairs(n) => {
                if done == 2 * n {
                    break;
                }
                Instant::now()
            }
        };
        slot += 1;
        let request = if add {
            Request::Add {
                trees: trees.to_vec(),
                collection: None,
            }
        } else {
            Request::Remove {
                trees: trees.to_vec(),
                collection: None,
            }
        };
        rep.attempted += 1;
        let lag = Instant::now().saturating_duration_since(due);
        rep.max_lag_ms = rep.max_lag_ms.max(lag.as_secs_f64() * 1e3);
        match conn.call(request)? {
            Response::Applied { applied, n_trees } => {
                let want = base_trees + if add { trees.len() } else { 0 };
                if applied != trees.len() || n_trees != want {
                    return Err(format!(
                        "write {slot} applied {applied} leaving {n_trees} trees; expected {} and {want}",
                        trees.len()
                    ));
                }
                rep.op_ms.push(due.elapsed().as_secs_f64() * 1e3);
                done += 1;
            }
            Response::Error { message, .. } => {
                rep.failed += 1;
                if rep.failed > MAX_REFUSED_WRITES {
                    return Err(format!("writes keep being refused: {message}"));
                }
            }
            other => return Err(format!("write {slot} answered {other:?}")),
        }
    }
    Ok(rep)
}
