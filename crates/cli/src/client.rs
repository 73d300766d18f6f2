//! The client side of the daemon protocol: `bfhrf query`, `bfhrf stats`
//! and `bfhrf catalog`, all over one typed [`Session`].
//!
//! Every round trip runs the same steps:
//!
//! 1. connect;
//! 2. `hello`, which learns the server's batch ceiling and, under
//!    `--format bin`, must echo the binary encoding back;
//! 3. a `taxa` fetch, only under `--format bin`, for the namespace binary
//!    records are encoded in;
//! 4. [`Envelope::v2`] frames out, [`Response::from_json`] answers back.
//!
//! The client always speaks protocol v2 (the daemon still answers v1
//! frames from other clients). One [`Retry::run`] loop wraps a whole
//! attempt: a transport failure or a typed `busy` shed reconnects after a
//! backoff; any other error frame becomes `server: [outcome] message`
//! with its exit code. Answers render as the same tab-separated tables
//! the offline subcommands print, so outputs diff cleanly against
//! `bfhrf avgrf` / `bfhrf best`.

use crate::args::Args;
use crate::proto::{
    Envelope, ErrorCode, Op, QueryFlags, Request, Response, ScoreRow, WireEncoding,
};
use crate::{json, newick_payload, payload_collection, CliError, CmdOutcome, EXIT_OK};
use phylo::TreeCollection;
use phylo_wire::WireFormat;
use std::fmt::Write as _;
use std::io::{BufRead as _, BufReader, BufWriter, Write as _};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Resolve `--addr` / `--port-file` to the server address.
fn query_addr(a: &Args) -> Result<String, CliError> {
    if let Some(addr) = a.get("addr") {
        return Ok(addr.to_string());
    }
    if let Some(pf) = a.get("port-file") {
        let text = std::fs::read_to_string(pf)
            .map_err(|e| CliError::from(format!("cannot read {pf}: {e}")))?;
        return Ok(text.trim().to_string());
    }
    Err("query needs --addr HOST:PORT or --port-file FILE"
        .to_string()
        .into())
}

/// Client-side retry budget for idempotent query ops: exponential backoff
/// with jitter between attempts, reset whenever a request actually
/// succeeds (so a long batch session is allowed `retries` consecutive
/// failures, not `retries` over its whole life).
///
/// Only reads (`avgrf`, `best-query`, `stats`, `ping`) may carry a retry
/// budget — re-sending an `add` after an ambiguous failure could apply it
/// twice, so mutations keep the old fail-fast contract.
struct Retry {
    /// Remaining consecutive failures before giving up.
    left: u32,
    /// Configured budget (for the reset).
    budget: u32,
    /// Base delay; doubles per consecutive failure.
    backoff_ms: u64,
    /// Consecutive failures so far (drives the exponent).
    streak: u32,
    /// xorshift64 state for jitter.
    rng: u64,
}

impl Retry {
    fn new(retries: u32, backoff_ms: u64) -> Retry {
        Retry {
            left: retries,
            budget: retries,
            backoff_ms: backoff_ms.max(1),
            streak: 0,
            rng: u64::from(std::process::id()) | 1,
        }
    }

    /// Account one failure. When budget remains: sleep the backoff (with
    /// jitter), report the retry on stderr, and return `true` so the
    /// caller loops. When exhausted: return `false` — the caller surfaces
    /// the underlying error with its usual exit code.
    fn pause(&mut self, why: &str) -> bool {
        if self.left == 0 {
            return false;
        }
        self.left -= 1;
        // Exponential backoff, capped at 10 s per wait.
        let base = self
            .backoff_ms
            .saturating_mul(1u64 << self.streak.min(16))
            .min(10_000);
        self.streak += 1;
        // xorshift64 jitter in [0, base/2]: concurrent clients retrying
        // the same outage spread out instead of reconnecting in lockstep.
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        let jitter = if base >= 2 {
            self.rng % (base / 2 + 1)
        } else {
            0
        };
        let wait = base + jitter;
        eprintln!(
            "bfhrf: {why}; retrying in {wait} ms ({} retr{} left)",
            self.left,
            if self.left == 1 { "y" } else { "ies" }
        );
        std::thread::sleep(Duration::from_millis(wait));
        true
    }

    /// A request went through: restore the budget for the next failure.
    fn reset(&mut self) {
        self.left = self.budget;
        self.streak = 0;
    }

    /// The one retry loop: run `attempt` (a whole session) until it
    /// succeeds, fails with a non-retryable error, or the budget runs
    /// out. An attempt that makes progress (a batch frame answered) calls
    /// [`Retry::reset`] through the handle it is given.
    fn run<T>(
        &mut self,
        mut attempt: impl FnMut(&mut Retry) -> Result<T, SessionError>,
    ) -> Result<T, CliError> {
        loop {
            match attempt(self) {
                Ok(v) => {
                    self.reset();
                    return Ok(v);
                }
                Err(e) if e.retryable && self.pause(&e.err.message) => {}
                Err(e) => return Err(e.err),
            }
        }
    }
}

/// A session failure, tagged with whether an idempotent retry can absorb
/// it. Transport failures (connect, send, read, truncated or malformed
/// lines) and `busy` sheds are retryable; other typed server errors are
/// not — resending the same frame would fail the same way.
struct SessionError {
    retryable: bool,
    err: CliError,
}

impl SessionError {
    fn transport(message: String) -> SessionError {
        SessionError {
            retryable: true,
            err: message.into(),
        }
    }

    fn fatal(message: String) -> SessionError {
        SessionError {
            retryable: false,
            err: message.into(),
        }
    }
}

/// One connected, hello-handshaken wire-protocol-v2 session.
struct Session<'a> {
    addr: &'a str,
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    /// The server's `batch` ceiling, from its hello answer.
    max_batch: usize,
    /// The server's taxon labels (position = id); fetched only when the
    /// session negotiated the binary encoding.
    labels: Vec<String>,
}

impl<'a> Session<'a> {
    /// Connect and say `hello`. When `encoding` asks for a non-default
    /// tree encoding, the server must echo it back — a hello answer
    /// without the echo means the server does not speak that encoding,
    /// and the session fails instead of sending payloads the server would
    /// mis-read as Newick. A binary session then fetches the server's
    /// taxa for `collection`.
    fn open(
        addr: &'a str,
        encoding: Option<WireEncoding>,
        collection: Option<&str>,
    ) -> Result<Session<'a>, SessionError> {
        let stream = TcpStream::connect(addr)
            .map_err(|e| SessionError::transport(format!("cannot connect to {addr}: {e}")))?;
        stream.set_read_timeout(Some(Duration::from_secs(120))).ok();
        stream.set_nodelay(true).ok();
        let writer_stream = stream.try_clone().map_err(|e| {
            SessionError::transport(format!("cannot clone connection to {addr}: {e}"))
        })?;
        // Batch frames run large (a 64-query frame on real trees is
        // hundreds of kilobytes); a roomy write buffer keeps each frame to
        // a few syscalls instead of dozens of 8 KB slices.
        let mut session = Session {
            addr,
            reader: BufReader::with_capacity(64 << 10, stream),
            writer: BufWriter::with_capacity(128 << 10, writer_stream),
            max_batch: 0,
            labels: Vec::new(),
        };
        let Response::Hello {
            max_batch,
            encoding: echoed,
            ..
        } = session.call(Request::Hello { encoding })?
        else {
            return Err(SessionError::fatal(format!(
                "server at {addr} answered the hello handshake with an unexpected shape \
                 (not a v2 server?)"
            )));
        };
        if let Some(wanted) = encoding.filter(|&w| echoed != Some(w)) {
            return Err(SessionError::fatal(format!(
                "server at {addr} did not accept the {:?} tree encoding (no echo in its \
                 hello answer); upgrade the server or drop --format {}",
                wanted.as_str(),
                wanted.as_str()
            )));
        }
        session.max_batch = max_batch;
        if encoding == Some(WireEncoding::Bin) {
            let collection = collection.map(str::to_string);
            let Response::Taxa { labels, .. } = session.call(Request::Taxa { collection })? else {
                return Err(SessionError::fatal(format!(
                    "server at {addr} answered the taxa request with an unexpected shape"
                )));
            };
            session.labels = labels;
        }
        Ok(session)
    }

    /// Buffer one v2 frame; [`Session::flush`] puts it on the wire.
    fn send(&mut self, request: Request, id: Option<u64>) -> Result<(), SessionError> {
        let frame = Envelope::v2(request, id).to_json();
        writeln!(self.writer, "{frame}").map_err(|e| self.send_failed(e))
    }

    fn flush(&mut self) -> Result<(), SessionError> {
        self.writer.flush().map_err(|e| self.send_failed(e))
    }

    fn send_failed(&self, e: std::io::Error) -> SessionError {
        SessionError::transport(format!("cannot send request to {}: {e}", self.addr))
    }

    /// Read the next answer and its echoed id. An error frame becomes a
    /// [`SessionError`] carrying `server: [outcome] message` and the
    /// code's exit status; only `busy` is retryable.
    fn recv(&mut self) -> Result<(Response, Option<u64>), SessionError> {
        let addr = self.addr;
        let mut line = String::new();
        self.reader
            .read_line(&mut line)
            .map_err(|e| SessionError::transport(format!("no response from {addr}: {e}")))?;
        if line.trim().is_empty() {
            return Err(SessionError::transport(format!(
                "server at {addr} closed the connection without answering"
            )));
        }
        let bad = |e: String| SessionError::transport(format!("malformed response: {e}"));
        let doc = json::parse(line.trim()).map_err(bad)?;
        match Response::from_json(&doc).map_err(bad)? {
            (
                Response::Error {
                    code,
                    outcome,
                    message,
                },
                _,
            ) => Err(SessionError {
                retryable: code == ErrorCode::Busy,
                err: CliError {
                    message: format!("server: [{}] {message}", outcome.as_str()),
                    code: code.exit_code(),
                },
            }),
            answer => Ok(answer),
        }
    }

    /// One request, one answer.
    fn call(&mut self, request: Request) -> Result<Response, SessionError> {
        self.send(request, None)?;
        self.flush()?;
        Ok(self.recv()?.0)
    }

    /// Encode trees as base64 binary records in the *server's* taxon
    /// namespace: map every local taxon id to the server id with the same
    /// label, remap, encode. A label the server has never seen is a
    /// client-side error — the server's Newick parser would have rejected
    /// the same tree, just later and per record.
    fn encode(&self, coll: &TreeCollection) -> Result<Vec<String>, SessionError> {
        let server_ids: std::collections::HashMap<&str, phylo::TaxonId> = self
            .labels
            .iter()
            .enumerate()
            .map(|(i, label)| (label.as_str(), phylo::TaxonId(i as u32)))
            .collect();
        let map: Vec<phylo::TaxonId> = (0..coll.taxa.len())
            .map(|i| {
                let label = coll.taxa.label(phylo::TaxonId(i as u32));
                server_ids.get(label).copied().ok_or_else(|| {
                    SessionError::fatal(format!(
                        "taxon {label:?} is not in the server's namespace; \
                         binary payloads cannot introduce new taxa"
                    ))
                })
            })
            .collect::<Result<_, _>>()?;
        let start = Instant::now();
        let payload = coll
            .trees
            .iter()
            .enumerate()
            .map(|(i, tree)| {
                let mut tree = tree.clone();
                phylo_wire::remap_leaf_taxa(&mut tree, &map);
                phylo_wire::encode_tree_vec(&tree)
                    .map(|bytes| phylo_wire::b64::encode(&bytes))
                    .map_err(|e| SessionError::fatal(format!("tree {i}: {e}")))
            })
            .collect::<Result<Vec<_>, _>>()?;
        phylo_obs::global()
            .histogram("wire_encode_ns", &[("encoding", "bin")])
            .record_duration(start.elapsed());
        Ok(payload)
    }
}

/// One request through a fresh session per attempt, retried as a whole.
/// With `bin`, the session negotiates the binary encoding and the
/// request's tree payload is `bin` encoded in that session's namespace,
/// so a reconnect re-learns the namespace before re-encoding.
fn round_trip(
    addr: &str,
    request: &Request,
    bin: Option<&TreeCollection>,
    retry: &mut Retry,
) -> Result<Response, CliError> {
    let encoding = bin.map(|_| WireEncoding::Bin);
    retry.run(|_| {
        let mut session = Session::open(addr, encoding, request.collection())?;
        let mut request = request.clone();
        if let (Some(source), Some(trees)) = (bin, request.trees_mut()) {
            *trees = session.encode(source)?;
        }
        session.call(request)
    })
}

/// Ops a retry budget may apply to: pure reads, where re-sending after an
/// ambiguous failure cannot double-apply anything.
const IDEMPOTENT_OPS: [&str; 7] = [
    "avgrf",
    "best-query",
    "stats",
    "ping",
    "taxa",
    "xavgrf",
    "catalog-list",
];

/// Ops that accept a `--collection` routing field.
const ROUTED_OPS: [&str; 8] = [
    "avgrf",
    "best-query",
    "ping",
    "stats",
    "taxa",
    "add",
    "remove",
    "compact",
];

/// Ops whose payload is a list of trees — the only ones `--format bin`
/// can re-encode.
const TREE_PAYLOAD_OPS: [&str; 4] = ["avgrf", "best-query", "add", "remove"];

pub(crate) fn cmd_query(raw: &[String]) -> Result<CmdOutcome, CliError> {
    let a = Args::parse(raw, &["normalized", "halved"])?;
    a.reject_unknown(
        &[
            "addr",
            "port-file",
            "op",
            "format",
            "queries",
            "trees",
            "batch",
            "retries",
            "backoff-ms",
            "collection",
            "refs-collection",
            "queries-collection",
            "name",
        ],
        &["normalized", "halved"],
    )?;
    let addr = query_addr(&a)?;
    let op = a.get("op").unwrap_or("avgrf");
    let collection = a.get("collection").map(str::to_string);
    if collection.is_some() && !ROUTED_OPS.contains(&op) {
        return Err(format!(
            "--collection only applies to collection-routed ops ({}); got {op:?}",
            ROUTED_OPS.join(", ")
        )
        .into());
    }
    let format = match a.get("format") {
        None => WireFormat::Newick,
        Some(s) => WireFormat::parse(s)
            .ok_or_else(|| format!("unknown format {s:?} (expected newick or bin)"))?,
    };
    if format == WireFormat::Bin && !TREE_PAYLOAD_OPS.contains(&op) {
        return Err(format!(
            "--format bin only applies to ops that carry trees ({}); got {op:?}",
            TREE_PAYLOAD_OPS.join(", ")
        )
        .into());
    }

    let retries: u32 = a.get_parsed("retries")?.unwrap_or(0);
    let backoff_ms: u64 = a.get_parsed("backoff-ms")?.unwrap_or(100);
    if a.get("backoff-ms").is_some() && a.get("retries").is_none() {
        return Err("--backoff-ms only applies together with --retries"
            .to_string()
            .into());
    }
    if retries > 0 && !IDEMPOTENT_OPS.contains(&op) {
        return Err(format!(
            "--retries only applies to idempotent ops ({}); a resent {op:?} could apply twice",
            IDEMPOTENT_OPS.join(", ")
        )
        .into());
    }
    let mut retry = Retry::new(retries, backoff_ms);

    if let Some(batch) = a.get_parsed::<usize>("batch")? {
        if op != "avgrf" {
            return Err(format!("--batch only applies to --op avgrf (got {op:?})").into());
        }
        if batch == 0 {
            return Err("--batch must be at least 1".to_string().into());
        }
        let coll = payload_collection(a.require("queries")?)?;
        return batched_avgrf(
            &addr,
            batch,
            &coll,
            format,
            query_flags(&a),
            collection,
            retry,
        );
    }
    run_op(&addr, op, &a, format, collection, &mut retry)
}

/// Presentation flags from `--normalized` / `--halved`.
fn query_flags(a: &Args) -> QueryFlags {
    QueryFlags {
        normalized: a.flag("normalized"),
        halved: a.flag("halved"),
    }
}

/// Build the typed request for one `query --op` (or `catalog` verb) from
/// the parsed options, send it through [`round_trip`], and render the
/// answer. Tree payloads load before any connection is made.
fn run_op(
    addr: &str,
    op: &str,
    a: &Args,
    format: WireFormat,
    collection: Option<String>,
    retry: &mut Retry,
) -> Result<CmdOutcome, CliError> {
    let source = match op {
        "avgrf" | "best-query" => Some(a.require("queries")?),
        "add" | "remove" => Some(a.require("trees")?),
        "catalog-create" => a.get("trees"),
        _ => None,
    }
    .map(payload_collection)
    .transpose()?;
    // A binary payload is encoded per session, once the server's
    // namespace is known; Newick text is rendered once, here.
    let bin = source.as_ref().filter(|_| format == WireFormat::Bin);
    let trees = match &source {
        Some(coll) if format == WireFormat::Newick => newick_payload(coll),
        _ => Vec::new(),
    };
    let flags = query_flags(a);
    let request = match op {
        "avgrf" => Request::AvgRf {
            queries: trees,
            flags,
            collection,
        },
        "best-query" => Request::BestQuery {
            queries: trees,
            collection,
        },
        "add" => Request::Add { trees, collection },
        "remove" => Request::Remove { trees, collection },
        "ping" => Request::Ping { collection },
        "stats" => Request::Stats { collection },
        "compact" => Request::Compact { collection },
        "taxa" => Request::Taxa { collection },
        "shutdown" => Request::Shutdown,
        "xavgrf" => Request::Xavgrf {
            refs: a.require("refs-collection")?.to_string(),
            queries: a.require("queries-collection")?.to_string(),
            flags,
        },
        "catalog-create" => Request::CatalogCreate {
            name: a.require("name")?.to_string(),
            trees,
        },
        "catalog-drop" => Request::CatalogDrop {
            name: a.require("name")?.to_string(),
        },
        "catalog-list" => Request::CatalogList,
        other => {
            return Err(format!(
                "unknown op {other:?} (expected avgrf, best-query, ping, stats, taxa, add, \
                 remove, compact, xavgrf, catalog-create, catalog-drop, catalog-list, shutdown)"
            )
            .into())
        }
    };
    let answer = round_trip(addr, &request, bin, retry)?;
    render_answer(request.op(), answer)
}

/// `bfhrf query --batch N`: one persistent session that packs the query
/// file into `batch`-sized frames and keeps up to [`PIPELINE_WINDOW`]
/// frames in flight. The output is the same `query\tavg_rf` table
/// single-query mode prints (indices renumbered across frames), so it
/// diffs cleanly against offline `bfhrf avgrf`; the 0/1/3 exit-code
/// contract is unchanged, with the first failing frame aborting the
/// session.
///
/// With a retry budget, a dropped connection (daemon restart, network
/// blip) or a `busy` shed reconnects after a backoff, re-runs the
/// handshake, and resends every unanswered frame. Frame sizing is fixed
/// by the **first** handshake, so rows land in the output exactly once
/// and the final table is byte-identical to an uninterrupted run. Each
/// answered frame restores the budget.
///
/// `--format bin` payloads are re-encoded per session because the
/// server's namespace is only known once connected (and could differ
/// after a restart).
fn batched_avgrf(
    addr: &str,
    batch: usize,
    source: &TreeCollection,
    format: WireFormat,
    flags: QueryFlags,
    collection: Option<String>,
    mut retry: Retry,
) -> Result<CmdOutcome, CliError> {
    /// Frames in flight at once: deep enough to hide a round trip, shallow
    /// enough that neither side buffers unboundedly.
    const PIPELINE_WINDOW: usize = 32;

    // Newick payloads never change between sessions; render them once.
    let (newick, encoding) = match format {
        WireFormat::Newick => (newick_payload(source), None),
        WireFormat::Bin => (Vec::new(), Some(WireEncoding::Bin)),
    };
    let total = source.trees.len();

    let mut out = String::from("query\tavg_rf\n");
    let mut notes: Vec<String> = Vec::new();
    // Fixed after the first handshake; `None` until then.
    let mut plan: Option<(usize, usize)> = None; // (frame_size, n_frames)
    let mut read = 0usize; // frames fully answered and rendered

    retry.run(|retry| {
        let mut session = Session::open(addr, encoding, collection.as_deref())?;
        let bin_payload;
        let items: &[String] = match format {
            WireFormat::Newick => &newick,
            WireFormat::Bin => {
                bin_payload = session.encode(source)?;
                &bin_payload
            }
        };
        let max_batch = session.max_batch.max(1);
        let (frame_size, n_frames) = match plan {
            None => {
                let fs = batch.min(max_batch);
                *plan.insert((fs, total.div_ceil(fs)))
            }
            Some((fs, _)) if fs > max_batch => {
                // The replacement server advertises a smaller ceiling than
                // the frames we already rendered rows from; re-chunking
                // would renumber rows, so fail instead of emitting a table
                // that no uninterrupted run could produce.
                return Err(SessionError::fatal(format!(
                    "server at {addr} restarted with a smaller batch ceiling ({max_batch} < \
                     {fs}); rerun the query"
                )));
            }
            Some(p) => p,
        };
        let mut sent = read; // everything past `read` is unanswered: resend
        while read < n_frames {
            while sent < n_frames && sent - read < PIPELINE_WINDOW {
                let lo = sent * frame_size;
                let hi = total.min(lo + frame_size);
                let request = Request::Batch {
                    queries: items[lo..hi].to_vec(),
                    flags,
                    collection: collection.clone(),
                };
                session.send(request, Some(sent as u64))?;
                sent += 1;
            }
            session.flush()?;
            let (answer, id) = session.recv()?;
            let Response::Scores {
                scores,
                notes: frame_notes,
                ..
            } = answer
            else {
                return Err(SessionError::transport(
                    "server answered a batch frame with an unexpected shape".to_string(),
                ));
            };
            if id != Some(read as u64) {
                return Err(SessionError::transport(format!(
                    "server answered frame {id:?} where frame {read} was expected"
                )));
            }
            let base = read * frame_size;
            for row in &scores {
                let _ = writeln!(out, "{}\t{:.6}", base + row.index, row.avg);
            }
            for n in frame_notes {
                let n = format!("server: {n}");
                if !notes.contains(&n) {
                    notes.push(n);
                }
            }
            read += 1;
            retry.reset();
        }
        Ok(())
    })?;
    Ok(CmdOutcome {
        stdout: out,
        notes,
        code: EXIT_OK,
    })
}

/// Render the server's answer to `op` in the same tab-separated shapes
/// the offline subcommands print, relaying degradation notes to stderr.
/// An answer of any other shape is a malformed response.
fn render_answer(op: Op, answer: Response) -> Result<CmdOutcome, CliError> {
    fn score_table(out: &mut String, scores: &[ScoreRow]) {
        out.push_str("query\tavg_rf\n");
        for row in scores {
            let _ = writeln!(out, "{}\t{:.6}", row.index, row.avg);
        }
    }
    let mut out = String::new();
    let mut notes = Vec::new();
    match (op, answer) {
        (
            Op::AvgRf,
            Response::Scores {
                scores, notes: n, ..
            },
        ) => {
            score_table(&mut out, &scores);
            notes = n;
        }
        (
            Op::BestQuery,
            Response::Best {
                best_index,
                avg,
                total,
                notes: n,
            },
        ) => {
            let _ = write!(
                out,
                "best_query\t{best_index}\navg_rf\t{avg:.6}\ntotal_rf\t{total}\n"
            );
            notes = n;
        }
        (Op::Stats, Response::Stats { body, .. }) => {
            for (key, value) in [
                ("generation", body.generation),
                ("n_trees", body.n_trees as u64),
                ("n_taxa", body.n_taxa as u64),
                ("distinct", body.distinct as u64),
                ("sum", body.sum),
                ("wal_pending", body.wal_pending as u64),
                ("served", body.served),
            ] {
                let _ = writeln!(out, "{key}\t{value}");
            }
        }
        (Op::Add | Op::Remove, Response::Applied { applied, n_trees }) => {
            let _ = write!(out, "applied\t{applied}\nn_trees\t{n_trees}\n");
        }
        (
            Op::Compact,
            Response::Compacted {
                generation,
                distinct,
                ..
            },
        ) => {
            let _ = write!(out, "generation\t{generation}\ndistinct\t{distinct}\n");
        }
        (
            Op::Ping,
            Response::Pong {
                generation,
                wal_pending,
                uptime_ms,
                collections,
                open_collections,
            },
        ) => {
            let _ = write!(
                out,
                "generation\t{generation}\nwal_pending\t{wal_pending}\nuptime_ms\t{uptime_ms}\n"
            );
            // Catalog-aware daemons add the collection counts; rows appear
            // only when present so pre-catalog servers render identically.
            for (key, value) in [
                ("collections", collections),
                ("open_collections", open_collections),
            ] {
                if let Some(v) = value {
                    let _ = writeln!(out, "{key}\t{v}");
                }
            }
        }
        (
            Op::Xavgrf,
            Response::XScores {
                common_taxa,
                scores,
                notes: n,
            },
        ) => {
            let _ = writeln!(out, "common_taxa\t{common_taxa}");
            score_table(&mut out, &scores);
            notes = n;
        }
        (Op::CatalogCreate, Response::Created { name, n_trees }) => {
            let _ = write!(out, "created\t{name}\nn_trees\t{n_trees}\n");
        }
        (Op::CatalogDrop, Response::Dropped { name }) => {
            let _ = writeln!(out, "dropped\t{name}");
        }
        (Op::CatalogList, Response::Catalog { collections }) => {
            out.push_str("name\topen\tresident_bytes\n");
            for c in collections {
                let _ = writeln!(out, "{}\t{}\t{}", c.name, c.open, c.resident_bytes);
            }
        }
        (Op::Taxa, Response::Taxa { generation, labels }) => {
            let _ = write!(out, "generation\t{generation}\ntaxon\tlabel\n");
            for (i, label) in labels.iter().enumerate() {
                let _ = writeln!(out, "{i}\t{label}");
            }
        }
        (Op::Shutdown, Response::Shutdown) => out.push_str("shutdown\tok\n"),
        (op, _) => return Err(not_an_answer(op)),
    }
    Ok(CmdOutcome {
        stdout: out,
        notes: notes.into_iter().map(|n| format!("server: {n}")).collect(),
        code: EXIT_OK,
    })
}

/// A well-formed answer of the wrong shape for the request's op.
fn not_an_answer(op: Op) -> CliError {
    format!("malformed response: not an answer to {:?}", op.name()).into()
}

/// `bfhrf catalog <create|drop|list>`: administer a running daemon's
/// collection catalog — verb-shaped sugar over `query --op catalog-*` so
/// scripts read like the operations they perform.
pub(crate) fn cmd_catalog(raw: &[String]) -> Result<CmdOutcome, CliError> {
    let Some(verb) = raw.first() else {
        return Err("catalog needs a verb: create, drop, list"
            .to_string()
            .into());
    };
    let (op, knowns): (&str, &[&str]) = match verb.as_str() {
        "create" => ("catalog-create", &["addr", "port-file", "name", "trees"]),
        "drop" => ("catalog-drop", &["addr", "port-file", "name"]),
        "list" => ("catalog-list", &["addr", "port-file"]),
        other => {
            return Err(
                format!("unknown catalog verb {other:?} (expected create, drop, list)").into(),
            )
        }
    };
    let a = Args::parse(&raw[1..], &[])?;
    a.reject_unknown(knowns, &[])?;
    let addr = query_addr(&a)?;
    run_op(
        &addr,
        op,
        &a,
        WireFormat::Newick,
        None,
        &mut Retry::new(0, 0),
    )
}

/// `bfhrf stats`: fetch one `stats` snapshot from a running daemon and
/// render it for operators — the index header, then every metric series
/// (with scaled latency quantiles). `--json` prints the wire response for
/// scripts instead.
pub(crate) fn cmd_stats(raw: &[String]) -> Result<CmdOutcome, CliError> {
    let a = Args::parse(raw, &["json"])?;
    a.reject_unknown(&["addr", "port-file"], &["json"])?;
    let addr = query_addr(&a)?;
    let request = Request::Stats { collection: None };
    let answer = round_trip(&addr, &request, None, &mut Retry::new(0, 0))?;
    let Response::Stats { metrics, .. } = &answer else {
        return Err(not_an_answer(Op::Stats));
    };
    if a.flag("json") {
        return Ok(CmdOutcome::clean(format!("{}\n", answer.to_json(None))));
    }
    let table = render_metrics_text(metrics);
    let mut out = render_answer(Op::Stats, answer)?;
    out.stdout.push('\n');
    out.stdout.push_str(&table);
    Ok(out)
}

/// Render the `metrics` member of a `stats` response as the aligned text
/// table `phylo_obs::expose::to_text` produces server-side — recomputed
/// here from the wire JSON because the client only has the document.
fn render_metrics_text(metrics: &json::Json) -> String {
    let series = metrics
        .get("series")
        .and_then(json::Json::as_arr)
        .unwrap_or(&[]);
    let mut rows: Vec<(String, String)> = Vec::with_capacity(series.len());
    for s in series {
        let name = s.get("name").and_then(json::Json::as_str).unwrap_or("?");
        let mut key = name.to_string();
        if let Some(json::Json::Obj(pairs)) = s.get("labels") {
            if !pairs.is_empty() {
                let inner: Vec<String> = pairs
                    .iter()
                    .map(|(k, v)| format!("{k}={}", v.as_str().unwrap_or("?")))
                    .collect();
                key.push_str(&format!("{{{}}}", inner.join(",")));
            }
        }
        let num = |field: &str| s.get(field).and_then(json::Json::as_f64).unwrap_or(0.0);
        let value = match s.get("kind").and_then(json::Json::as_str) {
            Some("histogram") => {
                let count = num("count");
                if count == 0.0 {
                    "count=0".to_string()
                } else {
                    let show: fn(f64) -> String = if name.ends_with("_ns") {
                        phylo_obs::expose::fmt_ns
                    } else {
                        |v: f64| format!("{v:.0}")
                    };
                    format!(
                        "count={count} mean={} p50={} p90={} p99={} max={}",
                        show(num("mean")),
                        show(num("p50")),
                        show(num("p90")),
                        show(num("p99")),
                        show(num("max")),
                    )
                }
            }
            _ => format!("{}", num("value")),
        };
        rows.push((key, value));
    }
    let width = rows.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (key, value) in rows {
        let _ = writeln!(out, "{key:width$}  {value}");
    }
    out
}
