//! The typed wire protocol shared by `bfhrf serve` and its clients
//! (`bfhrf query`, `bfhrf stats`, `bfhrf catalog`).
//!
//! Version 2 of the daemon protocol. Frames are still one JSON document
//! per line (NDJSON), so v1 clients keep working unchanged, but ops,
//! payloads, error codes, and protocol versions are one typed surface —
//! [`Request`], [`Response`], [`ErrorCode`], [`Outcome`] — instead of
//! ad-hoc `req.get("op")` string pokes scattered through server and
//! client. The bundled client speaks only v2: each session sends
//! [`Envelope::v2`] frames, opens with `hello`, and reads every answer
//! through [`Response::from_json`]; the server keeps answering v1 frames.
//!
//! # Versioning
//!
//! A request carries an optional `"v"` member; absent means version 1.
//! The server answers any version up to [`PROTO_VERSION`] and rejects
//! higher ones with a typed error, so an old daemon fails a new client
//! loudly instead of mis-parsing it. The [`Request::Hello`] handshake
//! lets a client discover the server's version and batch ceiling before
//! committing to v2 framing:
//!
//! ```text
//! → {"v":2,"op":"hello"}
//! ← {"ok":true,"v":2,"max_batch":4096}
//! ```
//!
//! # Tree encodings
//!
//! Tree payloads default to Newick text. A v2 client may ask for the
//! compact binary encoding in its handshake; the server echoes the
//! encoding it accepted, and **only after seeing that echo** may the
//! client switch its tree payloads to base64-wrapped [`phylo_wire`] tree
//! records (taxon ids in the **server's** namespace — fetch it with the
//! `taxa` op and remap first):
//!
//! ```text
//! → {"v":2,"op":"hello","encoding":"bin"}
//! ← {"ok":true,"v":2,"max_batch":4096,"encoding":"bin"}
//! → {"v":2,"op":"taxa"}
//! ← {"ok":true,"generation":0,"taxa":["A","B",...]}
//! → {"v":2,"op":"batch","queries":["sQQC...base64...="]}
//! ```
//!
//! The negotiation is per-connection and strictly opt-in: a server that
//! predates the binary encoding simply omits the echo, and the client
//! falls back to Newick. Responses are identical either way — same JSON,
//! same scores, byte for byte.
//!
//! # The batch op (v2's headline)
//!
//! The paper frames collection queries as q independent probes against
//! one hash, which makes the serve path embarrassingly batchable: a
//! `batch` frame carries N query trees, is scored against **one**
//! snapshot generation (never a mix, even if an admin mutation lands
//! mid-batch), and returns one frame of N rows in query order. Framing,
//! JSON, Newick parse setup, and syscall costs amortize over N. An
//! optional `"id"` is echoed verbatim in the response so pipelined
//! clients can correlate in-flight frames:
//!
//! ```text
//! → {"v":2,"op":"batch","id":7,"queries":["((A,B),(C,D));",...]}
//! ← {"ok":true,"id":7,"n_taxa":4,"generation":0,"snap":0,
//!    "scores":[{"index":0,...},...],"notes":[]}
//! ```
//!
//! Batches above the server's `max_batch` ceiling are rejected with a
//! typed error and the connection stays usable.
//!
//! # Pipelining
//!
//! Any number of frames may be in flight on one connection; responses
//! come back strictly in request order. The server defers socket flushes
//! while more complete frames are already buffered, so a pipelined burst
//! costs ~one write syscall, not one per response.

use crate::json::{self, Json};

/// The protocol version this build speaks.
pub const PROTO_VERSION: u32 = 2;
/// Hard ceiling on query trees per `batch` frame.
pub const MAX_BATCH: usize = 4096;

/// Wire-level failure codes (`"code"` in an error response). Clients map
/// these to process exit codes: `budget` → 3, everything else → 1.
/// `busy` is retryable — a client with `--retries` backs off and
/// reconnects instead of failing; old clients fall through to exit 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Generic request failure: bad frame, bad payload, unknown op.
    Error,
    /// The request was refused or cancelled by a per-request resource
    /// budget (`--mem-budget`, `--timeout-ms`).
    Budget,
    /// The server is at its connection ceiling and shed this connection
    /// instead of queueing it. Safe to retry after a backoff.
    Busy,
}

impl ErrorCode {
    /// The wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Error => "error",
            ErrorCode::Budget => "budget",
            ErrorCode::Busy => "busy",
        }
    }

    /// Parse the wire spelling; unknown codes read as [`ErrorCode::Error`]
    /// so a newer server never crashes an older client.
    pub fn from_wire(s: &str) -> ErrorCode {
        match s {
            "budget" => ErrorCode::Budget,
            "busy" => ErrorCode::Busy,
            _ => ErrorCode::Error,
        }
    }

    /// The process exit code a client reports for this failure:
    /// [`crate::EXIT_BUDGET`] for `budget`, [`crate::EXIT_ERROR`] otherwise.
    pub(crate) fn exit_code(self) -> u8 {
        match self {
            ErrorCode::Budget => crate::EXIT_BUDGET,
            ErrorCode::Error | ErrorCode::Busy => crate::EXIT_ERROR,
        }
    }
}

/// Request outcome labels, finer than [`ErrorCode`]: `cancelled`
/// (deadline expiry) and `budget` (allocation refusal) share the `budget`
/// wire code and exit code but are different operational signals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The request succeeded.
    Ok,
    /// Generic failure.
    Error,
    /// Allocation refused by the memory budget.
    Budget,
    /// Cancelled at the request deadline.
    Cancelled,
    /// Shed at the connection ceiling before any request ran.
    Busy,
}

impl Outcome {
    /// All outcomes, in metrics-label order.
    pub const ALL: [Outcome; 5] = [
        Outcome::Ok,
        Outcome::Error,
        Outcome::Budget,
        Outcome::Cancelled,
        Outcome::Busy,
    ];

    /// The wire/label spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Outcome::Ok => "ok",
            Outcome::Error => "error",
            Outcome::Budget => "budget",
            Outcome::Cancelled => "cancelled",
            Outcome::Busy => "busy",
        }
    }

    /// The error code this outcome travels under on the wire.
    pub fn code(self) -> ErrorCode {
        match self {
            Outcome::Budget | Outcome::Cancelled => ErrorCode::Budget,
            Outcome::Busy => ErrorCode::Busy,
            _ => ErrorCode::Error,
        }
    }
}

/// Every op the protocol knows, plus the `Unknown` sink that absorbs
/// unparseable frames so each request lands in exactly one metrics
/// series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Version/capability handshake (v2).
    Hello,
    /// Average RF of each query against the references.
    AvgRf,
    /// Index + score of the lowest-average query.
    BestQuery,
    /// N independent queries, one frame, one snapshot generation (v2).
    Batch,
    /// Liveness + health probe: generation, WAL depth, uptime (v2).
    Ping,
    /// Index counters + metrics snapshot.
    Stats,
    /// Append trees (admin).
    Add,
    /// Remove trees (admin).
    Remove,
    /// Fold the WAL into a fresh snapshot (admin).
    Compact,
    /// Cross-collection RF: one catalog collection's trees scored against
    /// another's via restriction to the common taxa (v2).
    Xavgrf,
    /// Create a catalog collection (admin, v2).
    CatalogCreate,
    /// Drop a catalog collection (admin, v2).
    CatalogDrop,
    /// List catalog collections (v2).
    CatalogList,
    /// The server's taxon labels in intern order, so a binary-encoding
    /// client can remap its local taxon ids before encoding (v2).
    Taxa,
    /// Stop the daemon.
    Shutdown,
    /// Unparseable frame or unrecognized op name.
    Unknown,
}

impl Op {
    /// All ops in metrics-label order; `Unknown` is last.
    pub const ALL: [Op; 16] = [
        Op::Hello,
        Op::AvgRf,
        Op::BestQuery,
        Op::Batch,
        Op::Ping,
        Op::Stats,
        Op::Add,
        Op::Remove,
        Op::Compact,
        Op::Xavgrf,
        Op::CatalogCreate,
        Op::CatalogDrop,
        Op::CatalogList,
        Op::Taxa,
        Op::Shutdown,
        Op::Unknown,
    ];

    /// The wire spelling.
    pub fn name(self) -> &'static str {
        match self {
            Op::Hello => "hello",
            Op::AvgRf => "avgrf",
            Op::BestQuery => "best-query",
            Op::Batch => "batch",
            Op::Ping => "ping",
            Op::Stats => "stats",
            Op::Add => "add",
            Op::Remove => "remove",
            Op::Compact => "compact",
            Op::Xavgrf => "xavgrf",
            Op::CatalogCreate => "catalog-create",
            Op::CatalogDrop => "catalog-drop",
            Op::CatalogList => "catalog-list",
            Op::Taxa => "taxa",
            Op::Shutdown => "shutdown",
            Op::Unknown => "unknown",
        }
    }

    /// Parse the wire spelling.
    pub fn from_name(s: &str) -> Option<Op> {
        Op::ALL
            .iter()
            .copied()
            .filter(|&op| op != Op::Unknown)
            .find(|op| op.name() == s)
    }

    /// This op's slot in [`Op::ALL`] (metrics array index).
    pub fn index(self) -> usize {
        Op::ALL.iter().position(|&o| o == self).unwrap_or(0)
    }
}

/// Presentation flags on scoring ops, applied server-side so the served
/// table matches the offline `avgrf` report byte-for-byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueryFlags {
    /// Divide averages by the maximum `2(n-3)`.
    pub normalized: bool,
    /// Report the divide-by-2 RF convention.
    pub halved: bool,
}

/// A parsed, typed request payload. Every op that touches index state
/// carries an optional `collection` routing field (v2): absent or
/// `"default"` targets the daemon's default index, anything else a
/// catalog collection.
/// Tree payload encodings a connection can negotiate at `hello`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireEncoding {
    /// Newick text (the default; every protocol version speaks it).
    #[default]
    Newick,
    /// Base64-wrapped `phylo-wire` binary tree records, taxon ids in the
    /// server's namespace.
    Bin,
}

impl WireEncoding {
    /// All encodings, in metrics-label order.
    pub const ALL: [WireEncoding; 2] = [WireEncoding::Newick, WireEncoding::Bin];

    /// This encoding's slot in [`WireEncoding::ALL`] (metrics array index).
    pub fn index(self) -> usize {
        WireEncoding::ALL
            .iter()
            .position(|&e| e == self)
            .unwrap_or(0)
    }

    /// The wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            WireEncoding::Newick => "newick",
            WireEncoding::Bin => "bin",
        }
    }

    /// Parse the wire spelling.
    pub fn from_name(s: &str) -> Option<WireEncoding> {
        match s {
            "newick" => Some(WireEncoding::Newick),
            "bin" => Some(WireEncoding::Bin),
            _ => None,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Version/capability handshake, optionally asking the server to
    /// accept a non-default tree encoding on this connection.
    Hello {
        /// Requested tree payload encoding; `None` keeps Newick. The
        /// switch only takes effect once the server echoes it back.
        encoding: Option<WireEncoding>,
    },
    /// Score each query against the references (v1 op; a v2 client uses
    /// [`Request::Batch`] for the same semantics plus generation pinning).
    AvgRf {
        /// Newick query trees.
        queries: Vec<String>,
        /// Presentation flags.
        flags: QueryFlags,
        /// Catalog collection to score against (v2).
        collection: Option<String>,
    },
    /// Index + score of the lowest-average query.
    BestQuery {
        /// Newick query trees.
        queries: Vec<String>,
        /// Catalog collection to score against (v2).
        collection: Option<String>,
    },
    /// N independent queries in one frame, answered from one snapshot.
    Batch {
        /// Newick query trees (≤ the server's `max_batch`).
        queries: Vec<String>,
        /// Presentation flags.
        flags: QueryFlags,
        /// Catalog collection to score against (v2).
        collection: Option<String>,
    },
    /// Liveness + health probe; cheap enough for load balancers to poll.
    Ping {
        /// Catalog collection to report on instead of the default (v2).
        collection: Option<String>,
    },
    /// Index counters + metrics snapshot.
    Stats {
        /// Catalog collection to report on instead of the default (v2).
        collection: Option<String>,
    },
    /// Append trees (admin).
    Add {
        /// Newick trees to add.
        trees: Vec<String>,
        /// Catalog collection to mutate (v2).
        collection: Option<String>,
    },
    /// Remove trees (admin, all-or-nothing).
    Remove {
        /// Newick trees to remove.
        trees: Vec<String>,
        /// Catalog collection to mutate (v2).
        collection: Option<String>,
    },
    /// Fold the WAL into a fresh snapshot (admin).
    Compact {
        /// Catalog collection to compact (v2).
        collection: Option<String>,
    },
    /// Score collection `queries`' trees against collection `refs` via
    /// restriction to their common taxa (v2).
    Xavgrf {
        /// Reference collection name (or `"default"`).
        refs: String,
        /// Query collection name (or `"default"`).
        queries: String,
        /// Presentation flags.
        flags: QueryFlags,
    },
    /// Create a catalog collection from Newick trees (admin, v2).
    CatalogCreate {
        /// Collection name.
        name: String,
        /// Initial Newick trees (may be empty).
        trees: Vec<String>,
    },
    /// Drop a catalog collection (admin, v2).
    CatalogDrop {
        /// Collection name.
        name: String,
    },
    /// List catalog collections (v2).
    CatalogList,
    /// The server's taxon labels in intern order (v2).
    Taxa {
        /// Catalog collection to report on instead of the default.
        collection: Option<String>,
    },
    /// Stop the daemon.
    Shutdown,
}

impl Request {
    /// The op this request is an instance of.
    pub fn op(&self) -> Op {
        match self {
            Request::Hello { .. } => Op::Hello,
            Request::AvgRf { .. } => Op::AvgRf,
            Request::BestQuery { .. } => Op::BestQuery,
            Request::Batch { .. } => Op::Batch,
            Request::Ping { .. } => Op::Ping,
            Request::Stats { .. } => Op::Stats,
            Request::Add { .. } => Op::Add,
            Request::Remove { .. } => Op::Remove,
            Request::Compact { .. } => Op::Compact,
            Request::Xavgrf { .. } => Op::Xavgrf,
            Request::CatalogCreate { .. } => Op::CatalogCreate,
            Request::CatalogDrop { .. } => Op::CatalogDrop,
            Request::CatalogList => Op::CatalogList,
            Request::Taxa { .. } => Op::Taxa,
            Request::Shutdown => Op::Shutdown,
        }
    }

    /// The tree payload, for ops that carry one — what a binary-encoding
    /// client re-encodes in each connection's taxon namespace.
    pub(crate) fn trees_mut(&mut self) -> Option<&mut Vec<String>> {
        match self {
            Request::AvgRf { queries, .. }
            | Request::BestQuery { queries, .. }
            | Request::Batch { queries, .. } => Some(queries),
            Request::Add { trees, .. }
            | Request::Remove { trees, .. }
            | Request::CatalogCreate { trees, .. } => Some(trees),
            _ => None,
        }
    }

    /// The `collection` routing field, for ops that carry one.
    pub fn collection(&self) -> Option<&str> {
        match self {
            Request::AvgRf { collection, .. }
            | Request::BestQuery { collection, .. }
            | Request::Batch { collection, .. }
            | Request::Ping { collection }
            | Request::Stats { collection }
            | Request::Add { collection, .. }
            | Request::Remove { collection, .. }
            | Request::Compact { collection }
            | Request::Taxa { collection } => collection.as_deref(),
            _ => None,
        }
    }
}

/// One request frame: protocol version, optional client correlation id
/// (echoed in the response), and the typed payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Protocol version; 1 when the frame carries no `"v"` member.
    pub version: u32,
    /// Client correlation id, echoed verbatim in the response. Must stay
    /// below 2⁵³ — JSON numbers are doubles, and larger ids would come
    /// back rounded. Sequence counters never get near that.
    pub id: Option<u64>,
    /// The typed request.
    pub request: Request,
}

impl Envelope {
    /// A v1 frame (no version member on the wire).
    pub fn v1(request: Request) -> Envelope {
        Envelope {
            version: 1,
            id: None,
            request,
        }
    }

    /// A v2 frame.
    pub fn v2(request: Request, id: Option<u64>) -> Envelope {
        Envelope {
            version: PROTO_VERSION,
            id,
            request,
        }
    }
}

/// A typed frame-parse failure: which op to attribute it to in metrics
/// (`Op::Unknown` when the frame never resolved to one) and the message.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtoError {
    /// Metrics attribution.
    pub op: Op,
    /// Human-readable cause.
    pub message: String,
}

impl ProtoError {
    fn new(op: Op, message: impl Into<String>) -> ProtoError {
        ProtoError {
            op,
            message: message.into(),
        }
    }
}

fn string_array(req: &Json, op: Op, key: &str) -> Result<Vec<String>, ProtoError> {
    let items = req
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| ProtoError::new(op, format!("request needs a {key:?} array")))?;
    items
        .iter()
        .enumerate()
        .map(|(i, item)| {
            item.as_str()
                .map(str::to_string)
                .ok_or_else(|| ProtoError::new(op, format!("tree {i} is not a string")))
        })
        .collect()
}

fn string_field(req: &Json, op: Op, key: &str) -> Result<String, ProtoError> {
    req.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| ProtoError::new(op, format!("request needs a {key:?} string")))
}

fn collection_field(req: &Json, op: Op) -> Result<Option<String>, ProtoError> {
    match req.get("collection") {
        None => Ok(None),
        Some(v) => v
            .as_str()
            .map(|s| Some(s.to_string()))
            .ok_or_else(|| ProtoError::new(op, "\"collection\" must be a string")),
    }
}

fn encoding_field(req: &Json, op: Op) -> Result<Option<WireEncoding>, ProtoError> {
    match req.get("encoding") {
        None => Ok(None),
        Some(v) => {
            let s = v
                .as_str()
                .ok_or_else(|| ProtoError::new(op, "\"encoding\" must be a string"))?;
            WireEncoding::from_name(s).map(Some).ok_or_else(|| {
                ProtoError::new(
                    op,
                    format!("unknown encoding {s:?} (expected \"newick\" or \"bin\")"),
                )
            })
        }
    }
}

fn query_flags(req: &Json) -> QueryFlags {
    let flag = |key: &str| req.get(key).and_then(Json::as_bool).unwrap_or(false);
    QueryFlags {
        normalized: flag("normalized"),
        halved: flag("halved"),
    }
}

impl Envelope {
    /// Parse one request frame (either protocol version) into its typed
    /// form. Failures say which op they should be attributed to.
    pub fn from_json(req: &Json) -> Result<Envelope, ProtoError> {
        let version = match req.get("v") {
            None => 1,
            Some(v) => v.as_u64().map(|v| v as u32).ok_or_else(|| {
                ProtoError::new(Op::Unknown, "\"v\" must be a protocol version number")
            })?,
        };
        let id = req.get("id").and_then(Json::as_u64);
        let Some(op_name) = req.get("op").and_then(Json::as_str) else {
            return Err(ProtoError::new(
                Op::Unknown,
                "request needs an \"op\" string",
            ));
        };
        let Some(op) = Op::from_name(op_name) else {
            return Err(ProtoError::new(
                Op::Unknown,
                format!(
                    "unknown op {op_name:?} (expected hello, avgrf, best-query, batch, ping, \
                     stats, add, remove, compact, xavgrf, catalog-create, catalog-drop, \
                     catalog-list, taxa, shutdown)"
                ),
            ));
        };
        if version > PROTO_VERSION {
            return Err(ProtoError::new(
                op,
                format!(
                    "unsupported protocol version {version} (this server speaks ≤ {PROTO_VERSION})"
                ),
            ));
        }
        let request = match op {
            Op::Hello => Request::Hello {
                encoding: encoding_field(req, op)?,
            },
            Op::AvgRf => Request::AvgRf {
                queries: string_array(req, op, "queries")?,
                flags: query_flags(req),
                collection: collection_field(req, op)?,
            },
            Op::BestQuery => Request::BestQuery {
                queries: string_array(req, op, "queries")?,
                collection: collection_field(req, op)?,
            },
            Op::Batch => Request::Batch {
                queries: string_array(req, op, "queries")?,
                flags: query_flags(req),
                collection: collection_field(req, op)?,
            },
            Op::Ping => Request::Ping {
                collection: collection_field(req, op)?,
            },
            Op::Stats => Request::Stats {
                collection: collection_field(req, op)?,
            },
            Op::Add => Request::Add {
                trees: string_array(req, op, "trees")?,
                collection: collection_field(req, op)?,
            },
            Op::Remove => Request::Remove {
                trees: string_array(req, op, "trees")?,
                collection: collection_field(req, op)?,
            },
            Op::Compact => Request::Compact {
                collection: collection_field(req, op)?,
            },
            Op::Xavgrf => Request::Xavgrf {
                refs: string_field(req, op, "refs")?,
                queries: string_field(req, op, "queries")?,
                flags: query_flags(req),
            },
            Op::CatalogCreate => Request::CatalogCreate {
                name: string_field(req, op, "name")?,
                trees: match req.get("trees") {
                    None => Vec::new(),
                    Some(_) => string_array(req, op, "trees")?,
                },
            },
            Op::CatalogDrop => Request::CatalogDrop {
                name: string_field(req, op, "name")?,
            },
            Op::CatalogList => Request::CatalogList,
            Op::Taxa => Request::Taxa {
                collection: collection_field(req, op)?,
            },
            Op::Shutdown => Request::Shutdown,
            Op::Unknown => unreachable!("from_name never yields Unknown"),
        };
        Ok(Envelope {
            version,
            id,
            request,
        })
    }

    /// Render this frame for the wire. v1 envelopes omit the `"v"`
    /// member, so the output of a v1 round trip is exactly what a v1
    /// client would have sent.
    pub fn to_json(&self) -> Json {
        let mut fields: Vec<(&str, Json)> = Vec::with_capacity(6);
        if self.version != 1 {
            fields.push(("v", u64::from(self.version).into()));
        }
        fields.push(("op", self.request.op().name().into()));
        if let Some(id) = self.id {
            fields.push(("id", id.into()));
        }
        let trees = |ts: &[String]| Json::Arr(ts.iter().map(|t| t.as_str().into()).collect());
        let push_flags = |fields: &mut Vec<(&str, Json)>, flags: &QueryFlags| {
            if flags.normalized {
                fields.push(("normalized", true.into()));
            }
            if flags.halved {
                fields.push(("halved", true.into()));
            }
        };
        match &self.request {
            Request::AvgRf { queries, flags, .. } | Request::Batch { queries, flags, .. } => {
                fields.push(("queries", trees(queries)));
                push_flags(&mut fields, flags);
            }
            Request::BestQuery { queries, .. } => fields.push(("queries", trees(queries))),
            Request::Add { trees: ts, .. } | Request::Remove { trees: ts, .. } => {
                fields.push(("trees", trees(ts)));
            }
            Request::Xavgrf {
                refs,
                queries,
                flags,
            } => {
                fields.push(("refs", refs.as_str().into()));
                fields.push(("queries", queries.as_str().into()));
                push_flags(&mut fields, flags);
            }
            Request::CatalogCreate { name, trees: ts } => {
                fields.push(("name", name.as_str().into()));
                if !ts.is_empty() {
                    fields.push(("trees", trees(ts)));
                }
            }
            Request::CatalogDrop { name } => fields.push(("name", name.as_str().into())),
            Request::Hello { encoding } => {
                if let Some(enc) = encoding {
                    fields.push(("encoding", enc.as_str().into()));
                }
            }
            Request::Ping { .. }
            | Request::Stats { .. }
            | Request::Compact { .. }
            | Request::CatalogList
            | Request::Taxa { .. }
            | Request::Shutdown => {}
        }
        if let Some(c) = self.request.collection() {
            fields.push(("collection", c.into()));
        }
        Json::obj(fields)
    }
}

/// One score row in an `avgrf`/`batch` response.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreRow {
    /// Query index within the request frame.
    pub index: usize,
    /// Splits of the query unmatched in the references (summed).
    pub left: u64,
    /// Splits of the references unmatched in the query (summed).
    pub right: u64,
    /// Number of reference trees scored against.
    pub n_refs: usize,
    /// The (possibly normalized/halved) average RF.
    pub avg: f64,
}

/// Index counters carried in a `stats` response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsBody {
    /// Compaction generation.
    pub generation: u64,
    /// Trees in the hash.
    pub n_trees: usize,
    /// Taxa in the namespace.
    pub n_taxa: usize,
    /// Distinct splits stored.
    pub distinct: usize,
    /// Sum of stored frequencies.
    pub sum: u64,
    /// WAL records since the last compaction.
    pub wal_pending: usize,
    /// Requests served by this daemon so far.
    pub served: u64,
}

/// One collection row in a `catalog-list` response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CatalogRow {
    /// Collection name.
    pub name: String,
    /// Whether it is currently open (resident under the byte budget).
    pub open: bool,
    /// Accounted frozen-table bytes when open, 0 otherwise.
    pub resident_bytes: usize,
}

/// A typed response payload. [`Response::to_json`] emits the exact v1
/// wire shapes for the ops v1 defined (plus additive members), so v1
/// clients parse v2 servers unchanged.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Handshake answer: the server's protocol version and batch ceiling.
    Hello {
        /// Server protocol version.
        version: u32,
        /// Max query trees per `batch` frame.
        max_batch: usize,
        /// Tree encoding the server accepted for this connection. `None`
        /// means Newick (and keeps the pre-encoding frame byte-identical);
        /// clients must not send binary payloads unless this echoes
        /// [`WireEncoding::Bin`].
        encoding: Option<WireEncoding>,
    },
    /// Scores for `avgrf`/`batch`, in query order, all answered from the
    /// single snapshot identified by `generation`/`snap`.
    Scores {
        /// Taxa in the reference namespace.
        n_taxa: usize,
        /// Compaction generation of the snapshot that answered.
        generation: u64,
        /// Serve-side snapshot swap id (bumps on every admin mutation).
        snap: u64,
        /// One row per query.
        scores: Vec<ScoreRow>,
        /// Degradation notes (empty when clean).
        notes: Vec<String>,
    },
    /// The `best-query` answer.
    Best {
        /// Index of the lowest-average query.
        best_index: usize,
        /// Its average RF.
        avg: f64,
        /// Its total RF.
        total: u64,
        /// Degradation notes (empty when clean).
        notes: Vec<String>,
    },
    /// Index counters plus a metrics snapshot.
    Stats {
        /// The counters.
        body: StatsBody,
        /// Metrics exposition document (see `phylo-obs`).
        metrics: Json,
    },
    /// `add`/`remove` confirmation.
    Applied {
        /// Trees applied.
        applied: usize,
        /// Trees in the hash afterwards.
        n_trees: usize,
    },
    /// `compact` confirmation.
    Compacted {
        /// New compaction generation.
        generation: u64,
        /// Distinct splits in the fresh snapshot.
        distinct: usize,
        /// Always zero after a compaction.
        wal_pending: usize,
    },
    /// The `ping` answer: a minimal health summary served without taking
    /// the admin lock, so it stays responsive under mutation load.
    Pong {
        /// Compaction generation of the published snapshot.
        generation: u64,
        /// WAL records since the last compaction.
        wal_pending: u64,
        /// Milliseconds since the daemon bound its listener.
        uptime_ms: u64,
        /// Total collections hosted (default + catalog). `None` on v1
        /// frames, which keep the exact v1 shape.
        collections: Option<u64>,
        /// Collections currently open (default + resident catalog pool).
        /// `None` on v1 frames.
        open_collections: Option<u64>,
    },
    /// Cross-collection scores from `xavgrf`, in query-collection tree
    /// order, computed over the two collections' common taxa.
    XScores {
        /// Size of the shared taxon set the trees were restricted to.
        common_taxa: usize,
        /// One row per query-collection tree.
        scores: Vec<ScoreRow>,
        /// Degradation notes (empty when clean).
        notes: Vec<String>,
    },
    /// `catalog-create` confirmation.
    Created {
        /// The new collection's name.
        name: String,
        /// Trees folded into it.
        n_trees: usize,
    },
    /// `catalog-drop` confirmation.
    Dropped {
        /// The dropped collection's name.
        name: String,
    },
    /// The `catalog-list` answer.
    Catalog {
        /// One row per collection, sorted by name.
        collections: Vec<CatalogRow>,
    },
    /// The `taxa` answer: the collection's taxon labels in intern order
    /// (the id namespace binary tree records must use), pinned to a
    /// generation so clients can detect a compaction race.
    Taxa {
        /// Compaction generation the label order belongs to.
        generation: u64,
        /// Labels, position == taxon id.
        labels: Vec<String>,
    },
    /// `shutdown` acknowledged; the daemon exits after sending this.
    Shutdown,
    /// A request failure.
    Error {
        /// Wire code (drives client exit codes).
        code: ErrorCode,
        /// Finer operational label.
        outcome: Outcome,
        /// Human-readable cause.
        message: String,
    },
}

impl Response {
    /// Render for the wire, echoing `id` when the request carried one.
    pub fn to_json(&self, id: Option<u64>) -> Json {
        let ok = !matches!(self, Response::Error { .. });
        let mut fields: Vec<(&str, Json)> = vec![("ok", ok.into())];
        if let Some(id) = id {
            fields.push(("id", id.into()));
        }
        let notes_json =
            |notes: &[String]| Json::Arr(notes.iter().map(|n| n.as_str().into()).collect());
        match self {
            Response::Hello {
                version,
                max_batch,
                encoding,
            } => {
                fields.push(("v", u64::from(*version).into()));
                fields.push(("max_batch", (*max_batch).into()));
                if let Some(enc) = encoding {
                    fields.push(("encoding", enc.as_str().into()));
                }
            }
            Response::Scores {
                n_taxa,
                generation,
                snap,
                scores,
                notes,
            } => {
                fields.push(("n_taxa", (*n_taxa).into()));
                fields.push(("generation", (*generation).into()));
                fields.push(("snap", (*snap).into()));
                let rows = scores
                    .iter()
                    .map(|s| {
                        Json::obj(vec![
                            ("index", s.index.into()),
                            ("left", s.left.into()),
                            ("right", s.right.into()),
                            ("n_refs", s.n_refs.into()),
                            ("avg", s.avg.into()),
                        ])
                    })
                    .collect();
                fields.push(("scores", Json::Arr(rows)));
                fields.push(("notes", notes_json(notes)));
            }
            Response::Best {
                best_index,
                avg,
                total,
                notes,
            } => {
                fields.push(("best_index", (*best_index).into()));
                fields.push(("avg", (*avg).into()));
                fields.push(("total", (*total).into()));
                fields.push(("notes", notes_json(notes)));
            }
            Response::Stats { body, metrics } => {
                fields.push(("generation", body.generation.into()));
                fields.push(("n_trees", body.n_trees.into()));
                fields.push(("n_taxa", body.n_taxa.into()));
                fields.push(("distinct", body.distinct.into()));
                fields.push(("sum", body.sum.into()));
                fields.push(("wal_pending", body.wal_pending.into()));
                fields.push(("served", body.served.into()));
                fields.push(("metrics", metrics.clone()));
            }
            Response::Applied { applied, n_trees } => {
                fields.push(("applied", (*applied).into()));
                fields.push(("n_trees", (*n_trees).into()));
            }
            Response::Compacted {
                generation,
                distinct,
                wal_pending,
            } => {
                fields.push(("generation", (*generation).into()));
                fields.push(("distinct", (*distinct).into()));
                fields.push(("wal_pending", (*wal_pending).into()));
            }
            Response::Pong {
                generation,
                wal_pending,
                uptime_ms,
                collections,
                open_collections,
            } => {
                fields.push(("pong", true.into()));
                fields.push(("generation", (*generation).into()));
                fields.push(("wal_pending", (*wal_pending).into()));
                fields.push(("uptime_ms", (*uptime_ms).into()));
                if let Some(c) = collections {
                    fields.push(("collections", (*c).into()));
                }
                if let Some(o) = open_collections {
                    fields.push(("open_collections", (*o).into()));
                }
            }
            Response::XScores {
                common_taxa,
                scores,
                notes,
            } => {
                fields.push(("common_taxa", (*common_taxa).into()));
                let rows = scores
                    .iter()
                    .map(|s| {
                        Json::obj(vec![
                            ("index", s.index.into()),
                            ("left", s.left.into()),
                            ("right", s.right.into()),
                            ("n_refs", s.n_refs.into()),
                            ("avg", s.avg.into()),
                        ])
                    })
                    .collect();
                fields.push(("scores", Json::Arr(rows)));
                fields.push(("notes", notes_json(notes)));
            }
            Response::Created { name, n_trees } => {
                fields.push(("created", name.as_str().into()));
                fields.push(("n_trees", (*n_trees).into()));
            }
            Response::Dropped { name } => fields.push(("dropped", name.as_str().into())),
            Response::Catalog { collections } => {
                let rows = collections
                    .iter()
                    .map(|c| {
                        Json::obj(vec![
                            ("name", c.name.as_str().into()),
                            ("open", c.open.into()),
                            ("resident_bytes", c.resident_bytes.into()),
                        ])
                    })
                    .collect();
                fields.push(("catalog", Json::Arr(rows)));
            }
            Response::Taxa { generation, labels } => {
                fields.push(("generation", (*generation).into()));
                fields.push((
                    "taxa",
                    Json::Arr(labels.iter().map(|l| l.as_str().into()).collect()),
                ));
            }
            Response::Shutdown => fields.push(("shutdown", true.into())),
            Response::Error {
                code,
                outcome,
                message,
            } => {
                fields.push(("code", code.as_str().into()));
                fields.push(("outcome", outcome.as_str().into()));
                fields.push(("error", message.as_str().into()));
            }
        }
        Json::obj(fields)
    }

    /// Parse a response frame back into its typed form (plus the echoed
    /// id, if any). Shapes are discriminated by their distinguishing
    /// members, so no op context is needed.
    pub fn from_json(resp: &Json) -> Result<(Response, Option<u64>), String> {
        let id = resp.get("id").and_then(Json::as_u64);
        let ok = resp
            .get("ok")
            .and_then(Json::as_bool)
            .ok_or("response is missing \"ok\"")?;
        let u = |key: &str| -> Result<u64, String> {
            resp.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("response is missing {key:?}"))
        };
        let f = |key: &str| -> Result<f64, String> {
            resp.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("response is missing {key:?}"))
        };
        let notes = || -> Vec<String> {
            resp.get("notes")
                .and_then(Json::as_arr)
                .unwrap_or(&[])
                .iter()
                .filter_map(|n| n.as_str().map(str::to_string))
                .collect()
        };
        if !ok {
            let code =
                ErrorCode::from_wire(resp.get("code").and_then(Json::as_str).unwrap_or("error"));
            let outcome_str = resp.get("outcome").and_then(Json::as_str);
            let outcome = Outcome::ALL
                .iter()
                .copied()
                .find(|o| Some(o.as_str()) == outcome_str)
                .unwrap_or(match code {
                    ErrorCode::Budget => Outcome::Budget,
                    ErrorCode::Busy => Outcome::Busy,
                    ErrorCode::Error => Outcome::Error,
                });
            let message = resp
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("server reported an unspecified failure")
                .to_string();
            return Ok((
                Response::Error {
                    code,
                    outcome,
                    message,
                },
                id,
            ));
        }
        let resp_t = if resp.get("max_batch").is_some() {
            Response::Hello {
                version: u("v")? as u32,
                max_batch: u("max_batch")? as usize,
                // An unrecognized echo reads as None: the client then
                // refuses to switch encodings, which is the safe default.
                encoding: resp
                    .get("encoding")
                    .and_then(Json::as_str)
                    .and_then(WireEncoding::from_name),
            }
        } else if let Some(rows) = resp.get("scores").and_then(Json::as_arr) {
            let scores = rows
                .iter()
                .enumerate()
                .map(|(i, row)| -> Result<ScoreRow, String> {
                    let field = |key: &str| {
                        row.get(key)
                            .and_then(Json::as_f64)
                            .ok_or_else(|| format!("score row {i} is missing {key:?}"))
                    };
                    Ok(ScoreRow {
                        index: field("index")? as usize,
                        left: field("left")? as u64,
                        right: field("right")? as u64,
                        n_refs: field("n_refs")? as usize,
                        avg: field("avg")?,
                    })
                })
                .collect::<Result<_, _>>()?;
            // "common_taxa" distinguishes a cross-collection answer from
            // a plain scores frame before the generation members are
            // consulted.
            if resp.get("common_taxa").is_some() {
                return Ok((
                    Response::XScores {
                        common_taxa: u("common_taxa")? as usize,
                        scores,
                        notes: notes(),
                    },
                    id,
                ));
            }
            Response::Scores {
                n_taxa: u("n_taxa")? as usize,
                // Absent on pre-v2 servers: read as generation 0 / snap 0.
                generation: resp.get("generation").and_then(Json::as_u64).unwrap_or(0),
                snap: resp.get("snap").and_then(Json::as_u64).unwrap_or(0),
                scores,
                notes: notes(),
            }
        } else if resp.get("best_index").is_some() {
            Response::Best {
                best_index: u("best_index")? as usize,
                avg: f("avg")?,
                total: u("total")?,
                notes: notes(),
            }
        } else if resp.get("metrics").is_some() {
            Response::Stats {
                body: StatsBody {
                    generation: u("generation")?,
                    n_trees: u("n_trees")? as usize,
                    n_taxa: u("n_taxa")? as usize,
                    distinct: u("distinct")? as usize,
                    sum: u("sum")?,
                    wal_pending: u("wal_pending")? as usize,
                    served: u("served")?,
                },
                metrics: resp.get("metrics").cloned().unwrap_or(Json::Null),
            }
        } else if resp.get("applied").is_some() {
            Response::Applied {
                applied: u("applied")? as usize,
                n_trees: u("n_trees")? as usize,
            }
        } else if resp.get("created").is_some() {
            Response::Created {
                name: resp
                    .get("created")
                    .and_then(Json::as_str)
                    .ok_or("\"created\" must be the collection name")?
                    .to_string(),
                n_trees: u("n_trees")? as usize,
            }
        } else if resp.get("dropped").is_some() {
            Response::Dropped {
                name: resp
                    .get("dropped")
                    .and_then(Json::as_str)
                    .ok_or("\"dropped\" must be the collection name")?
                    .to_string(),
            }
        } else if let Some(rows) = resp.get("catalog").and_then(Json::as_arr) {
            let collections = rows
                .iter()
                .enumerate()
                .map(|(i, row)| -> Result<CatalogRow, String> {
                    Ok(CatalogRow {
                        name: row
                            .get("name")
                            .and_then(Json::as_str)
                            .ok_or_else(|| format!("catalog row {i} is missing \"name\""))?
                            .to_string(),
                        open: row.get("open").and_then(Json::as_bool).unwrap_or(false),
                        resident_bytes: row
                            .get("resident_bytes")
                            .and_then(Json::as_u64)
                            .unwrap_or(0) as usize,
                    })
                })
                .collect::<Result<_, _>>()?;
            Response::Catalog { collections }
        } else if resp.get("pong").is_some() {
            // Checked before the bare-"generation" Compacted arm below,
            // which a pong frame would otherwise satisfy.
            Response::Pong {
                generation: u("generation")?,
                wal_pending: u("wal_pending")?,
                uptime_ms: u("uptime_ms")?,
                collections: resp.get("collections").and_then(Json::as_u64),
                open_collections: resp.get("open_collections").and_then(Json::as_u64),
            }
        } else if let Some(rows) = resp.get("taxa").and_then(Json::as_arr) {
            // Checked before the bare-"generation" Compacted arm, which a
            // taxa frame would otherwise satisfy.
            let labels = rows
                .iter()
                .enumerate()
                .map(|(i, l)| {
                    l.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| format!("taxa label {i} is not a string"))
                })
                .collect::<Result<_, _>>()?;
            Response::Taxa {
                generation: u("generation")?,
                labels,
            }
        } else if resp.get("shutdown").is_some() {
            Response::Shutdown
        } else if resp.get("generation").is_some() {
            Response::Compacted {
                generation: u("generation")?,
                distinct: u("distinct")? as usize,
                wal_pending: u("wal_pending")? as usize,
            }
        } else {
            return Err("response matches no known shape".to_string());
        };
        Ok((resp_t, id))
    }
}

/// Parse one wire line into a typed envelope. Unparseable JSON is an
/// `Op::Unknown` error like any other malformed frame.
pub fn parse_request(line: &str) -> Result<Envelope, ProtoError> {
    let doc = json::parse(line).map_err(|e| ProtoError::new(Op::Unknown, e))?;
    Envelope::from_json(&doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_names_round_trip() {
        for op in Op::ALL {
            if op == Op::Unknown {
                assert_eq!(Op::from_name("unknown"), None, "unknown is not a wire op");
            } else {
                assert_eq!(Op::from_name(op.name()), Some(op));
            }
            assert_eq!(Op::ALL[op.index()], op);
        }
    }

    #[test]
    fn v1_frames_parse_and_render_without_version() {
        let env =
            parse_request(r#"{"op":"avgrf","queries":["((A,B),(C,D));"],"halved":true}"#).unwrap();
        assert_eq!(env.version, 1);
        assert_eq!(env.id, None);
        assert_eq!(env.request.op(), Op::AvgRf);
        let text = env.to_json().to_string();
        assert!(
            !text.contains("\"v\""),
            "v1 frames carry no version: {text}"
        );
        assert_eq!(parse_request(&text).unwrap(), env);
    }

    #[test]
    fn unsupported_version_is_a_typed_error() {
        let err = parse_request(r#"{"v":3,"op":"stats"}"#).unwrap_err();
        assert_eq!(err.op, Op::Stats);
        assert!(err.message.contains("unsupported protocol version 3"));
    }

    #[test]
    fn unknown_op_and_bad_json_attribute_to_unknown() {
        assert_eq!(parse_request("not json").unwrap_err().op, Op::Unknown);
        assert_eq!(
            parse_request(r#"{"op":"frobnicate"}"#).unwrap_err().op,
            Op::Unknown
        );
        assert_eq!(parse_request(r#"{"no_op":1}"#).unwrap_err().op, Op::Unknown);
    }

    #[test]
    fn payload_errors_attribute_to_their_op() {
        let err = parse_request(r#"{"op":"avgrf"}"#).unwrap_err();
        assert_eq!(err.op, Op::AvgRf);
        assert!(err.message.contains("queries"));
        let err = parse_request(r#"{"v":2,"op":"batch","queries":[42]}"#).unwrap_err();
        assert_eq!(err.op, Op::Batch);
        let err = parse_request(r#"{"op":"add","trees":"nope"}"#).unwrap_err();
        assert_eq!(err.op, Op::Add);
    }

    #[test]
    fn error_code_exit_semantics() {
        assert_eq!(ErrorCode::from_wire("budget"), ErrorCode::Budget);
        assert_eq!(ErrorCode::from_wire("error"), ErrorCode::Error);
        assert_eq!(ErrorCode::from_wire("???"), ErrorCode::Error);
        assert_eq!(ErrorCode::from_wire("busy"), ErrorCode::Busy);
        assert_eq!(Outcome::Cancelled.code(), ErrorCode::Budget);
        assert_eq!(Outcome::Budget.code(), ErrorCode::Budget);
        assert_eq!(Outcome::Error.code(), ErrorCode::Error);
        assert_eq!(Outcome::Busy.code(), ErrorCode::Busy);
        assert_eq!(ErrorCode::Budget.exit_code(), 3);
        assert_eq!(ErrorCode::Busy.exit_code(), 1);
        assert_eq!(ErrorCode::Error.exit_code(), 1);
    }

    #[test]
    fn pong_is_not_mistaken_for_compacted() {
        let pong = Response::Pong {
            generation: 3,
            wal_pending: 7,
            uptime_ms: 12_345,
            collections: None,
            open_collections: None,
        };
        let (parsed, id) = Response::from_json(&pong.to_json(Some(9))).unwrap();
        assert_eq!(parsed, pong);
        assert_eq!(id, Some(9));
        // A compacted frame (bare "generation") still parses as itself.
        let compacted = Response::Compacted {
            generation: 4,
            distinct: 10,
            wal_pending: 0,
        };
        let (parsed, _) = Response::from_json(&compacted.to_json(None)).unwrap();
        assert_eq!(parsed, compacted);
    }

    #[test]
    fn pong_catalog_fields_are_additive() {
        // A v1 pong carries no catalog members at all.
        let v1 = Response::Pong {
            generation: 0,
            wal_pending: 0,
            uptime_ms: 1,
            collections: None,
            open_collections: None,
        };
        let text = v1.to_json(None).to_string();
        assert!(
            !text.contains("collections"),
            "v1 pong gained a member: {text}"
        );
        // A v2 pong round-trips them.
        let v2 = Response::Pong {
            generation: 0,
            wal_pending: 0,
            uptime_ms: 1,
            collections: Some(4),
            open_collections: Some(2),
        };
        let (parsed, _) = Response::from_json(&v2.to_json(None)).unwrap();
        assert_eq!(parsed, v2);
    }

    #[test]
    fn collection_routing_field_round_trips_and_is_typed() {
        let env = parse_request(
            r#"{"v":2,"op":"batch","queries":["((A,B),(C,D));"],"collection":"mammals"}"#,
        )
        .unwrap();
        assert_eq!(env.request.collection(), Some("mammals"));
        let text = env.to_json().to_string();
        assert!(text.contains(r#""collection":"mammals""#));
        assert_eq!(parse_request(&text).unwrap(), env);
        // A frame without the field parses to None and renders without it.
        let env = parse_request(r#"{"v":2,"op":"compact"}"#).unwrap();
        assert_eq!(env.request.collection(), None);
        assert!(!env.to_json().to_string().contains("collection"));
        // A non-string collection is a typed error on the right op.
        let err = parse_request(r#"{"v":2,"op":"ping","collection":7}"#).unwrap_err();
        assert_eq!(err.op, Op::Ping);
    }

    #[test]
    fn catalog_ops_round_trip() {
        let env = parse_request(
            r#"{"v":2,"op":"catalog-create","name":"mammals","trees":["((A,B),(C,D));"]}"#,
        )
        .unwrap();
        assert_eq!(env.request.op(), Op::CatalogCreate);
        assert_eq!(parse_request(&env.to_json().to_string()).unwrap(), env);
        // trees is optional on create.
        let env = parse_request(r#"{"v":2,"op":"catalog-create","name":"empty"}"#).unwrap();
        assert!(matches!(
            &env.request,
            Request::CatalogCreate { trees, .. } if trees.is_empty()
        ));
        let env = parse_request(r#"{"v":2,"op":"catalog-drop","name":"mammals"}"#).unwrap();
        assert_eq!(parse_request(&env.to_json().to_string()).unwrap(), env);
        let env = parse_request(r#"{"v":2,"op":"catalog-list"}"#).unwrap();
        assert_eq!(env.request, Request::CatalogList);
        // A missing name is a typed error on the right op.
        let err = parse_request(r#"{"v":2,"op":"catalog-drop"}"#).unwrap_err();
        assert_eq!(err.op, Op::CatalogDrop);
        assert!(err.message.contains("name"));
    }

    #[test]
    fn hello_encoding_negotiation_is_additive_and_typed() {
        // A bare hello (any version) parses to None and renders with no
        // encoding member — byte-identical to the pre-encoding frame.
        let env = parse_request(r#"{"v":2,"op":"hello"}"#).unwrap();
        assert_eq!(env.request, Request::Hello { encoding: None });
        assert!(!env.to_json().to_string().contains("encoding"));
        // Asking for bin round-trips.
        let env = parse_request(r#"{"v":2,"op":"hello","encoding":"bin"}"#).unwrap();
        assert_eq!(
            env.request,
            Request::Hello {
                encoding: Some(WireEncoding::Bin)
            }
        );
        assert_eq!(parse_request(&env.to_json().to_string()).unwrap(), env);
        // Unknown or non-string encodings are typed errors on hello.
        let err = parse_request(r#"{"v":2,"op":"hello","encoding":"xml"}"#).unwrap_err();
        assert_eq!(err.op, Op::Hello);
        assert!(err.message.contains("unknown encoding"));
        let err = parse_request(r#"{"v":2,"op":"hello","encoding":7}"#).unwrap_err();
        assert_eq!(err.op, Op::Hello);
        // The response echo is additive: absent unless negotiated.
        let plain = Response::Hello {
            version: 2,
            max_batch: 16,
            encoding: None,
        };
        let text = plain.to_json(None).to_string();
        assert!(
            !text.contains("encoding"),
            "plain hello grew a member: {text}"
        );
        let (parsed, _) = Response::from_json(&plain.to_json(None)).unwrap();
        assert_eq!(parsed, plain);
        let bin = Response::Hello {
            version: 2,
            max_batch: 16,
            encoding: Some(WireEncoding::Bin),
        };
        let (parsed, _) = Response::from_json(&bin.to_json(None)).unwrap();
        assert_eq!(parsed, bin);
    }

    #[test]
    fn taxa_op_round_trips_and_is_not_mistaken_for_compacted() {
        let env = parse_request(r#"{"v":2,"op":"taxa"}"#).unwrap();
        assert_eq!(env.request, Request::Taxa { collection: None });
        let env = parse_request(r#"{"v":2,"op":"taxa","collection":"mammals"}"#).unwrap();
        assert_eq!(env.request.collection(), Some("mammals"));
        assert_eq!(parse_request(&env.to_json().to_string()).unwrap(), env);

        let taxa = Response::Taxa {
            generation: 3,
            labels: vec!["A".into(), "B".into(), "C".into()],
        };
        let (parsed, id) = Response::from_json(&taxa.to_json(Some(4))).unwrap();
        assert_eq!(parsed, taxa);
        assert_eq!(id, Some(4));
        // An empty label set still discriminates away from Compacted.
        let empty = Response::Taxa {
            generation: 0,
            labels: vec![],
        };
        let (parsed, _) = Response::from_json(&empty.to_json(None)).unwrap();
        assert_eq!(parsed, empty);
    }

    #[test]
    fn xavgrf_and_catalog_responses_round_trip() {
        let env = parse_request(r#"{"v":2,"op":"xavgrf","refs":"a","queries":"b","halved":true}"#)
            .unwrap();
        assert_eq!(env.request.op(), Op::Xavgrf);
        assert_eq!(parse_request(&env.to_json().to_string()).unwrap(), env);

        let xs = Response::XScores {
            common_taxa: 6,
            scores: vec![ScoreRow {
                index: 0,
                left: 1,
                right: 2,
                n_refs: 3,
                avg: 1.0,
            }],
            notes: vec![],
        };
        let (parsed, _) = Response::from_json(&xs.to_json(None)).unwrap();
        assert_eq!(
            parsed, xs,
            "common_taxa must win over the plain scores shape"
        );

        let created = Response::Created {
            name: "mammals".into(),
            n_trees: 9,
        };
        let (parsed, _) = Response::from_json(&created.to_json(None)).unwrap();
        assert_eq!(parsed, created);
        let dropped = Response::Dropped {
            name: "mammals".into(),
        };
        let (parsed, _) = Response::from_json(&dropped.to_json(None)).unwrap();
        assert_eq!(parsed, dropped);
        let list = Response::Catalog {
            collections: vec![CatalogRow {
                name: "mammals".into(),
                open: true,
                resident_bytes: 4096,
            }],
        };
        let (parsed, _) = Response::from_json(&list.to_json(None)).unwrap();
        assert_eq!(parsed, list);
    }
}
