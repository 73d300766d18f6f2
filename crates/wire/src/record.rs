//! The tree record codec: one tree, one self-checksummed byte record.
//!
//! Layout (all integers LEB128 varints unless noted; see DESIGN.md §13):
//!
//! ```text
//! tag        u8      0xB1 (record format v1)
//! n_nodes    varint  total nodes in the tree (≥ 1)
//! n_leaves   varint  taxon-bearing leaves (≥ 1, ≤ n_nodes)
//! flags      u8      bit0 = edge lengths present; other bits reserved (0)
//! topology   ⌈2·n_nodes/8⌉ bytes — balanced parentheses, LSB-first:
//!                    1 = enter a node (preorder), 0 = leave it; a leaf is
//!                    an enter bit immediately followed by its leave bit
//! leaf taxa  n_leaves varints — TaxonId of each leaf, preorder order
//! [lengths]  only if flags bit0:
//!   presence ⌈n_nodes/8⌉ bytes — bit i set ⇔ preorder node i has a length
//!   values   one f64 (LE) per set presence bit, preorder order
//! checksum   u32 LE — word-folded FNV-1a-64 ([`crate::fnv1a64_words`])
//!                    over tag..payload, xor-folded to 32 bits
//!                    (`(h >> 32) ^ h`). The xor-fold is load-bearing:
//!                    plain truncation would leave the high lanes of each
//!                    8-byte chunk undetected, because multiplication mod
//!                    2^64 only carries upward
//! ```
//!
//! The topology stream is the succinct balanced-parentheses encoding: `2n`
//! bits carry the full shape. The decoder validates a record completely
//! (counting depth, never recursing, so adversarial 10M-node "trees" cost
//! an allocation check, not a stack overflow), then replays the bits as
//! [`TreeSink`] events — into a [`TreeBuilder`] for a [`Tree`], or into
//! the split extractor for a served query, which needs no tree at all.

use crate::fnv::fnv1a64_words;
use crate::varint::{put_uvarint, take_uvarint};
use crate::WireError;
use phylo::{BipartitionScratch, NodeId, SplitBatch, TaxonId, Tree, TreeBuilder, TreeSink};

/// First byte of every tree record; doubles as the record format version.
pub const RECORD_TAG: u8 = 0xB1;
/// Flag bit: the record carries an edge-length section.
pub const FLAG_LENGTHS: u8 = 0x01;

/// Decoders refuse node counts beyond this (2^32 − 1 matches the arena's
/// `u32` node ids); combined with the bits-must-fit check it bounds every
/// allocation by the input length.
const MAX_NODES: u64 = u32::MAX as u64;

/// The record checksum: word-folded FNV-1a-64 xor-folded to 32 bits.
/// See the module docs for why the xor-fold (not truncation) is required.
#[inline]
fn record_sum(bytes: &[u8]) -> u32 {
    let h = fnv1a64_words(bytes);
    ((h >> 32) as u32) ^ (h as u32)
}

struct BitWriter {
    bytes: Vec<u8>,
    bit: usize,
}

impl BitWriter {
    fn with_bits(n: usize) -> Self {
        BitWriter {
            bytes: vec![0u8; n.div_ceil(8)],
            bit: 0,
        }
    }

    #[inline]
    fn push(&mut self, one: bool) {
        if one {
            self.bytes[self.bit / 8] |= 1 << (self.bit % 8);
        }
        self.bit += 1;
    }
}

#[inline]
fn get_bit(bytes: &[u8], i: usize) -> bool {
    bytes[i / 8] & (1 << (i % 8)) != 0
}

/// Append the record encoding of `tree` to `out`.
///
/// Fails with [`WireError::Unencodable`] on shapes the format (like the
/// Newick writer) cannot represent: an empty tree, a childless node
/// without a taxon, or a taxon label on an internal node.
pub fn encode_tree(tree: &Tree, out: &mut Vec<u8>) -> Result<(), WireError> {
    let root = tree.root().ok_or(WireError::Unencodable("empty tree"))?;
    // Pass 1: preorder walk for counts and validation.
    let mut order: Vec<NodeId> = Vec::with_capacity(tree.num_nodes());
    let mut stack = vec![root];
    let mut n_leaves = 0usize;
    let mut has_lengths = false;
    while let Some(node) = stack.pop() {
        order.push(node);
        if tree.length(node).is_some() {
            has_lengths = true;
        }
        let kids = tree.children(node);
        if kids.is_empty() {
            if tree.taxon(node).is_none() {
                return Err(WireError::Unencodable("leaf without a taxon"));
            }
            n_leaves += 1;
        } else {
            if tree.taxon(node).is_some() {
                return Err(WireError::Unencodable("taxon on an internal node"));
            }
            stack.extend(kids.iter().rev());
        }
    }
    let n_nodes = order.len();

    let start = out.len();
    out.push(RECORD_TAG);
    put_uvarint(out, n_nodes as u64);
    put_uvarint(out, n_leaves as u64);
    out.push(if has_lengths { FLAG_LENGTHS } else { 0 });

    // Pass 2: balanced-parens bits via an explicit enter/exit stack.
    let mut topo = BitWriter::with_bits(2 * n_nodes);
    enum Ev {
        Enter(NodeId),
        Exit,
    }
    let mut events = vec![Ev::Enter(root)];
    while let Some(ev) = events.pop() {
        match ev {
            Ev::Enter(node) => {
                topo.push(true);
                events.push(Ev::Exit);
                for &kid in tree.children(node).iter().rev() {
                    events.push(Ev::Enter(kid));
                }
            }
            Ev::Exit => topo.push(false),
        }
    }
    debug_assert_eq!(topo.bit, 2 * n_nodes);
    out.extend_from_slice(&topo.bytes);

    for &node in &order {
        if tree.children(node).is_empty() {
            // Validated Some above.
            let id = tree.taxon(node).expect("leaf taxon checked in pass 1");
            put_uvarint(out, u64::from(id.0));
        }
    }

    if has_lengths {
        let mut presence = BitWriter::with_bits(n_nodes);
        for &node in &order {
            presence.push(tree.length(node).is_some());
        }
        out.extend_from_slice(&presence.bytes);
        for &node in &order {
            if let Some(len) = tree.length(node) {
                out.extend_from_slice(&len.to_le_bytes());
            }
        }
    }

    out.extend_from_slice(&record_sum(&out[start..]).to_le_bytes());
    Ok(())
}

/// [`encode_tree`] into a fresh buffer.
pub fn encode_tree_vec(tree: &Tree) -> Result<Vec<u8>, WireError> {
    let mut out = Vec::new();
    encode_tree(tree, &mut out)?;
    Ok(out)
}

/// Where a validated record's sections sit in its buffer.
struct Layout {
    n_nodes: usize,
    topo_at: usize,
    taxa_at: usize,
    /// Start of the presence bitmap, when the record carries lengths.
    presence_at: Option<usize>,
    /// Bytes the record spans, checksum included.
    len: usize,
}

/// Check everything about the record at the front of `buf` — header,
/// topology, taxa, lengths, checksum — without building anything. Every
/// decode goes through here first, so all front ends report the same
/// error for the same bytes.
fn validate(buf: &[u8], n_taxa: usize) -> Result<Layout, WireError> {
    let mut pos = 0usize;
    let Some(&tag) = buf.first() else {
        return Err(WireError::Truncated {
            offset: 0,
            what: "record tag",
        });
    };
    if tag != RECORD_TAG {
        return Err(WireError::corrupt(
            0,
            format!("bad record tag 0x{tag:02x} (expected 0x{RECORD_TAG:02x})"),
        ));
    }
    pos += 1;

    let n_nodes = take_uvarint(buf, &mut pos, "node count")?;
    if n_nodes == 0 || n_nodes > MAX_NODES {
        return Err(WireError::corrupt(
            pos,
            format!("node count {n_nodes} out of range"),
        ));
    }
    // Cheap pre-allocation bound: the topology alone needs 2 bits/node, so
    // a count that cannot fit in the remaining bytes is corrupt, not an
    // invitation to allocate.
    let n_nodes = n_nodes as usize;
    if n_nodes.div_ceil(4) > buf.len() - pos {
        return Err(WireError::corrupt(
            pos,
            format!("node count {n_nodes} exceeds remaining input"),
        ));
    }
    let n_leaves = take_uvarint(buf, &mut pos, "leaf count")? as usize;
    if n_leaves == 0 || n_leaves > n_nodes {
        return Err(WireError::corrupt(
            pos,
            format!("leaf count {n_leaves} out of range"),
        ));
    }
    let Some(&flags) = buf.get(pos) else {
        return Err(WireError::Truncated {
            offset: pos,
            what: "flags",
        });
    };
    if flags & !FLAG_LENGTHS != 0 {
        return Err(WireError::corrupt(
            pos,
            format!("unknown flag bits 0x{flags:02x}"),
        ));
    }
    pos += 1;

    // Topology: 2·n_nodes balanced-parens bits.
    let topo_bytes = (2 * n_nodes).div_ceil(8);
    let Some(topo) = buf.get(pos..pos + topo_bytes) else {
        return Err(WireError::Truncated {
            offset: buf.len(),
            what: "topology bits",
        });
    };
    let topo_at = pos;
    pos += topo_bytes;
    // Canonical form: padding bits past 2·n_nodes must be zero.
    for i in 2 * n_nodes..topo_bytes * 8 {
        if get_bit(topo, i) {
            return Err(WireError::corrupt(topo_at, "nonzero topology padding bits"));
        }
    }
    // Branch-free scan (open/close bits are a coin flip to a predictor);
    // only a broken stream goes back for the bit that broke it.
    let (mut depth, mut nodes, mut leaves) = (0usize, 0usize, 0usize);
    let (mut prev_open, mut broken) = (0usize, false);
    for i in 0..2 * n_nodes {
        let open = usize::from(get_bit(topo, i));
        broken |= (depth == 0) & ((nodes != 0) | (open == 0));
        depth = depth.wrapping_add(2 * open).wrapping_sub(1);
        nodes += open;
        leaves += prev_open & (open ^ 1);
        prev_open = open;
    }
    if broken {
        return Err(topology_break(topo, n_nodes, topo_at));
    }
    if depth != 0 {
        return Err(WireError::corrupt(topo_at, "unbalanced topology bits"));
    }
    if nodes != n_nodes {
        return Err(WireError::corrupt(
            topo_at,
            format!("topology holds {nodes} nodes, header says {n_nodes}"),
        ));
    }
    if leaves != n_leaves {
        return Err(WireError::corrupt(
            topo_at,
            format!("topology holds {leaves} leaves, header says {n_leaves}"),
        ));
    }

    // Leaf taxa, preorder. Duplicate detection doubles as the
    // more-leaves-than-taxa guard.
    let taxa_at = pos;
    let mut seen = vec![0u64; n_taxa.div_ceil(64)];
    for _ in 0..n_leaves {
        let at = pos;
        let id = take_uvarint(buf, &mut pos, "leaf taxon id")?;
        if id >= n_taxa as u64 {
            return Err(WireError::corrupt(
                at,
                format!("taxon id {id} out of range (namespace holds {n_taxa})"),
            ));
        }
        let (w, bit) = (id as usize / 64, 1u64 << (id % 64));
        if seen[w] & bit != 0 {
            return Err(WireError::corrupt(at, format!("duplicate taxon id {id}")));
        }
        seen[w] |= bit;
    }

    let mut presence_at = None;
    if flags & FLAG_LENGTHS != 0 {
        let map_bytes = n_nodes.div_ceil(8);
        let Some(presence) = buf.get(pos..pos + map_bytes) else {
            return Err(WireError::Truncated {
                offset: buf.len(),
                what: "length presence bitmap",
            });
        };
        presence_at = Some(pos);
        pos += map_bytes;
        for i in n_nodes..map_bytes * 8 {
            if get_bit(presence, i) {
                return Err(WireError::corrupt(
                    presence_at.expect("just set"),
                    "nonzero presence padding bits",
                ));
            }
        }
        for i in 0..n_nodes {
            if get_bit(presence, i) {
                let Some(raw) = buf.get(pos..pos + 8) else {
                    return Err(WireError::Truncated {
                        offset: buf.len(),
                        what: "edge length",
                    });
                };
                let v = f64::from_le_bytes(raw.try_into().expect("8-byte slice"));
                if !v.is_finite() {
                    return Err(WireError::corrupt(pos, "non-finite edge length"));
                }
                pos += 8;
            }
        }
    }

    let Some(raw) = buf.get(pos..pos + 4) else {
        return Err(WireError::Truncated {
            offset: buf.len(),
            what: "record checksum",
        });
    };
    let stored = u32::from_le_bytes(raw.try_into().expect("4-byte slice"));
    if stored != record_sum(&buf[..pos]) {
        return Err(WireError::corrupt(pos, "record checksum mismatch"));
    }
    Ok(Layout {
        n_nodes,
        topo_at,
        taxa_at,
        presence_at,
        len: pos + 4,
    })
}

/// The error for the first bit at which `topo` stops being one balanced
/// tree: an enter bit after the root closed, or a leave bit with nothing
/// open.
fn topology_break(topo: &[u8], n_nodes: usize, topo_at: usize) -> WireError {
    let mut depth = 0usize;
    for i in 0..2 * n_nodes {
        if get_bit(topo, i) {
            if depth == 0 && i > 0 {
                return WireError::corrupt(topo_at, "topology encodes a forest");
            }
            depth += 1;
        } else if depth == 0 {
            break;
        } else {
            depth -= 1;
        }
    }
    WireError::corrupt(topo_at, "unbalanced topology bits")
}

/// Replay a validated record as [`TreeSink`] events: one `open` per enter
/// bit (followed by the node's length, if present), one `close` per leave
/// bit — preceded by the leaf's taxon when it directly follows an enter.
fn emit<S: TreeSink>(buf: &[u8], at: &Layout, sink: &mut S) {
    let n = at.n_nodes;
    let topo = &buf[at.topo_at..];
    let mut taxa_pos = at.taxa_at;
    let mut lengths = at
        .presence_at
        .filter(|_| S::READS_LENGTHS)
        .map(|p| (&buf[p..], p + n.div_ceil(8)));
    let (mut preorder, mut prev_open) = (0usize, false);
    for i in 0..2 * n {
        let open = get_bit(topo, i);
        if open {
            sink.open();
            if let Some((presence, values)) = &mut lengths {
                if get_bit(presence, preorder) {
                    let raw = &buf[*values..*values + 8];
                    sink.length(f64::from_le_bytes(raw.try_into().expect("8-byte slice")));
                    *values += 8;
                }
            }
            preorder += 1;
        } else {
            if prev_open {
                let id =
                    take_uvarint(buf, &mut taxa_pos, "leaf taxon id").expect("leaf taxa validated");
                sink.taxon(TaxonId(id as u32));
            }
            sink.close();
        }
        prev_open = open;
    }
}

/// Decode one tree record from the front of `buf`, validating every taxon
/// id against the `n_taxa`-wide namespace. Returns the tree and the number
/// of bytes consumed (the record is self-delimiting).
///
/// Never panics on corrupt input: every structural violation — bad tag,
/// unbalanced parentheses, out-of-range or duplicate taxa, non-canonical
/// padding bits, checksum mismatch, truncation — is a typed [`WireError`].
pub fn decode_tree(buf: &[u8], n_taxa: usize) -> Result<(Tree, usize), WireError> {
    let at = validate(buf, n_taxa)?;
    let mut tree = TreeBuilder::with_node_capacity(at.n_nodes);
    emit(buf, &at, &mut tree);
    Ok((tree.finish(), at.len))
}

/// The exact-span check shared by the whole-buffer decoders.
fn validate_exact(buf: &[u8], n_taxa: usize) -> Result<Layout, WireError> {
    let at = validate(buf, n_taxa)?;
    if at.len != buf.len() {
        return Err(WireError::corrupt(
            at.len,
            format!("{} trailing bytes after record", buf.len() - at.len),
        ));
    }
    Ok(at)
}

/// [`decode_tree`] that additionally requires the record to span the whole
/// buffer — the right call for WAL payloads and wire frames, where one
/// payload is exactly one record.
pub fn decode_tree_exact(buf: &[u8], n_taxa: usize) -> Result<Tree, WireError> {
    let at = validate_exact(buf, n_taxa)?;
    let mut tree = TreeBuilder::with_node_capacity(at.n_nodes);
    emit(buf, &at, &mut tree);
    Ok(tree.finish())
}

/// The split batch of the one record spanning `buf`, extracted straight
/// from its topology bits and leaf ids — no [`Tree`] is built. Accepts and
/// rejects exactly what [`decode_tree_exact`] does, with the same errors;
/// on success the batch equals `scratch.batch_splits` of the decoded tree.
pub fn decode_splits_exact<'s>(
    buf: &[u8],
    n_taxa: usize,
    scratch: &'s mut BipartitionScratch,
) -> Result<SplitBatch<'s>, WireError> {
    scratch.batch_from(n_taxa, |sink| {
        let at = validate_exact(buf, n_taxa)?;
        emit(buf, &at, sink);
        Ok(())
    })
}

/// Rewrite every leaf's taxon id through `map` (file-local id → caller
/// id). Used when a record was decoded against an embedded taxa table
/// whose interning order differs from the caller's namespace.
pub fn remap_leaf_taxa(tree: &mut Tree, map: &[TaxonId]) {
    for node in tree.postorder() {
        if let Some(id) = tree.taxon(node) {
            tree.set_taxon(node, Some(map[id.index()]));
        }
    }
}
