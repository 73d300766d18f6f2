//! Newick tree serialization: lexer, parser, writer, streaming reader.
//!
//! The dialect follows what Dendropy (the paper's foundation) accepts:
//!
//! * unquoted labels (`Homo_sapiens`), single-quoted labels with `''`
//!   escaping (`'Homo sapiens (human)'`),
//! * bracket comments `[...]`, which may nest,
//! * branch lengths after `:` in integer/decimal/scientific notation,
//! * internal node labels (stored, and round-tripped by the writer),
//! * multifurcations and single-leaf trees.
//!
//! Parsing is iterative (no recursion), so deeply nested caterpillar trees
//! cannot overflow the stack. The [`NewickStream`] reader yields trees one
//! at a time from any `BufRead` source — this is the "dynamically load Q"
//! behaviour the BFHRF algorithm exploits to keep memory flat.

use crate::taxa::{TaxonId, TaxonSet};
use crate::tree::{NodeId, Tree, TreeBuilder, TreeSink};
use crate::PhyloError;
use std::borrow::Cow;
use std::io::BufRead;

/// How the parser treats labels not yet in the taxon namespace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaxaPolicy {
    /// Intern unseen labels (used for the first collection read).
    Grow,
    /// Error with [`PhyloError::UnknownTaxon`] on unseen labels (used to
    /// enforce the paper's fixed-taxa requirement across `Q` and `R`).
    Require,
}

#[derive(Debug, PartialEq)]
enum Token<'a> {
    Open,
    Close,
    Comma,
    Colon,
    Semicolon,
    /// Borrowed from the input unless quote escapes (or non-ASCII bytes
    /// inside quotes) force a rewrite.
    Label(Cow<'a, str>),
    Number(f64),
}

/// What a bare (unquoted) token means where the parser asks for one.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Bare {
    /// A node label.
    Label,
    /// A branch length, right after `:`.
    Length,
    /// A branch length the sink will not read: it must still parse, but a
    /// plain decimal (see [`is_plain_decimal`]) need not be converted.
    UnreadLength,
}

/// Bytes that end a bare token: structural characters and ASCII
/// whitespace.
const ENDS_BARE: [bool; 256] = {
    let mut table = [false; 256];
    let ends = b"(),:;['\t\n\x0C\r ";
    let mut i = 0;
    while i < ends.len() {
        table[ends[i] as usize] = true;
        i += 1;
    }
    table
};

/// Whether `text` is `[+-]?digits[.digits][(e|E)[+-]?digits]` — a form
/// `f64::from_str` always accepts, so a length nobody reads needs no
/// conversion. Anything else goes through the real parse.
fn is_plain_decimal(text: &str) -> bool {
    fn digits(b: &[u8]) -> usize {
        b.iter().take_while(|c| c.is_ascii_digit()).count()
    }
    let b = text.as_bytes();
    let mut i = usize::from(matches!(b.first(), Some(b'+' | b'-')));
    let int = digits(&b[i..]);
    if int == 0 {
        return false;
    }
    i += int;
    if b.get(i) == Some(&b'.') {
        let frac = digits(&b[i + 1..]);
        if frac == 0 {
            return false;
        }
        i += 1 + frac;
    }
    if matches!(b.get(i), Some(b'e' | b'E')) {
        i += 1;
        i += usize::from(matches!(b.get(i), Some(b'+' | b'-')));
        let exp = digits(&b[i..]);
        if exp == 0 {
            return false;
        }
        i += exp;
    }
    i == b.len()
}

struct Lexer<'a> {
    text: &'a str,
    input: &'a [u8],
    pos: usize,
}

impl<'a> Lexer<'a> {
    fn new(input: &'a str) -> Self {
        Lexer {
            text: input,
            input: input.as_bytes(),
            pos: 0,
        }
    }

    fn skip_trivia(&mut self) -> Result<(), PhyloError> {
        loop {
            while self.pos < self.input.len() && self.input[self.pos].is_ascii_whitespace() {
                self.pos += 1;
            }
            if self.pos < self.input.len() && self.input[self.pos] == b'[' {
                let start = self.pos;
                let mut depth = 0usize;
                while self.pos < self.input.len() {
                    match self.input[self.pos] {
                        b'[' => depth += 1,
                        b']' => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    self.pos += 1;
                }
                if depth != 0 {
                    return Err(PhyloError::parse(start, "unterminated comment"));
                }
                self.pos += 1; // past ']'
                continue;
            }
            return Ok(());
        }
    }

    /// Position of the upcoming token (for error messages).
    fn offset(&self) -> usize {
        self.pos
    }

    fn at_end(&mut self) -> Result<bool, PhyloError> {
        self.skip_trivia()?;
        Ok(self.pos >= self.input.len())
    }

    /// `bare` says what an unquoted token is here: right after a `:` (and
    /// only there) it is a branch length rather than a label.
    fn next_token(&mut self, bare: Bare) -> Result<Token<'a>, PhyloError> {
        self.skip_trivia()?;
        let start = self.pos;
        let Some(&b) = self.input.get(self.pos) else {
            return Err(PhyloError::parse(start, "unexpected end of input"));
        };
        match b {
            b'(' => {
                self.pos += 1;
                Ok(Token::Open)
            }
            b')' => {
                self.pos += 1;
                Ok(Token::Close)
            }
            b',' => {
                self.pos += 1;
                Ok(Token::Comma)
            }
            b':' => {
                self.pos += 1;
                Ok(Token::Colon)
            }
            b';' => {
                self.pos += 1;
                Ok(Token::Semicolon)
            }
            b'\'' => {
                self.pos += 1;
                let body = self.pos;
                // Each byte maps to the char of the same value and `''`
                // to one quote; a label with neither escapes nor
                // non-ASCII bytes is therefore the input slice itself.
                let mut label: Option<String> = None;
                loop {
                    match self.input.get(self.pos) {
                        None => return Err(PhyloError::parse(start, "unterminated quoted label")),
                        Some(b'\'') => {
                            if self.input.get(self.pos + 1) == Some(&b'\'') {
                                label.get_or_insert_with(|| self.latin1(body)).push('\'');
                                self.pos += 2;
                            } else {
                                self.pos += 1;
                                break;
                            }
                        }
                        Some(&c) => {
                            if let Some(l) = &mut label {
                                l.push(c as char);
                            } else if !c.is_ascii() {
                                label = Some(self.latin1(body));
                                continue;
                            }
                            self.pos += 1;
                        }
                    }
                }
                Ok(Token::Label(match label {
                    Some(l) => Cow::Owned(l),
                    None => Cow::Borrowed(self.ascii(body, self.pos - 1)),
                }))
            }
            _ => {
                // bare token: runs until a structural character
                while self.pos < self.input.len() && !ENDS_BARE[self.input[self.pos] as usize] {
                    self.pos += 1;
                }
                // Tokens start and end next to ASCII bytes, so this slice
                // lies on char boundaries.
                let text = self
                    .text
                    .get(start..self.pos)
                    .ok_or_else(|| PhyloError::parse(start, "invalid UTF-8 in label"))?;
                match bare {
                    Bare::Label => Ok(Token::Label(Cow::Borrowed(text))),
                    Bare::UnreadLength if is_plain_decimal(text) => Ok(Token::Number(0.0)),
                    Bare::Length | Bare::UnreadLength => {
                        let v: f64 = text.parse().map_err(|_| {
                            PhyloError::parse(start, format!("invalid branch length {text:?}"))
                        })?;
                        Ok(Token::Number(v))
                    }
                }
            }
        }
    }

    /// `input[from..self.pos]`, known to be ASCII, as a `&str`.
    fn ascii(&self, from: usize, to: usize) -> &'a str {
        std::str::from_utf8(&self.input[from..to]).expect("quoted label prefix is ASCII")
    }

    /// The quoted-label bytes read so far, one char per byte.
    fn latin1(&self, from: usize) -> String {
        self.input[from..self.pos]
            .iter()
            .map(|&c| c as char)
            .collect()
    }
}

/// Parse one Newick tree (terminated by `;`) from `input`.
///
/// Leaf labels are resolved against `taxa` under `policy`. Internal labels
/// (support values etc.) are accepted but not stored. Trailing content
/// after the `;` is an error — use [`read_trees_from_str`] or
/// [`NewickStream`] for multi-tree inputs.
pub fn parse_newick(
    input: &str,
    taxa: &mut TaxonSet,
    policy: TaxaPolicy,
) -> Result<Tree, PhyloError> {
    let mut tree = TreeBuilder::default();
    parse_whole(input, &mut policy_resolver(taxa, policy), &mut tree)?;
    Ok(tree.finish())
}

/// [`parse_newick`] against a **shared** namespace with
/// [`TaxaPolicy::Require`] semantics: unknown labels error, the namespace
/// is never mutated, and — unlike cloning the set to satisfy the `&mut`
/// parser signature — nothing is allocated per call. Many threads can
/// parse concurrently against one frozen `TaxonSet`.
pub fn parse_newick_readonly(input: &str, taxa: &TaxonSet) -> Result<Tree, PhyloError> {
    let mut tree = TreeBuilder::default();
    parse_readonly_into(input, taxa, &mut tree)?;
    Ok(tree.finish())
}

/// The parser behind [`parse_newick_readonly`], emitting into any sink —
/// the split extractor's Newick driver shares it, so both accept and
/// reject exactly the same inputs.
pub(crate) fn parse_readonly_into<S: TreeSink>(
    input: &str,
    taxa: &TaxonSet,
    sink: &mut S,
) -> Result<(), PhyloError> {
    parse_whole(input, &mut |label: &str| taxa.require(label), sink)
}

/// One tree that must span all of `input` (trailing trivia allowed).
fn parse_whole<S: TreeSink>(
    input: &str,
    resolve: &mut impl FnMut(&str) -> Result<TaxonId, PhyloError>,
    sink: &mut S,
) -> Result<(), PhyloError> {
    let mut lexer = Lexer::new(input);
    parse_one(&mut lexer, resolve, sink)?;
    if !lexer.at_end()? {
        return Err(PhyloError::parse(
            lexer.offset(),
            "trailing content after ';'",
        ));
    }
    Ok(())
}

/// Parse every tree in `input` (one per `;`).
pub fn read_trees_from_str(
    input: &str,
    taxa: &mut TaxonSet,
    policy: TaxaPolicy,
) -> Result<Vec<Tree>, PhyloError> {
    let mut lexer = Lexer::new(input);
    let mut resolve = policy_resolver(taxa, policy);
    let mut out = Vec::new();
    while !lexer.at_end()? {
        let mut tree = TreeBuilder::default();
        parse_one(&mut lexer, &mut resolve, &mut tree)?;
        out.push(tree.finish());
    }
    Ok(out)
}

/// Label resolution under a [`TaxaPolicy`], as a closure so the parser
/// core is agnostic to whether the namespace can grow.
fn policy_resolver(
    taxa: &mut TaxonSet,
    policy: TaxaPolicy,
) -> impl FnMut(&str) -> Result<TaxonId, PhyloError> + '_ {
    move |label| match policy {
        TaxaPolicy::Grow => Ok(taxa.intern(label)),
        TaxaPolicy::Require => taxa.require(label),
    }
}

/// What the parser knows about the node it is currently filling in.
#[derive(Clone, Copy, Default)]
struct NodeState {
    /// A label was read (a leaf label also set the taxon).
    named: bool,
    /// A branch length was read.
    lengthed: bool,
    /// The node's child list was closed by `)`.
    closed: bool,
}

/// Parse one tree, emitting it into `sink` as it goes. Every syntax check
/// lives here, so the sink never sees a malformed tree complete — on an
/// error it has seen a prefix of the events and must be discarded.
fn parse_one<S: TreeSink>(
    lexer: &mut Lexer<'_>,
    resolve: &mut impl FnMut(&str) -> Result<TaxonId, PhyloError>,
    sink: &mut S,
) -> Result<(), PhyloError> {
    sink.open(); // the root
    let mut cur = NodeState::default();
    // `lengthed` of every open ancestor: a length may precede `(`, and a
    // second one after the matching `)` is still a duplicate.
    let mut ancestors: Vec<bool> = Vec::new();

    loop {
        let offset = {
            lexer.skip_trivia()?;
            lexer.offset()
        };
        match lexer.next_token(Bare::Label)? {
            Token::Open => {
                if cur.named {
                    return Err(PhyloError::parse(offset, "unexpected '(' after label"));
                }
                if cur.closed {
                    return Err(PhyloError::parse(
                        offset,
                        "unexpected '(': node already closed",
                    ));
                }
                ancestors.push(cur.lengthed);
                cur = NodeState::default();
                sink.open();
            }
            Token::Comma => {
                if ancestors.is_empty() {
                    return Err(PhyloError::parse(offset, "',' outside parentheses"));
                }
                finish_node(cur, offset)?;
                sink.close();
                cur = NodeState::default();
                sink.open();
            }
            Token::Close => {
                let Some(&lengthed) = ancestors.last() else {
                    return Err(PhyloError::parse(offset, "unbalanced ')'"));
                };
                finish_node(cur, offset)?;
                sink.close();
                ancestors.pop();
                cur = NodeState {
                    named: false,
                    lengthed,
                    closed: true,
                };
            }
            Token::Colon => {
                if cur.lengthed {
                    return Err(PhyloError::parse(offset, "duplicate branch length"));
                }
                let bare = if S::READS_LENGTHS {
                    Bare::Length
                } else {
                    Bare::UnreadLength
                };
                match lexer.next_token(bare)? {
                    Token::Number(v) => {
                        sink.length(v);
                        cur.lengthed = true;
                    }
                    _ => {
                        return Err(PhyloError::parse(
                            offset,
                            "expected branch length after ':'",
                        ))
                    }
                }
            }
            Token::Semicolon => {
                if !ancestors.is_empty() {
                    return Err(PhyloError::parse(
                        offset,
                        "unbalanced '(': tree ended early",
                    ));
                }
                finish_node(cur, offset)?;
                sink.close();
                return Ok(());
            }
            Token::Label(label) => {
                if cur.named {
                    return Err(PhyloError::parse(
                        offset,
                        format!("unexpected second label {label:?}"),
                    ));
                }
                if !cur.closed {
                    // leaf name → taxon
                    sink.taxon(resolve(&label)?);
                }
                // Internal labels (clade names / support values) are parsed
                // for dialect compatibility but not stored: nothing in the
                // RF pipeline reads them, and dropping them keeps nodes at
                // two words.
                cur.named = true;
            }
            Token::Number(_) => unreachable!("numbers only requested after ':'"),
        }
    }
}

/// A node is finished when `,`, `)` or `;` closes it: leaves must have
/// received a taxon by then.
fn finish_node(node: NodeState, offset: usize) -> Result<(), PhyloError> {
    if !node.closed && !node.named {
        return Err(PhyloError::parse(offset, "leaf without a label"));
    }
    Ok(())
}

/// Serialize `tree` to Newick, quoting labels when necessary and emitting
/// branch lengths where present. The output always ends with `;`.
pub fn write_newick(tree: &Tree, taxa: &TaxonSet) -> String {
    let mut out = String::new();
    if let Some(root) = tree.root() {
        write_node(tree, taxa, root, &mut out);
    }
    out.push(';');
    out
}

fn write_node(tree: &Tree, taxa: &TaxonSet, node: NodeId, out: &mut String) {
    // Iterative would complicate the in-order comma placement; tree depth is
    // bounded by leaf count and the writer is not on any hot path, but guard
    // against pathological caterpillars by using an explicit frame stack.
    enum Frame {
        Enter(NodeId),
        ChildSep,
        Exit(NodeId),
    }
    let mut stack = vec![Frame::Enter(node)];
    while let Some(frame) = stack.pop() {
        match frame {
            Frame::Enter(n) => {
                let kids = tree.children(n);
                if kids.is_empty() {
                    if let Some(t) = tree.taxon(n) {
                        push_label(taxa.label(t), out);
                    }
                    push_length(tree, n, out);
                } else {
                    out.push('(');
                    stack.push(Frame::Exit(n));
                    for (i, &c) in kids.iter().enumerate().rev() {
                        stack.push(Frame::Enter(c));
                        if i > 0 {
                            stack.push(Frame::ChildSep);
                        }
                    }
                }
            }
            Frame::ChildSep => out.push(','),
            Frame::Exit(n) => {
                out.push(')');
                push_length(tree, n, out);
            }
        }
    }
}

fn push_length(tree: &Tree, node: NodeId, out: &mut String) {
    if let Some(l) = tree.length(node) {
        out.push(':');
        out.push_str(&format_length(l));
    }
}

fn format_length(l: f64) -> String {
    // Shortest round-trippable representation keeps files compact.
    let mut s = format!("{l}");
    if !s.contains(['.', 'e', 'E']) {
        s.push_str(".0");
    }
    s
}

fn push_label(label: &str, out: &mut String) {
    let needs_quotes = label.is_empty()
        || label.chars().any(|c| {
            matches!(
                c,
                '(' | ')' | ',' | ':' | ';' | '[' | ']' | '\'' | ' ' | '\t'
            )
        });
    if needs_quotes {
        out.push('\'');
        for c in label.chars() {
            if c == '\'' {
                out.push('\'');
            }
            out.push(c);
        }
        out.push('\'');
    } else {
        out.push_str(label);
    }
}

/// Streaming reader yielding one tree at a time from a `BufRead` source.
///
/// Splits the byte stream on top-level `;` (respecting quotes and
/// comments), then parses each chunk. Memory stays proportional to one
/// tree, which is what lets BFHRF process 149k-tree files in O(hash) space.
pub struct NewickStream<R: BufRead> {
    reader: R,
    policy: TaxaPolicy,
    buf: Vec<u8>,
    done: bool,
}

impl<R: BufRead> NewickStream<R> {
    /// Create a stream with the given taxa policy.
    pub fn new(reader: R, policy: TaxaPolicy) -> Self {
        NewickStream {
            reader,
            policy,
            buf: Vec::new(),
            done: false,
        }
    }

    /// Read the next tree, resolving labels against `taxa`.
    ///
    /// Returns `Ok(None)` at end of input. The taxon set is passed per call
    /// (not owned) so one namespace can serve several streams — reference
    /// and query files in the BFHRF pipeline.
    pub fn next_tree(&mut self, taxa: &mut TaxonSet) -> Result<Option<Tree>, PhyloError> {
        if self.done {
            return Ok(None);
        }
        self.buf.clear();
        let mut in_quote = false;
        let mut comment_depth = 0usize;
        loop {
            let chunk = self.reader.fill_buf().map_err(|e| {
                PhyloError::parse(0, format!("I/O error reading newick stream: {e}"))
            })?;
            if chunk.is_empty() {
                self.done = true;
                if self.buf.iter().all(|b| b.is_ascii_whitespace()) {
                    return Ok(None);
                }
                return Err(PhyloError::parse(
                    self.buf.len(),
                    "unterminated tree at end of input (missing ';')",
                ));
            }
            let mut consumed = chunk.len();
            let mut complete = false;
            for (i, &b) in chunk.iter().enumerate() {
                self.buf.push(b);
                if in_quote {
                    if b == b'\'' {
                        in_quote = false; // '' escape re-enters on next quote
                    }
                } else if comment_depth > 0 {
                    match b {
                        b'[' => comment_depth += 1,
                        b']' => comment_depth -= 1,
                        _ => {}
                    }
                } else {
                    match b {
                        b'\'' => in_quote = true,
                        b'[' => comment_depth = 1,
                        b';' => {
                            consumed = i + 1;
                            complete = true;
                            break;
                        }
                        _ => {}
                    }
                }
            }
            self.reader.consume(consumed);
            if complete {
                let text = std::str::from_utf8(&self.buf)
                    .map_err(|_| PhyloError::parse(0, "invalid UTF-8 in newick stream"))?;
                return parse_newick(text, taxa, self.policy).map(Some);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grow(s: &str) -> (Tree, TaxonSet) {
        let mut taxa = TaxonSet::new();
        let t = parse_newick(s, &mut taxa, TaxaPolicy::Grow).expect("parse");
        (t, taxa)
    }

    #[test]
    fn parses_paper_example() {
        let (t, taxa) = grow("((A,B),(C,D));");
        assert_eq!(taxa.len(), 4);
        assert_eq!(t.leaf_count(), 4);
        assert!(t.is_binary());
        assert!(t.validate(&taxa).is_ok());
    }

    #[test]
    fn branch_lengths_parsed() {
        let (t, _) = grow("((A:0.1,B:2):1e-3,(C:3.5,D:4):0.5);");
        let lengths: Vec<f64> = t
            .postorder()
            .into_iter()
            .filter_map(|n| t.length(n))
            .collect();
        assert_eq!(lengths.len(), 6);
        assert!(lengths.contains(&0.1));
        assert!(lengths.contains(&1e-3));
    }

    #[test]
    fn quoted_labels_and_escapes() {
        let (t, taxa) = grow("('Homo sapiens','it''s complicated');");
        assert!(taxa.get("Homo sapiens").is_some());
        assert!(taxa.get("it's complicated").is_some());
        assert_eq!(t.leaf_count(), 2);
    }

    #[test]
    fn comments_are_skipped_even_nested() {
        let (t, taxa) = grow("[header [nested]]((A[x],B):1[c],(C,D));");
        assert_eq!(taxa.len(), 4);
        assert_eq!(t.leaf_count(), 4);
    }

    #[test]
    fn internal_labels_accepted() {
        let (t, taxa) = grow("((A,B)clade1:0.5,(C,D)'clade 2');");
        assert_eq!(taxa.len(), 4, "internal labels must not become taxa");
        assert!(t.validate(&taxa).is_ok());
    }

    #[test]
    fn multifurcation_and_single_leaf() {
        let (t, _) = grow("(A,B,C,D,E);");
        assert_eq!(t.children(t.root().unwrap()).len(), 5);
        let (t2, taxa2) = grow("A;");
        assert_eq!(t2.leaf_count(), 1);
        assert_eq!(taxa2.len(), 1);
    }

    #[test]
    fn require_policy_rejects_unknown() {
        let mut taxa = TaxonSet::new();
        taxa.intern("A");
        taxa.intern("B");
        let ok = parse_newick("(A,B);", &mut taxa, TaxaPolicy::Require);
        assert!(ok.is_ok());
        let err = parse_newick("(A,X);", &mut taxa, TaxaPolicy::Require);
        assert_eq!(err.err(), Some(PhyloError::UnknownTaxon("X".into())));
        assert_eq!(taxa.len(), 2, "failed parse must not grow the namespace");
    }

    #[test]
    fn malformed_inputs_error_with_position() {
        let cases = [
            "((A,B);",     // unbalanced (
            "(A,B));",     // unbalanced )
            "(A,,B);",     // empty sibling
            "(A,B)",       // missing ;
            "(A,B); junk", // trailing garbage
            "(A:x,B);",    // bad number
            "('A,B);",     // unterminated quote
            "[(A,B);",     // unterminated comment
            "(A B,C);",    // two labels on one node
            ",A;",         // comma at top level
            "(A,B)(C,D);", // second structure after close
            "();",         // unlabeled leaf
        ];
        let mut taxa = TaxonSet::new();
        for c in cases {
            let r = parse_newick(c, &mut taxa, TaxaPolicy::Grow);
            assert!(r.is_err(), "input {c:?} should fail, got {r:?}");
        }
    }

    #[test]
    fn duplicate_leaf_labels_detected_by_validate() {
        let (t, taxa) = grow("((A,B),(A,C));");
        assert_eq!(
            t.validate(&taxa),
            Err(PhyloError::DuplicateTaxon("A".into()))
        );
    }

    #[test]
    fn writer_roundtrips_topology_and_lengths() {
        let src = "((A:0.1,'B b':2.0):0.5,(C:3.5,D:4.0):0.5);";
        let (t, mut taxa) = grow(src);
        let written = write_newick(&t, &taxa);
        let t2 = parse_newick(&written, &mut taxa, TaxaPolicy::Require).unwrap();
        assert_eq!(write_newick(&t2, &taxa), written, "stable after one cycle");
        assert_eq!(t2.leaf_count(), 4);
    }

    #[test]
    fn writer_quotes_when_needed() {
        let mut taxa = TaxonSet::new();
        let odd = taxa.intern("needs (quoting)");
        let plain = taxa.intern("plain");
        let (mut t, root) = Tree::with_root();
        t.add_leaf(root, odd);
        t.add_leaf(root, plain);
        let s = write_newick(&t, &taxa);
        assert_eq!(s, "('needs (quoting)',plain);");
    }

    #[test]
    fn multi_tree_string() {
        let mut taxa = TaxonSet::new();
        let trees =
            read_trees_from_str("(A,B);\n(A,C);(B,C);", &mut taxa, TaxaPolicy::Grow).unwrap();
        assert_eq!(trees.len(), 3);
        assert_eq!(taxa.len(), 3);
    }

    #[test]
    fn stream_yields_trees_one_by_one() {
        let data = "((A,B),(C,D));\n((A,C),(B,D)); [note] ((A,D),(B,C));";
        let mut taxa = TaxonSet::new();
        let mut stream = NewickStream::new(data.as_bytes(), TaxaPolicy::Grow);
        let mut count = 0;
        while let Some(t) = stream.next_tree(&mut taxa).unwrap() {
            assert_eq!(t.leaf_count(), 4);
            count += 1;
        }
        assert_eq!(count, 3);
        assert_eq!(taxa.len(), 4);
        // exhausted stream stays exhausted
        assert!(stream.next_tree(&mut taxa).unwrap().is_none());
    }

    #[test]
    fn stream_handles_semicolons_inside_quotes_and_comments() {
        let data = "('a;b',C);[x;y](C,'a;b');";
        let mut taxa = TaxonSet::new();
        let mut stream = NewickStream::new(data.as_bytes(), TaxaPolicy::Grow);
        let t1 = stream.next_tree(&mut taxa).unwrap().unwrap();
        let t2 = stream.next_tree(&mut taxa).unwrap().unwrap();
        assert!(stream.next_tree(&mut taxa).unwrap().is_none());
        assert_eq!(t1.leaf_count(), 2);
        assert_eq!(t2.leaf_count(), 2);
        assert_eq!(taxa.len(), 2);
    }

    #[test]
    fn stream_reports_unterminated_tree() {
        let mut taxa = TaxonSet::new();
        let mut stream = NewickStream::new("(A,B)".as_bytes(), TaxaPolicy::Grow);
        assert!(stream.next_tree(&mut taxa).is_err());
    }

    #[test]
    fn plain_decimals_always_parse_as_f64() {
        for ok in [
            "0",
            "12",
            "-3.25",
            "+0.5",
            "1e-3",
            "2.5E+10",
            "0.23073479096515997",
        ] {
            assert!(is_plain_decimal(ok), "{ok}");
        }
        for other in [
            "", ".5", "1.", "1e", "e3", "1.2.3", "inf", "NaN", "1_0", "--1", "0x1",
        ] {
            assert!(!is_plain_decimal(other), "{other}");
        }
        // Random strings over the grammar's alphabet: whatever the fast
        // check accepts, the real parser accepts too.
        let alphabet = b"0123456789.eE+-";
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..20_000 {
            let mut s = String::new();
            for _ in 0..(x % 7) {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                s.push(alphabet[(x % alphabet.len() as u64) as usize] as char);
            }
            x = x.wrapping_add(0x632b_e59b_d9b4_e019);
            if is_plain_decimal(&s) {
                assert!(s.parse::<f64>().is_ok(), "{s:?}");
            }
        }
    }

    #[test]
    fn whitespace_tolerant() {
        let (t, taxa) = grow("  (\n  (A , B) ,\t(C,D)\n) ;");
        assert_eq!(t.leaf_count(), 4);
        assert!(t.validate(&taxa).is_ok());
    }
}
