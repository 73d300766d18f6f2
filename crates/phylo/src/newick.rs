//! Newick tree serialization: a single-pass parser and a writer.
//!
//! The dialect follows what Dendropy (the paper's foundation) accepts:
//!
//! * unquoted labels (`Homo_sapiens`), single-quoted labels with `''`
//!   escaping (`'Homo sapiens (human)'`),
//! * bracket comments `[...]`, which may nest,
//! * branch lengths after `:` in integer/decimal/scientific notation,
//! * internal node labels (accepted, not stored),
//! * multifurcations and single-leaf trees.
//!
//! The parser is one forward scan over the bytes. Each byte's role comes
//! from one 256-entry class table; trivia (whitespace, comments) is
//! skipped once per token, and the grammar acts on each token as it ends,
//! emitting [`TreeSink`] events, so no token values are built. A branch
//! length is validated in the same pass that finds its end: its digit runs
//! are checked 8 bytes at a time. Parsing is iterative (no recursion), so
//! deeply nested caterpillar trees cannot overflow the stack.
//! [`crate::NewickReader`] yields trees one at a time from any `BufRead`
//! source — the "dynamically load Q" behaviour the BFHRF algorithm
//! exploits to keep memory flat.

use crate::taxa::{TaxonId, TaxonSet};
use crate::tree::{NodeId, Tree, TreeBuilder, TreeSink};
use crate::PhyloError;

/// How the parser treats labels not yet in the taxon namespace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaxaPolicy {
    /// Intern unseen labels (used for the first collection read). A parse
    /// that fails forgets the labels it interned.
    Grow,
    /// Error with [`PhyloError::UnknownTaxon`] on unseen labels (used to
    /// enforce the paper's fixed-taxa requirement across `Q` and `R`).
    Require,
}

/// What a byte is to the scanner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    /// Part of an unquoted label or branch length.
    Bare,
    /// ASCII whitespace.
    Space,
    /// `[`, the start of a comment.
    Comment,
    /// `'`, the start of a quoted label.
    Quote,
    Open,
    Close,
    Comma,
    Colon,
    Semicolon,
}

/// The class of every byte. Everything but whitespace and `(),:;['` is
/// [`Class::Bare`], non-ASCII bytes included.
const CLASS: [Class; 256] = {
    let mut table = [Class::Bare; 256];
    let spaces = b"\t\n\x0C\r ";
    let mut i = 0;
    while i < spaces.len() {
        table[spaces[i] as usize] = Class::Space;
        i += 1;
    }
    table[b'[' as usize] = Class::Comment;
    table[b'\'' as usize] = Class::Quote;
    table[b'(' as usize] = Class::Open;
    table[b')' as usize] = Class::Close;
    table[b',' as usize] = Class::Comma;
    table[b':' as usize] = Class::Colon;
    table[b';' as usize] = Class::Semicolon;
    table
};

fn class(b: u8) -> Class {
    CLASS[b as usize]
}

/// End of the bare token that continues at `from`: the first non-bare
/// byte, or the end of input.
fn bare_end(bytes: &[u8], from: usize) -> usize {
    bytes[from..]
        .iter()
        .position(|&b| class(b) != Class::Bare)
        .map_or(bytes.len(), |n| from + n)
}

/// Length of the run of ASCII digits that `bytes` starts with, checked a
/// word (8 bytes) at a time.
fn digit_run(bytes: &[u8]) -> usize {
    const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
    const HIGH: u64 = 0x8080_8080_8080_8080;
    let mut n = 0;
    while let Some(chunk) = bytes.get(n..n + 8) {
        // Digits become 0..=9. A byte's high bit ends up set iff it was
        // >= 10 (the add carries into bit 7, never past it) or already
        // had bit 7 set: iff it was not a digit.
        let w = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")) ^ 0x3030_3030_3030_3030;
        let non_digit = (((w & LOW7) + 0x7676_7676_7676_7676) | w) & HIGH;
        if non_digit != 0 {
            return n + non_digit.trailing_zeros() as usize / 8;
        }
        n += 8;
    }
    n + bytes[n..].iter().take_while(|b| b.is_ascii_digit()).count()
}

/// Scan the bare token at `start` as a branch length, returning its end
/// and whether it is a plain decimal, `[+-]?d+(.d+)?([eE][+-]?d+)?` — a
/// form `f64::from_str` always accepts, so a length no sink reads needs
/// no conversion. The grammar check and the search for the token's end
/// are one pass.
fn number_end(bytes: &[u8], start: usize) -> (usize, bool) {
    let sign = |i: usize| i + usize::from(matches!(bytes.get(i), Some(b'+' | b'-')));
    let mut i = sign(start);
    let int = digit_run(&bytes[i..]);
    i += int;
    let mut plain = int > 0;
    if plain && bytes.get(i) == Some(&b'.') {
        let frac = digit_run(&bytes[i + 1..]);
        i += 1 + frac;
        plain = frac > 0;
    }
    if plain && matches!(bytes.get(i), Some(b'e' | b'E')) {
        i = sign(i + 1);
        let exp = digit_run(&bytes[i..]);
        i += exp;
        plain = exp > 0;
    }
    match bytes.get(i) {
        // Every byte so far was bare, so the token goes on.
        Some(&b) if class(b) == Class::Bare => (bare_end(bytes, i), false),
        _ => (i, plain),
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

/// The parser's position in its input.
struct Scanner<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Scanner<'a> {
    fn new(text: &'a str) -> Self {
        Scanner { text, pos: 0 }
    }

    /// Skip whitespace and comments; the class of the byte now at `pos`,
    /// or `None` at end of input.
    fn skip_trivia(&mut self) -> Result<Option<Class>, PhyloError> {
        let bytes = self.text.as_bytes();
        loop {
            let Some(&b) = bytes.get(self.pos) else {
                return Ok(None);
            };
            match class(b) {
                Class::Space => self.pos += 1,
                Class::Comment => {
                    let start = self.pos;
                    let mut depth = 0usize;
                    loop {
                        match bytes.get(self.pos) {
                            None => return Err(PhyloError::parse(start, "unterminated comment")),
                            Some(b'[') => depth += 1,
                            Some(b']') => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            Some(_) => {}
                        }
                        self.pos += 1;
                    }
                    self.pos += 1; // past ']'
                }
                other => return Ok(Some(other)),
            }
        }
    }

    /// Scan the quoted label at `start` and move past it. Returns the
    /// label when it must be rewritten — `''` escapes, or non-ASCII bytes,
    /// each of which maps to the char of the same value — and `None` when
    /// it is the text between the quotes.
    fn quoted(&mut self, start: usize) -> Result<Option<String>, PhyloError> {
        let bytes = self.text.as_bytes();
        let mut i = start + 1;
        let mut verbatim = true;
        loop {
            match bytes.get(i) {
                None => return Err(PhyloError::parse(start, "unterminated quoted label")),
                Some(b'\'') if bytes.get(i + 1) == Some(&b'\'') => {
                    verbatim = false;
                    i += 2;
                }
                Some(b'\'') => break,
                Some(c) => {
                    verbatim &= c.is_ascii();
                    i += 1;
                }
            }
        }
        self.pos = i + 1;
        if verbatim {
            return Ok(None);
        }
        let mut label = String::with_capacity(i - start);
        let mut body = bytes[start + 1..i].iter();
        while let Some(&c) = body.next() {
            if c == b'\'' {
                body.next(); // the second quote of `''`
            }
            label.push(c as char);
        }
        Ok(Some(label))
    }

    /// The branch length after the `:` at `colon`, converted only for
    /// sinks that read it.
    fn length<S: TreeSink>(&mut self, colon: usize) -> Result<f64, PhyloError> {
        let expected = || PhyloError::parse(colon, "expected branch length after ':'");
        match self.skip_trivia()? {
            None => Err(PhyloError::parse(self.pos, "unexpected end of input")),
            Some(Class::Bare) => {
                let start = self.pos;
                let (end, plain) = number_end(self.text.as_bytes(), start);
                self.pos = end;
                if plain && !S::READS_LENGTHS {
                    return Ok(0.0);
                }
                // A bare token starts and ends next to ASCII bytes (or the
                // ends of the input), so this slice lies on char boundaries.
                let text = &self.text[start..end];
                text.parse().map_err(|_| {
                    PhyloError::parse(start, format!("invalid branch length {text:?}"))
                })
            }
            Some(Class::Quote) => {
                self.quoted(self.pos)?;
                Err(expected())
            }
            Some(_) => Err(expected()),
        }
    }

    /// Parse one tree, emitting it into `sink` as it goes. Every syntax
    /// check lives here, so the sink never sees a malformed tree complete
    /// — on an error it has seen a prefix of the events and must be
    /// discarded.
    fn tree<S: TreeSink>(
        &mut self,
        resolve: &mut impl FnMut(&str) -> Result<TaxonId, PhyloError>,
        sink: &mut S,
    ) -> Result<(), PhyloError> {
        let text = self.text;
        sink.open(); // the root
        let mut cur = NodeState::default();
        // `lengthed` of every open ancestor: a length may precede `(`, and
        // a second one after the matching `)` is still a duplicate.
        let mut ancestors: Vec<bool> = Vec::new();

        loop {
            let Some(token) = self.skip_trivia()? else {
                return Err(PhyloError::parse(self.pos, "unexpected end of input"));
            };
            let at = self.pos;
            match token {
                Class::Open => {
                    if cur.named {
                        return Err(PhyloError::parse(at, "unexpected '(' after label"));
                    }
                    if cur.closed {
                        return Err(PhyloError::parse(at, "unexpected '(': node already closed"));
                    }
                    self.pos += 1;
                    ancestors.push(cur.lengthed);
                    cur = NodeState::default();
                    sink.open();
                }
                Class::Comma => {
                    if ancestors.is_empty() {
                        return Err(PhyloError::parse(at, "',' outside parentheses"));
                    }
                    finish_node(cur, at)?;
                    self.pos += 1;
                    sink.close();
                    cur = NodeState::default();
                    sink.open();
                }
                Class::Close => {
                    let Some(lengthed) = ancestors.pop() else {
                        return Err(PhyloError::parse(at, "unbalanced ')'"));
                    };
                    finish_node(cur, at)?;
                    self.pos += 1;
                    sink.close();
                    cur = NodeState {
                        named: false,
                        lengthed,
                        closed: true,
                    };
                }
                Class::Colon => {
                    if cur.lengthed {
                        return Err(PhyloError::parse(at, "duplicate branch length"));
                    }
                    self.pos += 1;
                    sink.length(self.length::<S>(at)?);
                    cur.lengthed = true;
                }
                Class::Semicolon => {
                    if !ancestors.is_empty() {
                        return Err(PhyloError::parse(at, "unbalanced '(': tree ended early"));
                    }
                    finish_node(cur, at)?;
                    self.pos += 1;
                    sink.close();
                    return Ok(());
                }
                Class::Quote | Class::Bare => {
                    let rewritten;
                    let label = if token == Class::Quote {
                        rewritten = self.quoted(at)?;
                        rewritten.as_deref().unwrap_or(&text[at + 1..self.pos - 1])
                    } else {
                        self.pos = bare_end(text.as_bytes(), at);
                        // On char boundaries, as in `length`.
                        &text[at..self.pos]
                    };
                    if cur.named {
                        return Err(PhyloError::parse(
                            at,
                            format!("unexpected second label {label:?}"),
                        ));
                    }
                    if !cur.closed {
                        // leaf name → taxon
                        sink.taxon(resolve(label)?);
                    }
                    // Internal labels (clade names / support values) are
                    // parsed for dialect compatibility but not stored:
                    // nothing in the RF pipeline reads them, and dropping
                    // them keeps nodes at two words.
                    cur.named = true;
                }
                Class::Space | Class::Comment => unreachable!("skipped as trivia"),
            }
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

/// Parse one Newick tree (terminated by `;`) from `input`.
///
/// Leaf labels are resolved against `taxa` under `policy`. Internal labels
/// (support values etc.) are accepted but not stored. Trailing content
/// after the `;` is an error — use [`read_trees_from_str`] or
/// [`crate::NewickReader`] for multi-tree inputs. On error the namespace
/// is left as it was.
pub fn parse_newick(
    input: &str,
    taxa: &mut TaxonSet,
    policy: TaxaPolicy,
) -> Result<Tree, PhyloError> {
    or_roll_back(taxa, |taxa| {
        let mut tree = TreeBuilder::default();
        parse_whole(input, &mut policy_resolver(taxa, policy), &mut tree)?;
        Ok(tree.finish())
    })
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
    let mut scanner = Scanner::new(input);
    scanner.tree(resolve, sink)?;
    if scanner.skip_trivia()?.is_some() {
        return Err(PhyloError::parse(scanner.pos, "trailing content after ';'"));
    }
    Ok(())
}

/// Parse every tree in `input` (one per `;`). On error the namespace is
/// left as it was.
pub fn read_trees_from_str(
    input: &str,
    taxa: &mut TaxonSet,
    policy: TaxaPolicy,
) -> Result<Vec<Tree>, PhyloError> {
    or_roll_back(taxa, |taxa| {
        let mut scanner = Scanner::new(input);
        let mut resolve = policy_resolver(taxa, policy);
        let mut out = Vec::new();
        while scanner.skip_trivia()?.is_some() {
            let mut tree = TreeBuilder::default();
            scanner.tree(&mut resolve, &mut tree)?;
            out.push(tree.finish());
        }
        Ok(out)
    })
}

/// Run `parse` against `taxa`; if it fails, forget every label it
/// interned, so a rejected input leaves no trace in the namespace.
fn or_roll_back<T>(
    taxa: &mut TaxonSet,
    parse: impl FnOnce(&mut TaxonSet) -> Result<T, PhyloError>,
) -> Result<T, PhyloError> {
    let mark = taxa.len();
    let out = parse(taxa);
    if out.is_err() {
        taxa.truncate(mark);
    }
    out
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IngestPolicy, NewickReader};

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
    fn grow_policy_rolls_back_a_failed_parse() {
        let mut taxa = TaxonSet::new();
        taxa.intern("A");
        assert!(parse_newick("(A,B,(C,D)", &mut taxa, TaxaPolicy::Grow).is_err());
        assert_eq!(taxa.to_string(), "TaxonSet[1]{A}");
        let err = read_trees_from_str("(A,E);\n(F,(G,", &mut taxa, TaxaPolicy::Grow);
        assert!(err.is_err());
        assert_eq!(
            taxa.to_string(),
            "TaxonSet[1]{A}",
            "earlier trees of the call too"
        );
        parse_newick("(A,B);", &mut taxa, TaxaPolicy::Grow).unwrap();
        assert_eq!(taxa.to_string(), "TaxonSet[2]{A, B}");
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

    fn strict_reader(data: &str) -> NewickReader<&[u8]> {
        NewickReader::new(data.as_bytes(), TaxaPolicy::Grow, IngestPolicy::Strict)
    }

    #[test]
    fn stream_yields_trees_one_by_one() {
        let data = "((A,B),(C,D));\n((A,C),(B,D)); [note] ((A,D),(B,C));";
        let mut taxa = TaxonSet::new();
        let mut stream = strict_reader(data);
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
        let mut stream = strict_reader(data);
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
        let mut stream = strict_reader("(A,B)");
        assert!(stream.next_tree(&mut taxa).is_err());
    }

    /// Whether `text`, alone, scans as one plain-decimal length token.
    fn scans_as_plain_decimal(text: &str) -> bool {
        !text.is_empty() && number_end(text.as_bytes(), 0) == (text.len(), true)
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
            assert!(scans_as_plain_decimal(ok), "{ok}");
        }
        for other in [
            "", ".5", "1.", "1e", "e3", "1.2.3", "inf", "NaN", "1_0", "--1", "0x1",
        ] {
            assert!(!scans_as_plain_decimal(other), "{other}");
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
            if scans_as_plain_decimal(&s) {
                assert!(s.parse::<f64>().is_ok(), "{s:?}");
            }
        }
    }

    #[test]
    fn length_tokens_end_at_the_first_structural_byte() {
        for (text, end, plain) in [
            ("0.25,", 4, true),
            ("12)", 2, true),
            ("1e-3[c]", 4, true),
            ("1.5x,", 4, false),
            ("inf;", 3, false),
            ("+ ", 1, false),
            ("1.;", 2, false),
            ("123456789012345678", 18, true),
        ] {
            assert_eq!(number_end(text.as_bytes(), 0), (end, plain), "{text:?}");
        }
    }

    #[test]
    fn digit_run_matches_a_bytewise_scan() {
        // Every byte value at every offset of a 20-byte digit field, so
        // runs end inside, at and across 8-byte word boundaries.
        let mut field = *b"01234567890123456789";
        for at in 0..field.len() {
            for b in 0..=255u8 {
                let keep = field[at];
                field[at] = b;
                for from in 0..field.len() {
                    let want = field[from..]
                        .iter()
                        .take_while(|c| c.is_ascii_digit())
                        .count();
                    assert_eq!(
                        digit_run(&field[from..]),
                        want,
                        "byte {b} at {at}, from {from}"
                    );
                }
                field[at] = keep;
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
