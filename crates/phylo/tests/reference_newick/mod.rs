//! A frozen, independent Newick parser the library parser is checked
//! against: a token-at-a-time lexer (`Token` values, a trivia skip before
//! every token, `f64::from_str` on every branch length) feeding a
//! separate grammar loop. It is deliberately slow and plain, and uses
//! only the crate's public `TreeSink`, `TreeBuilder`, `TaxonSet` and
//! `PhyloError`, so a bug in the library's single-pass scanner cannot
//! hide behind shared code.
//!
//! Every branch length goes through `f64::from_str`. The library skips
//! that conversion for sinks that ignore lengths when the text is a plain
//! decimal, which `f64::from_str` always accepts, so the accept/reject
//! sets are the same.

use phylo::{PhyloError, TaxonId, TaxonSet, Tree, TreeBuilder, TreeSink};

#[derive(Debug, PartialEq)]
enum Token {
    Open,
    Close,
    Comma,
    Colon,
    Semicolon,
    Label(String),
    Number(f64),
}

/// Bytes that end a bare token: structural characters and ASCII
/// whitespace.
const ENDS_BARE: &[u8] = b"(),:;['\t\n\x0C\r ";

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
                self.pos += 1;
                continue;
            }
            return Ok(());
        }
    }

    fn at_end(&mut self) -> Result<bool, PhyloError> {
        self.skip_trivia()?;
        Ok(self.pos >= self.input.len())
    }

    /// Right after a `:` (`length`) a bare token is a branch length,
    /// anywhere else a label.
    fn next_token(&mut self, length: bool) -> Result<Token, PhyloError> {
        self.skip_trivia()?;
        let start = self.pos;
        let Some(&b) = self.input.get(self.pos) else {
            return Err(PhyloError::parse(start, "unexpected end of input"));
        };
        self.pos += 1;
        match b {
            b'(' => Ok(Token::Open),
            b')' => Ok(Token::Close),
            b',' => Ok(Token::Comma),
            b':' => Ok(Token::Colon),
            b';' => Ok(Token::Semicolon),
            b'\'' => {
                // One char per byte; `''` is one quote.
                let mut label = String::new();
                loop {
                    match self.input.get(self.pos) {
                        None => return Err(PhyloError::parse(start, "unterminated quoted label")),
                        Some(b'\'') if self.input.get(self.pos + 1) == Some(&b'\'') => {
                            label.push('\'');
                            self.pos += 2;
                        }
                        Some(b'\'') => {
                            self.pos += 1;
                            return Ok(Token::Label(label));
                        }
                        Some(&c) => {
                            label.push(c as char);
                            self.pos += 1;
                        }
                    }
                }
            }
            _ => {
                while self.pos < self.input.len() && !ENDS_BARE.contains(&self.input[self.pos]) {
                    self.pos += 1;
                }
                let text = self
                    .text
                    .get(start..self.pos)
                    .ok_or_else(|| PhyloError::parse(start, "invalid UTF-8 in label"))?;
                if !length {
                    return Ok(Token::Label(text.to_string()));
                }
                let v: f64 = text.parse().map_err(|_| {
                    PhyloError::parse(start, format!("invalid branch length {text:?}"))
                })?;
                Ok(Token::Number(v))
            }
        }
    }
}

/// One tree spanning all of `input` (trailing trivia allowed), labels
/// resolved against a closed namespace: the reference for
/// `parse_newick_readonly` and `BipartitionScratch::batch_newick`.
pub fn parse_readonly(input: &str, taxa: &TaxonSet) -> Result<Tree, PhyloError> {
    let mut lexer = Lexer::new(input);
    let mut tree = TreeBuilder::default();
    parse_one(&mut lexer, &mut |l: &str| taxa.require(l), &mut tree)?;
    if !lexer.at_end()? {
        return Err(PhyloError::parse(lexer.pos, "trailing content after ';'"));
    }
    Ok(tree.finish())
}

#[derive(Clone, Copy, Default)]
struct NodeState {
    named: bool,
    lengthed: bool,
    closed: bool,
}

fn parse_one<S: TreeSink>(
    lexer: &mut Lexer<'_>,
    resolve: &mut impl FnMut(&str) -> Result<TaxonId, PhyloError>,
    sink: &mut S,
) -> Result<(), PhyloError> {
    sink.open();
    let mut cur = NodeState::default();
    let mut ancestors: Vec<bool> = Vec::new();
    loop {
        lexer.skip_trivia()?;
        let offset = lexer.pos;
        match lexer.next_token(false)? {
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
                match lexer.next_token(true)? {
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
                    sink.taxon(resolve(&label)?);
                }
                cur.named = true;
            }
            Token::Number(_) => unreachable!("numbers only requested after ':'"),
        }
    }
}

fn finish_node(node: NodeState, offset: usize) -> Result<(), PhyloError> {
    if !node.closed && !node.named {
        return Err(PhyloError::parse(offset, "leaf without a label"));
    }
    Ok(())
}
