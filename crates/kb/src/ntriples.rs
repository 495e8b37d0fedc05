//! N-Triples import/export.
//!
//! The paper's KBs are RDF: "we consider knowledge bases as RDF-based
//! data consisting of resources, whose schema is defined using RDFS"
//! (§3.1). This module reads and writes the RDFS fragment KATARA uses in
//! the W3C N-Triples format, so real dumps (a filtered Yago/DBpedia
//! export, an enterprise KB) can be loaded directly:
//!
//! * `<s> <rdf:type> <class>` — instance typing;
//! * `<c> <rdfs:subClassOf> <d>` / `<p> <rdfs:subPropertyOf> <q>`;
//! * `<s> <rdfs:label> "text"` — labels;
//! * `<s> <p> <o>` — resource facts;
//! * `<s> <p> "lit"` — literal facts.
//!
//! Heuristic (overridable by explicit `rdf:type rdfs:Class` /
//! `rdf:Property` statements): an IRI in class position of `rdf:type` is
//! a class; an IRI in predicate position (other than the vocabulary) is a
//! property; everything else is an entity. Blank nodes and literal
//! datatypes/lang-tags are accepted and reduced to the fragment above.
//!
//! # Grammar
//!
//! A line is trimmed of Unicode whitespace; an empty line or one starting
//! with `#` is skipped. Otherwise it holds three terms, each optionally
//! preceded by Unicode whitespace, then optional whitespace and a `.`;
//! text after the `.` is ignored. A term is one of:
//!
//! * `<…>` — an IRI: every char up to the next `>`, verbatim (escapes
//!   inside IRIs are not decoded);
//! * `_:…` — a blank node: every char up to the next whitespace. Blank
//!   labels and IRIs share one namespace, so `_:x` and `<x>` name the
//!   same resource;
//! * `"…"` — a literal, optionally followed by a language tag (`@` and
//!   every char up to the next whitespace) or a datatype (`^`, any one
//!   char, then `<…>` if one follows), both dropped.
//!
//! Inside a literal a backslash starts an escape:
//!
//! | escape | decodes to |
//! |---|---|
//! | `\t` `\b` `\n` `\r` `\f` | U+0009, U+0008, U+000A, U+000D, U+000C |
//! | `\"` `\'` `\\` | `"`, `'`, `\` |
//! | `\uXXXX` | the next four chars read as a hexadecimal number (`u32::from_str_radix`, so a leading `+` is accepted) |
//! | `\UXXXXXXXX` | exactly eight hexadecimal digits |
//!
//! A `\u` or `\U` number that is not a Unicode scalar value (a surrogate,
//! or above U+10FFFF) decodes to U+FFFD. Any other escape, a short or
//! malformed number, or a missing closing quote is a syntax error. Any
//! position accepts any term kind: a literal subject or a blank predicate
//! parses, and the loader then skips the statement.
//!
//! # Loading
//!
//! Real dumps are dirty, so loading is policy-driven ([`parse_with_policy`]):
//! strict mode fails loudly with a line number on the first defect, while
//! lenient mode quarantines malformed lines with line/byte/kind
//! diagnostics, repairs hierarchy cycles by dropping the closing edge, and
//! reports dangling references — all without panicking on any input.
//!
//! The loader makes one pass over the text, then three over what it
//! parsed (DESIGN.md §5c):
//!
//! 1. each line is split into terms borrowed from the input; only a
//!    literal with escapes is copied, to hold its decoded text. Each
//!    distinct IRI or blank text gets a loader-local id from one hash
//!    probe, and a statement is three tagged ids;
//! 2. the classify pass flags class and property ids;
//! 3. the label pass records each id's first `rdfs:label`;
//! 4. the build pass hands the builder each id's name once, caching the
//!    class, property and entity id it gets back.
//!
//! Every map keyed by input text keeps std's randomly keyed hasher: dumps
//! are untrusted, and the loader is fast because it hashes each term once,
//! not because it hashes cheaply.
//!
//! This module denies `clippy::unwrap_used`/`expect_used`: every
//! input-reachable failure must be a typed error.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::borrow::Cow;
use std::collections::hash_map::{Entry, HashMap};
use std::fmt::Write as _;

use crate::builder::KbBuilder;
use crate::error::KbError;
use crate::ids::{ClassId, PropertyId, ResourceId};
use crate::ingest::{IngestPolicy, IngestReport, QuarantineKind, Quarantined};
use crate::query::Object;
use crate::store::Kb;

/// Well-known vocabulary IRIs.
pub const RDF_TYPE: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";
/// `rdfs:subClassOf`.
pub const RDFS_SUBCLASS: &str = "http://www.w3.org/2000/01/rdf-schema#subClassOf";
/// `rdfs:subPropertyOf`.
pub const RDFS_SUBPROP: &str = "http://www.w3.org/2000/01/rdf-schema#subPropertyOf";
/// `rdfs:label`.
pub const RDFS_LABEL: &str = "http://www.w3.org/2000/01/rdf-schema#label";
/// `rdfs:Class`.
pub const RDFS_CLASS: &str = "http://www.w3.org/2000/01/rdf-schema#Class";
/// `rdf:Property`.
pub const RDF_PROPERTY: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#Property";

/// Errors from N-Triples parsing.
///
/// `#[non_exhaustive]` per the workspace error convention; wrapped causes
/// are reachable through [`std::error::Error::source`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum NtError {
    /// Syntax error with 1-based line number and message.
    Syntax {
        /// Line number.
        line: usize,
        /// Byte offset of the line start within the input.
        byte_offset: usize,
        /// What went wrong.
        message: String,
    },
    /// A term or literal exceeded a policy size cap.
    Oversized {
        /// Line number.
        line: usize,
        /// Byte offset of the line start within the input.
        byte_offset: usize,
        /// `"literal"` or `"term"`.
        what: &'static str,
        /// Observed size in bytes.
        len: usize,
        /// The policy cap it exceeded.
        max: usize,
    },
    /// Lenient mode quarantined more than the policy's allowed fraction
    /// of statements — the input is garbage, not a dirty dump.
    TooManyQuarantined {
        /// Lines quarantined so far.
        quarantined: usize,
        /// Statements seen so far.
        statements: usize,
        /// The fraction cap that was exceeded.
        max_fraction: f64,
    },
    /// A schema statement conflicted (delegated from the builder).
    Schema(KbError),
}

impl std::fmt::Display for NtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NtError::Syntax { line, message, .. } => write!(f, "line {line}: {message}"),
            NtError::Oversized {
                line,
                what,
                len,
                max,
                ..
            } => write!(f, "line {line}: {what} of {len} bytes exceeds cap {max}"),
            NtError::TooManyQuarantined {
                quarantined,
                statements,
                max_fraction,
            } => write!(
                f,
                "{quarantined} of {statements} statements quarantined \
                 (more than the allowed fraction {max_fraction})"
            ),
            NtError::Schema(e) => write!(f, "schema error: {e}"),
        }
    }
}

impl std::error::Error for NtError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NtError::Schema(e) => Some(e),
            _ => None,
        }
    }
}

impl From<KbError> for NtError {
    fn from(e: KbError) -> Self {
        NtError::Schema(e)
    }
}

/// One term of a statement, borrowed from the input. Only a literal with
/// escapes owns its text, to hold it decoded.
#[derive(Debug)]
enum Tok<'a> {
    Iri(&'a str),
    Blank(&'a str),
    Literal(Cow<'a, str>),
}

/// A position in one trimmed line. Its methods return a syntax error's
/// message; the caller adds the line's place in the input.
struct Cursor<'a> {
    s: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// The char at the cursor.
    fn peek(&self) -> Option<char> {
        let b = *self.s.as_bytes().get(self.pos)?;
        if b.is_ascii() {
            Some(char::from(b))
        } else {
            self.s.get(self.pos..)?.chars().next()
        }
    }

    /// The char at the cursor, stepping past it.
    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        Some(c)
    }

    /// Step past the chars `keep` accepts; returns the text stepped over.
    fn take_while(&mut self, keep: impl Fn(char) -> bool) -> &'a str {
        let start = self.pos;
        while let Some(c) = self.peek().filter(|&c| keep(c)) {
            self.pos += c.len_utf8();
        }
        &self.s[start..self.pos]
    }

    /// Step past up to `n` chars; returns the text stepped over.
    fn take_chars(&mut self, n: usize) -> &'a str {
        let start = self.pos;
        for _ in 0..n {
            if self.bump().is_none() {
                break;
            }
        }
        &self.s[start..self.pos]
    }

    /// Step past everything up to and including the next `>`, returning
    /// the text before it; `None`, with the cursor at the end, if there
    /// is no `>`.
    fn through_angle(&mut self) -> Option<&'a str> {
        let rest = &self.s[self.pos..];
        match rest.find('>') {
            Some(k) => {
                self.pos += k + 1;
                Some(&rest[..k])
            }
            None => {
                self.pos = self.s.len();
                None
            }
        }
    }

    fn term(&mut self) -> Result<Tok<'a>, String> {
        self.take_while(char::is_whitespace);
        match self.peek() {
            Some('<') => {
                self.pos += 1;
                self.through_angle()
                    .map(Tok::Iri)
                    .ok_or_else(|| "unterminated IRI".into())
            }
            Some('_') => {
                self.pos += 1;
                if self.bump() != Some(':') {
                    return Err("blank node must start with _:".into());
                }
                Ok(Tok::Blank(self.take_while(|c| !c.is_whitespace())))
            }
            Some('"') => {
                self.pos += 1;
                let lit = self.literal()?;
                // Optional language tag or datatype — accepted and dropped.
                match self.peek() {
                    Some('@') => {
                        self.take_while(|c| !c.is_whitespace());
                    }
                    Some('^') => {
                        self.bump();
                        self.bump(); // second ^
                        if self.peek() == Some('<') {
                            self.through_angle();
                        }
                    }
                    _ => {}
                }
                Ok(Tok::Literal(lit))
            }
            other => Err(format!("unexpected term start {other:?}")),
        }
    }

    /// A literal's text, from just past its opening quote through its
    /// closing one: borrowed unless it holds an escape.
    fn literal(&mut self) -> Result<Cow<'a, str>, String> {
        let start = self.pos;
        let mut decoded: Option<String> = None;
        loop {
            let rest = &self.s.as_bytes()[self.pos..];
            let Some(k) = rest.iter().position(|&b| b == b'"' || b == b'\\') else {
                return Err("unterminated literal".into());
            };
            let run = &self.s[self.pos..self.pos + k];
            let closing = rest[k] == b'"';
            self.pos += k + 1;
            if closing {
                return Ok(match decoded {
                    None => Cow::Borrowed(&self.s[start..self.pos - 1]),
                    Some(mut text) => {
                        text.push_str(run);
                        Cow::Owned(text)
                    }
                });
            }
            let c = self.escape()?;
            let text = decoded.get_or_insert_with(String::new);
            text.push_str(run);
            text.push(c);
        }
    }

    /// The char an escape decodes to, from just past its backslash.
    fn escape(&mut self) -> Result<char, String> {
        Ok(match self.bump() {
            Some('t') => '\t',
            Some('b') => '\u{8}',
            Some('n') => '\n',
            Some('r') => '\r',
            Some('f') => '\u{c}',
            Some('"') => '"',
            Some('\'') => '\'',
            Some('\\') => '\\',
            Some('u') => {
                let hex = self.take_chars(4);
                let cp =
                    u32::from_str_radix(hex, 16).map_err(|_| format!("bad \\u escape {hex:?}"))?;
                char::from_u32(cp).unwrap_or('\u{FFFD}')
            }
            Some('U') => {
                let hex = self.take_chars(8);
                if hex.len() != 8 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
                    return Err(format!("bad \\U escape {hex:?}"));
                }
                let cp = u32::from_str_radix(hex, 16).unwrap_or(u32::MAX);
                char::from_u32(cp).unwrap_or('\u{FFFD}')
            }
            other => return Err(format!("bad escape \\{other:?}")),
        })
    }
}

/// Split one N-Triples line into (subject, predicate, object); `None`
/// for blank lines and comments, and a syntax error's message.
fn tokenize(line: &str) -> Result<Option<[Tok<'_>; 3]>, String> {
    let s = line.trim();
    if s.is_empty() || s.starts_with('#') {
        return Ok(None);
    }
    let mut cursor = Cursor { s, pos: 0 };
    let subject = cursor.term()?;
    let predicate = cursor.term()?;
    let object = cursor.term()?;
    cursor.take_while(char::is_whitespace);
    match cursor.bump() {
        Some('.') => Ok(Some([subject, predicate, object])),
        other => Err(format!("expected terminating '.', found {other:?}")),
    }
}

/// Human-readable local name of an IRI (text after the last `/`, `#` or
/// `:`), mirroring §5.1's URI processing for crowd display. Handles both
/// full IRIs (`http://…/resource/Rome`) and CURIE-style names
/// (`y:Rome`).
pub fn local_name(iri: &str) -> &str {
    iri.rsplit(['/', '#', ':']).next().unwrap_or(iri)
}

/// Load a KB from N-Triples text with the strict policy: the first defect
/// aborts with a line-numbered error.
///
/// Classes and properties keep their full IRIs as canonical names;
/// entities get their `rdfs:label` (or local name) as label.
pub fn parse(name: &str, input: &str) -> Result<Kb, NtError> {
    parse_with_policy(name, input, &IngestPolicy::strict()).map(|(kb, _)| kb)
}

/// The first policy-cap violation in a tokenized statement, if any.
fn cap_violation(terms: &[Tok<'_>; 3], policy: &IngestPolicy) -> Option<(&'static str, usize)> {
    terms.iter().find_map(|term| match term {
        Tok::Iri(s) | Tok::Blank(s) if s.len() > policy.max_term_len => Some(("term", s.len())),
        Tok::Literal(s) if s.len() > policy.max_literal_len => Some(("literal", s.len())),
        _ => None,
    })
}

/// One term of an accepted statement: an IRI or blank node by its term
/// id, a literal by its index in [`Parsed::literals`].
#[derive(Debug, Clone, Copy)]
enum Node {
    Iri(u32),
    Blank(u32),
    Literal(u32),
}

/// The vocabulary's term ids, in the order [`Parsed::new`] numbers them.
mod vocab {
    pub const TYPE: u32 = 0;
    pub const SUBCLASS: u32 = 1;
    pub const SUBPROP: u32 = 2;
    pub const LABEL: u32 = 3;
    pub const CLASS: u32 = 4;
    pub const PROPERTY: u32 = 5;
}

/// The first pass's output: the accepted statements, their IRI and blank
/// terms numbered by text.
struct Parsed<'a> {
    /// Each distinct IRI or blank text's term id.
    ids: HashMap<&'a str, u32>,
    /// Term id → text.
    terms: Vec<&'a str>,
    literals: Vec<Cow<'a, str>>,
    statements: Vec<[Node; 3]>,
    /// Per statement position, the last IRI or blank text there and its
    /// id. Consecutive statements often repeat a term in place (on the
    /// Yago-scale bench fixture 47% of subjects, 55% of predicates and
    /// 24% of IRI objects), and a string compare is cheaper than a probe.
    /// The slot only decides the hit rate: a hit compares the whole text,
    /// so the id returned is always the text's own.
    recent: [Option<(&'a str, u32)>; 3],
}

impl<'a> Parsed<'a> {
    fn new() -> Self {
        let mut parsed = Parsed {
            ids: HashMap::new(),
            terms: Vec::new(),
            literals: Vec::new(),
            statements: Vec::new(),
            recent: [None; 3],
        };
        for iri in [
            RDF_TYPE,
            RDFS_SUBCLASS,
            RDFS_SUBPROP,
            RDFS_LABEL,
            RDFS_CLASS,
            RDF_PROPERTY,
        ] {
            parsed.ids.insert(iri, parsed.terms.len() as u32);
            parsed.terms.push(iri);
        }
        parsed
    }

    /// The term id of `text`, seen at statement position `at`, numbering
    /// it if it is new.
    fn term(&mut self, at: usize, text: &'a str) -> Result<u32, NtError> {
        if let Some((last, id)) = self.recent[at] {
            if last == text {
                return Ok(id);
            }
        }
        let id = match self.ids.entry(text) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                let id = dense(self.terms.len(), "term")?;
                self.terms.push(text);
                *e.insert(id)
            }
        };
        self.recent[at] = Some((text, id));
        Ok(id)
    }

    /// The node of `tok`, seen at statement position `at`.
    fn node(&mut self, at: usize, tok: Tok<'a>) -> Result<Node, NtError> {
        Ok(match tok {
            Tok::Iri(text) => Node::Iri(self.term(at, text)?),
            Tok::Blank(text) => Node::Blank(self.term(at, text)?),
            Tok::Literal(text) => {
                let l = dense(self.literals.len(), "literal")?;
                self.literals.push(text);
                Node::Literal(l)
            }
        })
    }
}

/// `index` as a dense `u32`, or the typed error for an exhausted id space.
fn dense(index: usize, kind: &'static str) -> Result<u32, NtError> {
    u32::try_from(index).map_err(|_| NtError::Schema(KbError::IdSpaceExhausted { kind, index }))
}

/// The first pass: tokenize every line, number the terms of each accepted
/// statement, and quarantine or refuse (by policy) a line that does not
/// parse or breaks a cap.
fn tokenize_all<'a>(
    input: &'a str,
    policy: &IngestPolicy,
    report: &mut IngestReport,
) -> Result<Parsed<'a>, NtError> {
    let mut parsed = Parsed::new();
    // `split('\n')` keeps the byte offsets diagnostics need; the `\r` of
    // a CRLF line goes with the rest of its trailing whitespace.
    let mut pos = 0usize;
    for (i, raw) in input.split('\n').enumerate() {
        let line_start = pos;
        pos += raw.len() + 1;
        if line_start >= input.len() {
            break; // the empty segment after a trailing newline
        }
        let lineno = i + 1;
        let defect = match tokenize(raw) {
            Ok(None) => continue, // blank line or comment
            Ok(Some(terms)) => {
                report.total_statements += 1;
                let Some((what, len)) = cap_violation(&terms, policy) else {
                    let [s, p, o] = terms;
                    let statement = [parsed.node(0, s)?, parsed.node(1, p)?, parsed.node(2, o)?];
                    parsed.statements.push(statement);
                    continue;
                };
                let (max, kind) = if what == "literal" {
                    (policy.max_literal_len, QuarantineKind::OversizedLiteral)
                } else {
                    (policy.max_term_len, QuarantineKind::OversizedTerm)
                };
                if !policy.is_lenient() {
                    return Err(NtError::Oversized {
                        line: lineno,
                        byte_offset: line_start,
                        what,
                        len,
                        max,
                    });
                }
                (kind, format!("{what} of {len} bytes exceeds cap {max}"))
            }
            Err(message) => {
                report.total_statements += 1;
                if !policy.is_lenient() {
                    return Err(NtError::Syntax {
                        line: lineno,
                        byte_offset: line_start,
                        message,
                    });
                }
                (QuarantineKind::Syntax, message)
            }
        };
        let (kind, message) = defect;
        report.quarantined_count += 1;
        if report.quarantined.len() < policy.max_quarantine_entries {
            report.quarantined.push(Quarantined {
                line: lineno,
                byte_offset: line_start,
                kind,
                message,
            });
        }
        // Abort when the input is mostly garbage: a binary blob fed
        // through the lenient path should be a typed error, not a
        // million-entry quarantine.
        let q = report.quarantined_count;
        if q >= 8 && q as f64 > policy.max_quarantined_fraction * report.total_statements as f64 {
            return Err(NtError::TooManyQuarantined {
                quarantined: q,
                statements: report.total_statements,
                max_fraction: policy.max_quarantined_fraction,
            });
        }
    }
    Ok(parsed)
}

/// A term declared or used as a class.
const IS_CLASS: u8 = 1;
/// A term declared or used as a property.
const IS_PROPERTY: u8 = 2;
/// A term that is the subject of a statement with an IRI predicate.
const IS_SUBJECT: u8 = 4;
/// A term that is the object of a resource fact.
const IS_OBJECT: u8 = 8;

/// What the passes after the first learn about one term.
#[derive(Debug, Clone, Copy, Default)]
struct TermInfo {
    flags: u8,
    /// The literal index of the term's first `rdfs:label`.
    label: Option<u32>,
    class: Option<ClassId>,
    property: Option<PropertyId>,
    entity: Option<ResourceId>,
}

/// The build pass: the builder, and per term the ids it handed out, so
/// each term's name is interned once.
struct Build<'p, 'a> {
    parsed: &'p Parsed<'a>,
    info: Vec<TermInfo>,
    b: KbBuilder,
}

impl Build<'_, '_> {
    fn is_schema(&self, t: u32) -> bool {
        self.info[t as usize].flags & (IS_CLASS | IS_PROPERTY) != 0
    }

    fn class(&mut self, t: u32) -> ClassId {
        if let Some(c) = self.info[t as usize].class {
            return c;
        }
        let c = self.b.class(self.parsed.terms[t as usize]);
        self.info[t as usize].class = Some(c);
        c
    }

    fn property(&mut self, t: u32) -> PropertyId {
        if let Some(p) = self.info[t as usize].property {
            return p;
        }
        let p = self.b.property(self.parsed.terms[t as usize]);
        self.info[t as usize].property = Some(p);
        p
    }

    /// The entity term `t` names, labelled by its first `rdfs:label` or
    /// else its local name.
    fn entity(&mut self, t: u32) -> ResourceId {
        let info = self.info[t as usize];
        if let Some(r) = info.entity {
            return r;
        }
        let name = self.parsed.terms[t as usize];
        let label = match info.label {
            Some(l) => &self.parsed.literals[l as usize],
            None => local_name(name),
        };
        let r = self.b.entity_labeled(name, label, &[]);
        self.info[t as usize].entity = Some(r);
        r
    }

    /// Assert `p(s, o)` between the entities terms `s` and `o` name.
    fn fact(&mut self, s: u32, p: u32, o: u32) {
        let prop = self.property(p);
        let se = self.entity(s);
        let oe = self.entity(o);
        self.b.fact(se, prop, oe);
        self.info[o as usize].flags |= IS_OBJECT;
    }
}

/// Load a KB from N-Triples text under an [`IngestPolicy`], producing an
/// [`IngestReport`] alongside the KB.
///
/// * **Strict** (what [`parse`] runs): the first syntax error or
///   hierarchy cycle aborts; size caps (if configured below `usize::MAX`)
///   abort with [`NtError::Oversized`].
/// * **Lenient**: malformed or oversized lines are quarantined with
///   line/byte/kind diagnostics; `subClassOf`/`subPropertyOf` cycles are
///   repaired by dropping the closing edge (recorded in the audit); the
///   load only fails when quarantine exceeds the policy's fraction cap.
///
/// In both modes the report carries advisory findings: dangling
/// references (fact objects never described by any statement of their
/// own) and label collisions.
pub fn parse_with_policy(
    name: &str,
    input: &str,
    policy: &IngestPolicy,
) -> Result<(Kb, IngestReport), NtError> {
    use vocab::{CLASS, LABEL, PROPERTY, SUBCLASS, SUBPROP, TYPE};

    let mut report = IngestReport::default();
    let parsed = tokenize_all(input, policy, &mut report)?;
    report.accepted = parsed.statements.len();

    // Classify: which terms are classes and which properties.
    let mut info = vec![TermInfo::default(); parsed.terms.len()];
    for &[s, p, o] in &parsed.statements {
        let Node::Iri(p) = p else { continue };
        let mut flag = |node: Node, flag: u8| {
            if let Node::Iri(t) = node {
                info[t as usize].flags |= flag;
            }
        };
        match (p, o) {
            (TYPE, Node::Iri(CLASS)) => flag(s, IS_CLASS),
            (TYPE, Node::Iri(PROPERTY)) => flag(s, IS_PROPERTY),
            (TYPE, Node::Iri(_)) => flag(o, IS_CLASS),
            (SUBCLASS, Node::Iri(_)) => {
                flag(s, IS_CLASS);
                flag(o, IS_CLASS);
            }
            (SUBPROP, Node::Iri(_)) => {
                flag(s, IS_PROPERTY);
                flag(o, IS_PROPERTY);
            }
            (LABEL | TYPE, _) => {}
            _ => flag(Node::Iri(p), IS_PROPERTY),
        }
    }

    // Labels: each IRI's first `rdfs:label`.
    for statement in &parsed.statements {
        if let [Node::Iri(s), Node::Iri(LABEL), Node::Literal(l)] = *statement {
            info[s as usize].label.get_or_insert(l);
        }
    }

    // Build, auditing schema statements per policy. Subjects and fact
    // objects are flagged so dangling object references (fact targets
    // never described) can be reported.
    let mut build = Build {
        parsed: &parsed,
        info,
        b: KbBuilder::new().with_name(name),
    };
    for &[s, p, o] in &parsed.statements {
        // Ingestion boundary: refuse (typed error, not an id-constructor
        // panic) before any id space could overflow. One triple adds at
        // most two ids to any one space.
        build.b.check_id_headroom(2)?;
        let Node::Iri(p) = p else { continue };
        let subject = match s {
            Node::Iri(t) | Node::Blank(t) => t,
            Node::Literal(_) => continue, // literal subjects are not RDF
        };
        build.info[subject as usize].flags |= IS_SUBJECT;
        match (p, o) {
            // Declarations introduce the class/property id right here,
            // not at first use: [`to_string`] writes declarations first
            // (in id order), so a reload assigns identical ids and
            // serialization round-trips byte-stably.
            (TYPE, Node::Iri(CLASS)) => {
                if let Node::Iri(t) = s {
                    build.class(t);
                }
            }
            (TYPE, Node::Iri(PROPERTY)) => {
                if let Node::Iri(t) = s {
                    build.property(t);
                }
            }
            (TYPE, Node::Iri(o)) => {
                if build.is_schema(subject) {
                    continue; // schema resources are not entities
                }
                let class = build.class(o);
                let r = build.entity(subject);
                build.b.add_direct_type(r, class);
            }
            (SUBCLASS, Node::Iri(o)) => {
                if let Node::Iri(t) = s {
                    let c = build.class(t);
                    let d = build.class(o);
                    if policy.is_lenient() {
                        build.b.subclass_audited(c, d);
                    } else {
                        build.b.subclass(c, d)?;
                    }
                }
            }
            (SUBPROP, Node::Iri(o)) => {
                if let Node::Iri(t) = s {
                    let p1 = build.property(t);
                    let p2 = build.property(o);
                    if policy.is_lenient() {
                        build.b.subproperty_audited(p1, p2);
                    } else {
                        build.b.subproperty(p1, p2)?;
                    }
                }
            }
            (LABEL, Node::Literal(_)) => {
                // The label text itself was recorded by the label pass,
                // but a labelled non-schema subject is an entity even when
                // it has no type and no facts (enrichment can create
                // exactly that, and checkpoints must round-trip it).
                if !build.is_schema(subject) {
                    build.entity(subject);
                }
            }
            (_, Node::Iri(o)) => {
                if build.is_schema(subject) {
                    continue;
                }
                build.fact(subject, p, o);
            }
            (_, Node::Blank(o)) => build.fact(subject, p, o),
            (_, Node::Literal(l)) => {
                let prop = build.property(p);
                let se = build.entity(subject);
                build.b.literal_fact(se, prop, &parsed.literals[l as usize]);
            }
        }
    }

    // Dangling references: fact objects with no statement of their own —
    // no type, no label, no outgoing facts. Typical of truncated dumps.
    let mut dangling: Vec<String> = build
        .info
        .iter()
        .zip(&parsed.terms)
        .filter(|(info, _)| info.flags & (IS_OBJECT | IS_SUBJECT) == IS_OBJECT)
        .map(|(_, text)| (*text).to_string())
        .collect();
    dangling.sort_unstable();
    report.dangling_refs = dangling;

    let (kb, audit) = build.b.finalize_audited();
    report.audit = audit;
    Ok((kb, report))
}

/// Serialize a KB to N-Triples. Class/property/entity names are written
/// as IRIs when they already look like IRIs, and under `kb:` otherwise.
///
/// The layout is **declaration-first**: every class, property, and
/// entity is introduced by its own line (type declaration or label), in
/// id order, before any line that merely references it. Since the
/// parser assigns ids in first-mention order, this makes serialization
/// a fixpoint — `parse(to_string(kb))` preserves every id, and
/// `to_string(parse(text))` returns `text` for text this function
/// produced. The journal's checkpoint/recovery cycle
/// ([`crate::journal`]) leans on that: reloading a checkpoint must not
/// permute resource ids, or replay and re-cleaning after a crash would
/// see a differently-ordered store.
pub fn to_string(kb: &Kb) -> String {
    let iri = |name: &str| -> String {
        // Already IRI-like (has a scheme/prefix and no whitespace): keep
        // verbatim so parse(to_string(kb)) is name-stable. Plain names
        // go under the `kb:` prefix with spaces percent-encoded.
        if name.contains(':') && !name.contains(char::is_whitespace) {
            format!("<{name}>")
        } else {
            format!("<kb:{}>", name.replace(' ', "%20"))
        }
    };
    let lit = |s: &str| -> String {
        let mut out = String::from("\"");
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    };

    let mut out = String::new();
    // Schema: declarations first (id order), hierarchy edges after, so
    // a parent is never first mentioned inside a child's edge line.
    for c in kb.class_ids() {
        let _ = writeln!(
            out,
            "{} <{RDF_TYPE}> <{RDFS_CLASS}> .",
            iri(kb.class_name(c))
        );
    }
    for c in kb.class_ids() {
        let name = kb.class_name(c);
        for &p in kb.class_hierarchy().direct_parents(c.0) {
            let parent = kb.class_name(crate::ids::ClassId(p));
            let _ = writeln!(out, "{} <{RDFS_SUBCLASS}> {} .", iri(name), iri(parent));
        }
    }
    for p in kb.property_ids() {
        let _ = writeln!(
            out,
            "{} <{RDF_TYPE}> <{RDF_PROPERTY}> .",
            iri(kb.property_name(p))
        );
    }
    for p in kb.property_ids() {
        let name = kb.property_name(p);
        for &q in kb.property_hierarchy().direct_parents(p.0) {
            let parent = kb.property_name(crate::ids::PropertyId(q));
            let _ = writeln!(out, "{} <{RDFS_SUBPROP}> {} .", iri(name), iri(parent));
        }
    }
    // Entities: every label line (introducing the resource, id order)
    // before any type or fact line that references one.
    for r in kb.resource_ids() {
        let _ = writeln!(
            out,
            "{} <{RDFS_LABEL}> {} .",
            iri(kb.resource_name(r)),
            lit(kb.label_of(r))
        );
    }
    for r in kb.resource_ids() {
        let name = kb.resource_name(r);
        for &t in kb.direct_types(r) {
            let _ = writeln!(
                out,
                "{} <{RDF_TYPE}> {} .",
                iri(name),
                iri(kb.class_name(t))
            );
        }
        for &(p, obj) in kb.facts_of(r) {
            let pred = iri(kb.property_name(p));
            match obj {
                Object::Resource(o) => {
                    let _ = writeln!(out, "{} {} {} .", iri(name), pred, iri(kb.resource_name(o)));
                }
                Object::Literal(l) => {
                    let _ = writeln!(out, "{} {} {} .", iri(name), pred, lit(kb.literal_value(l)));
                }
            }
        }
    }
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::ingest::IngestMode;

    const SAMPLE: &str = r#"
# A slice of Yago.
<y:wordnet_country> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://www.w3.org/2000/01/rdf-schema#Class> .
<y:wordnet_capital> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <y:wordnet_city> .
<y:hasCapital> <http://www.w3.org/2000/01/rdf-schema#subPropertyOf> <y:isLocatedIn> .
<y:Italy> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <y:wordnet_country> .
<y:Italy> <http://www.w3.org/2000/01/rdf-schema#label> "Italy" .
<y:Rome> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <y:wordnet_capital> .
<y:Rome> <http://www.w3.org/2000/01/rdf-schema#label> "Rome"@en .
<y:Italy> <y:hasCapital> <y:Rome> .
<y:Rossi> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <y:wordnet_person> .
<y:Rossi> <http://www.w3.org/2000/01/rdf-schema#label> "Rossi" .
<y:Rossi> <y:hasHeight> "1.78"^^<http://www.w3.org/2001/XMLSchema#decimal> .
"#;

    #[test]
    fn parses_the_rdfs_fragment() {
        let kb = parse("yago-slice", SAMPLE).unwrap();
        assert_eq!(kb.name(), "yago-slice");
        let country = kb.class_by_name("y:wordnet_country").unwrap();
        let capital = kb.class_by_name("y:wordnet_capital").unwrap();
        let city = kb.class_by_name("y:wordnet_city").unwrap();
        assert!(kb.class_hierarchy().is_a(capital.0, city.0));

        let italy = kb.resources_by_label("Italy");
        assert_eq!(italy.len(), 1);
        assert!(kb.has_type(italy[0], country));

        let rome = kb.resources_by_label("Rome")[0];
        let has_capital = kb.property_by_name("y:hasCapital").unwrap();
        let located_in = kb.property_by_name("y:isLocatedIn").unwrap();
        assert!(kb.holds(italy[0], has_capital, rome));
        assert!(kb.holds(italy[0], located_in, rome), "subproperty closure");

        let rossi = kb.resources_by_label("Rossi")[0];
        let height = kb.property_by_name("y:hasHeight").unwrap();
        assert!(kb.holds_literal(rossi, height, "1.78"));
    }

    #[test]
    fn labels_default_to_local_names() {
        let nt = "<http://kb.org/resource/Pretoria> \
                  <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> \
                  <http://kb.org/class/capital> .\n";
        let kb = parse("t", nt).unwrap();
        assert_eq!(kb.resources_by_label("Pretoria").len(), 1);
    }

    #[test]
    fn round_trip_preserves_queries() {
        let kb = parse("rt", SAMPLE).unwrap();
        let nt = to_string(&kb);
        let kb2 = parse("rt", &nt).unwrap();
        assert_eq!(kb.num_entities(), kb2.num_entities());
        assert_eq!(kb.num_facts(), kb2.num_facts());
        let italy = kb2.resources_by_label("Italy")[0];
        let rome = kb2.resources_by_label("Rome")[0];
        let has_capital = kb2.property_by_name("y:hasCapital").unwrap();
        assert!(kb2.holds(italy, has_capital, rome));
        let located_in = kb2.property_by_name("y:isLocatedIn").unwrap();
        assert!(kb2.holds(italy, located_in, rome));
    }

    #[test]
    fn syntax_errors_carry_line_numbers() {
        let err = parse("t", "<a> <b> <c>\n").unwrap_err();
        match err {
            NtError::Syntax { line, .. } => assert_eq!(line, 1),
            other => panic!("{other}"),
        }
        let err = parse("t", "\n\n<a> <b> \"unterminated .\n").unwrap_err();
        match err {
            NtError::Syntax {
                line, byte_offset, ..
            } => {
                assert_eq!(line, 3);
                assert_eq!(byte_offset, 2);
            }
            other => panic!("{other}"),
        }
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let kb = parse("t", "# nothing here\n\n").unwrap();
        assert_eq!(kb.num_entities(), 0);
    }

    #[test]
    fn blank_nodes_are_entities() {
        let nt = "<kb:a> <kb:knows> _:b1 .\n_:b1 <kb:knows> <kb:a> .\n";
        let kb = parse("t", nt).unwrap();
        assert_eq!(kb.num_entities(), 2);
        assert_eq!(kb.num_facts(), 2);
    }

    #[test]
    fn local_name_extraction() {
        assert_eq!(local_name("http://x.org/resource/Rome"), "Rome");
        assert_eq!(local_name("http://x.org/ont#capital"), "capital");
        assert_eq!(local_name("y:Rome"), "Rome");
        assert_eq!(local_name("plain"), "plain");
    }

    #[test]
    fn lenient_quarantines_malformed_lines() {
        let dirty = "<kb:a> <kb:p> <kb:b> .\n\
                     this is not a triple\n\
                     <kb:c> <kb:p> \"unterminated\n\
                     <kb:d> <kb:p> <kb:e> .\n";
        let (kb, report) = parse_with_policy("t", dirty, &IngestPolicy::lenient()).unwrap();
        assert_eq!(report.total_statements, 4);
        assert_eq!(report.accepted, 2);
        assert_eq!(report.quarantined_count, 2);
        assert_eq!(report.quarantined[0].line, 2);
        assert_eq!(report.quarantined[0].kind, QuarantineKind::Syntax);
        assert_eq!(report.quarantined[1].line, 3);
        // Byte offsets point at the start of the offending lines.
        assert_eq!(report.quarantined[0].byte_offset, 23);
        assert!(report.is_degraded());
        assert_eq!(kb.num_facts(), 2);
        // Strict mode on the same input fails at the first bad line.
        let err = parse_with_policy("t", dirty, &IngestPolicy::strict()).unwrap_err();
        assert!(matches!(err, NtError::Syntax { line: 2, .. }));
    }

    #[test]
    fn lenient_repairs_hierarchy_cycles() {
        let nt = "<kb:a> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <kb:b> .\n\
                  <kb:b> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <kb:c> .\n\
                  <kb:c> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <kb:a> .\n\
                  <kb:s> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <kb:s> .\n";
        // Strict: hard error, as always.
        assert!(matches!(parse("t", nt), Err(NtError::Schema(_))));
        // Lenient: the closing edge c -> a and the self-loop are dropped
        // deterministically and recorded.
        let (kb, report) = parse_with_policy("t", nt, &IngestPolicy::lenient()).unwrap();
        let a = kb.class_by_name("kb:a").unwrap();
        let c = kb.class_by_name("kb:c").unwrap();
        assert!(kb.class_hierarchy().is_a(a.0, c.0));
        assert!(!kb.class_hierarchy().is_a(c.0, a.0));
        assert_eq!(report.audit.broken_edges.len(), 2);
        assert_eq!(report.audit.broken_edges[0].child, "kb:c");
        assert_eq!(report.audit.broken_edges[0].parent, "kb:a");
        assert!(!report.audit.broken_edges[0].self_loop);
        assert!(report.audit.broken_edges[1].self_loop);
        assert!(report.is_degraded());
    }

    #[test]
    fn oversized_literals_are_capped() {
        let nt = format!("<kb:a> <kb:p> \"{}\" .\n", "x".repeat(100));
        let mut policy = IngestPolicy::lenient();
        policy.max_literal_len = 64;
        let (kb, report) = parse_with_policy("t", &nt, &policy).unwrap();
        assert_eq!(kb.num_facts(), 0);
        assert_eq!(report.quarantined_count, 1);
        assert_eq!(report.quarantined[0].kind, QuarantineKind::OversizedLiteral);
        // Strict with the same cap: typed error instead.
        policy.mode = IngestMode::Strict;
        let err = parse_with_policy("t", &nt, &policy).unwrap_err();
        assert!(matches!(
            err,
            NtError::Oversized {
                line: 1,
                what: "literal",
                len: 100,
                max: 64,
                ..
            }
        ));
    }

    #[test]
    fn mostly_garbage_input_is_a_typed_error() {
        let garbage = "not a triple\n".repeat(50);
        let err = parse_with_policy("t", &garbage, &IngestPolicy::lenient()).unwrap_err();
        assert!(matches!(err, NtError::TooManyQuarantined { .. }));
    }

    #[test]
    fn quarantine_entry_store_is_capped_but_count_is_not() {
        let mut dirty = String::new();
        for i in 0..20 {
            dirty.push_str(&format!("<kb:a{i}> <kb:p> <kb:b{i}> .\n"));
            dirty.push_str("junk line\n");
        }
        let mut policy = IngestPolicy::lenient();
        policy.max_quarantine_entries = 5;
        let (_, report) = parse_with_policy("t", &dirty, &policy).unwrap();
        assert_eq!(report.quarantined_count, 20);
        assert_eq!(report.quarantined.len(), 5);
    }

    #[test]
    fn dangling_references_are_reported() {
        let nt = "<kb:Italy> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <kb:country> .\n\
                  <kb:Italy> <kb:hasCapital> <kb:Rome> .\n";
        let (_, report) = parse_with_policy("t", nt, &IngestPolicy::lenient()).unwrap();
        // Rome is referenced but never described: dangling (advisory).
        assert_eq!(report.dangling_refs, vec!["kb:Rome".to_string()]);
        assert!(!report.is_degraded());
    }

    /// The value of the one literal fact in `<kb:a> <kb:p> {literal} .`.
    fn literal_of(literal: &str) -> Result<String, NtError> {
        let kb = parse("t", &format!("<kb:a> <kb:p> {literal} .\n"))?;
        let a = kb.resources_by_label("a")[0];
        match kb.facts_of(a)[0].1 {
            Object::Literal(l) => Ok(kb.literal_value(l).to_string()),
            other => panic!("not a literal: {other:?}"),
        }
    }

    #[test]
    fn w3c_escapes_decode() {
        assert_eq!(literal_of(r#""\U0001F600""#).unwrap(), "\u{1F600}");
        assert_eq!(literal_of(r#""\U0000D800""#).unwrap(), "\u{FFFD}");
        assert_eq!(literal_of(r#""\U00110000""#).unwrap(), "\u{FFFD}");
        assert_eq!(literal_of(r#""\b\f\'""#).unwrap(), "\u{8}\u{c}'");
        assert_eq!(
            literal_of(r#""\u+041""#).unwrap(),
            "A",
            "from_str_radix takes a +"
        );
        for short in [r#""\U0001F60""#, r#""\U+0001F60""#, r#""\U0001F6"#] {
            match literal_of(short) {
                Err(NtError::Syntax {
                    line: 1, message, ..
                }) => {
                    assert!(message.starts_with("bad \\U escape"), "{message}")
                }
                other => panic!("{short}: {other:?}"),
            }
        }
    }

    #[test]
    fn decoded_literals_round_trip() {
        let nt = "<kb:a> <kb:p> \"\\U0001F600 \\b\\f\\' \\U0000D800\\n\" .\n";
        let kb = parse("t", nt).unwrap();
        let text = to_string(&kb);
        assert!(text.contains("\u{1F600} \u{8}\u{c}' \u{FFFD}\\n"), "{text}");
        assert_eq!(to_string(&parse("t", &text).unwrap()), text);
    }

    #[test]
    fn strict_policy_matches_legacy_parse_on_clean_input() {
        let kb1 = parse("t", SAMPLE).unwrap();
        let (kb2, report) = parse_with_policy("t", SAMPLE, &IngestPolicy::strict()).unwrap();
        assert_eq!(kb1.num_entities(), kb2.num_entities());
        assert_eq!(kb1.num_facts(), kb2.num_facts());
        assert_eq!(kb1.num_classes(), kb2.num_classes());
        assert_eq!(kb1.num_properties(), kb2.num_properties());
        assert_eq!(report.quarantined_count, 0);
        assert_eq!(report.accepted, report.total_statements);
        assert!(!report.is_degraded());
    }
}
