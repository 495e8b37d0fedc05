//! The reference N-Triples loader that
//! [`katara_kb::ntriples::parse_with_policy`] is held to.
//!
//! This is the straightforward loader the production one replaced: a
//! char-by-char tokenizer that owns every term, then classify, label and
//! build passes keyed by term text through hash sets. It lives only here,
//! as a test oracle: on every input and under every policy, the two
//! loaders must return the same KB (byte-identical
//! [`katara_kb::ntriples::to_string`]) and the same `IngestReport`, or the
//! same [`NtError`].
//!
//! It shares [`KbBuilder`] (and its `finalize_audited`) with production;
//! the builder's label index and collision scan have oracles of their own
//! in the crate's unit tests and `label_search.rs`.

use std::collections::{HashMap, HashSet};

use katara_kb::ntriples::{
    local_name, NtError, RDFS_CLASS, RDFS_LABEL, RDFS_SUBCLASS, RDFS_SUBPROP, RDF_PROPERTY,
    RDF_TYPE,
};
use katara_kb::{IngestPolicy, IngestReport, Kb, KbBuilder, QuarantineKind, Quarantined};

/// One parsed term.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Term {
    Iri(String),
    Blank(String),
    Literal(String),
}

/// Parse one N-Triples line into (subject, predicate, object); `None`
/// for blank lines and comments.
fn parse_line(
    line: &str,
    lineno: usize,
    byte_offset: usize,
) -> Result<Option<(Term, Term, Term)>, NtError> {
    let s = line.trim();
    if s.is_empty() || s.starts_with('#') {
        return Ok(None);
    }
    let mut chars = s.chars().peekable();
    let subject = parse_term(&mut chars, lineno, byte_offset)?;
    skip_ws(&mut chars);
    let predicate = parse_term(&mut chars, lineno, byte_offset)?;
    skip_ws(&mut chars);
    let object = parse_term(&mut chars, lineno, byte_offset)?;
    skip_ws(&mut chars);
    match chars.next() {
        Some('.') => Ok(Some((subject, predicate, object))),
        other => Err(NtError::Syntax {
            line: lineno,
            byte_offset,
            message: format!("expected terminating '.', found {other:?}"),
        }),
    }
}

fn skip_ws(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) {
    while chars.peek().is_some_and(|c| c.is_whitespace()) {
        chars.next();
    }
}

fn parse_term(
    chars: &mut std::iter::Peekable<std::str::Chars<'_>>,
    lineno: usize,
    byte_offset: usize,
) -> Result<Term, NtError> {
    let syntax = |message: String| NtError::Syntax {
        line: lineno,
        byte_offset,
        message,
    };
    skip_ws(chars);
    match chars.peek() {
        Some('<') => {
            chars.next();
            let mut iri = String::new();
            for c in chars.by_ref() {
                if c == '>' {
                    return Ok(Term::Iri(iri));
                }
                iri.push(c);
            }
            Err(syntax("unterminated IRI".into()))
        }
        Some('_') => {
            chars.next();
            if chars.next() != Some(':') {
                return Err(syntax("blank node must start with _:".into()));
            }
            let mut label = String::new();
            while let Some(&c) = chars.peek() {
                if c.is_whitespace() {
                    break;
                }
                label.push(c);
                chars.next();
            }
            Ok(Term::Blank(label))
        }
        Some('"') => {
            chars.next();
            let mut lit = String::new();
            loop {
                match chars.next() {
                    Some('\\') => match chars.next() {
                        Some('n') => lit.push('\n'),
                        Some('t') => lit.push('\t'),
                        Some('r') => lit.push('\r'),
                        Some('b') => lit.push('\u{8}'),
                        Some('f') => lit.push('\u{c}'),
                        Some('"') => lit.push('"'),
                        Some('\'') => lit.push('\''),
                        Some('\\') => lit.push('\\'),
                        Some('u') => {
                            let hex: String = chars.by_ref().take(4).collect();
                            let cp = u32::from_str_radix(&hex, 16)
                                .map_err(|_| syntax(format!("bad \\u escape {hex:?}")))?;
                            lit.push(char::from_u32(cp).unwrap_or('\u{FFFD}'));
                        }
                        Some('U') => {
                            let hex: String = chars.by_ref().take(8).collect();
                            if hex.len() != 8 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
                                return Err(syntax(format!("bad \\U escape {hex:?}")));
                            }
                            let cp = u32::from_str_radix(&hex, 16).unwrap_or(u32::MAX);
                            lit.push(char::from_u32(cp).unwrap_or('\u{FFFD}'));
                        }
                        other => return Err(syntax(format!("bad escape \\{other:?}"))),
                    },
                    Some('"') => break,
                    Some(c) => lit.push(c),
                    None => return Err(syntax("unterminated literal".into())),
                }
            }
            // Optional language tag or datatype — accepted and dropped.
            if chars.peek() == Some(&'@') {
                while chars.peek().is_some_and(|c| !c.is_whitespace()) {
                    chars.next();
                }
            } else if chars.peek() == Some(&'^') {
                chars.next();
                chars.next(); // second ^
                if chars.peek() == Some(&'<') {
                    for c in chars.by_ref() {
                        if c == '>' {
                            break;
                        }
                    }
                }
            }
            Ok(Term::Literal(lit))
        }
        other => Err(syntax(format!("unexpected term start {other:?}"))),
    }
}

/// The first policy-cap violation in a parsed triple, if any.
fn cap_violation(t: &(Term, Term, Term), policy: &IngestPolicy) -> Option<(&'static str, usize)> {
    for term in [&t.0, &t.1, &t.2] {
        match term {
            Term::Iri(s) | Term::Blank(s) if s.len() > policy.max_term_len => {
                return Some(("term", s.len()));
            }
            Term::Literal(s) if s.len() > policy.max_literal_len => {
                return Some(("literal", s.len()));
            }
            _ => {}
        }
    }
    None
}

/// What [`katara_kb::ntriples::parse_with_policy`] must return for
/// `name`, `input` and `policy`.
pub fn parse_with_policy(
    name: &str,
    input: &str,
    policy: &IngestPolicy,
) -> Result<(Kb, IngestReport), NtError> {
    let mut report = IngestReport::default();

    // Pass 1: split + parse lines, tracking byte offsets.
    let mut triples: Vec<(Term, Term, Term)> = Vec::new();
    let mut pos = 0usize;
    let quarantine = |report: &mut IngestReport, entry: Quarantined| -> Result<(), NtError> {
        report.quarantined_count += 1;
        if report.quarantined.len() < policy.max_quarantine_entries {
            report.quarantined.push(entry);
        }
        let q = report.quarantined_count;
        if q >= 8 && q as f64 > policy.max_quarantined_fraction * report.total_statements as f64 {
            return Err(NtError::TooManyQuarantined {
                quarantined: q,
                statements: report.total_statements,
                max_fraction: policy.max_quarantined_fraction,
            });
        }
        Ok(())
    };
    for (i, raw) in input.split('\n').enumerate() {
        let line_start = pos;
        pos += raw.len() + 1;
        if line_start >= input.len() {
            break; // the empty segment after a trailing newline
        }
        let lineno = i + 1;
        let line = raw.strip_suffix('\r').unwrap_or(raw);
        match parse_line(line, lineno, line_start) {
            Ok(None) => {}
            Ok(Some(t)) => {
                report.total_statements += 1;
                if let Some((what, len)) = cap_violation(&t, policy) {
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
                    quarantine(
                        &mut report,
                        Quarantined {
                            line: lineno,
                            byte_offset: line_start,
                            kind,
                            message: format!("{what} of {len} bytes exceeds cap {max}"),
                        },
                    )?;
                } else {
                    triples.push(t);
                }
            }
            Err(e) => {
                report.total_statements += 1;
                if !policy.is_lenient() {
                    return Err(e);
                }
                let message = match &e {
                    NtError::Syntax { message, .. } => message.clone(),
                    other => other.to_string(),
                };
                quarantine(
                    &mut report,
                    Quarantined {
                        line: lineno,
                        byte_offset: line_start,
                        kind: QuarantineKind::Syntax,
                        message,
                    },
                )?;
            }
        }
    }
    report.accepted = triples.len();

    // Pass 2: classify IRIs.
    let mut classes: HashSet<&str> = HashSet::new();
    let mut properties: HashSet<&str> = HashSet::new();
    for (s, p, o) in &triples {
        let (Term::Iri(pi), s_iri) = (p, s) else {
            continue;
        };
        match (pi.as_str(), o) {
            (RDF_TYPE, Term::Iri(oi)) if oi == RDFS_CLASS => {
                if let Term::Iri(si) = s_iri {
                    classes.insert(si);
                }
            }
            (RDF_TYPE, Term::Iri(oi)) if oi == RDF_PROPERTY => {
                if let Term::Iri(si) = s_iri {
                    properties.insert(si);
                }
            }
            (RDF_TYPE, Term::Iri(oi)) => {
                classes.insert(oi);
            }
            (RDFS_SUBCLASS, Term::Iri(oi)) => {
                if let Term::Iri(si) = s_iri {
                    classes.insert(si);
                }
                classes.insert(oi);
            }
            (RDFS_SUBPROP, Term::Iri(oi)) => {
                if let Term::Iri(si) = s_iri {
                    properties.insert(si);
                }
                properties.insert(oi);
            }
            (RDFS_LABEL | RDF_TYPE, _) => {}
            _ => {
                properties.insert(pi);
            }
        }
    }

    // Pass 3: labels.
    let mut labels: HashMap<&str, &str> = HashMap::new();
    for (s, p, o) in &triples {
        if let (Term::Iri(si), Term::Iri(pi), Term::Literal(l)) = (s, p, o) {
            if pi == RDFS_LABEL {
                labels.entry(si).or_insert(l);
            }
        }
    }

    // Pass 4: build, auditing schema statements per policy.
    let mut b = KbBuilder::new().with_name(name);
    let mut subjects: HashSet<&str> = HashSet::new();
    let mut object_refs: HashSet<&str> = HashSet::new();
    let label_of = |iri: &str| -> String {
        labels
            .get(iri)
            .copied()
            .unwrap_or_else(|| local_name(iri))
            .to_string()
    };
    let entity_of = |b: &mut KbBuilder, iri: &str| b.entity_labeled(iri, &label_of(iri), &[]);
    for (s, p, o) in &triples {
        b.check_id_headroom(2)?;
        let Term::Iri(pi) = p else { continue };
        let s_key: &str = match s {
            Term::Iri(si) => si,
            Term::Blank(l) => l,
            Term::Literal(_) => continue,
        };
        subjects.insert(s_key);
        match (pi.as_str(), o) {
            (RDF_TYPE, Term::Iri(oi)) if oi == RDFS_CLASS => {
                if let Term::Iri(si) = s {
                    b.class(si);
                }
            }
            (RDF_TYPE, Term::Iri(oi)) if oi == RDF_PROPERTY => {
                if let Term::Iri(si) = s {
                    b.property(si);
                }
            }
            (RDF_TYPE, Term::Iri(oi)) => {
                if classes.contains(s_key) || properties.contains(s_key) {
                    continue;
                }
                let class = b.class(oi);
                b.entity_labeled(s_key, &label_of(s_key), &[class]);
            }
            (RDFS_SUBCLASS, Term::Iri(oi)) => {
                if let Term::Iri(si) = s {
                    let c = b.class(si);
                    let d = b.class(oi);
                    if policy.is_lenient() {
                        b.subclass_audited(c, d);
                    } else {
                        b.subclass(c, d)?;
                    }
                }
            }
            (RDFS_SUBPROP, Term::Iri(oi)) => {
                if let Term::Iri(si) = s {
                    let p1 = b.property(si);
                    let p2 = b.property(oi);
                    if policy.is_lenient() {
                        b.subproperty_audited(p1, p2);
                    } else {
                        b.subproperty(p1, p2)?;
                    }
                }
            }
            (RDFS_LABEL, Term::Literal(_)) => {
                if !classes.contains(s_key) && !properties.contains(s_key) {
                    entity_of(&mut b, s_key);
                }
            }
            (_, Term::Iri(oi)) => {
                if classes.contains(s_key) || properties.contains(s_key) {
                    continue;
                }
                let prop = b.property(pi);
                let se = entity_of(&mut b, s_key);
                let oe = entity_of(&mut b, oi);
                b.fact(se, prop, oe);
                object_refs.insert(oi);
            }
            (_, Term::Blank(ol)) => {
                let prop = b.property(pi);
                let se = entity_of(&mut b, s_key);
                let oe = entity_of(&mut b, ol);
                b.fact(se, prop, oe);
                object_refs.insert(ol);
            }
            (_, Term::Literal(l)) => {
                let prop = b.property(pi);
                let se = entity_of(&mut b, s_key);
                b.literal_fact(se, prop, l);
            }
        }
    }

    let mut dangling: Vec<String> = object_refs
        .iter()
        .filter(|k| !subjects.contains(*k) && !labels.contains_key(*k))
        .map(|k| (*k).to_string())
        .collect();
    dangling.sort_unstable();
    report.dangling_refs = dangling;

    let (kb, audit) = b.finalize_audited();
    report.audit = audit;
    Ok((kb, report))
}
