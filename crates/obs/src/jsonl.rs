//! The versioned JSONL trace format.
//!
//! One JSON object per line: a header identifying the schema and the
//! run, then one flat object per event. Hand-rolled writer and parser —
//! the workspace is hermetic (no serde); the event objects are flat
//! (string / integer / bool / integer-array values only), so a minimal
//! scanner suffices. Writer output is byte-stable: an event's fields are
//! written in the order [`TraceEvent`]'s declaration lists them.
//!
//! The writer and the parser of every event kind come from that one
//! declaration (`trace_schema!`): each field is written and read through
//! the `Field` impl of its type, under its own name as key.
//!
//! Schema evolution policy: `v` bumps on any breaking change (renamed
//! events, retyped fields). The parser skips fields it does not know,
//! so *adding* a field keeps the version; it rejects an event name it
//! does not know, so an older reader fails loudly on a trace that uses
//! a newer event kind. Readers reject headers whose `schema` or `v` they
//! do not know.

use crate::event::{FaultKind, TraceEvent};
use crate::tracer::TraceRecord;
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;

/// The schema identifier carried by every trace header.
pub const SCHEMA_NAME: &str = "domino-trace";

/// Current schema version.
pub const SCHEMA_VERSION: u64 = 1;

/// Run identity carried by the trace header.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceMeta {
    /// Experiment name (registry key), e.g. `fig10_timeline`.
    pub experiment: String,
    /// Scheme that produced the events, e.g. `domino`.
    pub scheme: String,
    /// Master seed of the run.
    pub seed: u64,
    /// Scale label, e.g. `quick`.
    pub scale: String,
}

/// A trace parse failure, with the 1-based line it occurred on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(line: usize, msg: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError { line, msg: msg.into() })
}

// ---------------------------------------------------------------- fields

/// Declare the trace event enum: each variant with its wire name and its
/// fields, in JSONL order. Generates the enum, its `name`, and the two
/// halves of its JSONL form — `write_fields` and `read_fields` — so an
/// event kind or field is added in one place.
macro_rules! trace_schema {
    ($(#[$meta:meta])* pub enum $ty:ident {
        $($(#[$vmeta:meta])* $var:ident => $name:literal {
            $($(#[$fmeta:meta])* $field:ident: $fty:ty),* $(,)?
        }),+ $(,)?
    }) => {
        $(#[$meta])*
        pub enum $ty {
            $($(#[$vmeta])* $var { $($(#[$fmeta])* $field: $fty),* }),+
        }

        impl $ty {
            /// Stable wire name used in the JSONL schema.
            pub fn name(&self) -> &'static str {
                match self {
                    $($ty::$var { .. } => $name),+
                }
            }

            /// Append the event's fields to its JSONL line.
            pub(crate) fn write_fields(&self, out: &mut String) {
                match self {
                    $($ty::$var { $($field),* } => {
                        $($crate::jsonl::write_field(out, stringify!($field), $field);)*
                    })+
                }
            }

            /// The event named `name`, built from one line's fields.
            pub(crate) fn read_fields(
                name: &str,
                fields: &$crate::jsonl::Fields,
                line: usize,
            ) -> Result<$ty, $crate::jsonl::ParseError> {
                match name {
                    $($name => Ok($ty::$var {
                        $($field: $crate::jsonl::read_field(fields, stringify!($field), line)?),*
                    }),)+
                    other => Err($crate::jsonl::ParseError {
                        line,
                        msg: format!("unknown event '{other}'"),
                    }),
                }
            }
        }
    };
}

pub(crate) use trace_schema;

/// A value one JSONL field can carry: how it is written and read back.
pub(crate) trait Field: Sized {
    /// Append the value's JSON text.
    fn write(&self, out: &mut String);
    /// The value a parsed field holds, or what was expected instead.
    fn read(val: Option<&Val>) -> Result<Self, String>;
}

impl Field for u64 {
    fn write(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }
    fn read(val: Option<&Val>) -> Result<u64, String> {
        match val {
            Some(Val::Num(n)) => Ok(*n),
            _ => Err("a number".into()),
        }
    }
}

impl Field for u32 {
    fn write(&self, out: &mut String) {
        u64::from(*self).write(out);
    }
    fn read(val: Option<&Val>) -> Result<u32, String> {
        u32::try_from(u64::read(val)?).map_err(|_| "a number within u32".into())
    }
}

impl Field for bool {
    fn write(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
    fn read(val: Option<&Val>) -> Result<bool, String> {
        match val {
            Some(Val::Bool(b)) => Ok(*b),
            _ => Err("a boolean".into()),
        }
    }
}

impl Field for String {
    fn write(&self, out: &mut String) {
        push_str_escaped(out, self);
    }
    fn read(val: Option<&Val>) -> Result<String, String> {
        match val {
            Some(Val::Str(s)) => Ok(s.clone()),
            _ => Err("a string".into()),
        }
    }
}

impl Field for Vec<u32> {
    fn write(&self, out: &mut String) {
        out.push('[');
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            v.write(out);
        }
        out.push(']');
    }
    fn read(val: Option<&Val>) -> Result<Vec<u32>, String> {
        match val {
            Some(Val::Arr(vs)) => vs
                .iter()
                .map(|&v| u32::try_from(v).map_err(|_| "array items within u32".into()))
                .collect(),
            _ => Err("an array".into()),
        }
    }
}

impl Field for FaultKind {
    fn write(&self, out: &mut String) {
        push_str_escaped(out, self.name());
    }
    fn read(val: Option<&Val>) -> Result<FaultKind, String> {
        let name = String::read(val)?;
        FaultKind::from_name(&name).ok_or_else(|| format!("a fault kind, not '{name}'"))
    }
}

fn push_str_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Append `,"key":value`.
pub(crate) fn write_field<T: Field>(out: &mut String, key: &str, value: &T) {
    let _ = write!(out, ",\"{key}\":");
    value.write(out);
}

/// The field `key` of one parsed line, read as a `T`.
pub(crate) fn read_field<T: Field>(fields: &Fields, key: &str, line: usize) -> Result<T, ParseError> {
    T::read(fields.get(key))
        .map_err(|want| ParseError { line, msg: format!("field '{key}': expected {want}") })
}

// ---------------------------------------------------------------- writer

/// Render the header line for `meta`.
pub fn write_header(meta: &TraceMeta) -> String {
    let mut out = format!("{{\"schema\":\"{SCHEMA_NAME}\"");
    write_field(&mut out, "v", &SCHEMA_VERSION);
    write_field(&mut out, "experiment", &meta.experiment);
    write_field(&mut out, "scheme", &meta.scheme);
    write_field(&mut out, "seed", &meta.seed);
    write_field(&mut out, "scale", &meta.scale);
    out.push('}');
    out
}

/// Render one event line.
pub fn write_record(rec: &TraceRecord) -> String {
    let mut out = format!("{{\"t\":{},\"ev\":\"{}\"", rec.t_ns, rec.ev.name());
    rec.ev.write_fields(&mut out);
    out.push('}');
    out
}

/// Render a full trace: header line plus one line per record.
pub fn write_trace(meta: &TraceMeta, records: &[TraceRecord]) -> String {
    let mut out = write_header(meta);
    out.push('\n');
    for rec in records {
        out.push_str(&write_record(rec));
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------- parser

/// A parsed flat JSON value.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Val {
    Str(String),
    Num(u64),
    Bool(bool),
    Arr(Vec<u64>),
}

struct Scanner<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: usize,
}

impl<'a> Scanner<'a> {
    fn new(s: &'a str, line: usize) -> Scanner<'a> {
        Scanner { bytes: s.as_bytes(), pos: 0, line }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ') | Some(b'\t')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, want: u8) -> Result<(), ParseError> {
        self.skip_ws();
        match self.bump() {
            Some(b) if b == want => Ok(()),
            other => err(
                self.line,
                format!("expected '{}', found {:?}", want as char, other.map(|b| b as char)),
            ),
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'n') => out.push('\n'),
                    other => {
                        return err(self.line, format!("bad escape {:?}", other.map(|b| b as char)))
                    }
                },
                Some(b) => out.push(b as char),
                None => return err(self.line, "unterminated string"),
            }
        }
    }

    fn number(&mut self) -> Result<u64, ParseError> {
        self.skip_ws();
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return err(self.line, "expected a number");
        }
        let digits = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| ParseError { line: self.line, msg: "non-utf8 number".into() })?;
        digits
            .parse::<u64>()
            .map_err(|e| ParseError { line: self.line, msg: format!("bad number: {e}") })
    }

    fn parse_value(&mut self) -> Result<Val, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => Ok(Val::Str(self.string()?)),
            Some(b'0'..=b'9') => Ok(Val::Num(self.number()?)),
            Some(b't') => {
                if self.bytes[self.pos..].starts_with(b"true") {
                    self.pos += 4;
                    Ok(Val::Bool(true))
                } else {
                    err(self.line, "bad literal")
                }
            }
            Some(b'f') => {
                if self.bytes[self.pos..].starts_with(b"false") {
                    self.pos += 5;
                    Ok(Val::Bool(false))
                } else {
                    err(self.line, "bad literal")
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Val::Arr(items));
                }
                loop {
                    items.push(self.number()?);
                    self.skip_ws();
                    match self.bump() {
                        Some(b',') => continue,
                        Some(b']') => return Ok(Val::Arr(items)),
                        other => {
                            return err(
                                self.line,
                                format!("bad array separator {:?}", other.map(|b| b as char)),
                            )
                        }
                    }
                }
            }
            other => err(self.line, format!("unexpected value start {:?}", other.map(|b| b as char))),
        }
    }

    fn object(&mut self) -> Result<Fields, ParseError> {
        self.expect_byte(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(map);
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect_byte(b':')?;
            let value = self.parse_value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(map),
                other => {
                    return err(
                        self.line,
                        format!("bad object separator {:?}", other.map(|b| b as char)),
                    )
                }
            }
        }
    }
}

/// One parsed line's fields by key.
pub(crate) type Fields = BTreeMap<String, Val>;

/// Parse one header line.
pub fn parse_header(text: &str, line: usize) -> Result<TraceMeta, ParseError> {
    let map = Scanner::new(text, line).object()?;
    let schema: String = read_field(&map, "schema", line)?;
    if schema != SCHEMA_NAME {
        return err(line, format!("unknown schema '{schema}'"));
    }
    let v: u64 = read_field(&map, "v", line)?;
    if v != SCHEMA_VERSION {
        return err(line, format!("unsupported schema version {v} (reader knows {SCHEMA_VERSION})"));
    }
    Ok(TraceMeta {
        experiment: read_field(&map, "experiment", line)?,
        scheme: read_field(&map, "scheme", line)?,
        seed: read_field(&map, "seed", line)?,
        scale: read_field(&map, "scale", line)?,
    })
}

/// Parse one event line.
pub fn parse_record(text: &str, line: usize) -> Result<TraceRecord, ParseError> {
    let map = Scanner::new(text, line).object()?;
    let t_ns = read_field(&map, "t", line)?;
    let name: String = read_field(&map, "ev", line)?;
    Ok(TraceRecord { t_ns, ev: TraceEvent::read_fields(&name, &map, line)? })
}

/// Parse a full trace (header + events). Blank lines are ignored.
pub fn parse_trace(text: &str) -> Result<(TraceMeta, Vec<TraceRecord>), ParseError> {
    let mut lines = text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty());
    let (i, header) = match lines.next() {
        Some(pair) => pair,
        None => return err(0, "empty trace"),
    };
    let meta = parse_header(header, i + 1)?;
    let mut records = Vec::new();
    for (i, line) in lines {
        records.push(parse_record(line, i + 1)?);
    }
    Ok((meta, records))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<TraceRecord> {
        vec![
            TraceRecord { t_ns: 0, ev: TraceEvent::BatchBegin { batch: 1, first_slot: 0, slots: 4 } },
            TraceRecord {
                t_ns: 120,
                ev: TraceEvent::SigEmit { node: 2, slot: 0, targets: vec![1, 3] },
            },
            TraceRecord { t_ns: 150, ev: TraceEvent::SigDetect { node: 1, slot: 0 } },
            TraceRecord { t_ns: 150, ev: TraceEvent::SigMiss { node: 3, slot: 0 } },
            TraceRecord { t_ns: 200, ev: TraceEvent::SlotStart { slot: 0, link: 5, fake: false } },
            TraceRecord { t_ns: 400, ev: TraceEvent::SlotEnd { link: 5, delivered: true } },
            TraceRecord { t_ns: 500, ev: TraceEvent::BackboneSend { delay_ns: 285_000, spiked: true } },
            TraceRecord { t_ns: 510, ev: TraceEvent::BackboneDrop {} },
            TraceRecord {
                t_ns: 600,
                ev: TraceEvent::FaultInject { kind: FaultKind::ApCrash, node: 4 },
            },
            TraceRecord {
                t_ns: 900,
                ev: TraceEvent::FaultRecover { kind: FaultKind::ApCrash, node: 4 },
            },
            TraceRecord { t_ns: 950, ev: TraceEvent::RopPoll { ap: 0 } },
            TraceRecord { t_ns: 960, ev: TraceEvent::RopReport { client: 1, ap: 0, queue: 9 } },
            TraceRecord { t_ns: 970, ev: TraceEvent::TriggerFire { node: 1, slot: 2 } },
            TraceRecord { t_ns: 980, ev: TraceEvent::EpochBarrier { epoch: 3, pending: 0 } },
            TraceRecord { t_ns: 990, ev: TraceEvent::BatchEnd { batch: 1 } },
            TraceRecord { t_ns: 992, ev: TraceEvent::CtrlCheckpoint { bytes: 412 } },
            TraceRecord { t_ns: 993, ev: TraceEvent::StandbyPromote { replayed: 17 } },
            TraceRecord { t_ns: 995, ev: TraceEvent::LivelockCheck { events: 12 } },
            TraceRecord {
                t_ns: 999,
                ev: TraceEvent::Livelock { events: 5_000_001, budget: 5_000_000 },
            },
        ]
    }

    #[test]
    fn round_trip_every_event_kind() {
        let meta = TraceMeta {
            experiment: "fig10_timeline".into(),
            scheme: "domino".into(),
            seed: 0xD0311,
            scale: "quick".into(),
        };
        let text = write_trace(&meta, &sample_records());
        let (meta2, recs2) = parse_trace(&text).expect("round trip");
        assert_eq!(meta, meta2);
        assert_eq!(sample_records(), recs2);
    }

    #[test]
    fn writer_is_byte_stable() {
        let meta = TraceMeta {
            experiment: "x".into(),
            scheme: "dcf".into(),
            seed: 1,
            scale: "full".into(),
        };
        assert_eq!(write_trace(&meta, &sample_records()), write_trace(&meta, &sample_records()));
    }

    #[test]
    fn rejects_unknown_schema_and_version() {
        let bad = "{\"schema\":\"other\",\"v\":1,\"experiment\":\"x\",\"scheme\":\"s\",\"seed\":1,\"scale\":\"q\"}";
        assert!(parse_header(bad, 1).is_err());
        let future = "{\"schema\":\"domino-trace\",\"v\":99,\"experiment\":\"x\",\"scheme\":\"s\",\"seed\":1,\"scale\":\"q\"}";
        assert!(parse_header(future, 1).is_err());
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_record("{\"t\":1}", 1).is_err(), "missing ev");
        assert!(parse_record("{\"t\":1,\"ev\":\"mystery\"}", 1).is_err(), "unknown event");
        assert!(parse_record("{\"t\":1,\"ev\":\"rop_poll\"}", 1).is_err(), "missing field");
        assert!(parse_record("not json", 1).is_err());
        assert!(parse_trace("").is_err(), "empty trace");
    }

    #[test]
    fn string_escapes_round_trip() {
        let meta = TraceMeta {
            experiment: "we\"ird\\name".into(),
            scheme: "domino".into(),
            seed: 7,
            scale: "q".into(),
        };
        let parsed = parse_header(&write_header(&meta), 1).expect("escapes");
        assert_eq!(parsed, meta);
    }
}
