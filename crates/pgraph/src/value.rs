//! Typed property values.
//!
//! PG-Schema builds on GQL's predefined data types; the paper's datatype
//! inference (§4.4) distinguishes `INTEGER`, `FLOAT` (double), `BOOLEAN`,
//! `DATE`/`TIMESTAMP` (via ISO regex) and defaults to `STRING`. Values here
//! carry their runtime type, but inference in `pg-hive-core` deliberately
//! works from the *lexical* form (`Value::lexical`) so that, exactly like the
//! paper's Neo4j loader, a property stored as the string `"42"` is inferred
//! as an integer.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A property value attached to a node or edge.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Value {
    /// 64-bit signed integer (`v ∈ Z` in §4.4).
    Int(i64),
    /// Double-precision float (`v ∈ R \ Z`).
    Float(f64),
    /// Boolean literal.
    Bool(bool),
    /// Calendar date, ISO `YYYY-MM-DD`.
    Date {
        /// Calendar year (may be negative).
        year: i32,
        /// Month, 1–12.
        month: u8,
        /// Day of month, 1–31.
        day: u8,
    },
    /// Timestamp, ISO `YYYY-MM-DDThh:mm:ss` (seconds precision).
    DateTime {
        /// Calendar year (may be negative).
        year: i32,
        /// Month, 1–12.
        month: u8,
        /// Day of month, 1–31.
        day: u8,
        /// Hour, 0–23.
        hour: u8,
        /// Minute, 0–59.
        minute: u8,
        /// Second, 0–59.
        second: u8,
    },
    /// Arbitrary string (the inference default).
    Str(String),
}

/// The data-type lattice used by the paper's priority-based inference
/// (integer → float → boolean → date/timestamp → string).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ValueKind {
    /// 64-bit signed integers.
    Integer,
    /// Double-precision floats.
    Float,
    /// Boolean literals.
    Boolean,
    /// Calendar dates.
    Date,
    /// Timestamps with seconds precision.
    Timestamp,
    /// Arbitrary strings (top of the lattice).
    String,
}

impl ValueKind {
    /// GQL-style type name used in PG-Schema serialization (§4.5).
    pub fn gql_name(self) -> &'static str {
        match self {
            ValueKind::Integer => "INT",
            ValueKind::Float => "DOUBLE",
            ValueKind::Boolean => "BOOLEAN",
            ValueKind::Date => "DATE",
            ValueKind::Timestamp => "TIMESTAMP",
            ValueKind::String => "STRING",
        }
    }

    /// XSD type name used in XSD serialization (§4.5).
    pub fn xsd_name(self) -> &'static str {
        match self {
            ValueKind::Integer => "xs:integer",
            ValueKind::Float => "xs:double",
            ValueKind::Boolean => "xs:boolean",
            ValueKind::Date => "xs:date",
            ValueKind::Timestamp => "xs:dateTime",
            ValueKind::String => "xs:string",
        }
    }

    /// Least upper bound of two kinds in the inference lattice: identical
    /// kinds stay, `Integer ⊔ Float = Float`, anything else generalizes to
    /// `String` (the paper's fallback, §4.7 "Data type inference").
    pub fn join(self, other: ValueKind) -> ValueKind {
        use ValueKind::*;
        match (self, other) {
            (a, b) if a == b => a,
            (Integer, Float) | (Float, Integer) => Float,
            (Date, Timestamp) | (Timestamp, Date) => Timestamp,
            _ => String,
        }
    }
}

impl Value {
    /// Runtime kind of this value.
    pub fn kind(&self) -> ValueKind {
        match self {
            Value::Int(_) => ValueKind::Integer,
            Value::Float(_) => ValueKind::Float,
            Value::Bool(_) => ValueKind::Boolean,
            Value::Date { .. } => ValueKind::Date,
            Value::DateTime { .. } => ValueKind::Timestamp,
            Value::Str(_) => ValueKind::String,
        }
    }

    /// Lexical (string) form, as it would appear in a CSV export. Datatype
    /// inference runs on this form.
    pub fn lexical(&self) -> String {
        self.to_string()
    }

    /// Parse a lexical form back into the most specific value, following the
    /// paper's priority order: integer, float, boolean, date, timestamp,
    /// string fallback. Leading and trailing whitespace is trimmed.
    pub fn parse_lexical(s: &str) -> Value {
        let t = s.trim();
        parse_non_string(t).unwrap_or_else(|| Value::Str(t.to_string()))
    }

    /// The kind [`Value::parse_lexical`] would give `s`, without building
    /// the value: the same decision procedure, minus the string copy.
    pub fn lexical_kind(s: &str) -> ValueKind {
        parse_non_string(s.trim()).map_or(ValueKind::String, |v| v.kind())
    }
}

/// The §4.4 decision procedure on a trimmed lexical form: the most specific
/// non-string value `t` denotes, or `None` for the string fallback. None of
/// these values allocate.
fn parse_non_string(t: &str) -> Option<Value> {
    // A letter-initial form can only be a boolean literal or a string: the
    // integer, float and date parsers all reject a leading letter, and the
    // only floats that start with one (`inf`, `nan`) fail the finiteness
    // check.
    let letter_initial = t.as_bytes().first().is_some_and(u8::is_ascii_alphabetic);
    if !letter_initial {
        if let Ok(i) = t.parse::<i64>() {
            // Reject forms like "05" that round-trip differently? Keep them:
            // Neo4j CSV loaders treat any integral literal as an integer.
            return Some(Value::Int(i));
        }
        if let Ok(f) = t.parse::<f64>() {
            if f.is_finite() {
                return Some(Value::Float(f));
            }
        }
    }
    match t {
        "true" | "TRUE" | "True" => return Some(Value::Bool(true)),
        "false" | "FALSE" | "False" => return Some(Value::Bool(false)),
        _ => {}
    }
    if letter_initial {
        return None;
    }
    parse_iso_date(t).or_else(|| parse_iso_datetime(t))
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => {
                // Keep a fractional marker so the lexical form round-trips as
                // a float rather than collapsing 2.0 -> "2" -> Int.
                if x.fract() == 0.0 && x.is_finite() {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            Value::Bool(b) => write!(f, "{b}"),
            Value::Date { year, month, day } => write!(f, "{year:04}-{month:02}-{day:02}"),
            Value::DateTime {
                year,
                month,
                day,
                hour,
                minute,
                second,
            } => write!(
                f,
                "{year:04}-{month:02}-{day:02}T{hour:02}:{minute:02}:{second:02}"
            ),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

fn days_in_month(year: i32, month: u8) -> u8 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            let leap = (year % 4 == 0 && year % 100 != 0) || year % 400 == 0;
            if leap {
                29
            } else {
                28
            }
        }
        _ => 0,
    }
}

/// Parse `YYYY-MM-DD`. A tiny hand-rolled recognizer standing in for the
/// paper's "regex for date/time ISO formats".
pub fn parse_iso_date(s: &str) -> Option<Value> {
    let b = s.as_bytes();
    if b.len() != 10 || b[4] != b'-' || b[7] != b'-' {
        return None;
    }
    let year: i32 = s[0..4].parse().ok()?;
    let month: u8 = s[5..7].parse().ok()?;
    let day: u8 = s[8..10].parse().ok()?;
    if !(1..=12).contains(&month) || day == 0 || day > days_in_month(year, month) {
        return None;
    }
    Some(Value::Date { year, month, day })
}

/// Parse `YYYY-MM-DDThh:mm:ss` (optionally with a trailing `Z`).
pub fn parse_iso_datetime(s: &str) -> Option<Value> {
    let s = s.strip_suffix('Z').unwrap_or(s);
    let b = s.as_bytes();
    if b.len() != 19 || b[10] != b'T' || b[13] != b':' || b[16] != b':' {
        return None;
    }
    let Value::Date { year, month, day } = parse_iso_date(&s[0..10])? else {
        return None;
    };
    let hour: u8 = s[11..13].parse().ok()?;
    let minute: u8 = s[14..16].parse().ok()?;
    let second: u8 = s[17..19].parse().ok()?;
    if hour > 23 || minute > 59 || second > 60 {
        return None;
    }
    Some(Value::DateTime {
        year,
        month,
        day,
        hour,
        minute,
        second,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_integer_literal() {
        assert_eq!(Value::parse_lexical("42"), Value::Int(42));
        assert_eq!(Value::parse_lexical("-7"), Value::Int(-7));
        assert_eq!(Value::parse_lexical("  13 "), Value::Int(13));
    }

    #[test]
    fn parse_float_literal() {
        assert_eq!(Value::parse_lexical("3.5"), Value::Float(3.5));
        assert_eq!(Value::parse_lexical("-0.25"), Value::Float(-0.25));
        assert_eq!(Value::parse_lexical("1e3"), Value::Float(1000.0));
    }

    #[test]
    fn parse_bool_literal() {
        assert_eq!(Value::parse_lexical("true"), Value::Bool(true));
        assert_eq!(Value::parse_lexical("FALSE"), Value::Bool(false));
    }

    #[test]
    fn parse_date_literal() {
        assert_eq!(
            Value::parse_lexical("1999-12-19"),
            Value::Date {
                year: 1999,
                month: 12,
                day: 19
            }
        );
    }

    #[test]
    fn parse_datetime_literal() {
        assert_eq!(
            Value::parse_lexical("2025-01-02T03:04:05"),
            Value::DateTime {
                year: 2025,
                month: 1,
                day: 2,
                hour: 3,
                minute: 4,
                second: 5
            }
        );
        assert!(matches!(
            Value::parse_lexical("2025-01-02T03:04:05Z"),
            Value::DateTime { .. }
        ));
    }

    #[test]
    fn invalid_dates_fall_back_to_string() {
        assert_eq!(
            Value::parse_lexical("2025-13-01"),
            Value::Str("2025-13-01".into())
        );
        assert_eq!(
            Value::parse_lexical("2025-02-30"),
            Value::Str("2025-02-30".into())
        );
        assert_eq!(
            Value::parse_lexical("2025-02-00"),
            Value::Str("2025-02-00".into())
        );
    }

    #[test]
    fn leap_year_date() {
        assert!(matches!(
            Value::parse_lexical("2024-02-29"),
            Value::Date { .. }
        ));
        assert!(matches!(Value::parse_lexical("2023-02-29"), Value::Str(_)));
        assert!(matches!(
            Value::parse_lexical("2000-02-29"),
            Value::Date { .. }
        ));
        assert!(matches!(Value::parse_lexical("1900-02-29"), Value::Str(_)));
    }

    #[test]
    fn string_fallback() {
        assert_eq!(
            Value::parse_lexical("bazinga!"),
            Value::Str("bazinga!".into())
        );
    }

    #[test]
    fn lexical_round_trip_preserves_kind() {
        for v in [
            Value::Int(99),
            Value::Float(2.0),
            Value::Float(-1.75),
            Value::Bool(true),
            Value::Date {
                year: 2001,
                month: 6,
                day: 30,
            },
            Value::DateTime {
                year: 2001,
                month: 6,
                day: 30,
                hour: 23,
                minute: 59,
                second: 59,
            },
            Value::Str("hello world".into()),
        ] {
            let reparsed = Value::parse_lexical(&v.lexical());
            assert_eq!(reparsed.kind(), v.kind(), "value {v:?}");
        }
    }

    #[test]
    fn kind_join_lattice() {
        use ValueKind::*;
        assert_eq!(Integer.join(Integer), Integer);
        assert_eq!(Integer.join(Float), Float);
        assert_eq!(Float.join(Integer), Float);
        assert_eq!(Date.join(Timestamp), Timestamp);
        assert_eq!(Integer.join(Boolean), String);
        assert_eq!(String.join(Integer), String);
    }

    #[test]
    fn gql_and_xsd_names() {
        assert_eq!(ValueKind::Integer.gql_name(), "INT");
        assert_eq!(ValueKind::Timestamp.xsd_name(), "xs:dateTime");
    }
}
