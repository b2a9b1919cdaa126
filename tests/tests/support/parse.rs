//! Test-support parser for the PG-Schema declarations produced by
//! `pg_hive_core::serialize`: it closes the round trip, so the tests can
//! check that a schema exported in STRICT (or LOOSE) form carries its
//! structure without access to the original graph.
//!
//! The grammar matches the serializer's output exactly:
//!
//! ```text
//! CREATE GRAPH TYPE <Name> STRICT|LOOSE {
//!   (<TypeName>: <Label> [& <Label>]* [{ [OPTIONAL] key [KIND][, ...] }]),
//!   (:<Labels>) -[<TypeName>: <Labels> [{...}]]-> (:<Labels>) [/* cardinality C */],
//! }
//! ```
//!
//! Parsed schemas carry no instance statistics; mandatory/optional flags are
//! encoded through the `occurrences`/`instance_count` convention
//! (`instance_count = 2`, mandatory ⇒ 2, optional ⇒ 1).

use pg_hive_core::schema::{Cardinality, EdgeType, LabelSet, NodeType, PropertySpec, SchemaGraph};
use pg_hive_graph::ValueKind;
use std::collections::BTreeMap;
use std::fmt;

/// Parse errors with line context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line of the declaration text where parsing failed.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Synthetic instance count used to encode constraints in parsed schemas.
pub const PARSED_INSTANCE_COUNT: u64 = 2;

/// Whether the parsed declaration was STRICT or LOOSE.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParsedMode {
    /// The declaration used `STRICT`.
    Strict,
    /// The declaration used `LOOSE`.
    Loose,
}

/// Parse a PG-Schema declaration back into a [`SchemaGraph`].
pub fn parse_pg_schema(text: &str) -> Result<(SchemaGraph, ParsedMode), ParseError> {
    let mut schema = SchemaGraph::new();
    let mut mode = None;
    let mut in_body = false;

    for (lineno, raw) in text.lines().enumerate() {
        let line = lineno + 1;
        let trimmed = raw.trim();
        if trimmed.is_empty() {
            continue;
        }
        if trimmed.starts_with("CREATE GRAPH TYPE") {
            mode = Some(
                if trimmed.contains(" STRICT ") || trimmed.ends_with("STRICT {") {
                    ParsedMode::Strict
                } else if trimmed.contains(" LOOSE ") || trimmed.ends_with("LOOSE {") {
                    ParsedMode::Loose
                } else {
                    return Err(err(line, "expected STRICT or LOOSE"));
                },
            );
            in_body = true;
            continue;
        }
        if trimmed == "}" {
            in_body = false;
            continue;
        }
        if !in_body {
            return Err(err(line, "content outside the declaration body"));
        }
        let decl = trimmed.trim_end_matches(',');
        if decl.starts_with("(:") {
            parse_edge_decl(decl, line, &mut schema)?;
        } else if decl.starts_with('(') {
            parse_node_decl(decl, line, &mut schema)?;
        } else {
            return Err(err(line, "expected a node or edge declaration"));
        }
    }

    let mode = mode.ok_or_else(|| err(0, "missing CREATE GRAPH TYPE header"))?;
    Ok((schema, mode))
}

fn err(line: usize, message: &str) -> ParseError {
    ParseError {
        line,
        message: message.to_string(),
    }
}

/// `(Name: Label & Label {props})`
fn parse_node_decl(decl: &str, line: usize, schema: &mut SchemaGraph) -> Result<(), ParseError> {
    let inner = decl
        .strip_prefix('(')
        .and_then(|s| s.strip_suffix(')'))
        .ok_or_else(|| err(line, "node declaration must be parenthesized"))?;
    let (_name, rest) = inner
        .split_once(':')
        .ok_or_else(|| err(line, "missing ':' after type name"))?;
    let (label_part, prop_part) = split_props(rest);
    let labels = parse_labels(label_part.trim());
    let props = parse_props(prop_part, line)?;
    schema.node_types.push(NodeType {
        labels,
        props,
        instance_count: PARSED_INSTANCE_COUNT,
        members: vec![],
    });
    Ok(())
}

/// `(:Src) -[Name: Labels {props}]-> (:Tgt) /* cardinality C */`
fn parse_edge_decl(decl: &str, line: usize, schema: &mut SchemaGraph) -> Result<(), ParseError> {
    // Split off the cardinality comment.
    let (decl, cardinality) = match decl.split_once("/*") {
        Some((head, comment)) => {
            let card = comment
                .trim()
                .trim_start_matches("cardinality")
                .trim_end_matches("*/")
                .trim();
            (head.trim(), parse_cardinality(card))
        }
        None => (decl, None),
    };

    let open = decl.find("-[").ok_or_else(|| err(line, "missing '-['"))?;
    let close = decl.find("]->").ok_or_else(|| err(line, "missing ']->'"))?;
    if close < open {
        return Err(err(line, "malformed edge arrow"));
    }
    let src_part = decl[..open].trim();
    let mid = &decl[open + 2..close];
    let tgt_part = decl[close + 3..].trim();

    let src_labels = parse_endpoint(src_part, line)?;
    let tgt_labels = parse_endpoint(tgt_part, line)?;

    let (_name, rest) = mid
        .split_once(':')
        .ok_or_else(|| err(line, "missing ':' in edge type"))?;
    let (label_part, prop_part) = split_props(rest);
    let labels = parse_labels(label_part.trim());
    let props = parse_props(prop_part, line)?;

    // Merge repeated declarations of the same edge type (one line per
    // endpoint pair in the serialized form).
    match schema.edge_type_by_labels(&labels) {
        Some(idx) => {
            let t = &mut schema.edge_types[idx];
            t.endpoints.insert((src_labels, tgt_labels));
            if t.cardinality.is_none() {
                t.cardinality = cardinality;
            }
        }
        None => {
            schema.edge_types.push(EdgeType {
                labels,
                props,
                endpoints: [(src_labels, tgt_labels)].into(),
                instance_count: PARSED_INSTANCE_COUNT,
                members: vec![],
                cardinality,
            });
        }
    }
    Ok(())
}

/// Split `"Label & Label {prop, prop}"` into the label part and an optional
/// brace-enclosed property part.
fn split_props(rest: &str) -> (&str, Option<&str>) {
    match rest.find('{') {
        Some(i) => {
            let end = rest.rfind('}').unwrap_or(rest.len());
            (&rest[..i], Some(&rest[i + 1..end]))
        }
        None => (rest, None),
    }
}

fn parse_labels(part: &str) -> LabelSet {
    let part = part.trim();
    if part == "ABSTRACT" || part.is_empty() {
        return LabelSet::new();
    }
    part.split('&').map(|l| l.trim().to_string()).collect()
}

fn parse_endpoint(part: &str, line: usize) -> Result<LabelSet, ParseError> {
    let inner = part
        .strip_prefix("(:")
        .and_then(|s| s.strip_suffix(')'))
        .ok_or_else(|| err(line, "endpoint must look like (:Label)"))?;
    if inner.trim() == "ANY" {
        return Ok(LabelSet::new());
    }
    Ok(parse_labels(inner))
}

fn parse_props(
    part: Option<&str>,
    line: usize,
) -> Result<BTreeMap<String, PropertySpec>, ParseError> {
    let mut props = BTreeMap::new();
    let Some(part) = part else {
        return Ok(props);
    };
    for item in part.split(',') {
        let item = item.trim();
        if item.is_empty() {
            continue;
        }
        let (optional, item) = match item.strip_prefix("OPTIONAL ") {
            Some(rest) => (true, rest.trim()),
            None => (false, item),
        };
        let mut tokens = item.split_whitespace();
        let key = tokens
            .next()
            .ok_or_else(|| err(line, "empty property item"))?
            .to_string();
        let kind = match tokens.next() {
            None => None, // LOOSE form: bare key
            Some(k) => Some(parse_kind(k, line)?),
        };
        props.insert(
            key,
            PropertySpec {
                occurrences: if optional { 1 } else { PARSED_INSTANCE_COUNT },
                kind,
            },
        );
    }
    Ok(props)
}

fn parse_kind(token: &str, line: usize) -> Result<ValueKind, ParseError> {
    Ok(match token {
        "INT" => ValueKind::Integer,
        "DOUBLE" => ValueKind::Float,
        "BOOLEAN" => ValueKind::Boolean,
        "DATE" => ValueKind::Date,
        "TIMESTAMP" => ValueKind::Timestamp,
        "STRING" => ValueKind::String,
        other => return Err(err(line, &format!("unknown data type '{other}'"))),
    })
}

fn parse_cardinality(notation: &str) -> Option<Cardinality> {
    // Class-level information only: reconstruct representative bounds.
    match notation {
        "0:1" => Some(Cardinality {
            max_out: 1,
            max_in: 1,
        }),
        "N:1" => Some(Cardinality {
            max_out: 2,
            max_in: 1,
        }),
        "0:N" => Some(Cardinality {
            max_out: 1,
            max_in: 2,
        }),
        "M:N" => Some(Cardinality {
            max_out: 2,
            max_in: 2,
        }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_hive_core::serialize::{pg_schema_loose, pg_schema_strict};
    use pg_hive_core::{label_set, Discoverer, PipelineConfig};
    use pg_hive_graph::{GraphBuilder, Value};

    fn sample_schema() -> SchemaGraph {
        let mut b = GraphBuilder::new();
        let mut people = Vec::new();
        for i in 0..6 {
            let mut props = vec![
                ("name", Value::from("x")),
                ("bday", Value::from("1990-01-01")),
            ];
            if i % 2 == 0 {
                props.push(("email", Value::from("e")));
            }
            people.push(b.add_node(&["Person"], &props));
        }
        let org = b.add_node(&["Org"], &[("url", Value::from("u"))]);
        let anon = b.add_node(&[], &[("weird", Value::Int(1)), ("thing", Value::Int(2))]);
        for p in &people {
            b.add_edge(*p, org, &["WORKS_AT"], &[("from", Value::Int(2000))]);
        }
        b.add_edge(anon, org, &["WORKS_AT"], &[]);
        Discoverer::new(PipelineConfig::elsh_adaptive())
            .discover(&b.finish())
            .schema
    }

    #[test]
    fn strict_round_trip_preserves_structure() {
        let schema = sample_schema();
        let text = pg_schema_strict(&schema, "RT");
        let (parsed, mode) = parse_pg_schema(&text).expect("parse back");
        assert_eq!(mode, ParsedMode::Strict);
        assert_eq!(parsed.node_types.len(), schema.node_types.len());
        assert_eq!(parsed.edge_types.len(), schema.edge_types.len());
        for t in &schema.node_types {
            let p = parsed
                .node_type_by_labels(&t.labels)
                .or_else(|| {
                    // abstract types: match by keys
                    parsed
                        .node_types
                        .iter()
                        .position(|o| o.labels.is_empty() && o.props.keys().eq(t.props.keys()))
                })
                .unwrap_or_else(|| panic!("type {:?} lost", t.labels));
            let pt = &parsed.node_types[p];
            // Keys preserved.
            assert!(pt.props.keys().eq(t.props.keys()), "{:?}", t.labels);
            // Mandatory/optional flags preserved.
            for (key, spec) in &t.props {
                assert_eq!(
                    pt.props[key].is_mandatory(pt.instance_count),
                    spec.is_mandatory(t.instance_count),
                    "constraint flip on {key}"
                );
                // Kinds preserved.
                assert_eq!(pt.props[key].kind, spec.kind, "kind flip on {key}");
            }
        }
        // Endpoints preserved.
        for t in &schema.edge_types {
            let p = parsed.edge_type_by_labels(&t.labels).expect("edge type");
            assert_eq!(parsed.edge_types[p].endpoints, t.endpoints);
            // Cardinality class preserved.
            assert_eq!(
                parsed.edge_types[p].cardinality.map(|c| c.class()),
                t.cardinality.map(|c| c.class())
            );
        }
    }

    #[test]
    fn loose_round_trip_preserves_keys_without_kinds() {
        let schema = sample_schema();
        let text = pg_schema_loose(&schema, "RT");
        let (parsed, mode) = parse_pg_schema(&text).expect("parse back");
        assert_eq!(mode, ParsedMode::Loose);
        let person = parsed.node_type_by_labels(&label_set(&["Person"])).unwrap();
        let t = &parsed.node_types[person];
        assert!(t.props.contains_key("name"));
        assert!(t.props.values().all(|s| s.kind.is_none()));
    }

    #[test]
    fn multilabel_round_trip() {
        let mut b = GraphBuilder::new();
        b.add_node(&["Person", "Student"], &[("id", Value::Int(1))]);
        b.add_node(&["Person", "Student"], &[("id", Value::Int(2))]);
        let schema = Discoverer::new(PipelineConfig::elsh_adaptive())
            .discover(&b.finish())
            .schema;
        let text = pg_schema_strict(&schema, "ML");
        let (parsed, _) = parse_pg_schema(&text).unwrap();
        assert!(parsed
            .node_type_by_labels(&label_set(&["Person", "Student"]))
            .is_some());
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_pg_schema("what is this").is_err());
        assert!(parse_pg_schema("CREATE GRAPH TYPE X MEDIUM {\n}").is_err());
        let bad_kind = "CREATE GRAPH TYPE X STRICT {\n  (A: A {x BLOB}),\n}";
        let e = parse_pg_schema(bad_kind).unwrap_err();
        assert!(e.message.contains("unknown data type"));
        assert_eq!(e.line, 2);
    }

    #[test]
    fn parses_any_endpoints() {
        let text = "CREATE GRAPH TYPE X STRICT {\n  (:ANY) -[E: E]-> (:B),\n}";
        let (parsed, _) = parse_pg_schema(text).unwrap();
        let t = &parsed.edge_types[0];
        let (src, tgt) = t.endpoints.iter().next().unwrap();
        assert!(src.is_empty());
        assert!(tgt.contains("B"));
    }

    #[test]
    fn error_display() {
        let e = ParseError {
            line: 7,
            message: "boom".into(),
        };
        assert_eq!(e.to_string(), "line 7: boom");
    }
}
