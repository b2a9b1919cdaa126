//! Drift-event sinks: turn a `pg-hive watch` drift detection into an
//! operational signal.
//!
//! Printing a diff to stdout is fine for a human at a terminal; a
//! long-running monitor needs to *alert*. Each `--on-drift` flag attaches
//! one sink, and every drift pass emits one structured [`DriftEvent`] to
//! every sink:
//!
//! - `jsonl:<path>` appends the event as one JSON object per line — a
//!   durable, machine-readable drift log that survives the process and
//!   composes with `jq`, log shippers, and the e2e suite;
//! - `exec:<cmd>` runs `<cmd>` through `sh -c` with the event exported in
//!   the environment (`PGHIVE_DRIFT_EVENT` holds the full JSON;
//!   `PGHIVE_DRIFT_PASS` / `_TIMESTAMP` / `_MONOTONE` / `_SUMMARY` the
//!   common fields) — webhooks, pagers, `make rebuild-downstream`.
//!
//! Sink failures are reported to stderr and never kill the monitor: an
//! unreachable pager must not stop drift *detection*.

use crate::args::DriftSinkSpec;
use pg_hive_core::SchemaDiff;
use pg_hive_graph::json_escape;
use std::io::Write;
use std::path::PathBuf;

/// One structured schema-drift event, as delivered to every sink.
pub struct DriftEvent<'a> {
    /// Originating tenant, for multi-tenant `serve` drift; `None` for the
    /// single-state `watch` monitor.
    pub tenant: Option<&'a str>,
    /// Watch pass number (continues across `--state-dir` restarts).
    pub pass: u64,
    /// Unix timestamp (milliseconds) of the detection. Whole-second
    /// resolution collapsed distinct passes of a fast watch loop onto the
    /// same instant; millisecond stamps keep the jsonl log totally ordered.
    pub timestamp: u64,
    /// Elements (nodes + edges) absorbed by the detecting pass.
    pub elements_added: u64,
    /// The schema diff that constitutes the drift.
    pub diff: &'a SchemaDiff,
}

impl DriftEvent<'_> {
    /// Render the event as a single-line JSON object. Hand-rolled: the
    /// vendored serde is a no-op API subset (see `vendor/README.md`), so
    /// the few fields are emitted directly.
    pub fn to_json(&self) -> String {
        let tenant = match self.tenant {
            Some(t) => format!("\"tenant\":\"{}\",", json_escape(t)),
            None => String::new(),
        };
        format!(
            "{{\"event\":\"schema-drift\",{tenant}\"pass\":{},\"timestamp\":{},\
             \"elements_added\":{},\"monotone\":{},\
             \"added_node_types\":{},\"removed_node_types\":{},\"changed_node_types\":{},\
             \"added_edge_types\":{},\"removed_edge_types\":{},\"changed_edge_types\":{},\
             \"summary\":\"{}\"}}",
            self.pass,
            self.timestamp,
            self.elements_added,
            self.diff.is_monotone(),
            self.diff.added_node_types.len(),
            self.diff.removed_node_types.len(),
            self.diff.changed_node_types.len(),
            self.diff.added_edge_types.len(),
            self.diff.removed_edge_types.len(),
            self.diff.changed_edge_types.len(),
            json_escape(&self.diff.to_string()),
        )
    }

    fn verdict(&self) -> &'static str {
        if self.diff.is_monotone() {
            "monotone"
        } else {
            "non-monotone"
        }
    }
}

/// A materialized `--on-drift` sink.
pub enum DriftSink {
    /// Run a shell command per event.
    Exec(String),
    /// Append one JSON line per event.
    Jsonl(PathBuf),
}

impl DriftSink {
    /// Build from the parsed flag value.
    pub fn from_spec(spec: &DriftSinkSpec) -> Self {
        match spec {
            DriftSinkSpec::Exec(cmd) => DriftSink::Exec(cmd.clone()),
            DriftSinkSpec::Jsonl(path) => DriftSink::Jsonl(PathBuf::from(path)),
        }
    }

    /// Deliver one event. Errors describe the sink, so the caller can
    /// report them without aborting the watch loop.
    pub fn emit(&self, event: &DriftEvent<'_>) -> Result<(), String> {
        match self {
            DriftSink::Jsonl(path) => {
                append_jsonl(path, &event.to_json()).map_err(|e| format!("drift sink {e}"))
            }
            DriftSink::Exec(cmd) => {
                let status = std::process::Command::new("sh")
                    .arg("-c")
                    .arg(cmd)
                    .env("PGHIVE_DRIFT_TENANT", event.tenant.unwrap_or(""))
                    .env("PGHIVE_DRIFT_EVENT", event.to_json())
                    .env("PGHIVE_DRIFT_PASS", event.pass.to_string())
                    .env("PGHIVE_DRIFT_TIMESTAMP", event.timestamp.to_string())
                    .env("PGHIVE_DRIFT_MONOTONE", event.verdict())
                    .env("PGHIVE_DRIFT_SUMMARY", event.diff.to_string())
                    .status()
                    .map_err(|e| format!("drift sink exec:{cmd}: {e}"))?;
                if status.success() {
                    Ok(())
                } else {
                    Err(format!("drift sink exec:{cmd}: exited with {status}"))
                }
            }
        }
    }
}

/// Deliver `event` to every sink, reporting (not propagating) failures —
/// an unreachable sink must not stop drift detection.
pub fn emit_all(sinks: &[DriftSink], event: &DriftEvent<'_>) {
    for sink in sinks {
        if let Err(e) = sink.emit(event) {
            eprintln!("warning: {e}");
        }
    }
}

/// Milliseconds since the Unix epoch (0 if the clock is before it).
pub fn unix_timestamp() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Render one `validate --report` violation as a single-line JSON event,
/// with the same hand-rolled codec (and [`json_escape`]) as the drift
/// events — one grep-able grammar across every pg-hive jsonl log.
pub fn violation_event_json(v: &pg_hive_core::StreamViolation) -> String {
    format!(
        "{{\"event\":\"schema-violation\",\"category\":\"{}\",\
         \"element\":\"{}\",\"detail\":\"{}\"}}",
        v.kind.name(),
        json_escape(&v.element),
        json_escape(&v.detail),
    )
}

/// Append one line to a jsonl file, creating it on first use — the shared
/// delivery path of the jsonl drift sink and `validate --report`.
pub fn append_jsonl(path: &std::path::Path, line: &str) -> Result<(), String> {
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("jsonl sink {}: {e}", path.display()))?;
    writeln!(f, "{line}").map_err(|e| format!("jsonl sink {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_hive_core::label_set;

    fn sample_diff() -> SchemaDiff {
        SchemaDiff {
            added_node_types: vec![label_set(&["Place"])],
            added_edge_types: vec![label_set(&["BORN_IN"])],
            ..SchemaDiff::default()
        }
    }

    fn temp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("pg-hive-sink-unit-{}-{name}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn event_json_is_structured_and_escaped() {
        let diff = sample_diff();
        let event = DriftEvent {
            tenant: None,
            pass: 3,
            timestamp: 1700000000,
            elements_added: 2,
            diff: &diff,
        };
        let json = event.to_json();
        assert!(json.contains("\"event\":\"schema-drift\""), "{json}");
        assert!(json.contains("\"pass\":3"), "{json}");
        assert!(json.contains("\"monotone\":true"), "{json}");
        assert!(json.contains("\"added_node_types\":1"), "{json}");
        // The multi-line diff summary is escaped into the single line.
        assert!(json.contains("+ node type Place\\n"), "{json}");
        assert_eq!(json.lines().count(), 1);
    }

    /// Extract the numeric value of `"field":N` from a hand-rolled JSON
    /// line — the parsing half of the timestamp round-trip.
    fn json_u64_field(json: &str, field: &str) -> u64 {
        let needle = format!("\"{field}\":");
        let start = json.find(&needle).expect("field present") + needle.len();
        json[start..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect::<String>()
            .parse()
            .expect("numeric field")
    }

    #[test]
    fn timestamp_is_millisecond_resolution_and_round_trips() {
        // unix_timestamp() must be in milliseconds: any plausible wall
        // clock (2020..2100) lands far outside the seconds range.
        let ts = unix_timestamp();
        assert!(ts > 1_577_836_800_000, "{ts} is not in milliseconds");
        assert!(ts < 4_102_444_800_000, "{ts} is implausibly late");

        // And the emitted event carries it back out intact.
        let diff = sample_diff();
        let event = DriftEvent {
            tenant: None,
            pass: 7,
            timestamp: ts,
            elements_added: 1,
            diff: &diff,
        };
        assert_eq!(json_u64_field(&event.to_json(), "timestamp"), ts);
    }

    #[test]
    fn violation_event_uses_the_shared_codec() {
        let v = pg_hive_core::StreamViolation {
            kind: pg_hive_core::ViolationKind::MissingKey,
            element: "n\"3".into(),
            detail: "mandatory key 'age' absent".into(),
        };
        let json = violation_event_json(&v);
        assert!(json.contains("\"event\":\"schema-violation\""), "{json}");
        assert!(json.contains("\"category\":\"missing-key\""), "{json}");
        assert!(json.contains("\"element\":\"n\\\"3\""), "escaped: {json}");
        assert_eq!(json.lines().count(), 1);
    }

    #[test]
    fn tenant_field_appears_only_for_serve_events() {
        let diff = sample_diff();
        let with = DriftEvent {
            tenant: Some("team-a"),
            pass: 1,
            timestamp: 1,
            elements_added: 0,
            diff: &diff,
        }
        .to_json();
        assert!(with.contains("\"tenant\":\"team-a\""), "{with}");
        let without = DriftEvent {
            tenant: None,
            pass: 1,
            timestamp: 1,
            elements_added: 0,
            diff: &diff,
        }
        .to_json();
        assert!(!without.contains("tenant"), "{without}");
    }

    #[test]
    fn jsonl_sink_appends_one_line_per_event() {
        let path = temp("jsonl");
        let sink = DriftSink::Jsonl(path.clone());
        let diff = sample_diff();
        for pass in [2u64, 3] {
            sink.emit(&DriftEvent {
                tenant: None,
                pass,
                timestamp: 1,
                elements_added: 0,
                diff: &diff,
            })
            .unwrap();
        }
        let content = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = content.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"pass\":2"));
        assert!(lines[1].contains("\"pass\":3"));
    }

    #[test]
    fn exec_sink_exports_the_event_environment() {
        let out = temp("exec");
        let sink = DriftSink::Exec(format!(
            "printf '%s %s %s' \"$PGHIVE_DRIFT_PASS\" \"$PGHIVE_DRIFT_MONOTONE\" \
             \"$PGHIVE_DRIFT_TENANT\" > {}",
            out.display()
        ));
        let diff = sample_diff();
        sink.emit(&DriftEvent {
            tenant: Some("prod"),
            pass: 9,
            timestamp: 1,
            elements_added: 4,
            diff: &diff,
        })
        .unwrap();
        assert_eq!(std::fs::read_to_string(&out).unwrap(), "9 monotone prod");

        // A failing command surfaces as a named error, not a panic.
        let err = DriftSink::Exec("exit 3".into())
            .emit(&DriftEvent {
                tenant: None,
                pass: 1,
                timestamp: 1,
                elements_added: 0,
                diff: &diff,
            })
            .unwrap_err();
        assert!(err.contains("exec:exit 3"), "{err}");
    }
}
