//! CLI glue for `pg-hive serve`: build the [`ServeCore`], wire the
//! `--on-drift` sink codec through the core's drift hook, bind the
//! listener, print the bound address and block.
//!
//! The server core lives in `pg_hive_core::serve`; this module owns the
//! two pieces that are CLI policy, not engine mechanics:
//!
//! - translating [`DriftNotice`]s into the shared [`DriftEvent`] codec so
//!   `serve` drift lands in the *same* jsonl/exec grammar as `watch`
//!   drift (plus a `tenant` field and `$PGHIVE_DRIFT_TENANT`), with a
//!   `{tenant}` placeholder in jsonl paths expanding per event;
//! - process lifecycle: the bound address is printed to stdout (and
//!   flushed) so scripts — and the e2e suite — can read an ephemeral
//!   `--addr ...:0` port, then the main thread parks forever. Durability
//!   is explicit: clients `POST /v1/<tenant>/checkpoint`; a killed server
//!   warm-restarts from `--state-dir` exactly as `docs/SERVE.md` describes.

use crate::args::DriftSinkSpec;
use crate::sink::{unix_timestamp, DriftEvent, DriftSink};
use pg_hive_core::serve::{DriftNotice, ServeCore, ServeOptions};
use pg_hive_core::Discoverer;
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

/// Deliver one drift notice to every `--on-drift` sink using the shared
/// event codec. Jsonl paths may carry a `{tenant}` placeholder so each
/// tenant gets its own drift log; exec sinks see `$PGHIVE_DRIFT_TENANT`.
pub fn emit_notice(specs: &[DriftSinkSpec], notice: &DriftNotice) {
    let event = DriftEvent {
        tenant: Some(&notice.tenant),
        pass: notice.pass,
        timestamp: unix_timestamp(),
        elements_added: notice.elements_added,
        diff: &notice.diff,
    };
    for spec in specs {
        let sink = match spec {
            DriftSinkSpec::Jsonl(path) => {
                DriftSink::Jsonl(PathBuf::from(path.replace("{tenant}", &notice.tenant)))
            }
            DriftSinkSpec::Exec(cmd) => DriftSink::Exec(cmd.clone()),
        };
        if let Err(e) = sink.emit(&event) {
            eprintln!("warning: {e}");
        }
    }
}

/// Run the service on `addr` until the process is killed, firing every
/// `on_drift` sink per drifting ingest pass. Never returns on success;
/// startup failures (unloadable snapshot, unbindable address) return the
/// named error.
pub fn run_serve(
    discoverer: Discoverer,
    options: ServeOptions,
    addr: &str,
    on_drift: Vec<DriftSinkSpec>,
) -> Result<ExitCode, String> {
    let mut core = ServeCore::new(discoverer, options)?;
    let resumed = core.tenant_names();
    if !resumed.is_empty() {
        eprintln!(
            "resumed {} tenant(s) from the state dir: {}",
            resumed.len(),
            resumed.join(", ")
        );
    }
    if !on_drift.is_empty() {
        core.set_drift_hook(Box::new(move |n| emit_notice(&on_drift, n)));
    }
    let server = pg_hive_core::serve::bind(addr, Arc::new(core))?;
    // Scripts (and the e2e suite) read the resolved ephemeral port from
    // this line, so it must hit the pipe before we block.
    println!("serving on http://{}", server.addr());
    std::io::stdout()
        .flush()
        .map_err(|e| format!("cannot flush stdout: {e}"))?;
    loop {
        std::thread::park();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_hive_core::{label_set, SchemaDiff};

    #[test]
    fn jsonl_sink_expands_the_tenant_placeholder() {
        let dir = std::env::temp_dir().join(format!("pg-hive-serve-sink-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let spec = DriftSinkSpec::Jsonl(
            dir.join("{tenant}-drift.jsonl")
                .to_str()
                .unwrap()
                .to_string(),
        );
        let notice = DriftNotice {
            tenant: "acme".into(),
            pass: 2,
            elements_added: 5,
            diff: SchemaDiff {
                added_node_types: vec![label_set(&["Device"])],
                ..SchemaDiff::default()
            },
        };
        emit_notice(&[spec], &notice);
        let log = std::fs::read_to_string(dir.join("acme-drift.jsonl")).unwrap();
        assert!(log.contains("\"event\":\"schema-drift\""), "{log}");
        assert!(log.contains("\"tenant\":\"acme\""), "{log}");
        assert!(log.contains("\"pass\":2"), "{log}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
