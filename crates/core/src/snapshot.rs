//! Versioned, self-describing snapshot persistence for the discovery
//! engine's resumable state.
//!
//! `pg-hive watch` keeps three pieces of long-lived state in memory: the
//! canonical [`SchemaState`], the id → label-set [`LabelSetRegistry`] that
//! resolves appended edges against nodes ingested long ago, and the
//! per-file byte offsets/fingerprints of the watched input. A process
//! restart used to lose all three and force a full re-ingest. This module
//! defines the on-disk **snapshot format** that makes the whole context
//! durable, and the typed [`ResumeContext`] — the saved form of the ingest
//! fold ([`Ingest`]) — that [`ResumeContext::load`] reads back and
//! [`context_snapshot_cached`] writes:
//!
//! ```text
//! pg-hive-snapshot 1            ← magic + format version
//! checksum 9f3c...e1            ← FNV-1a 64 over everything below
//! [config]                      ← discovery settings the state depends on
//! method elsh
//! theta 3feccccccccccccd        ← f64 bits, bit-exact
//! seed 42
//! chunk-size 100000
//! [state]                       ← SchemaState pools (see state lines)
//! ...
//! [registry]                    ← id → label-set registry
//! ...
//! [watch]                       ← optional: watch progress (pass, input)
//! ...
//! [files]                       ← optional: per-file offsets/fingerprints
//! ...
//! ```
//!
//! Design rules (full spec in `docs/PERSISTENCE.md` at the repository
//! root):
//!
//! - **Atomic**: [`Snapshot::write_atomic`] writes a sibling temp file,
//!   syncs, then renames — a crash mid-checkpoint leaves the previous
//!   snapshot intact, never a half-written one.
//! - **Self-checking**: the header carries a format version and a content
//!   checksum. Corrupt, truncated, or future-version files are rejected
//!   with named [`SnapshotError`]s (every message starts with
//!   `snapshot:`) — never a panic, never a silent re-ingest.
//! - **Config-guarded**: the `[config]` section records the settings the
//!   serialized state is only valid under (method, θ, seed, chunk size).
//!   A resumed run with different settings is refused
//!   ([`SnapshotConfig::ensure_matches`]) instead of silently producing a
//!   schema no uninterrupted run could have produced.
//! - **Canonical**: serializing equal state produces byte-identical files
//!   (sections iterate `BTreeMap`s; the registry sorts its hash maps), and
//!   a save → load round trip finalizes **byte-identically** to the state
//!   that was saved — the property `tests/tests/snapshot_resume.rs`
//!   proptests end to end.
//!
//! Member element ids are deliberately **not** serialized: they are
//! chunk-local and die with their chunk (every streaming path clears them
//! before absorbing — see [`SchemaState::clear_members`]).

use crate::config::{ClusterMethod, PipelineConfig};
use crate::pipeline::Ingest;
use crate::schema::{Cardinality, EdgeType, LabelSet, NodeType, PropertySpec};
use crate::sigcache::{SignatureCache, DEFAULT_CACHE_CAP};
use crate::state::SchemaState;
use pg_hive_graph::snapshot::{bytes_from_hex, bytes_to_hex, escape_field, unescape_field};
use pg_hive_graph::{LabelSetRegistry, Record, StreamWarnings, Value, ValueKind};
use std::collections::BTreeMap;
use std::fmt;
use std::io::Write;
use std::path::Path;

/// First line token identifying a pg-hive snapshot file.
pub const MAGIC: &str = "pg-hive-snapshot";

/// The newest snapshot format version this build can read and the version
/// it writes. Older readers refuse newer files with a named error instead
/// of misparsing them.
pub const FORMAT_VERSION: u32 = 1;

/// Section holding the discovery configuration ([`SnapshotConfig`]).
pub const SECTION_CONFIG: &str = "config";
/// Section holding the [`SchemaState`] pools.
pub const SECTION_STATE: &str = "state";
/// Section holding the [`LabelSetRegistry`].
pub const SECTION_REGISTRY: &str = "registry";
/// Section holding watch progress ([`WatchCheckpoint`] scalars).
pub const SECTION_WATCH: &str = "watch";
/// Section holding per-file offsets/fingerprints ([`FileCheckpoint`]s).
pub const SECTION_FILES: &str = "files";
/// Section holding carried cross-shard edges whose endpoints were not
/// declared by any input of the saving run — resolvable after a later
/// `merge-state` unions the registries.
pub const SECTION_PENDING: &str = "pending";
/// Section holding the [`SignatureCache`]'s memoized chunk-fingerprint →
/// distinct-clustering entries. **Optional**: readers that predate it
/// ignore unknown sections, and a snapshot without it simply resumes with
/// a cold cache — which is why adding it did not bump [`FORMAT_VERSION`]
/// (the cache is a performance artifact, never required for correctness).
pub const SECTION_SIGCACHE: &str = "sigcache";

/// Everything that can go wrong while saving, loading, or resuming from a
/// snapshot. Every rendering starts with `snapshot:` so operators (and the
/// e2e suite) can grep for persistence failures unambiguously.
#[derive(Debug)]
pub enum SnapshotError {
    /// Filesystem-level failure (open, read, write, rename).
    Io {
        /// The path being accessed.
        path: String,
        /// The underlying error description.
        detail: String,
    },
    /// The file does not start with the `pg-hive-snapshot` magic line.
    NotASnapshot,
    /// The file was written by a newer pg-hive with a format this build
    /// does not know how to read.
    FutureVersion {
        /// Version found in the file header.
        found: u32,
        /// Newest version this build supports.
        supported: u32,
    },
    /// The checksum does not match, or the header is truncated — the file
    /// was corrupted or cut short.
    Corrupt {
        /// What exactly failed to verify.
        detail: String,
    },
    /// The container verified but a section's content does not parse.
    Malformed {
        /// What exactly failed to parse.
        detail: String,
    },
    /// A required section is absent.
    MissingSection {
        /// The section name.
        name: &'static str,
    },
    /// The snapshot was written under discovery settings that differ from
    /// the resuming run's — absorbing into the saved state would produce a
    /// schema no uninterrupted run could have produced, so it is refused.
    Incompatible {
        /// The mismatching setting.
        field: &'static str,
        /// Value recorded in the snapshot.
        saved: String,
        /// Value the resuming run requested.
        requested: String,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io { path, detail } => {
                write!(f, "snapshot: cannot access {path}: {detail}")
            }
            SnapshotError::NotASnapshot => {
                write!(f, "snapshot: not a pg-hive snapshot file (bad magic line)")
            }
            SnapshotError::FutureVersion { found, supported } => write!(
                f,
                "snapshot: file uses format version {found}, but this build reads up to \
                 version {supported} — upgrade pg-hive or recreate the snapshot"
            ),
            SnapshotError::Corrupt { detail } => write!(f, "snapshot: {detail}"),
            SnapshotError::Malformed { detail } => {
                write!(f, "snapshot: malformed content: {detail}")
            }
            SnapshotError::MissingSection { name } => {
                write!(f, "snapshot: missing required [{name}] section")
            }
            SnapshotError::Incompatible {
                field,
                saved,
                requested,
            } => write!(
                f,
                "snapshot: incompatible configuration: the snapshot was written with \
                 {field}={saved}, this run uses {field}={requested} — rerun with matching \
                 settings or start fresh"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

fn malformed(detail: impl Into<String>) -> SnapshotError {
    SnapshotError::Malformed {
        detail: detail.into(),
    }
}

/// FNV-1a 64 over the payload bytes — cheap, dependency-free, and more
/// than enough to flag truncation and bit rot (this is an integrity check,
/// not an authenticity one).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The generic snapshot container: an ordered list of named sections of
/// payload lines, framed by the magic/version/checksum header.
///
/// ```
/// use pg_hive_core::snapshot::Snapshot;
///
/// let mut snap = Snapshot::new();
/// snap.push_section("config", vec!["seed 42".into()]);
/// let text = snap.to_text();
/// assert!(text.starts_with("pg-hive-snapshot 1\nchecksum "));
/// let back = Snapshot::parse(&text).unwrap();
/// assert_eq!(back.section("config").unwrap(), ["seed 42".to_string()]);
///
/// // A flipped byte is caught by the checksum, not misparsed.
/// let corrupt = text.replace("seed 42", "seed 43");
/// assert!(Snapshot::parse(&corrupt).unwrap_err().to_string().contains("checksum"));
/// ```
#[derive(Debug, Default)]
pub struct Snapshot {
    sections: Vec<(String, Vec<String>)>,
}

impl Snapshot {
    /// Empty container.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a named section. Lines must not start with `[` (section
    /// delimiters) — every serializer in this module escapes its fields,
    /// which makes that impossible by construction.
    pub fn push_section(&mut self, name: &str, lines: Vec<String>) {
        debug_assert!(
            lines.iter().all(|l| !l.starts_with('[')),
            "section line collides with a section header"
        );
        self.sections.push((name.to_string(), lines));
    }

    /// Lines of the named section, if present.
    pub fn section(&self, name: &str) -> Option<&[String]> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, l)| l.as_slice())
    }

    /// Render the full file text: header, checksum, sections.
    pub fn to_text(&self) -> String {
        let mut payload = String::new();
        for (name, lines) in &self.sections {
            payload.push('[');
            payload.push_str(name);
            payload.push_str("]\n");
            for line in lines {
                payload.push_str(line);
                payload.push('\n');
            }
        }
        format!(
            "{MAGIC} {FORMAT_VERSION}\nchecksum {:016x}\n{payload}",
            fnv1a64(payload.as_bytes())
        )
    }

    /// Parse and verify a snapshot file's text: magic, version (future
    /// versions refused), checksum (corruption/truncation refused), then
    /// the section structure. The header lines sit outside the checksum,
    /// so they are accepted only as [`Snapshot::to_text`] spells them: a
    /// plain decimal version from 1 up, then 16 lowercase hex digits.
    pub fn parse(text: &str) -> Result<Snapshot, SnapshotError> {
        let (first, rest) = split_line(text).ok_or(SnapshotError::NotASnapshot)?;
        let (magic, token) = first.split_once(' ').unwrap_or((first, ""));
        if magic != MAGIC {
            return Err(SnapshotError::NotASnapshot);
        }
        let version: u32 = token
            .parse()
            .ok()
            .filter(|&v: &u32| v >= 1 && v.to_string() == token)
            .ok_or_else(|| malformed("unreadable format version in the header"))?;
        if version > FORMAT_VERSION {
            return Err(SnapshotError::FutureVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let (second, payload) = split_line(rest).ok_or_else(|| SnapshotError::Corrupt {
            detail: "file ends before the checksum line (truncated)".into(),
        })?;
        let expected = second
            .strip_prefix("checksum ")
            .and_then(|h| {
                u64::from_str_radix(h, 16)
                    .ok()
                    .filter(|c| format!("{c:016x}") == h)
            })
            .ok_or_else(|| SnapshotError::Corrupt {
                detail: "missing or unreadable checksum line".into(),
            })?;
        if fnv1a64(payload.as_bytes()) != expected {
            return Err(SnapshotError::Corrupt {
                detail: "checksum mismatch — the file is corrupt or was truncated".into(),
            });
        }
        let mut snap = Snapshot::new();
        for line in payload.lines() {
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                snap.sections.push((name.to_string(), Vec::new()));
            } else {
                match snap.sections.last_mut() {
                    Some((_, lines)) => lines.push(line.to_string()),
                    None => return Err(malformed("content before the first section header")),
                }
            }
        }
        Ok(snap)
    }

    /// Write the snapshot **atomically**: render to a sibling `.tmp` file,
    /// sync it, rename it over `path`, then sync the directory so the
    /// rename itself survives a crash. A reader never observes a
    /// half-written snapshot; a crash leaves the previous one intact, and
    /// once this returns `Ok` a crash cannot bring the previous one back.
    pub fn write_atomic(&self, path: &Path) -> Result<(), SnapshotError> {
        let io_err = |detail: std::io::Error| SnapshotError::Io {
            path: path.display().to_string(),
            detail: detail.to_string(),
        };
        let file_name = path
            .file_name()
            .ok_or_else(|| SnapshotError::Io {
                path: path.display().to_string(),
                detail: "path has no file name".into(),
            })?
            .to_string_lossy()
            .into_owned();
        let tmp = path.with_file_name(format!("{file_name}.tmp"));
        let mut f = std::fs::File::create(&tmp).map_err(io_err)?;
        f.write_all(self.to_text().as_bytes()).map_err(io_err)?;
        f.sync_all().map_err(io_err)?;
        drop(f);
        std::fs::rename(&tmp, path).map_err(io_err)?;
        // A bare file name has the parent "": the working directory.
        let dir = match path.parent() {
            Some(dir) if !dir.as_os_str().is_empty() => dir,
            _ => Path::new("."),
        };
        std::fs::File::open(dir)
            .and_then(|d| d.sync_all())
            .map_err(io_err)
    }

    /// Make room in `path`'s rotation chain `path.1` (most recent) …
    /// `path.{keep}`: drop `path.{keep}`, shift every other link one slot
    /// up, and with `rotate_current` move `path` itself into `.1`. Returns
    /// how many files moved; `keep == 0` does nothing.
    ///
    /// Missing links are skipped. Any other failure (a slot that is a
    /// directory, a permission error) stops the rotation with
    /// [`SnapshotError::Io`] — call this before writing the new snapshot,
    /// so a failed rotation never overwrites the file it was meant to keep.
    ///
    /// The renames need no directory sync of their own: every caller
    /// writes the new snapshot with [`Self::write_atomic`] in the same
    /// directory right after, and its directory sync makes every earlier
    /// rename in that directory durable too.
    pub fn rotate(path: &Path, keep: usize, rotate_current: bool) -> Result<usize, SnapshotError> {
        let link = |i: usize| {
            let mut name = path.as_os_str().to_owned();
            name.push(format!(".{i}"));
            std::path::PathBuf::from(name)
        };
        let tolerate_missing = |p: &Path, r: std::io::Result<()>| match r {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(SnapshotError::Io {
                path: p.display().to_string(),
                detail: e.to_string(),
            }),
        };
        if keep == 0 {
            return Ok(0);
        }
        tolerate_missing(&link(keep), std::fs::remove_file(link(keep)))?;
        let mut moves: Vec<_> = (1..keep).rev().map(|i| (link(i), link(i + 1))).collect();
        if rotate_current {
            moves.push((path.to_path_buf(), link(1)));
        }
        let mut moved = 0;
        for (from, to) in moves {
            moved += usize::from(tolerate_missing(&from, std::fs::rename(&from, &to))?);
        }
        Ok(moved)
    }
}

fn split_line(text: &str) -> Option<(&str, &str)> {
    if text.is_empty() {
        return None;
    }
    match text.find('\n') {
        Some(i) => Some((&text[..i], &text[i + 1..])),
        None => Some((text, "")),
    }
}

// ---------------------------------------------------------------------------
// [config] — the settings the serialized state is only valid under.
// ---------------------------------------------------------------------------

/// The discovery settings a snapshot's state depends on. Everything here
/// changes the *content* of an absorbed `SchemaState` — the LSH family and
/// seed change clusterings, θ changes finalization, the chunk size changes
/// where cross-chunk stubs appear — so a resumed run must match exactly or
/// be refused.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotConfig {
    /// LSH family used for clustering.
    pub method: ClusterMethod,
    /// Jaccard merge threshold θ (compared bit-exactly).
    pub theta: f64,
    /// RNG seed.
    pub seed: u64,
    /// Streaming chunk size in elements.
    pub chunk_size: usize,
}

impl SnapshotConfig {
    /// Capture the resumable settings of a pipeline configuration plus the
    /// streaming chunk size.
    pub fn new(config: &PipelineConfig, chunk_size: usize) -> Self {
        Self {
            method: config.method,
            theta: config.theta,
            seed: config.seed,
            chunk_size,
        }
    }

    fn section_lines(&self) -> Vec<String> {
        vec![
            format!("method {}", method_token(self.method)),
            format!("theta {:016x}", self.theta.to_bits()),
            format!("seed {}", self.seed),
            format!("chunk-size {}", self.chunk_size),
        ]
    }

    fn from_section(lines: &[String]) -> Result<Self, SnapshotError> {
        let mut method = None;
        let mut theta = None;
        let mut seed = None;
        let mut chunk_size = None;
        for line in lines {
            let (key, value) = line
                .split_once(' ')
                .ok_or_else(|| malformed(format!("config line '{line}' has no value")))?;
            match key {
                "method" => method = Some(method_from_token(value)?),
                "theta" => {
                    theta = Some(f64::from_bits(
                        u64::from_str_radix(value, 16)
                            .map_err(|_| malformed("theta is not a hex bit pattern"))?,
                    ))
                }
                "seed" => seed = Some(value.parse().map_err(|_| malformed("seed is not a u64"))?),
                "chunk-size" => {
                    chunk_size = Some(
                        value
                            .parse()
                            .map_err(|_| malformed("chunk-size is not an integer"))?,
                    )
                }
                other => return Err(malformed(format!("unknown config key '{other}'"))),
            }
        }
        Ok(Self {
            method: method.ok_or_else(|| malformed("config is missing 'method'"))?,
            theta: theta.ok_or_else(|| malformed("config is missing 'theta'"))?,
            seed: seed.ok_or_else(|| malformed("config is missing 'seed'"))?,
            chunk_size: chunk_size.ok_or_else(|| malformed("config is missing 'chunk-size'"))?,
        })
    }

    /// Refuse to resume under different settings: compare this (saved)
    /// configuration against what the resuming run `requested`, naming the
    /// first mismatching field in the error.
    pub fn ensure_matches(&self, requested: &SnapshotConfig) -> Result<(), SnapshotError> {
        let err = |field, saved: String, req: String| {
            Err(SnapshotError::Incompatible {
                field,
                saved,
                requested: req,
            })
        };
        if self.method != requested.method {
            return err(
                "method",
                method_token(self.method).into(),
                method_token(requested.method).into(),
            );
        }
        if self.theta.to_bits() != requested.theta.to_bits() {
            return err("theta", self.theta.to_string(), requested.theta.to_string());
        }
        if self.seed != requested.seed {
            return err("seed", self.seed.to_string(), requested.seed.to_string());
        }
        if self.chunk_size != requested.chunk_size {
            return err(
                "chunk-size",
                self.chunk_size.to_string(),
                requested.chunk_size.to_string(),
            );
        }
        Ok(())
    }
}

fn method_token(m: ClusterMethod) -> &'static str {
    match m {
        ClusterMethod::Elsh => "elsh",
        ClusterMethod::MinHash => "minhash",
    }
}

fn method_from_token(s: &str) -> Result<ClusterMethod, SnapshotError> {
    match s {
        "elsh" => Ok(ClusterMethod::Elsh),
        "minhash" => Ok(ClusterMethod::MinHash),
        other => Err(malformed(format!("unknown cluster method '{other}'"))),
    }
}

// ---------------------------------------------------------------------------
// [state] — the SchemaState pools.
// ---------------------------------------------------------------------------

fn kind_token(k: Option<ValueKind>) -> &'static str {
    match k {
        None => "-",
        Some(ValueKind::Integer) => "int",
        Some(ValueKind::Float) => "float",
        Some(ValueKind::Boolean) => "bool",
        Some(ValueKind::Date) => "date",
        Some(ValueKind::Timestamp) => "timestamp",
        Some(ValueKind::String) => "string",
    }
}

fn kind_from_token(s: &str) -> Result<Option<ValueKind>, SnapshotError> {
    Ok(match s {
        "-" => None,
        "int" => Some(ValueKind::Integer),
        "float" => Some(ValueKind::Float),
        "bool" => Some(ValueKind::Boolean),
        "date" => Some(ValueKind::Date),
        "timestamp" => Some(ValueKind::Timestamp),
        "string" => Some(ValueKind::String),
        other => return Err(malformed(format!("unknown value kind '{other}'"))),
    })
}

fn labels_token(labels: &LabelSet) -> String {
    if labels.is_empty() {
        "-".to_string()
    } else {
        labels
            .iter()
            .map(|l| escape_field(l))
            .collect::<Vec<_>>()
            .join(",")
    }
}

fn labels_from_token(s: &str) -> Result<LabelSet, SnapshotError> {
    if s == "-" {
        return Ok(LabelSet::new());
    }
    s.split(',')
        .map(|l| unescape_field(l).map_err(malformed))
        .collect()
}

fn props_tokens(props: &BTreeMap<String, PropertySpec>) -> impl Iterator<Item = String> + '_ {
    props.iter().map(|(k, spec)| {
        format!(
            "{}:{}:{}",
            escape_field(k),
            spec.occurrences,
            kind_token(spec.kind)
        )
    })
}

fn prop_from_token(tok: &str) -> Result<(String, PropertySpec), SnapshotError> {
    let mut parts = tok.split(':');
    let key = unescape_field(parts.next().unwrap_or_default()).map_err(malformed)?;
    let occurrences = parts
        .next()
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| malformed(format!("property token '{tok}' has no occurrence count")))?;
    let kind = kind_from_token(
        parts
            .next()
            .ok_or_else(|| malformed(format!("property token '{tok}' has no kind")))?,
    )?;
    if parts.next().is_some() {
        return Err(malformed(format!(
            "property token '{tok}' has extra fields"
        )));
    }
    Ok((key, PropertySpec { occurrences, kind }))
}

fn endpoint_side_token(side: &LabelSet) -> String {
    side.iter()
        .map(|l| escape_field(l))
        .collect::<Vec<_>>()
        .join("+")
}

fn endpoint_side_from_token(s: &str) -> Result<LabelSet, SnapshotError> {
    if s.is_empty() {
        return Ok(LabelSet::new());
    }
    s.split('+')
        .map(|l| unescape_field(l).map_err(malformed))
        .collect()
}

/// Serialize a [`SchemaState`] into `[state]` section lines: the θ bit
/// pattern, then one `node` line per pooled node type (labeled first, then
/// abstract) and one `edge` line per pooled edge type — all in `BTreeMap`
/// (canonical) order, so equal states serialize byte-identically. Member
/// ids are not serialized (they are chunk-local).
pub fn state_to_lines(state: &SchemaState) -> Vec<String> {
    let mut lines = vec![format!("theta {:016x}", state.theta().to_bits())];
    for t in state
        .labeled_nodes
        .values()
        .chain(state.abstract_nodes.values())
    {
        let mut line = format!("node {} {}", labels_token(&t.labels), t.instance_count);
        for tok in props_tokens(&t.props) {
            line.push(' ');
            line.push_str(&tok);
        }
        lines.push(line);
    }
    for t in state
        .labeled_edges
        .values()
        .chain(state.abstract_edges.values())
    {
        let card = match t.cardinality {
            None => "-".to_string(),
            Some(c) => format!("{}:{}", c.max_out, c.max_in),
        };
        let endpoints = if t.endpoints.is_empty() {
            "-".to_string()
        } else {
            t.endpoints
                .iter()
                .map(|(s, d)| format!("{}>{}", endpoint_side_token(s), endpoint_side_token(d)))
                .collect::<Vec<_>>()
                .join(",")
        };
        let mut line = format!(
            "edge {} {} {card} {endpoints}",
            labels_token(&t.labels),
            t.instance_count
        );
        for tok in props_tokens(&t.props) {
            line.push(' ');
            line.push_str(&tok);
        }
        lines.push(line);
    }
    lines
}

/// Rebuild a [`SchemaState`] from [`state_to_lines`] output. Types are
/// re-absorbed through the state's own pooling rules, so the reconstructed
/// pools — and therefore [`SchemaState::finalize`]'s output — are identical
/// to the saved state's, byte for byte.
pub fn state_from_lines(lines: &[String]) -> Result<SchemaState, SnapshotError> {
    let theta_line = lines
        .iter()
        .find_map(|l| l.strip_prefix("theta "))
        .ok_or_else(|| malformed("state is missing its theta line"))?;
    let theta = f64::from_bits(
        u64::from_str_radix(theta_line, 16)
            .map_err(|_| malformed("state theta is not a hex bit pattern"))?,
    );
    let mut state = SchemaState::new(theta);
    for line in lines {
        let mut tokens = line.split(' ');
        match tokens.next() {
            Some("theta") => {}
            Some("node") => {
                let labels = labels_from_token(
                    tokens
                        .next()
                        .ok_or_else(|| malformed("node line has no labels"))?,
                )?;
                let instance_count = tokens
                    .next()
                    .and_then(|n| n.parse().ok())
                    .ok_or_else(|| malformed("node line has no instance count"))?;
                let props = tokens.map(prop_from_token).collect::<Result<_, _>>()?;
                state.absorb_node_candidates(vec![NodeType {
                    labels,
                    props,
                    instance_count,
                    members: Vec::new(),
                }]);
            }
            Some("edge") => {
                let labels = labels_from_token(
                    tokens
                        .next()
                        .ok_or_else(|| malformed("edge line has no labels"))?,
                )?;
                let instance_count = tokens
                    .next()
                    .and_then(|n| n.parse().ok())
                    .ok_or_else(|| malformed("edge line has no instance count"))?;
                let card_tok = tokens
                    .next()
                    .ok_or_else(|| malformed("edge line has no cardinality"))?;
                let cardinality = if card_tok == "-" {
                    None
                } else {
                    let (o, i) = card_tok
                        .split_once(':')
                        .ok_or_else(|| malformed("edge cardinality is not out:in"))?;
                    Some(Cardinality {
                        max_out: o
                            .parse()
                            .map_err(|_| malformed("edge max_out is not a u64"))?,
                        max_in: i
                            .parse()
                            .map_err(|_| malformed("edge max_in is not a u64"))?,
                    })
                };
                let ep_tok = tokens
                    .next()
                    .ok_or_else(|| malformed("edge line has no endpoints"))?;
                let endpoints = if ep_tok == "-" {
                    Default::default()
                } else {
                    ep_tok
                        .split(',')
                        .map(|pair| {
                            let (s, d) = pair
                                .split_once('>')
                                .ok_or_else(|| malformed("edge endpoint is not src>tgt"))?;
                            Ok((endpoint_side_from_token(s)?, endpoint_side_from_token(d)?))
                        })
                        .collect::<Result<_, SnapshotError>>()?
                };
                let props = tokens.map(prop_from_token).collect::<Result<_, _>>()?;
                state.absorb_edge_candidates(vec![EdgeType {
                    labels,
                    props,
                    endpoints,
                    instance_count,
                    members: Vec::new(),
                    cardinality,
                }]);
            }
            Some("") | None => {}
            Some(other) => return Err(malformed(format!("unknown state line kind '{other}'"))),
        }
    }
    Ok(state)
}

// ---------------------------------------------------------------------------
// [watch] + [files] — watch progress and per-file read positions.
// ---------------------------------------------------------------------------

/// One watched file's durable read position: how many bytes were consumed,
/// the trailing consumed bytes (the rotation fingerprint), and, for CSV,
/// the retained header line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileCheckpoint {
    /// The file's path as the watcher tracked it.
    pub path: String,
    /// Bytes consumed so far.
    pub offset: u64,
    /// Last consumed bytes — the fingerprint that detects
    /// truncate-and-regrow rotations.
    pub tail: Vec<u8>,
    /// Retained first line (CSV header), if any.
    pub header: Option<Vec<u8>>,
    /// Whether the file must exist for a pass to succeed.
    pub required: bool,
}

/// Watch progress: which input was being watched, how far it got, and the
/// per-file read positions — everything `pg-hive watch` needs to resume a
/// drift-monitoring run exactly where the killed process stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WatchCheckpoint {
    /// The input path argument the watch run was started with.
    pub input: String,
    /// The input wire format (`pgt` / `csv` / `jsonl`).
    pub format: String,
    /// Last completed pass number.
    pub pass: u64,
    /// Ingestion warnings accumulated across all passes so far.
    pub warnings: StreamWarnings,
    /// Per-file read positions.
    pub files: Vec<FileCheckpoint>,
}

fn watch_section_lines(w: &WatchCheckpoint) -> Vec<String> {
    vec![
        format!("input {}", escape_field(&w.input)),
        format!("format {}", w.format),
        format!("pass {}", w.pass),
        format!(
            "warnings {} {} {} {} {}",
            w.warnings.cross_chunk_edges,
            w.warnings.unresolved_edges,
            w.warnings.deferred_edges,
            w.warnings.evicted_edges,
            w.warnings.duplicate_nodes
        ),
    ]
}

fn files_section_lines(files: &[FileCheckpoint]) -> Vec<String> {
    files
        .iter()
        .map(|f| {
            format!(
                "file {} {} {} {} {}",
                escape_field(&f.path),
                f.offset,
                bytes_to_hex(&f.tail),
                f.header.as_deref().map_or("-".to_string(), bytes_to_hex),
                u8::from(f.required)
            )
        })
        .collect()
}

fn watch_from_sections(
    watch_lines: &[String],
    files_lines: &[String],
) -> Result<WatchCheckpoint, SnapshotError> {
    let mut input = None;
    let mut format = None;
    let mut pass = None;
    let mut warnings = StreamWarnings::default();
    for line in watch_lines {
        let (key, value) = line
            .split_once(' ')
            .ok_or_else(|| malformed(format!("watch line '{line}' has no value")))?;
        match key {
            "input" => input = Some(unescape_field(value).map_err(malformed)?),
            "format" => format = Some(value.to_string()),
            "pass" => pass = Some(value.parse().map_err(|_| malformed("pass is not a u64"))?),
            "warnings" => {
                let counts: Vec<u64> = value
                    .split(' ')
                    .map(|n| n.parse())
                    .collect::<Result<_, _>>()
                    .map_err(|_| malformed("warnings line has non-numeric counts"))?;
                let [cc, ur, de, ev, dn]: [u64; 5] = counts
                    .try_into()
                    .map_err(|_| malformed("warnings line does not have 5 counts"))?;
                warnings = StreamWarnings {
                    cross_chunk_edges: cc,
                    unresolved_edges: ur,
                    deferred_edges: de,
                    evicted_edges: ev,
                    duplicate_nodes: dn,
                };
            }
            other => return Err(malformed(format!("unknown watch key '{other}'"))),
        }
    }
    let files = files_lines
        .iter()
        .map(|line| {
            let tokens: Vec<&str> = line.split(' ').collect();
            let [kind, path, offset, tail, header, required] = tokens[..] else {
                return Err(malformed(format!("file line '{line}' has wrong arity")));
            };
            if kind != "file" {
                return Err(malformed(format!("unknown files line kind '{kind}'")));
            }
            Ok(FileCheckpoint {
                path: unescape_field(path).map_err(malformed)?,
                offset: offset
                    .parse()
                    .map_err(|_| malformed("file offset is not a u64"))?,
                tail: bytes_from_hex(tail).map_err(malformed)?,
                header: match header {
                    "-" => None,
                    h => Some(bytes_from_hex(h).map_err(malformed)?),
                },
                required: match required {
                    "0" => false,
                    "1" => true,
                    _ => return Err(malformed("file required flag is not 0/1")),
                },
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(WatchCheckpoint {
        input: input.ok_or_else(|| malformed("watch section is missing 'input'"))?,
        format: format.ok_or_else(|| malformed("watch section is missing 'format'"))?,
        pass: pass.ok_or_else(|| malformed("watch section is missing 'pass'"))?,
        warnings,
        files,
    })
}

// ---------------------------------------------------------------------------
// [pending] — carried cross-shard edges awaiting endpoint resolution.
// ---------------------------------------------------------------------------

/// Serialize carried edges into `[pending]` lines:
/// `edge <src> <tgt> <labels> <key>:<value> ...`, every field escaped,
/// labels `,`-joined (`-` when unlabeled), values in their lexical form.
/// Kind inference runs on lexical forms ([`Value::parse_lexical`]), so the
/// round-trip loses nothing schema-relevant.
pub fn pending_section_lines(pending: &[Record]) -> Vec<String> {
    let mut lines = Vec::with_capacity(pending.len());
    for Record {
        src,
        tgt,
        labels,
        props,
    } in pending
    {
        let labels_tok = if labels.is_empty() {
            "-".to_string()
        } else {
            labels
                .iter()
                .map(|l| escape_field(l))
                .collect::<Vec<_>>()
                .join(",")
        };
        let mut line = format!(
            "edge {} {} {labels_tok}",
            escape_field(src),
            escape_field(tgt)
        );
        for (k, v) in props {
            line.push(' ');
            line.push_str(&escape_field(k));
            line.push(':');
            line.push_str(&escape_field(&v.lexical()));
        }
        lines.push(line);
    }
    lines
}

/// Rebuild carried edges from [`pending_section_lines`] output.
pub fn pending_from_lines(lines: &[String]) -> Result<Vec<Record>, SnapshotError> {
    let mut out = Vec::with_capacity(lines.len());
    for line in lines {
        let mut tokens = line.split(' ');
        match tokens.next() {
            Some("edge") => {}
            other => {
                return Err(malformed(format!(
                    "pending line starts with '{}' instead of 'edge'",
                    other.unwrap_or_default()
                )))
            }
        }
        let mut field = |what: &str| {
            tokens
                .next()
                .ok_or_else(|| malformed(format!("pending edge has no {what}")))
        };
        let src = unescape_field(field("source id")?).map_err(malformed)?;
        let tgt = unescape_field(field("target id")?).map_err(malformed)?;
        let labels_tok = field("labels")?;
        let labels = if labels_tok == "-" {
            Vec::new()
        } else {
            labels_tok
                .split(',')
                .map(|l| unescape_field(l).map_err(malformed))
                .collect::<Result<_, _>>()?
        };
        let props = tokens
            .map(|tok| {
                let (k, v) = tok.split_once(':').ok_or_else(|| {
                    malformed(format!("pending property '{tok}' is not key:value"))
                })?;
                Ok((
                    unescape_field(k).map_err(malformed)?,
                    Value::parse_lexical(&unescape_field(v).map_err(malformed)?),
                ))
            })
            .collect::<Result<_, SnapshotError>>()?;
        out.push(Record {
            src,
            tgt,
            labels,
            props,
        });
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// The full resumable context.
// ---------------------------------------------------------------------------

/// The saved form of the ingest fold: the config guard, the [`Ingest`]
/// accumulator (state, registry and carried edges), its
/// [`SignatureCache`], and, for `watch` and `serve` checkpoints, their
/// progress. Every snapshot is read through [`ResumeContext::load`] and
/// written by [`context_snapshot_cached`].
#[derive(Debug)]
pub struct ResumeContext {
    /// Settings the state is only valid under.
    pub config: SnapshotConfig,
    /// The saved state, id → label-set registry, and carried edges whose
    /// endpoints no input of the saving run declared. `warnings`,
    /// `elements` and `inputs` are not saved and load as zero; a
    /// checkpoint's warning totals live in [`WatchCheckpoint::warnings`].
    pub ingest: Ingest,
    /// The `[sigcache]` entries, bounded to [`DEFAULT_CACHE_CAP`] — cold
    /// when the section is absent.
    pub cache: SignatureCache,
    /// Watch progress; `None` for plain `discover` save-states.
    pub watch: Option<WatchCheckpoint>,
}

/// Render a snapshot from **borrowed** context parts — the one snapshot
/// writer, so a hot checkpoint loop (`watch --state-dir` checkpoints after
/// *every* pass) serializes without first deep-cloning the state and
/// registry into an owned context. The `[sigcache]` section carrying the
/// run's [`SignatureCache`] (so a resumed process starts warm) is omitted
/// when the cache is absent or empty: the common one-shot case stays
/// byte-identical to pre-cache snapshots.
pub fn context_snapshot_cached(
    config: &SnapshotConfig,
    state: &SchemaState,
    registry: &LabelSetRegistry,
    watch: Option<&WatchCheckpoint>,
    pending: &[Record],
    cache: Option<&SignatureCache>,
) -> Snapshot {
    let mut snap = Snapshot::new();
    snap.push_section(SECTION_CONFIG, config.section_lines());
    snap.push_section(SECTION_STATE, state_to_lines(state));
    snap.push_section(SECTION_REGISTRY, registry.snapshot_lines());
    if let Some(w) = watch {
        snap.push_section(SECTION_WATCH, watch_section_lines(w));
        snap.push_section(SECTION_FILES, files_section_lines(&w.files));
    }
    if !pending.is_empty() {
        snap.push_section(SECTION_PENDING, pending_section_lines(pending));
    }
    let cache_lines = cache.map(SignatureCache::snapshot_lines);
    if let Some(lines) = cache_lines.filter(|l| !l.is_empty()) {
        snap.push_section(SECTION_SIGCACHE, lines);
    }
    snap
}

impl ResumeContext {
    /// Rebuild from a parsed snapshot. `[config]`, `[state]` and
    /// `[registry]` are required; `[watch]`/`[files]` are optional as a
    /// pair; `[pending]` and `[sigcache]` are optional.
    pub fn from_snapshot(snap: &Snapshot) -> Result<Self, SnapshotError> {
        let need = |name: &'static str| {
            snap.section(name)
                .ok_or(SnapshotError::MissingSection { name })
        };
        let config = SnapshotConfig::from_section(need(SECTION_CONFIG)?)?;
        let state = state_from_lines(need(SECTION_STATE)?)?;
        let registry = LabelSetRegistry::from_snapshot_lines(
            need(SECTION_REGISTRY)?.iter().map(String::as_str),
        )
        .map_err(malformed)?;
        let watch = match snap.section(SECTION_WATCH) {
            None => None,
            Some(watch_lines) => Some(watch_from_sections(watch_lines, need(SECTION_FILES)?)?),
        };
        let pending = match snap.section(SECTION_PENDING) {
            None => Vec::new(),
            Some(lines) => pending_from_lines(lines)?,
        };
        let cache = match snap.section(SECTION_SIGCACHE) {
            None => SignatureCache::new(DEFAULT_CACHE_CAP),
            Some(lines) => {
                SignatureCache::from_snapshot_lines(lines, DEFAULT_CACHE_CAP).map_err(malformed)?
            }
        };
        Ok(Self {
            config,
            ingest: Ingest {
                registry,
                pending,
                ..Ingest::new(state)
            },
            cache,
            watch,
        })
    }

    /// Atomically write the context as a snapshot file.
    pub fn save(&self, path: &Path) -> Result<(), SnapshotError> {
        context_snapshot_cached(
            &self.config,
            &self.ingest.state,
            &self.ingest.registry,
            self.watch.as_ref(),
            &self.ingest.pending,
            Some(&self.cache),
        )
        .write_atomic(path)
    }

    /// Read, verify, and rebuild a context from a snapshot file — the one
    /// snapshot loader. Corrupt, truncated, or future-version files are
    /// refused with named `snapshot:` errors.
    pub fn load(path: &Path) -> Result<Self, SnapshotError> {
        let text = std::fs::read_to_string(path).map_err(|e| SnapshotError::Io {
            path: path.display().to_string(),
            detail: e.to_string(),
        })?;
        Self::from_snapshot(&Snapshot::parse(&text)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::label_set;
    use crate::serialize::pg_schema_strict;
    use crate::{Discoverer, PipelineConfig};
    use pg_hive_graph::{GraphBuilder, Value};

    fn sample_graph() -> pg_hive_graph::PropertyGraph {
        let mut b = GraphBuilder::new();
        let a = b.add_node(
            &["Person"],
            &[
                ("name", Value::from("Ann, \"quoted\" % x")),
                ("bday", Value::from("1999-12-19")),
            ],
        );
        let anon = b.add_node(
            &[],
            &[
                ("name", Value::from("Zed")),
                ("bday", Value::from("2001-01-01")),
            ],
        );
        let o = b.add_node(&["Org"], &[("url", Value::from("x.com"))]);
        b.add_edge(a, o, &["WORKS AT"], &[("from", Value::Int(2001))]);
        b.add_edge(anon, o, &["WORKS AT"], &[]);
        b.finish()
    }

    fn sample_state() -> (Discoverer, SchemaState) {
        let d = Discoverer::new(PipelineConfig::elsh_adaptive());
        let mut s = d.discover_chunk_state(&sample_graph());
        s.clear_members();
        (d, s)
    }

    /// A `discover --save-state` context over `state`.
    fn context(d: &Discoverer, state: SchemaState) -> ResumeContext {
        ResumeContext {
            config: SnapshotConfig::new(d.config(), 512),
            ingest: Ingest::new(state),
            cache: SignatureCache::default(),
            watch: None,
        }
    }

    fn temp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "pg-hive-snapshot-unit-{}-{name}",
            std::process::id()
        ));
        p
    }

    #[test]
    fn state_lines_round_trip_to_byte_identical_finalize() {
        let (_, state) = sample_state();
        let lines = state_to_lines(&state);
        let back = state_from_lines(&lines).unwrap();
        assert_eq!(back.theta().to_bits(), state.theta().to_bits());
        assert_eq!(
            pg_schema_strict(&back.finalize(), "G"),
            pg_schema_strict(&state.finalize(), "G"),
            "reloaded state must finalize byte-identically"
        );
        // Serialization is a fixed point: re-serializing reproduces the
        // exact lines.
        assert_eq!(state_to_lines(&back), lines);
    }

    #[test]
    fn state_save_load_via_file() {
        let (d, state) = sample_state();
        let expected = state.finalize();
        let path = temp("state");
        context(&d, state).save(&path).unwrap();
        let back = ResumeContext::load(&path).unwrap();
        assert_eq!(back.ingest.state.finalize(), expected);
        // The temp file is gone after the rename.
        assert!(!path
            .with_file_name(format!(
                "{}.tmp",
                path.file_name().unwrap().to_string_lossy()
            ))
            .exists());
    }

    #[test]
    fn corrupt_truncated_and_future_version_files_are_named_errors() {
        let (d, state) = sample_state();
        let path = temp("corrupt");
        context(&d, state).save(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();

        // Corrupt: flip a payload byte.
        let corrupt = text.replacen("theta", "thetb", 1);
        let err = Snapshot::parse(&corrupt).unwrap_err().to_string();
        assert!(err.starts_with("snapshot:"), "{err}");
        assert!(err.contains("checksum"), "{err}");

        // Truncated: drop the tail.
        let err = Snapshot::parse(&text[..text.len() / 2])
            .unwrap_err()
            .to_string();
        assert!(err.starts_with("snapshot:"), "{err}");

        // Future version.
        let future = text.replacen("pg-hive-snapshot 1", "pg-hive-snapshot 999", 1);
        let err = Snapshot::parse(&future).unwrap_err().to_string();
        assert!(err.contains("version 999"), "{err}");

        // Not a snapshot at all.
        let err = Snapshot::parse("N a Person -\n").unwrap_err().to_string();
        assert!(err.contains("not a pg-hive snapshot"), "{err}");
    }

    #[test]
    fn non_canonical_headers_are_refused() {
        // The header is outside the checksum: every spelling but the one
        // `to_text` writes must be refused, not read as the same header.
        let (d, state) = sample_state();
        let config = SnapshotConfig::new(d.config(), 512);
        let registry = LabelSetRegistry::default();
        let text = context_snapshot_cached(&config, &state, &registry, None, &[], None).to_text();
        assert!(Snapshot::parse(&text).is_ok());
        let (magic_line, rest) = text.split_once('\n').unwrap();
        let (checksum_line, payload) = rest.split_once('\n').unwrap();
        let hex = checksum_line.strip_prefix("checksum ").unwrap();
        assert_eq!(magic_line, format!("{MAGIC} {FORMAT_VERSION}"));
        assert_ne!(hex.to_uppercase(), hex, "the sample checksum has a letter");

        for version in ["0", "01", "+1", "1 ", "1 extra", " 1", ""] {
            let bad = format!("{MAGIC} {version}\n{rest}");
            let err = Snapshot::parse(&bad).unwrap_err().to_string();
            assert!(err.starts_with("snapshot:"), "{version:?}: {err}");
        }
        for checksum in [
            hex.to_uppercase(),
            format!("+{hex}"),
            format!("0{hex}"),
            hex[1..].to_string(),
            format!("{hex} "),
        ] {
            let bad = format!("{magic_line}\nchecksum {checksum}\n{payload}");
            let err = Snapshot::parse(&bad).unwrap_err().to_string();
            assert!(err.starts_with("snapshot:"), "{checksum:?}: {err}");
            assert!(err.contains("checksum"), "{checksum:?}: {err}");
        }
    }

    #[test]
    fn config_guard_names_the_mismatching_field() {
        let base = SnapshotConfig::new(&PipelineConfig::elsh_adaptive(), 1000);
        assert!(base.ensure_matches(&base.clone()).is_ok());
        for (mutate, field) in [
            (
                Box::new(|c: &mut SnapshotConfig| c.method = ClusterMethod::MinHash)
                    as Box<dyn Fn(&mut SnapshotConfig)>,
                "method",
            ),
            (Box::new(|c: &mut SnapshotConfig| c.theta = 0.5), "theta"),
            (Box::new(|c: &mut SnapshotConfig| c.seed = 7), "seed"),
            (
                Box::new(|c: &mut SnapshotConfig| c.chunk_size = 9),
                "chunk-size",
            ),
        ] {
            let mut other = base.clone();
            mutate(&mut other);
            let err = base.ensure_matches(&other).unwrap_err().to_string();
            assert!(
                err.contains(&format!("{field}=")),
                "expected {field} in: {err}"
            );
            assert!(
                err.starts_with("snapshot: incompatible configuration"),
                "{err}"
            );
        }
    }

    #[test]
    fn resume_context_round_trips_with_watch_sections() {
        let (d, state) = sample_state();
        let registry = LabelSetRegistry::from_snapshot_lines([
            "set",
            "set Person",
            "id n2 0",
            "id node%20one 1",
        ])
        .unwrap();
        let ctx = ResumeContext {
            config: SnapshotConfig::new(d.config(), 512),
            ingest: Ingest {
                registry,
                pending: vec![
                    Record {
                        src: "node one".into(),
                        tgt: "n2".into(),
                        labels: vec!["KNOWS OF".into()],
                        props: vec![
                            ("since".into(), Value::parse_lexical("2020-01-01")),
                            ("note".into(), Value::from("has space")),
                            ("weight".into(), Value::parse_lexical("2.5")),
                        ],
                    },
                    Record {
                        src: "n2".into(),
                        tgt: "ghost".into(),
                        labels: Vec::new(),
                        props: Vec::new(),
                    },
                ],
                ..Ingest::new(state)
            },
            cache: SignatureCache::default(),
            watch: Some(WatchCheckpoint {
                input: "data dir/with space".into(),
                format: "csv".into(),
                pass: 7,
                warnings: StreamWarnings {
                    cross_chunk_edges: 1,
                    unresolved_edges: 2,
                    deferred_edges: 3,
                    evicted_edges: 4,
                    duplicate_nodes: 5,
                },
                files: vec![
                    FileCheckpoint {
                        path: "data dir/nodes.csv".into(),
                        offset: 123,
                        tail: b"last,line\n".to_vec(),
                        header: Some(b"id,labels\n".to_vec()),
                        required: true,
                    },
                    FileCheckpoint {
                        path: "data dir/edges.csv".into(),
                        offset: 0,
                        tail: Vec::new(),
                        header: None,
                        required: false,
                    },
                ],
            }),
        };
        let path = temp("ctx");
        ctx.save(&path).unwrap();
        let back = ResumeContext::load(&path).unwrap();
        assert_eq!(back.config, ctx.config);
        assert_eq!(back.watch, ctx.watch);
        assert_eq!(back.ingest.pending, ctx.ingest.pending);
        assert_eq!(back.ingest.state.finalize(), ctx.ingest.state.finalize());
        assert_eq!(
            back.ingest.registry.snapshot_lines(),
            ctx.ingest.registry.snapshot_lines()
        );
        // Saving the reloaded context reproduces the exact file bytes.
        let again = temp("ctx-again");
        back.save(&again).unwrap();
        assert_eq!(
            std::fs::read_to_string(&again).unwrap(),
            std::fs::read_to_string(&path).unwrap()
        );
    }

    #[test]
    fn missing_sections_are_named() {
        let snap = Snapshot::new();
        let err = ResumeContext::from_snapshot(&snap).unwrap_err().to_string();
        assert!(err.contains("[config]"), "{err}");
        let path = temp("stateless");
        let (d, state) = sample_state();
        context(&d, state).save(&path).unwrap();
        let loaded = ResumeContext::load(&path).unwrap();
        assert!(loaded.watch.is_none());
    }

    #[test]
    fn sigcache_section_is_optional_and_round_trips() {
        use crate::sigcache::CachedChunk;
        use pg_hive_lsh::Clustering;
        let (d, state) = sample_state();
        let config = SnapshotConfig::new(d.config(), 512);
        let registry = LabelSetRegistry::default();

        // No cache / empty cache → no [sigcache] section, and loading
        // such a snapshot yields a cold cache (pre-cache compatibility).
        let bare = context_snapshot_cached(&config, &state, &registry, None, &[], None);
        assert!(bare.section(SECTION_SIGCACHE).is_none());
        let empty = SignatureCache::default();
        let still_bare =
            context_snapshot_cached(&config, &state, &registry, None, &[], Some(&empty));
        assert_eq!(still_bare.to_text(), bare.to_text());
        assert!(ResumeContext::from_snapshot(&bare)
            .unwrap()
            .cache
            .is_empty());

        // A populated cache round-trips through the section.
        let cache = SignatureCache::default();
        cache.insert(
            0xABCD,
            CachedChunk {
                nodes: Clustering {
                    assignment: vec![0, 1],
                    num_clusters: 2,
                },
                edges: Clustering {
                    assignment: Vec::new(),
                    num_clusters: 0,
                },
            },
        );
        let snap = context_snapshot_cached(&config, &state, &registry, None, &[], Some(&cache));
        let reparsed = Snapshot::parse(&snap.to_text()).unwrap();
        let back = ResumeContext::from_snapshot(&reparsed).unwrap().cache;
        assert_eq!(back.snapshot_lines(), cache.snapshot_lines());
        assert!(back.lookup(0xABCD, 2, 0).is_some());

        // A malformed section is a named error, not a silently cold cache.
        let mut broken = context_snapshot_cached(&config, &state, &registry, None, &[], None);
        broken.push_section(SECTION_SIGCACHE, vec!["zz".into()]);
        let err = ResumeContext::from_snapshot(&broken)
            .unwrap_err()
            .to_string();
        assert!(err.starts_with("snapshot: malformed content"), "{err}");
    }

    #[test]
    fn duplicate_state_types_saturate_instead_of_overflowing() {
        // A checksum-valid [state] may list one type twice with counts that
        // sum past u64::MAX; the pooled counts saturate.
        let max = u64::MAX;
        let lines = vec![
            format!("theta {:016x}", 0.9f64.to_bits()),
            format!("node Person {max} name:{max}:string"),
            "node Person 1 name:1:string".to_string(),
            format!("edge KNOWS {max} - Person>Person w:{max}:int"),
            "edge KNOWS 1 - Person>Person w:1:int".to_string(),
        ];
        let schema = state_from_lines(&lines).unwrap().finalize();
        assert_eq!(schema.node_types[0].instance_count, max);
        assert_eq!(schema.node_types[0].props["name"].occurrences, max);
        assert_eq!(schema.edge_types[0].instance_count, max);
        assert_eq!(schema.edge_types[0].props["w"].occurrences, max);
    }

    #[test]
    fn state_with_endpoints_and_cardinality_round_trips() {
        let mut state = SchemaState::new(0.9);
        state.absorb_edge_candidates(vec![EdgeType {
            labels: label_set(&["KNOWS"]),
            props: BTreeMap::new(),
            endpoints: [
                (label_set(&["Person"]), label_set(&["Person", "Admin"])),
                (LabelSet::new(), label_set(&["Person"])),
                (label_set(&["Person"]), LabelSet::new()),
            ]
            .into(),
            instance_count: 3,
            members: vec![],
            cardinality: Some(Cardinality {
                max_out: 4,
                max_in: 2,
            }),
        }]);
        let back = state_from_lines(&state_to_lines(&state)).unwrap();
        assert_eq!(back.finalize(), state.finalize());
    }
}
