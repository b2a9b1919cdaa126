//! Snapshot (de)serialization primitives for the graph layer.
//!
//! `pg-hive-core::snapshot` defines the versioned container format (header,
//! checksum, sections — see `docs/PERSISTENCE.md` at the repository root);
//! this module supplies the pieces that belong to the graph crate:
//!
//! - a **field codec** ([`escape_field`] / [`unescape_field`]) that makes
//!   arbitrary strings (labels, property keys, dataset node ids, paths)
//!   safe to embed in the line-oriented snapshot text;
//! - [`LabelSetRegistry`] (de)serialization — a section of every watch
//!   checkpoint, so a resumed `pg-hive watch` run keeps resolving appended
//!   edges against node ids ingested before the checkpoint.
//!
//! Checkpoint sections store resolved strings, never an interner.
//! Everything here is deterministic: serializing equal content produces
//! byte-identical lines no matter what order the content was built in.

use crate::stream::LabelSetRegistry;
use std::collections::HashMap;

/// Marker token for the empty string (an escaped non-empty string is never
/// exactly `%e`: the escaper only emits `%` followed by two hex digits).
const EMPTY_FIELD: &str = "%e";

fn is_plain(b: u8) -> bool {
    b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-')
}

/// Percent-encode `s` so the result contains only `[A-Za-z0-9_.%-]` — no
/// whitespace and none of the snapshot format's structural characters
/// (space, `:`, `,`, `>`, `+`, `[`, `]`), so escaped fields can be joined
/// with any of them and split back unambiguously. The empty string encodes
/// as the marker `%e`.
///
/// ```
/// use pg_hive_graph::snapshot::{escape_field, unescape_field};
/// assert_eq!(escape_field("Person"), "Person");
/// assert_eq!(escape_field("has space"), "has%20space");
/// assert_eq!(unescape_field("has%20space").unwrap(), "has space");
/// assert_eq!(unescape_field(&escape_field("")).unwrap(), "");
/// ```
pub fn escape_field(s: &str) -> String {
    if s.is_empty() {
        return EMPTY_FIELD.to_string();
    }
    let mut out = String::with_capacity(s.len());
    for &b in s.as_bytes() {
        if is_plain(b) {
            out.push(b as char);
        } else {
            out.push('%');
            out.push_str(&format!("{b:02X}"));
        }
    }
    out
}

/// Invert [`escape_field`]. Fails with a description on malformed escapes
/// or invalid UTF-8 (a corrupt snapshot line, not a programming error).
pub fn unescape_field(s: &str) -> Result<String, String> {
    if s == EMPTY_FIELD {
        return Ok(String::new());
    }
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = bytes
                .get(i + 1..i + 3)
                .ok_or_else(|| format!("truncated escape in field '{s}'"))?;
            let hex = std::str::from_utf8(hex).map_err(|_| format!("bad escape in field '{s}'"))?;
            let b =
                u8::from_str_radix(hex, 16).map_err(|_| format!("bad escape in field '{s}'"))?;
            out.push(b);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).map_err(|_| format!("field '{s}' is not valid UTF-8"))
}

/// Hex-encode raw bytes with a `0x` prefix (`0x` alone = empty). Used for
/// opaque byte payloads like watch rotation fingerprints.
pub fn bytes_to_hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(2 + bytes.len() * 2);
    out.push_str("0x");
    for b in bytes {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

/// Invert [`bytes_to_hex`]. Any malformed input — including non-ASCII
/// bytes, which a byte-offset slice would otherwise panic on — is a named
/// error, never a panic (snapshot files are external input).
pub fn bytes_from_hex(s: &str) -> Result<Vec<u8>, String> {
    let hex = s
        .strip_prefix("0x")
        .ok_or_else(|| format!("byte field '{s}' is missing its 0x prefix"))?;
    if !hex.is_ascii() {
        return Err(format!("byte field '{s}' is not hex"));
    }
    if hex.len() % 2 != 0 {
        return Err(format!("byte field '{s}' has odd length"));
    }
    (0..hex.len())
        .step_by(2)
        .map(|i| {
            u8::from_str_radix(&hex[i..i + 2], 16)
                .map_err(|_| format!("byte field '{s}' is not hex"))
        })
        .collect()
}

impl LabelSetRegistry {
    /// Number of node ids the registry tracks.
    pub fn len(&self) -> usize {
        self.id_ls.len()
    }

    /// True when no node id has been registered.
    pub fn is_empty(&self) -> bool {
        self.id_ls.is_empty()
    }

    /// Serialize the registry deterministically:
    ///
    /// - `set <label>...` lines first — one per **referenced** distinct
    ///   label set, ordered by content (the line's position is the set's
    ///   file-local index); an empty label set serializes as a bare `set`;
    /// - `id <node-id> <set-index>` lines after, ordered by node id.
    ///
    /// Interning order and dense set ids are not preserved — they are
    /// internal bookkeeping; equal registries (same id → labels mapping)
    /// serialize byte-identically.
    pub fn snapshot_lines(&self) -> Vec<String> {
        // Only sets reachable through an id matter for resolution.
        let mut used: Vec<u32> = self.id_ls.clone();
        used.sort_unstable();
        used.dedup();
        let mut ordered: Vec<(&[String], u32)> = used
            .iter()
            .map(|&ls| (&self.sets[ls as usize][..], ls))
            .collect();
        ordered.sort_by(|a, b| a.0.cmp(b.0));
        let file_index: HashMap<u32, usize> = ordered
            .iter()
            .enumerate()
            .map(|(i, &(_, ls))| (ls, i))
            .collect();

        let mut lines = Vec::with_capacity(ordered.len() + self.id_ls.len());
        for (labels, _) in &ordered {
            let mut line = String::from("set");
            for l in labels.iter() {
                line.push(' ');
                line.push_str(&escape_field(l));
            }
            lines.push(line);
        }
        let mut ids: Vec<(&str, u32)> = self
            .id_syms
            .iter()
            .map(|(sym, id)| (id, self.id_ls[sym.index()]))
            .collect();
        ids.sort_by(|a, b| a.0.cmp(b.0));
        for (id, ls) in ids {
            lines.push(format!("id {} {}", escape_field(id), file_index[&ls]));
        }
        lines
    }

    /// Rebuild a registry from [`LabelSetRegistry::snapshot_lines`] output.
    pub fn from_snapshot_lines<'a, I>(lines: I) -> Result<LabelSetRegistry, String>
    where
        I: IntoIterator<Item = &'a str>,
    {
        let mut reg = LabelSetRegistry::default();
        let mut interned: Vec<u32> = Vec::new();
        for line in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let mut tokens = line.split(' ');
            match tokens.next() {
                Some("set") => {
                    let labels: Vec<String> =
                        tokens.map(unescape_field).collect::<Result<Vec<_>, _>>()?;
                    interned.push(reg.intern(&labels));
                }
                Some("id") => {
                    let id = unescape_field(
                        tokens
                            .next()
                            .ok_or("registry id line is missing the node id")?,
                    )?;
                    let idx: usize = tokens
                        .next()
                        .ok_or("registry id line is missing the set index")?
                        .parse()
                        .map_err(|_| "registry id line has a non-numeric set index".to_string())?;
                    let &ls = interned
                        .get(idx)
                        .ok_or_else(|| format!("registry id line references unknown set {idx}"))?;
                    reg.insert_ls(&id, ls);
                }
                other => return Err(format!("unknown registry line kind {other:?}")),
            }
        }
        Ok(reg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_round_trips_arbitrary_strings() {
        for s in [
            "",
            "Person",
            "has space",
            "a,b:c>d+e[f]g%h",
            "naïve — émojis 🦀",
            "line\nbreak\ttab",
            "%e", // the literal two-character string, not the empty marker
        ] {
            let esc = escape_field(s);
            assert!(
                esc.bytes().all(|b| is_plain(b) || b == b'%'),
                "unescaped structural byte in {esc:?}"
            );
            assert_eq!(unescape_field(&esc).unwrap(), s, "{s:?}");
        }
        // The literal "%e" escapes to something other than the marker.
        assert_ne!(escape_field("%e"), EMPTY_FIELD);
        assert_eq!(escape_field(""), EMPTY_FIELD);
    }

    #[test]
    fn unescape_rejects_malformed_input() {
        assert!(unescape_field("trailing%2").is_err());
        assert!(unescape_field("bad%zzescape").is_err());
        // Overlong: lone continuation byte is invalid UTF-8.
        assert!(unescape_field("%FF").is_err());
    }

    #[test]
    fn hex_round_trips() {
        for bytes in [&b""[..], &b"\x00\xff\x10"[..], &b"tail"[..]] {
            assert_eq!(bytes_from_hex(&bytes_to_hex(bytes)).unwrap(), bytes);
        }
        assert!(bytes_from_hex("ff").is_err(), "missing prefix");
        assert!(bytes_from_hex("0xf").is_err(), "odd length");
        assert!(bytes_from_hex("0xzz").is_err(), "not hex");
        // Regression: multi-byte UTF-8 in the hex digits must be a named
        // error, not a char-boundary slice panic (3-byte char + 1 ASCII
        // byte passes the even-length check).
        assert!(bytes_from_hex("0xﬀa").is_err(), "non-ascii hex");
    }

    #[test]
    fn registry_snapshot_round_trips_and_is_deterministic() {
        let mut a = LabelSetRegistry::default();
        a.insert("n2", &["Person".into(), "Admin".into()]);
        a.insert("n1", &["Org".into()]);
        a.insert("n3", &[]);
        // Same content inserted in a different order.
        let mut b = LabelSetRegistry::default();
        b.insert("n3", &[]);
        b.insert("n1", &["Org".into()]);
        b.insert("n2", &["Person".into(), "Admin".into()]);
        assert_eq!(a.snapshot_lines(), b.snapshot_lines());

        let restored =
            LabelSetRegistry::from_snapshot_lines(a.snapshot_lines().iter().map(String::as_str))
                .unwrap();
        assert_eq!(restored.len(), 3);
        for id in ["n1", "n2", "n3"] {
            let orig = a.get(id).map(|ls| a.set(ls).to_vec());
            let back = restored.get(id).map(|ls| restored.set(ls).to_vec());
            assert_eq!(orig, back, "{id}");
        }
        // Round-trip of the round-trip is byte-identical (fixed point).
        assert_eq!(restored.snapshot_lines(), a.snapshot_lines());
    }

    #[test]
    fn registry_snapshot_rejects_garbage() {
        assert!(LabelSetRegistry::from_snapshot_lines(["frob x"]).is_err());
        assert!(LabelSetRegistry::from_snapshot_lines(["id onlyid"]).is_err());
        assert!(
            LabelSetRegistry::from_snapshot_lines(["id x 7"]).is_err(),
            "unknown set index"
        );
        assert!(LabelSetRegistry::from_snapshot_lines(["set A", "id x nope"]).is_err());
    }
}
