//! Multi-source enumeration: a *directory tree* of mixed-format inputs as
//! one logical dataset, folded file by file.
//!
//! # Why per-file sources
//!
//! A tree run prints what the serial run prints, for every thread count.
//! [`MultiSource`] therefore never concatenates files into one stream:
//! each [`SourceEntry`] opens a **fresh** reader (fresh registry, chunk
//! boundaries a function of that file alone), so a file's result does not
//! depend on the thread that read it. [`MultiSource::fold_ordered`] reads
//! the files on the worker pool ([`crate::fold_in_order`]) and folds their
//! results on the calling thread in path order, the order of the serial
//! loop. Folds that are not commutative, such as a node id bound by two
//! files (the later file's binding wins), then give the serial answer too.
//!
//! # Enumeration rules
//!
//! Walking the tree rooted at a directory:
//!
//! - a directory containing `nodes.csv` is **one** CSV dataset entry
//!   (its `edges.csv` rides along; the directory is not descended into);
//! - `*.pgt` and `*.jsonl` files are one entry each;
//! - everything else is ignored.
//!
//! The resulting entry list is sorted by path, so enumeration order — and
//! with it the serial fold order — is stable across runs and platforms.

use super::csv::{CsvSource, EDGES_FILE, NODES_FILE};
use super::jsonl::JsonlSource;
use super::pgt::PgtSource;
use super::raw::RawGraphSource;
use super::StreamError;
use crate::pool::fold_in_order;
use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};

/// Wire format of one enumerated input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceKind {
    /// A `.pgt` text file.
    Pgt,
    /// A directory holding `nodes.csv` (+ optional `edges.csv`).
    Csv,
    /// A `.jsonl` file.
    Jsonl,
}

impl SourceKind {
    /// Short format name, matching [`RawGraphSource::format_name`].
    pub fn name(self) -> &'static str {
        match self {
            SourceKind::Pgt => "pgt",
            SourceKind::Csv => "csv",
            SourceKind::Jsonl => "jsonl",
        }
    }
}

/// One input of a [`MultiSource`]: a path plus the format it was
/// recognized as.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceEntry {
    /// File path (`Pgt`/`Jsonl`) or dataset directory path (`Csv`).
    pub path: PathBuf,
    /// Recognized wire format.
    pub kind: SourceKind,
}

impl SourceEntry {
    /// Byte length of this input — the cost proxy
    /// [`MultiSource::fold_ordered`] claims heaviest first. A `.pgt`/`.jsonl` entry weighs its file
    /// size; a CSV dataset weighs `nodes.csv` plus `edges.csv`.
    /// Unreadable files weigh 0 (the error surfaces later, on open).
    pub fn byte_len(&self) -> u64 {
        let file_len = |p: &Path| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0);
        match self.kind {
            SourceKind::Pgt | SourceKind::Jsonl => file_len(&self.path),
            SourceKind::Csv => {
                file_len(&self.path.join(NODES_FILE)) + file_len(&self.path.join(EDGES_FILE))
            }
        }
    }

    /// Open a fresh streaming reader over this input.
    pub fn open(&self) -> Result<Box<dyn RawGraphSource + Send>, StreamError> {
        Ok(match self.kind {
            SourceKind::Pgt => Box::new(PgtSource::new(BufReader::with_capacity(
                1 << 20,
                File::open(&self.path)?,
            ))),
            SourceKind::Jsonl => Box::new(JsonlSource::new(BufReader::with_capacity(
                1 << 20,
                File::open(&self.path)?,
            ))),
            SourceKind::Csv => Box::new(CsvSource::open_dir(&self.path)?),
        })
    }
}

/// A directory tree of mixed-format inputs, enumerated in stable sorted
/// order (see the module docs for the recognition rules).
#[derive(Debug, Clone)]
pub struct MultiSource {
    entries: Vec<SourceEntry>,
}

impl MultiSource {
    /// Enumerate every recognized input under `root` (recursively).
    ///
    /// `root` may also be a single recognized input (a `.pgt`/`.jsonl`
    /// file or a CSV dataset directory), in which case the source holds
    /// exactly that entry. An empty result is not an error here — callers
    /// decide whether an input-less dataset is acceptable.
    pub fn enumerate(root: &Path) -> Result<Self, StreamError> {
        let mut entries = Vec::new();
        if let Some(kind) = recognize(root)? {
            entries.push(SourceEntry {
                path: root.to_path_buf(),
                kind,
            });
        } else if root.is_dir() {
            walk(root, &mut entries)?;
        }
        entries.sort_by(|a, b| a.path.cmp(&b.path));
        Ok(Self { entries })
    }

    /// The enumerated inputs, sorted by path.
    pub fn entries(&self) -> &[SourceEntry] {
        &self.entries
    }

    /// Number of enumerated inputs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether enumeration found no recognized inputs.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Run `per_entry` on every entry and hand each result to `fold` in
    /// path order, on the calling thread — what the serial loop
    /// `for e in entries { fold(per_entry(e)?) }` does, whatever the thread
    /// count.
    ///
    /// The entries run on [`fold_in_order`] with up to `min(threads,
    /// entries)` workers, started heaviest first by
    /// [`SourceEntry::byte_len`] so a large file starts at once; a result
    /// that finishes before an earlier entry's waits for it. `fold` returns
    /// `false` to end the run: entries not yet started are dropped, and
    /// later results too. The first error in path order is returned after
    /// every earlier entry has been folded. With one thread (or one entry) the
    /// entries run in path order on the calling thread.
    pub fn fold_ordered<T, E, P, F>(
        &self,
        threads: usize,
        per_entry: P,
        mut fold: F,
    ) -> Result<(), E>
    where
        T: Send,
        E: Send,
        P: Fn(&SourceEntry) -> Result<T, E> + Sync,
        F: FnMut(T) -> bool,
    {
        let entries = &self.entries;
        let workers = threads.min(entries.len());
        let mut start: Vec<usize> = (0..entries.len()).collect();
        if workers > 1 {
            // Heaviest first; equal weights keep path order (stable sort).
            start.sort_by_cached_key(|&i| std::cmp::Reverse(entries[i].byte_len()));
        }
        let mut failed = None;
        fold_in_order(
            workers,
            start.into_iter().map(|i| (i, &entries[i])),
            &per_entry,
            |result| match result {
                Ok(value) => fold(value),
                Err(e) => {
                    failed = Some(e);
                    false
                }
            },
        );
        failed.map_or(Ok(()), Err)
    }
}

/// Recognize `path` as a single input: a CSV dataset directory or a
/// `.pgt`/`.jsonl` file. `Ok(None)` means "not an input itself" (the
/// caller may still descend into it if it is a directory).
fn recognize(path: &Path) -> Result<Option<SourceKind>, StreamError> {
    let meta = std::fs::metadata(path)?;
    if meta.is_dir() {
        return Ok(if path.join(NODES_FILE).is_file() {
            Some(SourceKind::Csv)
        } else {
            None
        });
    }
    Ok(match path.extension().and_then(|e| e.to_str()) {
        Some("pgt") => Some(SourceKind::Pgt),
        Some("jsonl") => Some(SourceKind::Jsonl),
        _ => None,
    })
}

fn walk(dir: &Path, out: &mut Vec<SourceEntry>) -> Result<(), StreamError> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if let Some(kind) = recognize(&path)? {
            out.push(SourceEntry { path, kind });
        } else if path.is_dir() {
            walk(&path, out)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pg-hive-multi-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn enumerates_mixed_tree_sorted() {
        let root = tmpdir("tree");
        fs::write(root.join("b.pgt"), "N x Person -\n").unwrap();
        fs::write(root.join("a.jsonl"), "").unwrap();
        fs::write(root.join("notes.txt"), "ignored").unwrap();
        let sub = root.join("sub");
        fs::create_dir_all(&sub).unwrap();
        fs::write(sub.join("c.pgt"), "").unwrap();
        let csvdir = root.join("dump");
        fs::create_dir_all(&csvdir).unwrap();
        fs::write(csvdir.join(NODES_FILE), "id,labels\n").unwrap();
        // A .pgt *inside* a CSV dataset dir must not be enumerated: the
        // directory is one entry and is not descended into.
        fs::write(csvdir.join("stray.pgt"), "").unwrap();

        let ms = MultiSource::enumerate(&root).unwrap();
        let got: Vec<(String, SourceKind)> = ms
            .entries()
            .iter()
            .map(|e| {
                (
                    e.path
                        .strip_prefix(&root)
                        .unwrap()
                        .to_string_lossy()
                        .into_owned(),
                    e.kind,
                )
            })
            .collect();
        assert_eq!(
            got,
            vec![
                ("a.jsonl".to_string(), SourceKind::Jsonl),
                ("b.pgt".to_string(), SourceKind::Pgt),
                ("dump".to_string(), SourceKind::Csv),
                ("sub/c.pgt".to_string(), SourceKind::Pgt),
            ]
        );
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn single_file_root_is_one_entry() {
        let root = tmpdir("single");
        let f = root.join("only.pgt");
        fs::write(&f, "N x Person -\n").unwrap();
        let ms = MultiSource::enumerate(&f).unwrap();
        assert_eq!(ms.len(), 1);
        assert_eq!(ms.entries()[0].kind, SourceKind::Pgt);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn fold_ordered_folds_in_path_order_for_every_thread_count() {
        // The heaviest entry sorts last: parallel runs claim it first and
        // the lighter ones finish before it, in reverse path order, so the
        // reorder buffer has work to do.
        let root = tmpdir("fold");
        for (name, len) in [("a.pgt", 10), ("b.pgt", 20), ("c.pgt", 30), ("d.pgt", 40)] {
            fs::write(root.join(name), vec![b'#'; len]).unwrap();
        }
        fs::write(root.join("e.pgt"), vec![b'#'; 5000]).unwrap();
        // CSV dataset weight is nodes.csv + edges.csv.
        let csvdir = root.join("dump");
        fs::create_dir_all(&csvdir).unwrap();
        fs::write(csvdir.join(NODES_FILE), vec![b'#'; 30]).unwrap();
        fs::write(csvdir.join(EDGES_FILE), vec![b'#'; 12]).unwrap();
        let ms = MultiSource::enumerate(&root).unwrap();
        let csv = ms.entries().iter().find(|e| e.kind == SourceKind::Csv);
        assert_eq!(csv.unwrap().byte_len(), 42);

        let name = |e: &SourceEntry| e.path.file_name().unwrap().to_string_lossy().into_owned();
        let all: Vec<String> = ms.entries().iter().map(name).collect();
        assert_eq!(all, ["a.pgt", "b.pgt", "c.pgt", "d.pgt", "dump", "e.pgt"]);
        // Fold on `threads` threads, failing the entries named in `failing`
        // and ending the run once `keep` results are folded. In parallel
        // runs `a.pgt` (first in path order, and claimed last because it is
        // the lightest) finishes only after every other entry, so all the
        // other results wait in the reorder buffer.
        let run = |threads: usize, failing: &[&str], keep: usize| {
            let finished = AtomicUsize::new(0);
            let mut seen = Vec::new();
            let result = ms.fold_ordered(
                threads,
                |e| {
                    let n = name(e);
                    if threads > 1 && n == "a.pgt" {
                        while finished.load(Ordering::SeqCst) + 1 < ms.len() {
                            std::thread::yield_now();
                        }
                    }
                    finished.fetch_add(1, Ordering::SeqCst);
                    if failing.contains(&n.as_str()) {
                        Err(n)
                    } else {
                        Ok(n)
                    }
                },
                |n| {
                    seen.push(n);
                    seen.len() < keep
                },
            );
            (result, seen)
        };
        for threads in 1..=7 {
            let every = run(threads, &[], usize::MAX);
            assert_eq!(every, (Ok(()), all.clone()), "threads {threads}");
            let first_three = run(threads, &[], 3);
            assert_eq!(
                first_three,
                (Ok(()), all[..3].to_vec()),
                "threads {threads}"
            );
            // The first error in path order, after exactly the entries
            // before it.
            let failed = run(threads, &["c.pgt", "e.pgt"], usize::MAX);
            let expected = (Err("c.pgt".to_string()), all[..2].to_vec());
            assert_eq!(failed, expected, "threads {threads}");
        }
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn entries_open_with_matching_format_names() {
        let root = tmpdir("open");
        fs::write(root.join("g.pgt"), "N x Person -\n").unwrap();
        let ms = MultiSource::enumerate(&root).unwrap();
        let src = ms.entries()[0].open().unwrap();
        assert_eq!(src.format_name(), ms.entries()[0].kind.name());
        fs::remove_dir_all(&root).unwrap();
    }
}
