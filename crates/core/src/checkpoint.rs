//! Durable checkpoint store for per-root dependency contributions.
//!
//! Long cluster runs stream each completed root's contribution vector
//! to an epoch-stamped, checksummed chunk file under a checkpoint
//! directory. Every chunk also stamps the options fingerprint (method /
//! traversal / schedule / partition / topology) and the graph digest of
//! the run that wrote it. A small text manifest pins the same two
//! identities, the vertex and root counts, and the current epoch; it is
//! written once per [`CheckpointStore::open`], never per root. Resume
//! opens the same directory, validates the manifest, derives the
//! completed-root set from the chunks whose stamps match the run, skips
//! those roots, and replays the stored chunks through the same
//! root-ordered merger the live workers feed — so an
//! interrupted-then-resumed run is bitwise identical to an
//! uninterrupted one.
//!
//! Layout on disk:
//!
//! ```text
//! DIR/manifest.txt      hand-parsed text (see [`CheckpointStore::open`])
//! DIR/root-<idx>.chunk  little-endian u64 words: magic "HBCCHK02",
//!                       epoch, root index, vertices, options
//!                       fingerprint, graph digest, encoding (0 sparse,
//!                       1 dense), entry count; the body; and an FNV-1a
//!                       trailer over every word before it
//! ```
//!
//! A dense body holds all `n` score bit patterns in vertex order. A
//! sparse body holds `(u32 vertex, u64 bits)` pairs for every score
//! whose bits are not all zero (so `-0.0` survives), zero-padded to a
//! whole word. A chunk is written dense whenever that is smaller.
//!
//! Every write goes through a temp file, an fsync, a rename and an
//! fsync of the directory, so a crash mid-write leaves either the old
//! state or the new state, never a torn file, and a write that
//! returned survives a power loss under its final name.

use std::fmt;
use std::fs;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use bc_graph::Csr;

/// Magic bytes opening every chunk file.
const CHUNK_MAGIC: &[u8; 8] = b"HBCCHK02";
/// Chunk header: the magic and seven stamp words.
const HEADER_BYTES: usize = 8 * 8;
/// Bytes of one sparse `(u32 vertex, u64 bits)` entry.
const SPARSE_ENTRY_BYTES: usize = 12;
/// First line of the manifest.
const MANIFEST_HEADER: &str = "hybrid-bc-checkpoint 2";
/// The manifest's keys, in the order it writes them.
const MANIFEST_KEYS: [&str; 5] = ["fingerprint", "graph", "vertices", "roots", "epoch"];

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a over a byte stream.
#[derive(Clone, Copy, Debug)]
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Self(FNV_OFFSET)
    }

    fn update(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }

    fn finish(self) -> u64 {
        self.0
    }
}

/// FNV-1a over little-endian `u64` words: one multiply per eight
/// bytes. Each step is a bijection of the running state, so changing
/// any one word always changes the result.
fn word_checksum(bytes: &[u8]) -> u64 {
    debug_assert_eq!(bytes.len() % 8, 0, "chunk payloads are whole words");
    bytes.chunks_exact(8).fold(FNV_OFFSET, |h, w| {
        (h ^ u64::from_le_bytes(w.try_into().expect("chunks_exact(8)"))).wrapping_mul(FNV_PRIME)
    })
}

/// FNV-1a digest of a CSR graph: vertex count, offsets, adjacency,
/// and symmetry flag. Two graphs with the same digest are treated as
/// interchangeable by the checkpoint store.
#[must_use]
pub fn graph_digest(g: &Csr) -> u64 {
    let mut h = Fnv1a::new();
    h.update(&(g.num_vertices() as u64).to_le_bytes());
    for &o in g.offsets() {
        h.update(&o.to_le_bytes());
    }
    for &v in g.adj_array() {
        h.update(&v.to_le_bytes());
    }
    h.update(&[u8::from(g.is_symmetric())]);
    h.finish()
}

/// FNV-1a digest of a canonical options description string.
///
/// Callers render every option that affects the numeric result
/// (method, traversal, schedule, partition mode, topology, root
/// count) into one `key=value` string; any difference in that string
/// makes resume refuse the directory.
#[must_use]
pub fn options_fingerprint(desc: &str) -> u64 {
    let mut h = Fnv1a::new();
    h.update(desc.as_bytes());
    h.finish()
}

/// Errors surfaced by the checkpoint store. Every variant carries
/// enough context to name the offending file and what went wrong.
#[derive(Debug)]
pub enum CheckpointError {
    /// An underlying filesystem operation failed.
    Io {
        /// Path the operation touched.
        path: PathBuf,
        /// What the store was doing (e.g. "create checkpoint dir").
        context: &'static str,
        /// The OS error.
        source: std::io::Error,
    },
    /// A chunk or manifest exists but its bytes are damaged.
    Corrupt {
        /// Path of the damaged file.
        path: PathBuf,
        /// Human-readable description of the damage.
        detail: String,
    },
    /// The directory belongs to a different run configuration.
    Mismatch {
        /// Which field disagreed ("fingerprint", "graph", ...).
        what: &'static str,
        /// Value recorded in the manifest or chunk.
        expected: String,
        /// Value of the current run.
        found: String,
    },
    /// A chunk's epoch stamp is not the one the store holds for its
    /// root — the chunk is left over from another incarnation and
    /// must not be replayed.
    Stale {
        /// Root index of the stale chunk.
        root: usize,
        /// Epoch stamped inside the chunk file.
        chunk_epoch: u64,
        /// Epoch the store holds for this root.
        expected_epoch: u64,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io {
                path,
                context,
                source,
            } => write!(f, "checkpoint io: {context} {}: {source}", path.display()),
            Self::Corrupt { path, detail } => {
                write!(f, "checkpoint corrupt: {}: {detail}", path.display())
            }
            Self::Mismatch {
                what,
                expected,
                found,
            } => write!(
                f,
                "checkpoint mismatch: {what} was {expected}, run has {found}"
            ),
            Self::Stale {
                root,
                chunk_epoch,
                expected_epoch,
            } => write!(
                f,
                "checkpoint stale: root {root} chunk stamped epoch {chunk_epoch}, \
                 store expects {expected_epoch}"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

fn ioerr(path: &Path, context: &'static str, source: std::io::Error) -> CheckpointError {
    CheckpointError::Io {
        path: path.to_path_buf(),
        context,
        source,
    }
}

fn corrupt(path: &Path, detail: String) -> CheckpointError {
    CheckpointError::Corrupt {
        path: path.to_path_buf(),
        detail,
    }
}

/// The stamp words opening a chunk file.
#[derive(Clone, Copy, Debug)]
struct ChunkHeader {
    epoch: u64,
    root: u64,
    vertices: u64,
    fingerprint: u64,
    graph: u64,
    dense: bool,
    entries: u64,
}

impl ChunkHeader {
    fn to_bytes(self) -> [u8; HEADER_BYTES] {
        let words = [
            self.epoch,
            self.root,
            self.vertices,
            self.fingerprint,
            self.graph,
            u64::from(self.dense),
            self.entries,
        ];
        let mut out = [0u8; HEADER_BYTES];
        out[..8].copy_from_slice(CHUNK_MAGIC);
        for (slot, w) in out[8..].chunks_exact_mut(8).zip(words) {
            slot.copy_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// Parse the first [`HEADER_BYTES`] of `bytes`.
    fn parse(path: &Path, bytes: &[u8]) -> Result<Self, CheckpointError> {
        if bytes.len() < HEADER_BYTES {
            return Err(corrupt(
                path,
                format!("chunk truncated at {} bytes", bytes.len()),
            ));
        }
        if &bytes[..8] != CHUNK_MAGIC {
            return Err(corrupt(path, "bad chunk magic".into()));
        }
        let word = |i: usize| {
            u64::from_le_bytes(
                bytes[8 * i..8 * i + 8]
                    .try_into()
                    .expect("header length checked above"),
            )
        };
        let dense = match word(6) {
            0 => false,
            1 => true,
            other => return Err(corrupt(path, format!("unknown chunk encoding {other}"))),
        };
        Ok(Self {
            epoch: word(1),
            root: word(2),
            vertices: word(3),
            fingerprint: word(4),
            graph: word(5),
            dense,
            entries: word(7),
        })
    }

    /// A chunk of this run must be stamped with the root its file
    /// name gives and with the run's vertex count.
    fn check_slot(&self, path: &Path, idx: usize, vertices: usize) -> Result<(), CheckpointError> {
        if self.root != idx as u64 {
            return Err(corrupt(
                path,
                format!("chunk stamped for root {}, expected {idx}", self.root),
            ));
        }
        if self.vertices != vertices as u64 {
            return Err(corrupt(
                path,
                format!("chunk has {} vertices, graph has {vertices}", self.vertices),
            ));
        }
        Ok(())
    }
}

/// On-disk checkpoint store for one (graph, options) run.
///
/// Thread-safe: workers call [`CheckpointStore::record`] concurrently;
/// each call writes its own chunk file, then marks the root completed
/// under an internal lock.
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    vertices: usize,
    fingerprint: u64,
    graph: u64,
    epoch: u64,
    /// Per root, the epoch stamped in its chunk; `None` until recorded.
    completed: Mutex<Vec<Option<u64>>>,
}

impl CheckpointStore {
    /// Open (or create) a checkpoint directory for a run over
    /// `num_roots` roots on a graph with `vertices` vertices.
    ///
    /// If a manifest already exists it must match `fingerprint`,
    /// `graph`, `vertices`, and `num_roots` exactly. Every
    /// `root-<idx>.chunk` stamped with this `fingerprint` and `graph`
    /// becomes visible through [`CheckpointStore::completed`]; chunks
    /// stamped for another configuration are ignored, and a matching
    /// chunk whose header is damaged, names another root or holds
    /// another vertex count is `Corrupt`. Each successful open bumps
    /// the epoch past every one seen, so chunks written by abandoned
    /// incarnations are detectable as stale, and then writes the
    /// manifest.
    pub fn open(
        dir: &Path,
        fingerprint: u64,
        graph: u64,
        vertices: usize,
        num_roots: usize,
    ) -> Result<Self, CheckpointError> {
        fs::create_dir_all(dir).map_err(|e| ioerr(dir, "create checkpoint dir", e))?;
        let manifest = dir.join("manifest.txt");
        let mut epoch = 0u64;
        match fs::read_to_string(&manifest) {
            Ok(text) => {
                let [fp, gd, nv, nr, ep] = parse_manifest(&manifest, &text)?;
                check_match("fingerprint", fp, fingerprint)?;
                check_match("graph", gd, graph)?;
                for (what, recorded, run) in [
                    ("vertices", nv, vertices as u64),
                    ("roots", nr, num_roots as u64),
                ] {
                    if recorded != run {
                        return Err(CheckpointError::Mismatch {
                            what,
                            expected: recorded.to_string(),
                            found: run.to_string(),
                        });
                    }
                }
                epoch = ep;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                return Err(corrupt(&manifest, "manifest is not valid UTF-8".into()))
            }
            Err(e) => return Err(ioerr(&manifest, "read manifest", e)),
        }

        let mut completed: Vec<Option<u64>> = vec![None; num_roots];
        let entries = fs::read_dir(dir).map_err(|e| ioerr(dir, "list checkpoint dir", e))?;
        for entry in entries {
            let entry = entry.map_err(|e| ioerr(dir, "list checkpoint dir", e))?;
            let name = entry.file_name();
            let Some(idx) = name
                .to_str()
                .and_then(|s| s.strip_prefix("root-")?.strip_suffix(".chunk"))
                .and_then(|s| s.parse::<usize>().ok())
            else {
                continue;
            };
            let path = entry.path();
            let header = read_header(&path)?;
            if header.fingerprint != fingerprint || header.graph != graph {
                // Left by another configuration (its manifest since
                // removed); never replayed, overwritten when recorded.
                continue;
            }
            if idx >= num_roots {
                return Err(corrupt(
                    &path,
                    format!("chunk for root {idx} of {num_roots} roots"),
                ));
            }
            header.check_slot(&path, idx, vertices)?;
            epoch = epoch.max(header.epoch);
            completed[idx] = Some(header.epoch);
        }

        let store = Self {
            dir: dir.to_path_buf(),
            vertices,
            fingerprint,
            graph,
            epoch: epoch + 1,
            completed: Mutex::new(completed),
        };
        store.write_manifest(num_roots)?;
        Ok(store)
    }

    /// Which roots already have a recorded contribution, in root-index
    /// order.
    #[must_use]
    pub fn completed(&self) -> Vec<bool> {
        let completed = self.completed.lock().expect("checkpoint lock poisoned");
        completed.iter().map(Option::is_some).collect()
    }

    /// Epoch of the current incarnation (1 for a fresh directory).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Record root `idx`'s completed contribution vector.
    ///
    /// The chunk is synced and renamed into place before the root is
    /// marked completed, so once this returns the root survives a
    /// crash; a crash before that leaves the root merely unrecorded.
    pub fn record(&self, idx: usize, scores: &[f64]) -> Result<(), CheckpointError> {
        let n = scores.len();
        let nonzero = scores.iter().filter(|s| s.to_bits() != 0).count();
        // Sparse entries name their vertex in a u32.
        let dense = 8 * n < SPARSE_ENTRY_BYTES * nonzero || u32::try_from(n).is_err();
        let header = ChunkHeader {
            epoch: self.epoch,
            root: idx as u64,
            vertices: n as u64,
            fingerprint: self.fingerprint,
            graph: self.graph,
            dense,
            entries: (if dense { n } else { nonzero }) as u64,
        };
        let body_bytes = if dense {
            8 * n
        } else {
            (SPARSE_ENTRY_BYTES * nonzero).next_multiple_of(8)
        };
        let mut chunk = Vec::with_capacity(HEADER_BYTES + body_bytes + 8);
        chunk.extend_from_slice(&header.to_bytes());
        if dense {
            for &s in scores {
                chunk.extend_from_slice(&s.to_bits().to_le_bytes());
            }
        } else {
            for (v, &s) in scores.iter().enumerate().filter(|(_, s)| s.to_bits() != 0) {
                chunk.extend_from_slice(&(v as u32).to_le_bytes());
                chunk.extend_from_slice(&s.to_bits().to_le_bytes());
            }
            chunk.resize(HEADER_BYTES + body_bytes, 0);
        }
        let trailer = word_checksum(&chunk);
        chunk.extend_from_slice(&trailer.to_le_bytes());
        write_atomic(&self.chunk_path(idx), &chunk)?;

        let mut completed = self.completed.lock().expect("checkpoint lock poisoned");
        completed[idx] = Some(self.epoch);
        Ok(())
    }

    /// Load root `idx`'s stored contribution vector, verifying the
    /// chunk's checksum, magic, epoch stamp, identity stamps and body
    /// length.
    pub fn load(&self, idx: usize) -> Result<Vec<f64>, CheckpointError> {
        let path = self.chunk_path(idx);
        let expected = {
            let completed = self.completed.lock().expect("checkpoint lock poisoned");
            completed.get(idx).copied().flatten()
        };
        let Some(expected_epoch) = expected else {
            return Err(corrupt(&path, format!("root {idx} not recorded")));
        };
        let bytes = fs::read(&path).map_err(|e| ioerr(&path, "read chunk", e))?;
        if bytes.len() < HEADER_BYTES + 8 || bytes.len() % 8 != 0 {
            return Err(corrupt(
                &path,
                format!("chunk truncated at {} bytes", bytes.len()),
            ));
        }
        let (payload, trailer) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(trailer.try_into().expect("split_at gave 8 bytes"));
        if word_checksum(payload) != stored {
            return Err(corrupt(&path, "chunk checksum mismatch".into()));
        }
        let header = ChunkHeader::parse(&path, payload)?;
        if header.epoch != expected_epoch {
            return Err(CheckpointError::Stale {
                root: idx,
                chunk_epoch: header.epoch,
                expected_epoch,
            });
        }
        check_match("fingerprint", header.fingerprint, self.fingerprint)?;
        check_match("graph", header.graph, self.graph)?;
        let n = self.vertices;
        header.check_slot(&path, idx, n)?;
        let body = &payload[HEADER_BYTES..];
        let entries = usize::try_from(header.entries).unwrap_or(usize::MAX);
        let body_ok = if header.dense {
            entries == n && body.len() == 8 * n
        } else {
            entries <= n && body.len() == (SPARSE_ENTRY_BYTES * entries).next_multiple_of(8)
        };
        if !body_ok {
            return Err(corrupt(
                &path,
                format!(
                    "chunk body is {} bytes for {entries} {} entries",
                    body.len(),
                    if header.dense { "dense" } else { "sparse" }
                ),
            ));
        }
        let bits = |b: &[u8]| f64::from_bits(u64::from_le_bytes(b.try_into().expect("8 bytes")));
        if header.dense {
            return Ok(body.chunks_exact(8).map(bits).collect());
        }
        let mut scores = vec![0.0f64; n];
        for e in body.chunks_exact(SPARSE_ENTRY_BYTES).take(entries) {
            let v = u32::from_le_bytes(e[..4].try_into().expect("entry of 12")) as usize;
            if v >= n {
                return Err(corrupt(&path, format!("entry vertex {v} out of range")));
            }
            scores[v] = bits(&e[4..]);
        }
        Ok(scores)
    }

    fn chunk_path(&self, idx: usize) -> PathBuf {
        self.dir.join(format!("root-{idx}.chunk"))
    }

    fn write_manifest(&self, num_roots: usize) -> Result<(), CheckpointError> {
        let values = [
            format!("{:016x}", self.fingerprint),
            format!("{:016x}", self.graph),
            self.vertices.to_string(),
            num_roots.to_string(),
            self.epoch.to_string(),
        ];
        let mut text = format!("{MANIFEST_HEADER}\n");
        for (key, value) in MANIFEST_KEYS.iter().zip(values) {
            text.push_str(&format!("{key} {value}\n"));
        }
        write_atomic(&self.dir.join("manifest.txt"), text.as_bytes())
    }
}

/// Read and parse the header of the chunk at `path`.
fn read_header(path: &Path) -> Result<ChunkHeader, CheckpointError> {
    let mut bytes = Vec::with_capacity(HEADER_BYTES);
    fs::File::open(path)
        .and_then(|f| f.take(HEADER_BYTES as u64).read_to_end(&mut bytes))
        .map_err(|e| ioerr(path, "read chunk header", e))?;
    ChunkHeader::parse(path, &bytes)
}

fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), CheckpointError> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = fs::File::create(&tmp).map_err(|e| ioerr(&tmp, "create temp file", e))?;
        f.write_all(bytes)
            .map_err(|e| ioerr(&tmp, "write temp file", e))?;
        f.sync_all().map_err(|e| ioerr(&tmp, "sync temp file", e))?;
    }
    fs::rename(&tmp, path).map_err(|e| ioerr(path, "rename into place", e))?;
    // The rename is durable only once the directory entry is: sync
    // the directory too, or a power loss can drop a recorded root.
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    fs::File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| ioerr(dir, "sync checkpoint directory", e))
}

fn check_match(what: &'static str, expected: u64, found: u64) -> Result<(), CheckpointError> {
    if expected != found {
        return Err(CheckpointError::Mismatch {
            what,
            expected: format!("{expected:016x}"),
            found: format!("{found:016x}"),
        });
    }
    Ok(())
}

/// Hand-rolled parse of the text manifest (the vendored serde stack
/// only serializes, so the manifest is a line-oriented format parsed
/// here directly). Returns the values of [`MANIFEST_KEYS`] in order;
/// the two digests are hex, the counts decimal.
fn parse_manifest(path: &Path, text: &str) -> Result<[u64; 5], CheckpointError> {
    let mut lines = text.lines();
    if lines.next() != Some(MANIFEST_HEADER) {
        return Err(corrupt(path, "bad manifest header".into()));
    }
    let mut values = [None; MANIFEST_KEYS.len()];
    for line in lines.map(str::trim).filter(|l| !l.is_empty()) {
        let (key, value) = line
            .split_once(' ')
            .ok_or_else(|| corrupt(path, format!("malformed manifest line: {line:?}")))?;
        let slot = MANIFEST_KEYS
            .iter()
            .position(|k| *k == key)
            .ok_or_else(|| corrupt(path, format!("unknown manifest key {key:?}")))?;
        let radix = if slot < 2 { 16 } else { 10 };
        values[slot] = Some(
            u64::from_str_radix(value.trim(), radix)
                .map_err(|e| corrupt(path, format!("bad {key}: {e}")))?,
        );
    }
    let mut out = [0u64; MANIFEST_KEYS.len()];
    for ((slot, value), key) in out.iter_mut().zip(values).zip(MANIFEST_KEYS) {
        *slot = value.ok_or_else(|| corrupt(path, format!("manifest missing {key}")))?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let id = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("bc-checkpoint-{tag}-{}-{id}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|s| s.to_bits()).collect()
    }

    /// The chunk's encoding word: 1 for a dense body, 0 for sparse.
    fn encoding(dir: &Path, idx: usize) -> u8 {
        fs::read(dir.join(format!("root-{idx}.chunk"))).expect("read chunk")[48]
    }

    #[test]
    fn record_load_round_trips_bitwise() {
        let dir = temp_dir("roundtrip");
        let store = CheckpointStore::open(&dir, 7, 9, 5, 3).expect("open");
        let scores = vec![0.0, 1.5, 0.0, -2.25, 1e-300];
        store.record(1, &scores).expect("record");
        let back = store.load(1).expect("load");
        assert_eq!(bits(&back), bits(&scores));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn special_values_round_trip_bitwise_dense_and_sparse() {
        let specials = [
            0.0,
            -0.0,
            f64::from_bits(1),
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::from_bits(0x7ff8_0000_dead_beef),
        ];
        // Twelve vertices, eleven nonzero bit patterns: dense is smaller.
        let mut dense = specials.to_vec();
        dense.extend([1.0; 6]);
        // Thirty vertices, five nonzero bit patterns: sparse is smaller.
        let mut sparse = specials.to_vec();
        sparse.extend([0.0; 24]);
        for (scores, want_dense) in [(dense, 1), (sparse, 0)] {
            let dir = temp_dir("specials");
            let store = CheckpointStore::open(&dir, 7, 9, scores.len(), 1).expect("open");
            store.record(0, &scores).expect("record");
            assert_eq!(encoding(&dir, 0), want_dense);
            assert_eq!(bits(&store.load(0).expect("load")), bits(&scores));
            let reopened = CheckpointStore::open(&dir, 7, 9, scores.len(), 1).expect("reopen");
            assert_eq!(bits(&reopened.load(0).expect("load")), bits(&scores));
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn reopen_sees_completed_roots_and_bumps_epoch() {
        let dir = temp_dir("resume");
        {
            let store = CheckpointStore::open(&dir, 7, 9, 4, 4).expect("open");
            assert_eq!(store.epoch(), 1);
            store.record(0, &[1.0, 0.0, 0.0, 0.0]).expect("record");
            store.record(2, &[0.0, 0.0, 3.0, 0.0]).expect("record");
        }
        let store = CheckpointStore::open(&dir, 7, 9, 4, 4).expect("reopen");
        assert_eq!(store.epoch(), 2);
        assert_eq!(store.completed(), vec![true, false, true, false]);
        assert_eq!(store.load(2).expect("load")[2], 3.0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_mismatch_is_rejected() {
        let dir = temp_dir("mismatch");
        drop(CheckpointStore::open(&dir, 7, 9, 4, 4).expect("open"));
        let err = CheckpointStore::open(&dir, 8, 9, 4, 4).expect_err("must reject");
        assert!(matches!(
            err,
            CheckpointError::Mismatch {
                what: "fingerprint",
                ..
            }
        ));
        let err = CheckpointStore::open(&dir, 7, 10, 4, 4).expect_err("must reject");
        assert!(matches!(
            err,
            CheckpointError::Mismatch { what: "graph", .. }
        ));
        let err = CheckpointStore::open(&dir, 7, 9, 4, 5).expect_err("must reject");
        assert!(matches!(
            err,
            CheckpointError::Mismatch { what: "roots", .. }
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn chunks_of_another_configuration_are_not_completed() {
        let dir = temp_dir("foreign");
        let scores = [0.0, 2.0, 0.0, 4.0];
        let store = CheckpointStore::open(&dir, 7, 9, 4, 4).expect("open");
        store.record(1, &scores).expect("record");
        drop(store);
        let manifest = dir.join("manifest.txt");
        for (fp, graph) in [(8, 9), (7, 10)] {
            fs::remove_file(&manifest).expect("delete manifest");
            let other = CheckpointStore::open(&dir, fp, graph, 4, 4).expect("open other");
            assert_eq!(other.completed(), vec![false; 4], "fp {fp} graph {graph}");
        }
        // The run that wrote the chunk still finds it without a manifest.
        fs::remove_file(&manifest).expect("delete manifest");
        let store = CheckpointStore::open(&dir, 7, 9, 4, 4).expect("reopen");
        assert_eq!(store.completed(), vec![false, true, false, false]);
        assert_eq!(bits(&store.load(1).expect("load")), bits(&scores));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_chunk_is_rejected() {
        let dir = temp_dir("corrupt");
        let store = CheckpointStore::open(&dir, 7, 9, 4, 4).expect("open");
        store.record(1, &[0.0, 2.0, 0.0, 4.0]).expect("record");
        let path = dir.join("root-1.chunk");
        let mut bytes = fs::read(&path).expect("read chunk");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        fs::write(&path, &bytes).expect("rewrite chunk");
        let err = store.load(1).expect_err("must reject");
        assert!(matches!(err, CheckpointError::Corrupt { .. }), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_single_byte_flip_is_corrupt() {
        // Sparse with a padded body, sparse without, and dense.
        let cases: [&[f64]; 3] = [
            &[0.0, 2.0, 0.0, 0.0],
            &[0.0, 2.0, 0.0, 4.0],
            &[1.0, 2.0, -0.0, 4.0],
        ];
        for scores in cases {
            let dir = temp_dir("flips");
            let store = CheckpointStore::open(&dir, 7, 9, 4, 4).expect("open");
            store.record(1, scores).expect("record");
            let path = dir.join("root-1.chunk");
            let clean = fs::read(&path).expect("read chunk");
            for i in 0..clean.len() {
                let mut bytes = clean.clone();
                bytes[i] ^= 0x01;
                fs::write(&path, &bytes).expect("rewrite chunk");
                let err = store.load(1).expect_err("flip must be rejected");
                assert!(
                    matches!(err, CheckpointError::Corrupt { .. }),
                    "byte {i} of {}: {err}",
                    clean.len()
                );
            }
            fs::write(&path, &clean).expect("restore chunk");
            assert_eq!(bits(&store.load(1).expect("load")), bits(scores));
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn truncated_or_misstamped_chunks_are_errors_not_panics() {
        let dir = temp_dir("truncated");
        let store = CheckpointStore::open(&dir, 7, 9, 4, 4).expect("open");
        store.record(1, &[1.0, 2.0, 3.0, 4.0]).expect("record");
        let path = dir.join("root-1.chunk");
        let clean = fs::read(&path).expect("read chunk");
        drop(store);
        for len in [0, 7, HEADER_BYTES - 1, HEADER_BYTES, clean.len() - 1] {
            fs::write(&path, &clean[..len]).expect("truncate");
            let err = CheckpointStore::open(&dir, 7, 9, 4, 4)
                .and_then(|s| s.load(1))
                .expect_err("truncated chunk must be rejected");
            assert!(
                matches!(err, CheckpointError::Corrupt { .. }),
                "{len}: {err}"
            );
        }

        // Root 5 of an 8-root store lands in a 4-root directory, once
        // under its own name and once under an in-range one.
        let wide = temp_dir("wide");
        let store = CheckpointStore::open(&wide, 7, 9, 4, 8).expect("open wide");
        store.record(5, &[1.0, 2.0, 3.0, 4.0]).expect("record");
        let chunk5 = fs::read(wide.join("root-5.chunk")).expect("read chunk");
        fs::write(&path, &clean).expect("restore");
        for name in ["root-5.chunk", "root-1.chunk"] {
            let narrow = temp_dir("narrow");
            fs::create_dir_all(&narrow).expect("mkdir");
            fs::write(narrow.join(name), &chunk5).expect("plant");
            let err = CheckpointStore::open(&narrow, 7, 9, 4, 4).expect_err("must reject");
            assert!(
                matches!(err, CheckpointError::Corrupt { .. }),
                "{name}: {err}"
            );
            let _ = fs::remove_dir_all(&narrow);
        }

        // A five-vertex chunk under a four-vertex run.
        let five = temp_dir("five");
        let store = CheckpointStore::open(&five, 7, 9, 5, 4).expect("open five");
        store.record(1, &[1.0, 2.0, 3.0, 4.0, 5.0]).expect("record");
        fs::remove_file(five.join("manifest.txt")).expect("delete manifest");
        let err = CheckpointStore::open(&five, 7, 9, 4, 4).expect_err("must reject");
        assert!(matches!(err, CheckpointError::Corrupt { .. }), "{err}");
        for d in [&dir, &wide, &five] {
            let _ = fs::remove_dir_all(d);
        }
    }

    #[test]
    fn stale_chunk_from_old_epoch_is_flagged() {
        let dir = temp_dir("stale");
        let old_bytes;
        {
            let store = CheckpointStore::open(&dir, 7, 9, 4, 4).expect("open");
            store.record(1, &[0.0, 2.0, 0.0, 0.0]).expect("record");
            old_bytes = fs::read(dir.join("root-1.chunk")).expect("read chunk");
        }
        let store = CheckpointStore::open(&dir, 7, 9, 4, 4).expect("reopen");
        store.record(1, &[0.0, 5.0, 0.0, 0.0]).expect("re-record");
        // A crashed old incarnation's chunk reappears over the fresh one.
        fs::write(dir.join("root-1.chunk"), &old_bytes).expect("overwrite");
        let err = store.load(1).expect_err("must flag stale");
        assert!(
            matches!(
                err,
                CheckpointError::Stale {
                    root: 1,
                    chunk_epoch: 1,
                    expected_epoch: 2,
                }
            ),
            "{err}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn garbage_manifest_is_rejected_not_panicking() {
        let dir = temp_dir("garbage");
        fs::create_dir_all(&dir).expect("mkdir");
        fs::write(dir.join("manifest.txt"), b"not a manifest\x00\xff").expect("write");
        let err = CheckpointStore::open(&dir, 7, 9, 4, 4).expect_err("must reject");
        assert!(matches!(err, CheckpointError::Corrupt { .. }), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn digests_are_order_sensitive() {
        let a = options_fingerprint("method=bc traversal=push");
        let b = options_fingerprint("method=bc traversal=pull");
        assert_ne!(a, b);
        let g1 = bc_graph::gen::watts_strogatz(64, 4, 0.1, 1);
        let g2 = bc_graph::gen::watts_strogatz(64, 4, 0.1, 2);
        assert_ne!(graph_digest(&g1), graph_digest(&g2));
        assert_eq!(graph_digest(&g1), graph_digest(&g1));
    }
}
