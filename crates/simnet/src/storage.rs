//! Simulated persistent storage.
//!
//! DUPTester (paper §6.1.1) "preserves any persistent data generated by a
//! container in a shared directory between each container instance and the
//! host machine, so that the persistent data is accessible by other
//! containers even after the container who generated the data shuts down".
//!
//! [`StorageMap`] reproduces those semantics: files are keyed by *host*, not
//! by process generation, so a node that is stopped and replaced by a newer
//! software version reads exactly the bytes its predecessor wrote. This is
//! the enabling mechanism for every persistent-data incompatibility in the
//! study (60% of incompatible cross-version interactions, Finding 5).
//!
//! Host names are *interned* into dense [`HostId`]s when first seen. The
//! simulator's event loop addresses storage by id — a `Vec` index — so the
//! per-dispatch cost is a bounds check, not a string-keyed tree lookup. The
//! string-keyed API ([`StorageMap::host_mut`] / [`StorageMap::host`]) is kept
//! as a thin wrapper for harness setup and post-mortem inspection.
//!
//! # Crash durability
//!
//! Real file systems do not make every `write(2)` durable: bytes sit in a
//! page cache until an `fsync`, and a crash in between loses — or, for an
//! append stream, *tears* — the unflushed tail. [`Durability`] selects how
//! faithfully a host models that window:
//!
//! - [`Durability::Strict`] — every mutation is immediately durable (the
//!   pre-crash-model behaviour; the default).
//! - [`Durability::Buffered`] — unflushed mutations survive a crash
//!   all-or-nothing per file.
//! - [`Durability::Torn`] — an unflushed `append` suffix may additionally be
//!   cut at an arbitrary byte boundary.
//!
//! In every mode, unflushed data stays **visible** to `read`/`list`/`exists`
//! — the OS serves reads from the page cache — only crash survival differs.
//! Two invariants hold regardless of mode: bytes that were flushed before a
//! crash survive byte-identical, and a torn tail only ever shortens the
//! unflushed suffix of an append stream. A file *replaced* via
//! [`HostStorage::write`] is atomic at crash: it survives whole or reverts
//! to its last flushed image (rename-style replacement), it is never
//! byte-torn. Deletes are modelled as immediately durable — a
//! simplification, noted in DESIGN.md.
//!
//! Crash outcomes are drawn from a caller-supplied [`crate::SimRng`] stream
//! ([`HostStorage::crash_materialize`]), so the same seed replays a
//! byte-identical recovery image.

use crate::rng::SimRng;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Bound;

/// How faithfully a host's storage models the crash-durability window
/// between a write and its flush.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Durability {
    /// Every mutation is immediately durable; crashes lose nothing.
    #[default]
    Strict,
    /// Unflushed mutations survive a crash all-or-nothing per file.
    Buffered,
    /// Like `Buffered`, but an unflushed `append` suffix may also be torn
    /// at an arbitrary byte boundary.
    Torn,
}

impl fmt::Display for Durability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Durability::Strict => write!(f, "strict"),
            Durability::Buffered => write!(f, "buffered"),
            Durability::Torn => write!(f, "torn"),
        }
    }
}

impl std::str::FromStr for Durability {
    type Err = String;

    fn from_str(s: &str) -> Result<Durability, String> {
        let found = Durability::ALL.into_iter().find(|d| d.to_string() == s);
        found.ok_or_else(|| format!("unknown durability {s:?}"))
    }
}

impl Durability {
    /// All durability modes, in increasing order of adversity.
    pub const ALL: [Durability; 3] = [Durability::Strict, Durability::Buffered, Durability::Torn];
}

/// One file's bytes plus its durability bookkeeping.
///
/// `data` is the *visible* image (what reads see). When `base_intact` is
/// true, `data[..durable_len]` is the durable prefix and the rest is an
/// unflushed append suffix. When false, the file was rewritten since its
/// last flush: `shadow` holds the last flushed image (consulted only at
/// crash) and `data` is entirely unflushed. `durable_exists` records whether
/// any flushed image of the file exists at all.
#[derive(Debug, Default, Clone)]
struct FileState {
    data: Vec<u8>,
    durable_len: usize,
    base_intact: bool,
    shadow: Vec<u8>,
    durable_exists: bool,
    dirty: bool,
}

impl FileState {
    /// Marks the current visible image as fully durable.
    fn mark_durable(&mut self) {
        self.durable_len = self.data.len();
        self.base_intact = true;
        self.durable_exists = true;
        self.dirty = false;
    }

    /// Field-wise copy that reuses this state's heap capacity (the derived
    /// `clone_from` would clone-and-replace, reallocating both buffers).
    fn copy_from(&mut self, src: &FileState) {
        self.data.clone_from(&src.data);
        self.durable_len = src.durable_len;
        self.base_intact = src.base_intact;
        self.shadow.clone_from(&src.shadow);
        self.durable_exists = src.durable_exists;
        self.dirty = src.dirty;
    }
}

/// The files of one simulated host, path → contents.
///
/// Paths are flat strings; systems use `/`-separated names by convention
/// (e.g. `"data/fsimage"`, `"commitlog/seg-0"`).
#[derive(Debug, Default, Clone)]
pub struct HostStorage {
    files: BTreeMap<String, FileState>,
    mode: Durability,
}

impl HostStorage {
    /// Creates empty storage (durability [`Durability::Strict`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// The host's current durability mode.
    pub fn durability(&self) -> Durability {
        self.mode
    }

    /// Switches the durability mode. Switching to [`Durability::Strict`]
    /// flushes everything (strict storage has no unflushed state by
    /// definition).
    pub fn set_durability(&mut self, mode: Durability) {
        self.mode = mode;
        if mode == Durability::Strict {
            self.flush_all();
        }
    }

    /// Writes (creates or replaces) a file; returns `true` if it created
    /// it.
    ///
    /// Replacement is atomic with respect to crashes (rename-style): until
    /// the file is flushed, a crash either keeps the new image whole or
    /// reverts to the last flushed one — never a byte mixture.
    pub fn write(&mut self, path: &str, contents: impl Into<Vec<u8>>) -> bool {
        let contents = contents.into();
        if let Some(f) = self.files.get_mut(path) {
            if self.mode != Durability::Strict && f.base_intact {
                // First rewrite since the last flush: remember the durable
                // image so a crash can revert to it.
                f.shadow.clear();
                f.shadow.extend_from_slice(&f.data[..f.durable_len]);
                f.base_intact = false;
            }
            f.data.clear();
            f.data.extend_from_slice(&contents);
            if self.mode == Durability::Strict {
                f.mark_durable();
            } else {
                f.dirty = true;
            }
            return false;
        }
        let mut f = FileState {
            data: contents,
            ..FileState::default()
        };
        if self.mode == Durability::Strict {
            f.mark_durable();
        } else {
            // A never-flushed write-created file is atomic at crash
            // (survives whole or vanishes), so its base is not an append
            // stream: base_intact stays false.
            f.dirty = true;
        }
        self.files.insert(path.to_string(), f);
        true
    }

    /// Appends bytes to a file, creating it if absent.
    ///
    /// The appended suffix is the only part of a file a
    /// [`Durability::Torn`] crash may cut mid-byte-stream.
    pub fn append(&mut self, path: &str, contents: &[u8]) {
        if let Some(f) = self.files.get_mut(path) {
            f.data.extend_from_slice(contents);
            if self.mode == Durability::Strict {
                f.mark_durable();
            } else {
                f.dirty = true;
            }
            return;
        }
        let mut f = FileState {
            data: contents.to_vec(),
            base_intact: true,
            ..FileState::default()
        };
        if self.mode == Durability::Strict {
            f.mark_durable();
        } else {
            f.dirty = true;
        }
        self.files.insert(path.to_string(), f);
    }

    /// Flushes one file: its current visible image becomes durable.
    /// No-op if the file does not exist. Metadata-only (allocation-free).
    pub fn flush(&mut self, path: &str) {
        if let Some(f) = self.files.get_mut(path) {
            f.mark_durable();
        }
    }

    /// Flushes every file (the `sync(2)` analog). Metadata-only.
    pub fn flush_all(&mut self) {
        for f in self.files.values_mut() {
            if f.dirty {
                f.mark_durable();
            }
        }
    }

    /// `true` if any file has unflushed bytes or an unflushed replacement.
    pub fn has_unflushed(&self) -> bool {
        self.files.values().any(|f| f.dirty)
    }

    /// Total bytes that would be at risk in a crash right now.
    pub fn unflushed_bytes(&self) -> usize {
        self.files
            .values()
            .filter(|f| f.dirty)
            .map(|f| {
                if f.base_intact {
                    f.data.len() - f.durable_len
                } else {
                    f.data.len()
                }
            })
            .sum()
    }

    /// Materializes a crash: every unflushed mutation is resolved against
    /// `rng` per the host's durability mode, leaving the recovery image the
    /// next process generation will boot from.
    ///
    /// [`Durability::Strict`] draws nothing and changes nothing. Otherwise,
    /// files are visited in path order and **only dirty files consume
    /// draws**, so the outcome is a pure function of the RNG stream and the
    /// set of unflushed mutations — same seed, byte-identical image.
    pub fn crash_materialize(&mut self, rng: &mut SimRng) {
        if self.mode == Durability::Strict {
            return;
        }
        let mode = self.mode;
        self.files.retain(|_, f| {
            if !f.dirty {
                return true;
            }
            if f.base_intact {
                // Unflushed append suffix: keep a prefix of it.
                let suffix = f.data.len() - f.durable_len;
                let keep = match mode {
                    Durability::Torn => rng.next_below(suffix as u64 + 1) as usize,
                    _ => {
                        if rng.chance(0.5) {
                            suffix
                        } else {
                            0
                        }
                    }
                };
                f.data.truncate(f.durable_len + keep);
            } else if !rng.chance(0.5) {
                // Unflushed replacement that did not survive: revert to the
                // last flushed image (never byte-torn).
                f.data.clear();
                f.data.extend_from_slice(&f.shadow);
            }
            let existed = f.durable_exists;
            f.mark_durable();
            f.durable_exists = existed || !f.data.is_empty();
            // Files whose only standing was unflushed data the crash erased
            // entirely are dropped from the recovery image.
            f.durable_exists
        });
    }

    /// Reads a file, or `None` if it does not exist. Unflushed bytes are
    /// visible (reads are served from the page cache).
    pub fn read(&self, path: &str) -> Option<&[u8]> {
        self.files.get(path).map(|f| f.data.as_slice())
    }

    /// Reads the *durable* image of a file — what a crash right now would
    /// leave behind at best (a torn crash may leave even less of an append
    /// suffix). `None` if no flushed image exists.
    pub fn read_durable(&self, path: &str) -> Option<&[u8]> {
        let f = self.files.get(path)?;
        if f.base_intact {
            (f.durable_exists || f.durable_len > 0).then(|| &f.data[..f.durable_len])
        } else {
            f.durable_exists.then_some(f.shadow.as_slice())
        }
    }

    /// Returns `true` if the file exists.
    pub fn exists(&self, path: &str) -> bool {
        self.files.contains_key(path)
    }

    /// Deletes a file; returns `true` if it existed. Deletes are modelled
    /// as immediately durable in every mode.
    pub fn delete(&mut self, path: &str) -> bool {
        self.files.remove(path).is_some()
    }

    /// Iterates the paths with the given prefix, in lexicographic order,
    /// without copying them: a walk from the first key at or after `prefix`
    /// to the last one that still starts with it.
    pub fn paths<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = &'a str> {
        self.files
            .range::<str, _>((Bound::Included(prefix), Bound::Unbounded))
            .map(|(path, _)| path.as_str())
            .take_while(move |path| path.starts_with(prefix))
    }

    /// Lists paths with the given prefix, in lexicographic order.
    pub fn list(&self, prefix: &str) -> Vec<String> {
        self.paths(prefix).map(str::to_string).collect()
    }

    /// Deletes every path with the given prefix; returns the number removed.
    pub fn delete_prefix(&mut self, prefix: &str) -> usize {
        let before = self.files.len();
        self.files.retain(|k, _| !k.starts_with(prefix));
        before - self.files.len()
    }

    /// Number of files.
    pub fn file_count(&self) -> usize {
        self.files.len()
    }

    /// Makes this host a copy of `src`, writing into retained capacity.
    /// Files `src` lacks are dropped; files `src` has but this host lost
    /// (e.g. deleted by divergent traffic) are re-inserted — the one path
    /// here that allocates.
    pub(crate) fn copy_from(&mut self, src: &HostStorage) {
        self.mode = src.mode;
        self.files.retain(|k, _| src.files.contains_key(k));
        for (name, state) in &src.files {
            match self.files.get_mut(name) {
                Some(f) => f.copy_from(state),
                None => {
                    self.files.insert(name.clone(), state.clone());
                }
            }
        }
    }
}

/// Interned identifier of a simulated host.
///
/// Ids are dense (`0..host_count`) and assigned in first-seen order, so they
/// index directly into the [`StorageMap`]'s backing `Vec`. The node slots
/// store a `HostId` instead of the host name, which is what lets the
/// event-loop hot path reach a node's storage without cloning a `String` or
/// walking a `BTreeMap`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HostId(u32);

impl HostId {
    /// The id as a dense `Vec` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuilds an id from its dense index (trace-event decoding).
    pub(crate) fn from_index(index: u32) -> HostId {
        HostId(index)
    }
}

/// All hosts' storage, addressed by interned [`HostId`] (hot path) or by
/// host name (API edge).
///
/// Host names are assigned when nodes are added to the simulation; a replaced
/// (upgraded) node keeps its host — and therefore its files. A host is
/// *visible* to the read-side API only once something touched its storage
/// (mirroring the old map semantics where an entry appeared on first
/// `host_mut`); interning alone does not make it visible.
#[derive(Debug, Default)]
pub struct StorageMap {
    ids: BTreeMap<String, HostId>,
    names: Vec<String>,
    hosts: Vec<HostStorage>,
    touched: Vec<bool>,
    mode: Durability,
}

impl StorageMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// The durability mode applied to every host in the map.
    pub fn mode(&self) -> Durability {
        self.mode
    }

    /// Sets the durability mode on all existing hosts and every host
    /// interned later.
    pub fn set_mode(&mut self, mode: Durability) {
        self.mode = mode;
        for host in &mut self.hosts {
            host.set_durability(mode);
        }
    }

    /// Interns `host`, returning its dense id (allocating one if new).
    pub fn intern(&mut self, host: &str) -> HostId {
        if let Some(&id) = self.ids.get(host) {
            return id;
        }
        let id = HostId(self.hosts.len() as u32);
        self.ids.insert(host.to_string(), id);
        self.names.push(host.to_string());
        let mut storage = HostStorage::default();
        storage.set_durability(self.mode);
        self.hosts.push(storage);
        self.touched.push(false);
        id
    }

    /// The id of `host`, if it was ever interned.
    pub fn lookup(&self, host: &str) -> Option<HostId> {
        self.ids.get(host).copied()
    }

    /// Number of interned hosts.
    pub fn host_count(&self) -> usize {
        self.hosts.len()
    }

    /// The storage of `id`. O(1); this is the event-loop path.
    pub fn by_id_mut(&mut self, id: HostId) -> &mut HostStorage {
        self.touched[id.index()] = true;
        &mut self.hosts[id.index()]
    }

    /// Read-only storage of `id`, or `None` if nothing ever touched it.
    pub fn by_id(&self, id: HostId) -> Option<&HostStorage> {
        self.touched[id.index()].then(|| &self.hosts[id.index()])
    }

    /// Returns the storage of `host`, creating it if absent.
    ///
    /// Thin wrapper over [`StorageMap::intern`] + [`StorageMap::by_id_mut`];
    /// fine at the API edge, too slow for the event loop.
    pub fn host_mut(&mut self, host: &str) -> &mut HostStorage {
        let id = self.intern(host);
        self.by_id_mut(id)
    }

    /// Returns the storage of `host`, if any files were ever written there.
    pub fn host(&self, host: &str) -> Option<&HostStorage> {
        self.lookup(host).and_then(|id| self.by_id(id))
    }

    /// Lists touched host names, in lexicographic order.
    pub fn hosts(&self) -> impl Iterator<Item = &str> {
        self.ids
            .iter()
            .filter(|(_, id)| self.touched[id.index()])
            .map(|(name, _)| name.as_str())
    }

    /// Makes this map a copy of `src`: interning tables, visibility flags,
    /// every host's files. Interning is copied, not kept, because `HostId`s
    /// are assigned in interning order and rendered into trace slices. The
    /// common (warm) case is that this map's interned names start with
    /// `src`'s: extras are truncated away and the string id index needs no
    /// rebuild. Divergent interning falls back to a full rebuild (cold
    /// path).
    pub(crate) fn copy_from(&mut self, src: &StorageMap) {
        let overlap = self.names.len().min(src.names.len());
        let common = self
            .names
            .iter()
            .zip(&src.names)
            .take_while(|(a, b)| a == b)
            .count();
        if common < overlap {
            self.ids.clear();
            self.names.clear();
            self.hosts.clear();
            self.touched.clear();
        }
        if self.names.len() > src.names.len() {
            let keep = src.names.len();
            self.ids.retain(|_, id| id.index() < keep);
            self.names.truncate(keep);
            self.hosts.truncate(keep);
            self.touched.truncate(keep);
        }
        for name in &src.names[self.names.len()..] {
            let id = HostId(self.hosts.len() as u32);
            self.ids.insert(name.clone(), id);
            self.names.push(name.clone());
            self.hosts.push(HostStorage::default());
            self.touched.push(false);
        }
        self.mode = src.mode;
        self.touched.copy_from_slice(&src.touched);
        for (host, theirs) in self.hosts.iter_mut().zip(&src.hosts) {
            host.copy_from(theirs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_roundtrip() {
        let mut s = HostStorage::new();
        assert!(s.write("data/fsimage", b"IMG1".to_vec()), "created");
        assert_eq!(s.read("data/fsimage"), Some(&b"IMG1"[..]));
        assert!(s.exists("data/fsimage"));
        assert!(!s.exists("data/other"));
        assert!(!s.write("data/fsimage", b"IMG2".to_vec()), "replaced");
        assert_eq!(s.read("data/fsimage"), Some(&b"IMG2"[..]));
    }

    #[test]
    fn append_creates_and_extends() {
        let mut s = HostStorage::new();
        s.append("commitlog/seg-0", b"ab");
        s.append("commitlog/seg-0", b"cd");
        assert_eq!(s.read("commitlog/seg-0"), Some(&b"abcd"[..]));
    }

    #[test]
    fn list_and_delete_prefix() {
        let mut s = HostStorage::new();
        s.write("trash/1", vec![0u8; 10]);
        s.write("trash/2", vec![0u8; 20]);
        s.write("data/live", vec![1u8]);
        assert_eq!(
            s.list("trash/"),
            vec!["trash/1".to_string(), "trash/2".to_string()]
        );
        assert_eq!(s.delete_prefix("trash/"), 2);
        assert_eq!(s.file_count(), 1);
        assert_eq!(s.read("data/live"), Some(&[1u8][..]));
    }

    #[test]
    fn delete_reports_existence() {
        let mut s = HostStorage::new();
        assert!(!s.delete("nope"));
        s.write("x", vec![1]);
        assert!(s.delete("x"));
    }

    #[test]
    fn storage_outlives_process_generations() {
        // The upgrade-critical property: the map is keyed by host, so a new
        // process generation on the same host sees its predecessor's files.
        let mut map = StorageMap::new();
        map.host_mut("host-1")
            .write("checkpoint", b"v1-data".to_vec());
        // "Upgrade": nothing happens to the map; new generation reads old file.
        assert_eq!(
            map.host("host-1").unwrap().read("checkpoint"),
            Some(&b"v1-data"[..])
        );
    }

    #[test]
    fn hosts_are_listed_sorted() {
        let mut map = StorageMap::new();
        map.host_mut("b").write("f", vec![]);
        map.host_mut("a").write("f", vec![]);
        let hosts: Vec<_> = map.hosts().collect();
        assert_eq!(hosts, vec!["a", "b"]);
    }

    #[test]
    fn interning_is_stable_and_dense() {
        let mut map = StorageMap::new();
        let a = map.intern("alpha");
        let b = map.intern("beta");
        assert_eq!(map.intern("alpha"), a);
        assert_ne!(a, b);
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(map.lookup("alpha"), Some(a));
        assert_eq!(map.lookup("beta"), Some(b));
        assert_eq!(map.lookup("gamma"), None);
        assert_eq!(map.host_count(), 2);
    }

    #[test]
    fn interned_but_untouched_hosts_stay_invisible() {
        // add_node interns eagerly; the read-side API must still answer
        // None until something actually touches the storage (the old
        // BTreeMap behaviour, which tests and oracles rely on).
        let mut map = StorageMap::new();
        let id = map.intern("quiet");
        assert!(map.host("quiet").is_none());
        assert!(map.by_id(id).is_none());
        assert_eq!(map.hosts().count(), 0);
        map.by_id_mut(id).write("f", vec![1]);
        assert!(map.host("quiet").is_some());
        assert_eq!(map.hosts().collect::<Vec<_>>(), vec!["quiet"]);
        assert_eq!(map.lookup("quiet"), Some(id));
    }

    // ---- crash-durability model -----------------------------------------

    #[test]
    fn strict_mode_survives_crashes_unchanged() {
        let mut s = HostStorage::new();
        s.write("a", b"one".to_vec());
        s.append("a", b"two");
        let mut rng = SimRng::new(1);
        s.crash_materialize(&mut rng);
        assert_eq!(s.read("a"), Some(&b"onetwo"[..]));
        assert!(!s.has_unflushed());
        assert_eq!(s.unflushed_bytes(), 0);
        // Strict draws nothing: the stream is untouched.
        assert_eq!(rng.next_u64(), SimRng::new(1).next_u64());
    }

    #[test]
    fn buffered_data_is_visible_before_flush() {
        let mut s = HostStorage::new();
        s.set_durability(Durability::Buffered);
        s.write("cfg", b"v=1".to_vec());
        s.append("wal", b"rec");
        assert_eq!(s.read("cfg"), Some(&b"v=1"[..]));
        assert_eq!(s.read("wal"), Some(&b"rec"[..]));
        assert_eq!(s.list(""), vec!["cfg".to_string(), "wal".to_string()]);
        assert!(s.has_unflushed());
        assert_eq!(s.unflushed_bytes(), 6);
        assert_eq!(s.read_durable("cfg"), None);
        assert_eq!(s.read_durable("wal"), None);
    }

    #[test]
    fn flushed_bytes_survive_any_crash() {
        for mode in [Durability::Buffered, Durability::Torn] {
            for seed in 0..32 {
                let mut s = HostStorage::new();
                s.set_durability(mode);
                s.append("wal", b"durable-prefix");
                s.flush("wal");
                s.append("wal", b"-unflushed-tail");
                let mut rng = SimRng::new(seed);
                s.crash_materialize(&mut rng);
                let bytes = s.read("wal").expect("flushed file survives");
                assert!(
                    bytes.starts_with(b"durable-prefix"),
                    "seed {seed} {mode}: durable prefix corrupted: {bytes:?}"
                );
                assert!(
                    b"durable-prefix-unflushed-tail".starts_with(bytes),
                    "seed {seed} {mode}: tail is not a prefix of what was written"
                );
            }
        }
    }

    #[test]
    fn buffered_crash_is_all_or_nothing_per_file() {
        let mut survived = 0;
        let mut lost = 0;
        for seed in 0..64 {
            let mut s = HostStorage::new();
            s.set_durability(Durability::Buffered);
            s.append("wal", b"0123456789");
            let mut rng = SimRng::new(seed);
            s.crash_materialize(&mut rng);
            match s.read("wal") {
                Some(b"0123456789") => survived += 1,
                None => lost += 1,
                other => panic!("buffered crash produced a partial file: {other:?}"),
            }
        }
        assert!(survived > 0 && lost > 0, "{survived} survived, {lost} lost");
    }

    #[test]
    fn torn_crash_cuts_only_the_unflushed_suffix() {
        let mut partial = 0;
        for seed in 0..64 {
            let mut s = HostStorage::new();
            s.set_durability(Durability::Torn);
            s.append("wal", b"AAAA");
            s.flush("wal");
            s.append("wal", b"BBBBBBBB");
            let mut rng = SimRng::new(seed);
            s.crash_materialize(&mut rng);
            let bytes = s.read("wal").expect("flushed base survives");
            assert!(bytes.starts_with(b"AAAA"), "seed {seed}: base torn");
            assert!(bytes.len() >= 4 && bytes.len() <= 12);
            assert!(bytes[4..].iter().all(|&b| b == b'B'));
            if bytes.len() > 4 && bytes.len() < 12 {
                partial += 1;
            }
        }
        assert!(partial > 0, "torn mode never actually tore a tail");
    }

    #[test]
    fn unflushed_rewrite_is_atomic_at_crash() {
        let mut kept_new = 0;
        let mut reverted = 0;
        for seed in 0..64 {
            let mut s = HostStorage::new();
            s.set_durability(Durability::Torn);
            s.write("snap", b"OLD-IMAGE".to_vec());
            s.flush("snap");
            s.write("snap", b"NEW".to_vec());
            let mut rng = SimRng::new(seed);
            s.crash_materialize(&mut rng);
            match s.read("snap") {
                Some(b"NEW") => kept_new += 1,
                Some(b"OLD-IMAGE") => reverted += 1,
                other => panic!("seed {seed}: rewrite was torn: {other:?}"),
            }
        }
        assert!(
            kept_new > 0 && reverted > 0,
            "{kept_new} new, {reverted} old"
        );
    }

    #[test]
    fn never_flushed_write_survives_whole_or_vanishes() {
        let mut whole = 0;
        let mut gone = 0;
        for seed in 0..64 {
            let mut s = HostStorage::new();
            s.set_durability(Durability::Torn);
            s.write("fresh", b"PAYLOAD".to_vec());
            let mut rng = SimRng::new(seed);
            s.crash_materialize(&mut rng);
            match s.read("fresh") {
                Some(b"PAYLOAD") => whole += 1,
                None => gone += 1,
                other => panic!("seed {seed}: fresh write torn: {other:?}"),
            }
        }
        assert!(whole > 0 && gone > 0, "{whole} whole, {gone} gone");
    }

    #[test]
    fn crash_materializer_is_deterministic() {
        let build = || {
            let mut s = HostStorage::new();
            s.set_durability(Durability::Torn);
            s.append("a/log", b"flushed");
            s.flush("a/log");
            s.append("a/log", b"-tail-at-risk");
            s.write("b/snap", b"old".to_vec());
            s.flush("b/snap");
            s.write("b/snap", b"newer-image".to_vec());
            s.write("c/tmp", b"never-flushed".to_vec());
            s.append("d/wal", b"append-created");
            s
        };
        let mut one = build();
        let mut two = build();
        one.crash_materialize(&mut SimRng::new(99));
        two.crash_materialize(&mut SimRng::new(99));
        assert_eq!(one.list(""), two.list(""));
        for path in one.list("") {
            assert_eq!(one.read(&path), two.read(&path), "{path}");
        }
    }

    #[test]
    fn switching_to_strict_flushes_everything() {
        let mut s = HostStorage::new();
        s.set_durability(Durability::Buffered);
        s.append("wal", b"at-risk");
        assert!(s.has_unflushed());
        s.set_durability(Durability::Strict);
        assert!(!s.has_unflushed());
        assert_eq!(s.read_durable("wal"), Some(&b"at-risk"[..]));
    }

    #[test]
    fn storage_map_mode_applies_to_existing_and_future_hosts() {
        let mut map = StorageMap::new();
        map.host_mut("old").append("f", b"x");
        map.set_mode(Durability::Torn);
        assert_eq!(map.mode(), Durability::Torn);
        assert_eq!(map.host_mut("old").durability(), Durability::Torn);
        assert_eq!(map.host_mut("new").durability(), Durability::Torn);
    }
}
