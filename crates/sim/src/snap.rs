//! SnapPlane — versioned, deterministic snapshot/restore codec.
//!
//! Exascale machines see mean-time-between-failures shrink below job
//! runtimes, so checkpoint/restart is table stakes alongside the local
//! recovery the FaultPlane models. This module is the dependency-free
//! binary codec every layer's [`Persist`] implementation builds on: a
//! length-prefixed, checksummed section container plus one typed field
//! codec, [`SnapIo`], that saves through a [`SnapWriter`] and loads
//! through a [`SnapReader`]. Each type lists its fields once, in one
//! `persist` body that serves both directions. There are **no external
//! crates** (per the workspace rule) and no floating-point
//! round-tripping (floats travel as raw IEEE-754 bits).
//!
//! # File layout
//!
//! ```text
//! magic      8 bytes   "ECOSNAP\x01"
//! version    u32 LE    SNAP_VERSION
//! count      u32 LE    number of sections
//! table      count x [ name_len u32 | name UTF-8 | offset u64 | len u64 | fnv1a64 u64 ]
//! payloads   concatenated section bytes (offsets are absolute file offsets)
//! ```
//!
//! Every integer is little-endian fixed-width. Section payloads are
//! integrity-checked with FNV-1a-64 at parse time, so a damaged file is
//! refused *before* any state is touched. A payload that passes its
//! checksum but decodes to invalid state is refused by the loading
//! `persist` itself, which may by then have overlaid part of its target
//! (see [`Persist`]).
//!
//! # Safe points
//!
//! A snapshot is only meaningful at a *safe point*: a moment where no
//! layer holds hidden in-flight state outside the serialized structures.
//! For the serving stack that is a window boundary of the cell loop
//! (`CellSim::run` pauses between instants); for the sharded engine it is
//! a window barrier (mailboxes drained into the serialized queues). The
//! restore path rebuilds structural state from the embedded config
//! (builders are deterministic) and overlays the mutable state from the
//! checksummed sections, so *run-to-T, snapshot, restore, run-to-end*
//! produces byte-identical exports to an uninterrupted run.

use core::fmt;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::hash::{BuildHasher, Hash};
use std::sync::{Mutex, OnceLock, PoisonError};

use crate::time::{Duration, Time};

/// Magic prefix of every snapshot file.
pub const SNAP_MAGIC: [u8; 8] = *b"ECOSNAP\x01";

/// Current codec version. Snapshots written by a *newer* codec are
/// refused with [`RestoreError::FutureVersion`], and snapshots written by
/// an *older* one with [`RestoreError::Malformed`]: no migration exists,
/// a section's layout is only read by the version that wrote it.
///
/// Version 2 stores the telemetry series as registry windows; version 3
/// writes the serving SLO window's counters in the tenant ledgers' order.
pub const SNAP_VERSION: u32 = 3;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a-64 over `bytes` — the section checksum.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Why a snapshot could not be restored. Typed so tests can pin the
/// refusal mode, `Display` so the CLI can print it. What a refused
/// restore has touched is stated once, on [`Persist`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RestoreError {
    /// The file does not start with [`SNAP_MAGIC`].
    BadMagic,
    /// The file was written by a newer codec than this build supports.
    FutureVersion {
        /// Version found in the header.
        found: u32,
        /// Highest version this build reads.
        supported: u32,
    },
    /// The file ends before the advertised data.
    Truncated {
        /// What was being read when the bytes ran out.
        context: String,
    },
    /// A section's payload does not hash to its table checksum.
    BadChecksum {
        /// Section name.
        section: String,
        /// Checksum recorded in the table.
        want: u64,
        /// Checksum of the payload as found.
        got: u64,
    },
    /// A section the restore needs is absent.
    MissingSection {
        /// Section name.
        section: String,
    },
    /// A section decoded to structurally invalid state.
    Malformed {
        /// What failed to decode.
        context: String,
    },
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RestoreError::BadMagic => write!(f, "not a snapshot: bad magic"),
            RestoreError::FutureVersion { found, supported } => write!(
                f,
                "snapshot version {found} is newer than supported version {supported}"
            ),
            RestoreError::Truncated { context } => {
                write!(f, "snapshot truncated while reading {context}")
            }
            RestoreError::BadChecksum { section, want, got } => write!(
                f,
                "section `{section}` checksum mismatch: want {want:#018x}, got {got:#018x}"
            ),
            RestoreError::MissingSection { section } => {
                write!(f, "snapshot has no `{section}` section")
            }
            RestoreError::Malformed { context } => write!(f, "malformed snapshot: {context}"),
        }
    }
}

impl std::error::Error for RestoreError {}

/// Shorthand for a [`RestoreError::Malformed`] with a formatted context.
pub fn malformed(context: impl Into<String>) -> RestoreError {
    RestoreError::Malformed {
        context: context.into(),
    }
}

/// A type whose mutable state travels in a snapshot stream, listed once
/// for both directions in the style of `ar & field`: `persist` names
/// every field in stream order, and the [`SnapIo`] it is handed decides
/// the direction. A [`SnapWriter`] appends each field; a [`SnapReader`]
/// overlays each field from the stream.
///
/// Structure that is a pure function of the run configuration
/// (topologies, kernel libraries, cost models, tracers) is not in the
/// stream: load onto a value built from the same configuration, and the
/// stream overlays the rest. Streams are deterministic (maps in
/// ascending key order, floats as raw bits), so one state always yields
/// one byte string.
///
/// # Errors
///
/// Every check that refuses a corrupt stream runs only when loading, so
/// saving never fails. [`SnapshotFile::parse`] refuses a damaged file
/// (magic, version, table or checksum) before any state is touched. A
/// `persist` that fails while loading has overlaid its target partly:
/// the caller discards the target, as the serving resume discards the
/// cell it was restoring.
pub trait Persist {
    /// Saves `self` into, or loads it from, `io`.
    ///
    /// # Errors
    ///
    /// [`RestoreError`] when loading a truncated or malformed stream, or
    /// one whose shape differs from `self`'s.
    fn persist<IO: SnapIo>(&mut self, io: &mut IO) -> Result<(), RestoreError>;
}

macro_rules! le_ints {
    ($($name:ident: $t:ty),*) => {$(
        #[doc = concat!("A little-endian `", stringify!($t), "`.")]
        fn $name(&mut self, v: &mut $t) -> Result<(), RestoreError> {
            let mut b = v.to_le_bytes();
            self.raw(&mut b, stringify!($t))?;
            *v = <$t>::from_le_bytes(b);
            Ok(())
        }
    )*};
}

/// The two directions of [`Persist::persist`]: a [`SnapWriter`] saves
/// and a [`SnapReader`] loads. Every field method takes its field by
/// `&mut`: a save reads it, a load overwrites it, so one body serves
/// both. Generic rather than an enum, each direction compiles to its own
/// straight-line code with no branch per field.
pub trait SnapIo: Sized {
    /// Whether this is the loading direction. A constant, so work gated
    /// on it compiles away in the other direction.
    const LOADING: bool;

    /// `N` raw bytes; `what` names them in a truncation error.
    ///
    /// # Errors
    ///
    /// [`RestoreError::Truncated`] past the end of the stream.
    fn raw<const N: usize>(&mut self, b: &mut [u8; N], what: &str) -> Result<(), RestoreError>;

    /// A length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// Truncated or non-UTF-8 bytes.
    fn str(&mut self, s: &mut String) -> Result<(), RestoreError>;

    /// A string key with a process-wide lifetime: loading interns it, so
    /// repeated loads of one name allocate once per process.
    ///
    /// # Errors
    ///
    /// As [`SnapIo::str`].
    fn static_str(&mut self, s: &mut &'static str) -> Result<(), RestoreError>;

    /// An entry count: `n` when saving. When loading, the count in the
    /// stream, refused when it exceeds the bytes that remain (every
    /// entry takes at least one), so no corrupt count can ask for an
    /// absurd allocation. `what` names the entries in the refusal.
    ///
    /// # Errors
    ///
    /// Truncation, or a count past the remaining bytes.
    fn len(&mut self, n: usize, what: &str) -> Result<usize, RestoreError>;

    le_ints!(u8: u8, u32: u32, u64: u64, u128: u128, i64: i64);

    /// A `usize`, as a `u64`.
    fn usize(&mut self, v: &mut usize) -> Result<(), RestoreError> {
        let mut x = *v as u64;
        self.u64(&mut x)?;
        *v = usize::try_from(x).map_err(|_| malformed(format!("usize {x} out of range")))?;
        Ok(())
    }

    /// An `f64` as its raw IEEE-754 bits (exact, NaN payloads and signed
    /// zeros included).
    fn f64(&mut self, v: &mut f64) -> Result<(), RestoreError> {
        let mut bits = v.to_bits();
        self.u64(&mut bits)?;
        *v = f64::from_bits(bits);
        Ok(())
    }

    /// A bool as one byte; a load refuses any byte but 0 and 1.
    fn bool(&mut self, v: &mut bool) -> Result<(), RestoreError> {
        let mut b = u8::from(*v);
        self.u8(&mut b)?;
        *v = match b {
            0 => false,
            1 => true,
            other => return Err(malformed(format!("bool byte {other}"))),
        };
        Ok(())
    }

    /// A [`Time`] in picoseconds.
    fn time(&mut self, t: &mut Time) -> Result<(), RestoreError> {
        let mut ps = t.as_ps();
        self.u64(&mut ps)?;
        *t = Time::from_ps(ps);
        Ok(())
    }

    /// A [`Duration`] in picoseconds.
    fn duration(&mut self, d: &mut Duration) -> Result<(), RestoreError> {
        let mut ps = d.as_ps();
        self.u64(&mut ps)?;
        *d = Duration::from_ps(ps);
        Ok(())
    }

    /// Any [`Persist`] value. As a path (`IO::item`) it is the element
    /// codec of [`SnapIo::vec`] and [`SnapIo::option`] for such values.
    fn item<T: Persist>(&mut self, v: &mut T) -> Result<(), RestoreError> {
        v.persist(self)
    }

    /// Refuses the stream, when loading, unless `ok`; `why` says what
    /// is wrong. Saving never refuses.
    ///
    /// # Errors
    ///
    /// [`RestoreError::Malformed`] carrying `why()`.
    fn ensure(&self, ok: bool, why: impl FnOnce() -> String) -> Result<(), RestoreError> {
        if Self::LOADING && !ok {
            Err(malformed(why()))
        } else {
            Ok(())
        }
    }

    /// A shape the loading value was built with: saving writes `have`,
    /// and a load refuses a stream that holds anything else. `what`
    /// names the shape in the refusal.
    ///
    /// # Errors
    ///
    /// [`RestoreError::Malformed`] on a mismatch.
    fn expect<T>(&mut self, have: T, what: &str) -> Result<(), RestoreError>
    where
        T: Persist + Clone + PartialEq + fmt::Debug,
    {
        let mut got = have.clone();
        got.persist(self)?;
        self.ensure(got == have, || {
            format!("snapshot {what} is {got:?}, this one has {have:?}")
        })
    }

    /// An `Option`: a presence flag, then the value through `each`. A
    /// load into `None` starts the value from `T::default()`.
    fn option<T: Default>(
        &mut self,
        o: &mut Option<T>,
        each: impl FnOnce(&mut Self, &mut T) -> Result<(), RestoreError>,
    ) -> Result<(), RestoreError> {
        let mut some = o.is_some();
        self.bool(&mut some)?;
        if !some {
            *o = None;
            return Ok(());
        }
        each(self, o.get_or_insert_with(T::default))
    }

    /// A counted sequence (a `Vec` or a `VecDeque`), each element
    /// through `each`. A load replaces the contents with as many
    /// `T::default()` as the stream counts (see [`SnapIo::len`]), then
    /// fills them in order.
    fn vec<S: SnapSeq>(
        &mut self,
        v: &mut S,
        what: &str,
        mut each: impl FnMut(&mut Self, &mut S::Item) -> Result<(), RestoreError>,
    ) -> Result<(), RestoreError> {
        let n = self.len(v.count(), what)?;
        if Self::LOADING {
            v.refill(n);
        }
        v.items().try_for_each(|x| each(self, x))
    }

    /// A map in ascending key order, each value through `each`, which
    /// also sees its key. A load replaces the contents and refuses a key
    /// that does not ascend.
    fn map_with<M: SnapMap>(
        &mut self,
        m: &mut M,
        what: &str,
        mut each: impl FnMut(&mut Self, &M::K, &mut M::V) -> Result<(), RestoreError>,
    ) -> Result<(), RestoreError> {
        let n = self.len(m.count(), what)?;
        if !Self::LOADING {
            for (k, v) in m.ascending() {
                k.clone().persist(self)?;
                each(self, k, v)?;
            }
            return Ok(());
        }
        m.clear();
        let mut prev: Option<M::K> = None;
        for i in 0..n {
            let mut k = M::K::default();
            k.persist(self)?;
            if prev.as_ref().is_some_and(|p| *p >= k) {
                return Err(malformed(format!(
                    "{what} unsorted or duplicated at index {i}"
                )));
            }
            let mut v = M::V::default();
            each(self, &k, &mut v)?;
            prev = Some(k.clone());
            m.insert(k, v);
        }
        Ok(())
    }

    /// [`SnapIo::map_with`] for [`Persist`] values.
    fn sorted_map<M: SnapMap>(&mut self, m: &mut M, what: &str) -> Result<(), RestoreError>
    where
        M::V: Persist,
    {
        self.map_with(m, what, |io, _, v| v.persist(io))
    }

    /// A set in ascending order. A load replaces the contents and
    /// refuses a key that does not ascend.
    fn sorted_set<K>(&mut self, s: &mut BTreeSet<K>, what: &str) -> Result<(), RestoreError>
    where
        K: Persist + Ord + Clone + Default,
    {
        let n = self.len(s.len(), what)?;
        if !Self::LOADING {
            for k in s.iter() {
                k.clone().persist(self)?;
            }
            return Ok(());
        }
        s.clear();
        for i in 0..n {
            let mut k = K::default();
            k.persist(self)?;
            if s.last().is_some_and(|p| *p >= k) {
                return Err(malformed(format!(
                    "{what} unsorted or duplicated at index {i}"
                )));
            }
            s.insert(k);
        }
        Ok(())
    }
}

/// A sequence [`SnapIo::vec`] persists: a `Vec` or a `VecDeque`.
pub trait SnapSeq {
    /// Element type.
    type Item: Default;
    /// Element count.
    fn count(&self) -> usize;
    /// Replaces the contents with `n` default elements.
    fn refill(&mut self, n: usize);
    /// The elements in order.
    fn items(&mut self) -> impl Iterator<Item = &mut Self::Item>;
}

impl<T: Default> SnapSeq for Vec<T> {
    type Item = T;
    fn count(&self) -> usize {
        self.len()
    }
    fn refill(&mut self, n: usize) {
        self.clear();
        self.resize_with(n, T::default);
    }
    fn items(&mut self) -> impl Iterator<Item = &mut T> {
        self.iter_mut()
    }
}

impl<T: Default> SnapSeq for VecDeque<T> {
    type Item = T;
    fn count(&self) -> usize {
        self.len()
    }
    fn refill(&mut self, n: usize) {
        self.clear();
        self.resize_with(n, T::default);
    }
    fn items(&mut self) -> impl Iterator<Item = &mut T> {
        self.iter_mut()
    }
}

/// A map [`SnapIo::map_with`] persists: a `BTreeMap`, or a `HashMap`
/// whose entries are sorted on save.
pub trait SnapMap {
    /// Key type.
    type K: Persist + Ord + Clone + Default;
    /// Value type.
    type V: Default;
    /// Entry count.
    fn count(&self) -> usize;
    /// Removes every entry.
    fn clear(&mut self);
    /// Adds an entry.
    fn insert(&mut self, k: Self::K, v: Self::V);
    /// The entries in ascending key order.
    fn ascending(&mut self) -> impl Iterator<Item = (&Self::K, &mut Self::V)>;
}

impl<K: Persist + Ord + Clone + Default, V: Default> SnapMap for BTreeMap<K, V> {
    type K = K;
    type V = V;
    fn count(&self) -> usize {
        self.len()
    }
    fn clear(&mut self) {
        BTreeMap::clear(self);
    }
    fn insert(&mut self, k: K, v: V) {
        BTreeMap::insert(self, k, v);
    }
    fn ascending(&mut self) -> impl Iterator<Item = (&K, &mut V)> {
        self.iter_mut()
    }
}

impl<K, V, H> SnapMap for HashMap<K, V, H>
where
    K: Persist + Ord + Clone + Default + Hash,
    V: Default,
    H: BuildHasher,
{
    type K = K;
    type V = V;
    fn count(&self) -> usize {
        self.len()
    }
    fn clear(&mut self) {
        HashMap::clear(self);
    }
    fn insert(&mut self, k: K, v: V) {
        HashMap::insert(self, k, v);
    }
    fn ascending(&mut self) -> impl Iterator<Item = (&K, &mut V)> {
        let mut entries: Vec<_> = self.iter_mut().collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
        entries.into_iter()
    }
}

/// The saving [`SnapIo`]: an append-only writer over a byte buffer.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// An empty writer.
    pub fn new() -> SnapWriter {
        SnapWriter::default()
    }

    /// The bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends a length-prefixed byte string (a nested payload).
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.save(&mut (b.len() as u64));
        self.buf.extend_from_slice(b);
    }

    /// Appends raw bytes with no length prefix (a payload copied whole).
    pub fn put_raw(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Appends `v`'s state. Saving never fails: every refusal in a
    /// [`Persist`] runs only when loading.
    pub fn save<T: Persist>(&mut self, v: &mut T) {
        v.persist(self).expect("saving never refuses");
    }

    fn put_str(&mut self, s: &str) {
        self.save(&mut (s.len() as u32));
        self.buf.extend_from_slice(s.as_bytes());
    }
}

impl SnapIo for SnapWriter {
    const LOADING: bool = false;

    fn raw<const N: usize>(&mut self, b: &mut [u8; N], _: &str) -> Result<(), RestoreError> {
        self.buf.extend_from_slice(b);
        Ok(())
    }

    fn str(&mut self, s: &mut String) -> Result<(), RestoreError> {
        self.put_str(s);
        Ok(())
    }

    fn static_str(&mut self, s: &mut &'static str) -> Result<(), RestoreError> {
        self.put_str(s);
        Ok(())
    }

    fn len(&mut self, n: usize, _: &str) -> Result<usize, RestoreError> {
        self.save(&mut (n as u64));
        Ok(n)
    }
}

/// The loading [`SnapIo`]: a cursor over snapshot bytes. Every read past
/// the end is [`RestoreError::Truncated`], never a panic.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// A reader over `buf` starting at offset 0.
    pub fn new(buf: &'a [u8]) -> SnapReader<'a> {
        SnapReader { buf, pos: 0 }
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the cursor is at the end.
    pub fn is_exhausted(&self) -> bool {
        self.pos >= self.buf.len()
    }

    fn take(&mut self, n: usize, context: &str) -> Result<&'a [u8], RestoreError> {
        if self.remaining() < n {
            return Err(RestoreError::Truncated {
                context: context.to_string(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a length-prefixed byte string (a nested payload).
    ///
    /// # Errors
    ///
    /// [`RestoreError::Truncated`] past the end of the stream.
    pub fn get_bytes(&mut self) -> Result<Vec<u8>, RestoreError> {
        let len = self.load(0usize)?;
        Ok(self.take(len, "byte payload")?.to_vec())
    }

    /// `v` with the stream loaded onto it.
    ///
    /// # Errors
    ///
    /// As [`Persist::persist`].
    pub fn load<T: Persist>(&mut self, mut v: T) -> Result<T, RestoreError> {
        v.persist(self)?;
        Ok(v)
    }

    fn get_str(&mut self) -> Result<String, RestoreError> {
        let len = self.load(0u32)? as usize;
        let b = self.take(len, "str payload")?;
        String::from_utf8(b.to_vec()).map_err(|_| malformed("non-UTF-8 string"))
    }
}

impl SnapIo for SnapReader<'_> {
    const LOADING: bool = true;

    fn raw<const N: usize>(&mut self, b: &mut [u8; N], what: &str) -> Result<(), RestoreError> {
        b.copy_from_slice(self.take(N, what)?);
        Ok(())
    }

    fn str(&mut self, s: &mut String) -> Result<(), RestoreError> {
        *s = self.get_str()?;
        Ok(())
    }

    fn static_str(&mut self, s: &mut &'static str) -> Result<(), RestoreError> {
        *s = intern(self.get_str()?);
        Ok(())
    }

    fn len(&mut self, _: usize, what: &str) -> Result<usize, RestoreError> {
        let n = self.load(0usize)?;
        if n > self.remaining() {
            return Err(malformed(format!(
                "{what} claims {n} entries but only {} bytes remain",
                self.remaining()
            )));
        }
        Ok(n)
    }
}

/// Interns a string for the process, so a loaded `&'static str` key
/// costs one allocation per distinct name, however often it is loaded.
fn intern(s: String) -> &'static str {
    static INTERNED: OnceLock<Mutex<BTreeSet<&'static str>>> = OnceLock::new();
    let mut set = INTERNED
        .get_or_init(|| Mutex::new(BTreeSet::new()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    if let Some(&existing) = set.get(s.as_str()) {
        return existing;
    }
    let leaked: &'static str = Box::leak(s.into_boxed_str());
    set.insert(leaked);
    leaked
}

/// Builder assembling named, checksummed sections into one snapshot file.
#[derive(Debug, Default)]
pub struct SnapshotBuilder {
    sections: Vec<(String, Vec<u8>)>,
}

impl SnapshotBuilder {
    /// An empty builder.
    pub fn new() -> SnapshotBuilder {
        SnapshotBuilder::default()
    }

    /// Adds a section; `fill` writes its payload. Section names must be
    /// unique within one snapshot.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate section name (snapshot layout is a
    /// programming contract, not input data).
    pub fn section(&mut self, name: &str, fill: impl FnOnce(&mut SnapWriter)) -> &mut Self {
        assert!(
            self.sections.iter().all(|(n, _)| n != name),
            "duplicate snapshot section `{name}`"
        );
        let mut w = SnapWriter::new();
        fill(&mut w);
        self.sections.push((name.to_string(), w.into_bytes()));
        self
    }

    /// Serializes magic, version, section table and payloads.
    pub fn finish(&self) -> Vec<u8> {
        let mut table_len = 8 + 4 + 4;
        for (name, _) in &self.sections {
            table_len += 4 + name.len() + 8 + 8 + 8;
        }
        let mut out = Vec::with_capacity(
            table_len + self.sections.iter().map(|(_, p)| p.len()).sum::<usize>(),
        );
        out.extend_from_slice(&SNAP_MAGIC);
        out.extend_from_slice(&SNAP_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        let mut offset = table_len as u64;
        for (name, payload) in &self.sections {
            out.extend_from_slice(&(name.len() as u32).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(&offset.to_le_bytes());
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
            offset += payload.len() as u64;
        }
        for (_, payload) in &self.sections {
            out.extend_from_slice(payload);
        }
        out
    }
}

/// One row of a parsed snapshot's section table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionInfo {
    /// Section name.
    pub name: String,
    /// Absolute file offset of the payload.
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u64,
    /// FNV-1a-64 checksum of the payload.
    pub checksum: u64,
}

/// A parsed, integrity-verified snapshot. Parsing validates the magic,
/// the version, the table shape and **every** section checksum up front,
/// so a handed-out [`SnapshotFile`] is internally consistent and restores
/// can never half-apply a corrupted file.
#[derive(Debug)]
pub struct SnapshotFile<'a> {
    version: u32,
    sections: Vec<(SectionInfo, &'a [u8])>,
}

impl<'a> SnapshotFile<'a> {
    /// Parses and verifies `bytes`.
    ///
    /// # Errors
    ///
    /// [`RestoreError::BadMagic`], [`RestoreError::FutureVersion`],
    /// [`RestoreError::Malformed`] for an older version,
    /// [`RestoreError::Truncated`], [`RestoreError::BadChecksum`] or
    /// [`RestoreError::Malformed`] — in that precedence order.
    pub fn parse(bytes: &'a [u8]) -> Result<SnapshotFile<'a>, RestoreError> {
        if bytes.len() < 8 || bytes[..8] != SNAP_MAGIC {
            return Err(RestoreError::BadMagic);
        }
        let mut r = SnapReader::new(&bytes[8..]);
        let version = r.load(0u32).map_err(|_| RestoreError::Truncated {
            context: "header version".to_string(),
        })?;
        if version > SNAP_VERSION {
            return Err(RestoreError::FutureVersion {
                found: version,
                supported: SNAP_VERSION,
            });
        }
        if version < SNAP_VERSION {
            return Err(malformed(format!(
                "snapshot version {version} is older than supported version {SNAP_VERSION}"
            )));
        }
        let count = r.load(0u32)? as usize;
        let mut sections = Vec::with_capacity(count);
        for i in 0..count {
            let name = r
                .load(String::new())
                .map_err(|e| table_err(e, &format!("section {i} name")))?;
            let offset = r
                .load(0u64)
                .map_err(|e| table_err(e, &format!("section `{name}` offset")))?;
            let len = r
                .load(0u64)
                .map_err(|e| table_err(e, &format!("section `{name}` length")))?;
            let checksum = r
                .load(0u64)
                .map_err(|e| table_err(e, &format!("section `{name}` checksum")))?;
            let start = usize::try_from(offset)
                .map_err(|_| malformed(format!("section `{name}` offset {offset}")))?;
            let end = start
                .checked_add(
                    usize::try_from(len)
                        .map_err(|_| malformed(format!("section `{name}` length {len}")))?,
                )
                .ok_or_else(|| malformed(format!("section `{name}` extent overflows")))?;
            if end > bytes.len() {
                return Err(RestoreError::Truncated {
                    context: format!("section `{name}` payload"),
                });
            }
            sections.push((
                SectionInfo {
                    name,
                    offset,
                    len,
                    checksum,
                },
                &bytes[start..end],
            ));
        }
        for (info, payload) in &sections {
            let got = fnv1a64(payload);
            if got != info.checksum {
                return Err(RestoreError::BadChecksum {
                    section: info.name.clone(),
                    want: info.checksum,
                    got,
                });
            }
        }
        Ok(SnapshotFile { version, sections })
    }

    /// Codec version the file was written with.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Section table rows in file order.
    pub fn sections(&self) -> impl Iterator<Item = &SectionInfo> {
        self.sections.iter().map(|(info, _)| info)
    }

    /// A reader over the named section's (already-verified) payload.
    ///
    /// # Errors
    ///
    /// [`RestoreError::MissingSection`] when absent.
    pub fn section(&self, name: &str) -> Result<SnapReader<'a>, RestoreError> {
        self.sections
            .iter()
            .find(|(info, _)| info.name == name)
            .map(|(_, payload)| SnapReader::new(payload))
            .ok_or_else(|| RestoreError::MissingSection {
                section: name.to_string(),
            })
    }

    /// The header as deterministic JSON — version plus the full section
    /// table (name, offset, length, checksum) — pinned by the
    /// `snapshot_header.schema` golden test.
    pub fn header_json(&self) -> String {
        let mut s = String::with_capacity(256);
        s.push_str("{\"magic\":");
        crate::json::escape(&mut s, "ECOSNAP");
        s.push_str(&format!(",\"version\":{},\"sections\":[", self.version));
        for (i, (info, _)) in self.sections.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("{\"name\":");
            crate::json::escape(&mut s, &info.name);
            s.push_str(&format!(
                ",\"offset\":{},\"len\":{},\"checksum\":\"{:016x}\"}}",
                info.offset, info.len, info.checksum
            ));
        }
        s.push_str("]}");
        s
    }
}

fn table_err(e: RestoreError, context: &str) -> RestoreError {
    match e {
        RestoreError::Truncated { .. } => RestoreError::Truncated {
            context: format!("table ({context})"),
        },
        other => other,
    }
}

macro_rules! persist_via {
    ($($t:ty => $field:ident),*) => {$(
        impl Persist for $t {
            fn persist<IO: SnapIo>(&mut self, io: &mut IO) -> Result<(), RestoreError> {
                io.$field(self)
            }
        }
    )*};
}

persist_via!(
    u8 => u8, u32 => u32, u64 => u64, u128 => u128, i64 => i64, usize => usize, f64 => f64,
    bool => bool, String => str, &'static str => static_str, Time => time,
    Duration => duration
);

impl<A: Persist, B: Persist> Persist for (A, B) {
    fn persist<IO: SnapIo>(&mut self, io: &mut IO) -> Result<(), RestoreError> {
        self.0.persist(io)?;
        self.1.persist(io)
    }
}

impl<T: Persist + Default> Persist for Option<T> {
    fn persist<IO: SnapIo>(&mut self, io: &mut IO) -> Result<(), RestoreError> {
        io.option(self, IO::item)
    }
}

impl<T: Persist + Default> Persist for Vec<T> {
    fn persist<IO: SnapIo>(&mut self, io: &mut IO) -> Result<(), RestoreError> {
        io.vec(self, "vec", IO::item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = SnapWriter::new();
        w.save(&mut 7u8);
        w.save(&mut 0xDEAD_BEEFu32);
        w.save(&mut { u64::MAX });
        w.save(&mut (1u128 << 100));
        w.save(&mut -42i64);
        w.save(&mut -0.0f64);
        w.save(&mut { f64::INFINITY });
        w.save(&mut true);
        w.save(&mut "hello ✓".to_owned());
        w.put_bytes(&[1, 2, 3]);
        w.save(&mut Time::from_ns(5));
        w.save(&mut Duration::from_us(9));
        w.save(&mut None::<Time>);
        w.save(&mut Some(Time::from_ps(1)));
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.load(0u8).unwrap(), 7);
        assert_eq!(r.load(0u32).unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.load(0u64).unwrap(), u64::MAX);
        assert_eq!(r.load(0u128).unwrap(), 1 << 100);
        assert_eq!(r.load(0i64).unwrap(), -42);
        assert_eq!(r.load(0f64).unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.load(0f64).unwrap(), f64::INFINITY);
        assert!(r.load(false).unwrap());
        assert_eq!(r.load(String::new()).unwrap(), "hello ✓");
        assert_eq!(r.get_bytes().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.load(Time::ZERO).unwrap(), Time::from_ns(5));
        assert_eq!(r.load(Duration::ZERO).unwrap(), Duration::from_us(9));
        assert_eq!(r.load(Some(Time::ZERO)).unwrap(), None);
        assert_eq!(r.load(None).unwrap(), Some(Time::from_ps(1)));
        assert!(r.is_exhausted());
    }

    #[test]
    fn reads_past_end_are_truncated_not_panics() {
        let mut r = SnapReader::new(&[1, 2]);
        assert!(matches!(r.load(0u64), Err(RestoreError::Truncated { .. })));
        // failed read consumes nothing
        assert_eq!(r.remaining(), 2);
        assert_eq!(r.load(0u8).unwrap(), 1);
    }

    #[test]
    fn bad_bool_and_bad_utf8_are_malformed() {
        let mut r = SnapReader::new(&[7]);
        assert!(matches!(r.load(false), Err(RestoreError::Malformed { .. })));
        let mut w = SnapWriter::new();
        w.save(&mut 2u32);
        let mut bytes = w.into_bytes();
        bytes.extend_from_slice(&[0xFF, 0xFE]);
        let mut r = SnapReader::new(&bytes);
        assert!(matches!(
            r.load(String::new()),
            Err(RestoreError::Malformed { .. })
        ));
    }

    #[test]
    fn container_round_trips_and_verifies() {
        let mut b = SnapshotBuilder::new();
        b.section("alpha", |w| w.save(&mut 11u64));
        b.section("beta", |w| {
            w.save(&mut "two".to_owned());
            w.save(&mut 2.5f64);
        });
        let bytes = b.finish();
        let file = SnapshotFile::parse(&bytes).expect("parses");
        assert_eq!(file.version(), SNAP_VERSION);
        let names: Vec<&str> = file.sections().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["alpha", "beta"]);
        let mut r = file.section("alpha").unwrap();
        assert_eq!(r.load(0u64).unwrap(), 11);
        let mut r = file.section("beta").unwrap();
        assert_eq!(r.load(String::new()).unwrap(), "two");
        assert_eq!(r.load(0f64).unwrap(), 2.5);
        assert!(matches!(
            file.section("gamma"),
            Err(RestoreError::MissingSection { .. })
        ));
    }

    #[test]
    fn empty_snapshot_is_valid() {
        let bytes = SnapshotBuilder::new().finish();
        let file = SnapshotFile::parse(&bytes).expect("parses");
        assert_eq!(file.sections().count(), 0);
    }

    #[test]
    fn bad_magic_is_refused() {
        assert_eq!(
            SnapshotFile::parse(b"").unwrap_err(),
            RestoreError::BadMagic
        );
        assert_eq!(
            SnapshotFile::parse(b"NOTSNAP\x01rest").unwrap_err(),
            RestoreError::BadMagic
        );
    }

    #[test]
    fn future_version_is_refused() {
        let mut bytes = SnapshotBuilder::new().finish();
        bytes[8..12].copy_from_slice(&(SNAP_VERSION + 1).to_le_bytes());
        assert_eq!(
            SnapshotFile::parse(&bytes).unwrap_err(),
            RestoreError::FutureVersion {
                found: SNAP_VERSION + 1,
                supported: SNAP_VERSION
            }
        );
    }

    #[test]
    fn older_version_is_refused_before_any_section_is_read() {
        // A table that claims a section far past the end of the stream:
        // reading it would fail as Truncated, so a Malformed refusal
        // proves the version check came first.
        let mut bytes = SnapshotBuilder::new().finish();
        bytes[8..12].copy_from_slice(&(SNAP_VERSION - 1).to_le_bytes());
        bytes[12..16].copy_from_slice(&1u32.to_le_bytes());
        match SnapshotFile::parse(&bytes) {
            Err(RestoreError::Malformed { context }) => {
                assert!(context.contains("older"), "{context}");
            }
            other => panic!("expected a typed refusal, got {other:?}"),
        }
    }

    #[test]
    fn every_payload_bit_flip_is_caught() {
        let mut b = SnapshotBuilder::new();
        b.section("s", |w| {
            w.save(&mut 0x0123_4567_89AB_CDEFu64);
            w.save(&mut "payload".to_owned());
        });
        let bytes = b.finish();
        let file = SnapshotFile::parse(&bytes).expect("pristine parses");
        let info = file.sections().next().unwrap().clone();
        let (start, end) = (info.offset as usize, (info.offset + info.len) as usize);
        for i in start..end {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[i] ^= 1 << bit;
                match SnapshotFile::parse(&corrupt) {
                    Err(RestoreError::BadChecksum { section, .. }) => assert_eq!(section, "s"),
                    other => panic!("byte {i} bit {bit}: expected BadChecksum, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn truncated_file_is_refused() {
        let mut b = SnapshotBuilder::new();
        b.section("s", |w| w.put_bytes(&[9; 64]));
        let bytes = b.finish();
        // every strict prefix must fail loudly (Truncated or BadMagic)
        for cut in 0..bytes.len() {
            let err = SnapshotFile::parse(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, RestoreError::Truncated { .. } | RestoreError::BadMagic),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn header_json_is_deterministic_and_lists_sections() {
        let mut b = SnapshotBuilder::new();
        b.section("one", |w| w.save(&mut 1u64));
        b.section("two", |w| w.save(&mut 2u64));
        let bytes = b.finish();
        let file = SnapshotFile::parse(&bytes).expect("parses");
        let j = file.header_json();
        assert!(j.contains("\"magic\":\"ECOSNAP\""), "{j}");
        assert!(j.contains(&format!("\"version\":{SNAP_VERSION}")), "{j}");
        assert!(j.contains("\"name\":\"one\""), "{j}");
        assert!(j.contains("\"name\":\"two\""), "{j}");
        assert_eq!(j, SnapshotFile::parse(&bytes).unwrap().header_json());
    }

    #[test]
    fn vec_restore_rejects_absurd_lengths() {
        let mut w = SnapWriter::new();
        w.save(&mut { u64::MAX });
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let got = Vec::<u64>::new().persist(&mut r);
        assert!(matches!(got, Err(RestoreError::Malformed { .. })));
    }

    #[test]
    fn display_messages_name_the_failure() {
        let e = RestoreError::BadChecksum {
            section: "serve".into(),
            want: 1,
            got: 2,
        };
        assert!(e.to_string().contains("serve"));
        let e = RestoreError::FutureVersion {
            found: 9,
            supported: 1,
        };
        assert!(e.to_string().contains('9'));
        let e = RestoreError::MissingSection {
            section: "cells".into(),
        };
        assert!(e.to_string().contains("cells"));
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
