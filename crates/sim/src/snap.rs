//! SnapPlane — versioned, deterministic snapshot/restore codec.
//!
//! Exascale machines see mean-time-between-failures shrink below job
//! runtimes, so checkpoint/restart is table stakes alongside the local
//! recovery the FaultPlane models. This module is the dependency-free
//! binary codec every layer's `Snapshot`/`Restore` implementation builds
//! on: a length-prefixed, checksummed section container plus typed
//! primitive readers/writers, with **no external crates** (per the
//! workspace rule) and no floating-point round-tripping (floats travel
//! as raw IEEE-754 bits).
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
//! integrity-checked with FNV-1a-64 at parse time, so a corrupted
//! snapshot is refused *before* any state is touched — restores are
//! all-or-nothing, never partially applied.
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
/// refusal mode, `Display` so the CLI can print it. A restore that
/// returns any of these has touched **no** state.
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

/// A type that can serialize its mutable state into a [`SnapWriter`].
///
/// Implementations must be deterministic (maps in sorted key order,
/// floats as raw bits) so the same state always yields the same bytes.
pub trait Snapshot {
    /// Appends this value's state to `w`.
    fn snapshot(&self, w: &mut SnapWriter);
}

/// A value type that can be rebuilt from a [`SnapReader`] stream.
///
/// Structural state that is a pure function of the run configuration
/// (topologies, kernel libraries, tracers) is *not* restored this way —
/// it is rebuilt by the deterministic builders, and only mutable state
/// is overlaid. Types whose fields are private to another crate expose
/// inherent `restore_state` methods instead.
pub trait Restore: Sized {
    /// Reads one value off `r`.
    ///
    /// # Errors
    ///
    /// [`RestoreError`] when the stream is truncated or malformed.
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, RestoreError>;
}

/// Append-only typed writer over a byte buffer.
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

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u128`.
    pub fn put_u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `i64`.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends an `f64` as its raw IEEE-754 bits (exact round-trip,
    /// including NaN payloads and signed zeros/infinities).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a bool as one byte (0/1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends a length-prefixed raw byte slice.
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.put_u64(b.len() as u64);
        self.buf.extend_from_slice(b);
    }

    /// Appends a [`Time`] as picoseconds.
    pub fn put_time(&mut self, t: Time) {
        self.put_u64(t.as_ps());
    }

    /// Appends a [`Duration`] as picoseconds.
    pub fn put_duration(&mut self, d: Duration) {
        self.put_u64(d.as_ps());
    }

    /// Appends an `Option<Time>` (presence byte + value).
    pub fn put_opt_time(&mut self, t: Option<Time>) {
        self.put_bool(t.is_some());
        if let Some(t) = t {
            self.put_time(t);
        }
    }
}

/// Cursor-based typed reader over snapshot bytes. Every getter returns
/// [`RestoreError::Truncated`] past the end rather than panicking.
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

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, RestoreError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, RestoreError> {
        let b = self.take(4, "u32")?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, RestoreError> {
        let b = self.take(8, "u64")?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Reads a little-endian `u128`.
    pub fn get_u128(&mut self) -> Result<u128, RestoreError> {
        let b = self.take(16, "u128")?;
        Ok(u128::from_le_bytes(b.try_into().expect("16 bytes")))
    }

    /// Reads a little-endian `i64`.
    pub fn get_i64(&mut self) -> Result<i64, RestoreError> {
        let b = self.take(8, "i64")?;
        Ok(i64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Reads a `usize` written with [`SnapWriter::put_usize`].
    pub fn get_usize(&mut self) -> Result<usize, RestoreError> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| malformed(format!("usize {v} out of range")))
    }

    /// Reads an `f64` from raw bits.
    pub fn get_f64(&mut self) -> Result<f64, RestoreError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a bool; any byte other than 0/1 is malformed.
    pub fn get_bool(&mut self) -> Result<bool, RestoreError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(malformed(format!("bool byte {other}"))),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, RestoreError> {
        let len = self.get_u32()? as usize;
        let b = self.take(len, "str payload")?;
        String::from_utf8(b.to_vec()).map_err(|_| malformed("non-UTF-8 string"))
    }

    /// Reads a length-prefixed raw byte vector.
    pub fn get_bytes(&mut self) -> Result<Vec<u8>, RestoreError> {
        let len = self.get_usize()?;
        Ok(self.take(len, "byte payload")?.to_vec())
    }

    /// Reads a [`Time`].
    pub fn get_time(&mut self) -> Result<Time, RestoreError> {
        Ok(Time::from_ps(self.get_u64()?))
    }

    /// Reads a [`Duration`].
    pub fn get_duration(&mut self) -> Result<Duration, RestoreError> {
        Ok(Duration::from_ps(self.get_u64()?))
    }

    /// Reads an `Option<Time>`.
    pub fn get_opt_time(&mut self) -> Result<Option<Time>, RestoreError> {
        Ok(if self.get_bool()? {
            Some(self.get_time()?)
        } else {
            None
        })
    }
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
        let version = r.get_u32().map_err(|_| RestoreError::Truncated {
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
        let count = r.get_u32()? as usize;
        let mut sections = Vec::with_capacity(count);
        for i in 0..count {
            let name = r
                .get_str()
                .map_err(|e| table_err(e, &format!("section {i} name")))?;
            let offset = r
                .get_u64()
                .map_err(|e| table_err(e, &format!("section `{name}` offset")))?;
            let len = r
                .get_u64()
                .map_err(|e| table_err(e, &format!("section `{name}` length")))?;
            let checksum = r
                .get_u64()
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

// ----------------------------------------------------------------------
// Snapshot/Restore for the substrate value types
// ----------------------------------------------------------------------

impl Snapshot for Time {
    fn snapshot(&self, w: &mut SnapWriter) {
        w.put_time(*self);
    }
}

impl Restore for Time {
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, RestoreError> {
        r.get_time()
    }
}

impl Snapshot for Duration {
    fn snapshot(&self, w: &mut SnapWriter) {
        w.put_duration(*self);
    }
}

impl Restore for Duration {
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, RestoreError> {
        r.get_duration()
    }
}

impl Snapshot for u64 {
    fn snapshot(&self, w: &mut SnapWriter) {
        w.put_u64(*self);
    }
}

impl Restore for u64 {
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, RestoreError> {
        r.get_u64()
    }
}

impl Snapshot for u32 {
    fn snapshot(&self, w: &mut SnapWriter) {
        w.put_u32(*self);
    }
}

impl Restore for u32 {
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, RestoreError> {
        r.get_u32()
    }
}

impl<T: Snapshot> Snapshot for Vec<T> {
    fn snapshot(&self, w: &mut SnapWriter) {
        w.put_usize(self.len());
        for item in self {
            item.snapshot(w);
        }
    }
}

impl<T: Restore> Restore for Vec<T> {
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, RestoreError> {
        let len = r.get_usize()?;
        // Guard against a corrupted length asking for an absurd
        // allocation; every element needs at least one byte.
        if len > r.remaining() {
            return Err(malformed(format!(
                "vec length {len} exceeds remaining {} bytes",
                r.remaining()
            )));
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::restore(r)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = SnapWriter::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX);
        w.put_u128(1 << 100);
        w.put_i64(-42);
        w.put_f64(-0.0);
        w.put_f64(f64::INFINITY);
        w.put_bool(true);
        w.put_str("hello ✓");
        w.put_bytes(&[1, 2, 3]);
        w.put_time(Time::from_ns(5));
        w.put_duration(Duration::from_us(9));
        w.put_opt_time(None);
        w.put_opt_time(Some(Time::from_ps(1)));
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX);
        assert_eq!(r.get_u128().unwrap(), 1 << 100);
        assert_eq!(r.get_i64().unwrap(), -42);
        assert_eq!(r.get_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.get_f64().unwrap(), f64::INFINITY);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_str().unwrap(), "hello ✓");
        assert_eq!(r.get_bytes().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.get_time().unwrap(), Time::from_ns(5));
        assert_eq!(r.get_duration().unwrap(), Duration::from_us(9));
        assert_eq!(r.get_opt_time().unwrap(), None);
        assert_eq!(r.get_opt_time().unwrap(), Some(Time::from_ps(1)));
        assert!(r.is_exhausted());
    }

    #[test]
    fn reads_past_end_are_truncated_not_panics() {
        let mut r = SnapReader::new(&[1, 2]);
        assert!(matches!(r.get_u64(), Err(RestoreError::Truncated { .. })));
        // failed read consumes nothing
        assert_eq!(r.remaining(), 2);
        assert_eq!(r.get_u8().unwrap(), 1);
    }

    #[test]
    fn bad_bool_and_bad_utf8_are_malformed() {
        let mut r = SnapReader::new(&[7]);
        assert!(matches!(r.get_bool(), Err(RestoreError::Malformed { .. })));
        let mut w = SnapWriter::new();
        w.put_u32(2);
        let mut bytes = w.into_bytes();
        bytes.extend_from_slice(&[0xFF, 0xFE]);
        let mut r = SnapReader::new(&bytes);
        assert!(matches!(r.get_str(), Err(RestoreError::Malformed { .. })));
    }

    #[test]
    fn container_round_trips_and_verifies() {
        let mut b = SnapshotBuilder::new();
        b.section("alpha", |w| w.put_u64(11));
        b.section("beta", |w| {
            w.put_str("two");
            w.put_f64(2.5);
        });
        let bytes = b.finish();
        let file = SnapshotFile::parse(&bytes).expect("parses");
        assert_eq!(file.version(), SNAP_VERSION);
        let names: Vec<&str> = file.sections().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["alpha", "beta"]);
        let mut r = file.section("alpha").unwrap();
        assert_eq!(r.get_u64().unwrap(), 11);
        let mut r = file.section("beta").unwrap();
        assert_eq!(r.get_str().unwrap(), "two");
        assert_eq!(r.get_f64().unwrap(), 2.5);
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
            w.put_u64(0x0123_4567_89AB_CDEF);
            w.put_str("payload");
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
        b.section("one", |w| w.put_u64(1));
        b.section("two", |w| w.put_u64(2));
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
        w.put_u64(u64::MAX);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let got: Result<Vec<u64>, _> = Vec::restore(&mut r);
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
