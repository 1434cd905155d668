//! Partial bitstreams and configuration-data compression.
//!
//! Real partial bitstreams are frame-structured and highly redundant:
//! unused frames are all-zero, and regular structures (datapaths repeated
//! down a column) produce identical frames. [`Bitstream::synthesize`]
//! describes a synthetic bitstream with those statistics, sized from the
//! module's resource footprint, and generates its bytes on demand (the
//! substitution documented in DESIGN.md §5 — real vendor bitstreams are
//! unavailable in this environment).
//!
//! [`CompressionAlgo`] implements the three decompressor families of
//! Koch, Beckhoff & Teich, "Hardware Decompression Techniques for
//! FPGA-based Embedded Systems" \[11\]: zero-run RLE, an LZSS-style window
//! compressor, and whole-frame deduplication. All three round-trip
//! exactly; experiment E9 compares their ratio / reconfiguration-latency
//! trade-offs.

use std::sync::{Arc, OnceLock};

use ecoscale_sim::SimRng;

use crate::fabric::Resources;

/// Bytes of configuration data per fabric cell (first-order Zynq figure).
pub const BYTES_PER_CELL: usize = 48;
/// Configuration frame size in bytes.
pub const FRAME_BYTES: usize = 256;

/// A partial bitstream: frame-aligned configuration data.
///
/// A synthesized bitstream is its recipe (footprint and seed): its length
/// and frame count come from the recipe, and its bytes are generated on
/// the first [`Bitstream::as_bytes`] and then kept. Compressed sizes are
/// computed lazily, each algorithm on its first query only, and cached
/// (the runtime daemon queries them on every scheduling decision); sizing
/// a bitstream whose bytes are not held generates them into a temporary
/// and keeps only the size. Clones share the bytes and the sizes, so a
/// library cloned into many systems generates and compresses each
/// bitstream once, and one that is only sized never holds its bytes.
///
/// # Example
///
/// ```
/// use ecoscale_fpga::{Bitstream, CompressionAlgo, Resources};
///
/// let bs = Bitstream::synthesize(Resources::new(500, 8, 16), 7);
/// assert_eq!(bs.len() % 256, 0); // frame aligned
/// assert!(bs.compressed_size(CompressionAlgo::Lz) < bs.len());
/// assert!(!bs.holds_bytes()); // sized, never materialized
/// ```
#[derive(Debug, Clone)]
pub struct Bitstream(Arc<Stream>);

#[derive(Debug)]
struct Stream {
    /// `(resources, seed)` of a synthesized stream; `None` for one made
    /// from bytes, which holds them from the start.
    recipe: Option<(Resources, u64)>,
    len: usize,
    data: OnceLock<Box<[u8]>>,
    // one slot per compressing algorithm: ZeroRle, Lz, FrameDedup
    compressed_sizes: [OnceLock<usize>; 3],
}

impl PartialEq for Bitstream {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || self.as_bytes() == other.as_bytes()
    }
}

impl Eq for Bitstream {}

impl Bitstream {
    /// Wraps raw configuration data, padding to a whole frame.
    pub fn from_bytes(mut data: Vec<u8>) -> Bitstream {
        let rem = data.len() % FRAME_BYTES;
        if rem != 0 {
            data.resize(data.len() + FRAME_BYTES - rem, 0);
        }
        Bitstream(Arc::new(Stream {
            recipe: None,
            len: data.len(),
            data: OnceLock::from(data.into_boxed_slice()),
            compressed_sizes: Default::default(),
        }))
    }

    /// A synthetic bitstream for a module of footprint `resources`,
    /// deterministically from `seed`. No bytes are generated until they
    /// are needed (see [`Bitstream`]).
    ///
    /// Frame statistics mirror published partial-bitstream traits:
    /// roughly a third of frames are all-zero, a sixth repeat an earlier
    /// frame, and the rest are sparse (~60 % zero bytes).
    pub fn synthesize(resources: Resources, seed: u64) -> Bitstream {
        Bitstream(Arc::new(Stream {
            recipe: Some((resources, seed)),
            len: synthetic_frames(resources) * FRAME_BYTES,
            data: OnceLock::new(),
            compressed_sizes: Default::default(),
        }))
    }

    /// The raw configuration bytes, generated on the first call for a
    /// synthesized bitstream and kept from then on.
    pub fn as_bytes(&self) -> &[u8] {
        self.0
            .data
            .get_or_init(|| self.generate().into_boxed_slice())
    }

    /// Whether the raw bytes are held in memory: always for
    /// [`Bitstream::from_bytes`], and for [`Bitstream::synthesize`] only
    /// once [`Bitstream::as_bytes`] has run on it or a clone.
    pub fn holds_bytes(&self) -> bool {
        self.0.data.get().is_some()
    }

    /// Size in bytes.
    pub fn len(&self) -> usize {
        self.0.len
    }

    /// Returns `true` if the bitstream holds no data.
    pub fn is_empty(&self) -> bool {
        self.0.len == 0
    }

    /// Number of whole frames.
    pub fn frames(&self) -> usize {
        self.0.len / FRAME_BYTES
    }

    /// Compressed size under `algo`, computed on the first query for that
    /// algorithm and cached; other algorithms are not evaluated. Bytes not
    /// yet held are generated for the query and dropped after it.
    pub fn compressed_size(&self, algo: CompressionAlgo) -> usize {
        let slot = match algo {
            CompressionAlgo::None => return self.len(),
            CompressionAlgo::ZeroRle => 0,
            CompressionAlgo::Lz => 1,
            CompressionAlgo::FrameDedup => 2,
        };
        *self.0.compressed_sizes[slot].get_or_init(|| match self.0.data.get() {
            Some(data) => algo.compress_bytes(data).len(),
            None => algo.compress_bytes(&self.generate()).len(),
        })
    }

    /// The bytes of a synthesized bitstream's recipe.
    fn generate(&self) -> Vec<u8> {
        let (resources, seed) = self
            .0
            .recipe
            .expect("a bitstream without a recipe holds its bytes");
        synthesize_bytes(resources, seed)
    }
}

/// Whole frames of a synthetic bitstream of footprint `resources`.
fn synthetic_frames(resources: Resources) -> usize {
    let size = (resources.total().max(1) as usize) * BYTES_PER_CELL;
    size.div_ceil(FRAME_BYTES).max(1)
}

/// Generates the configuration bytes of [`Bitstream::synthesize`]'s
/// recipe.
fn synthesize_bytes(resources: Resources, seed: u64) -> Vec<u8> {
    let frames = synthetic_frames(resources);
    let mut rng = SimRng::seed_from(seed ^ 0xB175_7EA4);
    let mut data = Vec::with_capacity(frames * FRAME_BYTES);
    let mut kept: Vec<usize> = Vec::new(); // offsets of non-trivial frames
    for _ in 0..frames {
        let roll = rng.gen_unit();
        if roll < 0.35 {
            data.extend(std::iter::repeat_n(0u8, FRAME_BYTES));
        } else if roll < 0.50 && !kept.is_empty() {
            let src = *rng.choose(&kept);
            data.extend_from_within(src..src + FRAME_BYTES);
        } else {
            // Sparse frame: configuration words come in 16-byte
            // chunks, most of them zero (unused routing/config words),
            // the rest dense — matching the run-structured sparsity of
            // real partial bitstreams.
            let start = data.len();
            for _ in 0..FRAME_BYTES / 16 {
                if rng.gen_bool(0.55) {
                    data.extend(std::iter::repeat_n(0u8, 16));
                } else {
                    for _ in 0..16 {
                        if rng.gen_bool(0.25) {
                            data.push(0);
                        } else {
                            data.push((rng.next_u64() & 0xff) as u8);
                        }
                    }
                }
            }
            kept.push(start);
        }
    }
    data
}

/// Compression ratio bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompressionStats {
    /// Uncompressed size in bytes.
    pub original: usize,
    /// Compressed size in bytes.
    pub compressed: usize,
}

impl CompressionStats {
    /// original / compressed (1.0 when incompressible).
    pub fn ratio(&self) -> f64 {
        if self.compressed == 0 {
            1.0
        } else {
            self.original as f64 / self.compressed as f64
        }
    }
}

/// The decompressor families of \[11\].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompressionAlgo {
    /// Store uncompressed.
    None,
    /// Run-length encoding of zero runs (cheapest decompressor).
    ZeroRle,
    /// LZSS with a 2 KiB window (best ratio, costlier decompressor).
    Lz,
    /// Whole-frame deduplication (fast, exploits repeated frames).
    FrameDedup,
}

impl CompressionAlgo {
    /// All algorithms, for sweeps.
    pub const ALL: [CompressionAlgo; 4] = [
        CompressionAlgo::None,
        CompressionAlgo::ZeroRle,
        CompressionAlgo::Lz,
        CompressionAlgo::FrameDedup,
    ];

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            CompressionAlgo::None => "none",
            CompressionAlgo::ZeroRle => "zero-rle",
            CompressionAlgo::Lz => "lz",
            CompressionAlgo::FrameDedup => "frame-dedup",
        }
    }

    /// Relative decompressor throughput versus the raw configuration port
    /// (from the hardware decompressor designs in \[11\]: RLE and dedup run
    /// at port speed; LZ at ~80 %).
    pub fn decompress_speed_factor(self) -> f64 {
        match self {
            CompressionAlgo::None => 1.0,
            CompressionAlgo::ZeroRle => 1.0,
            CompressionAlgo::FrameDedup => 1.0,
            CompressionAlgo::Lz => 0.8,
        }
    }

    /// Compresses a bitstream.
    pub fn compress(self, bs: &Bitstream) -> Vec<u8> {
        self.compress_bytes(bs.as_bytes())
    }

    fn compress_bytes(self, data: &[u8]) -> Vec<u8> {
        match self {
            CompressionAlgo::None => data.to_vec(),
            CompressionAlgo::ZeroRle => zero_rle_compress(data),
            CompressionAlgo::Lz => lz_compress(data),
            CompressionAlgo::FrameDedup => frame_dedup_compress(data),
        }
    }

    /// Decompresses back to a bitstream.
    ///
    /// # Panics
    ///
    /// Panics on malformed input (compressed streams are produced and
    /// consumed inside the middleware; corruption is a programming error).
    pub fn decompress(self, data: &[u8]) -> Bitstream {
        let raw = match self {
            CompressionAlgo::None => data.to_vec(),
            CompressionAlgo::ZeroRle => zero_rle_decompress(data),
            CompressionAlgo::Lz => lz_decompress(data),
            CompressionAlgo::FrameDedup => frame_dedup_decompress(data),
        };
        Bitstream::from_bytes(raw)
    }

    /// Reports sizes using the bitstream's lazy cache (no recompression
    /// after the first query).
    pub fn stats(self, bs: &Bitstream) -> CompressionStats {
        CompressionStats {
            original: bs.len(),
            compressed: bs.compressed_size(self),
        }
    }
}

// --- zero-RLE ---------------------------------------------------------
// Token stream: 0x00 <run u16 le> for zero runs; 0x01 <len u16 le> <bytes>
// for literal runs.

fn zero_rle_compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < data.len() {
        if data[i] == 0 {
            let start = i;
            while i < data.len() && data[i] == 0 && i - start < u16::MAX as usize {
                i += 1;
            }
            out.push(0x00);
            out.extend_from_slice(&((i - start) as u16).to_le_bytes());
        } else {
            let start = i;
            while i < data.len() && data[i] != 0 && i - start < u16::MAX as usize {
                i += 1;
            }
            out.push(0x01);
            out.extend_from_slice(&((i - start) as u16).to_le_bytes());
            out.extend_from_slice(&data[start..i]);
        }
    }
    out
}

fn zero_rle_decompress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < data.len() {
        let tag = data[i];
        let len = u16::from_le_bytes([data[i + 1], data[i + 2]]) as usize;
        i += 3;
        match tag {
            0x00 => out.extend(std::iter::repeat_n(0u8, len)),
            0x01 => {
                out.extend_from_slice(&data[i..i + len]);
                i += len;
            }
            t => panic!("corrupt zero-rle stream: tag {t:#x}"),
        }
    }
    out
}

// --- LZSS -------------------------------------------------------------
// Token stream: 0x00 <len u16> <literal bytes> | 0x01 <offset u16> <len u16>.
//
// The matcher is greedy. At each position `i` it looks at every earlier
// position `p` with the same 4-byte prefix and `i - p <= LZ_WINDOW`, and
// takes the one that maximises `(min(len, LZ_GOOD_MATCH), p)`, where `len`
// is the common length of `data[p..]` and `data[i..]` capped at
// `u16::MAX`. That argmax is the whole contract: any search that computes
// it emits the same tokens, which is why the two searches below agree with
// each other and with the most-recent-first, stop-at-64, strictly-longer
// walk of the differential oracle in `tests/properties.rs`.
//
// A non-zero prefix walks a hash chain: `head` holds the latest position
// per prefix hash and `prev` links each position to the previous one with
// the same hash. The walk goes most recent first, skips entries with a
// different prefix, and keeps a candidate only if it is strictly longer,
// stopping at `LZ_GOOD_MATCH` bytes or at the cap.
// `prev` is a ring of one window: the search at `i` follows only positions
// `p >= i - LZ_WINDOW`, and the next position to reuse `p`'s slot,
// `p + LZ_WINDOW >= i`, is indexed only after that search.
//
// The all-zero prefix is searched by zero run instead, because sparse
// frames put hundreds of short zero runs in every window and none of them
// reaches the early stop, so a chain walk would visit every zero position
// in the window. Its positions never enter the chain: no other prefix can
// equal it. Let `r` be the zeros left at `i`. A candidate with `Z` zeros
// left matches `Z` bytes if `Z < r`, `r` if `Z > r`, and `r` plus the
// common tail of the two runs if `Z == r`. So in the run holding `i` the
// best candidate is `i - 1`, and an earlier run offers at most two: the
// largest `Z <= min(r - 1, LZ_GOOD_MATCH)` that the window reaches, and
// `Z == r`. `zero_match` walks the maximal zero runs newest first.

const LZ_WINDOW: usize = 2048;
const LZ_MIN_MATCH: usize = 4;
const LZ_GOOD_MATCH: usize = 64;
const LZ_MAX_RUN: usize = u16::MAX as usize;
const LZ_HASH_BITS: u32 = 14;
const LZ_NIL: usize = usize::MAX;

fn prefix_at(data: &[u8], i: usize) -> u32 {
    u32::from_le_bytes(data[i..i + 4].try_into().expect("4-byte prefix"))
}

fn prefix_hash(prefix: u32) -> usize {
    (prefix.wrapping_mul(0x9E37_79B1) >> (32 - LZ_HASH_BITS)) as usize
}

/// The matcher's index of non-zero prefixes (see the section comment).
struct HashChain {
    head: Vec<usize>,
    prev: Vec<usize>,
}

impl HashChain {
    fn new() -> HashChain {
        HashChain {
            head: vec![LZ_NIL; 1 << LZ_HASH_BITS],
            prev: vec![LZ_NIL; LZ_WINDOW],
        }
    }

    /// Indexes the prefix starting at `k` unless it is all zero;
    /// positions arrive in order.
    fn insert(&mut self, data: &[u8], k: usize) {
        let key = prefix_at(data, k);
        if key != 0 {
            let h = prefix_hash(key);
            self.prev[k % LZ_WINDOW] = self.head[h];
            self.head[h] = k;
        }
    }

    /// The best `(len, offset)` for the non-zero prefix `key` at `i`.
    fn best_match(&self, data: &[u8], key: u32, i: usize, max: usize) -> (usize, usize) {
        let (mut best_len, mut best_off) = (0, 0);
        let mut p = self.head[prefix_hash(key)];
        // a candidate whose byte at `best_len` differs cannot be strictly
        // longer, and none can once `best_len` reaches `max`
        while p != LZ_NIL && i - p <= LZ_WINDOW && best_len < max {
            if prefix_at(data, p) == key && data[p + best_len] == data[i + best_len] {
                let l = match_len(data, p, i, max);
                if l > best_len {
                    best_len = l;
                    best_off = i - p;
                    if l >= LZ_GOOD_MATCH {
                        break;
                    }
                }
            }
            p = self.prev[p % LZ_WINDOW];
        }
        (best_len, best_off)
    }
}

/// The maximal runs of zero bytes at least `LZ_MIN_MATCH` long, as
/// `(start, end)` in order.
fn zero_runs(data: &[u8]) -> Vec<(usize, usize)> {
    let mut runs = Vec::new();
    let mut i = 0;
    while let Some(z) = data[i..].iter().position(|&b| b == 0) {
        let start = i + z;
        let end = data[start..]
            .iter()
            .position(|&b| b != 0)
            .map_or(data.len(), |n| start + n);
        if end - start >= LZ_MIN_MATCH {
            runs.push((start, end));
        }
        i = end;
    }
    runs
}

/// The best `(len, offset)` for the all-zero prefix at `i`, which lies in
/// `runs[cur]` (see the section comment): the argmax of
/// `(min(len, LZ_GOOD_MATCH), p)` over the zero runs, newest first.
fn zero_match(
    data: &[u8],
    runs: &[(usize, usize)],
    cur: usize,
    i: usize,
    max: usize,
) -> (usize, usize) {
    let (start, end) = runs[cur];
    let r = end - i;
    let enough = LZ_GOOD_MATCH.min(max);
    let (mut best_len, mut best_off) = if start < i { (r.min(max), 1) } else { (0, 0) };
    let window = i.saturating_sub(LZ_WINDOW);
    for &(s, e) in runs[..cur].iter().rev() {
        if best_len >= enough {
            break;
        }
        let zmax = e.saturating_sub(s.max(window));
        if zmax < LZ_MIN_MATCH {
            break; // this run and every earlier one are out of reach
        }
        // `Z < r` matches `Z` bytes: the longest counts, up to the early stop
        let z = zmax.min(r - 1).min(LZ_GOOD_MATCH);
        if z >= LZ_MIN_MATCH && z > best_len {
            best_len = z;
            best_off = i - (e - z);
        }
        // `Z == r` matches `r` bytes plus the common tail
        if r <= zmax && best_len < enough {
            let l = match_len(data, e - r, i, max);
            if l > best_len {
                best_len = l;
                best_off = i - (e - r);
            }
        }
    }
    (best_len, best_off)
}

/// Length of the common run of `data[p..]` and `data[i..]` (`p < i`),
/// at most `max`, compared eight bytes at a time.
fn match_len(data: &[u8], p: usize, i: usize, max: usize) -> usize {
    let word = |at: usize| u64::from_le_bytes(data[at..at + 8].try_into().expect("8 bytes"));
    let mut l = 0;
    while l + 8 <= max {
        let diff = word(p + l) ^ word(i + l);
        if diff != 0 {
            return l + (diff.trailing_zeros() / 8) as usize;
        }
        l += 8;
    }
    while l < max && data[p + l] == data[i + l] {
        l += 1;
    }
    l
}

/// LZSS-encodes raw bytes (what [`CompressionAlgo::Lz`] applies to a
/// bitstream): a greedy match search over a 2 KiB window, emitting
/// `0x00 <len u16> <bytes>` literal runs and `0x01 <offset u16> <len u16>`
/// back-references, both capped at `u16::MAX` bytes.
pub fn lz_compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut chain = HashChain::new();
    let runs = zero_runs(data);
    let mut run = 0; // the first zero run that ends after `i`
    let flush_literals = |out: &mut Vec<u8>, lits: &[u8]| {
        for chunk in lits.chunks(LZ_MAX_RUN) {
            out.push(0x00);
            out.extend_from_slice(&(chunk.len() as u16).to_le_bytes());
            out.extend_from_slice(chunk);
        }
    };
    // positions that start a whole 4-byte prefix
    let indexable = data.len().saturating_sub(LZ_MIN_MATCH - 1);

    let mut lit_start = 0;
    let mut i = 0;
    while i < data.len() {
        let (best_len, best_off) = if i < indexable {
            let key = prefix_at(data, i);
            let max = (data.len() - i).min(LZ_MAX_RUN);
            if key == 0 {
                while runs[run].1 <= i {
                    run += 1;
                }
                zero_match(data, &runs, run, i, max)
            } else {
                chain.best_match(data, key, i, max)
            }
        } else {
            (0, 0)
        };
        if best_len >= LZ_MIN_MATCH {
            flush_literals(&mut out, &data[lit_start..i]);
            out.push(0x01);
            out.extend_from_slice(&(best_off as u16).to_le_bytes());
            out.extend_from_slice(&(best_len as u16).to_le_bytes());
            for k in i..(i + best_len).min(indexable) {
                chain.insert(data, k);
            }
            i += best_len;
            lit_start = i;
        } else {
            if i < indexable {
                chain.insert(data, i);
            }
            i += 1;
        }
    }
    flush_literals(&mut out, &data[lit_start..]);
    out
}

fn lz_decompress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < data.len() {
        match data[i] {
            0x00 => {
                let len = u16::from_le_bytes([data[i + 1], data[i + 2]]) as usize;
                i += 3;
                out.extend_from_slice(&data[i..i + len]);
                i += len;
            }
            0x01 => {
                let off = u16::from_le_bytes([data[i + 1], data[i + 2]]) as usize;
                let len = u16::from_le_bytes([data[i + 3], data[i + 4]]) as usize;
                i += 5;
                assert!(off > 0, "corrupt lz stream: zero offset");
                // at most `off` bytes per copy, so an overlapping
                // reference reads only bytes already written
                let mut src = out.len() - off;
                let end = src + len;
                while src < end {
                    let n = (end - src).min(off);
                    out.extend_from_within(src..src + n);
                    src += n;
                }
            }
            t => panic!("corrupt lz stream: tag {t:#x}"),
        }
    }
    out
}

// --- frame dedup ------------------------------------------------------
// Header: frame count u32 le. Then per frame: u32 le, MSB set => literal
// frame follows; else index of an earlier frame to copy.

fn frame_dedup_compress(data: &[u8]) -> Vec<u8> {
    use std::collections::HashMap;
    assert!(
        data.len().is_multiple_of(FRAME_BYTES),
        "bitstreams are frame aligned"
    );
    let frames = data.len() / FRAME_BYTES;
    let mut out = Vec::new();
    out.extend_from_slice(&(frames as u32).to_le_bytes());
    let mut seen: HashMap<&[u8], u32> = HashMap::new();
    for f in 0..frames {
        let frame = &data[f * FRAME_BYTES..(f + 1) * FRAME_BYTES];
        if let Some(&idx) = seen.get(frame) {
            out.extend_from_slice(&idx.to_le_bytes());
        } else {
            out.extend_from_slice(&(f as u32 | 0x8000_0000).to_le_bytes());
            out.extend_from_slice(frame);
            seen.insert(frame, f as u32);
        }
    }
    out
}

fn frame_dedup_decompress(data: &[u8]) -> Vec<u8> {
    let frames = u32::from_le_bytes(data[0..4].try_into().expect("header")) as usize;
    let mut out: Vec<u8> = Vec::with_capacity(frames * FRAME_BYTES);
    let mut i = 4;
    for _ in 0..frames {
        let word = u32::from_le_bytes(data[i..i + 4].try_into().expect("frame word"));
        i += 4;
        if word & 0x8000_0000 != 0 {
            out.extend_from_slice(&data[i..i + FRAME_BYTES]);
            i += FRAME_BYTES;
        } else {
            let src = word as usize * FRAME_BYTES;
            out.extend_from_within(src..src + FRAME_BYTES);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(seed: u64) -> Bitstream {
        Bitstream::synthesize(Resources::new(400, 8, 16), seed)
    }

    #[test]
    fn synthesize_is_deterministic_and_sized() {
        let a = sample(9);
        let b = sample(9);
        let c = sample(10);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(
            a.len(),
            424 * BYTES_PER_CELL / FRAME_BYTES * FRAME_BYTES
                + if (424 * BYTES_PER_CELL).is_multiple_of(FRAME_BYTES) {
                    0
                } else {
                    FRAME_BYTES
                }
        );
        assert_eq!(a.len() % FRAME_BYTES, 0);
        assert!(a.frames() > 0);
    }

    #[test]
    fn from_bytes_pads_to_frame() {
        let bs = Bitstream::from_bytes(vec![1, 2, 3]);
        assert_eq!(bs.len(), FRAME_BYTES);
        assert_eq!(&bs.as_bytes()[..3], &[1, 2, 3]);
        assert!(!bs.is_empty());
    }

    #[test]
    fn all_algorithms_roundtrip() {
        for seed in [1u64, 2, 3, 99] {
            let bs = sample(seed);
            for algo in CompressionAlgo::ALL {
                let packed = algo.compress(&bs);
                let back = algo.decompress(&packed);
                assert_eq!(back.as_bytes(), bs.as_bytes(), "{} failed", algo.name());
            }
        }
    }

    #[test]
    fn roundtrip_edge_cases() {
        for data in [
            vec![],
            vec![0u8; FRAME_BYTES],
            vec![0xAB; FRAME_BYTES],
            (0..FRAME_BYTES as u32)
                .map(|i| (i % 251) as u8)
                .collect::<Vec<_>>(),
        ] {
            let bs = Bitstream::from_bytes(data);
            for algo in CompressionAlgo::ALL {
                let back = algo.decompress(&algo.compress(&bs));
                assert_eq!(back.as_bytes(), bs.as_bytes(), "{} failed", algo.name());
            }
        }
    }

    #[test]
    fn compression_actually_compresses_synthetic_streams() {
        let bs = sample(42);
        for algo in [
            CompressionAlgo::ZeroRle,
            CompressionAlgo::Lz,
            CompressionAlgo::FrameDedup,
        ] {
            let s = algo.stats(&bs);
            assert!(
                s.ratio() > 1.3,
                "{} ratio {} too low",
                algo.name(),
                s.ratio()
            );
        }
        assert_eq!(CompressionAlgo::None.stats(&bs).ratio(), 1.0);
    }

    #[test]
    fn lz_beats_rle_on_repeated_frames() {
        // a stream of many identical non-zero frames: dedup and LZ shine,
        // zero-RLE cannot compress it at all.
        let frame: Vec<u8> = (0..FRAME_BYTES).map(|i| (i % 255) as u8 + 1).collect();
        let mut data = Vec::new();
        for _ in 0..32 {
            data.extend_from_slice(&frame);
        }
        let bs = Bitstream::from_bytes(data);
        let rle = CompressionAlgo::ZeroRle.stats(&bs).ratio();
        let lz = CompressionAlgo::Lz.stats(&bs).ratio();
        let dedup = CompressionAlgo::FrameDedup.stats(&bs).ratio();
        assert!(rle < 1.1);
        assert!(lz > 5.0);
        assert!(dedup > 5.0);
    }

    #[test]
    fn stats_ratio_handles_empty() {
        let s = CompressionStats {
            original: 0,
            compressed: 0,
        };
        assert_eq!(s.ratio(), 1.0);
    }

    #[test]
    fn names_and_speed_factors() {
        assert_eq!(CompressionAlgo::Lz.name(), "lz");
        assert!(CompressionAlgo::Lz.decompress_speed_factor() < 1.0);
        assert_eq!(CompressionAlgo::ZeroRle.decompress_speed_factor(), 1.0);
    }
}
