//! A set-associative write-back cache model.
//!
//! Used for each Worker's data cache and for accelerator-local caches.
//! The model tracks tags and LRU state exactly (so hit/miss sequences are
//! deterministic) and reports evictions of dirty lines so callers can
//! charge write-back traffic.

use ecoscale_sim::{Counter, Persist, RestoreError, SnapIo};

/// Cache geometry and timing-free configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity: u64,
    /// Line size in bytes.
    pub line_size: u64,
    /// Associativity (ways per set).
    pub ways: usize,
}

impl CacheConfig {
    /// A 32 KiB, 64-byte-line, 4-way L1-style cache (Cortex-A53 class).
    pub fn l1_default() -> CacheConfig {
        CacheConfig {
            capacity: 32 * 1024,
            line_size: 64,
            ways: 4,
        }
    }

    /// A 512 KiB, 64-byte-line, 16-way shared-L2-style cache.
    pub fn l2_default() -> CacheConfig {
        CacheConfig {
            capacity: 512 * 1024,
            line_size: 64,
            ways: 16,
        }
    }

    fn sets(&self) -> usize {
        (self.capacity / self.line_size) as usize / self.ways
    }
}

/// The outcome of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheAccess {
    /// The line was present.
    Hit,
    /// The line was filled; no write-back needed.
    Miss,
    /// The line was filled and a dirty victim must be written back.
    MissDirtyEviction {
        /// Address of the first byte of the evicted line.
        victim_addr: u64,
    },
}

impl CacheAccess {
    /// Returns `true` for [`CacheAccess::Hit`].
    pub fn is_hit(self) -> bool {
        matches!(self, CacheAccess::Hit)
    }
}

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    lru: u64,
}

/// A set-associative write-back cache with exact LRU replacement.
///
/// # Example
///
/// ```
/// use ecoscale_mem::{Cache, CacheConfig};
///
/// let mut c = Cache::new(CacheConfig::l1_default());
/// assert!(!c.access(0x1000, false).is_hit()); // cold miss
/// assert!(c.access(0x1000, false).is_hit());  // now resident
/// assert!(c.access(0x1020, false).is_hit());  // same 64-byte line
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    sets: Vec<Vec<Line>>,
    clock: u64,
    hits: Counter,
    misses: Counter,
    writebacks: Counter,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero sets/ways, non-power-of-2
    /// line size, or capacity not divisible by `line_size × ways`).
    pub fn new(config: CacheConfig) -> Cache {
        assert!(
            config.line_size.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(config.ways > 0, "cache needs at least one way");
        assert!(
            config
                .capacity
                .is_multiple_of(config.line_size * config.ways as u64),
            "capacity must divide evenly into sets"
        );
        let sets = config.sets();
        assert!(sets > 0, "cache needs at least one set");
        Cache {
            config,
            sets: vec![
                vec![
                    Line {
                        tag: 0,
                        valid: false,
                        dirty: false,
                        lru: 0
                    };
                    config.ways
                ];
                sets
            ],
            clock: 0,
            hits: Counter::new(),
            misses: Counter::new(),
            writebacks: Counter::new(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    fn index(&self, addr: u64) -> (usize, u64) {
        let line = addr / self.config.line_size;
        let set = (line % self.sets.len() as u64) as usize;
        let tag = line / self.sets.len() as u64;
        (set, tag)
    }

    /// Accesses `addr`; `write` marks the line dirty.
    pub fn access(&mut self, addr: u64, write: bool) -> CacheAccess {
        self.clock += 1;
        let (set_idx, tag) = self.index(addr);
        let sets_len = self.sets.len() as u64;
        let line_size = self.config.line_size;
        let set = &mut self.sets[set_idx];

        if let Some(line) = set.iter_mut().find(|l| l.valid && l.tag == tag) {
            line.lru = self.clock;
            line.dirty |= write;
            self.hits.incr();
            return CacheAccess::Hit;
        }
        self.misses.incr();
        // choose victim: first invalid, else LRU
        let victim_idx = set.iter().position(|l| !l.valid).unwrap_or_else(|| {
            set.iter()
                .enumerate()
                .min_by_key(|(_, l)| l.lru)
                .map(|(i, _)| i)
                .expect("ways > 0")
        });
        let victim = set[victim_idx];
        let result = if victim.valid && victim.dirty {
            self.writebacks.incr();
            let victim_line = victim.tag * sets_len + set_idx as u64;
            CacheAccess::MissDirtyEviction {
                victim_addr: victim_line * line_size,
            }
        } else {
            CacheAccess::Miss
        };
        set[victim_idx] = Line {
            tag,
            valid: true,
            dirty: write,
            lru: self.clock,
        };
        result
    }

    /// Invalidates any line containing `addr`, returning `true` if a dirty
    /// line was dropped (caller should charge a write-back).
    pub fn invalidate(&mut self, addr: u64) -> bool {
        let (set_idx, tag) = self.index(addr);
        for line in &mut self.sets[set_idx] {
            if line.valid && line.tag == tag {
                line.valid = false;
                let was_dirty = line.dirty;
                line.dirty = false;
                if was_dirty {
                    self.writebacks.incr();
                }
                return was_dirty;
            }
        }
        false
    }

    /// Flushes the whole cache, returning the number of dirty lines
    /// written back.
    pub fn flush(&mut self) -> u64 {
        let mut dirty = 0;
        for set in &mut self.sets {
            for line in set {
                if line.valid && line.dirty {
                    dirty += 1;
                }
                line.valid = false;
                line.dirty = false;
            }
        }
        self.writebacks.add(dirty);
        dirty
    }

    /// Hit count so far.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Miss count so far.
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Write-back count so far.
    pub fn writebacks(&self) -> u64 {
        self.writebacks.get()
    }

    /// Hit rate in `[0, 1]` (0 for no accesses).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits.get() + self.misses.get();
        if total == 0 {
            0.0
        } else {
            self.hits.get() as f64 / total as f64
        }
    }
}

/// Every line row-major (set-major, way-minor: a fixed walk, so the
/// bytes are canonical), the LRU clock and the counters. The
/// [`CacheConfig`] is structural and not in the stream: load onto a
/// cache of the same geometry.
impl Persist for Cache {
    fn persist<IO: SnapIo>(&mut self, io: &mut IO) -> Result<(), RestoreError> {
        io.u64(&mut self.clock)?;
        for line in self.sets.iter_mut().flatten() {
            io.u64(&mut line.tag)?;
            io.bool(&mut line.valid)?;
            io.bool(&mut line.dirty)?;
            io.u64(&mut line.lru)?;
        }
        for c in [&mut self.hits, &mut self.misses, &mut self.writebacks] {
            c.persist(io)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets × 2 ways × 64 B lines = 256 B
        Cache::new(CacheConfig {
            capacity: 256,
            line_size: 64,
            ways: 2,
        })
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert_eq!(c.access(0, false), CacheAccess::Miss);
        assert_eq!(c.access(0, false), CacheAccess::Hit);
        assert_eq!(c.access(63, false), CacheAccess::Hit);
        assert_eq!(c.access(64, false), CacheAccess::Miss);
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 2);
        assert!((c.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // set 0 holds lines with (line % 2 == 0): addresses 0, 128, 256...
        c.access(0, false); // A
        c.access(128, false); // B
        c.access(0, false); // touch A so B is LRU
        c.access(256, false); // C evicts B
        assert_eq!(c.access(0, false), CacheAccess::Hit); // A survived
        assert_eq!(c.access(128, false), CacheAccess::Miss); // B gone
    }

    #[test]
    fn dirty_eviction_reports_victim() {
        let mut c = tiny();
        c.access(0, true); // dirty A in set 0
        c.access(128, false); // B
        c.access(256, false); // evicts A (LRU) -> dirty writeback
                              // find the eviction among the last access
        let mut c2 = tiny();
        c2.access(0, true);
        c2.access(128, false);
        match c2.access(256, false) {
            CacheAccess::MissDirtyEviction { victim_addr } => assert_eq!(victim_addr, 0),
            other => panic!("expected dirty eviction, got {other:?}"),
        }
        assert_eq!(c2.writebacks(), 1);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = tiny();
        c.access(0, false);
        c.access(0, true); // hit, marks dirty
        c.access(128, false);
        match c.access(256, false) {
            CacheAccess::MissDirtyEviction { victim_addr } => assert_eq!(victim_addr, 0),
            other => panic!("expected dirty eviction, got {other:?}"),
        }
    }

    #[test]
    fn invalidate_clean_and_dirty() {
        let mut c = tiny();
        c.access(0, false);
        assert!(!c.invalidate(0));
        assert_eq!(c.access(0, false), CacheAccess::Miss); // gone
        c.access(64, true);
        assert!(c.invalidate(64));
        assert!(!c.invalidate(64)); // already gone
    }

    #[test]
    fn flush_counts_dirty_lines() {
        let mut c = tiny();
        c.access(0, true);
        c.access(64, false);
        c.access(128, true);
        assert_eq!(c.flush(), 2);
        assert_eq!(c.access(0, false), CacheAccess::Miss);
    }

    #[test]
    fn default_geometries_sane() {
        let l1 = Cache::new(CacheConfig::l1_default());
        assert_eq!(l1.config().capacity, 32 * 1024);
        let l2 = Cache::new(CacheConfig::l2_default());
        assert_eq!(l2.config().ways, 16);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_line_size_rejected() {
        Cache::new(CacheConfig {
            capacity: 256,
            line_size: 48,
            ways: 2,
        });
    }

    #[test]
    fn working_set_larger_than_capacity_thrashes() {
        let mut c = tiny();
        // stream 16 distinct lines twice: second pass still misses
        for pass in 0..2 {
            for i in 0..16u64 {
                let r = c.access(i * 64, false);
                if pass == 1 {
                    assert!(!r.is_hit(), "line {i} unexpectedly survived");
                }
            }
        }
    }
}
