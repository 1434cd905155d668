//! The partial-reconfiguration port.
//!
//! Loading a module means streaming its (possibly compressed) bitstream
//! through an ICAP-class configuration port. Compression reduces the
//! bytes fetched from memory — and with a hardware decompressor running
//! at port speed, the configuration latency and energy drop by the same
//! ratio \[11\].

use ecoscale_sim::{Counter, Duration, Energy, MetricsRegistry, Persist, RestoreError, SnapIo};

use crate::bitstream::{Bitstream, CompressionAlgo};

/// Configuration-port parameters.
///
/// As in \[11\], the configuration pipeline has two stages: bitstream bytes
/// are *fetched* from storage over a shared memory path
/// ([`ReconfigPort::fetch_bandwidth`], typically far below the port's raw
/// rate because the bus is shared with the running application), then
/// clocked into the fabric through the ICAP
/// ([`ReconfigPort::icap_bandwidth`]). With an on-chip decompressor the
/// fetch stage moves only the *compressed* bytes — which is precisely why
/// compression cuts configuration latency, memory and power together.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReconfigPort {
    /// ICAP bandwidth in bytes/s (Zynq ICAP ≈ 400 MB/s).
    pub icap_bandwidth: u64,
    /// Effective bitstream-fetch bandwidth from storage, bytes/s.
    pub fetch_bandwidth: u64,
    /// Fixed per-reconfiguration setup cost (driver + port arbitration).
    pub setup: Duration,
    /// Energy per byte streamed through the port.
    pub energy_per_byte: Energy,
    /// Energy per byte fetched from bitstream storage (DRAM).
    pub fetch_energy_per_byte: Energy,
}

impl Default for ReconfigPort {
    fn default() -> Self {
        ReconfigPort {
            icap_bandwidth: 400_000_000,
            fetch_bandwidth: 100_000_000,
            setup: Duration::from_us(20),
            energy_per_byte: Energy::from_pj(50.0),
            fetch_energy_per_byte: Energy::from_pj(160.0),
        }
    }
}

/// Accumulated reconfiguration activity.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ReconfigStats {
    /// Reconfigurations performed.
    pub loads: u64,
    /// Total bytes streamed into the fabric (uncompressed size).
    pub config_bytes: u64,
    /// Total bytes fetched from storage (compressed size).
    pub stored_bytes: u64,
    /// Total time spent reconfiguring.
    pub busy: Duration,
    /// Total reconfiguration energy.
    pub energy: Energy,
}

impl ReconfigStats {
    /// Folds these stats into `m` under `prefix` (`{prefix}.loads`,
    /// `.config_bytes`, `.stored_bytes`, `.busy_us` counters and an
    /// `.energy_uj` observation). Exporting several ports' stats under
    /// one prefix aggregates them.
    pub fn export_metrics(&self, m: &mut MetricsRegistry, prefix: &str) {
        m.add(&format!("{prefix}.loads"), self.loads);
        m.add(&format!("{prefix}.config_bytes"), self.config_bytes);
        m.add(&format!("{prefix}.stored_bytes"), self.stored_bytes);
        m.add(&format!("{prefix}.busy_us"), self.busy.as_ns() / 1_000);
        m.observe(&format!("{prefix}.energy_uj"), self.energy.as_uj());
    }
}

impl Persist for ReconfigStats {
    fn persist<IO: SnapIo>(&mut self, io: &mut IO) -> Result<(), RestoreError> {
        io.u64(&mut self.loads)?;
        io.u64(&mut self.config_bytes)?;
        io.u64(&mut self.stored_bytes)?;
        io.duration(&mut self.busy)?;
        self.energy.persist(io)
    }
}

impl ReconfigPort {
    /// Latency and energy of loading `bs` stored under `algo`.
    ///
    /// The pipeline is bottlenecked by whichever stage is slower: fetching
    /// the *compressed* bytes from storage, or clocking the *uncompressed*
    /// frames through the ICAP (throttled for LZ by its decompressor,
    /// [`CompressionAlgo::decompress_speed_factor`]).
    pub fn load_cost(&self, bs: &Bitstream, algo: CompressionAlgo) -> (Duration, Energy) {
        let compressed = algo.stats(bs).compressed.max(1) as u64;
        let uncompressed = bs.len().max(1) as u64;
        let icap_bw = (self.icap_bandwidth as f64 * algo.decompress_speed_factor()) as u64;
        let fetch = Duration::from_bytes_at_bandwidth(compressed, self.fetch_bandwidth);
        let stream = Duration::from_bytes_at_bandwidth(uncompressed, icap_bw);
        let lat = self.setup + fetch.max(stream);
        let energy = self.energy_per_byte * uncompressed as f64
            + self.fetch_energy_per_byte * compressed as f64;
        (lat, energy)
    }

    /// Loads `bs`, updating `stats`, and returns the latency.
    pub fn load(
        &self,
        bs: &Bitstream,
        algo: CompressionAlgo,
        stats: &mut ReconfigStats,
    ) -> Duration {
        let (lat, energy) = self.load_cost(bs, algo);
        stats.loads += 1;
        stats.config_bytes += bs.len() as u64;
        stats.stored_bytes += algo.stats(bs).compressed as u64;
        stats.busy += lat;
        stats.energy += energy;
        lat
    }
}

/// Utility: counts reconfigurations per module for eviction policies.
#[derive(Debug, Clone, Default)]
pub struct LoadCounter {
    counts: std::collections::HashMap<u32, Counter>,
}

impl LoadCounter {
    /// Creates an empty counter.
    pub fn new() -> LoadCounter {
        LoadCounter::default()
    }

    /// Records a load of module `id`.
    pub fn record(&mut self, id: u32) {
        self.counts.entry(id).or_default().incr();
    }

    /// Loads of module `id` so far.
    pub fn loads(&self, id: u32) -> u64 {
        self.counts.get(&id).map_or(0, |c| c.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::Resources;

    fn bs() -> Bitstream {
        Bitstream::synthesize(Resources::new(600, 12, 24), 5)
    }

    #[test]
    fn compressed_load_is_faster_and_cheaper() {
        let port = ReconfigPort::default();
        let b = bs();
        let (lat_none, e_none) = port.load_cost(&b, CompressionAlgo::None);
        let (lat_rle, e_rle) = port.load_cost(&b, CompressionAlgo::ZeroRle);
        let (lat_lz, e_lz) = port.load_cost(&b, CompressionAlgo::Lz);
        assert!(lat_rle < lat_none, "{lat_rle} !< {lat_none}");
        assert!(lat_lz < lat_none);
        assert!(e_rle < e_none);
        assert!(e_lz < e_none);
    }

    #[test]
    fn load_updates_stats() {
        let port = ReconfigPort::default();
        let b = bs();
        let mut stats = ReconfigStats::default();
        let lat = port.load(&b, CompressionAlgo::FrameDedup, &mut stats);
        assert_eq!(stats.loads, 1);
        assert_eq!(stats.config_bytes, b.len() as u64);
        assert!(stats.stored_bytes < stats.config_bytes);
        assert_eq!(stats.busy, lat);
        assert!(stats.energy.as_nj() > 0.0);
    }

    #[test]
    fn setup_dominates_tiny_bitstreams() {
        let port = ReconfigPort::default();
        let tiny = Bitstream::from_bytes(vec![1, 2, 3]);
        let (lat, _) = port.load_cost(&tiny, CompressionAlgo::None);
        assert!(lat >= port.setup);
        assert!(lat < port.setup + Duration::from_us(10));
    }

    #[test]
    fn load_counter() {
        let mut lc = LoadCounter::new();
        lc.record(3);
        lc.record(3);
        lc.record(5);
        assert_eq!(lc.loads(3), 2);
        assert_eq!(lc.loads(5), 1);
        assert_eq!(lc.loads(99), 0);
    }

    #[test]
    fn latency_scales_with_module_size() {
        let port = ReconfigPort::default();
        let small = Bitstream::synthesize(Resources::new(100, 0, 0), 1);
        let big = Bitstream::synthesize(Resources::new(4000, 64, 64), 1);
        let (ls, _) = port.load_cost(&small, CompressionAlgo::None);
        let (lb, _) = port.load_cost(&big, CompressionAlgo::None);
        assert!(lb > ls);
    }
}
