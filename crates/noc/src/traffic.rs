//! Traffic accounting: who moved how many bytes over which levels.

use ecoscale_sim::{Energy, Histogram, Persist, RestoreError, SnapIo};

use crate::topology::Route;

/// Accumulated interconnect traffic statistics.
///
/// # Example
///
/// ```
/// use ecoscale_noc::{CostModel, NodeId, Topology, TrafficStats, TreeTopology};
///
/// let topo = TreeTopology::new(&[4, 4]);
/// let cost = CostModel::ecoscale_defaults();
/// let mut stats = TrafficStats::new();
/// for dst in [1, 14] {
///     let route = topo.route(NodeId(0), NodeId(dst));
///     stats.record(&route, 256, cost.energy(&route, 256));
/// }
/// assert_eq!(stats.messages(), 2);
/// assert!(stats.bytes_at_level(1) > 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TrafficStats {
    messages: u64,
    local_messages: u64,
    payload_bytes: u64,
    /// bytes × hops, the classic traffic metric
    byte_hops: u64,
    bytes_per_level: Vec<u64>,
    hops: Histogram,
    energy: Energy,
}

impl TrafficStats {
    /// Creates an empty accumulator.
    pub fn new() -> TrafficStats {
        TrafficStats::default()
    }

    /// Records one message of `bytes` along `route` that was charged
    /// `energy` ([`crate::CostModel::energy`] of the route; ignored for a local
    /// route).
    pub fn record(&mut self, route: &Route, bytes: u64, energy: Energy) {
        self.messages += 1;
        self.payload_bytes += bytes;
        self.hops.record(route.hop_count() as u64);
        if route.is_local() {
            self.local_messages += 1;
            return;
        }
        for hop in route.iter() {
            let lvl = hop.level as usize;
            if self.bytes_per_level.len() <= lvl {
                self.bytes_per_level.resize(lvl + 1, 0);
            }
            self.bytes_per_level[lvl] += bytes;
            self.byte_hops += bytes;
        }
        self.energy += energy;
    }

    /// Total messages recorded (including local ones).
    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// Messages whose route was local (zero hops).
    pub fn local_messages(&self) -> u64 {
        self.local_messages
    }

    /// Total payload bytes offered (each message counted once).
    pub fn payload_bytes(&self) -> u64 {
        self.payload_bytes
    }

    /// Total bytes × hops moved (each byte counted once per link).
    pub fn byte_hops(&self) -> u64 {
        self.byte_hops
    }

    /// Bytes that crossed links of hierarchy `level`.
    pub fn bytes_at_level(&self, level: usize) -> u64 {
        self.bytes_per_level.get(level).copied().unwrap_or(0)
    }

    /// Highest level any recorded message touched, if any went non-local.
    pub fn max_level_seen(&self) -> Option<usize> {
        if self.bytes_per_level.is_empty() {
            None
        } else {
            Some(self.bytes_per_level.len() - 1)
        }
    }

    /// Mean hops per message.
    pub fn mean_hops(&self) -> f64 {
        self.hops.mean()
    }

    /// Maximum hops of any message.
    pub fn max_hops(&self) -> u64 {
        self.hops.max()
    }

    /// Total interconnect energy charged.
    pub fn energy(&self) -> Energy {
        self.energy
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &TrafficStats) {
        self.messages += other.messages;
        self.local_messages += other.local_messages;
        self.payload_bytes += other.payload_bytes;
        self.byte_hops += other.byte_hops;
        if self.bytes_per_level.len() < other.bytes_per_level.len() {
            self.bytes_per_level.resize(other.bytes_per_level.len(), 0);
        }
        for (i, b) in other.bytes_per_level.iter().enumerate() {
            self.bytes_per_level[i] += b;
        }
        self.hops.merge(&other.hops);
        self.energy += other.energy;
    }
}

impl Persist for TrafficStats {
    fn persist<IO: SnapIo>(&mut self, io: &mut IO) -> Result<(), RestoreError> {
        io.u64(&mut self.messages)?;
        io.u64(&mut self.local_messages)?;
        io.u64(&mut self.payload_bytes)?;
        io.u64(&mut self.byte_hops)?;
        self.bytes_per_level.persist(io)?;
        self.hops.persist(io)?;
        self.energy.persist(io)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::topology::{NodeId, Topology, TreeTopology};

    fn setup() -> (TreeTopology, CostModel) {
        (TreeTopology::new(&[4, 4]), CostModel::ecoscale_defaults())
    }

    /// Records `bytes` from `src` to `dst`, charged as the network does.
    fn record(
        s: &mut TrafficStats,
        (t, c): (&TreeTopology, &CostModel),
        src: usize,
        dst: usize,
        bytes: u64,
    ) {
        let route = t.route(NodeId(src), NodeId(dst));
        s.record(&route, bytes, c.energy(&route, bytes));
    }

    #[test]
    fn records_local_and_remote() {
        let (t, c) = setup();
        let mut s = TrafficStats::new();
        record(&mut s, (&t, &c), 0, 0, 100);
        record(&mut s, (&t, &c), 0, 1, 100);
        assert_eq!(s.messages(), 2);
        assert_eq!(s.local_messages(), 1);
        assert_eq!(s.payload_bytes(), 200);
        // local message contributes no byte-hops or energy
        assert_eq!(s.byte_hops(), 200); // 100 bytes * 2 hops
        assert!(s.energy().as_pj() > 0.0);
    }

    #[test]
    fn per_level_attribution() {
        let (t, c) = setup();
        let mut s = TrafficStats::new();
        // crosses level 1: hops at levels [0, 1, 1, 0] -> wait, route is
        // up(l0), up(l1)... our tree: top=2 means hops levels 0,1 then 1,0.
        record(&mut s, (&t, &c), 0, 15, 10);
        assert_eq!(s.bytes_at_level(0), 20);
        assert_eq!(s.bytes_at_level(1), 20);
        assert_eq!(s.bytes_at_level(2), 0);
        assert_eq!(s.max_level_seen(), Some(1));
        assert_eq!(s.max_hops(), 4);
    }

    #[test]
    fn merge_adds_everything() {
        let (t, c) = setup();
        let mut a = TrafficStats::new();
        let mut b = TrafficStats::new();
        record(&mut a, (&t, &c), 0, 1, 50);
        record(&mut b, (&t, &c), 0, 15, 70);
        let solo_energy = a.energy() + b.energy();
        a.merge(&b);
        assert_eq!(a.messages(), 2);
        assert_eq!(a.payload_bytes(), 120);
        assert!((a.energy().as_pj() - solo_energy.as_pj()).abs() < 1e-6);
        assert_eq!(a.mean_hops(), 3.0);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = TrafficStats::new();
        assert_eq!(s.messages(), 0);
        assert_eq!(s.mean_hops(), 0.0);
        assert_eq!(s.max_level_seen(), None);
        assert_eq!(s.bytes_at_level(3), 0);
    }
}
