//! UNIMEM: the partitioned global address space with single-node
//! cacheability.
//!
//! The UNIMEM consistency model (from EUROSERVER, adopted by ECOSCALE):
//! *"a memory page can be cacheable at the local coherent node or at a
//! remote coherent node, but not at both"*. [`UnimemDirectory`] tracks,
//! for every page, the one node allowed to cache it (its **cache home**,
//! by default the page's owning node). [`UnimemSystem`] then costs every
//! access:
//!
//! * an access **from the cache home** goes through that node's cache
//!   (hit, or miss + fill from the owning node's DRAM),
//! * an access **from any other node** is an *uncached* load/store routed
//!   over the interconnect to the owning node — always correct, never
//!   coherent-state-carrying, which is exactly why no global coherence
//!   protocol is needed.

use std::collections::HashMap;
use std::fmt;

use ecoscale_noc::{Network, NodeId, Topology};
use ecoscale_sim::check::{invariant, CheckPlane};
use ecoscale_sim::{
    Counter, Duration, Energy, MetricsRegistry, Persist, RestoreError, SnapIo, Time,
};

use crate::addr::GlobalAddr;
use crate::cache::{Cache, CacheAccess, CacheConfig};
use crate::dram::DramModel;

/// How an access was satisfied. The discriminants index the per-kind
/// counters, in `ALL_KINDS` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Hit in the cache at the page's cache home.
    CacheHit,
    /// Miss at the cache home, filled from the owner's local DRAM.
    CacheMissLocalFill,
    /// Miss at the cache home, filled from a remote owner's DRAM.
    CacheMissRemoteFill,
    /// Uncached access from a node that is not the page's cache home.
    RemoteUncached,
    /// Atomic read-modify-write executed at the home node.
    Atomic,
    /// Home-side DRAM service of a request that originated *outside*
    /// this memory system (the sharded simulator runs one `UnimemSystem`
    /// per cluster; cross-cluster requests arrive as NoC messages and
    /// are serviced through [`UnimemSystem::serve_remote`]).
    RemoteServed,
}

/// Every [`AccessKind`] in a fixed order, used for the deterministic
/// snapshot byte layout of the per-kind counters.
const ALL_KINDS: [AccessKind; 6] = [
    AccessKind::CacheHit,
    AccessKind::CacheMissLocalFill,
    AccessKind::CacheMissRemoteFill,
    AccessKind::RemoteUncached,
    AccessKind::Atomic,
    AccessKind::RemoteServed,
];

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AccessKind::CacheHit => "cache-hit",
            AccessKind::CacheMissLocalFill => "miss-local-fill",
            AccessKind::CacheMissRemoteFill => "miss-remote-fill",
            AccessKind::RemoteUncached => "remote-uncached",
            AccessKind::Atomic => "atomic",
            AccessKind::RemoteServed => "remote-served",
        };
        f.write_str(s)
    }
}

/// The outcome of one memory access.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemAccess {
    /// When the access completes.
    pub completion: Time,
    /// Total latency.
    pub latency: Duration,
    /// Energy charged (cache + DRAM + interconnect).
    pub energy: Energy,
    /// How it was satisfied.
    pub kind: AccessKind,
}

/// Per-page cache-home directory.
///
/// The exclusive-cacheability invariant holds by construction: the
/// directory stores exactly one [`NodeId`] per page.
///
/// # Example
///
/// ```
/// use ecoscale_mem::{GlobalAddr, UnimemDirectory};
/// use ecoscale_noc::NodeId;
///
/// let mut dir = UnimemDirectory::new(4);
/// let page = GlobalAddr::new(NodeId(1), 0x2000);
/// assert_eq!(dir.cache_home(page), NodeId(1)); // defaults to the owner
/// dir.set_cache_home(page, NodeId(3));
/// assert_eq!(dir.cache_home(page), NodeId(3));
/// ```
#[derive(Debug, Clone)]
pub struct UnimemDirectory {
    nodes: usize,
    overrides: HashMap<(NodeId, u64), NodeId>,
    migrations: Counter,
}

impl UnimemDirectory {
    /// Creates a directory for `nodes` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn new(nodes: usize) -> UnimemDirectory {
        assert!(nodes > 0, "directory needs at least one node");
        UnimemDirectory {
            nodes,
            overrides: HashMap::new(),
            migrations: Counter::new(),
        }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The single node allowed to cache `addr`'s page.
    pub fn cache_home(&self, addr: GlobalAddr) -> NodeId {
        if self.overrides.is_empty() {
            return addr.home();
        }
        self.overrides
            .get(&(addr.home(), addr.page()))
            .copied()
            .unwrap_or_else(|| addr.home())
    }

    /// Moves the cache home of `addr`'s page, returning the previous home.
    ///
    /// # Panics
    ///
    /// Panics if `new_home` is out of range.
    pub fn set_cache_home(&mut self, addr: GlobalAddr, new_home: NodeId) -> NodeId {
        assert!(new_home.0 < self.nodes, "node {new_home} out of range");
        let old = self.cache_home(addr);
        if new_home == addr.home() {
            self.overrides.remove(&(addr.home(), addr.page()));
        } else {
            self.overrides.insert((addr.home(), addr.page()), new_home);
        }
        if old != new_home {
            self.migrations.incr();
        }
        old
    }

    /// Number of cache-home migrations performed.
    pub fn migrations(&self) -> u64 {
        self.migrations.get()
    }

    /// CheckPlane hook: every directory override must name an in-range node
    /// and must not alias the page's natural home (`set_cache_home` removes
    /// identity overrides, so a surviving one is stale state). Together with
    /// `HashMap` key uniqueness this is the paper's "exactly one cache home
    /// per page" claim. Read-only; early-outs when `cp` is disabled.
    pub fn check_invariants(&self, cp: &mut CheckPlane) {
        if !cp.is_enabled() {
            return;
        }
        for (&(home, page), &target) in &self.overrides {
            cp.check(
                invariant::UNIMEM_SINGLE_HOME,
                home.0 < self.nodes && target.0 < self.nodes,
                || format!("override ({home}, page {page:#x}) -> {target} out of range"),
            );
            cp.check(invariant::UNIMEM_SINGLE_HOME, target != home, || {
                format!("override ({home}, page {page:#x}) aliases the natural home")
            });
        }
    }
}

/// The node count (a load refuses a directory over another count), the
/// overrides in ascending `(home, page)` order, and the migration
/// counter. A load refuses an override naming a node out of range.
impl Persist for UnimemDirectory {
    fn persist<IO: SnapIo>(&mut self, io: &mut IO) -> Result<(), RestoreError> {
        let nodes = self.nodes;
        io.expect(nodes, "directory node count")?;
        io.map_with(
            &mut self.overrides,
            "directory overrides",
            |io, &(home, page), to| {
                to.persist(io)?;
                io.ensure(home.0 < nodes && to.0 < nodes, || {
                    format!("override ({home}, page {page:#x}) -> {to}: node out of range")
                })
            },
        )?;
        self.migrations.persist(io)
    }
}

/// The UNIMEM memory system: one cache per node, DRAM at every node, and
/// the cache-home directory.
///
/// # Example
///
/// ```
/// use ecoscale_mem::{CacheConfig, DramModel, GlobalAddr, UnimemSystem};
/// use ecoscale_noc::{Network, NetworkConfig, NodeId, TreeTopology};
/// use ecoscale_sim::Time;
///
/// let mut net = Network::new(TreeTopology::new(&[4]), NetworkConfig::default());
/// let mut mem = UnimemSystem::new(4, CacheConfig::l1_default(), DramModel::default());
/// let addr = GlobalAddr::new(NodeId(0), 0x1000);
/// // first access from the cache home: miss + local fill
/// let a = mem.read(&mut net, Time::ZERO, NodeId(0), addr, 64);
/// // second: cache hit, much faster
/// let b = mem.read(&mut net, a.completion, NodeId(0), addr, 64);
/// assert!(b.latency < a.latency);
/// ```
#[derive(Debug)]
pub struct UnimemSystem {
    directory: UnimemDirectory,
    caches: Vec<Cache>,
    dram: DramModel,
    cache_hit_latency: Duration,
    cache_energy_per_byte: Energy,
    /// Accesses served per kind, indexed by `AccessKind as usize`.
    kind_counts: [u64; ALL_KINDS.len()],
    /// Functional storage for atomics (word-granular; ordinary
    /// loads/stores are cost-only, but synchronization words must be
    /// real so fetch-and-add races resolve deterministically).
    atomics: HashMap<(NodeId, u64), i64>,
}

impl UnimemSystem {
    /// Creates a system with `nodes` nodes, one `cache_config` cache each,
    /// and `dram` channels.
    pub fn new(nodes: usize, cache_config: CacheConfig, dram: DramModel) -> UnimemSystem {
        UnimemSystem {
            directory: UnimemDirectory::new(nodes),
            caches: (0..nodes).map(|_| Cache::new(cache_config)).collect(),
            dram,
            cache_hit_latency: Duration::from_ns(2),
            cache_energy_per_byte: Energy::from_pj(1.0),
            kind_counts: [0; ALL_KINDS.len()],
            atomics: HashMap::new(),
        }
    }

    /// The page directory.
    pub fn directory(&self) -> &UnimemDirectory {
        &self.directory
    }

    /// Mutable page directory (for placement policies).
    pub fn directory_mut(&mut self) -> &mut UnimemDirectory {
        &mut self.directory
    }

    /// The cache of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn cache(&self, node: NodeId) -> &Cache {
        &self.caches[node.0]
    }

    /// How many accesses of each kind have been served.
    pub fn count(&self, kind: AccessKind) -> u64 {
        self.kind_counts[kind as usize]
    }

    /// Folds UNIMEM instruments into `m` under `prefix`: one counter
    /// per [`AccessKind`] (`{prefix}.access.*`), aggregate cache
    /// hit/miss/writeback counts across every node's cache, the
    /// local-vs-remote split the paper's exclusive-cacheability
    /// argument turns on, and directory migrations.
    pub fn export_metrics(&self, m: &mut MetricsRegistry, prefix: &str) {
        const KINDS: [(AccessKind, &str); 6] = [
            (AccessKind::CacheHit, "cache_hit"),
            (AccessKind::CacheMissLocalFill, "miss_local_fill"),
            (AccessKind::CacheMissRemoteFill, "miss_remote_fill"),
            (AccessKind::RemoteUncached, "remote_uncached"),
            (AccessKind::Atomic, "atomic"),
            (AccessKind::RemoteServed, "remote_served"),
        ];
        for (kind, label) in KINDS {
            m.add(&format!("{prefix}.access.{label}"), self.count(kind));
        }
        let local = self.count(AccessKind::CacheHit) + self.count(AccessKind::CacheMissLocalFill);
        let remote =
            self.count(AccessKind::CacheMissRemoteFill) + self.count(AccessKind::RemoteUncached);
        m.add(&format!("{prefix}.local_accesses"), local);
        m.add(&format!("{prefix}.remote_accesses"), remote);
        let (mut hits, mut misses, mut writebacks) = (0, 0, 0);
        for c in &self.caches {
            hits += c.hits();
            misses += c.misses();
            writebacks += c.writebacks();
        }
        m.add(&format!("{prefix}.cache.hits"), hits);
        m.add(&format!("{prefix}.cache.misses"), misses);
        m.add(&format!("{prefix}.cache.writebacks"), writebacks);
        m.add(&format!("{prefix}.migrations"), self.directory.migrations());
    }

    /// CheckPlane hook: directory single-home invariants plus agreement
    /// between the per-kind access counters and the per-node cache counters
    /// (every cacheable access is accounted exactly once on both sides).
    /// Read-only; early-outs when `cp` is disabled.
    pub fn check_invariants(&self, cp: &mut CheckPlane) {
        if !cp.is_enabled() {
            return;
        }
        self.directory.check_invariants(cp);
        cp.check(
            invariant::UNIMEM_COUNTS_AGREE,
            self.caches.len() == self.directory.nodes(),
            || {
                format!(
                    "{} caches for {} directory nodes",
                    self.caches.len(),
                    self.directory.nodes()
                )
            },
        );
        let hits: u64 = self.caches.iter().map(|c| c.hits()).sum();
        let misses: u64 = self.caches.iter().map(|c| c.misses()).sum();
        cp.check(
            invariant::UNIMEM_COUNTS_AGREE,
            hits == self.count(AccessKind::CacheHit),
            || {
                format!(
                    "cache hits {hits} != access.cache_hit {}",
                    self.count(AccessKind::CacheHit)
                )
            },
        );
        let fills = self.count(AccessKind::CacheMissLocalFill)
            + self.count(AccessKind::CacheMissRemoteFill);
        cp.check(invariant::UNIMEM_COUNTS_AGREE, misses == fills, || {
            format!("cache misses {misses} != local+remote fills {fills}")
        });
    }

    /// Home-side service of a UNIMEM request that arrived from outside
    /// this memory system: one DRAM access of `bytes`, counted as
    /// [`AccessKind::RemoteServed`]. The sharded simulator runs one
    /// `UnimemSystem` per cluster, so a cross-cluster access splits into
    /// the NoC transit (paid by the message carrying the request) and
    /// this service cost at the home cluster.
    pub fn serve_remote(&mut self, bytes: u64) -> (Duration, Energy) {
        let (latency, energy) = self.dram.access(bytes);
        self.bump(AccessKind::RemoteServed);
        (latency, energy)
    }

    /// Reads `bytes` at `addr` from `node`.
    pub fn read<T: Topology>(
        &mut self,
        net: &mut Network<T>,
        now: Time,
        node: NodeId,
        addr: GlobalAddr,
        bytes: u64,
    ) -> MemAccess {
        self.access(net, now, node, addr, bytes, false)
    }

    /// Writes `bytes` at `addr` from `node`.
    pub fn write<T: Topology>(
        &mut self,
        net: &mut Network<T>,
        now: Time,
        node: NodeId,
        addr: GlobalAddr,
        bytes: u64,
    ) -> MemAccess {
        self.access(net, now, node, addr, bytes, true)
    }

    /// Flat cache-index address for a global address (homes live in
    /// disjoint windows).
    fn flat(addr: GlobalAddr) -> u64 {
        ((addr.home().0 as u64) << 44) | addr.offset()
    }

    fn bump(&mut self, kind: AccessKind) {
        self.kind_counts[kind as usize] += 1;
    }

    fn access<T: Topology>(
        &mut self,
        net: &mut Network<T>,
        now: Time,
        node: NodeId,
        addr: GlobalAddr,
        bytes: u64,
        write: bool,
    ) -> MemAccess {
        assert!(node.0 < self.caches.len(), "node {node} out of range");
        let home = addr.home();
        let cache_home = self.directory.cache_home(addr);
        let line = self.caches[node.0].config().line_size;

        if node == cache_home {
            // Cacheable path.
            let outcome = self.caches[node.0].access(Self::flat(addr), write);
            match outcome {
                CacheAccess::Hit => {
                    self.bump(AccessKind::CacheHit);
                    MemAccess {
                        completion: now + self.cache_hit_latency,
                        latency: self.cache_hit_latency,
                        energy: self.cache_energy_per_byte * bytes as f64,
                        kind: AccessKind::CacheHit,
                    }
                }
                CacheAccess::Miss | CacheAccess::MissDirtyEviction { .. } => {
                    let mut energy = self.cache_energy_per_byte * bytes as f64;
                    let mut latency = self.cache_hit_latency;
                    // Fill a full line from the owner's DRAM.
                    let (dram_lat, dram_e) = self.dram.access(line);
                    energy += dram_e;
                    let kind;
                    if home == node {
                        latency += dram_lat;
                        kind = AccessKind::CacheMissLocalFill;
                    } else {
                        // request to owner + line back
                        let req = net.transfer(now + latency, node, home, 16);
                        let at_home = req.arrival + dram_lat;
                        let resp = net.transfer(at_home, home, node, line);
                        energy += req.energy + resp.energy;
                        latency = resp.arrival - now;
                        kind = AccessKind::CacheMissRemoteFill;
                    }
                    // Dirty eviction: write the victim line back to DRAM.
                    if let CacheAccess::MissDirtyEviction { .. } = outcome {
                        let (_, wb_e) = self.dram.access(line);
                        energy += wb_e;
                    }
                    self.bump(kind);
                    MemAccess {
                        completion: now + latency,
                        latency,
                        energy,
                        kind,
                    }
                }
            }
        } else {
            // Uncached remote load/store to the owner (plain UNIMEM
            // load/store — no coherence traffic, no local caching).
            let (req_bytes, resp_bytes) = if write { (16 + bytes, 8) } else { (16, bytes) };
            let req = net.transfer(now, node, home, req_bytes);
            let (dram_lat, dram_e) = self.dram.access(bytes);
            let at_home = req.arrival + dram_lat;
            let resp = net.transfer(at_home, home, node, resp_bytes);
            let energy = req.energy + resp.energy + dram_e;
            self.bump(AccessKind::RemoteUncached);
            MemAccess {
                completion: resp.arrival,
                latency: resp.arrival - now,
                energy,
                kind: AccessKind::RemoteUncached,
            }
        }
    }

    /// Atomically adds `delta` to the 8-byte word at `addr`, executed at
    /// the word's home node (the UNIMEM way to synchronize remote
    /// threads without coherence traffic). Returns the *previous* value
    /// plus the access cost: one request/response pair from `node` to
    /// the home, or a local cache-speed RMW when `node` is the home.
    pub fn fetch_add<T: Topology>(
        &mut self,
        net: &mut Network<T>,
        now: Time,
        node: NodeId,
        addr: GlobalAddr,
        delta: i64,
    ) -> (i64, MemAccess) {
        let home = addr.home();
        let old = *self.atomics.entry((home, addr.offset())).or_insert(0);
        self.atomics.insert((home, addr.offset()), old + delta);
        // op + addr + operand
        (old, self.atomic_cost(net, now, node, home, 24))
    }

    /// Atomic compare-and-swap on the 8-byte word at `addr`: stores
    /// `new` iff the current value equals `expected`. Returns
    /// `(previous value, swapped?)` plus the access cost.
    #[allow(clippy::too_many_arguments)]
    pub fn compare_swap<T: Topology>(
        &mut self,
        net: &mut Network<T>,
        now: Time,
        node: NodeId,
        addr: GlobalAddr,
        expected: i64,
        new: i64,
    ) -> (i64, bool, MemAccess) {
        let home = addr.home();
        let slot = self.atomics.entry((home, addr.offset())).or_insert(0);
        let old = *slot;
        let swapped = old == expected;
        if swapped {
            *slot = new;
        }
        // op + addr + expected + new
        (old, swapped, self.atomic_cost(net, now, node, home, 32))
    }

    /// Costs one atomic read-modify-write of an 8-byte word at `home`: a
    /// local cache-speed RMW when `node` is the home, otherwise a
    /// `req_bytes` request to the home and an 8-byte response.
    fn atomic_cost<T: Topology>(
        &mut self,
        net: &mut Network<T>,
        now: Time,
        node: NodeId,
        home: NodeId,
        req_bytes: u64,
    ) -> MemAccess {
        self.bump(AccessKind::Atomic);
        let (dram_lat, dram_e) = self.dram.access(8);
        if node == home {
            return MemAccess {
                completion: now + self.cache_hit_latency + dram_lat,
                latency: self.cache_hit_latency + dram_lat,
                energy: dram_e,
                kind: AccessKind::Atomic,
            };
        }
        let req = net.transfer(now, node, home, req_bytes);
        let resp = net.transfer(req.arrival + dram_lat, home, node, 8);
        MemAccess {
            completion: resp.arrival,
            latency: resp.arrival - now,
            energy: req.energy + resp.energy + dram_e,
            kind: AccessKind::Atomic,
        }
    }

    /// Migrates the cache home of `addr`'s page to `new_home`, flushing
    /// the old home's cached copies (modelled as one page write-back to
    /// the owner). Returns the completion time.
    pub fn migrate_cache_home<T: Topology>(
        &mut self,
        net: &mut Network<T>,
        now: Time,
        addr: GlobalAddr,
        new_home: NodeId,
    ) -> Time {
        let old = self.directory.set_cache_home(addr, new_home);
        if old == new_home {
            return now;
        }
        // Flush: invalidate the old home's lines for this page and write
        // the page back to the owner if the old home was remote.
        let page_bytes = crate::addr::PAGE_SIZE;
        let line = self.caches[old.0].config().line_size;
        let base = addr.page() << crate::addr::PAGE_SHIFT;
        for off in (0..page_bytes).step_by(line as usize) {
            let flat = ((addr.home().0 as u64) << 44) | (base + off);
            self.caches[old.0].invalidate(flat);
        }
        if old != addr.home() {
            let d = net.transfer(now, old, addr.home(), page_bytes);
            d.arrival
        } else {
            let (lat, _) = self.dram.stream(page_bytes);
            now + lat
        }
    }
}

/// The directory, every node's cache in index order (a load refuses
/// another cache count), the per-kind access counters in a fixed kind
/// order, and the atomic words in ascending `(home, offset)` order. Cost
/// constants (DRAM model, hit latency, energy/byte) are structural and
/// not in the stream.
impl Persist for UnimemSystem {
    fn persist<IO: SnapIo>(&mut self, io: &mut IO) -> Result<(), RestoreError> {
        self.directory.persist(io)?;
        io.expect(self.caches.len(), "cache count")?;
        for c in &mut self.caches {
            c.persist(io)?;
        }
        for kind in ALL_KINDS {
            io.u64(&mut self.kind_counts[kind as usize])?;
        }
        io.sorted_map(&mut self.atomics, "atomic words")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecoscale_noc::{NetworkConfig, TreeTopology};

    #[test]
    fn kinds_index_their_counters_in_snapshot_order() {
        for (i, kind) in ALL_KINDS.into_iter().enumerate() {
            assert_eq!(kind as usize, i, "{kind}");
        }
    }

    fn setup() -> (Network<TreeTopology>, UnimemSystem) {
        let net = Network::new(TreeTopology::new(&[4, 4]), NetworkConfig::default());
        let mem = UnimemSystem::new(16, CacheConfig::l1_default(), DramModel::default());
        (net, mem)
    }

    #[test]
    fn serve_remote_charges_dram_and_counts() {
        let (_, mut mem) = setup();
        let (lat, e) = mem.serve_remote(64);
        assert!(lat > Duration::ZERO);
        assert!(e > Energy::ZERO);
        assert_eq!(mem.count(AccessKind::RemoteServed), 1);
        // exported under its own key, outside the local/remote split of
        // accesses the cluster itself issued
        let mut m = MetricsRegistry::new();
        mem.export_metrics(&mut m, "mem");
        assert_eq!(m.counter("mem.access.remote_served"), Some(1));
        assert_eq!(m.counter("mem.remote_accesses"), Some(0));
    }

    #[test]
    fn directory_defaults_to_owner() {
        let dir = UnimemDirectory::new(4);
        let a = GlobalAddr::new(NodeId(2), 0x5000);
        assert_eq!(dir.cache_home(a), NodeId(2));
    }

    #[test]
    fn directory_override_and_restore() {
        let mut dir = UnimemDirectory::new(4);
        let a = GlobalAddr::new(NodeId(1), 0);
        assert_eq!(dir.set_cache_home(a, NodeId(3)), NodeId(1));
        assert_eq!(dir.cache_home(a), NodeId(3));
        // restoring to the owner removes the override
        assert_eq!(dir.set_cache_home(a, NodeId(1)), NodeId(3));
        assert_eq!(dir.cache_home(a), NodeId(1));
        assert_eq!(dir.migrations(), 2);
    }

    #[test]
    fn exclusive_cacheability_invariant() {
        // There is exactly one cache home at any instant: the API cannot
        // express two.
        let mut dir = UnimemDirectory::new(8);
        let a = GlobalAddr::new(NodeId(0), 0x9000);
        dir.set_cache_home(a, NodeId(5));
        dir.set_cache_home(a, NodeId(6));
        assert_eq!(dir.cache_home(a), NodeId(6));
    }

    #[test]
    fn local_hit_faster_than_miss() {
        let (mut net, mut mem) = setup();
        let a = GlobalAddr::new(NodeId(0), 0x1000);
        let miss = mem.read(&mut net, Time::ZERO, NodeId(0), a, 8);
        assert_eq!(miss.kind, AccessKind::CacheMissLocalFill);
        let hit = mem.read(&mut net, miss.completion, NodeId(0), a, 8);
        assert_eq!(hit.kind, AccessKind::CacheHit);
        assert!(hit.latency < miss.latency);
        assert!(hit.energy < miss.energy);
    }

    #[test]
    fn remote_uncached_slower_than_local_hit() {
        let (mut net, mut mem) = setup();
        let a = GlobalAddr::new(NodeId(0), 0x1000);
        // warm the cache at home
        let w = mem.read(&mut net, Time::ZERO, NodeId(0), a, 8);
        let hit = mem.read(&mut net, w.completion, NodeId(0), a, 8);
        // node 9 reads the same page: uncached remote
        let remote = mem.read(&mut net, hit.completion, NodeId(9), a, 8);
        assert_eq!(remote.kind, AccessKind::RemoteUncached);
        assert!(remote.latency > hit.latency * 10);
    }

    #[test]
    fn cache_home_away_from_owner() {
        let (mut net, mut mem) = setup();
        let a = GlobalAddr::new(NodeId(0), 0x2000);
        mem.directory_mut().set_cache_home(a, NodeId(3));
        // node 3 caches it: first access is a remote fill
        let first = mem.read(&mut net, Time::ZERO, NodeId(3), a, 8);
        assert_eq!(first.kind, AccessKind::CacheMissRemoteFill);
        let second = mem.read(&mut net, first.completion, NodeId(3), a, 8);
        assert_eq!(second.kind, AccessKind::CacheHit);
        // meanwhile the *owner* is now uncached for this page
        let owner = mem.read(&mut net, second.completion, NodeId(0), a, 8);
        assert_eq!(owner.kind, AccessKind::RemoteUncached);
    }

    #[test]
    fn writes_mark_dirty_and_evictions_charge_energy() {
        let (mut net, mut mem) = setup();
        // write a working set larger than the 32 KiB cache to force dirty
        // evictions
        let mut total_energy = Energy::ZERO;
        let mut t = Time::ZERO;
        for i in 0..2048u64 {
            let a = GlobalAddr::new(NodeId(0), i * 64);
            let acc = mem.write(&mut net, t, NodeId(0), a, 64);
            t = acc.completion;
            total_energy += acc.energy;
        }
        assert!(mem.cache(NodeId(0)).writebacks() > 0);
        assert!(total_energy.as_nj() > 0.0);
    }

    #[test]
    fn migrate_flushes_and_moves() {
        let (mut net, mut mem) = setup();
        let a = GlobalAddr::new(NodeId(0), 0x3000);
        let w = mem.write(&mut net, Time::ZERO, NodeId(0), a, 64);
        let done = mem.migrate_cache_home(&mut net, w.completion, a, NodeId(2));
        assert!(done >= w.completion);
        // old home no longer hits
        let after = mem.read(&mut net, done, NodeId(0), a, 8);
        assert_eq!(after.kind, AccessKind::RemoteUncached);
        // new home caches
        let fill = mem.read(&mut net, after.completion, NodeId(2), a, 8);
        assert_eq!(fill.kind, AccessKind::CacheMissRemoteFill);
        let hit = mem.read(&mut net, fill.completion, NodeId(2), a, 8);
        assert_eq!(hit.kind, AccessKind::CacheHit);
    }

    #[test]
    fn migrate_to_same_home_is_noop() {
        let (mut net, mut mem) = setup();
        let a = GlobalAddr::new(NodeId(1), 0);
        let done = mem.migrate_cache_home(&mut net, Time::from_ns(5), a, NodeId(1));
        assert_eq!(done, Time::from_ns(5));
    }

    #[test]
    fn kind_counters_track() {
        let (mut net, mut mem) = setup();
        let a = GlobalAddr::new(NodeId(0), 0);
        mem.read(&mut net, Time::ZERO, NodeId(0), a, 8);
        mem.read(&mut net, Time::from_us(1), NodeId(0), a, 8);
        mem.read(&mut net, Time::from_us(2), NodeId(7), a, 8);
        assert_eq!(mem.count(AccessKind::CacheMissLocalFill), 1);
        assert_eq!(mem.count(AccessKind::CacheHit), 1);
        assert_eq!(mem.count(AccessKind::RemoteUncached), 1);
    }

    #[test]
    fn fetch_add_is_sequentially_consistent_at_the_home() {
        let (mut net, mut mem) = setup();
        let counter = GlobalAddr::new(NodeId(0), 0x7000);
        // 8 workers increment the shared counter
        let mut t = Time::ZERO;
        let mut seen = Vec::new();
        for w in 0..8 {
            let (old, acc) = mem.fetch_add(&mut net, t, NodeId(w), counter, 1);
            seen.push(old);
            t = acc.completion;
        }
        assert_eq!(seen, (0..8).collect::<Vec<i64>>());
        let (val, _) = mem.fetch_add(&mut net, t, NodeId(0), counter, 0);
        assert_eq!(val, 8);
        assert_eq!(mem.count(AccessKind::Atomic), 9);
    }

    #[test]
    fn remote_atomic_costs_a_round_trip() {
        let (mut net, mut mem) = setup();
        let a = GlobalAddr::new(NodeId(0), 0x100);
        let (_, local) = mem.fetch_add(&mut net, Time::ZERO, NodeId(0), a, 1);
        let (_, remote) = mem.fetch_add(&mut net, local.completion, NodeId(9), a, 1);
        assert!(remote.latency > local.latency * 2);
        assert_eq!(remote.kind, AccessKind::Atomic);
    }

    /// Golden costs of both atomics, local and remote: they share one
    /// cost model and differ only in the request size.
    #[test]
    fn pins_atomic_access_costs() {
        let a = GlobalAddr::new(NodeId(0), 0x100);
        let mut actual = Vec::new();
        for node in [NodeId(0), NodeId(9)] {
            let (mut net, mut mem) = setup();
            let (_, acc) = mem.fetch_add(&mut net, Time::from_ns(5), node, a, 1);
            actual.push(acc);
            let (mut net, mut mem) = setup();
            let (_, _, acc) = mem.compare_swap(&mut net, Time::from_ns(5), node, a, 0, 1);
            actual.push(acc);
        }
        let actual: Vec<String> = actual
            .iter()
            .map(|m| {
                format!(
                    "completion={} latency={} energy={:?} kind={:?}",
                    m.completion.as_ps(),
                    m.latency.as_ps(),
                    m.energy.as_joules(),
                    m.kind
                )
            })
            .collect();
        assert_eq!(
            actual,
            [
                "completion=77625 latency=72625 energy=1.78e-9 kind=Atomic",
                "completion=77625 latency=72625 energy=1.78e-9 kind=Atomic",
                "completion=267625 latency=262625 energy=2.7832e-9 kind=Atomic",
                "completion=270625 latency=265625 energy=2.9240000000000002e-9 kind=Atomic",
            ]
        );
    }

    #[test]
    fn compare_swap_lock_semantics() {
        let (mut net, mut mem) = setup();
        let lock = GlobalAddr::new(NodeId(2), 0x40);
        // worker 5 takes the lock
        let (old, ok, acc) = mem.compare_swap(&mut net, Time::ZERO, NodeId(5), lock, 0, 1);
        assert_eq!((old, ok), (0, true));
        // worker 7 fails to take it
        let (old, ok, acc2) = mem.compare_swap(&mut net, acc.completion, NodeId(7), lock, 0, 1);
        assert_eq!((old, ok), (1, false));
        // worker 5 releases; worker 7 retries successfully
        let (_, ok, acc3) = mem.compare_swap(&mut net, acc2.completion, NodeId(5), lock, 1, 0);
        assert!(ok);
        let (_, ok, _) = mem.compare_swap(&mut net, acc3.completion, NodeId(7), lock, 0, 1);
        assert!(ok);
    }

    /// Drives a system through cache fills, migrations, and atomics so
    /// every snapshotted field is non-trivial.
    fn churned() -> UnimemSystem {
        let (mut net, mut mem) = setup();
        let mut t = Time::ZERO;
        for i in 0..12u64 {
            let a = GlobalAddr::new(NodeId((i % 4) as usize), 0x1000 * i);
            let acc = mem.read(&mut net, t, NodeId((i % 7) as usize), a, 64);
            t = acc.completion;
        }
        mem.migrate_cache_home(&mut net, t, GlobalAddr::new(NodeId(1), 0x1000), NodeId(3));
        for w in 0..5 {
            let (_, acc) =
                mem.fetch_add(&mut net, t, NodeId(w), GlobalAddr::new(NodeId(2), 0x40), 1);
            t = acc.completion;
        }
        mem
    }

    #[test]
    fn snapshot_restore_round_trips_and_reserializes_identically() {
        let mut mem = churned();
        let mut w = ecoscale_sim::SnapWriter::new();
        w.save(&mut mem);
        let bytes = w.into_bytes();

        let (_, mut fresh) = setup();
        let mut r = ecoscale_sim::SnapReader::new(&bytes);
        fresh.persist(&mut r).expect("restore");
        assert!(r.is_exhausted());

        let mut w2 = ecoscale_sim::SnapWriter::new();
        w2.save(&mut fresh);
        assert_eq!(
            bytes,
            w2.into_bytes(),
            "restored system re-serializes differently"
        );

        // behavioural check: the restored system serves the same access
        // with the same cost and the same classification
        let (mut net_a, _) = setup();
        let (mut net_b, _) = setup();
        let mut orig = churned();
        let a = GlobalAddr::new(NodeId(2), 0x2000);
        let x = orig.read(&mut net_a, Time::from_us(5), NodeId(6), a, 32);
        let y = fresh.read(&mut net_b, Time::from_us(5), NodeId(6), a, 32);
        assert_eq!(
            (x.kind, x.latency, x.completion),
            (y.kind, y.latency, y.completion)
        );
    }

    #[test]
    fn restore_rejects_shape_mismatch_and_truncation() {
        let mut mem = churned();
        let mut w = ecoscale_sim::SnapWriter::new();
        w.save(&mut mem);
        let bytes = w.into_bytes();

        // wrong node count
        let mut other = UnimemSystem::new(8, CacheConfig::l1_default(), DramModel::default());
        let mut r = ecoscale_sim::SnapReader::new(&bytes);
        assert!(other.persist(&mut r).is_err());

        // truncation fails cleanly (the stream is tens of KB — sample
        // cuts rather than sweeping every byte)
        for cut in (0..bytes.len()).step_by(211).chain([bytes.len() - 1]) {
            let (_, mut fresh) = setup();
            let mut r = ecoscale_sim::SnapReader::new(&bytes[..cut]);
            assert!(
                fresh.persist(&mut r).is_err() || !r.is_exhausted(),
                "truncated stream at {cut} restored fully"
            );
        }
    }
}
