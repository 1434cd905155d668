//! An event-driven network with per-link FIFO contention.
//!
//! [`Network`] wraps a [`Topology`] plus a [`CostModel`] and tracks when
//! each link becomes free. Transfers submitted in time order contend for
//! links: a message arriving at a busy link waits for the earlier message
//! to drain. Two forwarding disciplines are modelled:
//!
//! * **store-and-forward** — each link serializes the full payload before
//!   the next hop begins (conservative, used by default), and
//! * **virtual cut-through** — serialization is charged once at the
//!   bottleneck link and other links are held only for the header time.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

use ecoscale_sim::check::{invariant, CheckPlane};
use ecoscale_sim::hash::FxHashMap;
use ecoscale_sim::{
    fault::salt, CampaignSpec, Counter, Duration, Energy, FaultClock, Histogram, MetricsRegistry,
    OnlineStats, Persist, ProbFault, RestoreError, SimRng, SnapIo, Time, TraceBuffer, Tracer,
    TrackId,
};

use crate::cost::CostModel;
use crate::topology::{LinkId, NodeId, Route, Topology};
use crate::traffic::TrafficStats;

/// Configuration for a [`Network`].
#[derive(Debug, Clone)]
pub struct NetworkConfig {
    /// Per-level latency/bandwidth/energy parameters.
    pub cost: CostModel,
    /// `true` for virtual cut-through; `false` for store-and-forward.
    pub cut_through: bool,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            cost: CostModel::ecoscale_defaults(),
            cut_through: false,
        }
    }
}

/// The outcome of one message transfer.
#[derive(Debug, Clone, PartialEq)]
pub struct Delivery {
    /// When the last byte arrives at the destination.
    pub arrival: Time,
    /// Interconnect energy charged to this message.
    pub energy: Energy,
    /// Hops traversed.
    pub hops: u32,
    /// Time spent queueing behind other traffic (contention).
    pub queueing: Duration,
    /// `true` when an active fault campaign corrupted the payload in
    /// flight; the receiver must discard and re-request it. Always
    /// `false` without a fault model.
    pub corrupted: bool,
}

/// FaultPlane injection for the interconnect: link degradation windows
/// plus probabilistic packet corruption.
///
/// A [`FaultClock`] fires degradation events; each one picks a hop of the
/// transfer in flight when it comes due and multiplies that link's
/// serialization time by the campaign's slowdown factor for a fixed
/// window (a flapping or retraining link). Independently, every delivery
/// is corrupted with the campaign's per-message probability. The windows
/// themselves live in the network's link slots
/// ([`LinkSlot::degraded_until`]).
#[derive(Debug, Default)]
struct LinkFaultModel {
    degrade_clock: FaultClock,
    pick: SimRng,
    corrupt: ProbFault,
    degrade_for: Duration,
    slowdown: f64,
    degrade_events: Counter,
    degraded_hops: Counter,
    corrupted: Counter,
}

/// The state of one link, in the dense slot a memoised route gave it
/// when it first named the link.
#[derive(Debug, Clone)]
struct LinkSlot {
    link: LinkId,
    /// When the link is next free; `None` until a message holds it.
    free_at: Option<Time>,
    /// Cumulative busy time (the intervals a message held the link), the
    /// basis of per-link utilization; `None` until a message holds it.
    busy: Option<Duration>,
    /// The link's `noc/<link>` trace track, made on its first traced use.
    track: Option<TrackId>,
    /// When a fault campaign's latest degradation of the link ends.
    degraded_until: Option<Time>,
}

/// A memoised route and the slot of each hop's link, in hop order.
#[derive(Debug)]
struct MemoRoute {
    route: Route,
    slots: Vec<u32>,
}

/// Per-link state in dense slots, and the map from a link to its slot.
/// Only a route-memo miss or a snapshot load looks a link up; transfers
/// index slots through their memoised route.
#[derive(Debug, Default)]
struct LinkTable {
    slots: Vec<LinkSlot>,
    /// Slot of each link; the metrics export walks it in ascending
    /// [`LinkId`] order (the snapshot sorts its own link maps).
    slot_of: BTreeMap<LinkId, u32>,
}

impl LinkTable {
    /// The slot of `link`, giving it a fresh one on first sight.
    fn slot(&mut self, link: LinkId) -> u32 {
        let next = self.slots.len() as u32;
        let slot = *self.slot_of.entry(link).or_insert(next);
        if slot == next {
            self.slots.push(LinkSlot {
                link,
                free_at: None,
                busy: None,
                track: None,
                degraded_until: None,
            });
        }
        slot
    }

    /// The state of `link`, in a fresh slot on first sight.
    fn slot_mut(&mut self, link: LinkId) -> &mut LinkSlot {
        let slot = self.slot(link);
        &mut self.slots[slot as usize]
    }

    fn get(&self, link: LinkId) -> Option<&LinkSlot> {
        self.slot_of.get(&link).map(|&s| &self.slots[s as usize])
    }

    /// Slots in ascending [`LinkId`] order.
    fn ascending(&self) -> impl Iterator<Item = &LinkSlot> + '_ {
        self.slot_of.values().map(|&s| &self.slots[s as usize])
    }

    fn clear(&mut self) {
        self.slots.clear();
        self.slot_of.clear();
    }
}

impl LinkSlot {
    /// Records that a message held this link from `from` until `until`:
    /// the link's next free time, its busy time and, when tracing, an
    /// `xfer` span on the link's track.
    #[inline]
    fn hold(&mut self, tracer: &Tracer, from: Time, until: Time) {
        let held = until - from;
        self.free_at = Some(until);
        self.busy = Some(self.busy.unwrap_or(Duration::ZERO) + held);
        if tracer.is_enabled() {
            let link = self.link;
            let track = *self
                .track
                .get_or_insert_with(|| tracer.track(&format!("noc/{link}")));
            tracer.complete(track, "xfer", from, held);
        }
    }
}

/// A contention-aware network instance.
///
/// # Example
///
/// ```
/// use ecoscale_noc::{Network, NetworkConfig, NodeId, TreeTopology};
/// use ecoscale_sim::Time;
///
/// let mut net = Network::new(TreeTopology::new(&[4, 4]), NetworkConfig::default());
/// let d1 = net.transfer(Time::ZERO, NodeId(0), NodeId(5), 4096);
/// let d2 = net.transfer(Time::ZERO, NodeId(1), NodeId(5), 4096);
/// // the second message shares links with the first and queues behind it
/// assert!(d2.arrival >= d1.arrival || d2.queueing.is_zero());
/// ```
#[derive(Debug)]
pub struct Network<T: Topology> {
    topo: T,
    config: NetworkConfig,
    links: LinkTable,
    stats: TrafficStats,
    /// Memoized routes per (src, dst) pair. Topologies are static between
    /// [`Network::invalidate_routes`] calls, and traffic patterns reuse
    /// the same pairs heavily, so transfers skip recomputing the route
    /// and looking up its links. The one hashed lookup of a transfer.
    route_memo: FxHashMap<(NodeId, NodeId), MemoRoute>,
    route_memo_hits: u64,
    route_memo_misses: u64,
    hop_hist: Histogram,
    queue_ns: OnlineStats,
    tracer: Tracer,
    faults: Option<LinkFaultModel>,
}

impl<T: Topology> Network<T> {
    /// Creates a network over `topo` with `config`.
    pub fn new(topo: T, config: NetworkConfig) -> Network<T> {
        Network {
            topo,
            config,
            links: LinkTable::default(),
            stats: TrafficStats::new(),
            route_memo: FxHashMap::default(),
            route_memo_hits: 0,
            route_memo_misses: 0,
            hop_hist: Histogram::new(),
            queue_ns: OnlineStats::new(),
            tracer: Tracer::disabled(),
            faults: None,
        }
    }

    /// Arms interconnect fault injection from `spec`. A campaign with
    /// both the link-degradation clock and packet corruption off is a
    /// no-op: no model is installed and transfers behave bit-identically
    /// to an unarmed network.
    pub fn set_faults(&mut self, spec: &CampaignSpec) {
        let degrade = !spec.link_degrade_mtbf.is_zero();
        let corrupt = spec.packet_corrupt_p > 0.0;
        for s in &mut self.links.slots {
            s.degraded_until = None;
        }
        self.faults = if degrade || corrupt {
            Some(LinkFaultModel {
                degrade_clock: if degrade {
                    FaultClock::new(spec.link_degrade_mtbf, spec.rng(salt::LINK_DEGRADE))
                } else {
                    FaultClock::disabled()
                },
                pick: spec.rng(salt::LINK_PICK),
                corrupt: if corrupt {
                    ProbFault::new(spec.packet_corrupt_p, spec.rng(salt::PACKET_CORRUPT))
                } else {
                    ProbFault::disabled()
                },
                degrade_for: spec.link_degrade_for,
                slowdown: spec.link_slowdown.max(1.0),
                degrade_events: Counter::new(),
                degraded_hops: Counter::new(),
                corrupted: Counter::new(),
            })
        } else {
            None
        };
    }

    /// Link-degradation events fired, hops that crossed a degraded link,
    /// and deliveries corrupted so far (all zero when unarmed).
    pub fn fault_stats(&self) -> (u64, u64, u64) {
        match &self.faults {
            Some(f) => (
                f.degrade_events.get(),
                f.degraded_hops.get(),
                f.corrupted.get(),
            ),
            None => (0, 0, 0),
        }
    }

    /// Installs a tracer. Every subsequent transfer records one span
    /// per link held, on a `noc/link<N>` track. The default tracer is
    /// disabled and costs one branch per hop.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
        for s in &mut self.links.slots {
            s.track = None;
        }
    }

    /// Drains the tracer's buffered events (empty when disabled).
    pub fn take_trace(&self) -> TraceBuffer {
        self.tracer.take()
    }

    /// The underlying topology.
    pub fn topology(&self) -> &T {
        &self.topo
    }

    /// The cost model in use.
    pub fn cost(&self) -> &CostModel {
        &self.config.cost
    }

    /// Accumulated traffic statistics.
    pub fn stats(&self) -> &TrafficStats {
        &self.stats
    }

    /// Contention-free latency quote for `bytes` from `src` to `dst`.
    pub fn quote(&self, src: NodeId, dst: NodeId, bytes: u64) -> Duration {
        let route = self.topo.route(src, dst);
        self.config.cost.latency(&route, bytes)
    }

    /// Submits a transfer of `bytes` from `src` to `dst` starting at
    /// `start`, updating link occupancy and traffic statistics.
    ///
    /// Transfers should be submitted in non-decreasing `start` order for
    /// the contention model to be meaningful; out-of-order submissions are
    /// allowed but see the link in its latest known state.
    pub fn transfer(&mut self, start: Time, src: NodeId, dst: NodeId, bytes: u64) -> Delivery {
        let memo = match self.route_memo.entry((src, dst)) {
            Entry::Occupied(e) => {
                self.route_memo_hits += 1;
                e.into_mut()
            }
            Entry::Vacant(e) => {
                self.route_memo_misses += 1;
                let route = self.topo.route(src, dst);
                let slots = route.iter().map(|h| self.links.slot(h.link)).collect();
                e.insert(MemoRoute { route, slots })
            }
        };
        let route = &memo.route;
        let cost = &self.config.cost;
        let energy = if route.is_local() {
            Energy::ZERO
        } else {
            cost.energy(route, bytes)
        };
        self.stats.record(route, bytes, energy);
        self.hop_hist.record(route.hop_count() as u64);
        if route.is_local() {
            self.queue_ns.record(0.0);
            return Delivery {
                arrival: start,
                energy: Energy::ZERO,
                hops: 0,
                queueing: Duration::ZERO,
                corrupted: false,
            };
        }
        let links = &mut self.links.slots;
        // Drain due link-degradation events: each picks a hop of this
        // transfer's route and slows that link for a recovery window.
        if let Some(f) = &mut self.faults {
            while let Some(at) = f.degrade_clock.pop_due(start) {
                f.degrade_events.incr();
                let victim = memo.slots[f.pick.gen_range_usize(0, memo.slots.len())];
                let until = at + f.degrade_for;
                let window = &mut links[victim as usize].degraded_until;
                *window = Some(window.map_or(until, |u| u.max(until)));
            }
        }
        let mut cursor = start;
        let mut queueing = Duration::ZERO;
        if self.config.cut_through {
            // Hold every link for the header; serialize once at the
            // bottleneck.
            let mut min_bw = u64::MAX;
            let mut degraded_any = false;
            for (hop, &slot) in route.iter().zip(&memo.slots) {
                let p = *cost.level_params(hop.level);
                let link = &mut links[slot as usize];
                let free = link.free_at.unwrap_or(Time::ZERO);
                if free > cursor {
                    queueing += free - cursor;
                    cursor = free;
                }
                if let Some(f) = &mut self.faults {
                    if link.degraded_until.is_some_and(|u| u > cursor) {
                        f.degraded_hops.incr();
                        degraded_any = true;
                    }
                }
                let held_from = cursor;
                cursor += p.hop_latency;
                link.hold(&self.tracer, held_from, cursor);
                min_bw = min_bw.min(p.bandwidth);
            }
            if bytes > 0 {
                let mut ser = Duration::from_bytes_at_bandwidth(bytes, min_bw);
                if degraded_any {
                    // a degraded link bottlenecks the whole cut-through path
                    ser = ser.mul_f64(self.faults.as_ref().map_or(1.0, |f| f.slowdown));
                }
                cursor += ser;
            }
        } else {
            // Store-and-forward: each link serializes the whole payload.
            for (hop, &slot) in route.iter().zip(&memo.slots) {
                let p = *cost.level_params(hop.level);
                let link = &mut links[slot as usize];
                let free = link.free_at.unwrap_or(Time::ZERO);
                if free > cursor {
                    queueing += free - cursor;
                    cursor = free;
                }
                let held_from = cursor;
                cursor += p.hop_latency;
                if bytes > 0 {
                    let mut ser = Duration::from_bytes_at_bandwidth(bytes, p.bandwidth);
                    if let Some(f) = &mut self.faults {
                        if link.degraded_until.is_some_and(|u| u > cursor) {
                            f.degraded_hops.incr();
                            ser = ser.mul_f64(f.slowdown);
                        }
                    }
                    cursor += ser;
                }
                link.hold(&self.tracer, held_from, cursor);
            }
        }
        self.queue_ns.record(queueing.as_ns_f64());
        let corrupted = match &mut self.faults {
            Some(f) => {
                let hit = f.corrupt.strikes();
                if hit {
                    f.corrupted.incr();
                }
                hit
            }
            None => false,
        };
        Delivery {
            arrival: cursor,
            energy,
            hops: route.hop_count(),
            queueing,
            corrupted,
        }
    }

    /// Cumulative busy time of `link` so far.
    pub fn link_busy(&self, link: LinkId) -> Duration {
        self.links
            .get(link)
            .and_then(|s| s.busy)
            .unwrap_or(Duration::ZERO)
    }

    /// Folds NoC instruments into `m` under `prefix`: message/byte
    /// counters, the hop-count histogram, queueing-delay stats, the
    /// number of distinct links used, and the distribution of per-link
    /// busy time (microseconds) — the per-link utilization signal.
    pub fn export_metrics(&self, m: &mut MetricsRegistry, prefix: &str) {
        m.add(&format!("{prefix}.messages"), self.stats.messages());
        m.add(
            &format!("{prefix}.local_messages"),
            self.stats.local_messages(),
        );
        m.add(
            &format!("{prefix}.payload_bytes"),
            self.stats.payload_bytes(),
        );
        m.add(&format!("{prefix}.byte_hops"), self.stats.byte_hops());
        m.merge_hist(&format!("{prefix}.hops"), &self.hop_hist);
        m.merge_stats(&format!("{prefix}.queue_ns"), &self.queue_ns);
        let busy: Vec<Duration> = self.links.ascending().filter_map(|s| s.busy).collect();
        m.add(&format!("{prefix}.links_used"), busy.len() as u64);
        let busy_name = format!("{prefix}.link_busy_us");
        for b in busy {
            m.record(&busy_name, b.as_ns() / 1_000);
        }
        m.add(&format!("{prefix}.route_memo_hits"), self.route_memo_hits);
        m.add(
            &format!("{prefix}.route_memo_misses"),
            self.route_memo_misses,
        );
        if let Some(f) = &self.faults {
            m.add(&format!("{prefix}.degrade_events"), f.degrade_events.get());
            m.add(&format!("{prefix}.degraded_hops"), f.degraded_hops.get());
            m.add(&format!("{prefix}.corrupted"), f.corrupted.get());
        }
    }

    /// Route lookup passthrough (uncached).
    pub fn route(&self, src: NodeId, dst: NodeId) -> Route {
        self.topo.route(src, dst)
    }

    /// Transfers served from the route memo / computed fresh.
    pub fn route_memo_stats(&self) -> (u64, u64) {
        (self.route_memo_hits, self.route_memo_misses)
    }

    /// Drops all memoized routes. Call after reconfiguring the topology
    /// (e.g. remapping a failed link) so stale paths are never reused.
    /// Link state is kept: a link keeps its slot.
    pub fn invalidate_routes(&mut self) {
        self.route_memo.clear();
    }

    /// CheckPlane hook: asserts the optimized transfer path's caches and
    /// accounting agree with first principles. Read-only; early-outs when
    /// `cp` is disabled. One check per memoised route and per busy link,
    /// plus three, so an armed run counts as many checks as before link
    /// state moved into slots (armed snapshots carry the count).
    ///
    /// * `noc.route_memo_fresh` — every memoized route equals a fresh
    ///   computation on the topology.
    /// * `noc.conservation` — every transfer is counted exactly once in the
    ///   hop histogram and queueing stats, and the memo counters cover at
    ///   least every recorded message (they survive [`Network::reset`]).
    /// * `noc.link_bookkeeping` — every memoised route's slots hold the
    ///   fresh route's links, hop by hop, and every busy link's slot maps
    ///   back to it and has an occupancy record.
    pub fn check_invariants(&self, cp: &mut CheckPlane) {
        if !cp.is_enabled() {
            return;
        }
        let slots = &self.links.slots;
        for (&(src, dst), memo) in &self.route_memo {
            let fresh = self.topo.route(src, dst);
            let slots_agree = memo.slots.len() == fresh.hop_count() as usize
                && fresh
                    .iter()
                    .zip(&memo.slots)
                    .all(|(h, &s)| slots.get(s as usize).is_some_and(|l| l.link == h.link));
            // one check per route: a stale route, else stale slots
            let (inv, what) = if fresh == memo.route {
                (invariant::NOC_LINK_BOOKKEEPING, "has stale link slots")
            } else {
                (invariant::NOC_ROUTE_MEMO_FRESH, "is stale")
            };
            cp.check(inv, fresh == memo.route && slots_agree, || {
                format!("memoized route {src} -> {dst} {what}")
            });
        }
        let messages = self.stats.messages();
        cp.check(
            invariant::NOC_CONSERVATION,
            self.hop_hist.count() == messages,
            || {
                format!(
                    "hop histogram holds {} samples for {messages} messages",
                    self.hop_hist.count()
                )
            },
        );
        cp.check(
            invariant::NOC_CONSERVATION,
            self.queue_ns.count() == messages,
            || {
                format!(
                    "queueing stats hold {} samples for {messages} messages",
                    self.queue_ns.count()
                )
            },
        );
        cp.check(
            invariant::NOC_CONSERVATION,
            self.route_memo_hits + self.route_memo_misses >= messages,
            || {
                format!(
                    "route memo saw {} lookups for {messages} messages",
                    self.route_memo_hits + self.route_memo_misses
                )
            },
        );
        for (i, s) in slots.iter().enumerate().filter(|(_, s)| s.busy.is_some()) {
            let link = s.link;
            cp.check(
                invariant::NOC_LINK_BOOKKEEPING,
                self.links.slot_of.get(&link) == Some(&(i as u32)) && s.free_at.is_some(),
                || format!("{link} in slot {i} is not found there, or has no occupancy record"),
            );
        }
    }

    /// Clears link occupancy, statistics, instruments and memoized
    /// routes. The tracer (if any) is kept; a link's track is found again
    /// by name on its next traced use.
    pub fn reset(&mut self) {
        self.links.clear();
        self.stats = TrafficStats::new();
        self.hop_hist = Histogram::new();
        self.queue_ns = OnlineStats::new();
        self.invalidate_routes();
    }
}

/// Link occupancy and busy time (in ascending link order), traffic
/// statistics, the memoized route *keys*, instruments, and the fault
/// model's RNG streams and degradation windows. The tracer and its
/// tracks are host-facing and not in the stream.
///
/// Routes are recomputed from the live topology on load, so the memo
/// can never go stale across a snapshot: the stream holds the memo's
/// canonical form, its key set, and loading rebuilds the map and the
/// link slots from it and the link maps. A load refuses a memoised
/// route naming a node out of range.
impl<T: Topology> Persist for Network<T> {
    fn persist<IO: SnapIo>(&mut self, io: &mut IO) -> Result<(), RestoreError> {
        let mut occupied = BTreeMap::new();
        let mut busy = BTreeMap::new();
        let mut degraded = BTreeMap::new();
        if !IO::LOADING {
            for s in &self.links.slots {
                if let Some(t) = s.free_at {
                    occupied.insert(s.link, t);
                }
                if let Some(d) = s.busy {
                    busy.insert(s.link, d);
                }
                if let Some(u) = s.degraded_until {
                    degraded.insert(s.link, u);
                }
            }
        }
        io.sorted_map(&mut occupied, "occupied links")?;
        self.stats.persist(io)?;
        let mut memo: BTreeSet<(NodeId, NodeId)> = self.route_memo.keys().copied().collect();
        io.sorted_set(&mut memo, "memoized routes")?;
        let n = self.topo.num_nodes();
        if let Some(&(src, dst)) = memo.iter().find(|(s, d)| s.0 >= n || d.0 >= n) {
            io.ensure(false, || {
                format!("memoized route {src} -> {dst} leaves the {n}-node topology")
            })?;
        }
        io.u64(&mut self.route_memo_hits)?;
        io.u64(&mut self.route_memo_misses)?;
        self.hop_hist.persist(io)?;
        self.queue_ns.persist(io)?;
        io.sorted_map(&mut busy, "busy links")?;
        io.option(&mut self.faults, |io, f| f.persist(io, &mut degraded))?;
        if IO::LOADING {
            let links = &mut self.links;
            links.clear();
            for (link, t) in occupied {
                links.slot_mut(link).free_at = Some(t);
            }
            for (link, d) in busy {
                links.slot_mut(link).busy = Some(d);
            }
            for (link, u) in degraded {
                links.slot_mut(link).degraded_until = Some(u);
            }
            let topo = &self.topo;
            self.route_memo = memo
                .into_iter()
                .map(|(src, dst)| {
                    let route = topo.route(src, dst);
                    let slots = route.iter().map(|h| links.slot(h.link)).collect();
                    ((src, dst), MemoRoute { route, slots })
                })
                .collect();
        }
        Ok(())
    }
}

impl LinkFaultModel {
    /// The model's fields, with the degradation windows (ascending by
    /// link) that the network keeps in its link slots in `degraded`.
    fn persist<IO: SnapIo>(
        &mut self,
        io: &mut IO,
        degraded: &mut BTreeMap<LinkId, Time>,
    ) -> Result<(), RestoreError> {
        self.degrade_clock.persist(io)?;
        self.pick.persist(io)?;
        self.corrupt.persist(io)?;
        io.duration(&mut self.degrade_for)?;
        io.f64(&mut self.slowdown)?;
        let slowdown = self.slowdown;
        io.ensure(slowdown.is_finite() && slowdown >= 1.0, || {
            format!("fault slowdown {slowdown} out of range")
        })?;
        io.sorted_map(degraded, "degraded links")?;
        for c in [
            &mut self.degrade_events,
            &mut self.degraded_hops,
            &mut self.corrupted,
        ] {
            c.persist(io)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{CrossbarTopology, TreeTopology};

    fn net(cut_through: bool) -> Network<TreeTopology> {
        Network::new(
            TreeTopology::new(&[4, 4]),
            NetworkConfig {
                cost: CostModel::ecoscale_defaults(),
                cut_through,
            },
        )
    }

    #[test]
    fn local_transfer_is_instant_and_free() {
        let mut n = net(false);
        let d = n.transfer(Time::from_ns(100), NodeId(3), NodeId(3), 1 << 20);
        assert_eq!(d.arrival, Time::from_ns(100));
        assert_eq!(d.energy, Energy::ZERO);
        assert_eq!(d.hops, 0);
    }

    #[test]
    fn uncontended_matches_quote_in_cut_through() {
        let mut n = net(true);
        let quote = n.quote(NodeId(0), NodeId(5), 4096);
        let d = n.transfer(Time::ZERO, NodeId(0), NodeId(5), 4096);
        assert_eq!(d.arrival, Time::ZERO + quote);
        assert_eq!(d.queueing, Duration::ZERO);
    }

    #[test]
    fn store_and_forward_slower_than_cut_through() {
        let mut sf = net(false);
        let mut ct = net(true);
        let a = sf.transfer(Time::ZERO, NodeId(0), NodeId(15), 1 << 16);
        let b = ct.transfer(Time::ZERO, NodeId(0), NodeId(15), 1 << 16);
        assert!(a.arrival > b.arrival);
    }

    #[test]
    fn contention_queues_second_message() {
        let mut n = net(false);
        let first = n.transfer(Time::ZERO, NodeId(0), NodeId(15), 1 << 20);
        // same source, same links
        let second = n.transfer(Time::ZERO, NodeId(0), NodeId(15), 1 << 20);
        assert!(second.queueing > Duration::ZERO);
        assert!(second.arrival > first.arrival);
    }

    #[test]
    fn disjoint_routes_do_not_contend() {
        let mut n = net(false);
        let a = n.transfer(Time::ZERO, NodeId(0), NodeId(1), 4096);
        let b = n.transfer(Time::ZERO, NodeId(8), NodeId(9), 4096);
        assert_eq!(a.queueing, Duration::ZERO);
        assert_eq!(b.queueing, Duration::ZERO);
        assert_eq!(a.arrival, b.arrival);
    }

    #[test]
    fn stats_accumulate() {
        let mut n = net(false);
        n.transfer(Time::ZERO, NodeId(0), NodeId(1), 100);
        n.transfer(Time::ZERO, NodeId(0), NodeId(15), 100);
        assert_eq!(n.stats().messages(), 2);
        assert!(n.stats().energy().as_pj() > 0.0);
        n.reset();
        assert_eq!(n.stats().messages(), 0);
    }

    #[test]
    fn crossbar_network_works_too() {
        let mut n = Network::new(CrossbarTopology::new(8), NetworkConfig::default());
        let d = n.transfer(Time::ZERO, NodeId(0), NodeId(7), 64);
        assert_eq!(d.hops, 2);
        assert!(d.arrival > Time::ZERO);
    }

    #[test]
    fn route_memo_hits_on_repeated_pairs_and_invalidates() {
        let mut n = net(false);
        n.transfer(Time::ZERO, NodeId(0), NodeId(15), 64);
        n.transfer(Time::ZERO, NodeId(0), NodeId(15), 64);
        n.transfer(Time::ZERO, NodeId(1), NodeId(15), 64);
        assert_eq!(n.route_memo_stats(), (1, 2));
        // memoized transfers match the uncached route
        let d = n.transfer(Time::from_ms(10), NodeId(0), NodeId(15), 64);
        assert_eq!(d.hops, n.route(NodeId(0), NodeId(15)).hop_count());
        n.invalidate_routes();
        n.transfer(Time::from_ms(10), NodeId(0), NodeId(15), 64);
        assert_eq!(n.route_memo_stats(), (2, 3));
    }

    #[test]
    fn metrics_and_trace_capture_link_activity() {
        let mut n = net(false);
        n.set_tracer(ecoscale_sim::Tracer::buffering());
        n.transfer(Time::ZERO, NodeId(0), NodeId(15), 4096);
        n.transfer(Time::ZERO, NodeId(3), NodeId(3), 4096); // local
        let mut m = ecoscale_sim::MetricsRegistry::new();
        n.export_metrics(&mut m, "noc");
        assert_eq!(m.counter("noc.messages"), Some(2));
        assert_eq!(m.counter("noc.local_messages"), Some(1));
        assert!(m.counter("noc.links_used").unwrap() > 0);
        match m.get("noc.hops") {
            Some(ecoscale_sim::Instrument::Histogram(h)) => assert_eq!(h.count(), 2),
            other => panic!("unexpected: {other:?}"),
        }
        let trace = n.take_trace();
        // one span per link held by the non-local transfer
        assert_eq!(trace.len() as u64, m.counter("noc.links_used").unwrap());
        assert!(trace.tracks().iter().all(|t| t.starts_with("noc/link")));
        let total: Duration = trace
            .events()
            .iter()
            .map(|e| match e.kind {
                ecoscale_sim::trace::EventKind::Complete { dur } => dur,
                _ => Duration::ZERO,
            })
            .fold(Duration::ZERO, |a, b| a + b);
        let busy: Duration =
            (n.links.slots.iter().filter_map(|s| s.busy)).fold(Duration::ZERO, |a, b| a + b);
        assert_eq!(total, busy);
    }

    fn fault_spec() -> CampaignSpec {
        let mut s = CampaignSpec::off();
        s.link_degrade_mtbf = Duration::from_us(100);
        s.link_degrade_for = Duration::from_us(500);
        s.link_slowdown = 8.0;
        s.packet_corrupt_p = 0.2;
        s
    }

    #[test]
    fn off_campaign_leaves_network_untouched() {
        let mut plain = net(false);
        let mut armed = net(false);
        armed.set_faults(&CampaignSpec::off());
        for i in 0..20u64 {
            let t = Time::from_us(i);
            let a = plain.transfer(t, NodeId(0), NodeId(15), 4096);
            let b = armed.transfer(t, NodeId(0), NodeId(15), 4096);
            assert_eq!(a, b);
        }
        let mut ma = ecoscale_sim::MetricsRegistry::new();
        let mut mb = ecoscale_sim::MetricsRegistry::new();
        plain.export_metrics(&mut ma, "noc");
        armed.export_metrics(&mut mb, "noc");
        assert_eq!(ma.to_json(), mb.to_json());
    }

    #[test]
    fn degraded_links_slow_transfers() {
        let mut n = net(false);
        n.set_faults(&fault_spec());
        let clean = net(false).transfer(Time::ZERO, NodeId(0), NodeId(15), 1 << 16);
        // advance far enough that degradation windows are active
        let d = n.transfer(Time::from_ms(1), NodeId(0), NodeId(15), 1 << 16);
        let (events, hops, _) = n.fault_stats();
        assert!(events > 0, "10 ms at 100 us MTBF fires");
        assert!(hops > 0, "transfer crossed a degraded link");
        assert!(
            d.arrival.since(Time::from_ms(1)) > clean.arrival.since(Time::ZERO),
            "degraded path is slower than the clean quote"
        );
    }

    #[test]
    fn packets_corrupt_at_campaign_rate() {
        let mut spec = CampaignSpec::off();
        spec.packet_corrupt_p = 0.3;
        let mut n = net(false);
        n.set_faults(&spec);
        let mut corrupted = 0u64;
        for i in 0..500u64 {
            let d = n.transfer(Time::from_us(i * 10), NodeId(0), NodeId(15), 64);
            if d.corrupted {
                corrupted += 1;
            }
        }
        assert!(corrupted > 80 && corrupted < 250, "got {corrupted}/500");
        assert_eq!(n.fault_stats().2, corrupted);
        // local transfers never corrupt (no links crossed)
        assert!(
            !n.transfer(Time::from_ms(100), NodeId(2), NodeId(2), 64)
                .corrupted
        );
    }

    #[test]
    fn faulted_network_is_deterministic() {
        let run = || {
            let mut n = net(false);
            n.set_faults(&fault_spec());
            let mut log = Vec::new();
            for i in 0..100u64 {
                let d = n.transfer(Time::from_us(i * 50), NodeId(0), NodeId(15), 4096);
                log.push((d.arrival, d.corrupted));
            }
            (log, n.fault_stats())
        };
        assert_eq!(run(), run());
    }

    /// Drives a faulted network through enough traffic that every
    /// snapshotted field (occupancy, memo, degradation windows, RNG
    /// streams) is non-trivial.
    fn churned() -> Network<TreeTopology> {
        let mut n = net(false);
        n.set_faults(&fault_spec());
        for i in 0..60u64 {
            n.transfer(
                Time::from_us(i * 40),
                NodeId((i % 5) as usize),
                NodeId(15 - (i % 3) as usize),
                1 << 12,
            );
        }
        n
    }

    #[test]
    fn snapshot_restore_resumes_identically() {
        let mut orig = churned();
        let mut w = ecoscale_sim::SnapWriter::new();
        w.save(&mut orig);
        let bytes = w.into_bytes();

        let mut fresh = net(false);
        let mut r = ecoscale_sim::SnapReader::new(&bytes);
        fresh.persist(&mut r).expect("restore");
        assert!(r.is_exhausted());

        // re-serialization is byte-identical
        let mut w2 = ecoscale_sim::SnapWriter::new();
        w2.save(&mut fresh);
        assert_eq!(bytes, w2.into_bytes());

        // both continuations produce identical deliveries and fault draws
        let mut cont = churned();
        for i in 60..120u64 {
            let t = Time::from_us(i * 40);
            let a = cont.transfer(t, NodeId(2), NodeId(14), 1 << 12);
            let b = fresh.transfer(t, NodeId(2), NodeId(14), 1 << 12);
            assert_eq!(a, b, "diverged at transfer {i}");
        }
        assert_eq!(cont.fault_stats(), fresh.fault_stats());
        let mut ma = ecoscale_sim::MetricsRegistry::new();
        let mut mb = ecoscale_sim::MetricsRegistry::new();
        cont.export_metrics(&mut ma, "noc");
        fresh.export_metrics(&mut mb, "noc");
        assert_eq!(ma.to_json(), mb.to_json());
    }

    #[test]
    fn restored_route_memo_is_fresh_and_truncation_fails() {
        let mut orig = churned();
        let mut w = ecoscale_sim::SnapWriter::new();
        w.save(&mut orig);
        let bytes = w.into_bytes();

        let mut fresh = net(false);
        let mut r = ecoscale_sim::SnapReader::new(&bytes);
        fresh.persist(&mut r).expect("restore");
        let mut cp = CheckPlane::enabled(1);
        fresh.check_invariants(&mut cp);
        assert!(
            cp.ok(),
            "restored network violates invariants: {:?}",
            cp.violations()
        );

        for cut in (0..bytes.len()).step_by(7).chain([bytes.len() - 1]) {
            let mut n = net(false);
            let mut r = ecoscale_sim::SnapReader::new(&bytes[..cut]);
            assert!(
                n.persist(&mut r).is_err() || !r.is_exhausted(),
                "truncated stream at {cut} restored fully"
            );
        }
    }

    #[test]
    fn a_memoised_route_off_the_topology_is_refused() {
        let mut w = ecoscale_sim::SnapWriter::new();
        w.save(&mut churned());
        let bytes = w.into_bytes();
        // the churned memo names nodes up to 15; this tree has 4
        let mut small = Network::new(TreeTopology::new(&[2, 2]), NetworkConfig::default());
        match small.persist(&mut ecoscale_sim::SnapReader::new(&bytes)) {
            Err(RestoreError::Malformed { context }) => {
                assert!(context.contains("leaves the 4-node topology"), "{context}")
            }
            other => panic!("got {other:?}"),
        }
    }

    #[test]
    fn later_start_sees_free_links() {
        let mut n = net(false);
        let first = n.transfer(Time::ZERO, NodeId(0), NodeId(15), 1 << 20);
        // start well after the first drains: no queueing
        let late = first.arrival + Duration::from_ms(1);
        let second = n.transfer(late, NodeId(0), NodeId(15), 1 << 20);
        assert_eq!(second.queueing, Duration::ZERO);
    }
}
