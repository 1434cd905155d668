//! Hierarchical timing wheel with a reusable entry arena.
//!
//! [`TimingWheel`] is the simulator's one event queue: the sharded engine
//! runs one per cluster, and the runtime's scheduler and task-graph
//! simulations each run one. It is a hashed hierarchical wheel (11 levels × 64 slots covering the full
//! 64-bit picosecond clock) whose push and pop are `O(1)` amortized, with
//! cascades touching only `O(levels + entries moved)` work. Entries live
//! in an index-linked arena with an intrusive freelist, so steady-state
//! operation performs **zero allocations**: every freed slot is reused by
//! the next push.
//!
//! # Ordering contract
//!
//! Events are delivered in strict `(time, key)` order. The caller supplies
//! the `key`; the sharded engine packs `(source cluster, per-cluster
//! sequence number)` into it so delivery order is a pure function of the
//! event set and never of the shard layout. A single-queue simulation
//! keys every event by the wheel's own [`scheduled_total`] count, as in
//! `q.schedule(at, q.scheduled_total(), ev)`: events then pop in
//! `(time, scheduling index)` order, so equal timestamps are FIFO, also
//! for events scheduled at the instant currently being delivered.
//!
//! # Example
//!
//! ```
//! use ecoscale_sim::{Time, TimingWheel};
//!
//! let mut w = TimingWheel::new();
//! w.schedule(Time::from_ns(5), 1, "b");
//! w.schedule(Time::from_ns(5), 0, "a");
//! w.schedule(Time::from_ns(1), 2, "first");
//! let order: Vec<_> = std::iter::from_fn(|| w.pop()).map(|(_, _, e)| e).collect();
//! assert_eq!(order, ["first", "a", "b"]);
//! ```
//!
//! [`scheduled_total`]: TimingWheel::scheduled_total

use crate::snap::{malformed, Persist, RestoreError, SnapIo};
use crate::time::Time;

/// Bits per wheel level (64 slots each).
const SLOT_BITS: usize = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Levels needed to cover a 64-bit picosecond clock (6 × 11 = 66 ≥ 64).
const LEVELS: usize = 11;
/// Null arena index (freelist / list terminator).
const NIL: u32 = u32::MAX;

#[derive(Debug)]
struct Node<E> {
    time: u64,
    key: u64,
    next: u32,
    event: Option<E>,
}

/// A hierarchical timing wheel delivering events in `(time, key)` order.
///
/// See the [module docs](self) for the ordering contract and design.
#[derive(Debug)]
pub struct TimingWheel<E> {
    /// Entry arena; freed slots are chained through `free` and reused.
    nodes: Vec<Node<E>>,
    /// Head of the freelist (`NIL` when every slot is live).
    free: u32,
    /// Per-level slot occupancy bitmaps.
    occ: [u64; LEVELS],
    /// Per-level, per-slot list heads into the arena.
    slots: [[u32; SLOTS]; LEVELS],
    /// Current time lower bound: timestamp of the last popped event.
    cur: u64,
    /// Same-instant batch at time `cur`, sorted by key *descending* so the
    /// minimum key pops from the back in `O(1)`.
    ready: Vec<(u64, u32)>,
    len: usize,
    scheduled_total: u64,
}

impl<E> Default for TimingWheel<E> {
    fn default() -> Self {
        TimingWheel::new()
    }
}

impl<E> TimingWheel<E> {
    /// Creates an empty wheel with the clock at [`Time::ZERO`].
    pub fn new() -> TimingWheel<E> {
        TimingWheel {
            nodes: Vec::new(),
            free: NIL,
            occ: [0; LEVELS],
            slots: [[NIL; SLOTS]; LEVELS],
            cur: 0,
            ready: Vec::new(),
            len: 0,
            scheduled_total: 0,
        }
    }

    /// The current simulation time: the timestamp of the most recently
    /// popped event (or [`Time::ZERO`] before the first pop).
    pub fn now(&self) -> Time {
        Time::from_ps(self.cur)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of events ever scheduled on this wheel.
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    /// Number of arena slots ever allocated. In steady state (pushes
    /// balanced by pops) this stays flat: freed slots are reused, so no
    /// per-event allocation happens on the hot path.
    pub fn arena_len(&self) -> usize {
        self.nodes.len()
    }

    /// Schedules `event` at absolute time `at` with tie-break `key`.
    ///
    /// Among events with equal timestamps, smaller keys pop first. Keys
    /// should be unique per `(time, key)` pair for a total order.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before [`now`](Self::now) — the past is immutable.
    pub fn schedule(&mut self, at: Time, key: u64, event: E) {
        let t = at.as_ps();
        assert!(
            t >= self.cur,
            "cannot schedule an event at {at}, which is before now ({})",
            self.now()
        );
        self.scheduled_total += 1;
        self.len += 1;
        let idx = self.alloc(t, key, event);
        if t == self.cur && !self.ready.is_empty() {
            // The current instant is being delivered: join the batch at
            // its key-sorted position.
            let pos = self.ready.partition_point(|&(k, _)| k > key);
            self.ready.insert(pos, (key, idx));
            return;
        }
        self.insert_node(idx);
    }

    /// The timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<Time> {
        if !self.ready.is_empty() {
            return Some(Time::from_ps(self.cur));
        }
        if self.len == 0 {
            return None;
        }
        // Level 0 slots each hold exactly one timestamp, reconstructable
        // from `cur`'s upper bits; higher levels need a list walk (rare —
        // only when the level-0 window is drained).
        if self.occ[0] != 0 {
            let s = self.occ[0].trailing_zeros() as u64;
            return Some(Time::from_ps((self.cur & !(SLOTS as u64 - 1)) | s));
        }
        for lvl in 1..LEVELS {
            if self.occ[lvl] != 0 {
                let s = self.occ[lvl].trailing_zeros() as usize;
                let mut min = u64::MAX;
                let mut i = self.slots[lvl][s];
                while i != NIL {
                    let n = &self.nodes[i as usize];
                    min = min.min(n.time);
                    i = n.next;
                }
                return Some(Time::from_ps(min));
            }
        }
        None
    }

    /// Removes and returns the earliest event as `(time, key, event)`,
    /// advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(Time, u64, E)> {
        if self.ready.is_empty() && !self.fill_ready() {
            return None;
        }
        let (key, idx) = self.ready.pop().expect("fill_ready produced a batch");
        self.len -= 1;
        let event = self.release(idx);
        Some((Time::from_ps(self.cur), key, event))
    }

    fn alloc(&mut self, time: u64, key: u64, event: E) -> u32 {
        if self.free != NIL {
            let idx = self.free;
            let n = &mut self.nodes[idx as usize];
            self.free = n.next;
            n.time = time;
            n.key = key;
            n.next = NIL;
            n.event = Some(event);
            idx
        } else {
            let idx = self.nodes.len() as u32;
            assert!(idx != NIL, "timing wheel arena exhausted");
            self.nodes.push(Node {
                time,
                key,
                next: NIL,
                event: Some(event),
            });
            idx
        }
    }

    fn release(&mut self, idx: u32) -> E {
        let n = &mut self.nodes[idx as usize];
        let ev = n.event.take().expect("released node holds an event");
        n.next = self.free;
        self.free = idx;
        ev
    }

    /// Level at which a node with timestamp `t` lives relative to `cur`:
    /// the highest 6-bit group where `t` and `cur` differ (0 if equal).
    fn level_of(&self, t: u64) -> usize {
        let diff = t ^ self.cur;
        if diff == 0 {
            0
        } else {
            (63 - diff.leading_zeros() as usize) / SLOT_BITS
        }
    }

    fn insert_node(&mut self, idx: u32) {
        let t = self.nodes[idx as usize].time;
        let lvl = self.level_of(t);
        let slot = ((t >> (SLOT_BITS * lvl)) & (SLOTS as u64 - 1)) as usize;
        self.nodes[idx as usize].next = self.slots[lvl][slot];
        self.slots[lvl][slot] = idx;
        self.occ[lvl] |= 1 << slot;
    }

    /// Takes the whole list of `(lvl, slot)` and clears its occupancy bit.
    fn take_slot(&mut self, lvl: usize, slot: usize) -> u32 {
        let head = self.slots[lvl][slot];
        self.slots[lvl][slot] = NIL;
        self.occ[lvl] &= !(1 << slot);
        head
    }

    /// Advances the wheel to the next pending timestamp and drains that
    /// instant's entries into `ready` (key-sorted). Returns `false` if the
    /// wheel is empty.
    fn fill_ready(&mut self) -> bool {
        if self.len == 0 {
            return false;
        }
        loop {
            if self.occ[0] != 0 {
                // Every entry in a level-0 slot shares one exact timestamp.
                let slot = self.occ[0].trailing_zeros() as usize;
                let mut i = self.take_slot(0, slot);
                debug_assert!(i != NIL);
                self.cur = self.nodes[i as usize].time;
                while i != NIL {
                    let n = &self.nodes[i as usize];
                    let (key, next) = (n.key, n.next);
                    let pos = self.ready.partition_point(|&(k, _)| k > key);
                    self.ready.insert(pos, (key, i));
                    i = next;
                }
                return true;
            }
            // Level-0 window exhausted: cascade the lowest occupied slot of
            // the lowest occupied level. Entries at level `l` agree with
            // `cur` above group `l`, so lower levels always hold earlier
            // timestamps and this scan order is time order.
            let Some(lvl) = (1..LEVELS).find(|&l| self.occ[l] != 0) else {
                unreachable!("len > 0 but no occupied slot");
            };
            let slot = self.occ[lvl].trailing_zeros() as usize;
            // Jump the clock to the base of the slot's range; everything
            // still pending is at or after it.
            let shift = SLOT_BITS * (lvl + 1);
            let base = if shift >= 64 {
                0
            } else {
                (self.cur >> shift) << shift
            };
            self.cur = base | ((slot as u64) << (SLOT_BITS * lvl));
            let mut i = self.take_slot(lvl, slot);
            while i != NIL {
                let next = self.nodes[i as usize].next;
                self.insert_node(i); // relative to the new `cur`: lands lower
                i = next;
            }
        }
    }
}

/// The wheel in canonical order: clock, the live same-instant `ready`
/// batch exactly as stored (key-descending), then every other pending
/// node sorted by `(time, key)`. Arena indices, freelist shape and
/// slot-list order are layout, not state, so save → load → save is
/// byte-identical regardless of the churn history that produced the
/// wheel. The stream is a canonical form of the arena, so saving and
/// loading the nodes take separate paths.
impl<E: Persist + Default> Persist for TimingWheel<E> {
    fn persist<IO: SnapIo>(&mut self, io: &mut IO) -> Result<(), RestoreError> {
        if IO::LOADING {
            *self = TimingWheel::new();
        }
        io.u64(&mut self.cur)?;
        io.u64(&mut self.scheduled_total)?;
        if IO::LOADING {
            self.load_nodes(io)
        } else {
            self.save_nodes(io)
        }
    }
}

impl<E: Persist + Default> TimingWheel<E> {
    fn save_nodes<IO: SnapIo>(&mut self, io: &mut IO) -> Result<(), RestoreError> {
        io.len(self.ready.len(), "wheel ready batch")?;
        let mut in_ready = vec![false; self.nodes.len()];
        for i in 0..self.ready.len() {
            let (mut key, idx) = self.ready[i];
            in_ready[idx as usize] = true;
            io.u64(&mut key)?;
            self.live_event(idx).persist(io)?;
        }
        let mut rest: Vec<u32> = (0..self.nodes.len() as u32)
            .filter(|&i| self.nodes[i as usize].event.is_some() && !in_ready[i as usize])
            .collect();
        rest.sort_unstable_by_key(|&i| {
            let n = &self.nodes[i as usize];
            (n.time, n.key)
        });
        io.len(rest.len(), "wheel pending nodes")?;
        for i in rest {
            let Node {
                mut time, mut key, ..
            } = self.nodes[i as usize];
            io.u64(&mut time)?;
            io.u64(&mut key)?;
            self.live_event(i).persist(io)?;
        }
        Ok(())
    }

    fn live_event(&mut self, idx: u32) -> &mut E {
        self.nodes[idx as usize]
            .event
            .as_mut()
            .expect("live node holds an event")
    }

    fn load_nodes<IO: SnapIo>(&mut self, io: &mut IO) -> Result<(), RestoreError> {
        let nready = io.len(0, "wheel ready batch")?;
        let mut prev_key: Option<u64> = None;
        for i in 0..nready {
            let mut key = 0;
            io.u64(&mut key)?;
            if prev_key.is_some_and(|p| p <= key) {
                return Err(malformed(format!(
                    "ready batch not key-descending at index {i}"
                )));
            }
            prev_key = Some(key);
            let mut event = E::default();
            event.persist(io)?;
            let idx = self.alloc(self.cur, key, event);
            self.ready.push((key, idx));
            self.len += 1;
        }
        let n = io.len(0, "wheel pending nodes")?;
        let mut prev: Option<(u64, u64)> = None;
        for i in 0..n {
            let (mut time, mut key) = (0, 0);
            io.u64(&mut time)?;
            io.u64(&mut key)?;
            if time < self.cur {
                return Err(malformed(format!(
                    "wheel node {i} at {time}ps is before the clock {}ps",
                    self.cur
                )));
            }
            if prev.is_some_and(|p| p >= (time, key)) {
                return Err(malformed(format!(
                    "wheel nodes out of canonical (time, key) order at index {i}"
                )));
            }
            prev = Some((time, key));
            let mut event = E::default();
            event.persist(io)?;
            let idx = self.alloc(time, key, event);
            self.insert_node(idx);
            self.len += 1;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use crate::time::Duration;

    #[test]
    fn pops_in_time_then_key_order() {
        let mut w = TimingWheel::new();
        w.schedule(Time::from_ns(30), 0, 3);
        w.schedule(Time::from_ns(10), 1, 1);
        w.schedule(Time::from_ns(10), 0, 0);
        w.schedule(Time::from_ns(20), 5, 2);
        let out: Vec<_> = std::iter::from_fn(|| w.pop()).map(|(_, _, e)| e).collect();
        assert_eq!(out, vec![0, 1, 2, 3]);
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut w = TimingWheel::new();
        assert_eq!(w.now(), Time::ZERO);
        w.schedule(Time::from_ns(5), 0, ());
        w.schedule(Time::from_ns(9), 1, ());
        w.pop();
        assert_eq!(w.now(), Time::from_ns(5));
        w.pop();
        assert_eq!(w.now(), Time::from_ns(9));
        assert!(w.pop().is_none());
        assert_eq!(w.now(), Time::from_ns(9));
    }

    #[test]
    #[should_panic(expected = "before now")]
    fn scheduling_in_the_past_panics() {
        let mut w = TimingWheel::new();
        w.schedule(Time::from_ns(10), 0, ());
        w.pop();
        w.schedule(Time::from_ns(9), 1, ());
    }

    #[test]
    fn same_instant_schedule_during_delivery_respects_keys() {
        let mut w = TimingWheel::new();
        w.schedule(Time::from_ns(10), 2, "c");
        w.schedule(Time::from_ns(10), 0, "a");
        let (t, k, e) = w.pop().unwrap();
        assert_eq!((t, k, e), (Time::from_ns(10), 0, "a"));
        // now == 10 and the batch is live: a key between the remaining ones
        // must slot into order
        w.schedule(Time::from_ns(10), 1, "b");
        w.schedule(Time::from_ns(10), 3, "d");
        let rest: Vec<_> = std::iter::from_fn(|| w.pop()).map(|(_, _, e)| e).collect();
        assert_eq!(rest, ["b", "c", "d"]);
    }

    #[test]
    fn peek_matches_pop_across_windows() {
        let mut w = TimingWheel::new();
        // Spread far across wheel levels: same slot window, next window,
        // and several levels up.
        for (i, ps) in [3u64, 63, 64, 65, 4_095, 4_096, 1 << 20, (1 << 40) + 7]
            .iter()
            .enumerate()
        {
            w.schedule(Time::from_ps(*ps), i as u64, *ps);
        }
        let mut prev = 0u64;
        while let Some(peek) = w.peek_time() {
            let (t, _, e) = w.pop().unwrap();
            assert_eq!(peek, t);
            assert_eq!(t.as_ps(), e);
            assert!(e >= prev);
            prev = e;
        }
        assert!(w.is_empty());
    }

    #[test]
    fn arena_reuses_slots_zero_steady_state_growth() {
        let mut w = TimingWheel::new();
        // Warm up: at most 32 pending entries at any point.
        for i in 0..32u64 {
            w.schedule(Time::from_ps(i + 1), i, i);
        }
        let warm = w.arena_len();
        assert_eq!(warm, 32);
        // Churn: every push is preceded by a pop, so the freelist always
        // has a slot to hand out. The arena must not grow at all.
        let mut t = 33u64;
        for i in 0..10_000u64 {
            w.pop().unwrap();
            w.schedule(Time::from_ps(t), 32 + i, i);
            t += 17;
        }
        assert_eq!(w.arena_len(), warm, "steady-state churn must not allocate");
        assert_eq!(w.len(), 32);
    }

    #[test]
    fn bookkeeping() {
        let mut w: TimingWheel<()> = TimingWheel::new();
        assert!(w.is_empty());
        w.schedule(Time::from_ns(4), 0, ());
        w.schedule(Time::from_ns(2), 1, ());
        assert_eq!(w.len(), 2);
        assert_eq!(w.peek_time(), Some(Time::from_ns(2)));
        assert_eq!(w.scheduled_total(), 2);
    }

    use crate::snap::{RestoreError, SnapReader, SnapWriter};

    fn snap_bytes(w: &mut TimingWheel<u64>) -> Vec<u8> {
        let mut sw = SnapWriter::new();
        sw.save(w);
        sw.into_bytes()
    }

    fn unsnap(bytes: &[u8]) -> Result<TimingWheel<u64>, RestoreError> {
        let mut r = SnapReader::new(bytes);
        r.load(TimingWheel::new())
    }

    /// A wheel mid-delivery: churned arena, entries across several
    /// levels, and a live (partially popped) same-instant ready batch.
    fn churned() -> TimingWheel<u64> {
        let mut w = TimingWheel::new();
        for i in 0..24u64 {
            w.schedule(Time::from_ps(i * 97 + 1), i, i);
        }
        for _ in 0..8 {
            w.pop();
        }
        let now = w.now();
        // three entries at the current instant, pop one so the ready
        // batch is live with two left
        w.schedule(now, 100, 100);
        w.schedule(now, 101, 101);
        w.schedule(now, 102, 102);
        w.pop();
        // far-future entries spanning wheel levels
        w.schedule(Time::from_ps(now.as_ps() + (1 << 20)), 200, 200);
        w.schedule(Time::from_ps(now.as_ps() + (1 << 40)), 201, 201);
        w
    }

    #[test]
    fn snapshot_restore_round_trips_and_reserializes_identically() {
        let mut w = churned();
        let bytes = snap_bytes(&mut w);
        let mut restored = unsnap(&bytes).expect("restore");
        assert_eq!(
            snap_bytes(&mut restored),
            bytes,
            "re-snapshot not identical"
        );
        assert_eq!(restored.now(), w.now());
        assert_eq!(restored.len(), w.len());
        assert_eq!(restored.scheduled_total(), w.scheduled_total());
        // identical drains, including after fresh scheduling on both
        let later = w.now() + Duration::from_ns(3);
        w.schedule(later, 999, 999);
        restored.schedule(later, 999, 999);
        let a: Vec<_> = std::iter::from_fn(|| w.pop()).collect();
        let b: Vec<_> = std::iter::from_fn(|| restored.pop()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn restore_rejects_malformed_streams() {
        let bytes = snap_bytes(&mut churned());
        for cut in 0..bytes.len() {
            assert!(unsnap(&bytes[..cut]).is_err(), "cut at {cut} accepted");
        }
        // a node timestamped before the clock is refused
        let mut sw = SnapWriter::new();
        sw.save(&mut 1000u64); // cur
        sw.save(&mut 1u64); // scheduled_total
        sw.save(&mut 0usize); // ready
        sw.save(&mut 1usize); // nodes
        sw.save(&mut 999u64); // before cur
        sw.save(&mut 0u64);
        sw.save(&mut 7u64);
        assert!(matches!(
            unsnap(&sw.into_bytes()),
            Err(RestoreError::Malformed { .. })
        ));
    }

    /// Randomized lockstep against a sorted reference: interleaved pushes
    /// and pops over a wide time range must agree exactly.
    #[test]
    fn matches_btreemap_reference() {
        use std::collections::BTreeMap;
        for case in 0..32u64 {
            let mut rng = SimRng::seed_from(0x77EE1 ^ case);
            let mut w = TimingWheel::new();
            let mut reference: BTreeMap<(u64, u64), u64> = BTreeMap::new();
            let mut key = 0u64;
            for step in 0..2_000u64 {
                if rng.gen_bool(0.6) || reference.is_empty() {
                    let horizon = w.now().as_ps();
                    let exp = 1 << rng.gen_range_u64(0, 45);
                    let t = horizon + rng.gen_range_u64(0, exp);
                    w.schedule(Time::from_ps(t), key, step);
                    reference.insert((t, key), step);
                    key += 1;
                } else {
                    let got = w.pop();
                    let want = reference.pop_first();
                    match (got, want) {
                        (Some((t, k, e)), Some(((rt, rk), re))) => {
                            assert_eq!((t.as_ps(), k, e), (rt, rk, re), "case {case} step {step}");
                        }
                        (None, None) => {}
                        (g, r) => panic!("case {case} step {step}: {g:?} vs {r:?}"),
                    }
                }
            }
            // drain
            while let Some((t, k, e)) = w.pop() {
                let ((rt, rk), re) = reference.pop_first().expect("reference non-empty");
                assert_eq!((t.as_ps(), k, e), (rt, rk, re), "case {case} drain");
            }
            assert!(reference.is_empty(), "case {case}");
        }
    }
}
