//! GoAhead-style floorplanning: slot allocation, fragmentation,
//! defragmentation and module migration.
//!
//! Following the GoAhead framework \[10\], modules occupy full-height
//! windows of consecutive columns (the standard layout for partial
//! reconfiguration on column-based fabrics). The floorplanner:
//!
//! * finds the **minimum bounding box** for a module at each candidate
//!   position (bounding-box minimization reduces bitstream size,
//!   configuration latency and power §4.3),
//! * allocates first-fit into the free column space,
//! * reports fragmentation, and
//! * plans **defragmentation**: a left-compaction of live modules whose
//!   migrations the middleware then executes with partial
//!   reconfiguration (experiment E10).

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use ecoscale_sim::check::{invariant, CheckPlane};
use ecoscale_sim::{Persist, RestoreError, SnapIo};

use crate::fabric::{Fabric, Region, Resources};
use crate::module::ModuleId;

/// Handle to one placed module instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SlotId(pub u32);

impl Persist for SlotId {
    fn persist<IO: SnapIo>(&mut self, io: &mut IO) -> Result<(), RestoreError> {
        io.u32(&mut self.0)
    }
}

impl fmt::Display for SlotId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

/// A placed module instance: which module, where, how wide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Placement {
    /// The placement handle.
    pub slot: SlotId,
    /// The module occupying the slot.
    pub module: ModuleId,
    /// First column.
    pub col: u32,
    /// Width in columns.
    pub width: u32,
}

/// Placement failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlaceError {
    /// The demand exceeds the whole fabric.
    TooLarge,
    /// Free space exists but no contiguous window fits (fragmentation).
    Fragmented {
        /// Total free columns.
        free_columns: u32,
        /// Largest contiguous free extent.
        largest_extent: u32,
    },
}

impl fmt::Display for PlaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlaceError::TooLarge => f.write_str("module exceeds fabric capacity"),
            PlaceError::Fragmented {
                free_columns,
                largest_extent,
            } => write!(
                f,
                "no contiguous window fits ({free_columns} columns free, largest extent {largest_extent})"
            ),
        }
    }
}

impl Error for PlaceError {}

/// The floorplanner for one Worker's reconfigurable block.
///
/// # Example
///
/// ```
/// use ecoscale_fpga::{Fabric, Floorplanner, ModuleId, Resources};
///
/// let mut fp = Floorplanner::new(Fabric::zynq_like(40, 60));
/// let slot = fp.place(ModuleId(0), Resources::new(600, 12, 24))?;
/// assert!(fp.placement(slot).is_some());
/// fp.remove(slot);
/// assert!(fp.placement(slot).is_none());
/// # Ok::<(), ecoscale_fpga::PlaceError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Floorplanner {
    fabric: Fabric,
    placements: BTreeMap<SlotId, Placement>,
    demands: BTreeMap<SlotId, Resources>,
    next_slot: u32,
}

impl Floorplanner {
    /// Creates an empty floorplan over `fabric`.
    pub fn new(fabric: Fabric) -> Floorplanner {
        Floorplanner {
            fabric,
            placements: BTreeMap::new(),
            demands: BTreeMap::new(),
            next_slot: 0,
        }
    }

    /// The underlying fabric.
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// Iterates current placements in slot order.
    pub fn placements(&self) -> impl Iterator<Item = &Placement> + '_ {
        self.placements.values()
    }

    /// Looks up one placement.
    pub fn placement(&self, slot: SlotId) -> Option<&Placement> {
        self.placements.get(&slot)
    }

    /// Number of live placements.
    pub fn live(&self) -> usize {
        self.placements.len()
    }

    fn occupied(&self, col: u32, width: u32) -> bool {
        self.placements.values().any(|p| {
            let r1 = Region {
                col,
                width,
                row: 0,
                height: 1,
            };
            let r2 = Region {
                col: p.col,
                width: p.width,
                row: 0,
                height: 1,
            };
            r1.overlaps(&r2)
        })
    }

    /// The end of the narrowest window at `col` whose resources cover
    /// `need`, trying ends from `from` up, if any. A window's resources
    /// only grow with its width, so no end before the first that fits
    /// can fit.
    fn window_end(&self, col: u32, from: u32, need: &Resources) -> Option<u32> {
        let rows = self.fabric.rows();
        (from..=self.fabric.width()).find(|&end| {
            need.fits_in(&self.fabric.region_resources(&Region {
                col,
                width: end - col,
                row: 0,
                height: rows,
            }))
        })
    }

    /// Minimal width of a window at `col` whose resources cover `need`,
    /// if any.
    fn width_at(&self, col: u32, need: &Resources) -> Option<u32> {
        self.window_end(col, col + 1, need).map(|end| end - col)
    }

    /// Places `module` with footprint `need` first-fit, minimizing the
    /// bounding box at each candidate position.
    ///
    /// One sweep finds every candidate: the narrowest window's end never
    /// moves left as its start moves right, and once no window at a
    /// column fits, none at a later column does.
    ///
    /// # Errors
    ///
    /// [`PlaceError::TooLarge`] if the fabric can never host the module;
    /// [`PlaceError::Fragmented`] if only fragmentation prevents placement.
    pub fn place(&mut self, module: ModuleId, need: Resources) -> Result<SlotId, PlaceError> {
        if !need.fits_in(&self.fabric.total_resources()) {
            return Err(PlaceError::TooLarge);
        }
        let mut end = 0;
        for col in 0..self.fabric.width() {
            let Some(fit) = self.window_end(col, end.max(col + 1), &need) else {
                break;
            };
            end = fit;
            let width = end - col;
            if !self.occupied(col, width) {
                let slot = SlotId(self.next_slot);
                self.next_slot += 1;
                self.placements.insert(
                    slot,
                    Placement {
                        slot,
                        module,
                        col,
                        width,
                    },
                );
                self.demands.insert(slot, need);
                return Ok(slot);
            }
        }
        Err(PlaceError::Fragmented {
            free_columns: self.free_columns(),
            largest_extent: self.largest_free_extent(),
        })
    }

    /// Removes a placement, returning whether it existed.
    pub fn remove(&mut self, slot: SlotId) -> bool {
        self.demands.remove(&slot);
        self.placements.remove(&slot).is_some()
    }

    /// Total free columns.
    pub fn free_columns(&self) -> u32 {
        self.fabric.width() - self.placements.values().map(|p| p.width).sum::<u32>()
    }

    /// The largest contiguous run of free columns.
    pub fn largest_free_extent(&self) -> u32 {
        let mut occupied = vec![false; self.fabric.width() as usize];
        for p in self.placements.values() {
            for c in p.col..p.col + p.width {
                occupied[c as usize] = true;
            }
        }
        let mut best = 0u32;
        let mut run = 0u32;
        for o in occupied {
            if o {
                best = best.max(run);
                run = 0;
            } else {
                run += 1;
            }
        }
        best.max(run)
    }

    /// External fragmentation in `[0, 1]`: 1 − largest extent / free
    /// columns (0 when free space is contiguous or the fabric is full).
    pub fn fragmentation(&self) -> f64 {
        let free = self.free_columns();
        if free == 0 {
            return 0.0;
        }
        1.0 - self.largest_free_extent() as f64 / free as f64
    }

    /// Column utilization in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        1.0 - self.free_columns() as f64 / self.fabric.width() as f64
    }

    /// CheckPlane hook: asserts exclusive region ownership. Read-only;
    /// early-outs when `cp` is disabled.
    ///
    /// * `fabric.region_exclusive` — placements are pairwise disjoint and
    ///   lie entirely inside the fabric.
    /// * `fabric.demand_satisfied` — each placed window's resources still
    ///   cover the demand recorded at placement time (so defragmentation
    ///   never migrates a module onto an inadequate window).
    pub fn check_invariants(&self, cp: &mut CheckPlane) {
        if !cp.is_enabled() {
            return;
        }
        let placed: Vec<(&SlotId, &Placement)> = self.placements.iter().collect();
        for (i, (slot, p)) in placed.iter().enumerate() {
            cp.check(
                invariant::FABRIC_REGION_EXCLUSIVE,
                p.col + p.width <= self.fabric.width(),
                || {
                    format!(
                        "{slot} at cols {}..{} exceeds fabric width {}",
                        p.col,
                        p.col + p.width,
                        self.fabric.width()
                    )
                },
            );
            for (other_slot, q) in &placed[i + 1..] {
                cp.check(
                    invariant::FABRIC_REGION_EXCLUSIVE,
                    p.col + p.width <= q.col || q.col + q.width <= p.col,
                    || format!("{slot} and {other_slot} overlap in columns"),
                );
            }
            let region = Region {
                col: p.col,
                width: p.width,
                row: 0,
                height: self.fabric.rows(),
            };
            let have = self.fabric.region_resources(&region);
            match self.demands.get(slot) {
                Some(need) => cp.check(
                    invariant::FABRIC_DEMAND_SATISFIED,
                    need.fits_in(&have),
                    || format!("{slot} demands {need} but its window offers {have}"),
                ),
                None => cp.check(invariant::FABRIC_DEMAND_SATISFIED, false, || {
                    format!("{slot} has a placement but no recorded demand")
                }),
            }
        }
        cp.check(
            invariant::FABRIC_DEMAND_SATISFIED,
            self.demands.len() == self.placements.len(),
            || {
                format!(
                    "{} demands recorded for {} placements",
                    self.demands.len(),
                    self.placements.len()
                )
            },
        );
    }

    /// Plans and applies a left-compaction. Returns the migrations
    /// performed as `(slot, old_col, new_col)`; the caller charges each
    /// migration one partial reconfiguration of that module.
    ///
    /// Compaction keeps the relative order of modules (GoAhead migrates
    /// modules one at a time into free space, which order-preserving
    /// compaction guarantees is always possible left-to-right).
    pub fn defragment(&mut self) -> Vec<(SlotId, u32, u32)> {
        let mut order: Vec<SlotId> = self.placements.keys().copied().collect();
        order.sort_by_key(|s| self.placements[s].col);
        let mut migrations = Vec::new();
        let mut cursor = 0u32;
        for slot in order {
            let (old_col, _old_width) = {
                let p = &self.placements[&slot];
                (p.col, p.width)
            };
            let need = self.demands[&slot];
            // Recompute the bounding box at the new position: the column
            // mix differs, so the width may change.
            let new_col = cursor;
            let new_width = self
                .width_at(new_col, &need)
                .expect("compaction target must fit: it fit before at a column to the right");
            if new_col != old_col {
                migrations.push((slot, old_col, new_col));
            }
            let p = self.placements.get_mut(&slot).expect("slot is live");
            p.col = new_col;
            p.width = new_width;
            cursor = new_col + new_width;
        }
        migrations
    }
}

/// Every placement with its recorded demand (ascending slot order), and
/// the slot-id counter. The fabric is structural and not in the stream:
/// a load refuses a placement outside it, or a slot id at or above the
/// counter.
impl Persist for Floorplanner {
    fn persist<IO: SnapIo>(&mut self, io: &mut IO) -> Result<(), RestoreError> {
        let fabric_width = self.fabric.width();
        if IO::LOADING {
            self.demands.clear();
        }
        let demands = &mut self.demands;
        io.map_with(&mut self.placements, "placements", |io, &slot, p| {
            p.slot = slot;
            io.u32(&mut p.module.0)?;
            io.u32(&mut p.col)?;
            io.u32(&mut p.width)?;
            let (col, width) = (p.col, p.width);
            io.ensure(
                width != 0 && col.checked_add(width).is_some_and(|e| e <= fabric_width),
                || format!("slot {slot} at cols {col}+{width} exceeds fabric width {fabric_width}"),
            )?;
            demands.entry(slot).or_insert(Resources::ZERO).persist(io)
        })?;
        io.u32(&mut self.next_slot)?;
        let next = self.next_slot;
        let top = self.placements.keys().next_back();
        io.ensure(top.is_none_or(|s| s.0 < next), || {
            format!("slot counter {next} not above the highest live slot")
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn planner() -> Floorplanner {
        Floorplanner::new(Fabric::zynq_like(40, 60))
    }

    fn clb(n: u32) -> Resources {
        Resources::new(n, 0, 0)
    }

    #[test]
    fn place_and_remove() {
        let mut fp = planner();
        let s = fp.place(ModuleId(1), clb(300)).unwrap();
        assert_eq!(fp.live(), 1);
        let p = *fp.placement(s).unwrap();
        assert_eq!(p.module, ModuleId(1));
        assert!(p.width >= 5); // 300 CLB / 60 rows = ≥5 CLB columns
        assert!(fp.remove(s));
        assert!(!fp.remove(s));
        assert_eq!(fp.live(), 0);
    }

    #[test]
    fn too_large_rejected() {
        let mut fp = planner();
        assert_eq!(
            fp.place(ModuleId(0), clb(1_000_000)),
            Err(PlaceError::TooLarge)
        );
    }

    #[test]
    fn first_fit_packs_left() {
        let mut fp = planner();
        let a = fp.place(ModuleId(0), clb(120)).unwrap();
        let b = fp.place(ModuleId(1), clb(120)).unwrap();
        let pa = fp.placement(a).unwrap().col;
        let pb = fp.placement(b).unwrap().col;
        assert_eq!(pa, 0);
        assert!(pb > pa);
    }

    #[test]
    fn fragmentation_appears_after_churn() {
        let mut fp = planner();
        let slots: Vec<_> = (0..6)
            .map(|i| fp.place(ModuleId(i), clb(240)).unwrap())
            .collect();
        // free every other module -> fragmented free space
        fp.remove(slots[1]);
        fp.remove(slots[3]);
        assert!(fp.fragmentation() > 0.0);
        let frag_before = fp.fragmentation();
        let migrations = fp.defragment();
        assert!(!migrations.is_empty());
        assert!(fp.fragmentation() < frag_before);
        assert_eq!(fp.fragmentation(), 0.0);
    }

    #[test]
    fn fragmented_error_when_no_window_fits() {
        let mut fp = Floorplanner::new(Fabric::new(vec![crate::fabric::ResourceKind::Clb; 10], 10));
        // occupy cols with gaps: place 3 modules of 3 columns each (9 cols),
        // remove the middle one -> 3+1 free columns in two extents
        let a = fp.place(ModuleId(0), clb(30)).unwrap();
        let b = fp.place(ModuleId(1), clb(30)).unwrap();
        let c = fp.place(ModuleId(2), clb(30)).unwrap();
        assert_eq!(fp.free_columns(), 1);
        fp.remove(b);
        assert_eq!(fp.free_columns(), 4);
        // a 4-column module cannot fit although 4 columns are free
        let err = fp.place(ModuleId(3), clb(40)).unwrap_err();
        assert!(matches!(
            err,
            PlaceError::Fragmented {
                free_columns: 4,
                largest_extent: 3
            }
        ));
        // defragment, then it fits
        let migs = fp.defragment();
        assert_eq!(migs.len(), 1); // module c moves left
        fp.place(ModuleId(3), clb(40)).unwrap();
        let _ = (a, c);
    }

    #[test]
    fn defragment_preserves_demands() {
        let mut fp = planner();
        let ids: Vec<_> = (0..5)
            .map(|i| fp.place(ModuleId(i), Resources::new(200, 4, 4)).unwrap())
            .collect();
        fp.remove(ids[0]);
        fp.remove(ids[2]);
        fp.defragment();
        // every surviving placement still covers its demand
        for p in fp.placements() {
            let region = Region {
                col: p.col,
                width: p.width,
                row: 0,
                height: fp.fabric().rows(),
            };
            let have = fp.fabric().region_resources(&region);
            assert!(Resources::new(200, 4, 4).fits_in(&have));
        }
        // no overlaps
        let ps: Vec<_> = fp.placements().copied().collect();
        for (i, p) in ps.iter().enumerate() {
            for q in &ps[i + 1..] {
                let r1 = Region {
                    col: p.col,
                    width: p.width,
                    row: 0,
                    height: 1,
                };
                let r2 = Region {
                    col: q.col,
                    width: q.width,
                    row: 0,
                    height: 1,
                };
                assert!(!r1.overlaps(&r2));
            }
        }
    }

    #[test]
    fn metrics_sane() {
        let mut fp = planner();
        assert_eq!(fp.fragmentation(), 0.0);
        assert_eq!(fp.utilization(), 0.0);
        assert_eq!(fp.largest_free_extent(), 40);
        fp.place(ModuleId(0), clb(600)).unwrap();
        assert!(fp.utilization() > 0.0);
        assert!(fp.free_columns() < 40);
    }

    #[test]
    fn snapshot_restore_round_trips() {
        let mut fp = planner();
        let slots: Vec<_> = (0..5)
            .map(|i| fp.place(ModuleId(i), Resources::new(200, 4, 4)).unwrap())
            .collect();
        fp.remove(slots[1]);
        fp.remove(slots[3]);

        let mut w = ecoscale_sim::SnapWriter::new();
        w.save(&mut fp);
        let bytes = w.into_bytes();

        let mut fresh = planner();
        let mut r = ecoscale_sim::SnapReader::new(&bytes);
        fresh.persist(&mut r).expect("restore");
        assert!(r.is_exhausted());
        let mut w2 = ecoscale_sim::SnapWriter::new();
        w2.save(&mut fresh);
        assert_eq!(bytes, w2.into_bytes());

        let mut cp = CheckPlane::enabled(1);
        fresh.check_invariants(&mut cp);
        assert!(cp.ok(), "restored floorplan violates invariants");

        // behaviour matches: same defragmentation plan, same next slot id
        let a = fp.defragment();
        let b = fresh.defragment();
        assert_eq!(a, b);
        assert_eq!(
            fp.place(ModuleId(9), clb(120)).unwrap(),
            fresh.place(ModuleId(9), clb(120)).unwrap()
        );

        // truncation always fails cleanly
        for cut in 0..bytes.len() {
            let mut f = planner();
            let mut r = ecoscale_sim::SnapReader::new(&bytes[..cut]);
            assert!(
                f.persist(&mut r).is_err() || !r.is_exhausted(),
                "truncated stream at {cut} restored fully"
            );
        }
    }

    #[test]
    fn same_module_multiple_instances() {
        let mut fp = planner();
        let s1 = fp.place(ModuleId(7), clb(120)).unwrap();
        let s2 = fp.place(ModuleId(7), clb(120)).unwrap();
        assert_ne!(s1, s2);
        assert_eq!(fp.live(), 2);
    }
}
