//! The fabric resource grid.
//!
//! Modelled after column-organized FPGAs (Zynq UltraScale class): the die
//! is a sequence of columns, each holding one resource kind (CLB, BRAM or
//! DSP) replicated down `rows` cells. A [`Region`] is a rectangle of whole
//! columns; its [`Resources`] are what a module placed there may use.

use core::fmt;
use core::ops::{Add, AddAssign, Sub};

use ecoscale_sim::{Persist, RestoreError, SnapIo};

/// One column's resource kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResourceKind {
    /// Configurable logic block (LUTs + FFs).
    Clb,
    /// Block RAM column.
    Bram,
    /// DSP slice column.
    Dsp,
}

impl fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ResourceKind::Clb => "CLB",
            ResourceKind::Bram => "BRAM",
            ResourceKind::Dsp => "DSP",
        })
    }
}

/// A bundle of fabric resources.
///
/// # Example
///
/// ```
/// use ecoscale_fpga::Resources;
///
/// let need = Resources::new(100, 4, 8);
/// let have = Resources::new(200, 8, 8);
/// assert!(need.fits_in(&have));
/// assert!(!have.fits_in(&need));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct Resources {
    /// CLB cells.
    pub clb: u32,
    /// BRAM cells.
    pub bram: u32,
    /// DSP cells.
    pub dsp: u32,
}

impl Persist for Resources {
    fn persist<IO: SnapIo>(&mut self, io: &mut IO) -> Result<(), RestoreError> {
        io.u32(&mut self.clb)?;
        io.u32(&mut self.bram)?;
        io.u32(&mut self.dsp)
    }
}

impl Resources {
    /// No resources.
    pub const ZERO: Resources = Resources {
        clb: 0,
        bram: 0,
        dsp: 0,
    };

    /// Creates a resource bundle.
    pub const fn new(clb: u32, bram: u32, dsp: u32) -> Resources {
        Resources { clb, bram, dsp }
    }

    /// Returns `true` if `self` fits inside `budget` component-wise.
    pub const fn fits_in(&self, budget: &Resources) -> bool {
        self.clb <= budget.clb && self.bram <= budget.bram && self.dsp <= budget.dsp
    }

    /// Component-wise saturating subtraction.
    pub const fn saturating_sub(self, rhs: Resources) -> Resources {
        Resources {
            clb: self.clb.saturating_sub(rhs.clb),
            bram: self.bram.saturating_sub(rhs.bram),
            dsp: self.dsp.saturating_sub(rhs.dsp),
        }
    }

    /// Total cell count (used as a scalar area proxy).
    pub const fn total(&self) -> u32 {
        self.clb + self.bram + self.dsp
    }

    /// Scales each component by an integer factor.
    pub const fn scale(self, k: u32) -> Resources {
        Resources {
            clb: self.clb * k,
            bram: self.bram * k,
            dsp: self.dsp * k,
        }
    }
}

impl Add for Resources {
    type Output = Resources;
    fn add(self, rhs: Resources) -> Resources {
        Resources {
            clb: self.clb + rhs.clb,
            bram: self.bram + rhs.bram,
            dsp: self.dsp + rhs.dsp,
        }
    }
}

impl AddAssign for Resources {
    fn add_assign(&mut self, rhs: Resources) {
        *self = *self + rhs;
    }
}

impl Sub for Resources {
    type Output = Resources;
    fn sub(self, rhs: Resources) -> Resources {
        self.saturating_sub(rhs)
    }
}

impl fmt::Display for Resources {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}CLB/{}BRAM/{}DSP", self.clb, self.bram, self.dsp)
    }
}

/// A rectangle of whole columns on the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    /// First column index.
    pub col: u32,
    /// Number of columns.
    pub width: u32,
    /// First row.
    pub row: u32,
    /// Number of rows.
    pub height: u32,
}

impl Region {
    /// Area in grid cells.
    pub const fn area(&self) -> u32 {
        self.width * self.height
    }

    /// Returns `true` if the two regions overlap.
    pub const fn overlaps(&self, other: &Region) -> bool {
        self.col < other.col + other.width
            && other.col < self.col + self.width
            && self.row < other.row + other.height
            && other.row < self.row + self.height
    }
}

/// The fabric: a column pattern × `rows` cells.
///
/// # Example
///
/// ```
/// use ecoscale_fpga::{Fabric, Region, ResourceKind};
///
/// let fab = Fabric::zynq_like(40, 60);
/// let r = Region { col: 0, width: 10, row: 0, height: 60 };
/// let res = fab.region_resources(&r);
/// assert!(res.clb > 0 && res.bram > 0);
/// ```
#[derive(Debug, Clone)]
pub struct Fabric {
    /// One-row resources of columns `0..c` at index `c`: a region's
    /// resources are a difference of two entries, scaled by its height.
    prefix: Vec<Resources>,
    rows: u32,
}

impl Fabric {
    /// Creates a fabric from an explicit column pattern.
    ///
    /// # Panics
    ///
    /// Panics if `columns` is empty or `rows` is zero.
    pub fn new(columns: Vec<ResourceKind>, rows: u32) -> Fabric {
        assert!(!columns.is_empty(), "fabric needs columns");
        assert!(rows > 0, "fabric needs rows");
        let mut prefix = Vec::with_capacity(columns.len() + 1);
        let mut sum = Resources::ZERO;
        prefix.push(sum);
        for kind in columns {
            match kind {
                ResourceKind::Clb => sum.clb += 1,
                ResourceKind::Bram => sum.bram += 1,
                ResourceKind::Dsp => sum.dsp += 1,
            }
            prefix.push(sum);
        }
        Fabric { prefix, rows }
    }

    /// A Zynq-like pattern: every 5th column BRAM, every 7th DSP, the
    /// rest CLB.
    pub fn zynq_like(width: u32, rows: u32) -> Fabric {
        let columns = (0..width)
            .map(|c| {
                if c % 7 == 6 {
                    ResourceKind::Dsp
                } else if c % 5 == 4 {
                    ResourceKind::Bram
                } else {
                    ResourceKind::Clb
                }
            })
            .collect();
        Fabric::new(columns, rows)
    }

    /// Number of columns.
    pub fn width(&self) -> u32 {
        self.prefix.len() as u32 - 1
    }

    /// Number of rows.
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Total resources of the whole fabric.
    pub fn total_resources(&self) -> Resources {
        self.region_resources(&Region {
            col: 0,
            width: self.width(),
            row: 0,
            height: self.rows,
        })
    }

    /// Resources inside `region`, in constant time.
    ///
    /// # Panics
    ///
    /// Panics if the region exceeds the fabric bounds.
    pub fn region_resources(&self, region: &Region) -> Resources {
        assert!(
            region.col + region.width <= self.width() && region.row + region.height <= self.rows,
            "region out of fabric bounds"
        );
        let (start, end) = (region.col as usize, (region.col + region.width) as usize);
        (self.prefix[end] - self.prefix[start]).scale(region.height)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resources_arithmetic() {
        let a = Resources::new(10, 2, 1);
        let b = Resources::new(5, 1, 0);
        assert_eq!(a + b, Resources::new(15, 3, 1));
        assert_eq!(a - b, Resources::new(5, 1, 1));
        assert_eq!(b - a, Resources::ZERO);
        assert_eq!(a.total(), 13);
        assert_eq!(b.scale(3), Resources::new(15, 3, 0));
        let mut c = a;
        c += b;
        assert_eq!(c.total(), 19);
        assert_eq!(a.to_string(), "10CLB/2BRAM/1DSP");
    }

    #[test]
    fn fits_in_is_componentwise() {
        let budget = Resources::new(100, 10, 5);
        assert!(Resources::new(100, 10, 5).fits_in(&budget));
        assert!(!Resources::new(101, 0, 0).fits_in(&budget));
        assert!(!Resources::new(0, 11, 0).fits_in(&budget));
        assert!(!Resources::new(0, 0, 6).fits_in(&budget));
    }

    #[test]
    fn region_geometry() {
        let a = Region {
            col: 0,
            width: 4,
            row: 0,
            height: 4,
        };
        let b = Region {
            col: 3,
            width: 4,
            row: 0,
            height: 4,
        };
        let c = Region {
            col: 4,
            width: 4,
            row: 0,
            height: 4,
        };
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
        assert_eq!(a.area(), 16);
        // vertical disjointness
        let d = Region {
            col: 0,
            width: 4,
            row: 4,
            height: 2,
        };
        assert!(!a.overlaps(&d));
    }

    #[test]
    fn zynq_pattern_counts() {
        let f = Fabric::zynq_like(35, 10);
        let total = f.total_resources();
        // columns 6,13,20,27,34 are DSP (5); 4,9,14*,19,24,29* — careful:
        // col where c%7==6 takes priority; c%5==4 and c%7!=6 are BRAM.
        let mut dsp = 0;
        let mut bram = 0;
        for c in 0..35u32 {
            if c % 7 == 6 {
                dsp += 1;
            } else if c % 5 == 4 {
                bram += 1;
            }
        }
        assert_eq!(total.dsp, dsp * 10);
        assert_eq!(total.bram, bram * 10);
        assert_eq!(total.total(), 350);
    }

    #[test]
    fn region_resources_subset() {
        let f = Fabric::zynq_like(20, 8);
        let half = f.region_resources(&Region {
            col: 0,
            width: 10,
            row: 0,
            height: 8,
        });
        let whole = f.total_resources();
        assert!(half.fits_in(&whole));
        assert!(half.total() < whole.total());
        // half height halves every count
        let short = f.region_resources(&Region {
            col: 0,
            width: 10,
            row: 0,
            height: 4,
        });
        assert_eq!(short.total() * 2, half.total());
    }

    #[test]
    #[should_panic(expected = "out of fabric bounds")]
    fn region_bounds_checked() {
        let f = Fabric::zynq_like(10, 10);
        f.region_resources(&Region {
            col: 8,
            width: 4,
            row: 0,
            height: 10,
        });
    }

    /// Every region of a few small fabrics, against a per-column sum.
    #[test]
    fn region_resources_match_per_column_sums() {
        use ResourceKind::{Bram, Clb, Dsp};
        let cases: [(Vec<ResourceKind>, u32); 3] = [
            (vec![Dsp], 1),
            (vec![Bram, Clb, Dsp, Clb, Bram, Bram, Dsp], 5),
            (
                (0..23)
                    .map(|c| [Clb, Clb, Bram, Clb, Dsp][c * 7 % 5])
                    .collect(),
                4,
            ),
        ];
        for (kinds, rows) in &cases {
            let f = Fabric::new(kinds.clone(), *rows);
            for col in 0..=f.width() {
                for width in 0..=f.width() - col {
                    for row in 0..=f.rows() {
                        for height in 0..=f.rows() - row {
                            let region = Region {
                                col,
                                width,
                                row,
                                height,
                            };
                            let mut want = Resources::ZERO;
                            for kind in &kinds[col as usize..(col + width) as usize] {
                                match kind {
                                    Clb => want.clb += height,
                                    Bram => want.bram += height,
                                    Dsp => want.dsp += height,
                                }
                            }
                            assert_eq!(f.region_resources(&region), want, "{region:?}");
                        }
                    }
                }
            }
        }
    }
}
