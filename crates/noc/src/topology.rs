//! Interconnect topologies and routing.
//!
//! Endpoints are Workers, identified by [`NodeId`]. A [`Topology`] maps a
//! `(src, dst)` pair to a [`Route`]: the ordered list of links the message
//! traverses, each tagged with its hierarchy *level* (0 = cheapest, local
//! interconnect; higher = more expensive, longer-reach links).

use core::fmt;

use ecoscale_sim::{Persist, RestoreError, SnapIo};

/// Identifies a Worker endpoint on the interconnect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub usize);

impl Persist for NodeId {
    fn persist<IO: SnapIo>(&mut self, io: &mut IO) -> Result<(), RestoreError> {
        io.usize(&mut self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "W{}", self.0)
    }
}

/// Identifies one directed link in a topology; stable across calls so the
/// contention model can track per-link occupancy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LinkId(pub u64);

impl Persist for LinkId {
    fn persist<IO: SnapIo>(&mut self, io: &mut IO) -> Result<(), RestoreError> {
        io.u64(&mut self.0)
    }
}

impl fmt::Display for LinkId {
    /// Hex, because topologies bit-pack direction/level/endpoint fields
    /// into the id — `link8000000000000003` beats its decimal form in a
    /// trace viewer.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "link{:x}", self.0)
    }
}

/// One traversed link: its id and its hierarchy level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hop {
    /// The link traversed.
    pub link: LinkId,
    /// Hierarchy level of the link (0 = most local).
    pub level: u8,
}

/// The path a message takes between two endpoints.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Route {
    hops: Vec<Hop>,
}

impl Route {
    /// An empty (same-endpoint) route.
    pub fn local() -> Route {
        Route { hops: Vec::new() }
    }

    /// Builds a route from hops.
    pub fn from_hops(hops: Vec<Hop>) -> Route {
        Route { hops }
    }

    /// Number of links traversed.
    pub fn hop_count(&self) -> u32 {
        self.hops.len() as u32
    }

    /// Returns `true` for a same-endpoint route.
    pub fn is_local(&self) -> bool {
        self.hops.is_empty()
    }

    /// The highest hierarchy level this route touches, or `None` if local.
    pub fn max_level(&self) -> Option<u8> {
        self.hops.iter().map(|h| h.level).max()
    }

    /// Iterates over the hops in traversal order.
    pub fn iter(&self) -> impl Iterator<Item = &Hop> + '_ {
        self.hops.iter()
    }
}

/// A routed interconnect topology over `num_nodes` Worker endpoints.
pub trait Topology {
    /// Number of endpoints.
    fn num_nodes(&self) -> usize;

    /// Computes the route from `src` to `dst`.
    ///
    /// # Panics
    ///
    /// Implementations panic if either endpoint is out of range.
    fn route(&self, src: NodeId, dst: NodeId) -> Route;

    /// Network diameter in hops: the maximum over all endpoint pairs.
    ///
    /// The default implementation is exhaustive (`O(n^2)` routes) and meant
    /// for tests and small instances; implementations override it with a
    /// closed form where one exists.
    fn diameter(&self) -> u32 {
        let n = self.num_nodes();
        let mut best = 0;
        for s in 0..n {
            for d in 0..n {
                best = best.max(self.route(NodeId(s), NodeId(d)).hop_count());
            }
        }
        best
    }
}

fn check_bounds(n: usize, src: NodeId, dst: NodeId) {
    assert!(src.0 < n, "source {src} out of range (n = {n})");
    assert!(dst.0 < n, "destination {dst} out of range (n = {n})");
}

/// The ECOSCALE hierarchy: Workers are leaves of a tree whose level-`i`
/// switches connect `fanouts[i]` level-`(i-1)` subtrees.
///
/// A message climbs to the lowest common ancestor and back down; a route
/// crossing an ancestor at level `L` takes `2·L` hops (up-links then
/// down-links), matching the paper's "each level up the tree adds one hop
/// to the maximum communication distance" in each direction.
///
/// # Example
///
/// ```
/// use ecoscale_noc::{NodeId, Topology, TreeTopology};
///
/// // 4 workers per compute node, 4 nodes per board, 4 boards: 64 workers
/// let t = TreeTopology::new(&[4, 4, 4]);
/// assert_eq!(t.num_nodes(), 64);
/// // neighbours inside one compute node: up 1, down 1
/// assert_eq!(t.route(NodeId(0), NodeId(1)).hop_count(), 2);
/// // across the whole machine: up 3, down 3
/// assert_eq!(t.diameter(), 6);
/// ```
#[derive(Debug, Clone)]
pub struct TreeTopology {
    fanouts: Vec<usize>,
    num_nodes: usize,
    /// subtree_size[i] = number of leaves under one level-i subtree
    /// (subtree_size\[0\] = 1 leaf).
    subtree_size: Vec<usize>,
}

impl TreeTopology {
    /// Creates a tree from per-level fanouts, `fanouts\[0\]` being the number
    /// of Workers per lowest-level group.
    ///
    /// # Panics
    ///
    /// Panics if `fanouts` is empty or any fanout is < 2.
    pub fn new(fanouts: &[usize]) -> TreeTopology {
        assert!(!fanouts.is_empty(), "tree needs at least one level");
        assert!(
            fanouts.iter().all(|&f| f >= 2),
            "every fanout must be at least 2"
        );
        let mut subtree_size = vec![1usize];
        for &f in fanouts {
            let next = subtree_size.last().unwrap() * f;
            subtree_size.push(next);
        }
        let num_nodes = *subtree_size.last().unwrap();
        TreeTopology {
            fanouts: fanouts.to_vec(),
            num_nodes,
            subtree_size,
        }
    }

    /// Number of levels (depth of the tree).
    pub fn levels(&self) -> usize {
        self.fanouts.len()
    }

    /// The per-level fanouts.
    pub fn fanouts(&self) -> &[usize] {
        &self.fanouts
    }

    /// Number of Worker leaves under one level-`level` subtree
    /// (`subtree_leaves(0)` = 1 — a leaf is its own level-0 subtree;
    /// `subtree_leaves(levels())` = the whole machine).
    ///
    /// # Panics
    ///
    /// Panics if `level > levels()`.
    pub fn subtree_leaves(&self, level: usize) -> usize {
        assert!(
            level <= self.levels(),
            "level {level} beyond tree depth {}",
            self.levels()
        );
        self.subtree_size[level]
    }

    /// Index (in left-to-right order) of the level-`level` subtree
    /// containing `node`. Two nodes share a level-`k` subtree iff their
    /// level-`k` indices match; the sharded engine uses this to map
    /// Workers onto their cluster.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or `level > levels()`.
    pub fn subtree_index(&self, node: NodeId, level: usize) -> usize {
        check_bounds(self.num_nodes, node, node);
        assert!(
            level <= self.levels(),
            "level {level} beyond tree depth {}",
            self.levels()
        );
        node.0 / self.subtree_size[level]
    }

    /// The lowest level at which `a` and `b` share a subtree
    /// (0 = same leaf; `k` = same level-`k` subtree).
    pub fn common_level(&self, a: NodeId, b: NodeId) -> usize {
        check_bounds(self.num_nodes, a, b);
        for lvl in 0..=self.levels() {
            if a.0 / self.subtree_size[lvl] == b.0 / self.subtree_size[lvl] {
                return lvl;
            }
        }
        unreachable!("all nodes share the root subtree");
    }

    /// Hops on the route from `a` to `b` (up to their lowest common
    /// subtree and down again): `route(a, b).hop_count()` without
    /// building the route.
    pub fn hops(&self, a: NodeId, b: NodeId) -> u32 {
        2 * self.common_level(a, b) as u32
    }

    /// Link id of the up-link from the level-`lvl` subtree containing
    /// `node` to its parent switch. Levels use `lvl` in `0..levels()`.
    fn up_link(&self, node: NodeId, lvl: usize) -> LinkId {
        // Unique per (level, subtree index); direction folded in bit 63 = 0.
        let subtree = (node.0 / self.subtree_size[lvl]) as u64;
        LinkId((lvl as u64) << 48 | subtree)
    }

    fn down_link(&self, node: NodeId, lvl: usize) -> LinkId {
        let subtree = (node.0 / self.subtree_size[lvl]) as u64;
        LinkId(1 << 63 | (lvl as u64) << 48 | subtree)
    }
}

impl Topology for TreeTopology {
    fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    fn route(&self, src: NodeId, dst: NodeId) -> Route {
        check_bounds(self.num_nodes, src, dst);
        if src == dst {
            return Route::local();
        }
        let top = self.common_level(src, dst);
        let mut hops = Vec::with_capacity(2 * top);
        // climb: the up-link out of src's level-l subtree is a level-l link
        for lvl in 0..top {
            hops.push(Hop {
                link: self.up_link(src, lvl),
                level: lvl as u8,
            });
        }
        // descend toward dst
        for lvl in (0..top).rev() {
            hops.push(Hop {
                link: self.down_link(dst, lvl),
                level: lvl as u8,
            });
        }
        Route::from_hops(hops)
    }

    fn diameter(&self) -> u32 {
        2 * self.levels() as u32
    }
}

/// A flat single-switch crossbar over `n` endpoints: every non-local route
/// is 2 hops (in, out) at level 0. This is the "simple hardware scaling"
/// baseline the paper argues cannot continue.
///
/// # Example
///
/// ```
/// use ecoscale_noc::{CrossbarTopology, NodeId, Topology};
///
/// let x = CrossbarTopology::new(16);
/// assert_eq!(x.route(NodeId(0), NodeId(9)).hop_count(), 2);
/// assert_eq!(x.diameter(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct CrossbarTopology {
    n: usize,
}

impl CrossbarTopology {
    /// Creates a crossbar over `n` endpoints.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize) -> CrossbarTopology {
        assert!(n > 0, "crossbar needs at least one endpoint");
        CrossbarTopology { n }
    }
}

impl Topology for CrossbarTopology {
    fn num_nodes(&self) -> usize {
        self.n
    }

    fn route(&self, src: NodeId, dst: NodeId) -> Route {
        check_bounds(self.n, src, dst);
        if src == dst {
            return Route::local();
        }
        Route::from_hops(vec![
            Hop {
                link: LinkId(src.0 as u64),
                level: 0,
            },
            Hop {
                link: LinkId(1 << 63 | dst.0 as u64),
                level: 0,
            },
        ])
    }

    fn diameter(&self) -> u32 {
        if self.n > 1 {
            2
        } else {
            0
        }
    }
}

/// A 2-D mesh with dimension-order (XY) routing; all links are level 0.
///
/// # Example
///
/// ```
/// use ecoscale_noc::{Mesh2d, NodeId, Topology};
///
/// let m = Mesh2d::new(4, 4);
/// // (0,0) -> (3,3): 3 X hops + 3 Y hops
/// assert_eq!(m.route(NodeId(0), NodeId(15)).hop_count(), 6);
/// ```
#[derive(Debug, Clone)]
pub struct Mesh2d {
    width: usize,
    height: usize,
}

impl Mesh2d {
    /// Creates a `width × height` mesh.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: usize, height: usize) -> Mesh2d {
        assert!(width > 0 && height > 0, "mesh dimensions must be positive");
        Mesh2d { width, height }
    }

    fn coords(&self, n: NodeId) -> (usize, usize) {
        (n.0 % self.width, n.0 / self.width)
    }

    fn h_link(&self, x: usize, y: usize, east: bool) -> LinkId {
        LinkId((east as u64) << 62 | (y * self.width + x) as u64)
    }

    fn v_link(&self, x: usize, y: usize, north: bool) -> LinkId {
        LinkId(1 << 63 | (north as u64) << 62 | (y * self.width + x) as u64)
    }
}

impl Topology for Mesh2d {
    fn num_nodes(&self) -> usize {
        self.width * self.height
    }

    fn route(&self, src: NodeId, dst: NodeId) -> Route {
        check_bounds(self.num_nodes(), src, dst);
        let (mut x, mut y) = self.coords(src);
        let (dx, dy) = self.coords(dst);
        let mut hops = Vec::new();
        while x != dx {
            let east = dx > x;
            hops.push(Hop {
                link: self.h_link(x, y, east),
                level: 0,
            });
            x = if east { x + 1 } else { x - 1 };
        }
        while y != dy {
            let north = dy > y;
            hops.push(Hop {
                link: self.v_link(x, y, north),
                level: 0,
            });
            y = if north { y + 1 } else { y - 1 };
        }
        Route::from_hops(hops)
    }

    fn diameter(&self) -> u32 {
        (self.width - 1 + self.height - 1) as u32
    }
}

/// A simplified dragonfly: endpoints attach to routers, routers form
/// all-to-all groups, and each group pair is joined by one global link.
/// Minimal routing gives at most 5 hops (terminal–router, local, global,
/// local, router–terminal); the paper cites dragonfly \[2\] as the kind of
/// high-radix topology applications partition over.
///
/// # Example
///
/// ```
/// use ecoscale_noc::{Dragonfly, NodeId, Topology};
///
/// let d = Dragonfly::new(4, 4, 2);
/// assert_eq!(d.num_nodes(), 32);
/// assert!(d.diameter() <= 5);
/// ```
#[derive(Debug, Clone)]
pub struct Dragonfly {
    groups: usize,
    routers_per_group: usize,
    nodes_per_router: usize,
}

impl Dragonfly {
    /// Creates a dragonfly with the given shape.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero.
    pub fn new(groups: usize, routers_per_group: usize, nodes_per_router: usize) -> Dragonfly {
        assert!(
            groups > 0 && routers_per_group > 0 && nodes_per_router > 0,
            "dragonfly dimensions must be positive"
        );
        Dragonfly {
            groups,
            routers_per_group,
            nodes_per_router,
        }
    }

    fn locate(&self, n: NodeId) -> (usize, usize) {
        // (group, router-within-group)
        let router = n.0 / self.nodes_per_router;
        (
            router / self.routers_per_group,
            router % self.routers_per_group,
        )
    }

    /// The router in `group` that owns the global link toward `other`.
    fn gateway(&self, group: usize, other: usize) -> usize {
        // Deterministic assignment of global links to routers.
        let o = if other > group { other - 1 } else { other };
        o % self.routers_per_group
    }

    fn terminal_link(&self, n: NodeId, up: bool) -> LinkId {
        LinkId((up as u64) << 62 | n.0 as u64)
    }

    fn local_link(&self, group: usize, from: usize, to: usize) -> LinkId {
        LinkId(1 << 63 | (group as u64) << 32 | (from as u64) << 16 | to as u64)
    }

    fn global_link(&self, from_group: usize, to_group: usize) -> LinkId {
        LinkId(3 << 62 | (from_group as u64) << 24 | to_group as u64)
    }
}

impl Topology for Dragonfly {
    fn num_nodes(&self) -> usize {
        self.groups * self.routers_per_group * self.nodes_per_router
    }

    fn route(&self, src: NodeId, dst: NodeId) -> Route {
        check_bounds(self.num_nodes(), src, dst);
        if src == dst {
            return Route::local();
        }
        let (sg, sr) = self.locate(src);
        let (dg, dr) = self.locate(dst);
        let mut hops = vec![Hop {
            link: self.terminal_link(src, true),
            level: 0,
        }];
        if sg == dg {
            if sr != dr {
                hops.push(Hop {
                    link: self.local_link(sg, sr, dr),
                    level: 1,
                });
            }
        } else {
            let gw_out = self.gateway(sg, dg);
            if sr != gw_out {
                hops.push(Hop {
                    link: self.local_link(sg, sr, gw_out),
                    level: 1,
                });
            }
            hops.push(Hop {
                link: self.global_link(sg, dg),
                level: 2,
            });
            let gw_in = self.gateway(dg, sg);
            if gw_in != dr {
                hops.push(Hop {
                    link: self.local_link(dg, gw_in, dr),
                    level: 1,
                });
            }
        }
        hops.push(Hop {
            link: self.terminal_link(dst, false),
            level: 0,
        });
        Route::from_hops(hops)
    }

    fn diameter(&self) -> u32 {
        let mut d = 2; // two terminal links
        if self.groups > 1 {
            d += 3; // local + global + local worst case
        } else if self.routers_per_group > 1 {
            d += 1;
        }
        d
    }
}

/// A fat tree: the ECOSCALE hierarchy with `uplinks` parallel links out
/// of every subtree at every level. Routes hash `(src, dst)` onto one of
/// the parallel links, spreading unrelated flows across them — the
/// standard remedy for the plain tree's root bottleneck (ablation A4).
///
/// # Example
///
/// ```
/// use ecoscale_noc::{FatTreeTopology, NodeId, Topology};
///
/// let t = FatTreeTopology::new(&[4, 4], 4);
/// assert_eq!(t.num_nodes(), 16);
/// assert_eq!(t.route(NodeId(0), NodeId(15)).hop_count(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct FatTreeTopology {
    inner: TreeTopology,
    uplinks: u64,
}

impl FatTreeTopology {
    /// Creates a fat tree with `uplinks` parallel links per subtree per
    /// level.
    ///
    /// # Panics
    ///
    /// Panics on an empty fanout list, fanouts below 2, or zero uplinks.
    pub fn new(fanouts: &[usize], uplinks: u64) -> FatTreeTopology {
        assert!(uplinks > 0, "need at least one uplink");
        FatTreeTopology {
            inner: TreeTopology::new(fanouts),
            uplinks,
        }
    }

    /// Parallel links per subtree per level.
    pub fn uplinks(&self) -> u64 {
        self.uplinks
    }

    fn lane(&self, src: NodeId, dst: NodeId) -> u64 {
        // deterministic flow hash (fnv-ish) so a flow stays on one lane
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for v in [src.0 as u64, dst.0 as u64] {
            h ^= v;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h % self.uplinks
    }
}

impl Topology for FatTreeTopology {
    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }

    fn route(&self, src: NodeId, dst: NodeId) -> Route {
        let base = self.inner.route(src, dst);
        if base.is_local() {
            return base;
        }
        let lane = self.lane(src, dst);
        let hops = base
            .iter()
            .map(|h| Hop {
                // fold the lane into spare LinkId bits (bits 56..59)
                link: LinkId(h.link.0 | lane << 56),
                level: h.level,
            })
            .collect();
        Route::from_hops(hops)
    }

    fn diameter(&self) -> u32 {
        self.inner.diameter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_shape() {
        let t = TreeTopology::new(&[8, 4, 2]);
        assert_eq!(t.num_nodes(), 64);
        assert_eq!(t.levels(), 3);
        assert_eq!(t.fanouts(), &[8, 4, 2]);
    }

    #[test]
    fn tree_hops_count_the_route() {
        for fanouts in [&[4, 2, 3][..], &[8, 4, 2], &[2, 5], &[2]] {
            let t = TreeTopology::new(fanouts);
            for s in 0..t.num_nodes() {
                for d in 0..t.num_nodes() {
                    let (s, d) = (NodeId(s), NodeId(d));
                    assert_eq!(t.hops(s, d), t.route(s, d).hop_count(), "{s} -> {d}");
                }
            }
        }
    }

    #[test]
    fn tree_subtree_accessors() {
        let t = TreeTopology::new(&[4, 2, 3]);
        assert_eq!(t.subtree_leaves(0), 1);
        assert_eq!(t.subtree_leaves(1), 4);
        assert_eq!(t.subtree_leaves(2), 8);
        assert_eq!(t.subtree_leaves(3), 24);
        assert_eq!(t.subtree_index(NodeId(0), 1), 0);
        assert_eq!(t.subtree_index(NodeId(5), 1), 1);
        assert_eq!(t.subtree_index(NodeId(7), 2), 0);
        assert_eq!(t.subtree_index(NodeId(8), 2), 1);
        // consistency with common_level: same level-k index iff common
        // level <= k
        for s in 0..t.num_nodes() {
            for d in 0..t.num_nodes() {
                let (s, d) = (NodeId(s), NodeId(d));
                for k in 0..=t.levels() {
                    assert_eq!(
                        t.subtree_index(s, k) == t.subtree_index(d, k),
                        t.common_level(s, d) <= k
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "beyond tree depth")]
    fn tree_subtree_leaves_bounds_checked() {
        TreeTopology::new(&[4]).subtree_leaves(2);
    }

    #[test]
    fn tree_common_level() {
        let t = TreeTopology::new(&[4, 4]);
        assert_eq!(t.common_level(NodeId(0), NodeId(0)), 0);
        assert_eq!(t.common_level(NodeId(0), NodeId(3)), 1);
        assert_eq!(t.common_level(NodeId(0), NodeId(4)), 2);
        assert_eq!(t.common_level(NodeId(3), NodeId(15)), 2);
    }

    #[test]
    fn tree_routes_and_hops() {
        let t = TreeTopology::new(&[4, 4]);
        assert!(t.route(NodeId(5), NodeId(5)).is_local());
        let near = t.route(NodeId(0), NodeId(1));
        assert_eq!(near.hop_count(), 2);
        assert_eq!(near.max_level(), Some(0));
        let far = t.route(NodeId(0), NodeId(15));
        assert_eq!(far.hop_count(), 4);
        assert_eq!(far.max_level(), Some(1));
        assert_eq!(t.diameter(), 4);
    }

    #[test]
    fn tree_route_is_symmetric_in_length() {
        let t = TreeTopology::new(&[2, 3, 4]);
        for s in 0..t.num_nodes() {
            for d in 0..t.num_nodes() {
                let a = t.route(NodeId(s), NodeId(d));
                let b = t.route(NodeId(d), NodeId(s));
                assert_eq!(a.hop_count(), b.hop_count());
            }
        }
    }

    #[test]
    fn tree_diameter_matches_exhaustive() {
        let t = TreeTopology::new(&[3, 2, 2]);
        let mut max = 0;
        for s in 0..t.num_nodes() {
            for d in 0..t.num_nodes() {
                max = max.max(t.route(NodeId(s), NodeId(d)).hop_count());
            }
        }
        assert_eq!(max, t.diameter());
    }

    #[test]
    fn tree_exascale_hop_claim() {
        // Paper: petascale ~5 hops max distance; exascale pushes to 6-7.
        // A 3-level tree has diameter 6; 7 levels would be 14 switch hops,
        // but the paper counts tree *levels* as hops: our level count
        // matches their 6-7 figure for deep machines.
        let exa = TreeTopology::new(&[8, 8, 8, 8, 8, 8, 8]);
        assert_eq!(exa.levels(), 7);
        assert_eq!(exa.num_nodes(), 8usize.pow(7));
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn tree_rejects_unary_fanout() {
        TreeTopology::new(&[1, 4]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn tree_bounds_checked() {
        let t = TreeTopology::new(&[2]);
        t.route(NodeId(0), NodeId(5));
    }

    #[test]
    fn tree_link_sharing_reflects_subtrees() {
        let t = TreeTopology::new(&[2, 2]);
        let r1 = t.route(NodeId(0), NodeId(3));
        let r2 = t.route(NodeId(1), NodeId(2));
        assert_eq!(r1.hop_count(), r2.hop_count());
        // Both cross the same level-1 trunk links (left subtree -> right
        // subtree), but enter/leave through different leaf links.
        let trunk1: Vec<_> = r1.iter().filter(|h| h.level >= 1).map(|h| h.link).collect();
        let trunk2: Vec<_> = r2.iter().filter(|h| h.level >= 1).map(|h| h.link).collect();
        assert_eq!(trunk1, trunk2, "same subtree pair shares trunk links");
        let leaf1: Vec<_> = r1.iter().filter(|h| h.level == 0).map(|h| h.link).collect();
        let leaf2: Vec<_> = r2.iter().filter(|h| h.level == 0).map(|h| h.link).collect();
        assert!(leaf1.iter().all(|l| !leaf2.contains(l)));
        // Routes sharing a source share that source's leaf up-link.
        let r3 = t.route(NodeId(0), NodeId(1));
        let up0 = r1.iter().next().unwrap().link;
        assert_eq!(r3.iter().next().unwrap().link, up0);
    }

    #[test]
    fn crossbar_routes() {
        let x = CrossbarTopology::new(8);
        assert!(x.route(NodeId(3), NodeId(3)).is_local());
        let r = x.route(NodeId(3), NodeId(4));
        assert_eq!(r.hop_count(), 2);
        assert_eq!(r.max_level(), Some(0));
        assert_eq!(CrossbarTopology::new(1).diameter(), 0);
    }

    #[test]
    fn mesh_routing_lengths() {
        let m = Mesh2d::new(4, 3);
        assert_eq!(m.num_nodes(), 12);
        // Manhattan distance
        let r = m.route(NodeId(0), NodeId(11)); // (0,0) -> (3,2)
        assert_eq!(r.hop_count(), 5);
        assert_eq!(m.diameter(), 5);
        assert!(m.route(NodeId(6), NodeId(6)).is_local());
    }

    #[test]
    fn mesh_xy_routing_is_deterministic() {
        let m = Mesh2d::new(5, 5);
        let a = m.route(NodeId(2), NodeId(22));
        let b = m.route(NodeId(2), NodeId(22));
        let la: Vec<_> = a.iter().map(|h| h.link).collect();
        let lb: Vec<_> = b.iter().map(|h| h.link).collect();
        assert_eq!(la, lb);
    }

    #[test]
    fn dragonfly_hop_bounds() {
        let d = Dragonfly::new(6, 4, 2);
        let n = d.num_nodes();
        assert_eq!(n, 48);
        let mut max = 0;
        for s in 0..n {
            for t in 0..n {
                let h = d.route(NodeId(s), NodeId(t)).hop_count();
                if s != t {
                    assert!(h >= 2, "non-local route below 2 hops");
                }
                max = max.max(h);
            }
        }
        assert!(max <= 5);
        assert!(max <= d.diameter());
    }

    #[test]
    fn dragonfly_same_router_is_two_hops() {
        let d = Dragonfly::new(2, 2, 4);
        // nodes 0 and 1 share router 0
        assert_eq!(d.route(NodeId(0), NodeId(1)).hop_count(), 2);
    }

    #[test]
    fn dragonfly_cross_group_uses_level2() {
        let d = Dragonfly::new(3, 2, 2);
        let r = d.route(NodeId(0), NodeId(d.num_nodes() - 1));
        assert_eq!(r.max_level(), Some(2));
    }

    #[test]
    fn fat_tree_same_lengths_as_tree() {
        let plain = TreeTopology::new(&[4, 4]);
        let fat = FatTreeTopology::new(&[4, 4], 4);
        for s in 0..16 {
            for d in 0..16 {
                assert_eq!(
                    plain.route(NodeId(s), NodeId(d)).hop_count(),
                    fat.route(NodeId(s), NodeId(d)).hop_count()
                );
            }
        }
        assert_eq!(fat.diameter(), plain.diameter());
        assert_eq!(fat.uplinks(), 4);
    }

    #[test]
    fn fat_tree_spreads_flows_over_lanes() {
        let fat = FatTreeTopology::new(&[4, 4], 4);
        // collect the level-1 up-link ids of many cross-subtree flows
        let mut lanes = std::collections::HashSet::new();
        for s in 0..4 {
            for d in 12..16 {
                let r = fat.route(NodeId(s), NodeId(d));
                for h in r.iter().filter(|h| h.level == 1) {
                    lanes.insert(h.link);
                }
            }
        }
        assert!(lanes.len() > 1, "flows must not all share one trunk lane");
    }

    #[test]
    fn fat_tree_flow_is_lane_stable() {
        let fat = FatTreeTopology::new(&[4, 4], 8);
        let a = fat.route(NodeId(1), NodeId(14));
        let b = fat.route(NodeId(1), NodeId(14));
        let la: Vec<_> = a.iter().map(|h| h.link).collect();
        let lb: Vec<_> = b.iter().map(|h| h.link).collect();
        assert_eq!(la, lb);
    }

    #[test]
    #[should_panic(expected = "at least one uplink")]
    fn fat_tree_rejects_zero_uplinks() {
        FatTreeTopology::new(&[4], 0);
    }

    #[test]
    fn route_accessors() {
        let r = Route::local();
        assert!(r.is_local());
        assert_eq!(r.hop_count(), 0);
        assert_eq!(r.max_level(), None);
    }
}
