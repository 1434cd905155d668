//! Property-style tests on the core data structures and invariants,
//! spanning crates.
//!
//! Each test draws many random cases from a seeded [`SimRng`] (the
//! workspace carries no external dependencies, so these are hand-rolled
//! case loops rather than proptest strategies). Failures print the case
//! seed so a run can be reproduced exactly.

mod common;

use std::collections::BTreeMap;

use ecoscale::fpga::bitstream::lz_compress;
use ecoscale::fpga::{
    Bitstream, CompressionAlgo, Fabric, Floorplanner, ModuleId, Region, Resources,
};
use ecoscale::mem::{PagePerms, PageTable, Smmu, SmmuConfig, VirtAddr};
use ecoscale::noc::{Dragonfly, Mesh2d, NodeId, Topology, TreeTopology};
use ecoscale::sim::{Duration, OnlineStats, SimRng, Time};

const CASES: u64 = 64;
/// Cases for tests whose reference oracle takes about 0.3 s per case in a
/// debug build.
const LARGE_CASES: u64 = 8;

/// One seeded generator per case, salted so tests are independent.
fn case_rng(test_salt: u64, case: u64) -> SimRng {
    SimRng::seed_from(0xEC05_CA1E ^ (test_salt << 32) ^ case)
}

// ----------------------------------------------------------------------
// sim: time arithmetic
// ----------------------------------------------------------------------
#[test]
fn time_plus_duration_roundtrips() {
    for case in 0..CASES {
        let mut rng = case_rng(1, case);
        let base = rng.gen_range_u64(0, 1 << 40);
        let delta = rng.gen_range_u64(0, 1 << 40);
        let t = Time::from_ps(base);
        let d = Duration::from_ps(delta);
        assert_eq!((t + d) - d, t, "case {case}");
        assert_eq!((t + d) - t, d, "case {case}");
        assert_eq!((t + d).since(t), d, "case {case}");
    }
}

#[test]
fn online_stats_merge_matches_sequential() {
    for case in 0..CASES {
        let mut rng = case_rng(2, case);
        let len = rng.gen_range_usize(1, 200);
        let xs: Vec<f64> = (0..len).map(|_| rng.gen_range_f64(-1e6, 1e6)).collect();
        let split = rng.gen_range_usize(0, 200).min(xs.len());
        let mut whole = OnlineStats::new();
        for &x in &xs {
            whole.record(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &xs[..split] {
            a.record(x);
        }
        for &x in &xs[split..] {
            b.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count(), "case {case}");
        assert!((a.mean() - whole.mean()).abs() < 1e-6, "case {case}");
        assert!(
            (a.variance() - whole.variance()).abs() < 1e-3,
            "case {case}"
        );
        assert_eq!(a.min(), whole.min(), "case {case}");
        assert_eq!(a.max(), whole.max(), "case {case}");
    }
}

// ----------------------------------------------------------------------
// noc: routing invariants over arbitrary topologies
// ----------------------------------------------------------------------
#[test]
fn tree_routes_within_diameter() {
    for case in 0..CASES {
        let mut rng = case_rng(3, case);
        let levels = rng.gen_range_usize(1, 4);
        let fanouts: Vec<usize> = (0..levels).map(|_| rng.gen_range_usize(2, 5)).collect();
        let t = TreeTopology::new(&fanouts);
        let n = t.num_nodes();
        let s = rng.gen_range_usize(0, 1000) % n;
        let d = rng.gen_range_usize(0, 1000) % n;
        let r = t.route(NodeId(s), NodeId(d));
        assert!(r.hop_count() <= t.diameter(), "case {case}");
        assert_eq!(r.is_local(), s == d, "case {case}");
        // symmetric lengths
        let back = t.route(NodeId(d), NodeId(s));
        assert_eq!(r.hop_count(), back.hop_count(), "case {case}");
    }
}

#[test]
fn mesh_routes_are_manhattan() {
    for case in 0..CASES {
        let mut rng = case_rng(4, case);
        let w = rng.gen_range_usize(2, 8);
        let h = rng.gen_range_usize(2, 8);
        let m = Mesh2d::new(w, h);
        let n = m.num_nodes();
        let s = rng.gen_range_usize(0, 64) % n;
        let d = rng.gen_range_usize(0, 64) % n;
        let hops = m.route(NodeId(s), NodeId(d)).hop_count() as usize;
        let (sx, sy) = (s % w, s / w);
        let (dx, dy) = (d % w, d / w);
        assert_eq!(hops, sx.abs_diff(dx) + sy.abs_diff(dy), "case {case}");
    }
}

#[test]
fn dragonfly_minimal_routes() {
    for case in 0..CASES {
        let mut rng = case_rng(5, case);
        let g = rng.gen_range_usize(2, 5);
        let r = rng.gen_range_usize(2, 4);
        let e = rng.gen_range_usize(1, 4);
        let df = Dragonfly::new(g, r, e);
        let n = df.num_nodes();
        let s = rng.gen_range_usize(0, 100) % n;
        let d = rng.gen_range_usize(0, 100) % n;
        let route = df.route(NodeId(s), NodeId(d));
        assert!(route.hop_count() <= 5, "case {case}");
        assert_eq!(route.is_local(), s == d, "case {case}");
    }
}

// ----------------------------------------------------------------------
// mem: page table and SMMU
// ----------------------------------------------------------------------
#[test]
fn page_table_translate_is_what_was_mapped() {
    for case in 0..CASES {
        let mut rng = case_rng(6, case);
        let entries = rng.gen_range_usize(1, 50);
        let mut pages: BTreeMap<u64, u64> = BTreeMap::new();
        while pages.len() < entries {
            pages.insert(rng.gen_range_u64(0, 1 << 20), rng.gen_range_u64(0, 1 << 20));
        }
        let mut pt = PageTable::new(4);
        for (&vp, &pp) in &pages {
            pt.map(vp, pp, PagePerms::RW).expect("fresh mapping");
        }
        for (&vp, &pp) in &pages {
            assert_eq!(pt.translate(vp, PagePerms::READ), Ok(pp), "case {case}");
        }
        assert_eq!(pt.mapped_pages(), pages.len(), "case {case}");
    }
}

#[test]
fn smmu_translation_is_stable_under_tlb_pressure() {
    for case in 0..CASES {
        let mut rng = case_rng(7, case);
        let len = rng.gen_range_usize(1, 100);
        let pages: Vec<u64> = (0..len).map(|_| rng.gen_range_u64(0, 512)).collect();
        let cfg = SmmuConfig {
            tlb_entries: 8,
            ..SmmuConfig::default()
        };
        let mut smmu = Smmu::new(cfg);
        let mut expected = std::collections::HashMap::new();
        for (i, &p) in pages.iter().enumerate() {
            if let std::collections::hash_map::Entry::Vacant(slot) = expected.entry(p) {
                let pa = 0x1000 + i as u64;
                smmu.map(
                    VirtAddr::from_page(p, 0),
                    0x100 + i as u64,
                    pa,
                    PagePerms::RW,
                )
                .expect("fresh mapping");
                slot.insert(pa);
            }
        }
        // translate everything twice (evictions in between must not
        // change results)
        for _ in 0..2 {
            for &p in &pages {
                let (pa, _) = smmu
                    .translate(VirtAddr::from_page(p, 7), PagePerms::READ)
                    .expect("mapped");
                assert_eq!(pa.page(), expected[&p], "case {case}");
                assert_eq!(pa.page_offset(), 7, "case {case}");
            }
        }
    }
}

// ----------------------------------------------------------------------
// fpga: compression round-trips on arbitrary data
// ----------------------------------------------------------------------
#[test]
fn compression_roundtrips_arbitrary_bytes() {
    for case in 0..CASES {
        let mut rng = case_rng(8, case);
        let mut data = vec![0u8; rng.gen_range_usize(0, 4096)];
        rng.fill_bytes(&mut data);
        let bs = Bitstream::from_bytes(data);
        for algo in CompressionAlgo::ALL {
            let packed = algo.compress(&bs);
            let back = algo.decompress(&packed);
            assert_eq!(
                back.as_bytes(),
                bs.as_bytes(),
                "case {case}: {} failed",
                algo.name()
            );
        }
    }
}

#[test]
fn compression_roundtrips_run_structured_bytes() {
    for case in 0..CASES {
        let mut rng = case_rng(9, case);
        let runs = rng.gen_range_usize(1, 64);
        let mut data = Vec::new();
        for _ in 0..runs {
            let byte = rng.gen_range_u64(0, 256) as u8;
            let len = rng.gen_range_usize(1, 64);
            data.extend(std::iter::repeat_n(byte, len));
        }
        let bs = Bitstream::from_bytes(data);
        for algo in CompressionAlgo::ALL {
            let back = algo.decompress(&algo.compress(&bs));
            assert_eq!(back.as_bytes(), bs.as_bytes(), "case {case}");
        }
    }
}

// ----------------------------------------------------------------------
// fpga: hash-chain LZ matcher vs the reference matcher
// ----------------------------------------------------------------------

/// The reference LZSS matcher: every 4-byte prefix goes into a map of
/// position lists, and every candidate in the 2 KiB window is measured
/// byte by byte, most recent first. The library's hash-chain matcher must
/// emit exactly the same token stream.
fn lz_reference(data: &[u8]) -> Vec<u8> {
    use std::collections::HashMap;
    let mut out = Vec::new();
    let mut literals: Vec<u8> = Vec::new();
    // positions of 4-byte prefixes
    let mut index: HashMap<[u8; 4], Vec<usize>> = HashMap::new();

    let flush_literals = |out: &mut Vec<u8>, lits: &mut Vec<u8>| {
        let mut start = 0;
        while start < lits.len() {
            let chunk = (lits.len() - start).min(u16::MAX as usize);
            out.push(0x00);
            out.extend_from_slice(&(chunk as u16).to_le_bytes());
            out.extend_from_slice(&lits[start..start + chunk]);
            start += chunk;
        }
        lits.clear();
    };

    let mut i = 0;
    while i < data.len() {
        let mut best_len = 0;
        let mut best_off = 0;
        if i + 4 <= data.len() {
            let key = [data[i], data[i + 1], data[i + 2], data[i + 3]];
            if let Some(positions) = index.get(&key) {
                for &p in positions.iter().rev() {
                    if i - p > 2048 {
                        break;
                    }
                    let mut l = 0;
                    let max = (data.len() - i).min(u16::MAX as usize);
                    while l < max && data[p + l] == data[i + l] {
                        l += 1;
                    }
                    if l > best_len {
                        best_len = l;
                        best_off = i - p;
                        if l >= 64 {
                            break; // good enough
                        }
                    }
                }
            }
        }
        if best_len >= 4 {
            flush_literals(&mut out, &mut literals);
            out.push(0x01);
            out.extend_from_slice(&(best_off as u16).to_le_bytes());
            out.extend_from_slice(&(best_len as u16).to_le_bytes());
            // index the skipped positions
            for k in i..(i + best_len).min(data.len().saturating_sub(4 - 1)) {
                if k + 4 <= data.len() {
                    let key = [data[k], data[k + 1], data[k + 2], data[k + 3]];
                    index.entry(key).or_default().push(k);
                }
            }
            i += best_len;
        } else {
            if i + 4 <= data.len() {
                let key = [data[i], data[i + 1], data[i + 2], data[i + 3]];
                index.entry(key).or_default().push(i);
            }
            literals.push(data[i]);
            i += 1;
        }
    }
    flush_literals(&mut out, &mut literals);
    out
}

/// Asserts both matchers encode `data` identically; returns the encoding.
fn assert_lz_matches_reference(what: &str, data: &[u8]) -> Vec<u8> {
    let got = lz_compress(data);
    let want = lz_reference(data);
    assert!(
        got == want,
        "{what}: {} bytes in, {} vs {} reference bytes out, first difference at {:?}",
        data.len(),
        got.len(),
        want.len(),
        got.iter().zip(&want).position(|(a, b)| a != b)
    );
    got
}

/// An LZ token stream as `(tag, a, b)`: `(0, len, 0)` for a literal run,
/// `(1, offset, len)` for a back-reference.
fn lz_tokens(packed: &[u8]) -> Vec<(u8, usize, usize)> {
    let u16_at = |i: usize| u16::from_le_bytes([packed[i], packed[i + 1]]) as usize;
    let mut out = Vec::new();
    let mut i = 0;
    while i < packed.len() {
        if packed[i] == 0 {
            out.push((0, u16_at(i + 1), 0));
            i += 3 + u16_at(i + 1);
        } else {
            out.push((1, u16_at(i + 1), u16_at(i + 3)));
            i += 5;
        }
    }
    out
}

#[test]
fn lz_matcher_matches_reference_on_synthesized_bitstreams() {
    for case in 0..CASES {
        let mut rng = case_rng(23, case);
        let res = Resources::new(
            rng.gen_range_u64(1, 480) as u32,
            rng.gen_range_u64(0, 24) as u32,
            rng.gen_range_u64(0, 48) as u32,
        );
        let bs = Bitstream::synthesize(res, rng.next_u64());
        let want = assert_lz_matches_reference(&format!("case {case}: {res:?}"), bs.as_bytes());
        assert_eq!(
            bs.compressed_size(CompressionAlgo::Lz),
            want.len(),
            "case {case}: cached size"
        );
    }
}

#[test]
fn lz_matcher_matches_reference_on_serving_size_bitstreams() {
    // 840-3000 CLB (40-144 kB), the size of the serving and fuzz modules:
    // every 2 KiB window holds hundreds of short zero runs
    for case in 0..LARGE_CASES {
        let mut rng = case_rng(26, case);
        let res = Resources::new(rng.gen_range_u64(840, 3000) as u32, 0, 0);
        let bs = Bitstream::synthesize(res, rng.next_u64());
        assert!(bs.len() >= 40_000);
        assert_lz_matches_reference(&format!("case {case}: {res:?}"), bs.as_bytes());
    }
}

#[test]
fn lz_matcher_matches_reference_on_small_alphabet_bytes() {
    for case in 0..CASES * 4 {
        let mut rng = case_rng(24, case);
        let alphabet: Vec<u8> = (0..rng.gen_range_usize(1, 5))
            .map(|_| rng.gen_range_u64(0, 256) as u8)
            .collect();
        let len = rng.gen_range_usize(0, 4096);
        let mut data = Vec::with_capacity(len);
        while data.len() < len {
            // symbol runs, plus copies of earlier stretches at offsets up
            // to and past the window
            if !data.is_empty() && rng.gen_bool(0.2) {
                let off = rng.gen_range_usize(1, data.len().min(2100) + 1);
                let start = data.len() - off;
                for k in 0..rng.gen_range_usize(1, 96) {
                    data.push(data[start + k]);
                }
            } else {
                let sym = *rng.choose(&alphabet);
                data.extend(std::iter::repeat_n(sym, rng.gen_range_usize(1, 12)));
            }
        }
        data.truncate(len);
        assert_lz_matches_reference(&format!("case {case}: alphabet {alphabet:?}"), &data);
    }
}

#[test]
fn lz_matcher_matches_reference_on_edge_cases() {
    // every input shorter than a 4-byte prefix, over three symbols
    for len in 0..4u32 {
        for code in 0..3usize.pow(len) {
            let data: Vec<u8> = (0..len)
                .map(|k| [0x00, 0x01, 0xFF][code / 3usize.pow(k) % 3])
                .collect();
            assert_lz_matches_reference(&format!("short input {data:?}"), &data);
        }
    }

    // long zero runs: back-references capped at u16::MAX
    let zeros = vec![0u8; 3 * 65_535 + 17];
    assert_lz_matches_reference("zero run", &zeros);
    assert!(lz_tokens(&lz_compress(&zeros)).contains(&(1, 1, 65_535)));
    let mut spiked = vec![0u8; 150_000];
    spiked[70_000] = 0x5A;
    assert_lz_matches_reference("zero run with one spike", &spiked);

    // a repeating pattern past u16::MAX
    let pattern: Vec<u8> = (0..200_000).map(|i| [7u8, 3, 9][i % 3]).collect();
    assert_lz_matches_reference("3-byte pattern run", &pattern);
    assert!(lz_tokens(&lz_compress(&pattern)).contains(&(1, 3, 65_535)));

    // a literal run longer than u16::MAX is split at u16::MAX
    let mut rng = case_rng(25, 0);
    let mut noise = vec![0u8; 70_000];
    rng.fill_bytes(&mut noise);
    assert_lz_matches_reference("incompressible bytes", &noise);
    assert_eq!(lz_tokens(&lz_compress(&noise))[0], (0, 65_535, 0));

    // a repeated block exactly at the window edge is matched; one byte
    // further back it is out of reach
    for (gap, reachable) in [(2048, true), (2049, false)] {
        let mut block = vec![0u8; 40];
        rng.fill_bytes(&mut block);
        block.iter_mut().for_each(|b| *b |= 0x80);
        let mut filler = vec![0u8; gap - block.len()];
        rng.fill_bytes(&mut filler);
        filler.iter_mut().for_each(|b| *b &= 0x7F);
        let data = [block.clone(), filler, block].concat();
        assert_lz_matches_reference(&format!("block {gap} bytes back"), &data);
        let tokens = lz_tokens(&lz_compress(&data));
        assert_eq!(
            tokens.contains(&(1, gap, 40)),
            reachable,
            "block {gap} bytes back: {tokens:?}"
        );
    }
}

/// Zero runs at the lengths where the zero-prefix search changes case
/// (the 4-byte prefix, the 64-byte early stop, the 2 KiB window), each
/// followed by a short non-zero tail, `len` bytes in all. Often a run
/// repeats an earlier run's length and the first `0..=k` bytes of its
/// tail, so two runs of equal length match on past their zeros. About
/// half the inputs end in a zero run.
fn zero_run_bytes(rng: &mut SimRng, len: usize) -> Vec<u8> {
    const LENS: [usize; 14] = [1, 2, 3, 4, 5, 15, 16, 17, 63, 64, 65, 2047, 2048, 2049];
    let nonzero = |rng: &mut SimRng| rng.gen_range_u64(1, 256) as u8;
    let mut segments: Vec<(usize, Vec<u8>)> = Vec::new();
    let mut data = Vec::with_capacity(len);
    while data.len() < len {
        let (zeros, tail) = if !segments.is_empty() && rng.gen_bool(0.4) {
            let (zeros, earlier) = rng.choose(&segments).clone();
            let agree = rng.gen_range_usize(0, earlier.len() + 1);
            let mut tail = earlier[..agree].to_vec();
            // then a byte that differs from the earlier tail's next one
            let mut next = nonzero(rng);
            while earlier.get(agree) == Some(&next) {
                next = nonzero(rng);
            }
            tail.push(next);
            (zeros, tail)
        } else {
            // window-sized runs rarely, so an input holds many runs
            let lens = if rng.gen_bool(0.1) {
                &LENS[..]
            } else {
                &LENS[..11]
            };
            let tail = (0..rng.gen_range_usize(1, 24))
                .map(|_| nonzero(rng))
                .collect();
            (*rng.choose(lens), tail)
        };
        data.extend(std::iter::repeat_n(0u8, zeros));
        data.extend_from_slice(&tail);
        segments.push((zeros, tail));
    }
    data.truncate(len);
    if rng.gen_bool(0.5) {
        data.extend(std::iter::repeat_n(0u8, *rng.choose(&LENS)));
    }
    data
}

#[test]
fn lz_matcher_matches_reference_on_zero_runs() {
    for case in 0..CASES * 2 {
        let mut rng = case_rng(27, case);
        let len = rng.gen_range_usize(1, 6000);
        let data = zero_run_bytes(&mut rng, len);
        assert_lz_matches_reference(&format!("case {case}: {len} bytes"), &data);
    }

    // two equal zero runs with equal tails, the earlier one starting
    // around the window edge as seen from the later one
    let tail = [9u8, 1, 7, 7, 3];
    for gap in 2040..=2056 {
        let filler: Vec<u8> = (0..gap - 21).map(|k| (k % 250) as u8 + 1).collect();
        let run = [vec![0u8; 16], tail.to_vec()].concat();
        let data = [run.clone(), filler, run].concat();
        let tokens = lz_tokens(&assert_lz_matches_reference(
            &format!("zero run {gap} bytes back"),
            &data,
        ));
        // the whole run and tail repeat only while the earlier start is in reach
        assert_eq!(
            tokens.contains(&(1, gap, 21)),
            gap <= 2048,
            "{gap}: {tokens:?}"
        );
    }

    // zero runs past u16::MAX, behind and ahead of short runs in the window
    let mut rng = case_rng(27, CASES * 2);
    let mut data = zero_run_bytes(&mut rng, 3000);
    data.extend(std::iter::repeat_n(0u8, 65_535 + 40));
    data.extend_from_slice(&tail);
    data.extend(zero_run_bytes(&mut rng, 3000));
    data.extend(std::iter::repeat_n(0u8, 65_535 + 3));
    assert_lz_matches_reference("zero runs past u16::MAX", &data);
}

// ----------------------------------------------------------------------
// fpga: floorplanner never overlaps, defrag preserves demands
// ----------------------------------------------------------------------
#[test]
fn floorplan_no_overlaps_under_churn() {
    for case in 0..CASES {
        let mut rng = case_rng(10, case);
        let steps = rng.gen_range_usize(1, 60);
        let fabric = Fabric::zynq_like(50, 60);
        let mut fp = Floorplanner::new(fabric);
        let mut live = Vec::new();
        for i in 0..steps {
            let load = rng.gen_bool(0.5);
            let clb = rng.gen_range_u64(50, 900) as u32;
            if load || live.is_empty() {
                if let Ok(slot) =
                    fp.place(ModuleId(i as u32), Resources::new(clb, clb / 40, clb / 30))
                {
                    live.push(slot);
                }
            } else {
                let slot = live.remove(i % live.len());
                assert!(fp.remove(slot), "case {case}");
            }
            // invariant: no two placements overlap
            let ps: Vec<_> = fp.placements().copied().collect();
            for (a, p) in ps.iter().enumerate() {
                for q in &ps[a + 1..] {
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
                    assert!(!r1.overlaps(&r2), "case {case}");
                }
            }
        }
        // defragment and re-check: compaction leaves zero external
        // fragmentation and keeps everything placed
        let before = fp.live();
        fp.defragment();
        assert_eq!(fp.live(), before, "case {case}");
        assert!(fp.fragmentation() < 1e-9, "case {case}");
    }
}

// ----------------------------------------------------------------------
// hls: interpreter equals Rust reference on random inputs
// ----------------------------------------------------------------------
#[test]
fn gemm_kernel_equals_reference() {
    for case in 0..CASES {
        let mut rng = case_rng(11, case);
        let n = rng.gen_range_usize(2, 8);
        let seed = rng.gen_range_u64(0, 1000);
        let a = ecoscale::apps::gemm::generate(n, seed);
        let b = ecoscale::apps::gemm::generate(n, seed + 1);
        let k = ecoscale::hls::parse_kernel(ecoscale::apps::gemm::KERNEL).expect("parses");
        let mut args = ecoscale::apps::gemm::bind_args(&a, &b, n);
        args.run(&k).expect("executes");
        let want = ecoscale::apps::gemm::reference(&a, &b, n);
        for (g, r) in args.array("c").expect("bound").iter().zip(&want) {
            assert!((g - r).abs() < 1e-9, "case {case}");
        }
    }
}

#[test]
fn stencil_kernel_equals_reference() {
    for case in 0..CASES {
        let mut rng = case_rng(12, case);
        let n = rng.gen_range_usize(2, 10);
        let seed = rng.gen_range_u64(0, 1000);
        let grid = ecoscale::apps::stencil::generate(n, seed);
        let k = ecoscale::hls::parse_kernel(ecoscale::apps::stencil::KERNEL).expect("parses");
        let mut args = ecoscale::apps::stencil::bind_args(&grid, n);
        args.run(&k).expect("executes");
        let want = ecoscale::apps::stencil::reference_step(&grid, n);
        for (g, r) in args.array("next").expect("bound").iter().zip(&want) {
            assert!((g - r).abs() < 1e-12, "case {case}");
        }
    }
}

// ----------------------------------------------------------------------
// apps: distributed sort is a sorted permutation
// ----------------------------------------------------------------------
#[test]
fn distributed_sort_is_sorted_permutation() {
    // fewer cases: each sorts up to 2000 keys
    for case in 0..CASES / 2 {
        let mut rng = case_rng(13, case);
        let n = rng.gen_range_usize(16, 2000);
        let seed = rng.gen_range_u64(0, 100);
        let data = ecoscale::apps::sort::generate(n, seed);
        let out = ecoscale::apps::sort::distributed_sort(
            &data,
            2,
            2,
            ecoscale::apps::sort::SortMode::Hybrid,
            seed,
        );
        assert_eq!(out.sorted.len(), n, "case {case}");
        assert!(out.sorted.windows(2).all(|w| w[0] <= w[1]), "case {case}");
        let mut expect = data.clone();
        expect.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        assert_eq!(out.sorted, expect, "case {case}");
    }
}

// ----------------------------------------------------------------------
// runtime: prediction models
// ----------------------------------------------------------------------
#[test]
fn linear_model_recovers_exact_lines() {
    use ecoscale::runtime::{LinearModel, Predictor};
    for case in 0..CASES {
        let mut rng = case_rng(14, case);
        let w0 = rng.gen_range_f64(-100.0, 100.0);
        let w1 = rng.gen_range_f64(-100.0, 100.0);
        let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> = (0..20).map(|i| w0 + w1 * i as f64).collect();
        let mut m = LinearModel::new();
        m.fit(&xs, &ys);
        let y = m.predict(&[50.0]).expect("fitted");
        assert!((y - (w0 + w1 * 50.0)).abs() < 1e-5, "case {case}");
    }
}

// ----------------------------------------------------------------------
// hls: printer/parser round trip on random kernels
// ----------------------------------------------------------------------
fn arb_expr(rng: &mut SimRng, depth: u32) -> ecoscale::hls::Expr {
    use ecoscale::hls::{BinOp, Expr, UnOp};
    if depth == 0 || rng.gen_bool(0.35) {
        return match rng.gen_range_usize(0, 4) {
            0 => Expr::Const(
                rng.gen_range_u64(0, 100) as f64 + rng.gen_range_u64(0, 10) as f64 / 10.0,
            ),
            1 => Expr::var("x"),
            2 => Expr::var("i"),
            _ => Expr::load("a", Expr::var("i")),
        };
    }
    match rng.gen_range_usize(0, 3) {
        0 => {
            const OPS: [BinOp; 14] = [
                BinOp::Add,
                BinOp::Sub,
                BinOp::Mul,
                BinOp::Div,
                BinOp::Min,
                BinOp::Max,
                BinOp::Lt,
                BinOp::Le,
                BinOp::Gt,
                BinOp::Ge,
                BinOp::Eq,
                BinOp::And,
                BinOp::Or,
                BinOp::Rem,
            ];
            let op = *rng.choose(&OPS);
            let a = arb_expr(rng, depth - 1);
            let b = arb_expr(rng, depth - 1);
            Expr::bin(op, a, b)
        }
        1 => {
            const OPS: [UnOp; 7] = [
                UnOp::Neg,
                UnOp::Sqrt,
                UnOp::Exp,
                UnOp::Log,
                UnOp::Abs,
                UnOp::Floor,
                UnOp::Not,
            ];
            let op = *rng.choose(&OPS);
            let a = arb_expr(rng, depth - 1);
            Expr::un(op, a)
        }
        _ => {
            let cond = arb_expr(rng, depth - 1);
            let then = arb_expr(rng, depth - 1);
            let els = arb_expr(rng, depth - 1);
            Expr::Select {
                cond: Box::new(cond),
                then: Box::new(then),
                els: Box::new(els),
            }
        }
    }
}

fn arb_stmt(rng: &mut SimRng, depth: u32) -> ecoscale::hls::Stmt {
    use ecoscale::hls::Stmt;
    if depth == 0 || rng.gen_bool(0.5) {
        if rng.gen_bool(0.5) {
            Stmt::Assign {
                var: "t".into(),
                value: arb_expr(rng, 2),
            }
        } else {
            Stmt::Store {
                array: "b".into(),
                index: arb_expr(rng, 2),
                value: arb_expr(rng, 2),
            }
        }
    } else if rng.gen_bool(0.5) {
        let start = arb_expr(rng, 1);
        let end = arb_expr(rng, 1);
        let body = (0..rng.gen_range_usize(1, 3))
            .map(|_| arb_stmt(rng, depth - 1))
            .collect();
        Stmt::For {
            var: "j".into(),
            start,
            end,
            body,
        }
    } else {
        let cond = arb_expr(rng, 1);
        let then = (0..rng.gen_range_usize(1, 3))
            .map(|_| arb_stmt(rng, depth - 1))
            .collect();
        let els = (0..rng.gen_range_usize(0, 2))
            .map(|_| arb_stmt(rng, depth - 1))
            .collect();
        Stmt::If { cond, then, els }
    }
}

// ----------------------------------------------------------------------
// CheckPlane differential oracles: optimized implementations vs small
// obviously-correct reference models driven by the same op stream, with
// seed-reproducible shrinking of failing streams (sim::check::shrink).
// ----------------------------------------------------------------------

/// Runs `replay` (None = agreement); on divergence shrinks the op stream
/// to a 1-minimal failing subsequence and panics with the repro.
fn assert_lockstep<T: Clone + std::fmt::Debug>(
    what: &str,
    case: u64,
    ops: &[T],
    mut replay: impl FnMut(&[T]) -> Option<String>,
) {
    if let Some(msg) = replay(ops) {
        let min = ecoscale::sim::check::shrink(ops, |s| replay(s).is_some());
        let detail = replay(&min).unwrap_or_else(|| msg.clone());
        panic!(
            "{what} diverged from its oracle (case {case}): {detail}\n\
             minimal failing stream ({} of {} ops): {min:?}",
            min.len(),
            ops.len(),
        );
    }
}

#[derive(Debug, Clone, Copy)]
enum QueueOp {
    /// Schedule at `now + dt_ps` (0 lands on the current instant).
    Schedule(u64),
    /// Schedule at `now`, possibly into a same-instant batch mid-delivery.
    ScheduleNow,
    Pop,
    /// Pop only if `peek_time() <= now + dh_ps`.
    PopHorizon(u64),
}

/// The event-queue convention of the scheduler and task-graph
/// simulations: a [`TimingWheel`](ecoscale::sim::TimingWheel) keyed by its
/// own `scheduled_total()` must deliver in `(time, scheduling index)`
/// order, so equal timestamps pop FIFO even when scheduled at the instant
/// being delivered.
#[test]
fn event_queue_matches_sequential_oracle() {
    use ecoscale::sim::TimingWheel;
    for case in 0..CASES {
        let mut rng = case_rng(16, case);
        let len = rng.gen_range_usize(1, 120);
        let ops: Vec<QueueOp> = (0..len)
            .map(|_| match rng.gen_range_usize(0, 5) {
                0 => QueueOp::Schedule(rng.gen_range_u64(0, 1_000)),
                1 => QueueOp::ScheduleNow,
                2 => QueueOp::PopHorizon(rng.gen_range_u64(0, 500)),
                _ => QueueOp::Pop,
            })
            .collect();
        // Oracle: a flat vector popped by the total order (time, global
        // scheduling index).
        assert_lockstep("TimingWheel", case, &ops, |ops| {
            let mut q: TimingWheel<u64> = TimingWheel::new();
            let mut model: Vec<(Time, u64)> = Vec::new();
            let mut next_id = 0u64;
            let model_pop = |model: &mut Vec<(Time, u64)>| -> Option<(Time, u64)> {
                let best = model
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, &(t, id))| (t, id))
                    .map(|(i, _)| i)?;
                Some(model.remove(best))
            };
            for (step, op) in ops.iter().enumerate() {
                match *op {
                    QueueOp::Schedule(dt) => {
                        let at = q.now() + Duration::from_ps(dt);
                        q.schedule(at, q.scheduled_total(), next_id);
                        model.push((at, next_id));
                        next_id += 1;
                    }
                    QueueOp::ScheduleNow => {
                        q.schedule(q.now(), q.scheduled_total(), next_id);
                        model.push((q.now(), next_id));
                        next_id += 1;
                    }
                    QueueOp::Pop => {
                        let got = q.pop().map(|(t, _, id)| (t, id));
                        let want = model_pop(&mut model);
                        if got != want {
                            return Some(format!("step {step} pop: {got:?} != {want:?}"));
                        }
                    }
                    QueueOp::PopHorizon(dh) => {
                        let horizon = q.now() + Duration::from_ps(dh);
                        let got = match q.peek_time() {
                            Some(t) if t <= horizon => q.pop().map(|(t, _, id)| (t, id)),
                            _ => None,
                        };
                        let due = model
                            .iter()
                            .map(|&(t, _)| t)
                            .min()
                            .is_some_and(|t| t <= horizon);
                        let want = if due { model_pop(&mut model) } else { None };
                        if got != want {
                            return Some(format!(
                                "step {step} pop at or before {horizon}: {got:?} != {want:?}"
                            ));
                        }
                    }
                }
                if q.len() != model.len() {
                    return Some(format!(
                        "step {step}: len {} != oracle {}",
                        q.len(),
                        model.len()
                    ));
                }
                let want_peek = model.iter().map(|&(t, _)| t).min();
                if q.peek_time() != want_peek {
                    return Some(format!(
                        "step {step}: peek_time {:?} != oracle {want_peek:?}",
                        q.peek_time()
                    ));
                }
            }
            None
        });
    }
}

/// One op on one cell's series; names are indices into fixed name lists.
#[derive(Debug, Clone)]
enum SeriesOp {
    /// `(counter, n)`; `n` may be 0, which still registers the name.
    Incr(usize, u64),
    /// `(gauge, level)`.
    Gauge(usize, u64),
    /// `(histogram, value)`.
    Record(usize, u64),
    /// `(histogram, values)` handed over as one pre-built histogram.
    MergeHist(usize, Vec<u64>),
    /// Move the cell's clock forward by `dt_ps` and roll its series.
    Advance(u64),
}

/// One window as plain maps: counters, gauge levels, and per histogram
/// `(count, max, p50, p99)`.
type FlatWindow = (
    BTreeMap<String, u64>,
    BTreeMap<String, u64>,
    BTreeMap<String, (u64, u64, u64, u64)>,
);

fn hist_summary(h: &ecoscale::sim::Histogram) -> (u64, u64, u64, u64) {
    (h.count(), h.max(), h.percentile(50.0), h.percentile(99.0))
}

fn flatten_window(w: &ecoscale::sim::MetricsRegistry) -> FlatWindow {
    use ecoscale::sim::Instrument;
    let mut flat = FlatWindow::default();
    for (name, inst) in w.iter() {
        let name = name.to_owned();
        match inst {
            Instrument::Counter(c) => {
                flat.0.insert(name, c.get());
            }
            Instrument::Gauge(v) => {
                flat.1.insert(name, *v);
            }
            Instrument::Histogram(h) => {
                flat.2.insert(name, hist_summary(h));
            }
            Instrument::Stats(_) => panic!("a series window holds no stats instrument"),
        }
    }
    flat
}

/// `TimeSeries` — now a ring of `MetricsRegistry` windows — against a
/// flat oracle: every recording op is logged with the cell clock it
/// happened at, and each window's counter sums, gauge levels and
/// histograms are recomputed from that log. Two or three cells with
/// different finish times are merged in cell order; `retain` is smaller
/// than the number of windows, so windows are evicted both while a cell
/// rolls and while the merge re-pushes the union of the rings.
#[test]
fn time_series_matches_flat_op_log_oracle() {
    use ecoscale::sim::{CheckPlane, Histogram, TimeSeries};

    const COUNTERS: [&str; 3] = ["c.a", "c.b", "c.c"];
    const GAUGES: [&str; 2] = ["g.a", "g.b"];
    const HISTS: [&str; 2] = ["h.a", "h.b"];

    for case in 0..CASES {
        let mut rng = case_rng(23, case);
        let cells = rng.gen_range_usize(2, 4);
        let width = rng.gen_range_u64(1, 50);
        let retain = rng.gen_range_usize(1, 5);
        let finish_extra: Vec<u64> = (0..cells)
            .map(|c| c as u64 * width + rng.gen_range_u64(0, 3 * width))
            .collect();
        let len = rng.gen_range_usize(1, 100);
        let ops: Vec<(usize, SeriesOp)> = (0..len)
            .map(|_| {
                let cell = rng.gen_range_usize(0, cells);
                let op = match rng.gen_range_usize(0, 6) {
                    0 => SeriesOp::Incr(rng.gen_range_usize(0, 3), rng.gen_range_u64(0, 5)),
                    1 => SeriesOp::Gauge(rng.gen_range_usize(0, 2), rng.gen_range_u64(0, 9)),
                    2 => SeriesOp::Record(rng.gen_range_usize(0, 2), rng.gen_range_u64(0, 100_000)),
                    3 => SeriesOp::MergeHist(
                        rng.gen_range_usize(0, 2),
                        (0..rng.gen_range_usize(0, 4))
                            .map(|_| rng.gen_range_u64(0, 100_000))
                            .collect(),
                    ),
                    _ => SeriesOp::Advance(rng.gen_range_u64(0, 3 * width)),
                };
                (cell, op)
            })
            .collect();

        assert_lockstep("TimeSeries", case, &ops, |ops| {
            let w = Duration::from_ps(width);
            let mut series: Vec<TimeSeries> =
                (0..cells).map(|_| TimeSeries::new(w, retain)).collect();
            let mut clock = vec![0u64; cells];
            // The oracle: (cell, window index at the cell clock, op).
            let mut log: Vec<(usize, u64, &SeriesOp)> = Vec::new();
            for (c, op) in ops {
                let s = &mut series[*c];
                match op {
                    SeriesOp::Incr(k, n) => s.incr(COUNTERS[*k], *n),
                    SeriesOp::Gauge(k, v) => s.set_gauge(GAUGES[*k], *v),
                    SeriesOp::Record(k, v) => s.record(HISTS[*k], *v),
                    SeriesOp::MergeHist(k, vs) => {
                        let mut h = Histogram::new();
                        vs.iter().for_each(|&v| h.record(v));
                        s.merge_hist(HISTS[*k], &h);
                    }
                    SeriesOp::Advance(dt) => {
                        clock[*c] += dt;
                        s.advance(Time::from_ps(clock[*c]));
                    }
                }
                log.push((*c, clock[*c] / width, op));
            }
            let mut last_window = Vec::with_capacity(cells);
            for (c, s) in series.iter_mut().enumerate() {
                let end = clock[c] + finish_extra[c];
                s.finish(Time::from_ps(end));
                last_window.push(end / width);
            }

            // Window `i` of cell `c`, recomputed from the log: a name is
            // present once any op registered it at or before window `i`.
            let cell_window = |c: usize, i: u64| -> (FlatWindow, Vec<(&str, Vec<u64>)>) {
                let mut flat = FlatWindow::default();
                let mut raw: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
                for &(_, at, op) in log.iter().filter(|(cell, at, _)| *cell == c && *at <= i) {
                    let here = at == i;
                    match op {
                        SeriesOp::Incr(k, n) => {
                            *flat.0.entry(COUNTERS[*k].to_owned()).or_default() +=
                                if here { *n } else { 0 };
                        }
                        SeriesOp::Gauge(k, v) => {
                            flat.1.insert(GAUGES[*k].to_owned(), *v);
                        }
                        SeriesOp::Record(k, v) => {
                            let vals = raw.entry(HISTS[*k]).or_default();
                            if here {
                                vals.push(*v);
                            }
                        }
                        SeriesOp::MergeHist(k, vs) => {
                            let vals = raw.entry(HISTS[*k]).or_default();
                            if here {
                                vals.extend_from_slice(vs);
                            }
                        }
                        SeriesOp::Advance(_) => {}
                    }
                }
                (flat, raw.into_iter().collect())
            };
            // The windows a series over `group` must retain, oldest first.
            let expect_windows = |group: &[usize]| -> Vec<(u64, FlatWindow)> {
                let newest = group.iter().map(|&c| last_window[c]).max().expect("cells");
                let oldest = (newest + 1).saturating_sub(retain as u64);
                (oldest..=newest)
                    .map(|i| {
                        let mut flat = FlatWindow::default();
                        let mut raw: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
                        for &c in group.iter().filter(|&&c| last_window[c] >= i) {
                            let (cf, craw) = cell_window(c, i);
                            for (n, v) in cf.0 {
                                *flat.0.entry(n).or_default() += v;
                            }
                            for (n, v) in cf.1 {
                                *flat.1.entry(n).or_default() += v;
                            }
                            for (n, vs) in craw {
                                raw.entry(n).or_default().extend(vs);
                            }
                        }
                        for (n, vs) in raw {
                            let mut h = Histogram::new();
                            vs.iter().for_each(|&v| h.record(v));
                            flat.2.insert(n.to_owned(), hist_summary(&h));
                        }
                        (i, flat)
                    })
                    .collect()
            };
            let expect_lifetime = |group: &[usize]| -> BTreeMap<&str, u64> {
                let mut totals = BTreeMap::new();
                for &(c, _, op) in &log {
                    if let (true, SeriesOp::Incr(k, n)) = (group.contains(&c), op) {
                        *totals.entry(COUNTERS[*k]).or_default() += n;
                    }
                }
                totals
            };
            let compare = |what: &str, s: &TimeSeries, group: &[usize]| -> Option<String> {
                let want = expect_windows(group);
                let got: Vec<(u64, FlatWindow)> =
                    s.windows().map(|(i, w)| (i, flatten_window(w))).collect();
                if got != want {
                    return Some(format!("{what} windows:\n got {got:?}\nwant {want:?}"));
                }
                for n in 0..=retain + 1 {
                    let got: Vec<(u64, FlatWindow)> =
                        s.tail(n).map(|(i, w)| (i, flatten_window(w))).collect();
                    if got[..] != want[want.len().saturating_sub(n)..] {
                        return Some(format!("{what} tail({n}): {got:?}"));
                    }
                }
                let lifetime = expect_lifetime(group);
                for name in COUNTERS {
                    let want = lifetime.get(name).copied().unwrap_or(0);
                    if s.lifetime(name) != want {
                        return Some(format!(
                            "{what} lifetime `{name}`: {} != oracle {want}",
                            s.lifetime(name)
                        ));
                    }
                }
                let rolled = group.iter().map(|&c| last_window[c] + 1).max();
                if Some(s.rolled()) != rolled {
                    return Some(format!("{what} rolled {} != oracle {rolled:?}", s.rolled()));
                }
                let mut cp = CheckPlane::enabled(1);
                s.check_conservation(&mut cp);
                if !cp.ok() || cp.checks_run() != lifetime.len() as u64 {
                    return Some(format!(
                        "{what} conservation: {} checks for {} counters, first violation {:?}",
                        cp.checks_run(),
                        lifetime.len(),
                        cp.first()
                    ));
                }
                None
            };

            for (c, s) in series.iter().enumerate() {
                if let Some(msg) = compare(&format!("cell {c}"), s, &[c]) {
                    return Some(msg);
                }
            }
            let mut merged = series[0].clone();
            for s in &series[1..] {
                merged.merge(s);
            }
            let all: Vec<usize> = (0..cells).collect();
            compare("merged", &merged, &all)
        });
    }
}

#[test]
fn cache_matches_linear_scan_oracle() {
    use ecoscale::mem::{Cache, CacheAccess, CacheConfig};

    #[derive(Debug, Clone, Copy)]
    struct RefLine {
        tag: u64,
        dirty: bool,
        lru: u64,
    }

    for case in 0..CASES {
        let mut rng = case_rng(17, case);
        let config = CacheConfig {
            capacity: 1024,
            line_size: 64,
            ways: 2,
        };
        let sets = (config.capacity / config.line_size) as usize / config.ways;
        let len = rng.gen_range_usize(1, 200);
        let ops: Vec<(u64, bool)> = (0..len)
            .map(|_| (rng.gen_range_u64(0, 8 * config.capacity), rng.gen_bool(0.4)))
            .collect();
        // Oracle: per-set linear scan with exact-LRU replacement (first
        // invalid slot, else the minimum-stamp line, first on ties).
        assert_lockstep("Cache", case, &ops, |ops| {
            let mut cache = Cache::new(config);
            let mut model: Vec<Vec<Option<RefLine>>> = vec![vec![None; config.ways]; sets];
            let (mut hits, mut misses, mut writebacks) = (0u64, 0u64, 0u64);
            let mut clock = 0u64;
            for (step, &(addr, write)) in ops.iter().enumerate() {
                clock += 1;
                let line = addr / config.line_size;
                let set_idx = (line % sets as u64) as usize;
                let tag = line / sets as u64;
                let set = &mut model[set_idx];
                let want = if let Some(l) = set.iter_mut().flatten().find(|l| l.tag == tag) {
                    l.lru = clock;
                    l.dirty |= write;
                    hits += 1;
                    CacheAccess::Hit
                } else {
                    misses += 1;
                    let slot = set.iter().position(Option::is_none).unwrap_or_else(|| {
                        set.iter()
                            .enumerate()
                            .min_by_key(|(_, l)| l.expect("set is full").lru)
                            .map(|(i, _)| i)
                            .expect("ways > 0")
                    });
                    let outcome = match set[slot] {
                        Some(v) if v.dirty => {
                            writebacks += 1;
                            CacheAccess::MissDirtyEviction {
                                victim_addr: (v.tag * sets as u64 + set_idx as u64)
                                    * config.line_size,
                            }
                        }
                        _ => CacheAccess::Miss,
                    };
                    set[slot] = Some(RefLine {
                        tag,
                        dirty: write,
                        lru: clock,
                    });
                    outcome
                };
                let got = cache.access(addr, write);
                if got != want {
                    return Some(format!(
                        "step {step} access({addr:#x}): {got:?} != {want:?}"
                    ));
                }
            }
            if (cache.hits(), cache.misses(), cache.writebacks()) != (hits, misses, writebacks) {
                return Some(format!(
                    "counters ({}, {}, {}) != oracle ({hits}, {misses}, {writebacks})",
                    cache.hits(),
                    cache.misses(),
                    cache.writebacks()
                ));
            }
            None
        });
    }
}

#[derive(Debug, Clone, Copy)]
enum NetOp {
    /// A transfer starting `dt_ns` after the previous one.
    Transfer {
        dt_ns: u64,
        src: usize,
        dst: usize,
        bytes: u64,
    },
    InvalidateRoutes,
    Reset,
    /// Save the network, compare the bytes with the oracle's, and carry
    /// on with a fresh network loaded from them.
    RoundTrip,
}

/// The network as it was when per-link state lived in maps keyed by
/// link, and each transfer cloned its memoised route: the slow path
/// that `Network`'s link slots must match.
#[derive(Default)]
struct MapNetwork {
    link_free_at: std::collections::HashMap<ecoscale::noc::LinkId, Time>,
    link_busy: std::collections::HashMap<ecoscale::noc::LinkId, Duration>,
    stats: ecoscale::noc::TrafficStats,
    route_memo: std::collections::HashMap<(NodeId, NodeId), ecoscale::noc::Route>,
    route_memo_hits: u64,
    route_memo_misses: u64,
    hop_hist: ecoscale::sim::Histogram,
    queue_ns: OnlineStats,
    link_tracks: std::collections::HashMap<ecoscale::noc::LinkId, ecoscale::sim::TrackId>,
    faults: Option<MapLinkFaults>,
}

#[derive(Default)]
struct MapLinkFaults {
    degrade_clock: ecoscale::sim::FaultClock,
    pick: SimRng,
    corrupt: ecoscale::sim::ProbFault,
    degrade_for: Duration,
    slowdown: f64,
    degraded: std::collections::HashMap<ecoscale::noc::LinkId, Time>,
    degrade_events: ecoscale::sim::Counter,
    degraded_hops: ecoscale::sim::Counter,
    corrupted: ecoscale::sim::Counter,
}

impl MapNetwork {
    fn new(spec: &ecoscale::sim::CampaignSpec) -> MapNetwork {
        use ecoscale::sim::fault::salt;
        use ecoscale::sim::{FaultClock, ProbFault};
        let degrade = !spec.link_degrade_mtbf.is_zero();
        let corrupt = spec.packet_corrupt_p > 0.0;
        let faults = (degrade || corrupt).then(|| MapLinkFaults {
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
            ..MapLinkFaults::default()
        });
        MapNetwork {
            faults,
            ..MapNetwork::default()
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn transfer<T: Topology>(
        &mut self,
        topo: &T,
        cfg: &ecoscale::noc::NetworkConfig,
        tracer: &ecoscale::sim::Tracer,
        start: Time,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
    ) -> ecoscale::noc::Delivery {
        use ecoscale::noc::Delivery;
        use ecoscale::sim::Energy;
        let route = match self.route_memo.get(&(src, dst)) {
            Some(r) => {
                self.route_memo_hits += 1;
                r.clone()
            }
            None => {
                self.route_memo_misses += 1;
                let r = topo.route(src, dst);
                self.route_memo.insert((src, dst), r.clone());
                r
            }
        };
        if route.is_local() {
            self.stats.record(&route, bytes, Energy::ZERO);
        } else {
            self.stats
                .record(&route, bytes, cfg.cost.energy(&route, bytes));
        }
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
        if let Some(f) = &mut self.faults {
            while let Some(at) = f.degrade_clock.pop_due(start) {
                f.degrade_events.incr();
                let hops: Vec<_> = route.iter().map(|h| h.link).collect();
                let victim = hops[f.pick.gen_range_usize(0, hops.len())];
                let until = at + f.degrade_for;
                let e = f.degraded.entry(victim).or_insert(until);
                *e = (*e).max(until);
            }
        }
        let energy = cfg.cost.energy(&route, bytes);
        let mut cursor = start;
        let mut queueing = Duration::ZERO;
        let mut held = Vec::new();
        let mut min_bw = u64::MAX;
        let mut degraded_any = false;
        for hop in route.iter() {
            let p = *cfg.cost.level_params(hop.level);
            let free = self
                .link_free_at
                .get(&hop.link)
                .copied()
                .unwrap_or(Time::ZERO);
            if free > cursor {
                queueing += free - cursor;
                cursor = free;
            }
            let degraded =
                |f: &MapLinkFaults, at: Time| f.degraded.get(&hop.link).is_some_and(|&u| u > at);
            let held_from = cursor;
            cursor += p.hop_latency;
            if cfg.cut_through {
                if let Some(f) = &mut self.faults {
                    if degraded(f, held_from) {
                        f.degraded_hops.incr();
                        degraded_any = true;
                    }
                }
                min_bw = min_bw.min(p.bandwidth);
            } else if bytes > 0 {
                let mut ser = Duration::from_bytes_at_bandwidth(bytes, p.bandwidth);
                if let Some(f) = &mut self.faults {
                    if degraded(f, cursor) {
                        f.degraded_hops.incr();
                        ser = ser.mul_f64(f.slowdown);
                    }
                }
                cursor += ser;
            }
            self.link_free_at.insert(hop.link, cursor);
            *self.link_busy.entry(hop.link).or_insert(Duration::ZERO) += cursor - held_from;
            held.push((hop.link, held_from, cursor - held_from));
        }
        if cfg.cut_through && bytes > 0 {
            let mut ser = Duration::from_bytes_at_bandwidth(bytes, min_bw);
            if degraded_any {
                ser = ser.mul_f64(self.faults.as_ref().map_or(1.0, |f| f.slowdown));
            }
            cursor += ser;
        }
        if tracer.is_enabled() {
            for (link, from, dur) in held {
                let track = *self
                    .link_tracks
                    .entry(link)
                    .or_insert_with(|| tracer.track(&format!("noc/{link}")));
                tracer.complete(track, "xfer", from, dur);
            }
        }
        self.queue_ns.record(queueing.as_ns_f64());
        let corrupted = self.faults.as_mut().is_some_and(|f| f.corrupt.strikes());
        if corrupted {
            self.faults.as_mut().expect("faults armed").corrupted.incr();
        }
        Delivery {
            arrival: cursor,
            energy,
            hops: route.hop_count(),
            queueing,
            corrupted,
        }
    }

    fn export_metrics(&self, m: &mut ecoscale::sim::MetricsRegistry) {
        m.add("noc.messages", self.stats.messages());
        m.add("noc.local_messages", self.stats.local_messages());
        m.add("noc.payload_bytes", self.stats.payload_bytes());
        m.add("noc.byte_hops", self.stats.byte_hops());
        m.merge_hist("noc.hops", &self.hop_hist);
        m.merge_stats("noc.queue_ns", &self.queue_ns);
        m.add("noc.links_used", self.link_busy.len() as u64);
        let busy: BTreeMap<_, _> = self.link_busy.iter().collect();
        for b in busy.values() {
            m.record("noc.link_busy_us", b.as_ns() / 1_000);
        }
        m.add("noc.route_memo_hits", self.route_memo_hits);
        m.add("noc.route_memo_misses", self.route_memo_misses);
        if let Some(f) = &self.faults {
            m.add("noc.degrade_events", f.degrade_events.get());
            m.add("noc.degraded_hops", f.degraded_hops.get());
            m.add("noc.corrupted", f.corrupted.get());
        }
    }

    fn reset(&mut self) {
        self.link_free_at.clear();
        self.stats = ecoscale::noc::TrafficStats::new();
        self.hop_hist = ecoscale::sim::Histogram::new();
        self.queue_ns = OnlineStats::new();
        self.link_busy.clear();
        if let Some(f) = &mut self.faults {
            f.degraded.clear();
        }
        self.route_memo.clear();
    }
}

/// Saving only: the byte layout `Network` has always written.
impl ecoscale::sim::Persist for MapNetwork {
    fn persist<IO: ecoscale::sim::SnapIo>(
        &mut self,
        io: &mut IO,
    ) -> Result<(), ecoscale::sim::RestoreError> {
        io.sorted_map(&mut self.link_free_at, "occupied links")?;
        self.stats.persist(io)?;
        let mut memo: std::collections::BTreeSet<_> = self.route_memo.keys().copied().collect();
        io.sorted_set(&mut memo, "memoized routes")?;
        io.u64(&mut self.route_memo_hits)?;
        io.u64(&mut self.route_memo_misses)?;
        self.hop_hist.persist(io)?;
        self.queue_ns.persist(io)?;
        io.sorted_map(&mut self.link_busy, "busy links")?;
        io.option(&mut self.faults, |io, f| {
            f.degrade_clock.persist(io)?;
            f.pick.persist(io)?;
            f.corrupt.persist(io)?;
            io.duration(&mut f.degrade_for)?;
            io.f64(&mut f.slowdown)?;
            io.sorted_map(&mut f.degraded, "degraded links")?;
            for c in [
                &mut f.degrade_events,
                &mut f.degraded_hops,
                &mut f.corrupted,
            ] {
                c.persist(io)?;
            }
            Ok(())
        })
    }
}

/// Runs `ops` on a `Network` over `topo` and on [`MapNetwork`] in
/// lockstep. When every delivery, the metrics, every snapshot's bytes
/// and (when `traced`) the trace agree, returns how many hops crossed a
/// degraded link and how many reloads the network went through.
fn network_lockstep<T: Topology + Clone>(
    topo: &T,
    cut_through: bool,
    spec: &ecoscale::sim::CampaignSpec,
    traced: bool,
    ops: &[NetOp],
) -> Result<(u64, u64), String> {
    use ecoscale::noc::{CostModel, Network, NetworkConfig};
    use ecoscale::sim::{check::CheckPlane, MetricsRegistry, SnapReader, SnapWriter, Tracer};
    let cfg = NetworkConfig {
        cost: CostModel::ecoscale_defaults(),
        cut_through,
    };
    let (tracer, oracle_tracer) = if traced {
        (Tracer::buffering(), Tracer::buffering())
    } else {
        (Tracer::disabled(), Tracer::disabled())
    };
    let mut net = Network::new(topo.clone(), cfg.clone());
    net.set_faults(spec);
    net.set_tracer(tracer.clone());
    let mut oracle = MapNetwork::new(spec);
    let mut now = Time::ZERO;
    let n = topo.num_nodes();
    let mut reloads = 0;
    for (step, &op) in ops.iter().enumerate() {
        match op {
            NetOp::Transfer {
                dt_ns,
                src,
                dst,
                bytes,
            } => {
                now += Duration::from_ns(dt_ns);
                let (s, d) = (NodeId(src % n), NodeId(dst % n));
                let got = net.transfer(now, s, d, bytes);
                let want = oracle.transfer(topo, &cfg, &oracle_tracer, now, s, d, bytes);
                if got != want {
                    return Err(format!("step {step} {op:?}: {got:?} != {want:?}"));
                }
            }
            NetOp::InvalidateRoutes => {
                net.invalidate_routes();
                oracle.route_memo.clear();
            }
            NetOp::Reset => {
                net.reset();
                oracle.reset();
            }
            NetOp::RoundTrip => {
                let mut w = SnapWriter::new();
                w.save(&mut net);
                let bytes = w.into_bytes();
                let mut w = SnapWriter::new();
                w.save(&mut oracle);
                if bytes != w.into_bytes() {
                    return Err(format!("step {step}: snapshot bytes differ"));
                }
                let mut fresh = Network::new(topo.clone(), cfg.clone());
                fresh.set_tracer(tracer.clone());
                let mut r = SnapReader::new(&bytes);
                if let Err(e) = ecoscale::sim::Persist::persist(&mut fresh, &mut r) {
                    return Err(format!("step {step}: reload refused: {e:?}"));
                }
                net = fresh;
                reloads += 1;
            }
        }
        let mut cp = CheckPlane::enabled(1);
        net.check_invariants(&mut cp);
        if !cp.ok() {
            return Err(format!("step {step}: {:?}", cp.violations()));
        }
    }
    let (mut got, mut want) = (MetricsRegistry::new(), MetricsRegistry::new());
    net.export_metrics(&mut got, "noc");
    oracle.export_metrics(&mut want);
    if got.to_json() != want.to_json() {
        return Err(format!(
            "metrics differ:\n{}\n{}",
            got.to_json(),
            want.to_json()
        ));
    }
    let fault_stats = net.fault_stats();
    if fault_stats
        != oracle.faults.as_ref().map_or((0, 0, 0), |f| {
            (
                f.degrade_events.get(),
                f.degraded_hops.get(),
                f.corrupted.get(),
            )
        })
    {
        return Err("fault stats differ".to_owned());
    }
    let (got, want) = (tracer.take(), oracle_tracer.take());
    if got.to_chrome_json() != want.to_chrome_json() {
        return Err(format!(
            "traces differ: tracks {:?} vs {:?}",
            got.tracks(),
            want.tracks()
        ));
    }
    Ok((fault_stats.1, reloads))
}

/// `Network` keeps per-link state in dense slots and borrows its
/// memoised routes. In lockstep with [`MapNetwork`], over all five
/// topologies, both forwarding disciplines, with and without a
/// link-degrade and corruption campaign, and with route invalidation,
/// resets and snapshot round trips interleaved, every delivery, the
/// exported metrics, every snapshot's bytes and the link trace agree.
#[test]
fn network_matches_map_oracle() {
    use ecoscale::noc::{CrossbarTopology, FatTreeTopology};
    use ecoscale::sim::CampaignSpec;
    let (mut degraded_hops, mut reloads) = (0, 0);
    for case in 0..CASES {
        let mut rng = case_rng(19, case);
        let cut_through = (case / 5) % 2 == 1;
        let mut spec = CampaignSpec::off();
        if (case / 10) % 2 == 1 {
            spec.seed = case;
            spec.link_degrade_mtbf = Duration::from_ns(rng.gen_range_u64(200, 5_000));
            spec.link_degrade_for = Duration::from_ns(rng.gen_range_u64(100, 3_000));
            spec.link_slowdown = 1.0 + rng.gen_range_u64(0, 8) as f64;
            spec.packet_corrupt_p = 0.1;
        }
        let traced = rng.gen_bool(0.5);
        let len = rng.gen_range_usize(1, 160);
        let ops: Vec<NetOp> = (0..len)
            .map(|_| match rng.gen_range_usize(0, 40) {
                0 => NetOp::InvalidateRoutes,
                1 => NetOp::Reset,
                2 | 3 => NetOp::RoundTrip,
                _ => NetOp::Transfer {
                    dt_ns: rng.gen_range_u64(0, 400),
                    src: rng.gen_range_usize(0, 64),
                    dst: rng.gen_range_usize(0, 64),
                    bytes: [0, 16, 64, 4096, 1 << 16][rng.gen_range_usize(0, 5)],
                },
            })
            .collect();
        let run = |ops: &[NetOp]| match case % 5 {
            0 => network_lockstep(&TreeTopology::new(&[4, 4]), cut_through, &spec, traced, ops),
            1 => network_lockstep(&CrossbarTopology::new(8), cut_through, &spec, traced, ops),
            2 => network_lockstep(&Mesh2d::new(4, 3), cut_through, &spec, traced, ops),
            3 => network_lockstep(&Dragonfly::new(3, 2, 2), cut_through, &spec, traced, ops),
            _ => network_lockstep(
                &FatTreeTopology::new(&[4, 4], 2),
                cut_through,
                &spec,
                traced,
                ops,
            ),
        };
        assert_lockstep("Network", case, &ops, |ops| run(ops).err());
        let (hops, loads) = run(&ops).expect("agreed above");
        degraded_hops += hops;
        reloads += loads;
    }
    assert!(degraded_hops > 100, "only {degraded_hops} degraded hops");
    assert!(reloads > 100, "only {reloads} reloads");
}

#[derive(Debug, Clone, Copy)]
enum PtOp {
    Map {
        page: u64,
        out: u64,
        perms: PagePerms,
    },
    Unmap {
        page: u64,
    },
    Translate {
        page: u64,
        need: PagePerms,
    },
}

#[test]
fn page_table_matches_btreemap_oracle() {
    use ecoscale::mem::{MapPageError, TranslateError};
    const PERMS: [PagePerms; 4] = [
        PagePerms::READ,
        PagePerms::RW,
        PagePerms::WRITE,
        PagePerms::NONE,
    ];
    for case in 0..CASES {
        let mut rng = case_rng(18, case);
        let len = rng.gen_range_usize(1, 150);
        let ops: Vec<PtOp> = (0..len)
            .map(|_| {
                let page = rng.gen_range_u64(0, 24);
                match rng.gen_range_usize(0, 4) {
                    0 => PtOp::Map {
                        page,
                        out: rng.gen_range_u64(0, 1 << 20),
                        perms: *rng.choose(&PERMS),
                    },
                    1 => PtOp::Unmap { page },
                    _ => PtOp::Translate {
                        page,
                        need: *rng.choose(&[PagePerms::READ, PagePerms::WRITE, PagePerms::NONE]),
                    },
                }
            })
            .collect();
        // Oracle: a BTreeMap of page -> (out, perms) with the documented
        // error responses, including exact PermissionDenied payloads.
        assert_lockstep("PageTable", case, &ops, |ops| {
            let mut pt = PageTable::new(4);
            let mut model: BTreeMap<u64, (u64, PagePerms)> = BTreeMap::new();
            for (step, op) in ops.iter().enumerate() {
                match *op {
                    PtOp::Map { page, out, perms } => {
                        let want = match model.entry(page) {
                            std::collections::btree_map::Entry::Occupied(_) => {
                                Err(MapPageError::AlreadyMapped { page })
                            }
                            std::collections::btree_map::Entry::Vacant(slot) => {
                                slot.insert((out, perms));
                                Ok(())
                            }
                        };
                        let got = pt.map(page, out, perms);
                        if got != want {
                            return Some(format!("step {step} map: {got:?} != {want:?}"));
                        }
                    }
                    PtOp::Unmap { page } => {
                        let want = model.remove(&page).is_some();
                        let got = pt.unmap(page);
                        if got != want {
                            return Some(format!("step {step} unmap: {got} != {want}"));
                        }
                    }
                    PtOp::Translate { page, need } => {
                        let want = match model.get(&page) {
                            None => Err(TranslateError::NotMapped { page }),
                            Some(&(out, have)) if have.allows(need) => Ok(out),
                            Some(&(_, have)) => {
                                Err(TranslateError::PermissionDenied { page, have, need })
                            }
                        };
                        let got = pt.translate(page, need);
                        if got != want {
                            return Some(format!("step {step} translate: {got:?} != {want:?}"));
                        }
                        let want_perms = model.get(&page).map(|&(_, p)| p);
                        if pt.perms_of(page) != want_perms {
                            return Some(format!(
                                "step {step} perms_of: {:?} != {want_perms:?}",
                                pt.perms_of(page)
                            ));
                        }
                    }
                }
                if pt.mapped_pages() != model.len() {
                    return Some(format!(
                        "step {step}: {} mapped pages != oracle {}",
                        pt.mapped_pages(),
                        model.len()
                    ));
                }
            }
            None
        });
    }
}

#[test]
fn smmu_matches_always_walk_oracle() {
    use ecoscale::mem::{SmmuFault, TranslateError};
    // (vpn, need) translation stream against a TLB-free oracle that walks
    // both stages on every access. This is the oracle that catches cached
    // permission bugs: the TLB used to cache RW unconditionally, letting a
    // read-only page be written once resident.
    const PERMS: [PagePerms; 3] = [PagePerms::READ, PagePerms::RW, PagePerms::WRITE];
    for case in 0..CASES {
        let mut rng = case_rng(19, case);
        let pages = rng.gen_range_u64(1, 12);
        let mapped: Vec<(u64, PagePerms)> = (0..pages).map(|p| (p, *rng.choose(&PERMS))).collect();
        let len = rng.gen_range_usize(1, 150);
        let ops: Vec<(u64, PagePerms)> = (0..len)
            .map(|_| {
                (
                    rng.gen_range_u64(0, pages + 2),
                    *rng.choose(&[PagePerms::READ, PagePerms::WRITE]),
                )
            })
            .collect();
        let config = SmmuConfig {
            tlb_entries: 4,
            ..SmmuConfig::default()
        };
        assert_lockstep("Smmu", case, &ops, |ops| {
            let mut smmu = Smmu::new(config);
            for &(vpn, perms) in &mapped {
                smmu.map(
                    VirtAddr::from_page(vpn, 0),
                    0x100 + vpn,
                    0x1000 + vpn,
                    perms,
                )
                .expect("fresh mapping");
            }
            for (step, &(vpn, need)) in ops.iter().enumerate() {
                let want = match mapped.iter().find(|&&(p, _)| p == vpn) {
                    None => Err(SmmuFault::Stage1(TranslateError::NotMapped { page: vpn })),
                    Some(&(_, have)) if !have.allows(need) => {
                        Err(SmmuFault::Stage1(TranslateError::PermissionDenied {
                            page: vpn,
                            have,
                            need,
                        }))
                    }
                    Some(_) => Ok(0x1000 + vpn),
                };
                let got = smmu
                    .translate(VirtAddr::from_page(vpn, 5), need)
                    .map(|(pa, _)| pa.page());
                if got != want {
                    return Some(format!(
                        "step {step} ({vpn:#x}, {need}): {got:?} != {want:?}"
                    ));
                }
            }
            let mut cp = ecoscale::sim::CheckPlane::enabled(1);
            smmu.check_invariants(&mut cp);
            cp.first().map(|v| format!("after stream: {v}"))
        });
    }
}

#[test]
fn kernel_print_parse_round_trip() {
    use ecoscale::hls::{Kernel, Param, ParamKind};
    for case in 0..48 {
        let mut rng = case_rng(15, case);
        let body: Vec<_> = (0..rng.gen_range_usize(1, 5))
            .map(|_| arb_stmt(&mut rng, 2))
            .collect();
        let k = Kernel::new(
            "rt",
            vec![
                Param::new("a", ParamKind::ArrayIn),
                Param::new("b", ParamKind::ArrayOut),
                Param::new("x", ParamKind::Scalar),
                Param::new("i", ParamKind::Scalar),
            ],
            body,
        );
        let printed = k.to_string();
        let reparsed = ecoscale::hls::parse_kernel(&printed)
            .unwrap_or_else(|e| panic!("case {case}: reparse failed: {e}\n{printed}"));
        assert_eq!(k, reparsed, "case {case}");
    }
}

// ----------------------------------------------------------------------
// hls: register VM vs the reference tree-walker
// ----------------------------------------------------------------------

/// The reference interpreter: walks the IR directly, resolving every name
/// through a map at every use. `KernelArgs::run` runs the kernel's
/// compiled register program and must agree with this walker bit for
/// bit, errors included.
mod tree_walker {
    use std::collections::HashMap;

    use ecoscale::hls::{BinOp, ExecKernelError, Expr, Kernel, ParamKind, Stmt, UnOp};

    struct Env<'a> {
        arrays: &'a mut HashMap<String, Vec<f64>>,
        locals: HashMap<String, f64>,
        read_only: Vec<String>,
    }

    pub fn run(
        kernel: &Kernel,
        arrays: &mut HashMap<String, Vec<f64>>,
        scalars: &HashMap<String, f64>,
    ) -> Result<(), ExecKernelError> {
        for p in kernel.params() {
            let bound = if p.is_array() {
                arrays.contains_key(&p.name)
            } else {
                scalars.contains_key(&p.name)
            };
            if !bound {
                return Err(ExecKernelError::MissingArg {
                    name: p.name.clone(),
                });
            }
        }
        let read_only = kernel
            .params()
            .iter()
            .filter(|p| p.kind == ParamKind::ArrayIn)
            .map(|p| p.name.clone())
            .collect();
        let mut env = Env {
            arrays,
            locals: scalars.clone(),
            read_only,
        };
        exec_block(kernel.body(), &mut env)
    }

    fn truthy(v: f64) -> bool {
        v != 0.0
    }

    fn eval(e: &Expr, env: &Env<'_>) -> Result<f64, ExecKernelError> {
        match e {
            Expr::Const(v) => Ok(*v),
            Expr::Var(name) => env
                .locals
                .get(name)
                .copied()
                .ok_or_else(|| ExecKernelError::UnknownName { name: name.clone() }),
            Expr::Load { array, index } => {
                let idx = eval(index, env)? as i64;
                let buf = env
                    .arrays
                    .get(array)
                    .ok_or_else(|| ExecKernelError::UnknownName {
                        name: array.clone(),
                    })?;
                if idx < 0 || idx as usize >= buf.len() {
                    return Err(ExecKernelError::IndexOutOfBounds {
                        array: array.clone(),
                        index: idx,
                        len: buf.len(),
                    });
                }
                Ok(buf[idx as usize])
            }
            Expr::Unary(op, a) => {
                let v = eval(a, env)?;
                Ok(match op {
                    UnOp::Neg => -v,
                    UnOp::Sqrt => v.sqrt(),
                    UnOp::Exp => v.exp(),
                    UnOp::Log => v.ln(),
                    UnOp::Abs => v.abs(),
                    UnOp::Floor => v.floor(),
                    UnOp::Not => {
                        if truthy(v) {
                            0.0
                        } else {
                            1.0
                        }
                    }
                })
            }
            Expr::Binary(op, a, b) => {
                let x = eval(a, env)?;
                let y = eval(b, env)?;
                Ok(match op {
                    BinOp::Add => x + y,
                    BinOp::Sub => x - y,
                    BinOp::Mul => x * y,
                    BinOp::Div => x / y,
                    BinOp::Min => x.min(y),
                    BinOp::Max => x.max(y),
                    BinOp::Rem => x % y,
                    BinOp::Lt => (x < y) as u8 as f64,
                    BinOp::Le => (x <= y) as u8 as f64,
                    BinOp::Gt => (x > y) as u8 as f64,
                    BinOp::Ge => (x >= y) as u8 as f64,
                    BinOp::Eq => (x == y) as u8 as f64,
                    BinOp::And => (truthy(x) && truthy(y)) as u8 as f64,
                    BinOp::Or => (truthy(x) || truthy(y)) as u8 as f64,
                })
            }
            Expr::Select { cond, then, els } => {
                if truthy(eval(cond, env)?) {
                    eval(then, env)
                } else {
                    eval(els, env)
                }
            }
        }
    }

    fn exec_block(stmts: &[Stmt], env: &mut Env<'_>) -> Result<(), ExecKernelError> {
        for s in stmts {
            match s {
                Stmt::Assign { var, value } => {
                    let v = eval(value, env)?;
                    env.locals.insert(var.clone(), v);
                }
                Stmt::Store {
                    array,
                    index,
                    value,
                } => {
                    if env.read_only.iter().any(|a| a == array) {
                        return Err(ExecKernelError::WriteToInput {
                            array: array.clone(),
                        });
                    }
                    let idx = eval(index, env)? as i64;
                    let v = eval(value, env)?;
                    let buf =
                        env.arrays
                            .get_mut(array)
                            .ok_or_else(|| ExecKernelError::UnknownName {
                                name: array.clone(),
                            })?;
                    if idx < 0 || idx as usize >= buf.len() {
                        return Err(ExecKernelError::IndexOutOfBounds {
                            array: array.clone(),
                            index: idx,
                            len: buf.len(),
                        });
                    }
                    buf[idx as usize] = v;
                }
                Stmt::For {
                    var,
                    start,
                    end,
                    body,
                } => {
                    let s0 = eval(start, env)? as i64;
                    let e0 = eval(end, env)? as i64;
                    for i in s0..e0 {
                        env.locals.insert(var.clone(), i as f64);
                        exec_block(body, env)?;
                    }
                }
                Stmt::If { cond, then, els } => {
                    if truthy(eval(cond, env)?) {
                        exec_block(then, env)?;
                    } else {
                        exec_block(els, env)?;
                    }
                }
            }
        }
        Ok(())
    }
}

/// Mutates a fuzzed body in place, each change with probability 1/2:
/// renames a variable read or store target `from` to `to` for every pair
/// in `renames`, and replaces a load's index with a fresh expression.
/// Loop bounds are clamped to `[-3, 6]` so a fuzzed loop never runs long.
fn mutate_stmts(stmts: &mut [ecoscale::hls::Stmt], rng: &mut SimRng, renames: &[(&str, &str)]) {
    use ecoscale::hls::{BinOp, Expr, Stmt};
    fn rename(name: &mut String, rng: &mut SimRng, renames: &[(&str, &str)]) {
        for &(from, to) in renames {
            if name == from && rng.gen_bool(0.5) {
                *name = to.to_owned();
                return;
            }
        }
    }
    fn expr(e: &mut Expr, rng: &mut SimRng, renames: &[(&str, &str)]) {
        match e {
            Expr::Const(_) => {}
            Expr::Var(name) => rename(name, rng, renames),
            Expr::Load { index, .. } => {
                if rng.gen_bool(0.5) {
                    **index = arb_expr(rng, 1);
                }
                expr(index, rng, renames);
            }
            Expr::Unary(_, a) => expr(a, rng, renames),
            Expr::Binary(_, a, b) => {
                expr(a, rng, renames);
                expr(b, rng, renames);
            }
            Expr::Select { cond, then, els } => {
                expr(cond, rng, renames);
                expr(then, rng, renames);
                expr(els, rng, renames);
            }
        }
    }
    for s in stmts {
        match s {
            Stmt::Assign { value, .. } => expr(value, rng, renames),
            Stmt::Store {
                array,
                index,
                value,
            } => {
                rename(array, rng, renames);
                expr(index, rng, renames);
                expr(value, rng, renames);
            }
            Stmt::For {
                start, end, body, ..
            } => {
                expr(start, rng, renames);
                expr(end, rng, renames);
                let lo = std::mem::replace(start, Expr::Const(0.0));
                *start = Expr::bin(BinOp::Max, lo, Expr::Const(-3.0));
                let hi = std::mem::replace(end, Expr::Const(0.0));
                *end = Expr::bin(BinOp::Min, hi, Expr::Const(6.0));
                mutate_stmts(body, rng, renames);
            }
            Stmt::If { cond, then, els } => {
                expr(cond, rng, renames);
                mutate_stmts(then, rng, renames);
                mutate_stmts(els, rng, renames);
            }
        }
    }
}

/// One run's bindings in a fuzzed interpreter case.
#[derive(Debug, Clone)]
struct Bindings {
    arrays: Vec<(&'static str, Vec<f64>)>,
    scalars: Vec<(&'static str, f64)>,
}

/// The signature and the runs of one fuzzed interpreter case: every run
/// executes the same `Kernel`, so the one compiled program meets each
/// run's bindings in turn. The body is kept apart, as the statement
/// stream the shrinker reduces.
#[derive(Debug, Clone)]
struct InterpCase {
    params: Vec<ecoscale::hls::Param>,
    runs: Vec<Bindings>,
}

/// A loop over `var` from a small start to a small end, whose body mixes
/// fuzzed statements with, below `depth`, further loop nests.
fn arb_loop_nest(rng: &mut SimRng, depth: u32) -> ecoscale::hls::Stmt {
    use ecoscale::hls::{Expr, Stmt};
    let body = (0..rng.gen_range_usize(1, 4))
        .map(|_| {
            if depth > 0 && rng.gen_bool(0.5) {
                arb_loop_nest(rng, depth - 1)
            } else {
                arb_stmt(rng, 1)
            }
        })
        .collect();
    Stmt::For {
        var: (*rng.choose(&["i", "j", "k"])).into(),
        start: Expr::Const(rng.gen_range_u64(0, 3) as f64 - 1.0),
        end: if rng.gen_bool(0.5) {
            Expr::var("x")
        } else {
            Expr::Const(rng.gen_range_u64(0, 6) as f64)
        },
        body,
    }
}

/// A loop over `j` in `[0, trip)` that faults at iteration `at`: a store
/// past the end of `b` (the caller makes `b` exactly `at` long), a read
/// of the unbound scalar `ghost` or of the unbound array `phantom`, a
/// load past the end of `a`, or a store to the `in` array `a`. Fuzzed
/// statements run before and after the faulting one in every iteration.
fn faulting_loop(rng: &mut SimRng, kind: usize, at: u64, trip: u64) -> Vec<ecoscale::hls::Stmt> {
    use ecoscale::hls::{BinOp, Expr, Stmt};
    let j = || Expr::var("j");
    let late = |then: Stmt| Stmt::If {
        cond: Expr::bin(BinOp::Ge, Expr::var("j"), Expr::Const(at as f64)),
        then: vec![then],
        els: vec![],
    };
    let fault = match kind {
        0 => Stmt::Store {
            array: "b".into(),
            index: j(),
            value: Expr::var("x"),
        },
        1 => late(Stmt::Assign {
            var: "t".into(),
            value: Expr::bin(BinOp::Add, Expr::var("ghost"), j()),
        }),
        2 => late(Stmt::Assign {
            var: "t".into(),
            value: Expr::load("phantom", j()),
        }),
        3 => late(Stmt::Assign {
            var: "t".into(),
            value: Expr::load("a", Expr::bin(BinOp::Add, j(), Expr::Const(100.0))),
        }),
        _ => late(Stmt::Store {
            array: "a".into(),
            index: j(),
            value: Expr::Const(1.0),
        }),
    };
    // straight-line statements only: a nested loop would move `j`
    let mut around: Vec<_> = (0..2).map(|_| arb_stmt(rng, 0)).collect();
    mutate_stmts(&mut around, rng, &[]);
    let after = around.pop().expect("two drawn");
    let mut before = around;
    before.push(fault);
    before.push(after);
    vec![Stmt::For {
        var: "j".into(),
        start: Expr::Const(0.0),
        end: Expr::Const(trip as f64),
        body: before,
    }]
}

/// The interpreter runs a column loop this many iterations at a time.
const CHUNK: u64 = 256;

/// An expression a lane of a loop over `j` can compute: constants, `j`,
/// the scalars `x` and `i`, the locals in `locals`, and loads of `a` at
/// `j` or at `j` plus a constant, `i` or `x`; inside an inner loop over
/// `k` also `k` and `a[k]`, which every lane shares.
fn lane_expr(rng: &mut SimRng, depth: u32, locals: &[&str], inner: bool) -> ecoscale::hls::Expr {
    use ecoscale::hls::{BinOp, Expr, UnOp};
    let j = || Expr::var("j");
    if depth == 0 || rng.gen_bool(0.3) {
        return match rng.gen_range_usize(0, 7) {
            0 => Expr::Const(rng.gen_range_u64(0, 20) as f64 / 4.0),
            1 => j(),
            2 => Expr::var(rng.choose::<&str>(&["x", "i"])),
            3 if !locals.is_empty() => Expr::var(rng.choose::<&str>(locals)),
            4 if inner && rng.gen_bool(0.5) => Expr::var("k"),
            4 if inner => Expr::load("a", Expr::var("k")),
            5 => {
                // a whole or a fractional offset, on either side
                let off = match rng.gen_range_usize(0, 3) {
                    0 => Expr::Const(rng.gen_range_u64(1, 3) as f64),
                    1 => Expr::var("i"),
                    _ => Expr::var("x"),
                };
                let index = if rng.gen_bool(0.5) {
                    Expr::bin(BinOp::Add, j(), off)
                } else {
                    Expr::bin(BinOp::Add, off, j())
                };
                Expr::load("a", index)
            }
            _ => Expr::load("a", j()),
        };
    }
    if rng.gen_bool(0.3) {
        const OPS: [UnOp; 7] = [
            UnOp::Neg,
            UnOp::Sqrt,
            UnOp::Exp,
            UnOp::Log,
            UnOp::Abs,
            UnOp::Floor,
            UnOp::Not,
        ];
        let op = *rng.choose(&OPS);
        Expr::un(op, lane_expr(rng, depth - 1, locals, inner))
    } else {
        const OPS: [BinOp; 10] = [
            BinOp::Add,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::Div,
            BinOp::Min,
            BinOp::Max,
            BinOp::Lt,
            BinOp::Eq,
            BinOp::And,
            BinOp::Rem,
        ];
        let op = *rng.choose(&OPS);
        let a = lane_expr(rng, depth - 1, locals, inner);
        let b = lane_expr(rng, depth - 1, locals, inner);
        Expr::bin(op, a, b)
    }
}

/// A loop over `j` in `[start, start + trip)` whose body keeps the column
/// rule: locals assigned before they are read, stores to `b` at `j`,
/// loads from `a` only, and inner loops over `k` with bounds every lane
/// shares. Half the loops then break the rule in one place: a load of
/// the previous iteration's store to `b`, a local read before the
/// iteration assigns it, an inner bound that depends on `j`, a `select`
/// or `if` on a lane's value, or a store to `b[j + 1]`. Statements
/// around the loop may assign `u` before it and read `j`, and `u` if
/// assigned, after it.
fn column_loop(rng: &mut SimRng, start: i64, trip: u64) -> Vec<ecoscale::hls::Stmt> {
    use ecoscale::hls::{BinOp, Expr, Stmt};
    let j = || Expr::var("j");
    let store = |value| Stmt::Store {
        array: "b".into(),
        index: j(),
        value,
    };
    let mut locals: Vec<&str> = Vec::new();
    let mut body = Vec::new();
    for _ in 0..rng.gen_range_usize(1, 5) {
        match rng.gen_range_usize(0, 4) {
            0 | 1 => {
                let var = *rng.choose(&["t", "u"]);
                let value = lane_expr(rng, 2, &locals, false);
                body.push(Stmt::Assign {
                    var: var.into(),
                    value,
                });
                if !locals.contains(&var) {
                    locals.push(var);
                }
            }
            2 => body.push(store(lane_expr(rng, 2, &locals, false))),
            _ => {
                let end = if rng.gen_bool(0.5) {
                    Expr::Const(rng.gen_range_u64(0, 4) as f64)
                } else {
                    Expr::bin(BinOp::Min, Expr::var("x"), Expr::Const(3.0))
                };
                let value = lane_expr(rng, 1, &locals, true);
                // accumulate into a local, overwrite it (perhaps with a
                // value every lane shares), or store
                let stmt = match locals.first() {
                    Some(&acc) if rng.gen_bool(0.5) => Stmt::Assign {
                        var: acc.into(),
                        value: Expr::bin(BinOp::Add, Expr::var(acc), value),
                    },
                    Some(&acc) => Stmt::Assign {
                        var: acc.into(),
                        value,
                    },
                    None => store(value),
                };
                body.push(Stmt::For {
                    var: "k".into(),
                    start: Expr::Const(0.0),
                    end,
                    body: vec![stmt],
                });
            }
        }
    }
    let mut before = Vec::new();
    if rng.gen_bool(0.5) {
        match rng.gen_range_usize(0, 6) {
            0 => {
                let prev = Expr::bin(
                    BinOp::Max,
                    Expr::bin(BinOp::Sub, j(), Expr::Const(1.0)),
                    Expr::Const(0.0),
                );
                body.insert(
                    0,
                    Stmt::Assign {
                        var: "t".into(),
                        value: Expr::load("b", prev),
                    },
                );
                body.push(store(Expr::bin(
                    BinOp::Add,
                    Expr::var("t"),
                    Expr::Const(1.0),
                )));
            }
            1 => {
                before.push(Stmt::Assign {
                    var: "u".into(),
                    value: Expr::var("x"),
                });
                body.insert(0, store(Expr::bin(BinOp::Add, Expr::var("u"), j())));
                body.push(Stmt::Assign {
                    var: "u".into(),
                    value: Expr::load("a", j()),
                });
            }
            2 => body.push(Stmt::For {
                var: "k".into(),
                start: Expr::Const(0.0),
                end: Expr::bin(BinOp::Min, j(), Expr::Const(3.0)),
                body: vec![store(Expr::var("k"))],
            }),
            3 => body.push(store(Expr::Select {
                cond: Box::new(Expr::bin(BinOp::Gt, Expr::load("a", j()), Expr::Const(0.0))),
                then: Box::new(Expr::load("a", j())),
                els: Box::new(Expr::var("x")),
            })),
            4 => body.push(Stmt::If {
                cond: Expr::bin(BinOp::Gt, Expr::load("a", j()), Expr::Const(0.0)),
                then: vec![store(Expr::Const(1.0))],
                els: vec![],
            }),
            _ => body.push(Stmt::Store {
                array: "b".into(),
                index: Expr::bin(BinOp::Add, j(), Expr::Const(1.0)),
                value: Expr::var("x"),
            }),
        }
    } else if rng.gen_bool(0.5) {
        before.push(Stmt::Assign {
            var: "u".into(),
            value: Expr::var("x"),
        });
    }
    // `u` is known after the loop only if it was assigned before it
    let after = Expr::var(if before.is_empty() { "x" } else { "u" });
    let mut stmts = before;
    stmts.push(Stmt::For {
        var: "j".into(),
        start: Expr::Const(start as f64),
        end: Expr::Const((start + trip as i64) as f64),
        body,
    });
    if rng.gen_bool(0.5) {
        stmts.push(Stmt::Store {
            array: "b".into(),
            index: Expr::Const(0.0),
            value: Expr::bin(BinOp::Add, j(), after),
        });
    }
    stmts
}

/// A column loop over `j` in `[0, trip)` that faults at iteration `at`,
/// in a later chunk than the first: a gather past the end of `a` or
/// below its start, or a store past the end of `b` (the caller sizes
/// the buffers). A read-modify-write of `c[0]` precedes the loop, so it
/// must run once only.
fn late_fault_loop(rng: &mut SimRng, kind: usize, at: u64, trip: u64) -> Vec<ecoscale::hls::Stmt> {
    use ecoscale::hls::{BinOp, Expr, Stmt};
    let j = || Expr::var("j");
    let gather = match kind {
        0 => Expr::load(
            "a",
            Expr::bin(BinOp::Add, j(), Expr::Const(trip as f64 - at as f64)),
        ),
        1 => Expr::load(
            "a",
            Expr::bin(BinOp::Sub, Expr::Const(at as f64 - 1.0), j()),
        ),
        _ => Expr::load("a", j()),
    };
    let mut body = vec![
        Stmt::Assign {
            var: "t".into(),
            value: Expr::bin(BinOp::Mul, Expr::load("a", j()), Expr::var("x")),
        },
        Stmt::Assign {
            var: "u".into(),
            value: gather,
        },
        Stmt::Store {
            array: "b".into(),
            index: j(),
            value: Expr::bin(BinOp::Add, Expr::var("t"), Expr::var("u")),
        },
    ];
    if rng.gen_bool(0.5) {
        body.push(Stmt::Assign {
            var: "t".into(),
            value: lane_expr(rng, 2, &["t", "u"], false),
        });
    }
    let c0 = || Expr::load("c", Expr::Const(0.0));
    vec![
        Stmt::Store {
            array: "c".into(),
            index: Expr::Const(0.0),
            value: Expr::bin(BinOp::Add, c0(), Expr::var("x")),
        },
        Stmt::For {
            var: "j".into(),
            start: Expr::Const(0.0),
            end: Expr::Const(trip as f64),
            body,
        },
    ]
}

impl InterpCase {
    /// Draws a case of `family`:
    /// 0 plain; 1 stores to the `in` array `a`; 2 reads the local `t`
    /// and loop variable `j` where they may be unassigned; 3 short
    /// buffers (indices out of range); 4 as 2 with one name unbound, left
    /// out of the signature, or both; 5 several loop nests over `i`, `j`
    /// and `k`; 6 a loop that faults at an iteration in its middle; 7 as
    /// 2, run four times under changing bindings: an extra scalar bound
    /// then unbound, new buffer lengths, and a name left out of the
    /// signature bound, then unbound, then bound again; 8 a loop just
    /// inside or just outside the column rule, for 0, 1, CHUNK - 1,
    /// CHUNK, CHUNK + 1 or 2 CHUNK + 3 iterations, over buffers that may
    /// end a little short of the last; 9 a column loop that faults in a
    /// chunk after the first.
    fn draw(rng: &mut SimRng, family: usize) -> (InterpCase, Vec<ecoscale::hls::Stmt>) {
        use ecoscale::hls::{Param, ParamKind};
        let (min_len, max_len) = if family == 3 { (0, 3) } else { (6, 16) };
        let buffer = |rng: &mut SimRng| -> Vec<f64> {
            (0..rng.gen_range_usize(min_len, max_len))
                .map(|_| rng.gen_range_f64(-4.0, 4.0))
                .collect()
        };
        let bindings = |rng: &mut SimRng| Bindings {
            arrays: vec![("a", buffer(rng)), ("b", buffer(rng))],
            scalars: vec![
                ("x", rng.gen_range_f64(-3.0, 3.0)),
                ("i", rng.gen_range_u64(0, 8) as f64 - 1.0),
            ],
        };
        let mut case = InterpCase {
            params: vec![
                Param::new("a", ParamKind::ArrayIn),
                Param::new("b", ParamKind::ArrayOut),
                Param::new("x", ParamKind::Scalar),
                Param::new("i", ParamKind::Scalar),
            ],
            runs: vec![bindings(rng)],
        };
        let body = match family {
            5 => {
                let mut body: Vec<_> = (0..rng.gen_range_usize(2, 4))
                    .map(|_| arb_loop_nest(rng, 2))
                    .collect();
                mutate_stmts(&mut body, rng, &[("i", "j"), ("x", "k")]);
                body
            }
            8 => {
                let trip = *rng.choose(&[0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3]);
                let start = *rng.choose(&[-1, 0, 0, 0, 3]);
                let end = (start + trip as i64).max(3) as usize;
                let run = &mut case.runs[0];
                for (_, buf) in &mut run.arrays {
                    let len = end + rng.gen_range_usize(0, 6);
                    *buf = (0..len).map(|_| rng.gen_range_f64(-4.0, 4.0)).collect();
                }
                column_loop(rng, start, trip)
            }
            9 => {
                let kind = rng.gen_range_usize(0, 3);
                let trip = rng.gen_range_u64(CHUNK + 2, 2 * CHUNK + 40);
                let at = rng.gen_range_u64(CHUNK, trip);
                let run = &mut case.runs[0];
                let lens = match kind {
                    0 => [trip, trip],
                    1 => [trip + at, trip],
                    _ => [trip, at],
                };
                for ((_, buf), len) in run.arrays.iter_mut().zip(lens) {
                    *buf = (0..len).map(|_| rng.gen_range_f64(-4.0, 4.0)).collect();
                }
                run.arrays.push(("c", vec![rng.gen_range_f64(-4.0, 4.0)]));
                case.params.push(Param::new("c", ParamKind::ArrayOut));
                late_fault_loop(rng, kind, at, trip)
            }
            6 => {
                let kind = rng.gen_range_usize(0, 5);
                let at = rng.gen_range_u64(0, 6);
                let trip = at + rng.gen_range_u64(1, 4);
                if kind == 0 {
                    let b = &mut case.runs[0].arrays[1].1;
                    b.truncate(at as usize);
                }
                faulting_loop(rng, kind, at, trip)
            }
            _ => {
                let mut body: Vec<_> = (0..rng.gen_range_usize(1, 5))
                    .map(|_| arb_stmt(rng, 2))
                    .collect();
                let renames: &[(&str, &str)] = match family {
                    1 => &[("b", "a")],
                    2 | 4 | 7 => &[("x", "t"), ("i", "j")],
                    _ => &[],
                };
                mutate_stmts(&mut body, rng, renames);
                body
            }
        };
        if family == 4 {
            let name = *rng.choose(&["a", "b", "x", "i"]);
            let mode = rng.gen_range_usize(0, 3);
            if mode != 1 {
                case.runs[0].arrays.retain(|(n, _)| *n != name);
                case.runs[0].scalars.retain(|(n, _)| *n != name);
            }
            if mode != 0 {
                case.params.retain(|p| p.name != name);
            }
        }
        if family == 7 {
            let outside = *rng.choose(&["a", "b", "x", "i"]);
            case.params.retain(|p| p.name != outside);
            let extra = [
                ("t", rng.gen_range_f64(-3.0, 3.0)),
                ("j", rng.gen_range_u64(0, 8) as f64),
            ];
            case.runs[0].scalars.extend(extra);
            for run in 1..4 {
                let mut b = bindings(rng);
                if run == 3 {
                    b.scalars.push(extra[0]);
                }
                if run == 2 {
                    b.arrays.retain(|(n, _)| *n != outside);
                    b.scalars.retain(|(n, _)| *n != outside);
                }
                case.runs.push(b);
            }
        }
        (case, body)
    }

    /// Runs `body` under both interpreters, once per run of the case and
    /// on one `Kernel` throughout; `None` if they agree on every result
    /// and on every binding afterwards, bit for bit.
    fn diverges(&self, body: &[ecoscale::hls::Stmt]) -> Option<String> {
        use std::collections::HashMap;
        let kernel = ecoscale::hls::Kernel::new("fz", self.params.clone(), body.to_vec());
        for (r, run) in self.runs.iter().enumerate() {
            let mut args = ecoscale::hls::KernelArgs::new();
            let mut arrays = HashMap::new();
            let mut scalars = HashMap::new();
            for (name, data) in &run.arrays {
                args.bind_array(name, data.clone());
                arrays.insert(name.to_string(), data.clone());
            }
            for &(name, v) in &run.scalars {
                args.bind_scalar(name, v);
                scalars.insert(name.to_string(), v);
            }
            let got = args.run(&kernel);
            let want = tree_walker::run(&kernel, &mut arrays, &scalars);
            if got != want {
                return Some(format!("run {r}: result {got:?} != {want:?}\n{kernel}"));
            }
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            for (name, _) in &run.arrays {
                let got = args.array(name).map(bits);
                let want = arrays.get(*name).map(|v| bits(v));
                if got != want {
                    return Some(format!(
                        "run {r}: array `{name}` {got:?} != {want:?}\n{kernel}"
                    ));
                }
            }
            for &(name, v) in &run.scalars {
                if args.scalar(name).map(f64::to_bits) != Some(v.to_bits()) {
                    return Some(format!(
                        "run {r}: scalar `{name}` was written back\n{kernel}"
                    ));
                }
            }
        }
        None
    }
}

#[test]
fn register_vm_matches_tree_walker_oracle() {
    // per family: cases whose first run fails, cases whose runs do not
    // all end alike, and cases with a loop run a column at a time
    const FAMILIES: usize = 10;
    let mut failing = [0u32; FAMILIES];
    let mut mixed = [0u32; FAMILIES];
    let mut columns = [0u32; FAMILIES];
    // 832 cases per family: the first five keep at least the 4096 / 5
    // they had before the others joined them
    let per_family = CASES * 13;
    for case in 0..per_family * FAMILIES as u64 {
        let family = case as usize % FAMILIES;
        let mut rng = case_rng(22, case);
        let (setup, body) = InterpCase::draw(&mut rng, family);
        let what = format!("KernelArgs::run (salt 22, family {family}, bindings {setup:?})",);
        assert_lockstep(&what, case, &body, |body| setup.diverges(body));
        let kernel = ecoscale::hls::Kernel::new("fz", setup.params.clone(), body);
        columns[family] += u32::from(kernel.column_loops() > 0);
        let ends: Vec<bool> = setup
            .runs
            .iter()
            .map(|run| {
                let mut args = ecoscale::hls::KernelArgs::new();
                for (name, data) in &run.arrays {
                    args.bind_array(name, data.clone());
                }
                for &(name, v) in &run.scalars {
                    args.bind_scalar(name, v);
                }
                args.run(&kernel).is_ok()
            })
            .collect();
        failing[family] += u32::from(!ends[0]);
        mixed[family] += u32::from(ends.iter().any(|&ok| ok != ends[0]));
    }
    // the fault families fault, and rebinding changes how runs end
    let per_family = per_family as u32;
    assert_eq!(failing[6], per_family, "every mid-loop fault is reached");
    assert!(
        mixed[7] > per_family / 4,
        "rebinding changed {} outcomes",
        mixed[7]
    );
    assert!(failing[5] > 0 && failing[5] < per_family, "{failing:?}");
    // both sides of the column rule are reached, and late faults are
    // met on the column path
    assert!(
        columns[8] > per_family / 4 && columns[8] < per_family * 3 / 4,
        "{columns:?}"
    );
    assert!(failing[8] > 0 && failing[8] < per_family / 2, "{failing:?}");
    assert_eq!((failing[9], columns[9]), (per_family, per_family));
}

// ----------------------------------------------------------------------
// core: SnapPlane checkpoint/resume equivalence over fuzzed serving runs
// ----------------------------------------------------------------------

/// The SnapPlane headline guarantee, fuzzed: checkpoint a serving run at
/// an arbitrary mid-horizon instant, restore the snapshot into freshly
/// built cells, and run to drain — the merged serving ledger, metrics,
/// system report, and makespan must be byte-identical to the
/// uninterrupted run. Half the cases arm a fault campaign (SEU + SMMU
/// under scrubbing) and the cell count alternates, so the equivalence
/// holds across both the healthy and the degraded dispatch paths. Every
/// case then flips one random payload bit in the snapshot and requires a
/// typed checksum refusal, never a partially-applied restore.
#[test]
fn serve_checkpoint_resume_matches_uninterrupted_run() {
    use ecoscale::core::{
        linear_test_mix, run_serve_sim_with, serve_checkpoint, serve_resume_with, ServeSimConfig,
    };
    use ecoscale::runtime::ServeSpec;
    use ecoscale::sim::check::CheckPlane;
    use ecoscale::sim::snap::SnapshotFile;
    use ecoscale::sim::{CampaignSpec, RestoreError};

    for case in 0..16 {
        let mut rng = case_rng(21, case);
        let seed = rng.gen_range_u64(1, 1 << 16);
        let tenants = rng.gen_range_u64(2, 6);
        let rate = rng.gen_range_u64(120_000, 280_000);
        let horizon_us = rng.gen_range_u64(300, 600);
        let batch = rng.gen_range_u64(2, 8);
        let spec = ServeSpec::parse(&format!(
            "seed={seed},tenants={tenants},rate={rate},horizon={horizon_us}us,\
             batch={batch},deadline=250us,queue=24"
        ))
        .expect("fuzzed spec parses");
        let mut cfg = ServeSimConfig::new(spec, linear_test_mix());
        cfg.items = 24;
        cfg.cells = 1 + rng.gen_range_usize(0, 2);
        cfg.ctx = common::ctx();
        if case % 2 == 1 {
            let fseed = rng.gen_range_u64(1, 100);
            cfg.faults =
                CampaignSpec::parse(&format!("seed={fseed},seu=200us,smmu=0.002,scrub=400us"))
                    .expect("fuzzed campaign parses");
        }
        let at = Time::ZERO + Duration::from_us(rng.gen_range_u64(40, horizon_us));

        let full = run_serve_sim_with(&cfg, &mut CheckPlane::disabled());
        let bytes = serve_checkpoint(&cfg, at);
        let resumed = serve_resume_with(&cfg, &bytes, &mut CheckPlane::disabled())
            .unwrap_or_else(|e| panic!("case {case}: resume refused: {e}"));

        assert_eq!(resumed.violations, 0, "case {case}: invariant violations");
        assert_eq!(
            resumed.serving.to_json(),
            full.serving.to_json(),
            "case {case}: serving ledger diverged after resume at {at}"
        );
        assert_eq!(
            resumed.metrics.to_json(),
            full.metrics.to_json(),
            "case {case}: metrics diverged after resume at {at}"
        );
        assert_eq!(
            resumed.report.to_json(),
            full.report.to_json(),
            "case {case}: system report diverged after resume at {at}"
        );
        assert_eq!(
            resumed.makespan, full.makespan,
            "case {case}: makespan diverged after resume at {at}"
        );

        // One random payload bit flipped must surface as a checksum
        // refusal for the section that owns the byte.
        let file = SnapshotFile::parse(&bytes).expect("case: snapshot parses");
        let sections: Vec<_> = file.sections().cloned().collect();
        let si = &sections[rng.gen_range_usize(0, sections.len())];
        let off = si.offset as usize + rng.gen_range_usize(0, si.len as usize);
        let mut bad = bytes.clone();
        bad[off] ^= 1 << rng.gen_range_usize(0, 8);
        match serve_resume_with(&cfg, &bad, &mut CheckPlane::disabled()) {
            Err(RestoreError::BadChecksum { section, .. }) => assert_eq!(
                section, si.name,
                "case {case}: refusal named the wrong section"
            ),
            other => panic!(
                "case {case}: corrupt byte {off} in `{}` must be refused \
                 with BadChecksum, got {other:?}",
                si.name
            ),
        }
    }
}

/// The two configs the state-corruption tests rewrite: A is a plain
/// two-cell run, C adds every fault class (SEU, SMMU, NoC link,
/// corruption and stall) and telemetry, so the fault and resilience
/// decoders run too.
fn corruption_config(faulted: bool) -> ecoscale::core::ServeSimConfig {
    use ecoscale::core::{linear_test_mix, ServeSimConfig};
    use ecoscale::runtime::ServeSpec;
    use ecoscale::sim::{CampaignSpec, RunCtx, TelemetryConfig};
    let mut cfg = if faulted {
        let spec =
            ServeSpec::parse("seed=21,tenants=4,rate=100000,horizon=500us,batch=4,deadline=200us")
                .expect("spec parses");
        let mut cfg = ServeSimConfig::new(spec, linear_test_mix());
        cfg.faults = CampaignSpec::parse(
            "seed=9,seu=150us,smmu=0.002,scrub=300us,link=80us,link_for=40us,\
             corrupt=0.001,stall=200us,stall_for=50us",
        )
        .expect("campaign spec parses");
        cfg.telemetry = Some(TelemetryConfig::new(Duration::from_us(50)));
        cfg
    } else {
        let spec = ServeSpec::parse("seed=7,tenants=2,rate=120000,horizon=300us,batch=4")
            .expect("spec parses");
        let mut cfg = ServeSimConfig::new(spec, linear_test_mix());
        cfg.items = 24;
        cfg.cells = 2;
        cfg
    };
    cfg.ctx = RunCtx {
        threads: 1,
        shards: 1,
        check: 0,
    };
    cfg
}

/// Past the checksum: the `cell.0` state of a checkpoint of `cfg` at
/// `at_us` is rewritten and the file rebuilt with valid checksums, so
/// every variant reaches the state decoder itself. Every strict prefix
/// of the state must be refused as `Truncated` or `Malformed`; every
/// seeded single-byte rewrite must resume or be refused with a typed
/// error, never panic. Most rewrites land on counters and resume, so
/// only the absence of a panic is asserted for them.
fn assert_corrupt_cell_state_is_refused_or_resumed(
    cfg: &ecoscale::core::ServeSimConfig,
    at_us: u64,
    salt: u64,
) {
    use ecoscale::core::{serve_checkpoint, serve_resume_with};
    use ecoscale::sim::check::CheckPlane;
    use ecoscale::sim::snap::{SnapReader, SnapshotBuilder, SnapshotFile};
    use ecoscale::sim::RestoreError;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    const PREFIXES: usize = 100;
    const REWRITES: u64 = 300;
    let bytes = serve_checkpoint(cfg, Time::ZERO + Duration::from_us(at_us));
    let file = SnapshotFile::parse(&bytes).expect("checkpoint parses");
    let sections: Vec<(String, &[u8])> = file
        .sections()
        .map(|s| {
            let (start, end) = (s.offset as usize, (s.offset + s.len) as usize);
            (s.name.clone(), &bytes[start..end])
        })
        .collect();
    let state = file
        .section("cell.0")
        .and_then(|mut r: SnapReader<'_>| r.get_bytes())
        .expect("cell.0 holds one byte string");
    // The file with `cell.0` replaced by `cell` and every checksum valid.
    let rebuild = |cell: &[u8]| {
        let mut b = SnapshotBuilder::new();
        for (name, payload) in &sections {
            b.section(name, |w| {
                if name == "cell.0" {
                    w.put_bytes(cell);
                } else {
                    w.put_raw(payload);
                }
            });
        }
        b.finish()
    };
    let resume = |file: &[u8]| {
        catch_unwind(AssertUnwindSafe(|| {
            serve_resume_with(cfg, file, &mut CheckPlane::disabled()).map(|_| ())
        }))
    };
    assert!(matches!(resume(&rebuild(&state)), Ok(Ok(()))));

    for i in 0..PREFIXES {
        let cut = i * state.len() / PREFIXES;
        match resume(&rebuild(&state[..cut])) {
            Ok(Err(RestoreError::Truncated { .. } | RestoreError::Malformed { .. })) => {}
            other => panic!("prefix of {cut} bytes gave {other:?}"),
        }
    }
    for case in 0..REWRITES {
        let mut rng = case_rng(salt, case);
        let mut bad = state.clone();
        let at = rng.gen_range_usize(0, bad.len());
        bad[at] ^= rng.gen_range_u64(1, 256) as u8;
        assert!(
            resume(&rebuild(&bad)).is_ok(),
            "rewriting byte {at} panicked the resume"
        );
    }
}

#[test]
fn corrupt_cell_state_is_refused_or_resumed_never_a_panic() {
    assert_corrupt_cell_state_is_refused_or_resumed(&corruption_config(false), 150, 28);
}

#[test]
fn corrupt_faulted_cell_state_is_refused_or_resumed_never_a_panic() {
    assert_corrupt_cell_state_is_refused_or_resumed(&corruption_config(true), 200, 29);
}
