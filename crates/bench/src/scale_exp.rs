//! System-scale experiments: E13 (exaflop power extrapolation) and E14
//! (hybrid MPI+PGAS sorting).

use ecoscale_apps::sort::{distributed_sort, generate, SortMode};
use ecoscale_core::{machine_power_for_exaflop, MachineClass};
use ecoscale_sim::report::{fnum, fratio, Table};

use crate::ExpRun;

/// E13 — §1: "sustaining exaflop performance requires an enormous 1 GW".
pub fn e13_power(_run: &ExpRun) -> Table {
    let mut t = Table::new(
        "E13 (§1): power to sustain 1 EFLOPS, by scaling strategy",
        &[
            "strategy",
            "GFLOPS/W",
            "IT power",
            "facility power (PUE)",
            "PUE",
        ],
    );
    for (class, pue) in [
        (MachineClass::Tianhe2, 1.9),
        (MachineClass::Green500Best, 1.9),
        (MachineClass::EcoscaleWorker, 1.4),
    ] {
        let bill = machine_power_for_exaflop(class, 1.0, pue);
        t.row_owned(vec![
            class.to_string(),
            fnum(class.flops_per_watt() / 1e9),
            format!("{}", bill.it_power),
            format!("{}", bill.facility_power),
            fnum(pue),
        ]);
    }
    t
}

/// E14 — §2 \[5\]: hybrid MPI+PGAS vs pure MPI on the out-of-core sample
/// sort, sweeping node count.
pub fn e14_hybrid(run: &ExpRun) -> Table {
    let node_counts: &[usize] = run.scale.pick(&[2, 4][..], &[2, 4, 8, 16][..]);
    let keys = run.scale.pick(20_000, 200_000);
    let wpn = 8;
    let mut t = Table::new(
        "E14 (§2,[5]): hybrid MPI+PGAS vs pure MPI, distributed sample sort",
        &[
            "nodes",
            "workers",
            "mode",
            "elapsed",
            "exchange",
            "intra-node",
            "inter-node",
            "speedup",
            "exchange speedup",
        ],
    );
    let blocks = run.ctx.map(node_counts.to_vec(), |nodes| {
        let data = generate(keys, 5);
        let mpi = distributed_sort(&data, nodes, wpn, SortMode::PureMpi, 1);
        let hybrid = distributed_sort(&data, nodes, wpn, SortMode::Hybrid, 1);
        assert_eq!(mpi.sorted, hybrid.sorted, "both modes sort identically");
        [
            ("pure-mpi", &mpi, 1.0, 1.0),
            (
                "hybrid",
                &hybrid,
                mpi.elapsed / hybrid.elapsed,
                mpi.exchange / hybrid.exchange,
            ),
        ]
        .into_iter()
        .map(|(name, out, speedup, xspeedup)| {
            vec![
                nodes.to_string(),
                (nodes * wpn).to_string(),
                name.to_owned(),
                format!("{}", out.elapsed),
                format!("{}", out.exchange),
                ecoscale_sim::report::fbytes(out.intra_node_bytes),
                ecoscale_sim::report::fbytes(out.inter_node_bytes),
                fratio(speedup),
                fratio(xspeedup),
            ]
        })
        .collect::<Vec<_>>()
    });
    for row in blocks.into_iter().flatten() {
        t.row_owned(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;
    use ecoscale_sim::RunCtx;

    #[test]
    fn e13_tianhe_hits_a_gigawatt() {
        let t = e13_power(&ExpRun::new(Scale::Quick, RunCtx::SEQUENTIAL));
        let row = t.cells(0).unwrap();
        assert!(row[3].contains("MW"));
        // ~1000 MW
        let mw: f64 = row[3].trim_end_matches("MW").parse().unwrap();
        assert!(mw > 900.0 && mw < 1100.0, "{mw} MW");
        // ECOSCALE row far below
        let eco: f64 = t.cells(2).unwrap()[3]
            .trim_end_matches("MW")
            .parse()
            .unwrap();
        assert!(eco < 100.0);
    }

    #[test]
    fn e14_hybrid_wins_every_scale() {
        let t = e14_hybrid(&ExpRun::new(Scale::Quick, RunCtx::SEQUENTIAL));
        for i in (1..t.len()).step_by(2) {
            let row = t.cells(i).unwrap();
            assert_eq!(row[2], "hybrid");
            let s: f64 = row[7].trim_end_matches('x').parse().unwrap();
            assert!(s > 1.0, "row {i}: speedup {s}");
        }
    }
}
