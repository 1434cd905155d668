//! FIR filtering — the classic streaming DSP kernel, and the cleanest
//! pipelining/unrolling showcase for the HLS design-space explorer
//! (every tap is independent; memory partitioning directly buys II).

use ecoscale_hls::KernelArgs;
use ecoscale_sim::SimRng;

use crate::hints;
use std::collections::HashMap;

/// `y[i] = Σ_k h[k] · x[i+k]` over `n` outputs with `taps` coefficients.
pub const KERNEL: &str = "kernel fir(in float x[], in float h[], out float y[], int n, int taps) {
    for (i in 0 .. n) {
        acc = 0.0;
        for (k in 0 .. taps) {
            acc = acc + h[k] * x[i + k];
        }
        y[i] = acc;
    }
}";

/// HLS scalar hints.
pub fn kernel_hints(n: u64, taps: u64) -> HashMap<String, f64> {
    hints(&[("n", n as f64), ("taps", taps as f64)])
}

/// Generates an input signal of `n + taps` samples and `taps`
/// normalized coefficients.
pub fn generate(n: usize, taps: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
    let mut rng = SimRng::seed_from(seed);
    let x = (0..n + taps)
        .map(|_| rng.gen_range_f64(-1.0, 1.0))
        .collect();
    let mut h: Vec<f64> = (0..taps).map(|_| rng.gen_range_f64(0.0, 1.0)).collect();
    let sum: f64 = h.iter().sum();
    for c in &mut h {
        *c /= sum;
    }
    (x, h)
}

/// Reference convolution.
pub fn reference(x: &[f64], h: &[f64], n: usize) -> Vec<f64> {
    assert!(x.len() >= n + h.len(), "signal too short");
    (0..n)
        .map(|i| h.iter().enumerate().map(|(k, &c)| c * x[i + k]).sum())
        .collect()
}

/// Binds kernel arguments.
pub fn bind_args(x: &[f64], h: &[f64], n: usize) -> KernelArgs {
    bind_owned(x.to_vec(), h.to_vec(), n)
}

/// [`bind_args`], taking the buffers instead of copying them.
pub fn bind_owned(x: Vec<f64>, h: Vec<f64>, n: usize) -> KernelArgs {
    let taps = h.len();
    let mut args = KernelArgs::new();
    args.bind_array("x", x)
        .bind_array("h", h)
        .bind_array("y", vec![0.0; n])
        .bind_scalar("n", n as f64)
        .bind_scalar("taps", taps as f64);
    args
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecoscale_hls::parse_kernel;

    #[test]
    fn kernel_matches_reference() {
        let (x, h) = generate(64, 8, 3);
        let k = parse_kernel(KERNEL).unwrap();
        let mut args = bind_args(&x, &h, 64);
        args.run(&k).unwrap();
        let want = reference(&x, &h, 64);
        for (g, r) in args.array("y").unwrap().iter().zip(&want) {
            assert!((g - r).abs() < 1e-12);
        }
    }

    #[test]
    fn normalized_taps_preserve_dc() {
        // a constant signal passes through a normalized filter unchanged
        let (_, h) = generate(16, 8, 5);
        let x = vec![3.0; 16 + 8];
        let y = reference(&x, &h, 16);
        for v in y {
            assert!((v - 3.0).abs() < 1e-9);
        }
    }

    #[test]
    fn dse_exploits_partitioning() {
        use ecoscale_fpga::Resources;
        use ecoscale_hls::Explorer;
        let k = parse_kernel(KERNEL).unwrap();
        let hints = kernel_hints(4096, 16);
        let ex = Explorer::new(Resources::new(8000, 256, 256));
        let best = ex.best(&k, &hints).unwrap().expect("fits");
        let naive = ecoscale_hls::estimate::estimate(
            &k,
            &hints,
            ecoscale_hls::HlsDirectives {
                unroll: 1,
                pipeline: false,
                partition: 1,
            },
            &ecoscale_hls::OpCosts::default(),
        )
        .unwrap();
        assert!(best.estimate.cycles * 4 < naive.cycles);
    }

    #[test]
    #[should_panic(expected = "signal too short")]
    fn reference_checks_signal_length() {
        reference(&[1.0; 10], &[0.5; 4], 10);
    }
}
