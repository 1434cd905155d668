//! Black–Scholes European option pricing (closed form).
//!
//! The financial workload family the paper cites for Maxeler-style
//! acceleration \[18\]: embarrassingly parallel, transcendental-dense —
//! exactly the profile where a pipelined datapath crushes a scalar core.

use ecoscale_hls::KernelArgs;
use ecoscale_sim::SimRng;

use crate::hints;
use std::collections::HashMap;

/// Black–Scholes call pricing as an HLS kernel.
///
/// The normal CDF is approximated with the logistic function
/// `1 / (1 + exp(-1.702 x))` (max error ≈ 0.01), keeping the kernel
/// within the language's intrinsics; the reference uses the same
/// approximation so hardware and software agree bit-for-bit.
pub const KERNEL: &str = "kernel blackscholes(in float spot[], in float strike[], out float price[], float r, float sigma, float t, int n) {
    for (i in 0 .. n) {
        s = spot[i];
        k = strike[i];
        d1 = (log(s / k) + (r + 0.5 * sigma * sigma) * t) / (sigma * sqrt(t));
        d2 = d1 - sigma * sqrt(t);
        nd1 = 1.0 / (1.0 + exp(0.0 - 1.702 * d1));
        nd2 = 1.0 / (1.0 + exp(0.0 - 1.702 * d2));
        price[i] = s * nd1 - k * exp(0.0 - r * t) * nd2;
    }
}";

/// HLS scalar hints.
pub fn kernel_hints(n: u64) -> HashMap<String, f64> {
    hints(&[("n", n as f64), ("r", 0.02), ("sigma", 0.3), ("t", 1.0)])
}

/// Generates `n` (spot, strike) pairs.
pub fn generate(n: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
    let mut rng = SimRng::seed_from(seed);
    let spots = (0..n).map(|_| rng.gen_range_f64(50.0, 150.0)).collect();
    let strikes = (0..n).map(|_| rng.gen_range_f64(50.0, 150.0)).collect();
    (spots, strikes)
}

fn logistic_cdf(x: f64) -> f64 {
    1.0 / (1.0 + (-1.702 * x).exp())
}

/// Reference pricing with the same CDF approximation as the kernel.
pub fn reference(spots: &[f64], strikes: &[f64], r: f64, sigma: f64, t: f64) -> Vec<f64> {
    assert_eq!(spots.len(), strikes.len());
    spots
        .iter()
        .zip(strikes)
        .map(|(&s, &k)| {
            let d1 = ((s / k).ln() + (r + 0.5 * sigma * sigma) * t) / (sigma * t.sqrt());
            let d2 = d1 - sigma * t.sqrt();
            s * logistic_cdf(d1) - k * (-r * t).exp() * logistic_cdf(d2)
        })
        .collect()
}

/// Binds kernel arguments.
pub fn bind_args(spots: &[f64], strikes: &[f64], r: f64, sigma: f64, t: f64) -> KernelArgs {
    bind_owned(spots.to_vec(), strikes.to_vec(), r, sigma, t)
}

/// [`bind_args`], taking the buffers instead of copying them.
pub fn bind_owned(spots: Vec<f64>, strikes: Vec<f64>, r: f64, sigma: f64, t: f64) -> KernelArgs {
    let n = spots.len();
    let mut args = KernelArgs::new();
    args.bind_array("spot", spots)
        .bind_array("strike", strikes)
        .bind_array("price", vec![0.0; n])
        .bind_scalar("r", r)
        .bind_scalar("sigma", sigma)
        .bind_scalar("t", t)
        .bind_scalar("n", n as f64);
    args
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecoscale_hls::parse_kernel;

    #[test]
    fn kernel_matches_reference() {
        let n = 64;
        let (s, k) = generate(n, 5);
        let kern = parse_kernel(KERNEL).unwrap();
        let mut args = bind_args(&s, &k, 0.02, 0.3, 1.0);
        args.run(&kern).unwrap();
        let expect = reference(&s, &k, 0.02, 0.3, 1.0);
        for (g, r) in args.array("price").unwrap().iter().zip(&expect) {
            assert!((g - r).abs() < 1e-9, "{g} vs {r}");
        }
    }

    #[test]
    fn deep_in_the_money_approaches_intrinsic() {
        // spot far above strike: price ≈ s - k·e^{-rt}
        let p = reference(&[200.0], &[50.0], 0.02, 0.2, 1.0)[0];
        let intrinsic = 200.0 - 50.0 * (-0.02f64).exp();
        assert!((p - intrinsic).abs() < 1.0);
    }

    #[test]
    fn price_increases_with_volatility_at_the_money() {
        let lo = reference(&[100.0], &[100.0], 0.02, 0.1, 1.0)[0];
        let hi = reference(&[100.0], &[100.0], 0.02, 0.6, 1.0)[0];
        assert!(hi > lo);
    }

    #[test]
    fn prices_are_positive_within_cdf_error_and_below_spot() {
        // the logistic CDF approximation has ≈1% absolute error, so deep
        // out-of-the-money prices can dip slightly below zero
        let (s, k) = generate(256, 11);
        for (p, &spot) in reference(&s, &k, 0.02, 0.3, 1.0).iter().zip(&s) {
            assert!(*p > -1.5, "price {p} beyond approximation error");
            assert!(*p < spot);
        }
    }
}
