//! Input-dependent execution-time and energy prediction models.
//!
//! §4.2: ECOSCALE builds "input-dependent models of execution time and
//! energy to select the best device to execute a function", trained on
//! recorded runs and applied to unseen inputs. This module provides the
//! regression family ([`LinearModel`], ridge-regularized least squares
//! over the feature vector) and an instance-based fallback
//! ([`KnnPredictor`]) for small histories, both behind the [`Predictor`]
//! trait the scheduler consumes.

use crate::device::DeviceClass;
use crate::history::ExecutionHistory;

use ecoscale_sim::Duration;

/// A trainable scalar predictor over feature vectors.
pub trait Predictor {
    /// Fits the model on `(features, target)` pairs. A model may refuse
    /// (keep its previous state) if the data is insufficient.
    fn fit(&mut self, xs: &[Vec<f64>], ys: &[f64]);

    /// Predicts the target for `x`, or `None` if the model is unfitted.
    fn predict(&self, x: &[f64]) -> Option<f64>;
}

/// Ridge-regularized linear least squares with a bias term.
///
/// # Example
///
/// ```
/// use ecoscale_runtime::{LinearModel, Predictor};
///
/// // y = 3 + 2·x
/// let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
/// let ys: Vec<f64> = (0..20).map(|i| 3.0 + 2.0 * i as f64).collect();
/// let mut m = LinearModel::new();
/// m.fit(&xs, &ys);
/// let y = m.predict(&[100.0]).expect("fitted");
/// assert!((y - 203.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Default)]
pub struct LinearModel {
    /// weights\[0\] = bias, weights[1..] = per-feature slopes
    weights: Vec<f64>,
}

impl LinearModel {
    /// Creates an unfitted model.
    pub fn new() -> LinearModel {
        LinearModel::default()
    }

    /// The fitted weights (bias first), empty when unfitted.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }
}

/// Solves `A·w = b` in place by Gaussian elimination with partial
/// pivoting. Returns `None` for singular systems.
fn solve(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Option<Vec<f64>> {
    let n = b.len();
    for col in 0..n {
        // pivot
        let (pivot, max) = (col..n)
            .map(|r| (r, a[r][col].abs()))
            .max_by(|x, y| x.1.partial_cmp(&y.1).expect("no NaN in normal matrix"))?;
        if max < 1e-12 {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        let (pivot_rows, elim_rows) = a.split_at_mut(col + 1);
        let prow = &pivot_rows[col];
        for (off, row) in elim_rows.iter_mut().enumerate() {
            let f = row[col] / prow[col];
            for (x, p) in row[col..].iter_mut().zip(&prow[col..]) {
                *x -= f * p;
            }
            b[col + 1 + off] -= f * b[col];
        }
    }
    let mut w = vec![0.0; n];
    for r in (0..n).rev() {
        let mut acc = b[r];
        for c in (r + 1)..n {
            acc -= a[r][c] * w[c];
        }
        w[r] = acc / a[r][r];
    }
    Some(w)
}

/// Ridge-regularised least-squares weights (bias first) for `rows` of
/// (features, target): the normal equations summed in row order, then
/// solved. `None` when there are no rows, fewer rows than unknowns, or
/// the normal matrix is singular.
fn ridge_weights<'a>(
    rows: impl ExactSizeIterator<Item = (&'a [f64], f64)> + Clone,
) -> Option<Vec<f64>> {
    let d = rows.clone().next()?.0.len() + 1; // bias
    if rows.len() < d {
        return None; // underdetermined
    }
    let lambda = 1e-8;
    let mut ata = vec![vec![0.0; d]; d];
    let mut atb = vec![0.0; d];
    for (x, y) in rows {
        assert_eq!(x.len() + 1, d, "inconsistent feature dimension");
        let row = |i: usize| if i == 0 { 1.0 } else { x[i - 1] };
        for (i, (ata_i, atb_i)) in ata.iter_mut().zip(&mut atb).enumerate() {
            for (j, a) in ata_i.iter_mut().enumerate() {
                *a += row(i) * row(j);
            }
            *atb_i += row(i) * y;
        }
    }
    for (i, row) in ata.iter_mut().enumerate() {
        row[i] += lambda;
    }
    solve(ata, atb)
}

/// The linear prediction `weights[0] + Σ weights[1..] · x`.
fn linear_predict(weights: &[f64], x: &[f64]) -> f64 {
    assert_eq!(x.len() + 1, weights.len(), "feature dimension mismatch");
    let mut y = weights[0];
    for (w, v) in weights[1..].iter().zip(x) {
        y += w * v;
    }
    y
}

/// The mean target of the `k` rows nearest `x` (Euclidean, ties to the
/// earlier row), or `None` without rows.
fn knn_mean<'a>(k: usize, rows: impl Iterator<Item = (&'a [f64], f64)>, x: &[f64]) -> Option<f64> {
    let mut dists: Vec<(f64, f64)> = rows
        .map(|(xi, yi)| {
            let d: f64 = xi.iter().zip(x).map(|(a, b)| (a - b) * (a - b)).sum();
            (d, yi)
        })
        .collect();
    if dists.is_empty() {
        return None;
    }
    dists.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("no NaN distances"));
    let k = k.min(dists.len());
    Some(dists[..k].iter().map(|(_, y)| y).sum::<f64>() / k as f64)
}

impl Predictor for LinearModel {
    fn fit(&mut self, xs: &[Vec<f64>], ys: &[f64]) {
        assert_eq!(xs.len(), ys.len(), "feature/target length mismatch");
        // refused: keep previous weights
        if let Some(w) = ridge_weights(xs.iter().map(Vec::as_slice).zip(ys.iter().copied())) {
            self.weights = w;
        }
    }

    fn predict(&self, x: &[f64]) -> Option<f64> {
        if self.weights.is_empty() {
            return None;
        }
        Some(linear_predict(&self.weights, x))
    }
}

/// k-nearest-neighbour prediction (Euclidean distance, mean of the k
/// nearest targets). Useful before enough samples accumulate for
/// regression.
#[derive(Debug, Clone)]
pub struct KnnPredictor {
    k: usize,
    xs: Vec<Vec<f64>>,
    ys: Vec<f64>,
}

impl KnnPredictor {
    /// Creates a k-NN predictor.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn new(k: usize) -> KnnPredictor {
        assert!(k > 0, "k must be positive");
        KnnPredictor {
            k,
            xs: Vec::new(),
            ys: Vec::new(),
        }
    }
}

impl Predictor for KnnPredictor {
    fn fit(&mut self, xs: &[Vec<f64>], ys: &[f64]) {
        assert_eq!(xs.len(), ys.len());
        self.xs = xs.to_vec();
        self.ys = ys.to_vec();
    }

    fn predict(&self, x: &[f64]) -> Option<f64> {
        let rows = self
            .xs
            .iter()
            .map(Vec::as_slice)
            .zip(self.ys.iter().copied());
        knn_mean(self.k, rows, x)
    }
}

/// Predicts the execution time of `(function, device)` for `features`
/// from the history: regression when ≥ 8 samples, k-NN (k = 3) when
/// ≥ 1 or when regression is refused, `None` on an empty history.
///
/// The key's ridge fit is cached in the history until the key next
/// records, so repeated predictions between records refit nothing. Both
/// models read the samples in place, oldest first: the same bits as a
/// fresh [`LinearModel`] or [`KnnPredictor`] fitted on them.
pub fn predict_time(
    history: &mut ExecutionHistory,
    function: &str,
    device: DeviceClass,
    features: &[f64],
) -> Option<Duration> {
    let key = history.key_mut(function, device)?;
    let rows = || {
        key.samples
            .iter()
            .map(|s| (s.features.as_slice(), s.time.as_ns_f64()))
    };
    let linear = if key.samples.len() >= 8 {
        key.fit
            .get_or_insert_with(|| ridge_weights(rows()))
            .as_deref()
            .map(|w| linear_predict(w, features))
    } else {
        None
    };
    linear
        .or_else(|| knn_mean(3, rows(), features))
        .map(|y| Duration::from_ns_f64(y.max(0.0)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecoscale_sim::Energy;

    #[test]
    fn linear_recovers_plane() {
        // y = 1 + 2a + 3b
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for a in 0..6 {
            for b in 0..6 {
                xs.push(vec![a as f64, b as f64]);
                ys.push(1.0 + 2.0 * a as f64 + 3.0 * b as f64);
            }
        }
        let mut m = LinearModel::new();
        m.fit(&xs, &ys);
        assert!((m.predict(&[10.0, 10.0]).unwrap() - 51.0).abs() < 1e-6);
        let w = m.weights();
        assert!((w[0] - 1.0).abs() < 1e-6);
        assert!((w[1] - 2.0).abs() < 1e-6);
        assert!((w[2] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn linear_unfitted_returns_none() {
        let m = LinearModel::new();
        assert_eq!(m.predict(&[1.0]), None);
    }

    #[test]
    fn linear_refuses_underdetermined() {
        let mut m = LinearModel::new();
        m.fit(&[vec![1.0, 2.0]], &[3.0]); // 1 sample, 3 unknowns
        assert_eq!(m.predict(&[1.0, 2.0]), None);
    }

    #[test]
    fn linear_handles_noise() {
        // y ≈ 5x with small deterministic perturbation
        let xs: Vec<Vec<f64>> = (1..40).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> = (1..40)
            .map(|i| 5.0 * i as f64 + ((i * 7919) % 13) as f64 * 0.01)
            .collect();
        let mut m = LinearModel::new();
        m.fit(&xs, &ys);
        let y = m.predict(&[100.0]).unwrap();
        assert!((y - 500.0).abs() < 2.0, "prediction {y}");
    }

    #[test]
    fn knn_interpolates() {
        let mut knn = KnnPredictor::new(2);
        knn.fit(&[vec![0.0], vec![10.0], vec![20.0]], &[0.0, 100.0, 200.0]);
        // nearest to 11: 10 -> 100 and 20 -> 200; mean 150
        assert_eq!(knn.predict(&[11.0]), Some(150.0));
        // exact hit dominated by k=2 mean
        let one = KnnPredictor::new(1);
        assert_eq!(one.predict(&[5.0]), None); // unfitted
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn knn_zero_k_rejected() {
        KnnPredictor::new(0);
    }

    #[test]
    fn predict_time_uses_history() {
        let mut h = ExecutionHistory::new(64);
        // linear relation: time_ns = 100 * size
        for size in 1..=20u64 {
            h.record(
                "f",
                DeviceClass::Cpu,
                &[size as f64],
                Duration::from_ns(100 * size),
                Energy::ZERO,
            );
        }
        let t = predict_time(&mut h, "f", DeviceClass::Cpu, &[50.0]).unwrap();
        assert!((t.as_ns_f64() - 5000.0).abs() < 10.0);
        // unknown function: None
        assert!(predict_time(&mut h, "g", DeviceClass::Cpu, &[1.0]).is_none());
    }

    #[test]
    fn predict_time_small_history_falls_back_to_knn() {
        let mut h = ExecutionHistory::new(64);
        h.record(
            "f",
            DeviceClass::FpgaLocal,
            &[8.0],
            Duration::from_us(8),
            Energy::ZERO,
        );
        h.record(
            "f",
            DeviceClass::FpgaLocal,
            &[16.0],
            Duration::from_us(16),
            Energy::ZERO,
        );
        let t = predict_time(&mut h, "f", DeviceClass::FpgaLocal, &[12.0]).unwrap();
        assert!(t >= Duration::from_us(8) && t <= Duration::from_us(16));
    }

    #[test]
    fn solve_detects_singular() {
        let a = vec![vec![1.0, 2.0], vec![2.0, 4.0]];
        assert!(solve(a, vec![1.0, 2.0]).is_none());
    }
}
