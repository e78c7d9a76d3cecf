//! Grid-independent certificate of a clustering's output.
//!
//! For final coordinates `coords` and labels `labels` it checks:
//!
//! 1. every cluster's point MBR has a diagonal of at most ε/2, so any two
//!    points of one cluster are within ε/2 of each other;
//! 2. any two points of different clusters are more than ε apart.
//!
//! Together these certify term 1 of Definition 4.2 (no pair at distance in
//! `(ε/2, ε]`) and that the labels are exactly the ε-connected components
//! of the final coordinates. Step 2 searches an R-tree over the cluster
//! MBR centers — a different index from the grid under test — and falls
//! back to point pairs only for MBR pairs within ε.
//!
//! Distances use the library's `squared_euclidean` compared against
//! `ε²`, the same closed-ball test as the engine. Rounding is monotone, so
//! a computed MBR gap never exceeds the computed distance of a point pair
//! inside the two boxes, and a computed MBR diagonal never falls below a
//! computed in-box pair distance: the MBR shortcuts are sound for the
//! point-pair predicate.

use egg_spatial::distance::squared_euclidean;
use egg_spatial::RTree;

/// Check `labels` against `coords` (row-major, `dim` columns) for radius
/// `epsilon`. Returns a description of the first violation found.
pub fn certify(coords: &[f64], dim: usize, labels: &[u32], epsilon: f64) -> Result<(), String> {
    let n = labels.len();
    if coords.len() != n * dim {
        return Err(format!(
            "{} coordinates for {n} labels of dimension {dim}",
            coords.len()
        ));
    }
    let row = |p: usize| &coords[p * dim..(p + 1) * dim];
    if let Some(p) = (0..n).find(|&p| row(p).iter().any(|x| !x.is_finite())) {
        return Err(format!("point {p} has a non-finite final coordinate"));
    }

    // points grouped by label (labels need not be dense)
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_unstable_by_key(|&p| labels[p as usize]);
    let mut starts = vec![0usize];
    for i in 1..n {
        if labels[order[i] as usize] != labels[order[i - 1] as usize] {
            starts.push(i);
        }
    }
    starts.push(n);
    let clusters = starts.len() - 1;
    if n == 0 {
        return Ok(());
    }
    let members = |c: usize| &order[starts[c]..starts[c + 1]];

    // 1. per-cluster MBR, diagonal ≤ ε/2
    let half_sq = (epsilon / 2.0) * (epsilon / 2.0);
    let mut lo = vec![f64::INFINITY; clusters * dim];
    let mut hi = vec![f64::NEG_INFINITY; clusters * dim];
    for c in 0..clusters {
        for &p in members(c) {
            for (i, &x) in row(p as usize).iter().enumerate() {
                lo[c * dim + i] = lo[c * dim + i].min(x);
                hi[c * dim + i] = hi[c * dim + i].max(x);
            }
        }
        let (l, h) = (&lo[c * dim..(c + 1) * dim], &hi[c * dim..(c + 1) * dim]);
        let diag_sq = squared_euclidean(l, h);
        if diag_sq > half_sq {
            return Err(format!(
                "cluster with label {} spans an MBR diagonal of {} > ε/2 = {}",
                labels[members(c)[0] as usize],
                diag_sq.sqrt(),
                epsilon / 2.0
            ));
        }
    }

    // 2. clusters pairwise > ε apart: R-tree over MBR centers. Two MBRs
    // within ε have centers within ε + r_a + r_b (r = half diagonal).
    let eps_sq = epsilon * epsilon;
    let centers: Vec<f64> = lo.iter().zip(&hi).map(|(l, h)| 0.5 * (l + h)).collect();
    let radius = |c: usize| {
        0.5 * squared_euclidean(&lo[c * dim..(c + 1) * dim], &hi[c * dim..(c + 1) * dim]).sqrt()
    };
    let r_max = (0..clusters).map(radius).fold(0.0, f64::max);
    let tree = RTree::bulk_load(&centers, dim, 16);
    let mut violation = None;
    for a in 0..clusters {
        let reach = (epsilon + radius(a) + r_max) * (1.0 + 1e-9) + 1e-12;
        tree.for_each_in_ball(&centers[a * dim..(a + 1) * dim], reach, |b, _| {
            let b = b as usize;
            if b <= a || violation.is_some() {
                return;
            }
            let gap_sq: f64 = (0..dim)
                .map(|i| {
                    let (ia, ib) = (a * dim + i, b * dim + i);
                    let gap = (lo[ia] - hi[ib]).max(lo[ib] - hi[ia]).max(0.0);
                    gap * gap
                })
                .sum();
            if gap_sq > eps_sq {
                return;
            }
            for &p in members(a) {
                for &q in members(b) {
                    if squared_euclidean(row(p as usize), row(q as usize)) <= eps_sq {
                        violation = Some((p, q));
                        return;
                    }
                }
            }
        });
        if let Some((p, q)) = violation {
            return Err(format!(
                "points {p} and {q} are within ε but labelled {} and {}",
                labels[p as usize], labels[q as usize]
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::mixture;
    use egg_data::metrics::same_partition;
    use egg_sync_core::model::{criterion_term1_met, gather_exact};
    use egg_sync_core::{ClusterAlgorithm, EggSync};

    const EPS: f64 = 0.05;

    /// The brute-force reading of what `certify` claims: term 1 of
    /// Definition 4.2 holds and the labels are the ε-components.
    fn brute(coords: &[f64], dim: usize, labels: &[u32]) -> bool {
        criterion_term1_met(coords, dim, EPS)
            && same_partition(labels, &gather_exact(coords, dim, EPS))
    }

    #[test]
    fn agrees_with_brute_force_on_converged_runs() {
        for (seed, dim) in [(1u64, 2usize), (2, 2), (3, 3), (4, 5)] {
            let data = mixture(240, dim, 4, 5.0, 60.0, seed);
            let out = EggSync::host(EPS, Some(2)).cluster(&data);
            assert!(out.converged);
            let coords = out.final_coords.coords();
            assert!(brute(coords, dim, &out.labels), "seed {seed}");
            assert_eq!(
                certify(coords, dim, &out.labels, EPS),
                Ok(()),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn never_accepts_what_brute_force_rejects() {
        // stopped early, the grid's cell labels are not yet a valid
        // clustering; whatever `certify` accepts must pass brute force
        let mut rejected = 0;
        for seed in 1u64..=4 {
            let data = mixture(240, 2, 4, 5.0, 60.0, seed);
            for cap in 1..=3 {
                let mut algo = EggSync::host(EPS, Some(2));
                algo.max_iterations = cap;
                let out = algo.cluster(&data);
                let coords = out.final_coords.coords();
                let certified = certify(coords, 2, &out.labels, EPS).is_ok();
                assert!(
                    !certified || brute(coords, 2, &out.labels),
                    "seed {seed} cap {cap}"
                );
                rejected += usize::from(!certified);
            }
        }
        assert!(rejected > 0, "no early stop produced an invalid state");
    }

    #[test]
    fn rejects_corrupted_labellings() {
        let data = mixture(240, 2, 4, 5.0, 60.0, 7);
        let out = EggSync::host(EPS, Some(2)).cluster(&data);
        let coords = out.final_coords.coords();
        assert!(out.num_clusters >= 2);

        // two separate clusters merged under one label
        let merged: Vec<u32> = out.labels.iter().map(|&l| l.min(1)).collect();
        assert!(!brute(coords, 2, &merged));
        assert!(certify(coords, 2, &merged, EPS).is_err());

        // one synchronized cluster split in two
        let sizes = out.cluster_sizes();
        let big = (0..sizes.len())
            .max_by_key(|&l| sizes[l])
            .expect("a cluster") as u32;
        assert!(sizes[big as usize] >= 2);
        let mut split = out.labels.clone();
        let first = split.iter().position(|&l| l == big).expect("a member");
        split[first] = u32::MAX;
        assert!(!brute(coords, 2, &split));
        assert!(certify(coords, 2, &split, EPS).is_err());
    }
}
