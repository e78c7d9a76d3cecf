//! The four benchmark workloads and their seeded input generators.
//!
//! Every input is a pure function of the workload and the `--seed`
//! argument. The Gaussian mixtures draw their centers by rejection
//! sampling with a minimum pairwise separation, so no seed places two
//! clusters within merging range: every seed stays in its workload's
//! regime (iteration band and dominant layer).

use egg_data::Dataset;
use egg_spatial::distance::squared_euclidean;
use egg_sync_core::EggSync;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Normal};

/// Host executor workers, or simulated-device host threads, of every
/// end-to-end timing. On a 2-vCPU machine every multi-worker dispatch
/// waits for the slower vCPU, and the simulator's shared counter atomics
/// make two host threads bimodal, so timings on more than one worker
/// measure the host's scheduling as much as the program.
pub const WORKERS: usize = 1;

/// Workers of the traced run's extra pass, for per-layer parallel
/// efficiency and the executor metrics.
pub const PAR_WORKERS: usize = 2;

/// Which engine a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// `EggSync::host`: the host execution engine.
    Host,
    /// `EggSync::new`: the default simulated-GPU backend.
    Device,
}

/// How a workload's points are generated.
#[derive(Debug, Clone, Copy)]
pub enum Shape {
    /// A Gaussian mixture in the style of Beer et al., min/max-normalized.
    Mixture {
        n: usize,
        dim: usize,
        clusters: usize,
        std_dev: f64,
        /// Minimum Euclidean distance between two centers, raw units.
        min_separation: f64,
        /// Isolated ε-pairs added after normalization (see [`plant_pairs`]);
        /// they are part of `n`.
        planted_pairs: usize,
    },
    /// Two tight blobs joined by a small bridge blob (the Skin proxy's
    /// geometry), laid out in `[0, 1]^3` and not renormalized.
    Bridge { n: usize },
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub engine: Engine,
    pub shape: Shape,
    pub epsilon: f64,
}

/// Center range of the mixtures: the paper's −100..100.
const RANGE: (f64, f64) = (-100.0, 100.0);

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "gauss2d_pairs",
        engine: Engine::Host,
        shape: Shape::Mixture {
            n: 16_000,
            dim: 2,
            clusters: 5,
            std_dev: 5.0,
            min_separation: 60.0,
            planted_pairs: 0,
        },
        epsilon: 0.05,
    },
    Workload {
        name: "skin3d_bridge",
        engine: Engine::Host,
        shape: Shape::Bridge { n: 30_632 },
        epsilon: 0.05,
    },
    Workload {
        name: "letter16_check",
        engine: Engine::Host,
        shape: Shape::Mixture {
            n: 5_000,
            dim: 16,
            clusters: 26,
            std_dev: 7.5,
            min_separation: 90.0,
            planted_pairs: 2,
        },
        epsilon: 0.05,
    },
    Workload {
        name: "device_gauss2d",
        engine: Engine::Device,
        shape: Shape::Mixture {
            n: 4_000,
            dim: 2,
            clusters: 5,
            std_dev: 5.0,
            min_separation: 60.0,
            planted_pairs: 0,
        },
        epsilon: 0.05,
    },
];

impl Workload {
    /// Look a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The algorithm on `workers` workers: exactly what a library user
    /// (or `egg-sync-cli cluster`, for the device workload) constructs.
    pub fn algorithm(&self, workers: usize) -> EggSync {
        let mut algo = match self.engine {
            Engine::Host => EggSync::host(self.epsilon, None),
            Engine::Device => EggSync::new(self.epsilon),
        };
        algo.threads = Some(workers);
        algo
    }

    /// Whether the input is ingested with min/max normalization, as
    /// `egg-sync-cli cluster` does by default. The bridge geometry is laid
    /// out at its ε scale and is ingested as with `--no-normalize`.
    pub fn normalize(&self) -> bool {
        matches!(self.shape, Shape::Mixture { .. })
    }

    /// Generate the workload's input for `seed`.
    pub fn generate(&self, seed: u64) -> Dataset {
        match self.shape {
            Shape::Mixture {
                n,
                dim,
                clusters,
                std_dev,
                min_separation,
                planted_pairs,
            } => {
                let base = mixture(
                    n - planted_pairs,
                    dim,
                    clusters,
                    std_dev,
                    min_separation,
                    seed,
                );
                plant_pairs(base, planted_pairs, self.epsilon, seed)
            }
            Shape::Bridge { n } => bridge(n, seed),
        }
    }
}

/// Gaussian mixture with rejection-sampled, well-separated centers; points
/// are dealt round-robin over the clusters, then min/max-normalized.
///
/// Offsets are truncated at [`TRUNCATE_SIGMAS`]·σ per coordinate by
/// redrawing: a stray tail point a little under ε from its collapsed
/// cluster takes extra iterations to be pulled in, which made the
/// iteration count of the 2-d mixture vary between 4 and 6 across seeds.
pub fn mixture(
    n: usize,
    dim: usize,
    clusters: usize,
    std_dev: f64,
    min_separation: f64,
    seed: u64,
) -> Dataset {
    let mut layout = StdRng::seed_from_u64(LAYOUT_SEED);
    let centers = separated_centers(&mut layout, dim, clusters, min_separation);
    let mut rng = StdRng::seed_from_u64(seed);
    let normal = Normal::new(0.0, std_dev).expect("finite, non-negative σ");
    let limit = TRUNCATE_SIGMAS * std_dev;
    let mut coords = Vec::with_capacity(n * dim);
    for i in 0..n {
        for &c in &centers[i % clusters] {
            let mut x = normal.sample(&mut rng);
            while x.abs() > limit {
                x = normal.sample(&mut rng);
            }
            coords.push(c + x);
        }
    }
    Dataset::from_coords(coords, dim).normalized()
}

/// Add `pairs` points, each at 0.75ε from a distinct point of `data`, with
/// both points of a pair more than 2ε from every other point. Each pair is
/// then an isolated ε-pair at a distance in (ε/2, ε]: it fails term 1 of
/// Definition 4.2 once, collapses in one update, and moves nothing else.
/// In a mixture spread too widely to have ε-pairs of its own, every seed
/// thus has the same number of moving points. With chance pairs instead,
/// their number followed the seed, and so did the cells the second update
/// recomputes: the 16-d update time varied by 35% between seeds. Partners
/// lie strictly inside the unit box, so min/max normalization leaves the
/// data unchanged.
fn plant_pairs(data: Dataset, pairs: usize, epsilon: f64, seed: u64) -> Dataset {
    let dim = data.dim();
    let base = data.len();
    let mut coords = data.coords().to_vec();
    let mut rng = StdRng::seed_from_u64(!seed);
    let normal = Normal::new(0.0, 1.0).expect("finite σ");
    let far_sq = (2.0 * epsilon) * (2.0 * epsilon);
    // every point but `skip` is more than 2ε from `x`
    let isolated = |coords: &[f64], x: &[f64], skip: usize| {
        coords
            .chunks_exact(dim)
            .enumerate()
            .all(|(j, y)| j == skip || squared_euclidean(x, y) > far_sq)
    };
    let mut planted = 0;
    while planted < pairs {
        let p = rng.gen_range(0..base);
        let anchor = coords[p * dim..(p + 1) * dim].to_vec();
        let u: Vec<f64> = (0..dim).map(|_| normal.sample(&mut rng)).collect();
        let norm = u.iter().map(|x| x * x).sum::<f64>().sqrt();
        let partner: Vec<f64> = anchor
            .iter()
            .zip(&u)
            .map(|(a, b)| a + 0.75 * epsilon * b / norm)
            .collect();
        if partner.iter().all(|&x| x > 0.0 && x < 1.0)
            && isolated(&coords, &anchor, p)
            && isolated(&coords, &partner, p)
        {
            coords.extend_from_slice(&partner);
            planted += 1;
        }
    }
    Dataset::from_coords(coords, dim)
}

/// Seed of the mixtures' center layouts. The benchmark seed draws the
/// points; the layout is fixed, because where the modes sit relative to
/// the grid's cells sets how many cells a reach walk and the termination
/// scan visit: with a layout drawn from the benchmark seed, the 16-d update
/// and termination times differed by 25% between seeds.
const LAYOUT_SEED: u64 = 0x5eed;

/// Per-coordinate truncation of the mixture offsets, in σ.
pub const TRUNCATE_SIGMAS: f64 = 3.0;

/// Draw `k` centers uniformly in the range (minus a 10% margin per side)
/// such that every pair is at least `min_sep` apart, then stretch every
/// dimension so the layout spans exactly that range. Stretching only
/// separates centers further. Fixing the span fixes the min/max
/// normalization: with a clumped layout σ is wider relative to ε, and the
/// pair-term work varied by up to 30% between seeds.
fn separated_centers(rng: &mut StdRng, dim: usize, k: usize, min_sep: f64) -> Vec<Vec<f64>> {
    let (lo, hi) = RANGE;
    let margin = (hi - lo) * 0.1;
    let (lo, hi) = (lo + margin, hi - margin);
    let min_sq = min_sep * min_sep;
    let mut centers: Vec<Vec<f64>> = Vec::with_capacity(k);
    while centers.len() < k {
        let mut rejected = 0usize;
        centers.clear();
        // an unlucky early layout can block the rest: start over
        while centers.len() < k && rejected < 10_000 {
            let c: Vec<f64> = (0..dim).map(|_| rng.gen_range(lo..hi)).collect();
            let clear = centers.iter().all(|o| {
                o.iter()
                    .zip(&c)
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum::<f64>()
                    >= min_sq
            });
            if clear {
                centers.push(c);
            } else {
                rejected += 1;
            }
        }
    }
    for d in 0..dim {
        let (mn, mx) = centers.iter().fold((f64::MAX, f64::MIN), |(mn, mx), c| {
            (mn.min(c[d]), mx.max(c[d]))
        });
        if mx > mn {
            for c in &mut centers {
                c[d] = lo + (c[d] - mn) * (hi - lo) / (mx - mn);
            }
        }
    }
    centers
}

/// The Skin proxy's bridge geometry, regenerated from `seed`: two σ = 0.003
/// blobs at x = 0.46 and x = 0.54 joined by a 0.5% bridge blob at 0.50.
/// Blob↔bridge gaps (0.04) are below ε = 0.05, blob↔blob (0.08) above it,
/// so the blobs merge only through the bridge's slow pull. At n = 30 632 a
/// 0.25% bridge (76 points) took 97 to 100 iterations depending on the
/// seed; the 0.5% one (153 points) takes 50 on 29 seeds in 30, 49 on the
/// other.
fn bridge(n: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let bridge = (n / 200).max(1);
    let blob = (n - bridge) / 2;
    let tight = Normal::new(0.0, 0.003).expect("finite σ");
    let mut coords = Vec::with_capacity(n * 3);
    for (cx, count) in [(0.46, blob), (0.50, bridge), (0.54, n - blob - bridge)] {
        for _ in 0..count {
            coords.push(cx + tight.sample(&mut rng));
            coords.push(0.5 + tight.sample(&mut rng));
            coords.push(0.5 + tight.sample(&mut rng));
        }
    }
    Dataset::from_coords(coords, 3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traced::{self, Pass};

    fn pass(w: &Workload, seed: u64) -> Pass {
        crate::traced_pass(w, &w.generate(seed), WORKERS)
    }

    fn share(p: &Pass, layer: &str) -> f64 {
        p.tracer.total(layer) / p.tracer.wall()
    }

    #[test]
    fn generation_is_a_pure_function_of_the_seed() {
        for w in WORKLOADS {
            let bits = |d: &Dataset| d.coords().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&w.generate(3)), bits(&w.generate(3)), "{}", w.name);
            assert_ne!(bits(&w.generate(3)), bits(&w.generate(4)), "{}", w.name);
        }
    }

    #[test]
    fn mixture_centers_are_separated_and_span_the_range() {
        for seed in 0..20 {
            let mut rng = StdRng::seed_from_u64(seed);
            let centers = separated_centers(&mut rng, 2, 5, 60.0);
            for (i, a) in centers.iter().enumerate() {
                for b in &centers[i + 1..] {
                    let d: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
                    assert!(d.sqrt() >= 60.0, "seed {seed}");
                }
            }
            for d in 0..2 {
                let (lo, hi) = centers.iter().fold((f64::MAX, f64::MIN), |(lo, hi), c| {
                    (lo.min(c[d]), hi.max(c[d]))
                });
                assert!((hi - lo - 160.0).abs() < 1e-9, "seed {seed} dimension {d}");
            }
        }
    }

    /// Every seed stays in its workload's regime: the same iteration
    /// band, and the layer the workload was chosen for dominates.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "full-size runs: use cargo test --release")]
    fn every_seed_stays_in_its_regime() {
        let expected = [
            ("gauss2d_pairs", 4..=4),
            ("skin3d_bridge", 49..=50),
            ("letter16_check", 2..=2),
            ("device_gauss2d", 4..=4),
        ];
        for (name, band) in expected {
            let w = Workload::by_name(name).expect("known workload");
            for seed in [1u64, 2, 3, 17, 4242] {
                let p = pass(&w, seed);
                let tag = format!("{name} seed {seed}");
                assert!(p.converged, "{tag}");
                assert!(
                    band.contains(&p.iterations),
                    "{tag}: {} iterations",
                    p.iterations
                );
                let (refresh, update) = (share(&p, traced::REFRESH), share(&p, traced::UPDATE));
                let (incremental, termination) = (
                    share(&p, traced::INCREMENTAL),
                    share(&p, traced::TERMINATION),
                );
                let launches = p.counters.gpu.map_or(0, |g| g.launches);
                match name {
                    "gauss2d_pairs" => {
                        assert!(update > 0.8, "{tag}: update {update}");
                        assert!(p.counters.update.point_pairs > 15_000_000, "{tag}");
                    }
                    "skin3d_bridge" => {
                        let share = refresh + incremental;
                        assert!(share >= 0.25, "{tag}: refresh+incremental {share}");
                    }
                    "letter16_check" => {
                        assert!(termination >= 0.3, "{tag}: termination {termination}");
                        assert_eq!(p.counters.update.point_pairs, 0, "{tag}");
                    }
                    _ => {
                        assert!(update > 0.8, "{tag}: update {update}");
                        assert!(launches > 0, "{tag}");
                    }
                }
                if w.engine == Engine::Host {
                    assert_eq!(launches, 0, "{tag}");
                }
            }
        }
    }
}
