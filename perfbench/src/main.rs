//! `perfbench` — the EGG-SynC benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it times `ClusterAlgorithm::cluster` from outside for
//! `--seconds` seconds and reports the end-to-end metrics; with
//! `--trace 1` it re-drives Algorithm 4 through the public layer functions
//! with spans around every call (see [`traced`]) and reports the
//! per-layer metrics. Every output is checked outside the timed window.
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

mod check;
mod machine;
mod traced;
mod workloads;

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use egg_data::io::{read_csv, write_csv};
use egg_data::metrics::same_partition;
use egg_data::Dataset;
use egg_gpu_sim::{Device, DeviceConfig};
use egg_sync_core::grid::GridGeometry;
use egg_sync_core::{ClusterAlgorithm, Clustering, EggSync};

use machine::json_str;
use traced::{DeviceBuffers, HostBuffers, Pass, Tracer};
use workloads::{Engine, Workload, PAR_WORKERS, WORKERS, WORKLOADS};

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

/// Timed repetitions a run makes at least, however short `--seconds` is.
const MIN_REPS: usize = 3;

/// CSV values ingested per `setup_s` sample: a sample times the
/// workload's CSV ingested back to back until about this many values were
/// parsed (~0.1 s), and reports the time per ingestion. One ingestion of a
/// small input takes a few milliseconds, too short to repeat from process
/// to process. One sample follows every timed call, so the samples are
/// spread over the whole run like the calls.
const VALUES_PER_SETUP_SAMPLE: usize = 800_000;

/// Allocation seconds per `setup_s` sample: the call's `Allocating` stage
/// (0.1–0.5 ms) is repeated until its allocations add up to this, and the
/// sample is the time per allocation.
const ALLOC_SECONDS_PER_SAMPLE: f64 = 0.05;

/// Share of a host traced pass's wall its layer spans must cover.
const MIN_COVERAGE: f64 = 0.95;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: '{value}' is not {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    let workload = Workload::by_name(&workload).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload '{workload}' (one of: {})",
            names.join(", ")
        )
    })?;
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The result of one workload run.
struct Outcome {
    attempted: u64,
    failed: u64,
    /// A check that is not about a single run (traced-span coverage).
    extra_ok: bool,
    metrics: Vec<Metric>,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.failed == 0 && self.extra_ok
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(m.name),
                    json_num(m.value),
                    json_str(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite number as JSON (Rust's shortest round-trip form); non-finite
/// values cannot appear in JSON and are reported as 0.
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_owned()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let forced = machine::forcing_vars_set();
    if !forced.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set: the benchmark measures the default engine",
            forced.join(", ")
        );
        return ExitCode::from(2);
    }
    let io_dir = match io_dir() {
        Ok(dir) => dir,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("machine: {}", machine::MachineTag::detect().to_json());

    let w = &args.workload;
    let outcome = match run_workload(w, &args, &io_dir) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", w.name);
            return ExitCode::FAILURE;
        }
    };
    for m in &outcome.metrics {
        println!("{}: {} = {} {}", w.name, m.name, json_num(m.value), m.unit);
    }
    println!("{}", outcome.to_json());
    ExitCode::SUCCESS
}

/// Directory for the span dump: next to the benchmark executable, inside
/// the build directory.
fn io_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate executable: {e}"))?;
    let dir = exe
        .parent()
        .ok_or("executable has no parent directory")?
        .join("perfbench-io");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

fn run_workload(w: &Workload, args: &Args, io_dir: &Path) -> Result<Outcome, String> {
    let mut input = Input::ingest(w, args.seed)?;
    if args.trace {
        traced_run(w, &mut input, args, io_dir)
    } else {
        end_to_end(w, &mut input, args.seconds)
    }
}

/// A workload's input as the CLI ingests it, and the `setup_s` samples.
struct Input {
    data: Dataset,
    /// The generated points as CSV text, in memory.
    csv: Vec<u8>,
    normalize: bool,
    /// Ingestions per `setup_s` sample.
    batch: usize,
    /// Seconds per ingestion, one entry per sample.
    ingest_s: Vec<f64>,
    /// Seconds per `Allocating` stage, one entry per sample.
    alloc_s: Vec<f64>,
}

impl Input {
    /// Generate the input and write it as CSV text. An ingestion is
    /// `read_csv` over those bytes, the parser of `egg-sync-cli` without
    /// the file system, followed by `Dataset::normalized` where the CLI
    /// normalizes. `f64` Display round-trips exactly and normalizing the
    /// generated (already normalized) mixtures is the identity, so the
    /// ingested input is bit-identical to the generated one; every
    /// ingestion is checked against it. The first one is untimed.
    fn ingest(w: &Workload, seed: u64) -> Result<Input, String> {
        let data = w.generate(seed);
        let mut csv = Vec::new();
        write_csv(&mut csv, &data, None).map_err(|e| format!("cannot write the CSV: {e}"))?;
        let values = data.coords().len().max(1);
        let input = Input {
            data,
            csv,
            normalize: w.normalize(),
            batch: VALUES_PER_SETUP_SAMPLE.div_ceil(values),
            ingest_s: Vec::new(),
            alloc_s: Vec::new(),
        };
        input.check(input.read()?)?;
        Ok(input)
    }

    fn read(&self) -> Result<Dataset, String> {
        let data =
            read_csv(black_box(&self.csv[..])).map_err(|e| format!("cannot parse the CSV: {e}"))?;
        Ok(if self.normalize {
            data.normalized()
        } else {
            data
        })
    }

    fn check(&self, read: Dataset) -> Result<(), String> {
        if read.dim() != self.data.dim() || bits(read.coords()) != bits(self.data.coords()) {
            return Err("ingesting the CSV changed the generated coordinates".to_owned());
        }
        Ok(())
    }

    /// Take one `setup_s` sample: `batch` ingestions back to back, then
    /// the workload's `Allocating` stage repeated for
    /// [`ALLOC_SECONDS_PER_SAMPLE`] through the constructors `cluster`
    /// calls (each allocation timed alone, so freeing is not counted).
    fn sample(&mut self, algo: &EggSync, device: Option<&Device>) -> Result<(), String> {
        let start = Instant::now();
        let mut last = None;
        for _ in 0..self.batch {
            last = Some(black_box(self.read()?));
        }
        self.ingest_s
            .push(start.elapsed().as_secs_f64() / self.batch as f64);
        self.check(last.expect("batch is at least 1"))?;

        let data = &self.data;
        let geometry = GridGeometry::new(data.dim(), algo.epsilon, data.len(), algo.variant);
        let (mut total, mut reps) = (0.0, 0u32);
        while total < ALLOC_SECONDS_PER_SAMPLE {
            total += match device {
                None => time_alloc(|| HostBuffers::new(data, geometry)),
                Some(device) => time_alloc(|| DeviceBuffers::new(device, data, geometry)),
            };
            reps += 1;
        }
        self.alloc_s.push(total / f64::from(reps));
        Ok(())
    }
}

/// Seconds `allocate` takes; what it allocates is freed after the clock
/// stops, as `cluster` frees it in a later stage.
fn time_alloc<T>(allocate: impl FnOnce() -> T) -> f64 {
    let t = Instant::now();
    let buffers = black_box(allocate());
    let seconds = t.elapsed().as_secs_f64();
    drop(buffers);
    seconds
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Largest final-coordinate difference allowed between a reference run
/// and a simulated-device pass on more than one host thread. The
/// simulator applies f64 atomic accumulations in host-thread order, so
/// there the cell sums reassociate by a few ulps from run to run (the
/// library pins device bits only on a single-threaded simulator). Every
/// other output must match bit for bit.
const DEVICE_COORD_TOLERANCE: f64 = 1e-9;

/// Check an output produced with `workers` workers against the reference
/// run: same iterations, same final coordinates, same partition.
fn same_output(
    w: &Workload,
    workers: usize,
    iterations: usize,
    coords: &[f64],
    labels: &[u32],
    r: &Clustering,
) -> Result<(), String> {
    if iterations != r.iterations {
        return Err(format!(
            "{iterations} iterations, reference {}",
            r.iterations
        ));
    }
    let theirs = r.final_coords.coords();
    if w.engine == Engine::Device && workers > 1 {
        // written so that a NaN difference fails
        let close = coords.len() == theirs.len()
            && coords
                .iter()
                .zip(theirs)
                .all(|(a, b)| (a - b).abs() <= DEVICE_COORD_TOLERANCE);
        if !close {
            return Err(format!(
                "final coordinates differ from the reference run by more than {DEVICE_COORD_TOLERANCE}"
            ));
        }
    } else if bits(coords) != bits(theirs) {
        return Err("final coordinates differ bitwise from the reference run".to_owned());
    }
    if !same_partition(labels, &r.labels) {
        return Err("partition differs from the reference run".to_owned());
    }
    Ok(())
}

/// Check one untraced run: converged, certified by [`check::certify`], and
/// the same as the run's reference (the first run) in structure size and
/// by [`same_output`].
fn verify(w: &Workload, out: &Clustering, reference: Option<&Clustering>) -> Result<(), String> {
    if !out.converged {
        return Err(format!("did not converge in {} iterations", out.iterations));
    }
    let coords = out.final_coords.coords();
    check::certify(coords, out.final_coords.dim(), &out.labels, w.epsilon)?;
    let Some(r) = reference else { return Ok(()) };
    if out.trace.peak_structure_bytes != r.trace.peak_structure_bytes {
        return Err("structure size differs from the reference run".to_owned());
    }
    same_output(w, WORKERS, out.iterations, coords, &out.labels, r)
}

/// Untraced runs of one workload: walls of the timed calls and the
/// library's per-iteration seconds within each, the reference output, and
/// the call and failure counts.
struct Untraced {
    walls: Vec<f64>,
    iteration_s: Vec<Vec<f64>>,
    reference: Clustering,
    attempted: u64,
    failed: u64,
}

/// One untimed warm-up `cluster` call on [`WORKERS`] workers, which gives
/// the reference output, then timed calls for at least `seconds` (and
/// [`MIN_REPS`]), each checked outside its timed window and followed by
/// one `setup_s` sample.
fn untraced_runs(w: &Workload, input: &mut Input, seconds: f64) -> Result<Untraced, String> {
    let algo = w.algorithm(WORKERS);
    // the device `cluster` makes for itself, for the allocation samples
    let device = (w.engine == Engine::Device).then(|| {
        Device::new(DeviceConfig {
            host_threads: algo.threads,
            ..algo.device_config.clone()
        })
    });
    let reference = algo.cluster(&input.data);
    let mut failed = 0u64;
    if let Err(e) = verify(w, &reference, None) {
        println!("{}: warm-up run FAILED: {e}", w.name);
        failed += 1;
    }
    let (mut walls, mut iteration_s) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while walls.len() < MIN_REPS || start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let out = black_box(algo.cluster(black_box(&input.data)));
        walls.push(t.elapsed().as_secs_f64());
        iteration_s.push(out.trace.iterations.iter().map(|r| r.seconds).collect());
        if let Err(e) = verify(w, &out, Some(&reference)) {
            println!("{}: run {} FAILED: {e}", w.name, walls.len());
            failed += 1;
        }
        input.sample(&algo, device.as_ref())?;
    }
    Ok(Untraced {
        attempted: walls.len() as u64 + 1,
        walls,
        iteration_s,
        reference,
        failed,
    })
}

fn end_to_end(w: &Workload, input: &mut Input, seconds: f64) -> Result<Outcome, String> {
    let Untraced {
        walls,
        iteration_s,
        reference,
        attempted,
        failed,
    } = untraced_runs(w, input, seconds)?;
    let u = &reference.trace.update_counters;
    println!(
        "{}: work per call: {} iterations, {} point pairs, {} summary cells, {} dirty cells, {} moved points",
        w.name, reference.iterations, u.point_pairs, u.summary_cells, u.dirty_cells, u.moved_points
    );
    let cluster_s = uncontended_call(&walls, &iteration_s);
    print_spread(w, "call wall", &walls);
    println!(
        "{}: cluster_s = {:.3} ms, the fastest call {:.3} ms",
        w.name,
        cluster_s * 1e3,
        fastest(walls.iter().copied()) * 1e3
    );
    print_spread(w, "ingest_s", &input.ingest_s);
    print_spread(w, "allocating_s", &input.alloc_s);
    Ok(Outcome {
        attempted,
        failed,
        extra_ok: true,
        metrics: vec![
            metric("cluster_s", cluster_s, "s"),
            metric(
                "setup_s",
                fastest(input.ingest_s.iter().copied()) + fastest(input.alloc_s.iter().copied()),
                "s",
            ),
            metric("iterations", reference.iterations as f64, "count"),
            metric(
                "structure_mb",
                reference.trace.peak_structure_bytes as f64 / 1e6,
                "MB",
            ),
            metric(
                "ok_runs",
                (attempted - failed) as f64 / attempted as f64,
                "frac",
            ),
        ],
    })
}

/// Check a traced pass on `workers` workers against the untraced
/// reference output.
fn faithful(
    w: &Workload,
    workers: usize,
    pass: &Pass,
    reference: &Clustering,
) -> Result<(), String> {
    if !pass.converged {
        return Err(format!(
            "did not converge in {} iterations",
            pass.iterations
        ));
    }
    same_output(
        w,
        workers,
        pass.iterations,
        &pass.final_coords,
        &pass.labels,
        reference,
    )
}

fn traced_pass(w: &Workload, data: &Dataset, workers: usize) -> Pass {
    let algo = w.algorithm(workers);
    match w.engine {
        Engine::Host => traced::host_pass(&algo, data, workers),
        Engine::Device => traced::device_pass(&algo, data, workers),
    }
}

/// The traced run: untraced reference runs, traced passes on [`WORKERS`]
/// workers (the layer numbers come from the fastest one), and one traced
/// pass on [`PAR_WORKERS`] workers, for per-layer parallel efficiency and
/// the executor metrics.
fn traced_run(
    w: &Workload,
    input: &mut Input,
    args: &Args,
    io_dir: &Path,
) -> Result<Outcome, String> {
    let Untraced {
        walls,
        reference,
        mut attempted,
        mut failed,
        ..
    } = untraced_runs(w, input, 0.35 * args.seconds)?;
    let mut passes: Vec<(usize, Pass)> = Vec::new();
    let start = Instant::now();
    while passes.len() < MIN_REPS || start.elapsed().as_secs_f64() < 0.35 * args.seconds {
        passes.push((WORKERS, traced_pass(w, &input.data, WORKERS)));
    }
    passes.push((PAR_WORKERS, traced_pass(w, &input.data, PAR_WORKERS)));
    for (k, (workers, pass)) in passes.iter().enumerate() {
        attempted += 1;
        if let Err(e) = faithful(w, *workers, pass, &reference) {
            println!(
                "{}: traced pass {k} ({workers} workers) FAILED: {e}",
                w.name
            );
            failed += 1;
        }
    }

    // the fastest pass on WORKERS workers supplies the layer numbers, as
    // the fastest call supplies the end-to-end ones (see `fastest`)
    let primary: Vec<&Pass> = passes
        .iter()
        .filter(|(k, _)| *k == WORKERS)
        .map(|(_, p)| p)
        .collect();
    let p = *primary
        .iter()
        .min_by(|a, b| a.tracer.wall().total_cmp(&b.tracer.wall()))
        .expect("at least MIN_REPS passes");
    let two = &passes.last().expect("parallel pass").1;
    let metrics = layer_metrics(input, &walls, p, two);
    let coverage = p.tracer.coverage();
    let extra_ok = w.engine == Engine::Device || coverage >= MIN_COVERAGE;
    if !extra_ok {
        println!(
            "{}: layer spans cover {:.1}% of the traced wall, below {:.0}%",
            w.name,
            100.0 * coverage,
            100.0 * MIN_COVERAGE
        );
    }
    print_spread(w, "untraced cluster_s", &walls);
    let traced_walls: Vec<f64> = primary.iter().map(|p| p.tracer.wall()).collect();
    print_spread(w, "traced pass wall_s", &traced_walls);
    print_shares(w, &p.tracer);
    let path = io_dir.join(format!("{}-{}-spans.jsonl", w.name, args.seed));
    match write_spans(&path, &passes) {
        Ok(()) => println!("{}: spans written to {}", w.name, path.display()),
        Err(e) => println!("{}: cannot write spans to {}: {e}", w.name, path.display()),
    }
    Ok(Outcome {
        attempted,
        failed,
        extra_ok,
        metrics,
    })
}

/// `a / b`, or 0 when there is nothing to divide by.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Per-layer metrics of the one-worker pass `p`; parallel efficiency
/// compares it with the two-worker pass `two`, which also gives the
/// executor metrics (a one-worker executor runs inline and dispatches
/// nothing).
fn layer_metrics(input: &Input, untraced: &[f64], p: &Pass, two: &Pass) -> Vec<Metric> {
    let tr = &p.tracer;
    let c = &p.counters;
    let u = &c.update;
    let n = input.data.len() as f64;
    let wall = tr.wall();
    let refresh = tr.total(traced::REFRESH);
    let update = tr.total(traced::UPDATE);
    let termination = tr.total(traced::TERMINATION);
    let par_eff = |name: &str| ratio(tr.total(name), PAR_WORKERS as f64 * two.tracer.total(name));
    let mut iter_ms: Vec<f64> = tr
        .durations(traced::ITERATION)
        .iter()
        .map(|s| s * 1e3)
        .collect();
    iter_ms.sort_by(f64::total_cmp);
    let gpu = c.gpu.unwrap_or_default();
    vec![
        metric(
            "data.read_csv_s",
            fastest(input.ingest_s.iter().copied()),
            "s",
        ),
        metric(
            "exec.dispatches",
            two.counters.exec_dispatches as f64,
            "count",
        ),
        metric("exec.dispatch_s", two.counters.exec_dispatch_s, "s"),
        metric("grid.refresh_s", refresh, "s"),
        metric("grid.dirty_cells", u.dirty_cells as f64, "count"),
        metric("grid.rebinned_points", c.rebinned_points as f64, "count"),
        metric("grid.full_rebuilds", c.full_rebuilds as f64, "count"),
        metric(
            "grid.ns_per_dirty_cell",
            ratio(refresh * 1e9, u.dirty_cells as f64),
            "ns",
        ),
        metric("egg.update_s", update, "s"),
        metric("egg.update.point_pairs", u.point_pairs as f64, "count"),
        metric(
            "egg.update.ns_per_pair",
            ratio(update * 1e9, u.point_pairs as f64),
            "ns",
        ),
        metric(
            "kernels.lane_util",
            ratio(
                (u.simd_lanes - u.simd_remainder_lanes) as f64,
                u.simd_lanes as f64,
            ),
            "frac",
        ),
        metric("egg.update.summary_cells", u.summary_cells as f64, "count"),
        metric("egg.update.cells_skipped", u.cells_skipped as f64, "count"),
        metric(
            "egg.update.moved_frac",
            ratio(u.moved_points as f64, n * p.iterations as f64),
            "frac",
        ),
        metric("egg.termination_s", termination, "s"),
        metric("egg.termination.calls", c.termination_calls as f64, "count"),
        metric(
            "egg.termination.certified_frac",
            ratio(c.terminations_certified as f64, c.termination_calls as f64),
            "frac",
        ),
        metric("egg.incremental_s", tr.total(traced::INCREMENTAL), "s"),
        metric("egg.gather_s", tr.total(traced::GATHER), "s"),
        metric("iter.ms_p50", median(&iter_ms), "ms"),
        metric("iter.ms_p80", quantile(&iter_ms, 0.8), "ms"),
        metric(
            "trace.overhead",
            wall / fastest(untraced.iter().copied()) - 1.0,
            "frac",
        ),
        metric("trace.coverage", tr.coverage(), "frac"),
        metric("grid.par_eff", par_eff(traced::REFRESH), "frac"),
        metric("egg.update.par_eff", par_eff(traced::UPDATE), "frac"),
        metric(
            "egg.termination.par_eff",
            par_eff(traced::TERMINATION),
            "frac",
        ),
        metric("gpu_sim.launches", gpu.launches as f64, "count"),
        metric("gpu_sim.mem_words", gpu.mem_words as f64, "count"),
        metric(
            "gpu_sim.coalesced_frac",
            ratio(gpu.coalesced_words as f64, gpu.mem_words as f64),
            "frac",
        ),
        metric("gpu_sim.atomics", gpu.atomics as f64, "count"),
        // the cost model's estimates: computed, not measured
        metric("gpu_sim.refresh_sim_s", gpu.refresh_sim_s, "sim_s"),
        metric("gpu_sim.update_sim_s", gpu.update_sim_s, "sim_s"),
        metric("gpu_sim.termination_sim_s", gpu.termination_sim_s, "sim_s"),
    ]
}

/// Each layer's share of the traced wall, largest first.
fn print_shares(w: &Workload, tr: &Tracer) {
    let wall = tr.wall();
    let mut shares: Vec<(&str, f64)> = [
        traced::ALLOC,
        traced::REFRESH,
        traced::UPDATE,
        traced::TERMINATION,
        traced::INCREMENTAL,
        traced::GATHER,
    ]
    .into_iter()
    .map(|name| (name, tr.total(name) / wall))
    .collect();
    shares.sort_by(|a, b| b.1.total_cmp(&a.1));
    let text: Vec<String> = shares
        .iter()
        .map(|(name, share)| format!("{name} {:.1}%", 100.0 * share))
        .collect();
    println!("{}: traced wall by layer: {}", w.name, text.join(", "));
}

/// Write every pass's spans as JSON lines: one object per span, with the
/// pass index, its worker count, and the parent span's index in the pass.
fn write_spans(path: &Path, passes: &[(usize, Pass)]) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (k, (workers, pass)) in passes.iter().enumerate() {
        for (id, s) in pass.tracer.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"pass": {k}, "workers": {workers}, "id": {id}, "name": "{}", "start_ns": {}, "end_ns": {}, "parent": {parent}}}"#,
                s.name, s.start_ns, s.end_ns
            )?;
        }
    }
    out.flush()
}

/// The estimate of an operation's time from its samples in one run: the
/// fastest one. Other tenants of a shared machine only ever add time (see
/// `perfbench/README.md`, "Why the fastest sample"): the fastest sample
/// estimates the uncontended cost, which the median does not.
fn fastest(values: impl IntoIterator<Item = f64>) -> f64 {
    values.into_iter().fold(f64::INFINITY, f64::min)
}

/// The uncontended wall of one `cluster` call, from the run's calls. Every
/// call does the same work, iteration by iteration, so each piece of a
/// call's wall (each iteration the library records, and the rest of the
/// wall outside them) is estimated by its fastest occurrence over the run,
/// and the pieces are summed. A piece needs only a short uncontended
/// window; a whole call needs a window as long as itself. Without a
/// consistent iteration record this is the fastest call.
fn uncontended_call(walls: &[f64], iteration_s: &[Vec<f64>]) -> f64 {
    let k = iteration_s.first().map_or(0, Vec::len);
    if iteration_s.iter().any(|its| its.len() != k) {
        return fastest(walls.iter().copied());
    }
    let rest = walls
        .iter()
        .zip(iteration_s)
        .map(|(wall, its)| wall - its.iter().sum::<f64>());
    fastest(rest)
        + (0..k)
            .map(|j| fastest(iteration_s.iter().map(|its| its[j])))
            .sum::<f64>()
}

fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `p`-quantile of `values` by linear interpolation between order
/// statistics; 0 for no values.
fn quantile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let pos = (v.len() - 1) as f64 * p;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Print a timing's samples in milliseconds: the fastest, quartiles,
/// median, slowest, count, and every sample in run order.
fn print_spread(w: &Workload, what: &str, seconds: &[f64]) {
    let ms: Vec<f64> = seconds.iter().map(|s| s * 1e3).collect();
    let q = |p: f64| quantile(&ms, p);
    let in_order: Vec<String> = ms.iter().map(|x| format!("{x:.3}")).collect();
    println!(
        "{}: {what} ms: min {:.3}, p25 {:.3}, median {:.3}, p75 {:.3}, max {:.3} over {} samples: {}",
        w.name,
        q(0.0),
        q(0.25),
        q(0.5),
        q(0.75),
        q(1.0),
        ms.len(),
        in_order.join(" ")
    );
}
