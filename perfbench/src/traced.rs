//! The traced run: Algorithm 4 re-driven from the benchmark's own code
//! through the library's public layer functions, with a span around every
//! call.
//!
//! Each pass mirrors `EggSync::cluster` for its backend call for call, so
//! its output must equal the untraced run's bit for bit; the caller checks
//! that on every pass. Spans are kept in memory (the buffer is reserved
//! up front) and written out when the benchmark ends.

use std::time::Instant;

use egg_data::Dataset;
use egg_gpu_sim::{Device, DeviceBuffer, DeviceConfig};
use egg_sync_core::egg::gather::gather_labels;
use egg_sync_core::egg::termination::{second_term_holds, second_term_holds_host};
use egg_sync_core::egg::update::{
    counters_from_device, egg_update, egg_update_host, DeviceIncrementalState, IncrementalState,
    COUNTER_SLOTS,
};
use egg_sync_core::grid::{CellGrid, GridGeometry, GridWorkspace};
use egg_sync_core::instrument::UpdateCounters;
use egg_sync_core::{EggSync, Executor};

/// One timed region. `parent` indexes the enclosing span in the same
/// pass; the pass's `run` span is the root.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// In-memory span recorder for one pass.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 14),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, parent: Option<u32>) -> u32 {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        (self.spans.len() - 1) as u32
    }

    fn close(&mut self, id: u32) {
        let end = self.now();
        self.spans[id as usize].end_ns = end;
    }

    fn span<T>(&mut self, name: &'static str, parent: u32, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, Some(parent));
        let value = f();
        self.close(id);
        value
    }

    /// Summed seconds of every span called `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .sum()
    }

    /// Durations of every span called `name`, in order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    }

    /// Seconds of the root `run` span.
    pub fn wall(&self) -> f64 {
        self.spans[0].seconds()
    }

    /// Share of the run span covered by layer spans (every span below an
    /// iteration span, plus the run span's own layer children).
    pub fn coverage(&self) -> f64 {
        let layers: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_some() && s.name != ITERATION)
            .map(Span::seconds)
            .sum();
        layers / self.wall()
    }
}

pub const RUN: &str = "run";
pub const ITERATION: &str = "iteration";
pub const ALLOC: &str = "alloc";
pub const REFRESH: &str = "grid.refresh";
pub const UPDATE: &str = "egg.update";
pub const TERMINATION: &str = "egg.termination";
pub const INCREMENTAL: &str = "egg.incremental";
pub const GATHER: &str = "egg.gather";

/// Work counters of one traced pass, summed over its iterations.
#[derive(Debug, Clone, Copy, Default)]
pub struct PassCounters {
    pub update: UpdateCounters,
    pub rebinned_points: u64,
    pub full_rebuilds: u64,
    pub termination_calls: u64,
    pub terminations_certified: u64,
    /// Benchmark-owned executor (host passes only).
    pub exec_dispatches: u64,
    pub exec_dispatch_s: f64,
    /// Simulated-device totals (device passes only).
    pub gpu: Option<GpuTotals>,
}

#[derive(Debug, Clone, Copy, Default)]
pub struct GpuTotals {
    pub launches: u64,
    pub mem_words: u64,
    pub coalesced_words: u64,
    pub atomics: u64,
    /// Simulated kernel seconds of the refresh, update and termination
    /// calls: the cost model's estimate, computed rather than measured.
    pub refresh_sim_s: f64,
    pub update_sim_s: f64,
    pub termination_sim_s: f64,
}

/// Output and trace of one traced pass.
pub struct Pass {
    pub labels: Vec<u32>,
    pub iterations: usize,
    pub converged: bool,
    pub final_coords: Vec<f64>,
    pub counters: PassCounters,
    pub tracer: Tracer,
}

/// What `EggSync::cluster` allocates on the host before its first
/// iteration: its `Allocating` stage, through the same constructors.
pub struct HostBuffers {
    pub cur: Vec<f64>,
    pub next: Vec<f64>,
    pub grid: CellGrid,
    pub chunk_stats: Vec<(bool, UpdateCounters)>,
    pub state: IncrementalState,
}

impl HostBuffers {
    pub fn new(data: &Dataset, geometry: GridGeometry) -> Self {
        Self {
            cur: data.coords().to_vec(),
            next: vec![0.0f64; data.coords().len()],
            grid: CellGrid::new(geometry),
            chunk_stats: Vec::new(),
            state: IncrementalState::new(),
        }
    }
}

/// What `EggSync::cluster` allocates on the simulated device before its
/// first iteration: its `Allocating` stage, through the same calls.
pub struct DeviceBuffers {
    pub cur: DeviceBuffer<f64>,
    pub next: DeviceBuffer<f64>,
    pub sync_flag: DeviceBuffer<u64>,
    pub counters: DeviceBuffer<u64>,
    pub workspace: GridWorkspace,
    pub inc_state: DeviceIncrementalState,
}

impl DeviceBuffers {
    pub fn new(device: &Device, data: &Dataset, geometry: GridGeometry) -> Self {
        let n = data.len();
        Self {
            cur: device.alloc_from_slice::<f64>(data.coords()),
            next: device.alloc::<f64>(data.coords().len()),
            sync_flag: device.alloc::<u64>(1),
            counters: device.alloc::<u64>(COUNTER_SLOTS),
            workspace: GridWorkspace::new(device, geometry, n),
            inc_state: DeviceIncrementalState::new(device, &geometry, n),
        }
    }
}

/// Algorithm 4 on the host engine, as `EggSync::cluster` runs it for
/// `Backend::Host`, with `workers` threads on a benchmark-owned executor.
pub fn host_pass(algo: &EggSync, data: &Dataset, workers: usize) -> Pass {
    let options = algo.options;
    let use_inc = options.use_incremental;
    let mut tr = Tracer::new();
    let run = tr.open(RUN, None);
    let exec = Executor::with_mode(Some(workers), options.use_pooled_exec);
    let geometry = GridGeometry::new(data.dim(), algo.epsilon, data.len(), algo.variant);
    let HostBuffers {
        mut cur,
        mut next,
        mut grid,
        mut chunk_stats,
        mut state,
    } = tr.span(ALLOC, run, || HostBuffers::new(data, geometry));
    let mut c = PassCounters::default();
    let mut iterations = 0usize;
    let mut converged = false;
    while iterations < algo.max_iterations {
        let it = tr.open(ITERATION, Some(run));
        let stats = tr.span(REFRESH, it, || {
            grid.refresh(
                &exec,
                &cur,
                if use_inc { state.moved_flags() } else { None },
            )
        });
        c.update.dirty_cells += stats.dirty_cells;
        c.rebinned_points += stats.rebinned_points;
        c.full_rebuilds += u64::from(stats.full_rebuild);
        let (first_term, counters) = tr.span(UPDATE, it, || {
            egg_update_host(
                &exec,
                &grid,
                &cur,
                &mut next,
                algo.epsilon,
                options,
                &mut chunk_stats,
                if use_inc { Some(&mut state) } else { None },
                None,
            )
        });
        c.update.merge(&counters);
        let mut done = false;
        if first_term {
            done = tr.span(TERMINATION, it, || {
                second_term_holds_host(
                    &exec,
                    &grid,
                    &cur,
                    algo.epsilon,
                    if use_inc {
                        state.confined_flags()
                    } else {
                        None
                    },
                    options.use_simd,
                )
            });
            c.termination_calls += 1;
            c.terminations_certified += u64::from(done);
        }
        if use_inc {
            tr.span(INCREMENTAL, it, || {
                state.finish_pass(&geometry, &cur, &next)
            });
        }
        std::mem::swap(&mut cur, &mut next);
        iterations += 1;
        tr.close(it);
        if done {
            converged = true;
            break;
        }
    }
    let labels = tr.span(GATHER, run, || {
        if iterations > 0 {
            grid.point_cell().to_vec()
        } else {
            Vec::new()
        }
    });
    tr.close(run);
    c.exec_dispatches = exec.dispatch_count();
    c.exec_dispatch_s = exec.dispatch_overhead_seconds();
    Pass {
        labels,
        iterations,
        converged,
        final_coords: cur,
        counters: c,
        tracer: tr,
    }
}

/// Algorithm 4 on the simulated GPU, as `EggSync::cluster` runs it for
/// `Backend::SimulatedGpu`, with `workers` host threads executing blocks.
pub fn device_pass(algo: &EggSync, data: &Dataset, workers: usize) -> Pass {
    let n = data.len();
    let options = algo.options;
    let use_inc = options.use_incremental;
    let mut tr = Tracer::new();
    let run = tr.open(RUN, None);
    let device = Device::new(DeviceConfig {
        host_threads: Some(workers),
        ..algo.device_config.clone()
    });
    let geometry = GridGeometry::new(data.dim(), algo.epsilon, n, algo.variant);
    let DeviceBuffers {
        mut cur,
        mut next,
        sync_flag,
        counters,
        mut workspace,
        mut inc_state,
    } = tr.span(ALLOC, run, || DeviceBuffers::new(&device, data, geometry));
    workspace.set_fused(options.use_fused_kernels);
    let mut c = PassCounters::default();
    let mut gpu = GpuTotals::default();
    // simulated seconds since the previous call, read between spans
    let mut sim_mark = device.sim_kernel_nanos();
    let mut sim_delta = |device: &Device| {
        let now = device.sim_kernel_nanos();
        let delta = (now - sim_mark) as f64 / 1e9;
        sim_mark = now;
        delta
    };
    let mut iterations = 0usize;
    let mut converged = false;
    let mut last_grid = None;
    while iterations < algo.max_iterations {
        let it = tr.open(ITERATION, Some(run));
        let (grid, pre, stats) = tr.span(REFRESH, it, || {
            workspace.refresh(
                &cur,
                if use_inc {
                    inc_state.moved_flags()
                } else {
                    None
                },
            )
        });
        gpu.refresh_sim_s += sim_delta(&device);
        counters.atomic_add(4, stats.dirty_cells);
        if stats.layout_rebuilt {
            c.rebinned_points += n as u64;
            c.full_rebuilds += 1;
        }
        // the library counts the skip marks in its update stage
        if use_inc {
            tr.span(INCREMENTAL, it, || inc_state.mark_skips(&device, &grid));
            gpu.update_sim_s += sim_delta(&device);
        }
        let first_term = tr.span(UPDATE, it, || {
            sync_flag.store(0, 1);
            egg_update(
                &device,
                &grid,
                &pre,
                &cur,
                &next,
                &sync_flag,
                &counters,
                n,
                algo.epsilon,
                options,
                use_inc.then_some(&inc_state),
            );
            sync_flag.load(0) == 1
        });
        gpu.update_sim_s += sim_delta(&device);
        let mut done = false;
        if first_term {
            done = tr.span(TERMINATION, it, || {
                second_term_holds(
                    &device,
                    &grid,
                    &pre,
                    &cur,
                    &sync_flag,
                    n,
                    algo.epsilon,
                    use_inc.then_some(&inc_state.confined),
                )
            });
            gpu.termination_sim_s += sim_delta(&device);
            c.termination_calls += 1;
            c.terminations_certified += u64::from(done);
        }
        // the pass's bookkeeping kernels count as update, so the three
        // simulated-second metrics cover every kernel of the iterations
        if use_inc {
            tr.span(INCREMENTAL, it, || {
                inc_state.finish_pass(&device, &geometry, &cur, &next, n)
            });
            gpu.update_sim_s += sim_delta(&device);
        }
        std::mem::swap(&mut cur, &mut next);
        iterations += 1;
        last_grid = Some(grid);
        tr.close(it);
        if done {
            converged = true;
            break;
        }
    }
    let labels = tr.span(GATHER, run, || {
        last_grid.as_ref().map(gather_labels).unwrap_or_default()
    });
    tr.close(run);
    c.update = counters_from_device(&counters);
    let report = device.report();
    c.gpu = Some(GpuTotals {
        launches: report.kernels.len() as u64,
        mem_words: report.total_mem_words(),
        coalesced_words: report.total_coalesced_reads + report.total_coalesced_writes,
        atomics: report.total_atomics,
        ..gpu
    });
    Pass {
        labels,
        iterations,
        converged,
        final_coords: cur.to_vec(),
        counters: c,
        tracer: tr,
    }
}
