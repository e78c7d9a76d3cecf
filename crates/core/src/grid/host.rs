//! Host-side grids.
//!
//! Two structures live here:
//!
//! * [`HostGrid`] — the reference implementation of the grid semantics:
//!   tests cross-check the simulated-GPU construction (Algorithm 2)
//!   against this, and the CPU oracle uses it for neighborhood queries.
//!   Deliberately simple — a `HashMap` from full-dimensional cell
//!   coordinates to point lists.
//! * [`CellGrid`] — the host execution engine's production grid:
//!   flattened CSR arrays plus the per-cell Σsin/Σcos summaries of
//!   §4.3.1, constructed in parallel on an [`Executor`] with a
//!   deterministic layout for any worker count.

use std::collections::HashMap;

use egg_spatial::distance::{row, within_sq};

use crate::algorithms::gpu_sync::MAX_DIM;
use crate::exec::{Executor, ScatterWriter, CELL_CHUNK, POINT_CHUNK};
use crate::kernels::{accumulate_row, lane_pad, LANES};

use super::geometry::GridGeometry;

/// Host-side grid: full-dimensional cell coordinates → indices of the
/// points inside.
#[derive(Debug)]
pub struct HostGrid<'a> {
    geometry: &'a GridGeometry,
    coords: &'a [f64],
    cells: HashMap<Vec<u64>, Vec<u32>>,
}

impl<'a> HostGrid<'a> {
    /// Bucket every point of `coords` (row-major, `geometry.dim` columns).
    pub fn build(geometry: &'a GridGeometry, coords: &'a [f64]) -> Self {
        let dim = geometry.dim;
        let n = coords.len() / dim;
        let mut cells: HashMap<Vec<u64>, Vec<u32>> = HashMap::new();
        let mut key = vec![0u64; dim];
        for p_idx in 0..n {
            geometry.cell_coords_of(row(coords, dim, p_idx), &mut key);
            cells.entry(key.clone()).or_default().push(p_idx as u32);
        }
        Self {
            geometry,
            coords,
            cells,
        }
    }

    /// Number of non-empty cells.
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// The points in the cell containing `p` (empty slice view if the cell
    /// is unoccupied, which cannot happen for `p` taken from the dataset).
    pub fn cell_of(&self, p: &[f64]) -> &[u32] {
        let mut key = vec![0u64; self.geometry.dim];
        self.geometry.cell_coords_of(p, &mut key);
        self.cells.get(&key).map_or(&[], Vec::as_slice)
    }

    /// Iterate over `(cell_coords, point_indices)` of every non-empty cell.
    pub fn iter_cells(&self) -> impl Iterator<Item = (&Vec<u64>, &Vec<u32>)> {
        self.cells.iter()
    }

    /// Indices of all points within the closed `radius`-ball around `p`,
    /// found by scanning the cells within the geometry's reach whose boxes
    /// intersect the ball. Allocates a fresh result `Vec` per call; hot
    /// loops should prefer [`HostGrid::ball_indices_into`].
    pub fn ball_indices(&self, p: &[f64], radius: f64) -> Vec<u32> {
        let mut out = Vec::new();
        self.ball_indices_into(p, radius, &mut out);
        out
    }

    /// Allocation-free edition of [`HostGrid::ball_indices`]: clear `out`
    /// and fill it with the indices of all points within the closed
    /// `radius`-ball around `p`. The per-dimension range cursors live on
    /// the stack and the cell lookup borrows the key slice, so a caller
    /// reusing `out` performs no heap allocation per query once `out`'s
    /// capacity has settled.
    pub fn ball_indices_into(&self, p: &[f64], radius: f64, out: &mut Vec<u32>) {
        out.clear();
        let dim = self.geometry.dim;
        debug_assert!(dim <= MAX_DIM);
        let radius_sq = radius * radius;
        // enumerate candidate cell coordinate ranges per dimension
        let (mut lo, mut hi) = ([0i64; MAX_DIM], [0i64; MAX_DIM]);
        for i in 0..dim {
            lo[i] = ((p[i] - radius) / self.geometry.cell_width).floor() as i64;
            hi[i] = ((p[i] + radius) / self.geometry.cell_width).floor() as i64;
        }
        let mut cursor = lo;
        let mut key = [0u64; MAX_DIM];
        loop {
            if cursor[..dim]
                .iter()
                .all(|&c| c >= 0 && c < self.geometry.width as i64)
            {
                for i in 0..dim {
                    key[i] = cursor[i] as u64;
                }
                // `Vec<u64>: Borrow<[u64]>` — the lookup borrows the key
                if let Some(points) = self.cells.get(&key[..dim]) {
                    for &q_idx in points {
                        // blocked early-exit predicate; exact, so the
                        // result set matches the full-distance scan
                        if within_sq(p, row(self.coords, dim, q_idx as usize), radius_sq) {
                            out.push(q_idx);
                        }
                    }
                }
            }
            // odometer increment
            let mut d = 0;
            loop {
                if d == dim {
                    return;
                }
                cursor[d] += 1;
                if cursor[d] <= hi[d] {
                    break;
                }
                cursor[d] = lo[d];
                d += 1;
            }
        }
    }
}

/// Flattened host grid with per-cell trigonometric summaries and a
/// per-point trig table — the host execution engine's counterpart of the
/// device grid (§4.2 + §4.3.1).
///
/// The structure is **rebuilt in place** every iteration via
/// [`CellGrid::rebuild`]: all arrays retain their capacity across
/// rebuilds, so the steady-state iteration loop performs no heap
/// allocations. Construction is parallel over an [`Executor`] yet
/// **deterministic for any worker count**: the per-point cell keys and
/// trig rows are computed independently, the grid-sorted point order is a
/// sequential in-place sort under the total order
/// `(outer id, cell coordinates, point index)`, and each cell's summary is
/// accumulated sequentially in point order.
#[derive(Debug)]
pub struct CellGrid {
    geometry: GridGeometry,
    /// Cell coordinates, `num_cells × dim`, in sorted cell order.
    cell_keys: Vec<u64>,
    /// CSR offsets into `cell_points`, length `num_cells + 1`.
    cell_starts: Vec<u32>,
    /// Point indices grouped by cell, ascending within each cell — the
    /// host edition of the device's grid-sorted `i_points` order (§4.2.6).
    cell_points: Vec<u32>,
    /// Compacted cell index of every point.
    point_cell: Vec<u32>,
    /// Per-cell `[Σsin_0.. Σsin_{d-1}, Σcos_0.. Σcos_{d-1}]`, rows padded
    /// to [`CellGrid::trig_stride`] with zeros so the accumulation runs in
    /// whole [`LANES`]-wide steps.
    trig_sums: Vec<f64>,
    /// `[sin_0.. sin_{d-1}, cos_0.. cos_{d-1}]` of the raw coordinates,
    /// **in grid-sorted slot order** (row `s` belongs to point
    /// `cell_points[s]`) — the iteration's trig table, shared by the
    /// summary construction and the update kernel's angle-addition fast
    /// path. Slot order makes both consumers stream it sequentially: a
    /// cell's rows are one contiguous block. Rows are padded to
    /// [`CellGrid::trig_stride`]; the pad elements are never written, so
    /// they stay zero from the initial sizing.
    point_trig: Vec<f64>,
    /// Lane-blocked sin table for the SIMD pair-term kernel: block `b`
    /// covers **lane indices** `4b..4b+4`, where slot `s` lives at lane
    /// index `lane_phase + s`, and `lane_sin[(b·dim + i)·4 + j]` is `sin`
    /// of dimension `i` of the point at lane index `4b + j` (zero in the
    /// `lane_phase` leading pad lanes and the padding lanes past the last
    /// point). A pure relayout of `point_trig`, refreshed by copy — never
    /// by recomputing transcendentals — so it is bitwise consistent with
    /// the trig table by construction.
    lane_sin: Vec<f64>,
    /// Lane-blocked cos table, same layout as `lane_sin`.
    lane_cos: Vec<f64>,
    /// Lane-blocked raw coordinates in grid-sorted slot order, same layout
    /// as `lane_sin` — the distance side of the SIMD kernels reads four
    /// neighbors contiguously instead of gathering through the order
    /// permutation.
    lane_coords: Vec<f64>,
    /// Leading pad lanes of the lane-blocked tables, in `0..LANES`. The
    /// lane index of grid-sorted slot `s` is `lane_phase + s`, so block
    /// boundaries fall where `lane_phase + s ≡ 0 (mod LANES)`. A sharded
    /// engine sets this to the shard's global slot base mod `LANES`
    /// ([`CellGrid::set_lane_phase`]), which makes the SIMD pair-term's
    /// lane grouping — and therefore its reduction order — identical to
    /// the single grid's for every cell. 0 for a standalone grid.
    lane_phase: usize,
    /// Per-cell point MBR `[lo_0.. lo_{d-1}, hi_0.. hi_{d-1}]`, rows of
    /// stride `2·dim` in sorted cell order. Recomputed from the final CSR
    /// layout and raw coordinates after every rebuild/refresh — a pure
    /// function of both, so the rows are identical whichever maintenance
    /// path produced the layout, and for any worker count. The update
    /// kernel classifies cells against the ε-ball through these bounds
    /// (exact: points ⊆ MBR ⊆ cell box), which keeps tightly clustered
    /// cells on the O(1) summary path even when their grid box straddles
    /// the ball.
    cell_bounds: Vec<f64>,
    /// `(outer id, lo, hi)` cell ranges in sorted cell order, ascending by
    /// outer id (binary-searched by [`CellGrid::for_each_cell_in_reach`]).
    outer_index: Vec<(u64, u32, u32)>,
    /// Scratch: per-point full-dimensional cell coordinates, `n × dim`.
    point_keys: Vec<u64>,
    /// Scratch: per-point dense outer id.
    point_outer: Vec<u64>,
    /// Grid-sorted slot of every point (the inverse of `cell_points`) —
    /// lets the incremental refresh relocate a stayer's trig row without
    /// recomputing its transcendentals.
    point_slot: Vec<u32>,
    /// Whether the arrays describe a previously built grid, making
    /// [`CellGrid::refresh`] eligible for the incremental path.
    has_state: bool,
    // --- incremental-refresh scratch, sized once and reused -------------
    /// Movers whose cell key changed, sorted by the grid total order.
    changers: Vec<u32>,
    /// Per point: did its cell key change this refresh?
    is_changer: Vec<bool>,
    /// Per (new) cell: must its summary be recomputed?
    cell_dirty: Vec<bool>,
    /// Per (new) clean cell: the old compacted cell id to copy sums from.
    clean_src: Vec<u32>,
    /// Double buffers swapped against the live arrays by the refresh.
    merge_scratch: Vec<u32>,
    starts_scratch: Vec<u32>,
    point_cell_scratch: Vec<u32>,
    point_slot_scratch: Vec<u32>,
    trig_scratch: Vec<f64>,
    sums_scratch: Vec<f64>,
}

/// What one [`CellGrid::refresh`] did — the grid-maintenance half of the
/// iteration's work counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GridRefreshStats {
    /// Points whose position changed since the grid was last built.
    pub moved_points: u64,
    /// Movers whose cell key changed, i.e. points actually re-binned.
    pub rebinned_points: u64,
    /// Cells whose summaries/trig rows were recomputed (every cell on a
    /// full rebuild).
    pub dirty_cells: u64,
    /// Whether the refresh fell back to a full rebuild.
    pub full_rebuild: bool,
}

impl CellGrid {
    /// An empty grid under `geometry`, ready for [`CellGrid::rebuild`].
    pub fn new(geometry: GridGeometry) -> Self {
        Self {
            geometry,
            cell_keys: Vec::new(),
            cell_starts: Vec::new(),
            cell_points: Vec::new(),
            point_cell: Vec::new(),
            trig_sums: Vec::new(),
            point_trig: Vec::new(),
            lane_sin: Vec::new(),
            lane_cos: Vec::new(),
            lane_coords: Vec::new(),
            lane_phase: 0,
            cell_bounds: Vec::new(),
            outer_index: Vec::new(),
            point_keys: Vec::new(),
            point_outer: Vec::new(),
            point_slot: Vec::new(),
            has_state: false,
            changers: Vec::new(),
            is_changer: Vec::new(),
            cell_dirty: Vec::new(),
            clean_src: Vec::new(),
            merge_scratch: Vec::new(),
            starts_scratch: Vec::new(),
            point_cell_scratch: Vec::new(),
            point_slot_scratch: Vec::new(),
            trig_scratch: Vec::new(),
            sums_scratch: Vec::new(),
        }
    }

    /// Bucket every point of `coords` (row-major, `geometry.dim` columns)
    /// and compute the per-point trig table and per-cell summaries, fanning
    /// the per-point passes over `exec`'s workers. Convenience wrapper over
    /// [`CellGrid::new`] + [`CellGrid::rebuild`].
    pub fn build(exec: &Executor, geometry: GridGeometry, coords: &[f64]) -> Self {
        let mut grid = Self::new(geometry);
        grid.rebuild(exec, coords);
        grid
    }

    /// Rebuild the grid from the current `coords`, reusing every buffer.
    /// After the first call on a given problem size, subsequent rebuilds
    /// allocate nothing.
    pub fn rebuild(&mut self, exec: &Executor, coords: &[f64]) {
        let geometry = self.geometry;
        let dim = geometry.dim;
        debug_assert!(dim <= MAX_DIM);
        let n = coords.len() / dim;
        // every per-point array (CSR entries, slots, inversions) is u32
        assert!(
            u32::try_from(n).is_ok(),
            "CellGrid indexes points with u32: n = {n} exceeds u32::MAX"
        );

        // Pass 1 — per-point cell key and outer id, all independent,
        // scattered into pre-sized buffers.
        self.point_keys.resize(n * dim, 0);
        self.point_outer.resize(n, 0);
        {
            let keys = ScatterWriter::new(&mut self.point_keys);
            let outer = ScatterWriter::new(&mut self.point_outer);
            let (keys, outer) = (&keys, &outer);
            exec.map_ranges(n, POINT_CHUNK, |range| {
                for p_idx in range {
                    let p = row(coords, dim, p_idx);
                    // each point index occurs in exactly one chunk
                    let key = unsafe { keys.row_mut(p_idx * dim, dim) };
                    geometry.cell_coords_of(p, key);
                    unsafe {
                        outer.row_mut(p_idx, 1)[0] = geometry.outer_id_of_coords(key) as u64;
                    }
                }
            });
        }

        // Pass 2 — grid-sorted point order: sort point indices in place
        // under the deterministic total order (outer, key, point index).
        self.cell_points.clear();
        self.cell_points.extend(0..n as u32);
        {
            let keys = &self.point_keys;
            let outer = &self.point_outer;
            self.cell_points.sort_unstable_by(|&a, &b| {
                let (a, b) = (a as usize, b as usize);
                outer[a]
                    .cmp(&outer[b])
                    .then_with(|| keys[a * dim..(a + 1) * dim].cmp(&keys[b * dim..(b + 1) * dim]))
                    .then(a.cmp(&b))
            });
        }

        // Pass 3 — trig rows in grid-sorted slot order: slot `s` holds
        // sin/cos of point `cell_points[s]`, so a cell's rows form one
        // contiguous block that the summary pass and the update's pair
        // loop stream sequentially. Rows are lane-padded; only the live
        // `2·dim` prefix is ever written, so the pad stays zero.
        let ts = self.trig_stride();
        self.point_trig.resize(n * ts, 0.0);
        {
            let order = &self.cell_points;
            let trig = ScatterWriter::new(&mut self.point_trig);
            let trig = &trig;
            exec.map_ranges(n, POINT_CHUNK, |range| {
                for slot in range {
                    let p = row(coords, dim, order[slot] as usize);
                    // each slot occurs in exactly one chunk
                    let t = unsafe { trig.row_mut(slot * ts, ts) };
                    for i in 0..dim {
                        t[i] = p[i].sin();
                        t[dim + i] = p[i].cos();
                    }
                }
            });
        }

        // Pass 4 — walk the sorted order once to cut cell boundaries and
        // outer ranges, and invert into the per-point cell index.
        // No eager `reserve` here: pre-reserving the worst case (n cells)
        // allocates n·dim u64 keys up front — a 160 MB spike at the paper
        // envelope's 1M×20 — while the realistic cell count is far below
        // n. Amortized growth reaches the actual size instead, and the
        // capacity persists across iterations, so the steady state still
        // allocates nothing.
        self.cell_keys.clear();
        self.cell_starts.clear();
        self.outer_index.clear();
        self.point_cell.resize(n, 0);
        self.point_slot.resize(n, 0);
        self.cell_starts.push(0);
        for e in 0..n {
            let p = self.cell_points[e] as usize;
            let new_cell = e == 0 || {
                let prev = self.cell_points[e - 1] as usize;
                self.point_keys[prev * dim..(prev + 1) * dim]
                    != self.point_keys[p * dim..(p + 1) * dim]
            };
            if new_cell {
                if e > 0 {
                    self.cell_starts.push(e as u32);
                }
                let c = self.cell_starts.len() as u32 - 1;
                self.cell_keys
                    .extend_from_slice(&self.point_keys[p * dim..(p + 1) * dim]);
                let oid = self.point_outer[p];
                match self.outer_index.last_mut() {
                    Some((last_oid, _, hi)) if *last_oid == oid => *hi = c + 1,
                    _ => self.outer_index.push((oid, c, c + 1)),
                }
            }
            self.point_cell[p] = self.cell_starts.len() as u32 - 1;
            self.point_slot[p] = e as u32;
        }
        if n > 0 {
            self.cell_starts.push(n as u32);
        }
        let num_cells = self.cell_starts.len().saturating_sub(1);

        // Pass 5 — per-cell Σsin/Σcos from the trig table, parallel over
        // cells; each cell's contiguous slot rows are accumulated
        // sequentially in slot order, so the sums are bitwise-reproducible
        // (the lane-wide `accumulate_row` keeps every element's addition
        // chain identical to the scalar loop).
        self.trig_sums.clear();
        self.trig_sums.resize(num_cells * ts, 0.0);
        {
            let cell_starts = &self.cell_starts;
            let point_trig = &self.point_trig;
            exec.map_chunks_mut(&mut self.trig_sums, CELL_CHUNK * ts, |offset, chunk| {
                let first = offset / ts;
                for (r, sums) in chunk.chunks_exact_mut(ts).enumerate() {
                    let c = first + r;
                    let lo = cell_starts[c] as usize;
                    let hi = cell_starts[c + 1] as usize;
                    for t in point_trig[lo * ts..hi * ts].chunks_exact(ts) {
                        accumulate_row(sums, t);
                    }
                }
            });
        }
        self.rebuild_lane_tables(exec, coords);
        self.rebuild_cell_bounds(exec, coords);
        self.has_state = true;
    }

    /// Bring the grid up to date with `coords`, rebuilding **only what
    /// moved**. `moved[p]` must be `true` iff point `p`'s coordinates
    /// changed (bitwise) since the grid was last built; passing `None`
    /// (or calling on a grid with no prior state) falls back to
    /// [`CellGrid::rebuild`].
    ///
    /// The incremental path re-derives cell keys only for movers,
    /// partitions them into *stayers* (same cell key) and *changers*,
    /// splices the sorted changers back into the grid-sorted order with a
    /// sequential merge, and recomputes trig rows and Σsin/Σcos summaries
    /// only for dirty cells — cells that gained or lost a member or
    /// contain a mover. Summaries of dirty cells are recomputed from the
    /// cell's full membership (never subtract/add-adjusted) in slot order,
    /// so **every array is bitwise identical to a fresh
    /// [`CellGrid::rebuild`]** on the same coordinates: the merge
    /// reproduces the total order `(outer, key, point index)` exactly, and
    /// clean cells copy rows whose inputs did not change. The layout is a
    /// pure function of the membership — never of worker count or of which
    /// iteration the points moved in.
    ///
    /// All scratch buffers are owned by the grid and sized once, so
    /// steady-state refreshes allocate nothing.
    pub fn refresh(
        &mut self,
        exec: &Executor,
        coords: &[f64],
        moved: Option<&[bool]>,
    ) -> GridRefreshStats {
        let geometry = self.geometry;
        let dim = geometry.dim;
        let n = coords.len() / dim.max(1);
        let valid = self.has_state && self.point_outer.len() == n && self.point_slot.len() == n;
        let Some(moved) = moved.filter(|m| valid && m.len() == n) else {
            self.rebuild(exec, coords);
            return GridRefreshStats {
                moved_points: n as u64,
                rebinned_points: n as u64,
                dirty_cells: self.num_cells() as u64,
                full_rebuild: true,
            };
        };

        // Pass 1 — re-derive keys for movers only and flag cell changers,
        // in parallel; stayers' rows are untouched.
        self.is_changer.clear();
        self.is_changer.resize(n, false);
        {
            let keys = ScatterWriter::new(&mut self.point_keys);
            let outer = ScatterWriter::new(&mut self.point_outer);
            let chg = ScatterWriter::new(&mut self.is_changer);
            let (keys, outer, chg) = (&keys, &outer, &chg);
            exec.map_ranges(n, POINT_CHUNK, |range| {
                let mut new_key = [0u64; MAX_DIM];
                for p_idx in range {
                    if !moved[p_idx] {
                        continue;
                    }
                    geometry.cell_coords_of(row(coords, dim, p_idx), &mut new_key[..dim]);
                    // each point index occurs in exactly one chunk
                    let old = unsafe { keys.row_mut(p_idx * dim, dim) };
                    if old != &new_key[..dim] {
                        old.copy_from_slice(&new_key[..dim]);
                        unsafe {
                            outer.row_mut(p_idx, 1)[0] =
                                geometry.outer_id_of_coords(&new_key[..dim]) as u64;
                            chg.row_mut(p_idx, 1)[0] = true;
                        }
                    }
                }
            });
        }

        // Pass 2 — partition: collect the changer work-list (ascending
        // point index) and count movers.
        self.changers.clear();
        self.changers.reserve(n);
        let mut moved_points = 0u64;
        for p in 0..n {
            if moved[p] {
                moved_points += 1;
                if self.is_changer[p] {
                    self.changers.push(p as u32);
                }
            }
        }

        if self.changers.is_empty() {
            let dirty_cells = self.refresh_in_place(exec, coords, moved);
            return GridRefreshStats {
                moved_points,
                rebinned_points: 0,
                dirty_cells,
                full_rebuild: false,
            };
        }
        let dirty_cells = self.refresh_rebin(exec, coords, moved);
        GridRefreshStats {
            moved_points,
            rebinned_points: self.changers.len() as u64,
            dirty_cells,
            full_rebuild: false,
        }
    }

    /// Incremental refresh when **no cell key changed**: the CSR layout is
    /// already correct, so only the trig rows of movers and the summaries
    /// of cells containing movers are recomputed, in place.
    fn refresh_in_place(&mut self, exec: &Executor, coords: &[f64], moved: &[bool]) -> u64 {
        let dim = self.geometry.dim;
        let ts = self.trig_stride();
        let n = moved.len();
        let num_cells = self.num_cells();

        // trig rows of movers, at their (unchanged) grid-sorted slots
        {
            let order = &self.cell_points;
            let trig = ScatterWriter::new(&mut self.point_trig);
            let trig = &trig;
            exec.map_ranges(n, POINT_CHUNK, |range| {
                for slot in range {
                    let p_idx = order[slot] as usize;
                    if !moved[p_idx] {
                        continue;
                    }
                    let p = row(coords, dim, p_idx);
                    // each slot occurs in exactly one chunk
                    let t = unsafe { trig.row_mut(slot * ts, ts) };
                    for i in 0..dim {
                        t[i] = p[i].sin();
                        t[dim + i] = p[i].cos();
                    }
                }
            });
        }

        // dirty set: cells containing at least one mover
        self.cell_dirty.clear();
        self.cell_dirty.resize(num_cells, false);
        let mut dirty_cells = 0u64;
        for p in 0..n {
            if moved[p] {
                let c = self.point_cell[p] as usize;
                if !self.cell_dirty[c] {
                    self.cell_dirty[c] = true;
                    dirty_cells += 1;
                }
            }
        }

        // recompute dirty summaries from full membership, in slot order —
        // bitwise identical to the fresh-build accumulation
        {
            let cell_starts = &self.cell_starts;
            let point_trig = &self.point_trig;
            let cell_dirty = &self.cell_dirty;
            exec.map_chunks_mut(&mut self.trig_sums, CELL_CHUNK * ts, |offset, chunk| {
                let first = offset / ts;
                for (r, sums) in chunk.chunks_exact_mut(ts).enumerate() {
                    let c = first + r;
                    if !cell_dirty[c] {
                        continue;
                    }
                    sums.fill(0.0);
                    let lo = cell_starts[c] as usize;
                    let hi = cell_starts[c + 1] as usize;
                    for t in point_trig[lo * ts..hi * ts].chunks_exact(ts) {
                        accumulate_row(sums, t);
                    }
                }
            });
        }
        self.rebuild_lane_tables(exec, coords);
        self.rebuild_cell_bounds(exec, coords);
        dirty_cells
    }

    /// Incremental refresh with changers: splice the re-binned points back
    /// into the grid-sorted order and recompute only dirty cells.
    fn refresh_rebin(&mut self, exec: &Executor, coords: &[f64], moved: &[bool]) -> u64 {
        let dim = self.geometry.dim;
        let n = moved.len();

        // sort the changers under the grid total order (their new keys)
        {
            let keys = &self.point_keys;
            let outer = &self.point_outer;
            self.changers.sort_unstable_by(|&a, &b| {
                let (a, b) = (a as usize, b as usize);
                outer[a]
                    .cmp(&outer[b])
                    .then_with(|| keys[a * dim..(a + 1) * dim].cmp(&keys[b * dim..(b + 1) * dim]))
                    .then(a.cmp(&b))
            });
        }

        // merge stayers (already sorted: their keys are unchanged) with the
        // sorted changers — reproduces the fresh sort's permutation exactly,
        // because the order (outer, key, index) is total and strict
        self.merge_scratch.clear();
        self.merge_scratch.reserve(n);
        {
            let keys = &self.point_keys;
            let outer = &self.point_outer;
            let less = |a: u32, b: u32| {
                let (a, b) = (a as usize, b as usize);
                outer[a]
                    .cmp(&outer[b])
                    .then_with(|| keys[a * dim..(a + 1) * dim].cmp(&keys[b * dim..(b + 1) * dim]))
                    .then(a.cmp(&b))
                    .is_lt()
            };
            let mut ci = 0usize;
            for &pt in &self.cell_points {
                if self.is_changer[pt as usize] {
                    continue; // re-emitted from the changer list instead
                }
                while ci < self.changers.len() && less(self.changers[ci], pt) {
                    self.merge_scratch.push(self.changers[ci]);
                    ci += 1;
                }
                self.merge_scratch.push(pt);
            }
            self.merge_scratch.extend_from_slice(&self.changers[ci..]);
            debug_assert_eq!(self.merge_scratch.len(), n);
        }

        // cut pass over the merged order: new cell boundaries, outer index,
        // per-point cell/slot (into scratch — the old inversion is still
        // needed below), and the dirty/clean classification per new cell.
        // A cell is clean iff it contains no changer and no mover and its
        // membership is unchanged (same old cell, same size) — then both
        // its trig rows and its summary row are bitwise reusable.
        // The per-point scratch reserves here are u32-sized (a few MB even
        // at the 1M envelope) and guarantee the zero-alloc steady state;
        // only `rebuild`'s n·dim key reserve was a real memory spike.
        self.cell_keys.clear();
        self.outer_index.clear();
        self.starts_scratch.clear();
        self.starts_scratch.reserve(n + 1);
        self.cell_dirty.clear();
        self.cell_dirty.reserve(n);
        self.clean_src.clear();
        self.clean_src.reserve(n);
        self.point_cell_scratch.resize(n, 0);
        self.point_slot_scratch.resize(n, 0);
        let mut dirty_cells = 0u64;
        {
            let order = &self.merge_scratch;
            self.starts_scratch.push(0);
            let mut cell_first = 0usize;
            let mut cur_dirty = false;
            let close_cell = |this: &mut Vec<bool>,
                              clean_src: &mut Vec<u32>,
                              lo: usize,
                              hi: usize,
                              cur_dirty: bool| {
                let mut dirty = cur_dirty;
                let mut src = 0u32;
                if !dirty {
                    // no changers in the cell ⇒ its first member is a
                    // stayer; equal size ⇒ identical membership
                    let c_old = self.point_cell[order[lo] as usize] as usize;
                    let old_len = (self.cell_starts[c_old + 1] - self.cell_starts[c_old]) as usize;
                    if old_len == hi - lo {
                        src = c_old as u32;
                    } else {
                        dirty = true;
                    }
                }
                this.push(dirty);
                clean_src.push(src);
                dirty as u64
            };
            for e in 0..n {
                let p = order[e] as usize;
                let new_cell = e == 0 || {
                    let prev = order[e - 1] as usize;
                    self.point_keys[prev * dim..(prev + 1) * dim]
                        != self.point_keys[p * dim..(p + 1) * dim]
                };
                if new_cell {
                    if e > 0 {
                        dirty_cells += close_cell(
                            &mut self.cell_dirty,
                            &mut self.clean_src,
                            cell_first,
                            e,
                            cur_dirty,
                        );
                        self.starts_scratch.push(e as u32);
                    }
                    cell_first = e;
                    cur_dirty = false;
                    let c = self.starts_scratch.len() as u32 - 1;
                    self.cell_keys
                        .extend_from_slice(&self.point_keys[p * dim..(p + 1) * dim]);
                    let oid = self.point_outer[p];
                    match self.outer_index.last_mut() {
                        Some((last_oid, _, hi)) if *last_oid == oid => *hi = c + 1,
                        _ => self.outer_index.push((oid, c, c + 1)),
                    }
                }
                if moved[p] {
                    cur_dirty = true;
                }
                self.point_cell_scratch[p] = self.starts_scratch.len() as u32 - 1;
                self.point_slot_scratch[p] = e as u32;
            }
            if n > 0 {
                dirty_cells += close_cell(
                    &mut self.cell_dirty,
                    &mut self.clean_src,
                    cell_first,
                    n,
                    cur_dirty,
                );
                self.starts_scratch.push(n as u32);
            }
        }
        let num_cells = self.starts_scratch.len().saturating_sub(1);

        // trig pass into the double buffer: movers are recomputed, stayers'
        // rows are relocated from their old slots — bitwise the same values
        // a fresh build would compute from the same coordinates
        let ts = self.trig_stride();
        self.trig_scratch.resize(n * ts, 0.0);
        {
            let order = &self.merge_scratch;
            let old_slot = &self.point_slot;
            let old_trig = &self.point_trig;
            let trig = ScatterWriter::new(&mut self.trig_scratch);
            let trig = &trig;
            exec.map_ranges(n, POINT_CHUNK, |range| {
                for slot in range {
                    let p_idx = order[slot] as usize;
                    // each slot occurs in exactly one chunk
                    let t = unsafe { trig.row_mut(slot * ts, ts) };
                    if moved[p_idx] {
                        let p = row(coords, dim, p_idx);
                        for i in 0..dim {
                            t[i] = p[i].sin();
                            t[dim + i] = p[i].cos();
                        }
                    } else {
                        let s = old_slot[p_idx] as usize;
                        t.copy_from_slice(&old_trig[s * ts..(s + 1) * ts]);
                    }
                }
            });
        }

        // summary pass into the double buffer: dirty cells re-accumulate
        // their full membership in slot order, clean cells copy their old
        // row (identical membership, identical rows ⇒ identical bits)
        self.sums_scratch.clear();
        self.sums_scratch.resize(num_cells * ts, 0.0);
        {
            let cell_starts = &self.starts_scratch;
            let point_trig = &self.trig_scratch;
            let cell_dirty = &self.cell_dirty;
            let clean_src = &self.clean_src;
            let old_sums = &self.trig_sums;
            exec.map_chunks_mut(&mut self.sums_scratch, CELL_CHUNK * ts, |offset, chunk| {
                let first = offset / ts;
                for (r, sums) in chunk.chunks_exact_mut(ts).enumerate() {
                    let c = first + r;
                    if cell_dirty[c] {
                        let lo = cell_starts[c] as usize;
                        let hi = cell_starts[c + 1] as usize;
                        for t in point_trig[lo * ts..hi * ts].chunks_exact(ts) {
                            accumulate_row(sums, t);
                        }
                    } else {
                        let src = clean_src[c] as usize;
                        sums.copy_from_slice(&old_sums[src * ts..(src + 1) * ts]);
                    }
                }
            });
        }

        // promote the double buffers
        std::mem::swap(&mut self.cell_points, &mut self.merge_scratch);
        std::mem::swap(&mut self.cell_starts, &mut self.starts_scratch);
        std::mem::swap(&mut self.point_cell, &mut self.point_cell_scratch);
        std::mem::swap(&mut self.point_slot, &mut self.point_slot_scratch);
        std::mem::swap(&mut self.point_trig, &mut self.trig_scratch);
        std::mem::swap(&mut self.trig_sums, &mut self.sums_scratch);
        self.rebuild_lane_tables(exec, coords);
        self.rebuild_cell_bounds(exec, coords);
        dirty_cells
    }

    /// Recompute the per-cell point MBRs from the final grid-sorted order
    /// — an O(n·d) pass, within the same per-iteration envelope as the
    /// lane-table relayout that precedes it. Each cell scans its own
    /// contiguous slot range sequentially, so the rows are a pure function
    /// of the CSR layout and the coordinates: bitwise identical for any
    /// worker count and for either maintenance path.
    fn rebuild_cell_bounds(&mut self, exec: &Executor, coords: &[f64]) {
        let dim = self.geometry.dim;
        let num_cells = self.num_cells();
        let bs = 2 * dim;
        self.cell_bounds.clear();
        self.cell_bounds.resize(num_cells * bs, 0.0);
        let cell_starts = &self.cell_starts;
        let order = &self.cell_points;
        exec.map_chunks_mut(&mut self.cell_bounds, CELL_CHUNK * bs, |offset, chunk| {
            let first = offset / bs;
            for (r, bounds) in chunk.chunks_exact_mut(bs).enumerate() {
                let c = first + r;
                let lo = cell_starts[c] as usize;
                let hi = cell_starts[c + 1] as usize;
                let (b_lo, b_hi) = bounds.split_at_mut(dim);
                b_lo.copy_from_slice(row(coords, dim, order[lo] as usize));
                b_hi.copy_from_slice(b_lo);
                for slot in lo + 1..hi {
                    let q = row(coords, dim, order[slot] as usize);
                    for i in 0..dim {
                        b_lo[i] = b_lo[i].min(q[i]);
                        b_hi[i] = b_hi[i].max(q[i]);
                    }
                }
            }
        });
    }

    /// Rebuild the lane-blocked SoA tables (`lane_sin`, `lane_cos`,
    /// `lane_coords`) from the freshly maintained trig table and the
    /// grid-sorted order. A pure relayout — block `b` copies the rows of
    /// lane indices `4b..4b+4` (slot `s` lives at lane `lane_phase + s`)
    /// into dimension-major lane groups, the leading `lane_phase` pad
    /// lanes and the padding lanes past `n` stay zero — so the tables are
    /// bitwise consistent with `point_trig`/`coords` whether the grid was
    /// rebuilt or refreshed, and the pass is deterministic for any worker
    /// count.
    fn rebuild_lane_tables(&mut self, exec: &Executor, coords: &[f64]) {
        let dim = self.geometry.dim;
        let ts = self.trig_stride();
        let n = self.cell_points.len();
        let phase = self.lane_phase;
        let n_blocks = (phase + n).div_ceil(LANES);
        let len = n_blocks * dim * LANES;
        self.lane_sin.clear();
        self.lane_sin.resize(len, 0.0);
        self.lane_cos.clear();
        self.lane_cos.resize(len, 0.0);
        self.lane_coords.clear();
        self.lane_coords.resize(len, 0.0);
        let order = &self.cell_points;
        let trig = &self.point_trig;
        let sin_w = ScatterWriter::new(&mut self.lane_sin);
        let cos_w = ScatterWriter::new(&mut self.lane_cos);
        let xyz_w = ScatterWriter::new(&mut self.lane_coords);
        let (sin_w, cos_w, xyz_w) = (&sin_w, &cos_w, &xyz_w);
        exec.map_ranges(n_blocks, CELL_CHUNK, |range| {
            for b in range {
                // each block occurs in exactly one chunk
                let (sins, coss, xyzs) = unsafe {
                    (
                        sin_w.row_mut(b * dim * LANES, dim * LANES),
                        cos_w.row_mut(b * dim * LANES, dim * LANES),
                        xyz_w.row_mut(b * dim * LANES, dim * LANES),
                    )
                };
                for j in 0..LANES {
                    let lane = b * LANES + j;
                    if lane < phase {
                        continue;
                    }
                    let slot = lane - phase;
                    if slot >= n {
                        break;
                    }
                    let t = &trig[slot * ts..(slot + 1) * ts];
                    let p = row(coords, dim, order[slot] as usize);
                    for i in 0..dim {
                        sins[i * LANES + j] = t[i];
                        coss[i * LANES + j] = t[dim + i];
                        xyzs[i * LANES + j] = p[i];
                    }
                }
            }
        });
    }

    /// The geometry the grid was built under.
    pub fn geometry(&self) -> &GridGeometry {
        &self.geometry
    }

    /// Padded length of a trig-table or summary row: `2·dim` live elements
    /// (`sin` then `cos` per dimension) rounded up to a [`LANES`] multiple,
    /// so row accumulation runs in whole vector steps.
    pub fn trig_stride(&self) -> usize {
        lane_pad(2 * self.geometry.dim)
    }

    /// Lane-blocked `sin` table: `lane_sin()[(b·dim + i)·LANES + j]` is
    /// `sin` of dimension `i` of the point at lane index `4b + j`, where
    /// slot `s` lives at lane index [`CellGrid::lane_phase`]` + s` (zero
    /// in the pad lanes). The SIMD pair-term kernel's row layout.
    pub fn lane_sin(&self) -> &[f64] {
        &self.lane_sin
    }

    /// Leading pad lanes of the lane-blocked tables: the lane index of
    /// grid-sorted slot `s` is `lane_phase() + s`. Consumers striping a
    /// slot range through the lane tables must offset by this.
    pub fn lane_phase(&self) -> usize {
        self.lane_phase
    }

    /// Set the lane phase (taken mod [`LANES`]) used by the next rebuild
    /// or refresh. A sharded engine passes its shard's global grid-sorted
    /// slot base, so lane-block boundaries — and with them the SIMD
    /// pair-term's reduction grouping — land exactly where the single
    /// grid's would for every resident cell, keeping the lane sums
    /// bitwise invariant under sharding. Must be set **before** the
    /// [`CellGrid::rebuild`]/[`CellGrid::refresh`] that should honor it.
    pub fn set_lane_phase(&mut self, global_slot_base: usize) {
        self.lane_phase = global_slot_base % LANES;
    }

    /// Lane-blocked `cos` table, same layout as [`CellGrid::lane_sin`].
    pub fn lane_cos(&self) -> &[f64] {
        &self.lane_cos
    }

    /// Lane-blocked raw coordinates in grid-sorted slot order, same layout
    /// as [`CellGrid::lane_sin`] — lets the SIMD distance kernel load four
    /// neighbors contiguously instead of gathering through
    /// [`CellGrid::point_order`].
    pub fn lane_coords(&self) -> &[f64] {
        &self.lane_coords
    }

    /// Number of non-empty cells.
    pub fn num_cells(&self) -> usize {
        self.cell_starts.len().saturating_sub(1)
    }

    /// Full-dimensional coordinates of compacted cell `c`.
    pub fn cell_key(&self, c: usize) -> &[u64] {
        let dim = self.geometry.dim;
        &self.cell_keys[c * dim..(c + 1) * dim]
    }

    /// Point indices inside compacted cell `c` (ascending).
    pub fn cell_points(&self, c: usize) -> &[u32] {
        &self.cell_points[self.cell_starts[c] as usize..self.cell_starts[c + 1] as usize]
    }

    /// Number of points in compacted cell `c`.
    pub fn cell_len(&self, c: usize) -> usize {
        (self.cell_starts[c + 1] - self.cell_starts[c]) as usize
    }

    /// Compacted cell index of every point — the cluster labels once the
    /// synchronization criterion holds (§4.3.4).
    pub fn point_cell(&self) -> &[u32] {
        &self.point_cell
    }

    /// Per-dimension Σsin over the points of cell `c`.
    pub fn sin_sums(&self, c: usize) -> &[f64] {
        let dim = self.geometry.dim;
        let ts = self.trig_stride();
        &self.trig_sums[c * ts..c * ts + dim]
    }

    /// Per-dimension Σcos over the points of cell `c`.
    pub fn cos_sums(&self, c: usize) -> &[f64] {
        let dim = self.geometry.dim;
        let ts = self.trig_stride();
        &self.trig_sums[c * ts + dim..c * ts + 2 * dim]
    }

    /// The point MBR of compacted cell `c`: `(lo, hi)` slices of `dim`
    /// values each — the tight bounds the update kernel classifies the
    /// cell with (exact: the cell's points all lie inside them).
    pub fn cell_bounds(&self, c: usize) -> (&[f64], &[f64]) {
        let dim = self.geometry.dim;
        let bs = 2 * dim;
        self.cell_bounds[c * bs..(c + 1) * bs].split_at(dim)
    }

    /// All point indices in grid-sorted order — the host edition of the
    /// device's `i_points` (§4.2.6). Processing points in this order makes
    /// consecutive points share cells, so their reach walks touch the same
    /// cache lines.
    pub fn point_order(&self) -> &[u32] {
        &self.cell_points
    }

    /// Slot range of compacted cell `c` in the grid-sorted order — the
    /// indices into [`CellGrid::point_order`] (and the trig-table rows)
    /// occupied by the cell's points.
    pub fn cell_range(&self, c: usize) -> std::ops::Range<usize> {
        self.cell_starts[c] as usize..self.cell_starts[c + 1] as usize
    }

    /// Compacted-cell range whose *leading* cell coordinate lies in
    /// `c0_range`, half-open. Contiguous by construction: the grid's
    /// total cell order is (outer id, full key lex), the outer id is
    /// row-major with dimension 0 most significant, and the key
    /// comparison starts at dimension 0 — so compacted cells are sorted
    /// primarily by their leading coordinate under **every** variant,
    /// including `d' = 0`. This is the lookup the sharded engine uses to
    /// find a shard's owned cells inside its resident grid.
    pub fn cells_with_leading_coord(
        &self,
        c0_range: std::ops::Range<u64>,
    ) -> std::ops::Range<usize> {
        self.leading_coord_lower_bound(c0_range.start)..self.leading_coord_lower_bound(c0_range.end)
    }

    /// First compacted cell whose leading coordinate is ≥ `bound`.
    fn leading_coord_lower_bound(&self, bound: u64) -> usize {
        let (mut lo, mut hi) = (0usize, self.num_cells());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.cell_key(mid)[0] < bound {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// The cell runs of the grid-sorted slot window `slots`, in order: each
    /// cell holding slots of the window, with the slots it holds there.
    pub(crate) fn cell_runs(
        &self,
        slots: std::ops::Range<usize>,
    ) -> impl Iterator<Item = (usize, std::ops::Range<usize>)> + '_ {
        let mut start = slots.start;
        std::iter::from_fn(move || {
            (start < slots.end).then(|| {
                let c = self.point_cell[self.cell_points[start] as usize] as usize;
                let run = start..self.cell_range(c).end.min(slots.end);
                start = run.end;
                (c, run)
            })
        })
    }

    /// Grid-sorted slot range covered by a contiguous compacted-cell
    /// range — the owned-slot window the sharded update pass iterates.
    pub fn slots_of_cells(&self, cells: std::ops::Range<usize>) -> std::ops::Range<usize> {
        self.cell_starts[cells.start] as usize..self.cell_starts[cells.end] as usize
    }

    /// Per-dimension `sin` of the raw coordinates of the point in
    /// grid-sorted slot `s` (i.e. of point `point_order()[s]`), from the
    /// iteration's trig table.
    pub fn slot_sin(&self, s: usize) -> &[f64] {
        let dim = self.geometry.dim;
        let ts = self.trig_stride();
        &self.point_trig[s * ts..s * ts + dim]
    }

    /// Per-dimension `cos` of the raw coordinates of the point in
    /// grid-sorted slot `s`, from the iteration's trig table.
    pub fn slot_cos(&self, s: usize) -> &[f64] {
        let dim = self.geometry.dim;
        let ts = self.trig_stride();
        &self.point_trig[s * ts + dim..s * ts + 2 * dim]
    }

    /// Invoke `f` with the compacted index of every non-empty cell in the
    /// outer cells surrounding (and including) outer cell `oid`, in outer
    /// offset order and then sorted cell order. Empty outer buckets are
    /// skipped by a binary search over the sorted non-empty outer ranges.
    /// The hot loops walk this once per cell run through `ReachList`,
    /// the host analogue of the preGrid list (§4.2.5).
    pub fn for_each_cell_in_reach(&self, oid: usize, mut f: impl FnMut(usize)) {
        self.geometry.for_each_surrounding_outer(oid, |o| {
            let o = o as u64;
            if let Ok(e) = self.outer_index.binary_search_by_key(&o, |&(id, _, _)| id) {
                let (_, lo, hi) = self.outer_index[e];
                for c in lo..hi {
                    f(c as usize);
                }
            }
        });
    }

    /// The outer cell of compacted cell `c` — the outer cell of every one
    /// of its points, so the reach walked from it is each point's reach.
    pub(crate) fn outer_id_of_cell(&self, c: usize) -> usize {
        self.geometry.outer_id_of_coords(self.cell_key(c))
    }

    /// Approximate heap footprint of the structure in bytes (Figure 3h's
    /// accounting for the host backend), scratch buffers included.
    pub fn memory_bytes(&self) -> usize {
        self.cell_keys.len() * 8
            + self.cell_starts.len() * 4
            + self.cell_points.len() * 4
            + self.point_cell.len() * 4
            + self.trig_sums.len() * 8
            + self.point_trig.len() * 8
            + self.lane_sin.len() * 8
            + self.lane_cos.len() * 8
            + self.lane_coords.len() * 8
            + self.cell_bounds.len() * 8
            + self.outer_index.len() * 16
            + self.point_keys.len() * 8
            + self.point_outer.len() * 8
            + self.point_slot.len() * 4
            + self.changers.len() * 4
            + self.is_changer.len()
            + self.cell_dirty.len()
            + self.clean_src.len() * 4
            + self.merge_scratch.len() * 4
            + self.starts_scratch.len() * 4
            + self.point_cell_scratch.len() * 4
            + self.point_slot_scratch.len() * 4
            + self.trig_scratch.len() * 8
            + self.sums_scratch.len() * 8
    }
}

/// Most cells a [`ReachList`] holds. A run whose kept reach is longer
/// walks the reach once per point instead.
pub(crate) const REACH_CAP: usize = 256;

/// Box-against-box classification applied by [`ReachList::build`]: the
/// run cell's point MBR against each reached cell's point MBR.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BoxFilter {
    /// Drop a reached cell whose minimum box distance² exceeds this.
    pub beyond_sq: f64,
    /// Tag a reached cell "inside" when its maximum box distance² is at
    /// most this (`f64::NEG_INFINITY` tags none).
    pub inside_sq: f64,
}

/// The ε-reach of one cell, walked once and replayed by every point of a
/// run of grid-sorted points in that cell. It is the host edition of the
/// preGrid list (§4.2.5), built per cell instead of per outer cell, and
/// kept in fixed-size storage on the caller's stack, so it allocates
/// nothing.
///
/// Each kept cell carries an `inside` tag from the optional
/// [`BoxFilter`]. Every point of the run lies inside the run cell's point
/// MBR, so [`GridGeometry::min_sq_dist_between_bounds`] and
/// [`GridGeometry::max_sq_dist_between_bounds`] bound that point's own
/// [`GridGeometry::min_sq_dist_to_bounds`] and
/// [`GridGeometry::max_sq_dist_to_bounds`] from below and above, even
/// after f64 rounding. A dropped cell would therefore fail the per-point
/// test for every point of the run. An `inside` cell would pass it. The
/// replay visits the kept cells in walk order, so each point sees the
/// same cells, in the same order, with the same verdicts as a per-point
/// walk.
pub(crate) struct ReachList {
    cells: [u32; REACH_CAP],
    inside: [bool; REACH_CAP],
    len: usize,
}

impl ReachList {
    /// An empty list.
    pub(crate) fn new() -> Self {
        Self {
            cells: [0; REACH_CAP],
            inside: [false; REACH_CAP],
            len: 0,
        }
    }

    /// Walk the reach of cell `c` of `grid` once and keep its cells, in
    /// walk order, minus the cells `filter` drops. Returns `false`, and
    /// leaves the list empty, when more than `cap` cells (at most
    /// [`REACH_CAP`]) would be kept; the caller then walks per point.
    pub(crate) fn build(
        &mut self,
        grid: &CellGrid,
        c: usize,
        filter: Option<BoxFilter>,
        cap: usize,
    ) -> bool {
        let cap = cap.min(REACH_CAP);
        let (a_lo, a_hi) = grid.cell_bounds(c);
        let (mut len, mut fits) = (0usize, true);
        grid.for_each_cell_in_reach(grid.outer_id_of_cell(c), |r| {
            if !fits {
                return;
            }
            let inside = match filter {
                None => false,
                Some(f) => {
                    let (lo, hi) = grid.cell_bounds(r);
                    if GridGeometry::min_sq_dist_between_bounds(a_lo, a_hi, lo, hi) > f.beyond_sq {
                        return;
                    }
                    GridGeometry::max_sq_dist_between_bounds(a_lo, a_hi, lo, hi) <= f.inside_sq
                }
            };
            if len == cap {
                fits = false;
                return;
            }
            self.cells[len] = r as u32;
            self.inside[len] = inside;
            len += 1;
        });
        self.len = if fits { len } else { 0 };
        fits
    }

    /// The kept cells in walk order, each with its `inside` tag.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (usize, bool)> + '_ {
        self.cells[..self.len]
            .iter()
            .zip(&self.inside[..self.len])
            .map(|(&c, &inside)| (c as usize, inside))
    }
}

#[cfg(test)]
mod tests {
    use super::super::geometry::GridVariant;
    use super::*;
    use egg_spatial::distance::squared_euclidean;

    fn grid_fixture(coords: &[f64], dim: usize, eps: f64) -> (GridGeometry, Vec<f64>) {
        let g = GridGeometry::new(dim, eps, coords.len() / dim, GridVariant::Auto);
        (g, coords.to_vec())
    }

    #[test]
    fn every_point_is_in_exactly_one_cell() {
        let coords: Vec<f64> = (0..200).map(|i| (i as f64 * 0.005) % 1.0).collect();
        let (g, coords) = grid_fixture(&coords, 2, 0.05);
        let grid = HostGrid::build(&g, &coords);
        let total: usize = grid.iter_cells().map(|(_, pts)| pts.len()).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn cell_of_contains_the_point() {
        let coords = [0.5, 0.5, 0.51, 0.5, 0.9, 0.9];
        let (g, coords) = grid_fixture(&coords, 2, 0.1);
        let grid = HostGrid::build(&g, &coords);
        assert!(grid.cell_of(&[0.9, 0.9]).contains(&2));
    }

    #[test]
    fn ball_query_matches_brute_force() {
        // pseudo-random but deterministic point cloud
        let coords: Vec<f64> = (0..600)
            .map(|i| ((i * 2654435761u64 as usize) % 1000) as f64 / 1000.0)
            .collect();
        let dim = 2;
        let (g, coords) = grid_fixture(&coords, dim, 0.07);
        let grid = HostGrid::build(&g, &coords);
        for p_idx in [0usize, 17, 123, 299] {
            let p = row(&coords, dim, p_idx);
            for radius in [0.0, 0.03, 0.07] {
                let mut got = grid.ball_indices(p, radius);
                got.sort_unstable();
                let expected: Vec<u32> = (0..coords.len() / dim)
                    .filter(|&q| squared_euclidean(p, row(&coords, dim, q)) <= radius * radius)
                    .map(|q| q as u32)
                    .collect();
                assert_eq!(got, expected, "p={p_idx} r={radius}");
            }
        }
    }

    #[test]
    fn points_in_same_cell_are_within_half_epsilon() {
        let coords: Vec<f64> = (0..400)
            .map(|i| ((i * 48271) % 997) as f64 / 997.0)
            .collect();
        let eps = 0.1;
        let (g, coords) = grid_fixture(&coords, 2, eps);
        let grid = HostGrid::build(&g, &coords);
        for (_, pts) in grid.iter_cells() {
            for (a, &i) in pts.iter().enumerate() {
                for &j in &pts[a + 1..] {
                    // radius-only comparison: no sqrt needed
                    assert!(
                        egg_spatial::distance::within(
                            row(&coords, 2, i as usize),
                            row(&coords, 2, j as usize),
                            eps / 2.0 + 1e-12,
                        ),
                        "cell mates {i},{j} farther than ε/2 apart"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_grid() {
        let (g, coords) = grid_fixture(&[], 3, 0.05);
        let grid = HostGrid::build(&g, &coords);
        assert_eq!(grid.num_cells(), 0);
        assert!(grid.ball_indices(&[0.5, 0.5, 0.5], 0.2).is_empty());
    }

    fn pseudo_cloud(n: usize, dim: usize) -> Vec<f64> {
        (0..n * dim)
            .map(|i| ((i as u64).wrapping_mul(2654435761) % 1000) as f64 / 1000.0)
            .collect()
    }

    #[test]
    fn cell_grid_agrees_with_host_grid() {
        let coords = pseudo_cloud(400, 2);
        let g = GridGeometry::new(2, 0.07, 200, GridVariant::Auto);
        let reference = HostGrid::build(&g, &coords);
        let grid = CellGrid::build(&Executor::sequential(), g, &coords);
        assert_eq!(grid.num_cells(), reference.num_cells());
        for c in 0..grid.num_cells() {
            let mut expected: Vec<u32> = reference
                .cell_of(row(&coords, 2, grid.cell_points(c)[0] as usize))
                .to_vec();
            expected.sort_unstable();
            assert_eq!(grid.cell_points(c), &expected[..], "cell {c}");
            assert_eq!(grid.cell_len(c), expected.len());
            for &p in grid.cell_points(c) {
                assert_eq!(grid.point_cell()[p as usize] as usize, c);
            }
        }
    }

    #[test]
    fn cell_grid_summaries_match_brute_force() {
        let coords = pseudo_cloud(300, 3);
        let g = GridGeometry::new(3, 0.12, 100, GridVariant::Auto);
        let grid = CellGrid::build(&Executor::new(Some(4)), g, &coords);
        for c in 0..grid.num_cells() {
            for i in 0..3 {
                let sin: f64 = grid
                    .cell_points(c)
                    .iter()
                    .map(|&p| coords[p as usize * 3 + i].sin())
                    .sum();
                let cos: f64 = grid
                    .cell_points(c)
                    .iter()
                    .map(|&p| coords[p as usize * 3 + i].cos())
                    .sum();
                assert!((grid.sin_sums(c)[i] - sin).abs() < 1e-12);
                assert!((grid.cos_sums(c)[i] - cos).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn cell_grid_layout_is_identical_across_worker_counts() {
        let coords = pseudo_cloud(5000, 2);
        let g = GridGeometry::new(2, 0.04, 2500, GridVariant::Auto);
        let reference = CellGrid::build(&Executor::sequential(), g, &coords);
        for workers in [2, 3, 8] {
            let grid = CellGrid::build(&Executor::new(Some(workers)), g, &coords);
            assert_eq!(grid.cell_keys, reference.cell_keys, "workers = {workers}");
            assert_eq!(grid.cell_starts, reference.cell_starts);
            assert_eq!(grid.cell_points, reference.cell_points);
            assert_eq!(grid.point_cell, reference.point_cell);
            // summaries must be bitwise identical, not just close
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&grid.trig_sums), bits(&reference.trig_sums));
        }
    }

    /// The lane-blocked tables must be an exact relayout of the trig table
    /// and the grid-sorted coordinates — including after incremental
    /// refreshes, whose lane pass copies rather than recomputes — with
    /// zeroed padding lanes.
    #[test]
    fn lane_tables_mirror_trig_table_and_coords() {
        let (n, dim) = (519, 3); // deliberately not a lane multiple
        let g = GridGeometry::new(dim, 0.12, n, GridVariant::Auto);
        let exec = Executor::new(Some(3));
        let mut coords = pseudo_cloud(n, dim);
        let mut grid = CellGrid::new(g);
        grid.refresh(&exec, &coords, None);
        fn check(grid: &CellGrid, coords: &[f64], n: usize, dim: usize) {
            let n_blocks = n.div_ceil(LANES);
            assert_eq!(grid.lane_sin().len(), n_blocks * dim * LANES);
            for b in 0..n_blocks {
                for j in 0..LANES {
                    let slot = b * LANES + j;
                    for i in 0..dim {
                        let at = (b * dim + i) * LANES + j;
                        let (s, c, x) = if slot < n {
                            let p = grid.point_order()[slot] as usize;
                            (
                                grid.slot_sin(slot)[i],
                                grid.slot_cos(slot)[i],
                                coords[p * dim + i],
                            )
                        } else {
                            (0.0, 0.0, 0.0) // padding lanes
                        };
                        assert_eq!(grid.lane_sin()[at].to_bits(), s.to_bits());
                        assert_eq!(grid.lane_cos()[at].to_bits(), c.to_bits());
                        assert_eq!(grid.lane_coords()[at].to_bits(), x.to_bits());
                    }
                }
            }
        }
        for round in 0..3u64 {
            check(&grid, &coords, n, dim);
            let moved = perturb(&mut coords, dim, round);
            grid.refresh(&exec, &coords, Some(&moved));
            check(&grid, &coords, n, dim);
        }
    }

    /// A suffix grid whose lane phase is set to the suffix's global slot
    /// base must drive `pair_term_cell` to bitwise the accumulation the
    /// full grid produces for the shared cells: lane-block boundaries
    /// line up, so the SIMD reduction associates identically. This is the
    /// invariant the sharded engine relies on for S=1 bitwise parity.
    #[test]
    fn phased_suffix_grid_matches_global_pair_term_bitwise() {
        use crate::kernels::{pair_term_cell, F64x4};
        let (n, dim) = (700, 3);
        let eps = 0.12;
        let g = GridGeometry::new(dim, eps, n, GridVariant::Auto);
        let exec = Executor::sequential();
        let coords = pseudo_cloud(n, dim);
        let full = CellGrid::build(&exec, g, &coords);
        let probe = row(&coords, dim, 0);
        let sin_p: Vec<f64> = probe.iter().map(|x| x.sin()).collect();
        let cos_p: Vec<f64> = probe.iter().map(|x| x.cos()).collect();
        let eps_sq = eps * eps;
        let mut phases_seen = [false; LANES];
        // split at cell boundaries, as the shard planner does
        for k in 1..full.num_cells().min(32) {
            let base = full.cell_starts[k] as usize;
            phases_seen[base % LANES] = true;
            // suffix points in ascending global index order (the member-
            // list order the sharded engine feeds its local grids)
            let mut idxs: Vec<u32> = full.cell_points[base..].to_vec();
            idxs.sort_unstable();
            let sub_coords: Vec<f64> = idxs
                .iter()
                .flat_map(|&p| {
                    coords[p as usize * dim..(p as usize + 1) * dim]
                        .iter()
                        .copied()
                })
                .collect();
            let mut sub = CellGrid::new(g);
            sub.set_lane_phase(base);
            sub.refresh(&exec, &sub_coords, None);
            assert_eq!(sub.num_cells(), full.num_cells() - k, "split at cell {k}");
            for c in 0..sub.num_cells() {
                let full_slots = full.cell_range(c + k);
                let sub_slots = sub.cell_range(c);
                assert_eq!(full_slots.len(), sub_slots.len());
                let mut acc_full = vec![F64x4::splat(0.0); dim];
                let hits_full = pair_term_cell(
                    full.lane_coords(),
                    full.lane_sin(),
                    full.lane_cos(),
                    dim,
                    full_slots.start,
                    full_slots.end,
                    probe,
                    &sin_p,
                    &cos_p,
                    eps_sq,
                    &mut acc_full,
                    false,
                );
                let mut acc_sub = vec![F64x4::splat(0.0); dim];
                let phase = sub.lane_phase();
                let hits_sub = pair_term_cell(
                    sub.lane_coords(),
                    sub.lane_sin(),
                    sub.lane_cos(),
                    dim,
                    phase + sub_slots.start,
                    phase + sub_slots.end,
                    probe,
                    &sin_p,
                    &cos_p,
                    eps_sq,
                    &mut acc_sub,
                    false,
                );
                assert_eq!(hits_full, hits_sub, "split {k} cell {c}");
                for i in 0..dim {
                    for j in 0..LANES {
                        assert_eq!(
                            acc_full[i].0[j].to_bits(),
                            acc_sub[i].0[j].to_bits(),
                            "split {k} cell {c} dim {i} lane {j}"
                        );
                    }
                }
            }
        }
        assert!(phases_seen.iter().all(|&s| s), "want every phase covered");
    }

    #[test]
    fn cell_grid_reach_covers_epsilon_ball() {
        let coords = pseudo_cloud(600, 2);
        let eps = 0.08;
        let g = GridGeometry::new(2, eps, 300, GridVariant::Auto);
        let grid = CellGrid::build(&Executor::sequential(), g, &coords);
        // every ε-neighbor of p must live in a cell enumerated by
        // for_each_cell_in_reach of p's outer cell
        for p_idx in [0usize, 57, 123, 299] {
            let p = row(&coords, 2, p_idx);
            let oid = g.outer_id_of_point(p);
            let mut seen = Vec::new();
            grid.for_each_cell_in_reach(oid, |c| seen.extend_from_slice(grid.cell_points(c)));
            for q_idx in 0..300 {
                if squared_euclidean(p, row(&coords, 2, q_idx)) <= eps * eps {
                    assert!(seen.contains(&(q_idx as u32)), "p={p_idx} misses q={q_idx}");
                }
            }
        }
    }

    #[test]
    fn cell_grid_empty_input() {
        let g = GridGeometry::new(2, 0.05, 0, GridVariant::Auto);
        let grid = CellGrid::build(&Executor::new(Some(4)), g, &[]);
        assert_eq!(grid.num_cells(), 0);
        assert!(grid.point_cell().is_empty());
        let mut visited = 0;
        grid.for_each_cell_in_reach(0, |_| visited += 1);
        assert_eq!(visited, 0);
    }

    /// Move roughly a quarter of the points — some by a hair (staying in
    /// their cell), some across cell boundaries — returning the flags.
    fn perturb(coords: &mut [f64], dim: usize, round: u64) -> Vec<bool> {
        let n = coords.len() / dim;
        let mut moved = vec![false; n];
        for (p, flag) in moved.iter_mut().enumerate() {
            let h = (p as u64 ^ round.wrapping_mul(0x9e3779b97f4a7c15)).wrapping_mul(2654435761);
            if h.is_multiple_of(4) {
                let delta = if h.is_multiple_of(8) { 0.0005 } else { 0.06 };
                for i in 0..dim {
                    let x = &mut coords[p * dim + i];
                    *x = (*x + delta).fract();
                }
                *flag = true;
            }
        }
        moved
    }

    #[test]
    fn incremental_refresh_is_bitwise_identical_to_rebuild() {
        let (n, dim) = (800, 3);
        let g = GridGeometry::new(dim, 0.12, n, GridVariant::Auto);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for workers in [1usize, 2, 3, 8] {
            let exec = Executor::new(Some(workers));
            let mut coords = pseudo_cloud(n, dim);
            let mut grid = CellGrid::new(g);
            let stats = grid.refresh(&exec, &coords, None);
            assert!(stats.full_rebuild, "first refresh has no prior state");
            for round in 0..6u64 {
                let moved = perturb(&mut coords, dim, round);
                let stats = grid.refresh(&exec, &coords, Some(&moved));
                assert!(!stats.full_rebuild, "workers {workers} round {round}");
                assert_eq!(
                    stats.moved_points,
                    moved.iter().filter(|&&m| m).count() as u64
                );
                let fresh = CellGrid::build(&Executor::sequential(), g, &coords);
                let tag = format!("workers {workers} round {round}");
                assert_eq!(grid.cell_keys, fresh.cell_keys, "{tag}");
                assert_eq!(grid.cell_starts, fresh.cell_starts, "{tag}");
                assert_eq!(grid.cell_points, fresh.cell_points, "{tag}");
                assert_eq!(grid.point_cell, fresh.point_cell, "{tag}");
                assert_eq!(grid.point_slot, fresh.point_slot, "{tag}");
                assert_eq!(grid.outer_index, fresh.outer_index, "{tag}");
                // summaries and trig tables bitwise, not merely close
                assert_eq!(bits(&grid.trig_sums), bits(&fresh.trig_sums), "{tag}");
                assert_eq!(bits(&grid.point_trig), bits(&fresh.point_trig), "{tag}");
                assert_eq!(bits(&grid.cell_bounds), bits(&fresh.cell_bounds), "{tag}");
            }
        }
    }

    #[test]
    fn cell_bounds_are_tight_point_mbrs() {
        let coords = pseudo_cloud(300, 3);
        let g = GridGeometry::new(3, 0.12, 100, GridVariant::Auto);
        let grid = CellGrid::build(&Executor::new(Some(4)), g, &coords);
        assert!(grid.num_cells() > 1);
        for c in 0..grid.num_cells() {
            let (lo, hi) = grid.cell_bounds(c);
            for i in 0..3 {
                let mut min = f64::INFINITY;
                let mut max = f64::NEG_INFINITY;
                for &p in grid.cell_points(c) {
                    min = min.min(coords[p as usize * 3 + i]);
                    max = max.max(coords[p as usize * 3 + i]);
                }
                assert_eq!(lo[i].to_bits(), min.to_bits(), "cell {c} dim {i}");
                assert_eq!(hi[i].to_bits(), max.to_bits(), "cell {c} dim {i}");
            }
        }
    }

    #[test]
    fn refresh_without_movers_recomputes_nothing() {
        let exec = Executor::new(Some(4));
        let coords = pseudo_cloud(300, 2);
        let g = GridGeometry::new(2, 0.05, 300, GridVariant::Auto);
        let mut grid = CellGrid::new(g);
        grid.refresh(&exec, &coords, None);
        let stats = grid.refresh(&exec, &coords, Some(&vec![false; 300]));
        assert_eq!(
            stats,
            GridRefreshStats {
                moved_points: 0,
                rebinned_points: 0,
                dirty_cells: 0,
                full_rebuild: false,
            }
        );
    }

    #[test]
    fn refresh_with_stale_flags_falls_back_to_rebuild() {
        let exec = Executor::new(Some(2));
        let coords = pseudo_cloud(200, 2);
        let g = GridGeometry::new(2, 0.05, 200, GridVariant::Auto);
        let mut grid = CellGrid::new(g);
        // no prior state → rebuild even with flags supplied
        let stats = grid.refresh(&exec, &coords, Some(&[false; 200]));
        assert!(stats.full_rebuild);
        // wrong flag length → rebuild
        let stats = grid.refresh(&exec, &coords, Some(&[false; 199]));
        assert!(stats.full_rebuild);
    }

    /// Adversarial layout for the reach-list lemma: coordinates exactly on
    /// cell boundaries or one ulp off them, heavy duplicates, and points
    /// exactly ε (or a multiple of the cell width) apart along an axis —
    /// all packed into a window a few ε wide so cells interact.
    fn adversarial_layout(seed: u64, g: &GridGeometry) -> Vec<f64> {
        let (dim, eps, cw) = (g.dim, g.epsilon, g.cell_width);
        // a window of cells per dimension, all inside the unit cube
        let window = g.width.min(14) as u64;
        let mut state = seed | 1;
        let mut next = move |m: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % m
        };
        let n = 40 + next(120) as usize;
        let base = next(g.width as u64 - window + 1);
        let mut coords: Vec<f64> = Vec::with_capacity(n * dim);
        for p in 0..n {
            let prev = (p > 0).then(|| next(p as u64) as usize);
            match (prev, next(6)) {
                // duplicate an earlier point
                (Some(q), 0 | 1) => {
                    let row = coords[q * dim..(q + 1) * dim].to_vec();
                    coords.extend_from_slice(&row);
                }
                // an earlier point moved by exactly ε, or by k cell widths,
                // along one axis
                (Some(q), 2) => {
                    let mut row = coords[q * dim..(q + 1) * dim].to_vec();
                    let axis = next(dim as u64) as usize;
                    let step = if next(2) == 0 {
                        eps
                    } else {
                        (1 + next(4)) as f64 * cw
                    };
                    row[axis] += if row[axis] + step <= 1.0 { step } else { -step };
                    coords.extend_from_slice(&row);
                }
                _ => {
                    for _ in 0..dim {
                        let k = (base + next(window)) as f64;
                        let x = match next(4) {
                            0 => k * cw,
                            1 => (k * cw).next_up(),
                            2 => (k * cw).next_down(),
                            _ => (k + next(1000) as f64 / 1000.0) * cw,
                        };
                        coords.push(x.clamp(0.0, 1.0));
                    }
                }
            }
        }
        coords
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig { cases: 48, ..proptest::ProptestConfig::default() })]

        /// The lemma behind `ReachList`: wherever the cell-against-cell
        /// test of a run cell's point MBR says "disjoint" or "all inside",
        /// every point of the run cell gets the same verdict from the
        /// per-point test, in f64. Checked for the update's ε threshold
        /// and the termination's shell, on every (cell, reached cell)
        /// pair; the kept list must equal the filtered walk.
        #[test]
        fn box_verdicts_agree_with_every_point_of_the_cell(
            seed in proptest::any::<u64>(),
            dim in 2usize..=8,
            eps_pick in 0usize..3
        ) {
            // 0.2 with d = 4 makes ε exactly 4 cell widths
            let eps = [0.05, 0.2, 0.1][eps_pick];
            let probe = GridGeometry::new(dim, eps, 1, GridVariant::Auto);
            let coords = adversarial_layout(seed, &probe);
            let n = coords.len() / dim;
            let g = GridGeometry::new(dim, eps, n, GridVariant::Auto);
            let grid = CellGrid::build(&Executor::sequential(), g, &coords);
            let eps_sq = eps * eps;
            let shell = eps + crate::model::delta(eps);
            let filter = BoxFilter { beyond_sq: eps_sq, inside_sq: eps_sq };
            let (mut dropped, mut inside) = (0usize, 0usize);
            let mut list = ReachList::new();
            for c in 0..grid.num_cells() {
                let (a_lo, a_hi) = grid.cell_bounds(c);
                let mut expected = Vec::new();
                grid.for_each_cell_in_reach(grid.outer_id_of_cell(c), |r| {
                    let (lo, hi) = grid.cell_bounds(r);
                    let box_min = GridGeometry::min_sq_dist_between_bounds(a_lo, a_hi, lo, hi);
                    let box_max = GridGeometry::max_sq_dist_between_bounds(a_lo, a_hi, lo, hi);
                    for t in [eps_sq, shell * shell] {
                        for &p_idx in grid.cell_points(c) {
                            let p = row(&coords, dim, p_idx as usize);
                            if box_min > t {
                                assert!(GridGeometry::min_sq_dist_to_bounds(p, lo, hi) > t);
                            }
                            if box_max <= t {
                                assert!(GridGeometry::max_sq_dist_to_bounds(p, lo, hi) <= t);
                            }
                        }
                    }
                    if box_min > eps_sq {
                        dropped += 1;
                    } else {
                        inside += usize::from(box_max <= eps_sq);
                        expected.push((r, box_max <= eps_sq));
                    }
                });
                assert!(list.build(&grid, c, Some(filter), REACH_CAP));
                assert_eq!(list.iter().collect::<Vec<_>>(), expected, "cell {c}");
            }
            // both verdicts must actually fire on these layouts
            assert!(dropped > 0 && inside > 0, "dropped {dropped}, inside {inside}");
        }
    }

    #[test]
    fn reach_list_reports_overflow_and_keeps_nothing() {
        let coords = pseudo_cloud(400, 2);
        let g = GridGeometry::new(2, 0.08, 200, GridVariant::Auto);
        let grid = CellGrid::build(&Executor::sequential(), g, &coords);
        let mut walk = 0usize;
        grid.for_each_cell_in_reach(grid.outer_id_of_cell(0), |_| walk += 1);
        let mut list = ReachList::new();
        assert!(list.build(&grid, 0, None, walk));
        assert_eq!(list.iter().count(), walk, "no filter keeps the whole walk");
        assert!(!list.build(&grid, 0, None, walk - 1));
        assert_eq!(list.iter().count(), 0);
    }
}
