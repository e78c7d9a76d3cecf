//! Row-major point sets with SynC's min/max normalization.

use serde::{Deserialize, Serialize};

/// A dense `n × dim` point set stored row-major in a single allocation.
///
/// All clustering algorithms in the reproduction operate on normalized
/// data: SynC's update moves points by `sin(q_i − p_i)`, which only drags
/// points *together* while coordinate differences stay within `(0, π/2)`,
/// so Böhm et al. min/max-normalize every dimension into `[0, 1]`.
/// [`Dataset::normalized`] applies exactly that transform.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    coords: Vec<f64>,
    dim: usize,
}

impl Dataset {
    /// Create a dataset from row-major coordinates.
    ///
    /// # Panics
    /// Panics if `dim == 0`, `coords.len()` is not a multiple of `dim`, or
    /// a coordinate is NaN or infinite: synchronization cannot place such a
    /// point in any cell, so no clustering of it exists.
    pub fn from_coords(coords: Vec<f64>, dim: usize) -> Self {
        if let Some(i) = coords.iter().position(|x| !x.is_finite()) {
            panic!(
                "point {} has the non-finite coordinate {} in dimension {}",
                i / dim.max(1),
                coords[i],
                i % dim.max(1)
            );
        }
        Self::from_finite_coords(coords, dim)
    }

    /// [`Dataset::from_coords`] for coordinates already known to be finite
    /// (checked while parsing, or derived from a dataset), skipping the
    /// second pass over them.
    pub(crate) fn from_finite_coords(coords: Vec<f64>, dim: usize) -> Self {
        assert!(dim > 0, "dimensionality must be positive");
        assert_eq!(
            coords.len() % dim,
            0,
            "coordinate array length {} is not a multiple of dim {}",
            coords.len(),
            dim
        );
        debug_assert!(coords.iter().all(|x| x.is_finite()));
        Self { coords, dim }
    }

    /// Create an empty dataset of the given dimensionality.
    pub fn empty(dim: usize) -> Self {
        Self::from_coords(Vec::new(), dim)
    }

    /// Create a dataset from explicit rows.
    ///
    /// # Panics
    /// Panics if rows have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let dim = rows.first().map_or(1, Vec::len).max(1);
        let mut coords = Vec::with_capacity(rows.len() * dim);
        for row in rows {
            assert_eq!(row.len(), dim, "inconsistent row length");
            coords.extend_from_slice(row);
        }
        Self::from_coords(coords, dim)
    }

    /// Number of points.
    #[inline]
    pub fn len(&self) -> usize {
        self.coords.len() / self.dim
    }

    /// Whether the dataset has no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.coords.is_empty()
    }

    /// Dimensionality of each point.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The `i`-th point.
    #[inline]
    pub fn point(&self, i: usize) -> &[f64] {
        &self.coords[i * self.dim..(i + 1) * self.dim]
    }

    /// The full row-major coordinate array.
    #[inline]
    pub fn coords(&self) -> &[f64] {
        &self.coords
    }

    /// Append a point.
    ///
    /// # Panics
    /// Panics on dimensionality mismatch or a non-finite coordinate.
    pub fn push(&mut self, point: &[f64]) {
        assert_eq!(point.len(), self.dim, "point dimensionality mismatch");
        assert!(
            point.iter().all(|x| x.is_finite()),
            "point has a non-finite coordinate: {point:?}"
        );
        self.coords.extend_from_slice(point);
    }

    /// Iterate over points as slices.
    pub fn iter(&self) -> impl Iterator<Item = &[f64]> {
        self.coords.chunks_exact(self.dim)
    }

    /// Per-dimension minima and maxima, or `None` if empty.
    pub fn bounds(&self) -> Option<(Vec<f64>, Vec<f64>)> {
        if self.is_empty() {
            return None;
        }
        let mut min = self.point(0).to_vec();
        let mut max = min.clone();
        for p in self.iter().skip(1) {
            for d in 0..self.dim {
                if p[d] < min[d] {
                    min[d] = p[d];
                }
                if p[d] > max[d] {
                    max[d] = p[d];
                }
            }
        }
        Some((min, max))
    }

    /// Min/max-normalize every dimension into `[0, 1]` (the preprocessing
    /// every experiment in the paper applies). Constant dimensions map to
    /// `0.0`.
    pub fn normalized(&self) -> Self {
        let Some((min, max)) = self.bounds() else {
            return self.clone();
        };
        let span: Vec<f64> = min.iter().zip(&max).map(|(lo, hi)| hi - lo).collect();
        let mut coords = Vec::with_capacity(self.coords.len());
        for p in self.coords.chunks_exact(self.dim) {
            for d in 0..self.dim {
                coords.push(if span[d] == 0.0 {
                    0.0
                } else if span[d].is_finite() {
                    (p[d] - min[d]) / span[d]
                } else {
                    // the span overflows f64 (e.g. -1e308..1e308): halve
                    // every term so no difference overflows
                    (p[d] / 2.0 - min[d] / 2.0) / (max[d] / 2.0 - min[d] / 2.0)
                });
            }
        }
        Self::from_finite_coords(coords, self.dim)
    }

    /// Keep only the first `n` points (used to scale experiments down).
    pub fn truncated(&self, n: usize) -> Self {
        let keep = n.min(self.len());
        Self::from_finite_coords(self.coords[..keep * self.dim].to_vec(), self.dim)
    }

    /// Heap bytes used by the coordinate storage.
    pub fn size_bytes(&self) -> usize {
        self.coords.len() * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let d = Dataset::from_coords(vec![1.0, 2.0, 3.0, 4.0], 2);
        assert_eq!(d.len(), 2);
        assert_eq!(d.dim(), 2);
        assert_eq!(d.point(1), &[3.0, 4.0]);
    }

    #[test]
    fn from_rows_matches_from_coords() {
        let a = Dataset::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Dataset::from_coords(vec![1.0, 2.0, 3.0, 4.0], 2);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn ragged_coords_rejected() {
        Dataset::from_coords(vec![1.0, 2.0, 3.0], 2);
    }

    #[test]
    #[should_panic(expected = "point 1 has the non-finite coordinate NaN in dimension 0")]
    fn nan_coordinate_rejected() {
        Dataset::from_coords(vec![1.0, 2.0, f64::NAN, 4.0], 2);
    }

    #[test]
    #[should_panic(expected = "non-finite coordinate inf in dimension 1")]
    fn infinite_coordinate_rejected() {
        Dataset::from_rows(&[vec![1.0, f64::INFINITY]]);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn pushed_infinity_rejected() {
        Dataset::empty(2).push(&[0.5, f64::NEG_INFINITY]);
    }

    #[test]
    fn bounds_and_normalization() {
        let d = Dataset::from_coords(vec![-100.0, 0.0, 100.0, 50.0, 0.0, 25.0], 2);
        let (min, max) = d.bounds().unwrap();
        assert_eq!(min, vec![-100.0, 0.0]);
        assert_eq!(max, vec![100.0, 50.0]);
        let n = d.normalized();
        assert_eq!(n.point(0), &[0.0, 0.0]);
        assert_eq!(n.point(1), &[1.0, 1.0]);
        assert_eq!(n.point(2), &[0.5, 0.5]);
    }

    #[test]
    fn normalization_is_bounded() {
        let d = Dataset::from_coords(vec![3.5, -7.0, 12.25, 0.0, 0.0, 99.0], 3);
        for p in d.normalized().iter() {
            assert!(p.iter().all(|&x| (0.0..=1.0).contains(&x)));
        }
    }

    #[test]
    fn normalization_survives_a_span_beyond_f64_max() {
        let d = Dataset::from_coords(vec![-1e308, 0.0, 1e308, 1.0, 0.0, 0.5], 2);
        let n = d.normalized();
        assert_eq!(n.point(0), &[0.0, 0.0]);
        assert_eq!(n.point(1), &[1.0, 1.0]);
        assert_eq!(n.point(2), &[0.5, 0.5]);
    }

    #[test]
    fn constant_dimension_maps_to_zero() {
        let d = Dataset::from_coords(vec![5.0, 1.0, 5.0, 2.0], 2);
        let n = d.normalized();
        assert_eq!(n.point(0)[0], 0.0);
        assert_eq!(n.point(1)[0], 0.0);
    }

    #[test]
    fn empty_dataset_normalizes_to_itself() {
        let d = Dataset::empty(3);
        assert_eq!(d.normalized(), d);
        assert!(d.bounds().is_none());
    }

    #[test]
    fn truncated_keeps_prefix() {
        let d = Dataset::from_coords((0..10).map(f64::from).collect(), 2);
        let t = d.truncated(2);
        assert_eq!(t.len(), 2);
        assert_eq!(t.point(1), &[2.0, 3.0]);
        assert_eq!(d.truncated(100).len(), 5);
    }

    #[test]
    fn push_appends() {
        let mut d = Dataset::empty(2);
        d.push(&[1.0, 2.0]);
        assert_eq!(d.len(), 1);
        assert_eq!(d.point(0), &[1.0, 2.0]);
    }
}
