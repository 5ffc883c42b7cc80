//! SimHash LSH over output-layer neurons.
//!
//! Each of `L` tables holds `K` random hyperplanes in hidden-activation
//! space. A neuron (a column of `W₂`) hashes to the K-bit sign pattern of
//! its projections; a query activation retrieves the neurons in its bucket,
//! unioned across tables. Similar (high-dot-product) vectors collide with
//! high probability — which is exactly the "retrieve the classes this
//! activation would score highly" behaviour sampled softmax needs.
//!
//! # Blocked hashing
//!
//! A rebuild computes all `L·K` projections of every neuron with the NT
//! GEMM kernel: tiles of [`TILE`] neuron vectors, packed on the fly from the
//! row-major `dim × classes` source, times the stacked hyperplanes
//! (`L·K × dim`). Each projection is a rule-2 lane-tree dot (see
//! `asgd_tensor::kernels`), the same association as [`dot_lanes`], so the
//! signatures are bit-identical to hashing one neuron and one plane at a
//! time — while the source is read in contiguous row runs instead of one
//! strided column at a time, and no model-sized copy is ever made.

use asgd_stats::dist::standard_normal;
use asgd_tensor::bf16::widen;
use asgd_tensor::kernels::{dot_lanes, gemm_nt_chunk, Epilogue};
use asgd_tensor::parallel::par_chunks_mut;
use asgd_tensor::{FlatVec, Matrix};
use rand::{rngs::StdRng, SeedableRng};
use std::collections::HashMap;

/// Classes below this hash serially during [`LshIndex::rebuild`] — the
/// fork/join only pays off when the signature sweep is model-scale.
const MIN_PAR_CLASSES: usize = 256;

/// Neurons packed per NT GEMM in a rebuild: a `TILE × dim` tile stays in L1
/// next to the stacked hyperplanes it is multiplied with.
const TILE: usize = 32;

/// A row-major `dim × classes` matrix whose column `j` is neuron `j`'s
/// vector: a dense `W₂`, or the `W₂` region of a flat model buffer.
#[derive(Debug, Clone, Copy)]
pub enum NeuronRows<'a> {
    /// f32 storage.
    F32(&'a [f32]),
    /// bf16 bit patterns, widened exactly while packing.
    Bf16(&'a [u16]),
}

impl<'a> NeuronRows<'a> {
    /// The `len` elements of `flat` starting at `offset`.
    pub fn region(flat: &'a FlatVec, offset: usize, len: usize) -> Self {
        match flat {
            FlatVec::F32(v) => NeuronRows::F32(&v[offset..offset + len]),
            FlatVec::Bf16(v) => NeuronRows::Bf16(&v[offset..offset + len]),
        }
    }

    fn len(&self) -> usize {
        match self {
            NeuronRows::F32(v) => v.len(),
            NeuronRows::Bf16(v) => v.len(),
        }
    }

    /// Packs neurons `j0..j0 + tile.len() / dim` into `tile`, one neuron
    /// vector per `dim`-float row. A bit-exact copy (bf16 widens exactly).
    fn pack(&self, dim: usize, classes: usize, j0: usize, tile: &mut [f32]) {
        let w = tile.len() / dim;
        for r in 0..dim {
            let at = r * classes + j0;
            match self {
                NeuronRows::F32(src) => {
                    for (jj, &v) in src[at..at + w].iter().enumerate() {
                        tile[jj * dim + r] = v;
                    }
                }
                NeuronRows::Bf16(src) => {
                    for (jj, &v) in src[at..at + w].iter().enumerate() {
                        tile[jj * dim + r] = widen(v);
                    }
                }
            }
        }
    }
}

/// A multi-table SimHash index over the output neurons.
///
/// Besides the bucket maps, the index stores every neuron's per-table
/// signature from the last [`rebuild`](LshIndex::rebuild) — that is what
/// lets the sampled-softmax candidate selection look up "the neurons that
/// collide with class `c`" *without* a hidden activation, keeping candidate
/// sets a pure function of (LSH seed, `W₂` bytes, batch labels).
#[derive(Debug, Clone)]
pub struct LshIndex {
    /// `(tables · k) × dim` row-major hyperplane normals: bit `b` of table
    /// `t` is row `t·k + b`.
    planes: Vec<f32>,
    k: usize,
    dim: usize,
    /// Per table: signature → its neurons, ascending.
    buckets: Vec<HashMap<u32, Vec<u32>>>,
    /// `classes × tables` row-major: `sigs[j * tables + t]` is neuron `j`'s
    /// signature in table `t` (from the last rebuild).
    sigs: Vec<u32>,
    n_neurons: usize,
}

impl LshIndex {
    /// Creates an index with `l` tables of `k` bits over `dim`-dimensional
    /// neuron vectors. `k ≤ 32`.
    pub fn new(l: usize, k: usize, dim: usize, seed: u64) -> Self {
        assert!(l >= 1, "need at least one table");
        assert!((1..=32).contains(&k), "k must be in 1..=32");
        assert!(dim >= 1, "dim must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        LshIndex {
            planes: (0..l * k * dim)
                .map(|_| standard_normal(&mut rng) as f32)
                .collect(),
            k,
            dim,
            buckets: vec![HashMap::new(); l],
            sigs: Vec::new(),
            n_neurons: 0,
        }
    }

    /// Number of tables.
    pub fn tables(&self) -> usize {
        self.buckets.len()
    }

    /// K-bit sign signature of a contiguous vector in table `t`: one
    /// [`dot_lanes`] per hyperplane.
    fn signature(&self, t: usize, v: &[f32]) -> u32 {
        let mut sig = 0u32;
        for b in 0..self.k {
            let row = &self.planes[(t * self.k + b) * self.dim..][..self.dim];
            if dot_lanes(row, v) >= 0.0 {
                sig |= 1 << b;
            }
        }
        sig
    }

    /// (Re)hashes every output neuron. `w2` is `dim × classes`; neuron `j`
    /// is column `j`.
    pub fn rebuild(&mut self, w2: &Matrix) {
        assert_eq!(w2.rows(), self.dim, "neuron dimensionality mismatch");
        self.rebuild_rows(NeuronRows::F32(w2.as_slice()), w2.cols());
    }

    /// (Re)hashes every output neuron from a row-major `dim × classes`
    /// source — the same signatures [`rebuild`](Self::rebuild) computes
    /// from a `Matrix` holding the (widened) values.
    ///
    /// Signatures are computed in parallel over class tiles (each is a pure
    /// function of one neuron vector), then each table's buckets are filled
    /// in ascending class order (tables in parallel) — bucket contents are
    /// identical for any `ASGD_THREADS`.
    pub fn rebuild_rows(&mut self, src: NeuronRows<'_>, classes: usize) {
        let (l, k, dim) = (self.tables(), self.k, self.dim);
        assert_eq!(
            src.len(),
            dim * classes,
            "neuron source is not dim × classes"
        );
        let lk = l * k;
        self.n_neurons = classes;
        let planes = &self.planes;
        self.sigs.clear();
        self.sigs.resize(classes * l, 0);
        par_chunks_mut(
            &mut self.sigs,
            classes,
            l,
            MIN_PAR_CLASSES,
            |first, chunk| {
                let n = chunk.len() / l;
                let mut tile = vec![0.0f32; TILE.min(n) * dim];
                let mut proj = vec![0.0f32; TILE.min(n) * lk];
                for (t0, sig_rows) in (0..n).step_by(TILE).zip(chunk.chunks_mut(TILE * l)) {
                    let w = sig_rows.len() / l;
                    let tile = &mut tile[..w * dim];
                    let proj = &mut proj[..w * lk];
                    src.pack(dim, classes, first + t0, tile);
                    // `proj[jj·lk + t·k + b]`: neuron `jj`'s projection on
                    // bit `b` of table `t`. `1·s == s` bit for bit.
                    let ep = Epilogue::AlphaBeta {
                        alpha: 1.0,
                        beta: 0.0,
                    };
                    gemm_nt_chunk(tile, dim, planes, lk, 0, proj, ep);
                    for (p, sig_row) in proj.chunks_exact(lk).zip(sig_rows.chunks_exact_mut(l)) {
                        for (bits, s) in p.chunks_exact(k).zip(sig_row.iter_mut()) {
                            let mut sig = 0u32;
                            for (b, &v) in bits.iter().enumerate() {
                                if v >= 0.0 {
                                    sig |= 1 << b;
                                }
                            }
                            *s = sig;
                        }
                    }
                }
            },
        );
        // One task per run of tables, each filled in ascending class order.
        let sigs = &self.sigs;
        let min_par_tables = if classes < MIN_PAR_CLASSES {
            usize::MAX
        } else {
            2
        };
        par_chunks_mut(&mut self.buckets, l, 1, min_par_tables, |first, tables| {
            for (t, table) in (first..).zip(tables) {
                table.clear();
                for (j, row) in sigs.chunks_exact(l).enumerate() {
                    table.entry(row[t]).or_default().push(j as u32);
                }
            }
        });
    }

    /// Returns the sorted, de-duplicated union of the query's buckets.
    pub fn query(&self, activation: &[f32]) -> Vec<u32> {
        assert_eq!(activation.len(), self.dim, "query width");
        let mut out: Vec<u32> = Vec::new();
        for (t, table) in self.buckets.iter().enumerate() {
            if let Some(bucket) = table.get(&self.signature(t, activation)) {
                out.extend_from_slice(bucket);
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Calls `visit` with each bucket `class` occupies, one per table (the
    /// class itself included; buckets of different tables may overlap).
    /// Activation-free: lookups go through the signatures stored at the
    /// last rebuild.
    ///
    /// # Panics
    /// Panics when `class` is outside the indexed range (or before the
    /// first rebuild).
    pub fn visit_buckets(&self, class: u32, mut visit: impl FnMut(&[u32])) {
        let j = class as usize;
        assert!(j < self.n_neurons, "class {class} not indexed");
        let l = self.tables();
        for (table, sig) in self.buckets.iter().zip(&self.sigs[j * l..(j + 1) * l]) {
            if let Some(bucket) = table.get(sig) {
                visit(bucket);
            }
        }
    }

    /// Neurons currently indexed.
    pub fn len(&self) -> usize {
        self.n_neurons
    }

    /// Whether the index holds no neurons (before the first rebuild).
    pub fn is_empty(&self) -> bool {
        self.n_neurons == 0
    }
}

/// The per-plane reference the blocked rebuild must reproduce bit for bit.
#[cfg(test)]
impl LshIndex {
    /// Hashes each neuron the way the index did before blocked hashing:
    /// its column gathered into a contiguous vector, then one [`dot_lanes`]
    /// per hyperplane. Returns the `classes × tables` signatures.
    pub(crate) fn reference_sigs(&self, w2: &Matrix) -> Vec<u32> {
        let (dim, classes) = w2.shape();
        let mut sigs = Vec::with_capacity(classes * self.tables());
        for j in 0..classes {
            let col: Vec<f32> = (0..dim).map(|r| w2.at(r, j)).collect();
            sigs.extend((0..self.tables()).map(|t| self.signature(t, &col)));
        }
        sigs
    }

    /// Asserts that the last rebuild holds exactly the reference
    /// signatures of `w2` and the buckets they imply (ascending classes).
    pub(crate) fn assert_matches_reference(&self, w2: &Matrix) {
        let want = self.reference_sigs(w2);
        assert_eq!(
            self.sigs, want,
            "signatures differ from the per-plane sweep"
        );
        let l = self.tables();
        let mut buckets = vec![HashMap::<u32, Vec<u32>>::new(); l];
        for (j, row) in want.chunks_exact(l).enumerate() {
            for (table, &sig) in buckets.iter_mut().zip(row) {
                table.entry(sig).or_default().push(j as u32);
            }
        }
        assert_eq!(
            self.buckets, buckets,
            "buckets differ from the per-plane sweep"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// W2 whose columns form two well-separated clusters.
    fn clustered_w2(dim: usize, per_cluster: usize) -> Matrix {
        let classes = per_cluster * 2;
        Matrix::from_fn(dim, classes, |i, j| {
            let cluster = j / per_cluster;
            let base = if cluster == 0 { 1.0 } else { -1.0 };
            // Mild deterministic wiggle so columns are not identical.
            base + ((i * 7 + j * 13) % 5) as f32 * 0.02
        })
    }

    #[test]
    fn identical_vector_retrieves_itself() {
        let w2 = clustered_w2(16, 8);
        let mut idx = LshIndex::new(8, 6, 16, 1);
        idx.rebuild(&w2);
        // Query with column 3's own vector: must retrieve class 3.
        let q: Vec<f32> = (0..16).map(|i| w2.at(i, 3)).collect();
        let hits = idx.query(&q);
        assert!(hits.contains(&3), "self-retrieval failed: {hits:?}");
    }

    #[test]
    fn query_prefers_similar_cluster() {
        let w2 = clustered_w2(16, 8);
        let mut idx = LshIndex::new(6, 8, 16, 2);
        idx.rebuild(&w2);
        let q = vec![1.0f32; 16]; // aligned with cluster 0 (classes 0..8)
        let hits = idx.query(&q);
        let cluster0 = hits.iter().filter(|&&c| c < 8).count();
        let cluster1 = hits.len() - cluster0;
        assert!(
            cluster0 > cluster1,
            "expected cluster-0 dominance: {hits:?}"
        );
    }

    #[test]
    fn rebuild_replaces_old_buckets() {
        let w2a = clustered_w2(8, 4);
        let mut idx = LshIndex::new(4, 4, 8, 3);
        idx.rebuild(&w2a);
        assert_eq!(idx.len(), 8);
        let smaller = Matrix::from_fn(8, 4, |i, j| ((i + j) % 3) as f32 - 1.0);
        idx.rebuild(&smaller);
        assert_eq!(idx.len(), 4);
        let hits = idx.query(&[1.0; 8]);
        assert!(
            hits.iter().all(|&c| c < 4),
            "stale bucket entries: {hits:?}"
        );
    }

    #[test]
    fn results_are_sorted_unique() {
        let w2 = clustered_w2(8, 16);
        let mut idx = LshIndex::new(10, 3, 8, 4);
        idx.rebuild(&w2);
        let hits = idx.query(&[0.5; 8]);
        for w in hits.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let w2 = clustered_w2(8, 8);
        let build = |seed| {
            let mut idx = LshIndex::new(4, 5, 8, seed);
            idx.rebuild(&w2);
            idx.query(&[1.0; 8])
        };
        assert_eq!(build(7), build(7));
    }

    /// A blocked rebuild over a bf16 region of a flat buffer hashes the
    /// exactly widened values, at any offset.
    #[test]
    fn flat_region_rebuild_matches_the_widened_matrix() {
        use asgd_tensor::bf16::narrow;
        let w2 = clustered_w2(9, 40);
        let lead = 5;
        let mut bits = vec![0u16; lead];
        bits.extend(w2.as_slice().iter().map(|&v| narrow(v)));
        let flat = FlatVec::Bf16(bits);
        let widened = Matrix::from_fn(9, 80, |i, j| widen(narrow(w2.at(i, j))));
        let mut idx = LshIndex::new(3, 7, 9, 5);
        idx.rebuild_rows(NeuronRows::region(&flat, lead, 9 * 80), 80);
        idx.assert_matches_reference(&widened);
    }

    #[test]
    #[should_panic(expected = "k must be in")]
    fn k_over_32_panics() {
        let _ = LshIndex::new(2, 40, 8, 0);
    }
}
