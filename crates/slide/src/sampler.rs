//! Deterministic per-batch candidate selection for the sampled softmax.
//!
//! For each training batch the sampler produces one shared candidate label
//! set: the batch's **true labels** (always included, so every positive
//! gradient flows) plus a fixed number of **negatives** drawn from the LSH
//! buckets the positives collide with — the "classes the model currently
//! confuses with the truth", which is exactly where sampled softmax needs
//! its negative signal. When the bucket pool holds fewer classes than the
//! quota, the rest are seeded uniform draws over the class space that skip
//! collisions. The result is sorted ascending (order-canonical) and
//! fixed-size, so downstream kernels see a stable shape.
//!
//! The pool is built in a `classes`-bit scratch: every bucket of every
//! positive is marked, the positives are cleared, and the set bits are read
//! out in ascending order — the sorted, de-duplicated union, without
//! materializing or sorting the (often millions of) bucket entries.
//!
//! # Determinism contract
//!
//! The candidate set is a pure function of
//! `(LSH seed, W₂ bytes at the last rebuild, batch labels, sample seed)`:
//!
//! * No hidden activations are consulted — replicas diverge between merges,
//!   so any activation-dependent choice would make candidates depend on
//!   *which* device trains the batch. Bucket membership is looked up through
//!   the per-class signatures stored by [`LshIndex::rebuild`].
//! * The index is rebuilt only at model-sync points (training start, and
//!   every merge's `SetModel` payload or blend target), from bytes that are
//!   identical on every replica. The trainer hashes those bytes once per
//!   sync and shares the one index (an `Arc<LshIndex>`, see
//!   [`CandidateSampler::adopt`]) with every manager, so a batch
//!   re-dispatched after a device loss reproduces its candidate set exactly.
//! * All randomness comes from the caller-supplied `sample_seed` through a
//!   local [SplitMix64](splitmix64) stream — nothing is drawn from shared
//!   RNG state, so dispatch order cannot leak into the selection.

use crate::lsh::LshIndex;
use asgd_tensor::Matrix;
use std::sync::Arc;

/// One step of the SplitMix64 stream — the sampler's only RNG. Small, fast,
/// and stateless across batches: every batch reseeds from its own
/// `sample_seed`.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Selects the per-batch candidate label set for sampled-softmax training.
///
/// Holds a shared [`LshIndex`] plus reusable scratch, so steady-state
/// selection allocates nothing once the buffers have grown to the working
/// size.
#[derive(Debug, Clone)]
pub struct CandidateSampler {
    lsh: Arc<LshIndex>,
    /// Negatives per batch (the candidate set is `positives + neg_samples`,
    /// clamped to the class count).
    neg_samples: usize,
    /// Scratch: the final sorted candidate set.
    cand: Vec<u32>,
    /// Scratch: the bucket-union negative pool.
    pool: Vec<u32>,
    /// Scratch: `classes`-bit set of the bucket neighbours.
    marks: Vec<u64>,
}

impl CandidateSampler {
    /// Builds a sampler with `tables × k_bits` SimHash tables over
    /// `hidden`-dimensional output neurons and `neg_samples` negatives per
    /// batch. Call [`rebuild`](Self::rebuild) before the first selection.
    pub fn new(tables: usize, k_bits: usize, hidden: usize, neg_samples: usize, seed: u64) -> Self {
        Self::with_index(
            Arc::new(LshIndex::new(tables, k_bits, hidden, seed)),
            neg_samples,
        )
    }

    /// Builds a sampler over a shared, already built index.
    pub fn with_index(lsh: Arc<LshIndex>, neg_samples: usize) -> Self {
        CandidateSampler {
            lsh,
            neg_samples,
            cand: Vec::new(),
            pool: Vec::new(),
            marks: Vec::new(),
        }
    }

    /// Re-hashes every output neuron from `w2` (`hidden × classes`). Only
    /// call this at model-sync points with bytes identical across replicas —
    /// see the module docs. An index shared with other samplers is copied
    /// first, never changed under them.
    pub fn rebuild(&mut self, w2: &Matrix) {
        Arc::make_mut(&mut self.lsh).rebuild(w2);
    }

    /// Switches to a shared index (dropping this sampler's hold on the old
    /// one) — how a manager takes up the index built once per model sync.
    pub fn adopt(&mut self, lsh: Arc<LshIndex>) {
        self.lsh = lsh;
    }

    /// Classes currently indexed (0 before the first rebuild).
    pub fn num_classes(&self) -> usize {
        self.lsh.len()
    }

    /// Negatives requested per batch.
    pub fn neg_samples(&self) -> usize {
        self.neg_samples
    }

    /// Selects the candidate set for a batch: the union of `labels` (each
    /// row a sample's true labels) plus exactly
    /// `min(neg_samples, classes - positives)` negatives. Returns the
    /// sorted, duplicate-free candidate list, valid until the next call.
    ///
    /// # Panics
    /// Panics before the first [`rebuild`](Self::rebuild) or when a label is
    /// outside the indexed class range.
    pub fn select(&mut self, labels: &[&[u32]], sample_seed: u64) -> &[u32] {
        let classes = self.lsh.len();
        assert!(classes > 0, "select before the first rebuild");

        // Positives: sorted, de-duplicated union of the batch's labels.
        self.cand.clear();
        for row in labels {
            self.cand.extend_from_slice(row);
        }
        self.cand.sort_unstable();
        self.cand.dedup();
        let n_pos = self.cand.len();
        let want = self.neg_samples.min(classes - n_pos);

        // Negative pool: every neuron sharing an LSH bucket with a positive,
        // minus the positives themselves, read out of the bit set in
        // ascending order — canonical before any random draw touches it.
        self.pool.clear();
        if want > 0 {
            let marks = &mut self.marks;
            marks.clear();
            marks.resize(classes.div_ceil(64), 0);
            for &c in &self.cand {
                self.lsh.visit_buckets(c, |bucket| {
                    for &j in bucket {
                        marks[j as usize / 64] |= 1 << (j % 64);
                    }
                });
            }
            for &c in &self.cand {
                marks[c as usize / 64] &= !(1 << (c % 64));
            }
            for (w, &word) in marks.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    self.pool.push((w * 64) as u32 + bits.trailing_zeros());
                    bits &= bits - 1;
                }
            }
        }

        let mut rng = sample_seed;
        if self.pool.len() > want {
            // Seeded partial Fisher–Yates: the first `want` slots get a
            // uniform sample of the pool, in O(want).
            for i in 0..want {
                let j = i + (splitmix64(&mut rng) % (self.pool.len() - i) as u64) as usize;
                self.pool.swap(i, j);
            }
            self.pool.truncate(want);
        }
        for i in 0..self.pool.len() {
            let c = self.pool[i];
            if let Err(pos) = self.cand.binary_search(&c) {
                self.cand.insert(pos, c);
            }
        }
        // Bucket union short of the quota: pad with seeded uniform draws
        // over the class space, skipping collisions.
        while self.cand.len() < n_pos + want {
            let c = (splitmix64(&mut rng) % classes as u64) as u32;
            if let Err(pos) = self.cand.binary_search(&c) {
                self.cand.insert(pos, c);
            }
        }
        &self.cand
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w2(dim: usize, classes: usize) -> Matrix {
        Matrix::from_fn(dim, classes, |i, j| {
            ((i * 13 + j * 7) % 11) as f32 / 5.0 - 1.0
        })
    }

    fn sampler(classes: usize, neg: usize) -> CandidateSampler {
        let mut s = CandidateSampler::new(4, 5, 16, neg, 42);
        s.rebuild(&w2(16, classes));
        s
    }

    #[test]
    fn contains_all_positives_and_exact_size() {
        let mut s = sampler(200, 32);
        let labels: Vec<&[u32]> = vec![&[3, 17], &[17, 90], &[150]];
        let got = s.select(&labels, 7).to_vec();
        for p in [3u32, 17, 90, 150] {
            assert!(got.binary_search(&p).is_ok(), "positive {p} missing");
        }
        assert_eq!(got.len(), 4 + 32, "positives + neg_samples");
    }

    #[test]
    fn result_is_sorted_unique() {
        let mut s = sampler(100, 40);
        let labels: Vec<&[u32]> = vec![&[5, 5, 42], &[]];
        let got = s.select(&labels, 123).to_vec();
        for w in got.windows(2) {
            assert!(w[0] < w[1], "not strictly ascending: {got:?}");
        }
    }

    #[test]
    fn pure_function_of_seed_and_labels() {
        let labels: Vec<&[u32]> = vec![&[1, 9], &[60]];
        let a = sampler(300, 24).select(&labels, 99).to_vec();
        let b = sampler(300, 24).select(&labels, 99).to_vec();
        assert_eq!(a, b);
        // A different sample seed changes the negatives (with overwhelming
        // probability at this pool size) but never the positives.
        let c = sampler(300, 24).select(&labels, 100).to_vec();
        assert_ne!(a, c);
        for p in [1u32, 9, 60] {
            assert!(c.binary_search(&p).is_ok());
        }
    }

    #[test]
    fn selection_is_independent_of_thread_count() {
        use asgd_tensor::parallel::override_threads;
        let labels: Vec<&[u32]> = vec![&[2, 7], &[400, 911]];
        let run = |threads: usize| {
            override_threads(threads);
            // Rebuild under the thread count too: bucket fill must not
            // depend on how the signature sweep was partitioned.
            let mut s = sampler(1000, 48);
            let got = s.select(&labels, 5).to_vec();
            override_threads(0);
            got
        };
        assert_eq!(run(1), run(8));
    }

    #[test]
    fn neg_quota_clamps_to_class_count() {
        let mut s = sampler(10, 1000);
        let labels: Vec<&[u32]> = vec![&[0, 1]];
        let got = s.select(&labels, 3).to_vec();
        assert_eq!(got, (0..10).collect::<Vec<u32>>());
    }

    #[test]
    fn label_free_batch_still_gets_negatives() {
        let mut s = sampler(50, 8);
        let labels: Vec<&[u32]> = vec![&[], &[]];
        let got = s.select(&labels, 11).to_vec();
        assert_eq!(got.len(), 8);
    }

    #[test]
    #[should_panic(expected = "before the first rebuild")]
    fn select_before_rebuild_panics() {
        let mut s = CandidateSampler::new(2, 4, 8, 4, 1);
        let labels: Vec<&[u32]> = vec![&[1]];
        let _ = s.select(&labels, 0);
    }

    #[test]
    fn steady_state_does_not_reallocate() {
        let mut s = sampler(500, 64);
        let labels: Vec<&[u32]> = vec![&[3, 8], &[200, 301]];
        let _ = s.select(&labels, 1);
        let caps =
            |s: &CandidateSampler| (s.cand.capacity(), s.pool.capacity(), s.marks.capacity());
        let first = caps(&s);
        let ptr = s.marks.as_ptr();
        for seed in 2..20 {
            let _ = s.select(&labels, seed);
        }
        assert_eq!(caps(&s), first);
        assert_eq!(s.marks.as_ptr(), ptr, "bit-set scratch was reallocated");
    }

    /// The selection as it was before the bit-set pool: the bucket union
    /// materialized, sorted, de-duplicated and stripped of the positives,
    /// then the same seeded draw and padding.
    fn reference_select(
        lsh: &LshIndex,
        neg_samples: usize,
        labels: &[&[u32]],
        seed: u64,
    ) -> Vec<u32> {
        let classes = lsh.len();
        let mut cand: Vec<u32> = labels.iter().flat_map(|r| r.iter().copied()).collect();
        cand.sort_unstable();
        cand.dedup();
        let n_pos = cand.len();
        let want = neg_samples.min(classes - n_pos);
        let mut pool = Vec::new();
        if want > 0 {
            for &c in &cand {
                lsh.visit_buckets(c, |b| pool.extend_from_slice(b));
            }
            pool.sort_unstable();
            pool.dedup();
            pool.retain(|c| cand.binary_search(c).is_err());
        }
        let mut rng = seed;
        if pool.len() > want {
            for i in 0..want {
                let j = i + (splitmix64(&mut rng) % (pool.len() - i) as u64) as usize;
                pool.swap(i, j);
            }
            pool.truncate(want);
        }
        for &c in &pool {
            if let Err(pos) = cand.binary_search(&c) {
                cand.insert(pos, c);
            }
        }
        while cand.len() < n_pos + want {
            let c = (splitmix64(&mut rng) % classes as u64) as u32;
            if let Err(pos) = cand.binary_search(&c) {
                cand.insert(pos, c);
            }
        }
        cand
    }

    /// Deterministic test values in `[-1, 1)` with exact zeros mixed in, so
    /// projections that land on ±0 exercise the sign rule too.
    fn values(n: usize, seed: u64) -> Vec<f32> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                let r = splitmix64(&mut state);
                if r.is_multiple_of(11) {
                    0.0
                } else {
                    (r >> 40) as f32 / (1u64 << 23) as f32 - 1.0
                }
            })
            .collect()
    }

    mod proptests {
        use super::*;
        use crate::lsh::NeuronRows;
        use asgd_tensor::bf16::{narrow, widen};
        use asgd_tensor::parallel::override_threads;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// The blocked rebuild and the bit-set pool against their
            /// references: identical signatures, buckets and candidate sets
            /// for f32 and bf16 sources, at 1 and 8 worker threads.
            #[test]
            fn blocked_rebuild_and_bitset_pool_match_the_references(
                dim_idx in 0usize..6,
                classes in 1usize..=600,
                k in 1usize..=32,
                tables in 1usize..=8,
                bf16_sel in 0usize..2,
                seed in 0u64..u64::MAX,
                neg in 0usize..=80,
            ) {
                let dim = [1usize, 7, 8, 9, 128, 130][dim_idx];
                let bf16 = bf16_sel == 1;
                let raw = values(dim * classes, seed);
                let bits: Vec<u16> = raw.iter().map(|&v| narrow(v)).collect();
                let (src, w2) = if bf16 {
                    (
                        NeuronRows::Bf16(&bits),
                        Matrix::from_fn(dim, classes, |i, j| widen(bits[i * classes + j])),
                    )
                } else {
                    (
                        NeuronRows::F32(&raw),
                        Matrix::from_fn(dim, classes, |i, j| raw[i * classes + j]),
                    )
                };
                let mut state = seed ^ 0xC0FFEE;
                let rows: Vec<Vec<u32>> = (0..4)
                    .map(|_| {
                        (0..splitmix64(&mut state) % 6)
                            .map(|_| (splitmix64(&mut state) % classes as u64) as u32)
                            .collect()
                    })
                    .collect();
                let labels: Vec<&[u32]> = rows.iter().map(Vec::as_slice).collect();
                for threads in [1, 8] {
                    override_threads(threads);
                    let mut idx = LshIndex::new(tables, k, dim, seed);
                    idx.rebuild_rows(src, classes);
                    override_threads(0);
                    idx.assert_matches_reference(&w2);
                    let mut s = CandidateSampler::with_index(Arc::new(idx), neg);
                    for sample_seed in [seed, seed.wrapping_add(1)] {
                        let want = reference_select(&s.lsh, neg, &labels, sample_seed);
                        prop_assert_eq!(s.select(&labels, sample_seed), &want[..]);
                    }
                }
            }
        }
    }
}
