//! The GPU manager: one worker thread per device doing the numeric work.
//!
//! In HeteroGPU the GPU manager coordinates transfers and launches CUDA
//! kernels; here it executes the *real* forward/backward/update math on the
//! CPU while the scheduler charges the corresponding kernels to the
//! simulated device (see [`super::Trainer`]). Keeping the cost accounting on
//! the scheduler is what makes dynamic dispatch deterministic: the
//! assignment of batch *k* depends only on virtual clocks, never on how fast
//! the host CPU happens to run a manager thread.

use super::messages::{FromManager, ToManager};
use asgd_data::XmlDataset;
use asgd_model::{Mlp, Workspace};
use asgd_slide::CandidateSampler;
use std::sync::mpsc::{Receiver, Sender};

/// Tracks which sparse rows (W1 feature rows first, then output-class
/// columns) this replica has dirtied since its last model sync — the
/// dirty-set side of the sparse delta merge.
///
/// On the sampled-softmax path the set is *exact and free*: a training
/// step writes precisely the batch's CSR feature columns into `W₁` and an
/// update entry for **every** LSH candidate into `W₂`/`b₂` (even at zero
/// gradient), so marking `x.indices()` plus the candidate set reproduces
/// the touched-row set bit-for-bit. `b₁` updates densely every batch and
/// rides along in the delta's dense block instead.
struct DirtyRows {
    features: usize,
    num_rows: usize,
    bits: Vec<u64>,
}

impl DirtyRows {
    fn new(features: usize, classes: usize) -> Self {
        let num_rows = features + classes;
        Self {
            features,
            num_rows,
            bits: vec![0; num_rows.div_ceil(64)],
        }
    }

    fn mark_features(&mut self, idx: &[u32]) {
        for &f in idx {
            let r = f as usize;
            debug_assert!(r < self.features);
            self.bits[r / 64] |= 1 << (r % 64);
        }
    }

    fn mark_classes(&mut self, cand: &[u32]) {
        let features = self.features;
        for &c in cand {
            let r = features + c as usize;
            debug_assert!(r < self.num_rows);
            self.bits[r / 64] |= 1 << (r % 64);
        }
    }

    /// Everything dirty — a `Blend` pulls every parameter toward the
    /// target, so no sparsity survives it.
    fn mark_all(&mut self) {
        self.bits.fill(!0u64);
    }

    fn clear(&mut self) {
        self.bits.fill(0);
    }

    /// Collects the dirty rows, sorted ascending, into a recycled buffer.
    fn collect_into(&self, out: &mut Vec<u32>) {
        out.clear();
        for (w, &word) in self.bits.iter().enumerate() {
            let mut b = word;
            while b != 0 {
                let r = w * 64 + b.trailing_zeros() as usize;
                if r >= self.num_rows {
                    break;
                }
                out.push(r as u32);
                b &= b - 1;
            }
        }
    }
}

/// Runs the manager loop until `Stop` (or a disconnected channel). Intended
/// to run on a scoped thread borrowing the shared dataset.
///
/// The manager owns one [`Workspace`] for its replica's lifetime, so
/// steady-state training steps reuse every activation/gradient buffer
/// instead of re-allocating them per batch.
///
/// With `sampler` set, training runs the LSH-sampled softmax. The manager
/// never hashes: it draws candidates from the index the scheduler built
/// over the synced model — at startup, and carried by every `SetModel` and
/// `Blend` — so a batch's candidate set depends only on
/// `(LSH seed, synced model, batch labels, sample_seed)`, never on which
/// manager trains it.
pub(crate) fn run_manager(
    gpu: usize,
    mut replica: Mlp,
    dataset: &XmlDataset,
    rx: Receiver<ToManager>,
    tx: Sender<FromManager>,
    mut sampler: Option<CandidateSampler>,
) {
    let mut ws = Workspace::new(replica.config());
    let mut dirty = DirtyRows::new(replica.config().num_features, replica.config().num_classes);
    // Dense training touches every `W₂` column, so a dirty-row delta after a
    // dense batch would silently under-report; the trainer only sends
    // `GetDelta` on the sampled path, and this flag turns a violation into a
    // loud failure instead of a wrong merge.
    let mut dense_trained = false;
    // Reusable view of the batch's label slices: borrows from the shared
    // dataset instead of cloning every label vector per batch.
    let mut labels: Vec<&[u32]> = Vec::new();
    while let Ok(msg) = rx.recv() {
        match msg {
            ToManager::Train {
                batch_ids,
                lr,
                sample_seed,
            } => {
                let x = dataset.train.features.select_rows(&batch_ids);
                labels.clear();
                labels.extend(
                    batch_ids
                        .iter()
                        .map(|&i| dataset.train.labels[i].as_slice()),
                );
                let out = match sampler.as_mut() {
                    Some(sampler) => {
                        let cand = sampler.select(&labels, sample_seed);
                        // The candidate set *is* the exact W₂ touched set:
                        // every candidate column gets an update write.
                        dirty.mark_features(x.indices());
                        dirty.mark_classes(cand);
                        replica.train_batch_sampled_ws(&x, &labels, cand, lr, &mut ws)
                    }
                    None => {
                        dense_trained = true;
                        replica.train_batch_ws(&x, &labels, lr, &mut ws)
                    }
                };
                if tx
                    .send(FromManager::Trained {
                        gpu,
                        loss: out.loss,
                        batch_size: out.batch_size,
                    })
                    .is_err()
                {
                    return;
                }
            }
            ToManager::GetModel { mut buf } => {
                replica.write_flat_buf(&mut buf);
                let norm_per_param = replica.l2_norm_per_param();
                if tx
                    .send(FromManager::Model {
                        gpu,
                        flat: buf,
                        norm_per_param,
                    })
                    .is_err()
                {
                    return;
                }
            }
            ToManager::SetModel { buf, lsh } => {
                replica.read_flat_buf(&buf);
                // A model sync is the delta baseline: nothing dirty yet.
                dirty.clear();
                if let Some(s) = sampler.as_mut() {
                    s.adopt(lsh.expect("sampled-mode sync without an LSH index"));
                }
                if tx.send(FromManager::Redistributed { gpu, buf }).is_err() {
                    return;
                }
            }
            ToManager::Blend { target, pull, lsh } => {
                if let Some(s) = sampler.as_mut() {
                    s.adopt(lsh.expect("sampled-mode sync without an LSH index"));
                }
                replica.blend_from_flat_buf(&target, pull);
                dirty.mark_all();
                if tx
                    .send(FromManager::Redistributed { gpu, buf: target })
                    .is_err()
                {
                    return;
                }
            }
            ToManager::GetDelta {
                mut rows,
                mut payload,
            } => {
                assert!(
                    !dense_trained,
                    "sparse deltas require the sampled-softmax path \
                     (dense training dirties every W2 column)"
                );
                dirty.collect_into(&mut rows);
                replica.write_delta_buf(&rows, &mut payload);
                let norm_per_param = replica.l2_norm_per_param();
                if tx
                    .send(FromManager::Delta {
                        gpu,
                        rows,
                        payload,
                        norm_per_param,
                    })
                    .is_err()
                {
                    return;
                }
            }
            ToManager::Stop => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::{index_over_flat, SampledSoftmax};
    use asgd_data::{generate, DatasetSpec};
    use asgd_model::MlpConfig;
    use asgd_slide::LshIndex;
    use asgd_tensor::{FlatVec, Precision};
    use std::sync::mpsc::channel;
    use std::sync::Arc;

    fn setup() -> (XmlDataset, Mlp) {
        let ds = generate(&DatasetSpec::tiny("m"), 3);
        let config = MlpConfig {
            num_features: ds.num_features,
            hidden: 8,
            num_classes: ds.num_labels,
        };
        (ds, Mlp::init(&config, 1))
    }

    /// Runs a manager on a scoped thread, feeding it `cmds`, returning all
    /// replies.
    fn drive(ds: &XmlDataset, model: Mlp, cmds: Vec<ToManager>) -> Vec<FromManager> {
        drive_mode(ds, model, cmds, None)
    }

    fn drive_mode(
        ds: &XmlDataset,
        model: Mlp,
        cmds: Vec<ToManager>,
        sampler: Option<CandidateSampler>,
    ) -> Vec<FromManager> {
        let (to_tx, to_rx) = channel();
        let (from_tx, from_rx) = channel();
        let mut replies = Vec::new();
        std::thread::scope(|s| {
            s.spawn(|| run_manager(0, model, ds, to_rx, from_tx, sampler));
            for c in cmds {
                to_tx.send(c).unwrap();
            }
            to_tx.send(ToManager::Stop).unwrap();
            while let Ok(r) = from_rx.recv() {
                replies.push(r);
            }
        });
        replies
    }

    #[test]
    fn manager_trains_and_reports() {
        let (ds, model) = setup();
        let replies = drive(
            &ds,
            model,
            vec![
                ToManager::Train {
                    batch_ids: vec![0, 1, 2],
                    lr: 0.1,
                    sample_seed: 0,
                },
                ToManager::GetModel {
                    buf: FlatVec::empty(Precision::F32),
                },
            ],
        );
        assert_eq!(replies.len(), 2);
        match &replies[0] {
            FromManager::Trained {
                gpu,
                loss,
                batch_size,
            } => {
                assert_eq!(*gpu, 0);
                assert!(*loss > 0.0);
                assert_eq!(*batch_size, 3);
            }
            other => panic!("unexpected {other:?}"),
        }
        match &replies[1] {
            FromManager::Model {
                flat,
                norm_per_param,
                ..
            } => {
                assert!(!flat.is_empty());
                assert!(*norm_per_param > 0.0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn set_model_roundtrips_through_get() {
        let (ds, model) = setup();
        let target = FlatVec::F32(Mlp::init(model.config(), 99).to_flat());
        let replies = drive(
            &ds,
            model,
            vec![
                ToManager::SetModel {
                    buf: target.clone(),
                    lsh: None,
                },
                ToManager::GetModel {
                    buf: FlatVec::empty(Precision::F32),
                },
            ],
        );
        match &replies[0] {
            FromManager::Redistributed { buf, .. } => assert_eq!(buf, &target),
            other => panic!("unexpected {other:?}"),
        }
        match &replies[1] {
            FromManager::Model { flat, .. } => assert_eq!(flat, &target),
            other => panic!("unexpected {other:?}"),
        }
    }

    /// A bf16 gather/redistribute cycle keeps the replica at exactly one
    /// rounding of the model it was set to: `SetModel` widens bf16 exactly,
    /// so the next gather reproduces the same bits.
    #[test]
    fn bf16_set_model_roundtrips_bit_exactly() {
        let (ds, model) = setup();
        let source = Mlp::init(model.config(), 99);
        let mut target = FlatVec::empty(Precision::Bf16);
        source.write_flat_buf(&mut target);
        let replies = drive(
            &ds,
            model,
            vec![
                ToManager::SetModel {
                    buf: target.clone(),
                    lsh: None,
                },
                ToManager::GetModel {
                    buf: FlatVec::empty(Precision::Bf16),
                },
            ],
        );
        match &replies[1] {
            FromManager::Model { flat, .. } => assert_eq!(flat, &target),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn blend_moves_halfway() {
        let (ds, model) = setup();
        let start = model.to_flat();
        let target = FlatVec::F32(vec![0.0f32; start.len()]);
        let replies = drive(
            &ds,
            model,
            vec![
                ToManager::Blend {
                    target,
                    pull: 0.5,
                    lsh: None,
                },
                ToManager::GetModel {
                    buf: FlatVec::empty(Precision::F32),
                },
            ],
        );
        match &replies[1] {
            FromManager::Model { flat, .. } => {
                for (i, want) in start.iter().enumerate() {
                    assert!((flat.get_f32(i) - want * 0.5).abs() < 1e-6);
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    /// The merge-protocol buffer cycle reuses one heap allocation: lend via
    /// `GetModel`, get it back via `Model`, lend via `SetModel`, get it back
    /// via `Redistributed` — pointer-stable after the first fill, and the
    /// contents stay bit-identical to a freshly allocated `to_flat`.
    #[test]
    fn merge_protocol_recycles_one_buffer_without_reallocating() {
        let (ds, model) = setup();
        let mut twin = model.clone();
        let mut tws = Workspace::new(twin.config());
        let (to_tx, to_rx) = channel();
        let (from_tx, from_rx) = channel();
        std::thread::scope(|s| {
            s.spawn(|| run_manager(0, model, &ds, to_rx, from_tx, None));

            // First round trip sizes the buffer (the one allowed allocation).
            to_tx
                .send(ToManager::GetModel {
                    buf: FlatVec::empty(Precision::F32),
                })
                .unwrap();
            let buf = match from_rx.recv().unwrap() {
                FromManager::Model { flat, .. } => flat,
                other => panic!("unexpected {other:?}"),
            };
            assert_eq!(buf, FlatVec::F32(twin.to_flat()));
            let ptr = buf.as_ptr_addr();

            // Redistribute and train, then gather again with the same buffer.
            to_tx.send(ToManager::SetModel { buf, lsh: None }).unwrap();
            let buf = match from_rx.recv().unwrap() {
                FromManager::Redistributed { buf, .. } => buf,
                other => panic!("unexpected {other:?}"),
            };
            assert_eq!(
                buf.as_ptr_addr(),
                ptr,
                "SetModel must return the same buffer"
            );
            let batch_ids = vec![0usize, 1, 2];
            to_tx
                .send(ToManager::Train {
                    batch_ids: batch_ids.clone(),
                    lr: 0.1,
                    sample_seed: 0,
                })
                .unwrap();
            let _ = from_rx.recv().unwrap();
            to_tx.send(ToManager::GetModel { buf }).unwrap();
            let buf = match from_rx.recv().unwrap() {
                FromManager::Model { flat, .. } => flat,
                other => panic!("unexpected {other:?}"),
            };
            assert_eq!(
                buf.as_ptr_addr(),
                ptr,
                "steady-state gather must not realloc"
            );

            // Replay the same step on the twin: the recycled buffer holds
            // exactly what a fresh allocation would.
            let x = ds.train.features.select_rows(&batch_ids);
            let labels: Vec<&[u32]> = batch_ids
                .iter()
                .map(|&i| ds.train.labels[i].as_slice())
                .collect();
            twin.train_batch_ws(&x, &labels, 0.1, &mut tws);
            assert_eq!(buf, FlatVec::F32(twin.to_flat()));

            to_tx.send(ToManager::Stop).unwrap();
        });
    }

    #[test]
    fn disconnected_channel_terminates_manager() {
        let (ds, model) = setup();
        let (to_tx, to_rx) = channel::<ToManager>();
        let (from_tx, _from_rx) = channel();
        std::thread::scope(|s| {
            s.spawn(|| run_manager(0, model, &ds, to_rx, from_tx, None));
            drop(to_tx);
        });
    }

    fn sampled_cfg() -> SampledSoftmax {
        SampledSoftmax {
            tables: 4,
            k_bits: 5,
            neg_samples: 8,
            seed: 7,
        }
    }

    /// The index the scheduler ships with a sync to `flat`.
    fn index_for(flat: &FlatVec, config: &MlpConfig) -> Arc<LshIndex> {
        Arc::new(index_over_flat(&sampled_cfg(), config, flat))
    }

    /// A sampled-mode manager's sampler, starting from the index of `model`.
    fn sampler_for(model: &Mlp) -> Option<CandidateSampler> {
        let start = index_for(&FlatVec::F32(model.to_flat()), model.config());
        Some(CandidateSampler::with_index(
            start,
            sampled_cfg().neg_samples,
        ))
    }

    /// One sync, one index: every manager adopts the `Arc` the sync carries
    /// (no copy) and lets go of its previous index.
    #[test]
    fn managers_share_the_index_a_sync_carries() {
        let (ds, model) = setup();
        let config = *model.config();
        let synced = FlatVec::F32(Mlp::init(&config, 99).to_flat());
        let start = index_for(&FlatVec::F32(model.to_flat()), &config);
        let next = index_for(&synced, &config);
        let (from_tx, from_rx) = channel();
        std::thread::scope(|s| {
            let mut to = Vec::new();
            for g in 0..3 {
                let (tx, rx) = channel();
                let sampler = CandidateSampler::with_index(Arc::clone(&start), 8);
                let (replica, ftx, ds) = (model.clone(), from_tx.clone(), &ds);
                s.spawn(move || run_manager(g, replica, ds, rx, ftx, Some(sampler)));
                to.push(tx);
            }
            assert_eq!(Arc::strong_count(&start), 4);
            for tx in &to {
                tx.send(ToManager::SetModel {
                    buf: synced.clone(),
                    lsh: Some(Arc::clone(&next)),
                })
                .unwrap();
            }
            for _ in 0..3 {
                assert!(matches!(
                    from_rx.recv().unwrap(),
                    FromManager::Redistributed { .. }
                ));
            }
            assert_eq!(Arc::strong_count(&next), 4, "a manager copied the index");
            assert_eq!(Arc::strong_count(&start), 1, "a manager kept the old index");
            for tx in &to {
                tx.send(ToManager::Stop).unwrap();
            }
        });
    }

    /// Sampled mode without an index at a sync is a protocol error.
    #[test]
    #[should_panic(expected = "without an LSH index")]
    fn sampled_sync_without_an_index_panics() {
        let (ds, model) = setup();
        let buf = FlatVec::F32(model.to_flat());
        let sampler = sampler_for(&model);
        let (to_tx, to_rx) = channel();
        let (from_tx, _from_rx) = channel();
        to_tx.send(ToManager::SetModel { buf, lsh: None }).unwrap();
        // On the test thread, so the manager's panic fails the test.
        run_manager(0, model, &ds, to_rx, from_tx, sampler);
    }

    /// Two managers given the same synced model and the same `Train` message
    /// must produce bit-identical losses and replicas — this is exactly the
    /// property the device-loss re-dispatch path relies on: the surviving
    /// manager reproduces the dead replica's candidate sets from the shared
    /// `(LSH seed, synced W₂, labels, sample_seed)` inputs alone.
    #[test]
    fn sampled_training_is_replica_independent() {
        let (ds, model) = setup();
        let synced = FlatVec::F32(Mlp::init(model.config(), 99).to_flat());
        let lsh = index_for(&synced, model.config());
        let run = |model: Mlp| {
            let sampler = sampler_for(&model);
            drive_mode(
                &ds,
                model,
                vec![
                    ToManager::SetModel {
                        buf: synced.clone(),
                        lsh: Some(Arc::clone(&lsh)),
                    },
                    ToManager::Train {
                        batch_ids: vec![0, 2, 4],
                        lr: 0.1,
                        sample_seed: 0xB00F,
                    },
                    ToManager::GetModel {
                        buf: FlatVec::empty(Precision::F32),
                    },
                ],
                sampler,
            )
        };
        // Different pre-sync replicas (and startup indexes): the sync point must erase the
        // difference entirely.
        let a = run(Mlp::init(model.config(), 1));
        let b = run(Mlp::init(model.config(), 2));
        let loss_of = |r: &[FromManager]| match &r[1] {
            FromManager::Trained { loss, .. } => loss.to_bits(),
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(loss_of(&a), loss_of(&b));
        let flat_of = |r: &[FromManager]| match &r[2] {
            FromManager::Model { flat, .. } => flat.clone(),
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(flat_of(&a), flat_of(&b));
    }

    /// The delta protocol's core contract: after a sync and a sampled train
    /// step, `GetDelta`'s `(rows, payload)` must (a) bit-match gathering the
    /// same rows out of the dense `GetModel` buffer and (b) reconstruct that
    /// dense buffer bit-exactly when scattered over the synced base — the
    /// exactness the whole sparse merge path rests on.
    #[test]
    fn delta_reconstructs_the_replica_bit_exactly() {
        use asgd_collective::{gather_delta, scatter_delta, SparseLayout};
        let (ds, model) = setup();
        let config = *model.config();
        let synced = FlatVec::F32(Mlp::init(&config, 99).to_flat());
        let sampler = sampler_for(&model);
        let replies = drive_mode(
            &ds,
            model,
            vec![
                ToManager::SetModel {
                    buf: synced.clone(),
                    lsh: Some(index_for(&synced, &config)),
                },
                ToManager::Train {
                    batch_ids: vec![0, 2, 4],
                    lr: 0.1,
                    sample_seed: 0xB00F,
                },
                ToManager::GetDelta {
                    rows: Vec::new(),
                    payload: FlatVec::empty(Precision::F32),
                },
                ToManager::GetModel {
                    buf: FlatVec::empty(Precision::F32),
                },
            ],
            sampler,
        );
        let (rows, payload) = match &replies[2] {
            FromManager::Delta { rows, payload, .. } => (rows, payload),
            other => panic!("unexpected {other:?}"),
        };
        let flat = match &replies[3] {
            FromManager::Model { flat, .. } => flat,
            other => panic!("unexpected {other:?}"),
        };
        assert!(!rows.is_empty(), "a sampled batch must dirty some rows");
        assert!(rows.windows(2).all(|w| w[0] < w[1]), "rows not ascending");
        let layout = SparseLayout::new(config.num_features, config.hidden, config.num_classes);
        let mut expect = FlatVec::empty(Precision::F32);
        gather_delta(&layout, rows, flat, &mut expect);
        assert_eq!(payload, &expect, "delta payload != dense gather");
        let mut base = synced.clone();
        scatter_delta(&layout, rows, payload, &mut base);
        assert_eq!(&base, flat, "scatter over base != replica");
    }

    /// `SetModel` is the delta baseline: a `GetDelta` straight after a sync
    /// reports no dirty rows and only the dense `b₁` block as payload.
    #[test]
    fn set_model_clears_the_dirty_set() {
        let (ds, model) = setup();
        let config = *model.config();
        let synced = FlatVec::F32(Mlp::init(&config, 99).to_flat());
        let sampler = sampler_for(&model);
        let replies = drive_mode(
            &ds,
            model,
            vec![
                ToManager::Train {
                    batch_ids: vec![0, 1],
                    lr: 0.1,
                    sample_seed: 3,
                },
                ToManager::SetModel {
                    buf: synced.clone(),
                    lsh: Some(index_for(&synced, &config)),
                },
                ToManager::GetDelta {
                    rows: Vec::new(),
                    payload: FlatVec::empty(Precision::F32),
                },
            ],
            sampler,
        );
        let (rows, payload) = match &replies[2] {
            FromManager::Delta { rows, payload, .. } => (rows, payload),
            other => panic!("unexpected {other:?}"),
        };
        assert!(rows.is_empty(), "sync must clear the dirty set");
        assert_eq!(payload.len(), config.hidden, "empty delta carries only b1");
        let b1_off = config.num_features * config.hidden;
        for k in 0..config.hidden {
            assert_eq!(
                payload.get_f32(k).to_bits(),
                synced.get_f32(b1_off + k).to_bits()
            );
        }
    }

    /// A `Blend` pulls every parameter, so the following delta must cover
    /// every row — no sparsity survives a CROSSBOW-style merge.
    #[test]
    fn blend_dirties_every_row() {
        let (ds, model) = setup();
        let config = *model.config();
        let target = FlatVec::F32(Mlp::init(&config, 99).to_flat());
        let lsh = Some(index_for(&target, &config));
        let sampler = sampler_for(&model);
        let replies = drive_mode(
            &ds,
            model,
            vec![
                ToManager::Blend {
                    target,
                    pull: 0.5,
                    lsh,
                },
                ToManager::GetDelta {
                    rows: Vec::new(),
                    payload: FlatVec::empty(Precision::F32),
                },
            ],
            sampler,
        );
        let rows = match &replies[1] {
            FromManager::Delta { rows, .. } => rows,
            other => panic!("unexpected {other:?}"),
        };
        let total = config.num_features + config.num_classes;
        assert_eq!(rows.len(), total);
        assert_eq!(rows.first(), Some(&0));
        assert_eq!(rows.last(), Some(&((total - 1) as u32)));
    }
}
