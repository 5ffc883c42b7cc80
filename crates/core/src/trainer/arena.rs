//! The merge arena: per-replica flat model buffers owned by the scheduler
//! and recycled across merges.
//!
//! Ownership rule: **the scheduler owns the arena; a manager borrows at most
//! one buffer at a time** (lent out inside a `GetModel`, `SetModel`, or
//! `Blend` message and always sent back in the reply). Between merges every
//! buffer is home, so the whole merge stage — gather, all-reduce,
//! redistribution — reuses the same `n` allocations for the run's lifetime:
//! after the first merge sizes them, no model-sized allocation ever happens
//! again.
//!
//! Buffers are [`FlatVec`]s: the arena is constructed at the run's storage
//! [`Precision`] and every slot carries that tag, so managers fill a lent
//! buffer at the right width without consulting the scheduler.

use asgd_tensor::{FlatVec, Precision};

/// Per-replica flat buffers, recycled across merges.
#[derive(Debug)]
pub struct MergeArena {
    param_len: usize,
    precision: Precision,
    /// `slots[g]` is GPU `g`'s buffer; an empty buffer marks it as on loan
    /// (a filled buffer always has `param_len > 0` elements).
    slots: Vec<FlatVec>,
}

impl MergeArena {
    /// An arena for `n` replicas of `param_len` parameters stored at
    /// `precision`. Buffers start empty: the first `Mlp::write_flat_buf`
    /// sizes them.
    pub fn new(n: usize, param_len: usize, precision: Precision) -> Self {
        assert!(param_len > 0, "empty model");
        Self {
            param_len,
            precision,
            slots: (0..n).map(|_| FlatVec::empty(precision)).collect(),
        }
    }

    /// The storage precision every slot carries.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Takes GPU `g`'s buffer out of the arena to lend it to a manager.
    ///
    /// # Panics
    /// Panics if the buffer is already on loan (after the first merge a
    /// home buffer is never empty).
    pub fn lend(&mut self, g: usize) -> FlatVec {
        let buf = std::mem::replace(&mut self.slots[g], FlatVec::empty(self.precision));
        assert!(
            buf.capacity() == 0 || buf.len() == self.param_len,
            "arena slot {g} lent while on loan"
        );
        buf
    }

    /// Returns a lent buffer to GPU `g`'s slot.
    ///
    /// # Panics
    /// Panics on a length or precision mismatch, or if the slot is already
    /// occupied.
    pub fn restore(&mut self, g: usize, buf: FlatVec) {
        assert_eq!(buf.len(), self.param_len, "arena buffer length");
        assert_eq!(buf.precision(), self.precision, "arena buffer precision");
        assert!(self.slots[g].is_empty(), "arena slot {g} restored twice");
        self.slots[g] = buf;
    }
}

/// Per-replica `(rows, payload)` buffers for the sparse delta merge,
/// recycled across merges exactly like [`MergeArena`] slots.
///
/// Ownership follows the same rule: the scheduler owns the arena, a
/// manager borrows one pair inside a `GetDelta` and returns it in the
/// `Delta` reply. Deltas are variable-length, so slots are only
/// length-checked against the layout by the consumer, not here.
#[derive(Debug)]
pub struct DeltaArena {
    precision: Precision,
    slots: Vec<Option<(Vec<u32>, FlatVec)>>,
}

impl DeltaArena {
    /// An arena of `n` empty delta slots at the run's storage precision.
    pub fn new(n: usize, precision: Precision) -> Self {
        Self {
            precision,
            slots: (0..n)
                .map(|_| Some((Vec::new(), FlatVec::empty(precision))))
                .collect(),
        }
    }

    /// Takes GPU `g`'s `(rows, payload)` pair to lend it to a manager.
    ///
    /// # Panics
    /// Panics if the pair is already on loan.
    pub fn lend(&mut self, g: usize) -> (Vec<u32>, FlatVec) {
        self.slots[g]
            .take()
            .unwrap_or_else(|| panic!("delta slot {g} lent while on loan"))
    }

    /// Returns a lent pair to GPU `g`'s slot.
    ///
    /// # Panics
    /// Panics on a precision mismatch or if the slot is occupied.
    pub fn restore(&mut self, g: usize, rows: Vec<u32>, payload: FlatVec) {
        assert_eq!(payload.precision(), self.precision, "delta precision");
        assert!(self.slots[g].is_none(), "delta slot {g} restored twice");
        self.slots[g] = Some((rows, payload));
    }

    /// GPU `g`'s home pair, read-only.
    ///
    /// # Panics
    /// Panics if the pair is on loan.
    pub fn slot(&self, g: usize) -> (&[u32], &FlatVec) {
        let (rows, payload) = self.slots[g]
            .as_ref()
            .unwrap_or_else(|| panic!("delta slot {g} on loan"));
        (rows, payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_arena_recycles_allocations() {
        let mut arena = DeltaArena::new(2, Precision::F32);
        let (mut rows, payload) = arena.lend(1);
        rows.extend_from_slice(&[1, 5, 9]);
        let mut payload = match payload {
            FlatVec::F32(v) => v,
            other => panic!("f32 delta lent {other:?}"),
        };
        payload.resize(12, 2.0);
        let (rp, pp) = (rows.as_ptr() as usize, payload.as_ptr() as usize);
        arena.restore(1, rows, FlatVec::F32(payload));
        assert_eq!(arena.slot(1).0, &[1, 5, 9]);
        let (mut rows, payload) = arena.lend(1);
        rows.clear();
        assert!(rows.capacity() >= 3);
        assert_eq!(rows.as_ptr() as usize, rp, "row buffer reallocated");
        assert_eq!(payload.as_ptr_addr(), pp, "payload buffer reallocated");
        arena.restore(1, rows, payload);
    }

    #[test]
    #[should_panic(expected = "on loan")]
    fn delta_double_lend_panics() {
        let mut arena = DeltaArena::new(1, Precision::F32);
        let _a = arena.lend(0);
        let _b = arena.lend(0);
    }

    #[test]
    #[should_panic(expected = "delta precision")]
    fn delta_restore_wrong_precision_panics() {
        let mut arena = DeltaArena::new(1, Precision::Bf16);
        let (rows, _payload) = arena.lend(0);
        arena.restore(0, rows, FlatVec::F32(vec![0.0; 4]));
    }

    #[test]
    fn lend_restore_cycle_is_pointer_stable() {
        let mut arena = MergeArena::new(2, 8, Precision::F32);
        // First cycle sizes the buffers.
        let a = arena.lend(0);
        let mut a = match a {
            FlatVec::F32(v) => v,
            other => panic!("f32 arena lent {other:?}"),
        };
        a.resize(8, 1.0);
        let ptr = a.as_ptr() as usize;
        arena.restore(0, FlatVec::F32(a));
        // Every later cycle reuses the same allocation.
        for round in 0..5 {
            let b = arena.lend(0);
            assert_eq!(b.as_ptr_addr(), ptr, "round {round} reallocated");
            let mut v = match b {
                FlatVec::F32(v) => v,
                other => panic!("f32 arena lent {other:?}"),
            };
            v.clear();
            v.resize(8, round as f32);
            assert_eq!(v.as_ptr() as usize, ptr, "round {round} refill reallocated");
            arena.restore(0, FlatVec::F32(v));
        }
        let home = arena.lend(0);
        assert_eq!(home.as_ptr_addr(), ptr);
        arena.restore(0, home);
    }

    #[test]
    fn bf16_arena_lends_bf16_tagged_buffers() {
        let mut arena = MergeArena::new(2, 4, Precision::Bf16);
        assert_eq!(arena.precision(), Precision::Bf16);
        let buf = arena.lend(0);
        assert_eq!(buf.precision(), Precision::Bf16);
        let mut v = match buf {
            FlatVec::Bf16(v) => v,
            other => panic!("bf16 arena lent {other:?}"),
        };
        v.resize(4, asgd_tensor::bf16::narrow(1.5));
        let ptr = v.as_ptr() as usize;
        arena.restore(0, FlatVec::Bf16(v));
        let again = arena.lend(0);
        assert_eq!(again.as_ptr_addr(), ptr, "recycle must keep the allocation");
        assert_eq!(again.get_f32(0), 1.5);
        arena.restore(0, again);
    }

    #[test]
    #[should_panic(expected = "arena buffer length")]
    fn restoring_wrong_length_panics() {
        let mut arena = MergeArena::new(1, 4, Precision::F32);
        arena.restore(0, FlatVec::F32(vec![0.0; 3]));
    }

    #[test]
    #[should_panic(expected = "arena buffer precision")]
    fn restoring_wrong_precision_panics() {
        let mut arena = MergeArena::new(1, 4, Precision::Bf16);
        arena.restore(0, FlatVec::F32(vec![0.0; 4]));
    }
}
