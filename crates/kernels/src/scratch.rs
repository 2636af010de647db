//! Reusable caller-owned workspace buffers.
//!
//! [`Scratch`] is a bump-style pool of `Vec` buffers with a
//! checkout/check-in discipline: hot paths `take_*` a pre-sized buffer, use
//! it as a plain slice, and `give_*` it back when done. After a warm-up
//! pass the pool serves every checkout from recycled capacity, so steady
//! state performs zero heap allocation — the property the IBP/CROWN/BnB
//! propagation loops rely on, and the one the allocation-counting bench
//! gate pins.
//!
//! No `unsafe`, no lifetimes: buffers are moved out of and back into the
//! pool by value, so the borrow checker never sees two live borrows of the
//! pool. Forgetting to `give_*` a buffer back is safe — it merely degrades
//! the pool (the next checkout of that slot cold-allocates again).

/// Pool of reusable `f64` and `(f64, f64)` interval buffers.
///
/// See the module docs for the checkout discipline. [`Scratch::checkouts`]
/// and [`Scratch::cold_allocs`] expose counters so tests can assert that a
/// warmed-up loop no longer touches the allocator.
#[derive(Debug, Default)]
pub struct Scratch {
    f64s: Vec<Vec<f64>>,
    pairs: Vec<Vec<(f64, f64)>>,
    mats: Vec<Vec<f64>>,
    checkouts: u64,
    cold: u64,
}

impl Scratch {
    /// Creates an empty pool. Nothing is allocated until the first checkout.
    pub fn new() -> Self {
        Self::default()
    }

    /// Checks out a `f64` buffer of exactly `len` elements, every element
    /// initialised to `fill`. Contents never leak between checkouts.
    pub fn take_f64(&mut self, len: usize, fill: f64) -> Vec<f64> {
        self.checkouts += 1;
        // Cold-path pool refill (`Vec::default` when the pool is empty);
        // steady state reuses pooled capacity.
        let mut buf = self.f64s.pop().unwrap_or_default();
        if buf.capacity() < len {
            self.cold += 1;
        }
        buf.clear();
        buf.resize(len, fill);
        buf
    }

    /// Returns a buffer obtained from [`Scratch::take_f64`] to the pool.
    pub fn give_f64(&mut self, buf: Vec<f64>) {
        self.f64s.push(buf);
    }

    /// Checks out an interval buffer of exactly `len` elements, every
    /// element initialised to `fill`.
    pub fn take_pairs(&mut self, len: usize, fill: (f64, f64)) -> Vec<(f64, f64)> {
        self.checkouts += 1;
        // Cold-path pool refill (`Vec::default` when the pool is empty);
        // steady state reuses pooled capacity.
        let mut buf = self.pairs.pop().unwrap_or_default();
        if buf.capacity() < len {
            self.cold += 1;
        }
        buf.clear();
        buf.resize(len, fill);
        buf
    }

    /// Returns a buffer obtained from [`Scratch::take_pairs`] to the pool.
    pub fn give_pairs(&mut self, buf: Vec<(f64, f64)>) {
        self.pairs.push(buf);
    }

    /// Checks out a 2-D (row-major `rows x cols`) panel buffer, every
    /// element initialised to `fill`.
    ///
    /// Matrix-shaped checkouts draw from their own pool, separate from
    /// [`Scratch::take_f64`]: panel buffers are typically much larger than
    /// the vector workspaces interleaved with them, and sharing one LIFO
    /// pool would let a small vector checkout walk off with a panel-sized
    /// capacity (and vice versa), re-triggering cold allocations every
    /// iteration. Counted by the same checkout/cold-alloc counters.
    pub fn take_mat(&mut self, rows: usize, cols: usize, fill: f64) -> Vec<f64> {
        let len = rows * cols;
        self.checkouts += 1;
        // Cold-path pool refill (`Vec::default` when the pool is empty);
        // steady state reuses pooled capacity.
        let mut buf = self.mats.pop().unwrap_or_default();
        if buf.capacity() < len {
            self.cold += 1;
        }
        buf.clear();
        buf.resize(len, fill);
        buf
    }

    /// Returns a buffer obtained from [`Scratch::take_mat`] to the pool.
    pub fn give_mat(&mut self, buf: Vec<f64>) {
        self.mats.push(buf);
    }

    /// Total checkouts served over the pool's lifetime.
    pub fn checkouts(&self) -> u64 {
        self.checkouts
    }

    /// Checkouts that could not be served from recycled capacity (pool was
    /// empty, or the recycled buffer was too small) and therefore hit the
    /// heap. A warmed-up steady state keeps this constant.
    pub fn cold_allocs(&self) -> u64 {
        self.cold
    }

    /// Number of buffers currently resting in the pool.
    pub fn pooled(&self) -> usize {
        self.f64s.len() + self.pairs.len() + self.mats.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkout_is_sized_and_filled() {
        let mut s = Scratch::new();
        let buf = s.take_f64(5, 1.5);
        assert_eq!(buf, vec![1.5; 5]);
        s.give_f64(buf);
        // Recycled buffer must be re-initialised, not carry old contents.
        let buf = s.take_f64(3, 0.0);
        assert_eq!(buf, vec![0.0; 3]);
    }

    #[test]
    fn steady_state_is_warm() {
        let mut s = Scratch::new();
        for _ in 0..3 {
            let b = s.take_pairs(64, (0.0, 0.0));
            s.give_pairs(b);
        }
        let cold_before = s.cold_allocs();
        for _ in 0..100 {
            let b = s.take_pairs(64, (1.0, 2.0));
            s.give_pairs(b);
        }
        assert_eq!(s.cold_allocs(), cold_before, "warm loop must not allocate");
        assert_eq!(s.checkouts(), 103);
    }

    #[test]
    fn growing_checkout_counts_cold() {
        let mut s = Scratch::new();
        let b = s.take_f64(4, 0.0);
        s.give_f64(b);
        let cold = s.cold_allocs();
        let b = s.take_f64(1024, 0.0);
        assert!(s.cold_allocs() > cold);
        s.give_f64(b);
        assert_eq!(s.pooled(), 1);
    }

    #[test]
    fn matrix_checkouts_pin_counter_accounting() {
        // The 2-D checkout path must hit the same counters as the vector
        // paths: one checkout per take, one cold alloc per capacity miss,
        // zero cold allocs once warm. Pinned exactly so pool regressions
        // (e.g. a panel buffer bypassing the pool) are visible.
        let mut s = Scratch::new();
        let panel = s.take_mat(8, 6, 0.0);
        assert_eq!(panel.len(), 48);
        assert!(panel.iter().all(|&v| v == 0.0));
        assert_eq!((s.checkouts(), s.cold_allocs()), (1, 1));
        s.give_mat(panel);

        // Same-size re-checkout: served warm.
        let panel = s.take_mat(8, 6, 1.0);
        assert!(panel.iter().all(|&v| v == 1.0));
        assert_eq!((s.checkouts(), s.cold_allocs()), (2, 1));
        s.give_mat(panel);

        // Smaller panel reuses the pooled capacity; larger one goes cold.
        let small = s.take_mat(2, 3, 0.0);
        assert_eq!((s.checkouts(), s.cold_allocs()), (3, 1));
        s.give_mat(small);
        let big = s.take_mat(32, 32, 0.0);
        assert_eq!((s.checkouts(), s.cold_allocs()), (4, 2));
        s.give_mat(big);
        assert_eq!(s.pooled(), 1);
    }

    #[test]
    fn matrix_pool_is_separate_from_vector_pool() {
        // A panel checkout must never be served from (or donate capacity
        // to) the 1-D pool: interleaved small vector checkouts would
        // otherwise steal panel-sized capacity and force a cold alloc on
        // every factorization pass.
        let mut s = Scratch::new();
        let panel = s.take_mat(16, 16, 0.0);
        s.give_mat(panel);
        let cold = s.cold_allocs();
        // A smaller f64 checkout must not pop the pooled panel…
        let v = s.take_f64(4, 0.0);
        assert_eq!(s.cold_allocs(), cold + 1, "take_f64 must not raid mats");
        s.give_f64(v);
        // …so the panel is still warm.
        let panel = s.take_mat(16, 16, 0.0);
        assert_eq!(s.cold_allocs(), cold + 1, "panel re-checkout must be warm");
        s.give_mat(panel);
    }
}
