//! Trace-driven out-of-order core timing model.
//!
//! Reproduces the ChampSim-style replay methodology of the paper (§5.1.2):
//! each core replays a stream of [`TraceRecord`]s. Non-memory instructions
//! retire at the configured superscalar width; memory references enter a
//! ROB-bounded window of outstanding operations (224-entry ROB, 72-entry
//! LQ, 56-entry SQ per Table 2) and complete at a time computed by the
//! memory system. When the window is full the core stalls until the oldest
//! entry retires — capturing memory-level parallelism and the way long-
//! latency CXL or inter-host accesses translate into stall cycles, without
//! simulating a full pipeline.
//!
//! # Example
//!
//! ```
//! use pipm_cpu::CoreModel;
//! use pipm_types::{AccessClass, CoreConfig};
//!
//! let mut core = CoreModel::new(&CoreConfig::default());
//! core.advance_compute(12);             // 12 non-memory instructions
//! core.reserve_slot(false, &mut |_, _| {});
//! let issue_at = core.clock();
//! // ... memory system computes completion ...
//! core.issue(issue_at + 300, AccessClass::CxlDram, false);
//! core.drain(&mut |_, _| {});
//! assert!(core.clock() >= issue_at + 300);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use pipm_types::{AccessClass, Addr, CoreConfig, Cycle};
use std::collections::VecDeque;

/// One record of a core's instruction/memory trace: `nonmem` non-memory
/// instructions followed by a single memory reference.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TraceRecord {
    /// Non-memory instructions preceding the reference.
    pub nonmem: u32,
    /// Whether the reference is a store.
    pub is_write: bool,
    /// Referenced physical address.
    pub addr: Addr,
}

impl TraceRecord {
    /// Creates a read record.
    pub fn read(nonmem: u32, addr: Addr) -> Self {
        TraceRecord {
            nonmem,
            is_write: false,
            addr,
        }
    }

    /// Creates a write record.
    pub fn write(nonmem: u32, addr: Addr) -> Self {
        TraceRecord {
            nonmem,
            is_write: true,
            addr,
        }
    }
}

/// A per-core stream of trace records. Implemented by all workload
/// generators; object-safe so the simulator can hold heterogeneous streams.
/// Streams are `Send` so checkpointed simulations can be cached and resumed
/// from worker threads.
pub trait AccessStream: Send {
    /// Produces the next record, or `None` at end of trace.
    fn next_record(&mut self) -> Option<TraceRecord>;

    /// Duplicates the stream *at its current position*, so a forked
    /// simulation replays exactly the records this stream has not yet
    /// produced. Returns `None` when the stream cannot be forked (e.g. it
    /// reads from a non-seekable source); such streams cannot be
    /// checkpointed.
    fn fork(&self) -> Option<Box<dyn AccessStream>> {
        None
    }

    /// Exact number of records this stream will still produce, when known.
    /// Used to clamp warm-up windows to what a finite trace can actually
    /// deliver.
    fn remaining_hint(&self) -> Option<u64> {
        None
    }

    /// Produces up to `max` records into `out` (cleared first), returning
    /// how many were written. Fewer than `max` records means the stream is
    /// exhausted. Repeated [`Self::next_record`]; a convenience for
    /// callers that drain a stream into a buffer.
    fn fill_batch(&mut self, out: &mut Vec<TraceRecord>, max: usize) -> usize {
        out.clear();
        for _ in 0..max {
            match self.next_record() {
                Some(r) => out.push(r),
                None => break,
            }
        }
        out.len()
    }
}

impl<I: Iterator<Item = TraceRecord> + Clone + Send + 'static> AccessStream for I {
    #[inline]
    fn next_record(&mut self) -> Option<TraceRecord> {
        self.next()
    }

    fn fork(&self) -> Option<Box<dyn AccessStream>> {
        Some(Box::new(self.clone()))
    }

    fn remaining_hint(&self) -> Option<u64> {
        // Only trust an exact size; a lower bound would under-clamp.
        let (lo, hi) = self.size_hint();
        hi.filter(|&h| h == lo).map(|h| h as u64)
    }
}

#[derive(Clone, Copy, Debug)]
struct Outstanding {
    complete_at: Cycle,
    class: AccessClass,
    is_write: bool,
    is_miss: bool,
}

/// The ROB-window core timing model.
///
/// Time is advanced by three operations: [`advance_compute`] (non-memory
/// work), [`reserve_slot`] (stall until the window has room, attributing
/// stall cycles to the class of the blocking access), and [`charge`]
/// (externally imposed overhead such as TLB-shootdown interrupts).
///
/// [`advance_compute`]: CoreModel::advance_compute
/// [`reserve_slot`]: CoreModel::reserve_slot
/// [`charge`]: CoreModel::charge
#[derive(Clone, Debug)]
pub struct CoreModel {
    clock: Cycle,
    width: u32,
    rob_limit: usize,
    lq_limit: usize,
    sq_limit: usize,
    mshr_limit: usize,
    window: VecDeque<Outstanding>,
    loads_inflight: usize,
    stores_inflight: usize,
    misses_inflight: usize,
    instructions: u64,
    compute_remainder: u32,
}

impl CoreModel {
    /// Creates a core model from the configuration.
    ///
    /// # Panics
    ///
    /// Panics if `width` or any queue limit is zero.
    pub fn new(cfg: &CoreConfig) -> Self {
        assert!(cfg.width > 0, "core width must be nonzero");
        assert!(
            cfg.rob_entries > 0 && cfg.lq_entries > 0 && cfg.sq_entries > 0,
            "core queues must be nonzero"
        );
        CoreModel {
            clock: 0,
            width: cfg.width,
            rob_limit: cfg.rob_entries,
            lq_limit: cfg.lq_entries,
            sq_limit: cfg.sq_entries,
            mshr_limit: cfg.mshr_entries,
            window: VecDeque::with_capacity(cfg.rob_entries),
            loads_inflight: 0,
            stores_inflight: 0,
            misses_inflight: 0,
            instructions: 0,
            compute_remainder: 0,
        }
    }

    /// Current core clock.
    #[inline]
    pub fn clock(&self) -> Cycle {
        self.clock
    }

    /// Instructions retired so far (memory + non-memory).
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Number of memory operations currently outstanding.
    pub fn outstanding(&self) -> usize {
        self.window.len()
    }

    #[inline]
    fn retire_completed(&mut self) {
        while let Some(front) = self.window.front() {
            if front.complete_at <= self.clock {
                let op = self.window.pop_front().expect("front exists");
                if op.is_write {
                    self.stores_inflight -= 1;
                } else {
                    self.loads_inflight -= 1;
                }
                if op.is_miss {
                    self.misses_inflight -= 1;
                }
            } else {
                break;
            }
        }
    }

    /// Advances the clock for `nonmem` non-memory instructions retiring at
    /// the configured width, accumulating fractional-cycle remainders so
    /// narrow records do not under-charge.
    #[inline]
    pub fn advance_compute(&mut self, nonmem: u32) {
        self.instructions += nonmem as u64;
        let total = self.compute_remainder + nonmem;
        // Width is almost always a power of two; shift/mask instead of a
        // per-reference hardware divide on the hot path.
        if self.width.is_power_of_two() {
            self.clock += (total >> self.width.trailing_zeros()) as Cycle;
            self.compute_remainder = total & (self.width - 1);
        } else {
            self.clock += (total / self.width) as Cycle;
            self.compute_remainder = total % self.width;
        }
        self.retire_completed();
    }

    /// Stalls (advancing the clock) until the window can accept one more
    /// memory operation of the given kind. Each stall interval is reported
    /// through `on_stall(class_of_blocking_access, cycles)`.
    #[inline]
    pub fn reserve_slot<F: FnMut(AccessClass, Cycle)>(&mut self, is_write: bool, on_stall: &mut F) {
        loop {
            self.retire_completed();
            let rob_full = self.window.len() >= self.rob_limit;
            let q_full = if is_write {
                self.stores_inflight >= self.sq_limit
            } else {
                self.loads_inflight >= self.lq_limit
            };
            if !rob_full && !q_full {
                return;
            }
            // Wait for the oldest operation to complete (in-order retire).
            let front = *self.window.front().expect("window non-empty when full");
            let wait_until = front.complete_at.max(self.clock);
            let stall = wait_until - self.clock;
            if stall > 0 {
                on_stall(front.class, stall);
            }
            self.clock = wait_until;
            self.retire_completed();
        }
    }

    /// Stalls until fewer than the MSHR limit of cache misses are in
    /// flight. Call before issuing an access known to miss the L1; stall
    /// intervals are reported like [`reserve_slot`](CoreModel::reserve_slot).
    #[inline]
    pub fn reserve_mshr<F: FnMut(AccessClass, Cycle)>(&mut self, on_stall: &mut F) {
        while self.misses_inflight >= self.mshr_limit {
            let front = *self.window.front().expect("misses imply a window");
            let wait_until = front.complete_at.max(self.clock);
            let stall = wait_until - self.clock;
            if stall > 0 {
                on_stall(front.class, stall);
            }
            self.clock = wait_until;
            self.retire_completed();
        }
    }

    /// Records an issued memory operation completing at `complete_at`.
    /// Call after [`reserve_slot`](CoreModel::reserve_slot); the completion
    /// time must not precede the current clock. `is_miss` marks operations
    /// that left the L1 and occupy an MSHR.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `complete_at < clock`.
    #[inline]
    pub fn issue_classified(
        &mut self,
        complete_at: Cycle,
        class: AccessClass,
        is_write: bool,
        is_miss: bool,
    ) {
        debug_assert!(complete_at >= self.clock, "completion before issue");
        self.instructions += 1;
        if is_write {
            self.stores_inflight += 1;
        } else {
            self.loads_inflight += 1;
        }
        if is_miss {
            self.misses_inflight += 1;
        }
        self.window.push_back(Outstanding {
            complete_at,
            class,
            is_write,
            is_miss,
        });
    }

    /// [`issue_classified`](CoreModel::issue_classified) with the miss flag
    /// derived from the class (anything beyond the L1 counts as a miss).
    #[inline]
    pub fn issue(&mut self, complete_at: Cycle, class: AccessClass, is_write: bool) {
        self.issue_classified(
            complete_at,
            class,
            is_write,
            !matches!(class, AccessClass::L1Hit),
        );
    }

    /// Charges externally imposed cycles (migration management, TLB
    /// shootdowns). The caller attributes them in its own statistics.
    pub fn charge(&mut self, cycles: Cycle) {
        self.clock += cycles;
        self.retire_completed();
    }

    /// Drains all outstanding operations at end of trace, attributing final
    /// stall cycles through `on_stall`.
    pub fn drain<F: FnMut(AccessClass, Cycle)>(&mut self, on_stall: &mut F) {
        while let Some(front) = self.window.front().copied() {
            let wait_until = front.complete_at.max(self.clock);
            let stall = wait_until - self.clock;
            if stall > 0 {
                on_stall(front.class, stall);
            }
            self.clock = wait_until;
            self.retire_completed();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipm_types::HostId;

    fn cfg() -> CoreConfig {
        CoreConfig::default()
    }

    #[test]
    fn compute_width_accounting() {
        let mut c = CoreModel::new(&cfg());
        c.advance_compute(6);
        assert_eq!(c.clock(), 1);
        c.advance_compute(3);
        assert_eq!(c.clock(), 1); // remainder accumulates
        c.advance_compute(3);
        assert_eq!(c.clock(), 2);
        assert_eq!(c.instructions(), 12);
    }

    #[test]
    fn issue_and_drain() {
        let mut c = CoreModel::new(&cfg());
        c.reserve_slot(false, &mut |_, _| {});
        c.issue(100, AccessClass::CxlDram, false);
        let mut stalls = Vec::new();
        c.drain(&mut |cls, n| stalls.push((cls, n)));
        assert_eq!(c.clock(), 100);
        assert_eq!(stalls, vec![(AccessClass::CxlDram, 100)]);
        assert_eq!(c.outstanding(), 0);
    }

    #[test]
    fn mlp_overlaps_latency() {
        // Two long-latency loads issued back-to-back overlap: total time is
        // ~one latency, not two.
        let mut c = CoreModel::new(&cfg());
        for _ in 0..2 {
            c.reserve_slot(false, &mut |_, _| {});
            c.issue(c.clock() + 1000, AccessClass::CxlDram, false);
        }
        c.drain(&mut |_, _| {});
        assert!(c.clock() <= 1001, "clock {} should overlap", c.clock());
    }

    #[test]
    fn rob_full_stalls() {
        let small = CoreConfig {
            rob_entries: 2,
            lq_entries: 2,
            sq_entries: 2,
            ..cfg()
        };
        let mut c = CoreModel::new(&small);
        let mut stall_total = 0;
        for i in 0..3 {
            c.reserve_slot(false, &mut |_, n| stall_total += n);
            c.issue(c.clock() + 100 + i, AccessClass::LocalPrivate, false);
        }
        // Third reservation had to wait for the first completion.
        assert!(stall_total >= 100 - 2);
    }

    #[test]
    fn lq_limit_separate_from_sq() {
        let small = CoreConfig {
            rob_entries: 100,
            lq_entries: 1,
            sq_entries: 100,
            ..cfg()
        };
        let mut c = CoreModel::new(&small);
        c.reserve_slot(false, &mut |_, _| {});
        c.issue(c.clock() + 50, AccessClass::LlcHit, false);
        // A store can still issue even though the LQ is full.
        let mut stalled = 0;
        c.reserve_slot(true, &mut |_, n| stalled += n);
        assert_eq!(stalled, 0);
        c.issue(c.clock() + 50, AccessClass::LlcHit, true);
        // But a second load stalls.
        c.reserve_slot(false, &mut |_, n| stalled += n);
        assert!(stalled > 0);
    }

    #[test]
    fn in_order_retire_blocks_on_oldest() {
        // Oldest op is slow, newer op is fast: window drains only when the
        // oldest completes.
        let small = CoreConfig {
            rob_entries: 2,
            lq_entries: 2,
            sq_entries: 2,
            ..cfg()
        };
        let mut c = CoreModel::new(&small);
        c.reserve_slot(false, &mut |_, _| {});
        c.issue(1000, AccessClass::InterHost, false);
        c.reserve_slot(false, &mut |_, _| {});
        c.issue(10, AccessClass::L1Hit, false);
        let mut blocked_on = None;
        c.reserve_slot(false, &mut |cls, _| blocked_on = Some(cls));
        assert_eq!(blocked_on, Some(AccessClass::InterHost));
        assert_eq!(c.clock(), 1000);
    }

    #[test]
    fn charge_advances_clock() {
        let mut c = CoreModel::new(&cfg());
        c.charge(500);
        assert_eq!(c.clock(), 500);
    }

    #[test]
    fn trace_record_constructors() {
        let a = Addr::private(HostId::new(0), 64, &pipm_types::SystemConfig::default());
        assert!(!TraceRecord::read(3, a).is_write);
        assert!(TraceRecord::write(3, a).is_write);
    }

    #[test]
    fn iterator_is_access_stream() {
        let recs = vec![TraceRecord::read(1, Addr::new(0))];
        let mut s = recs.into_iter();
        assert!(AccessStream::next_record(&mut s).is_some());
        assert!(AccessStream::next_record(&mut s).is_none());
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The core clock never moves backwards, instructions are counted
        /// exactly, and drain always empties the window — for arbitrary
        /// interleavings of compute, loads, and stores.
        #[test]
        fn prop_clock_monotone_and_counts_exact(
            ops in proptest::collection::vec((0u32..20, proptest::bool::ANY, 1u64..2000), 1..200)
        ) {
            let cfg = CoreConfig::default();
            let mut core = CoreModel::new(&cfg);
            let mut last_clock = 0;
            let mut expect_instr = 0u64;
            for (nonmem, is_write, lat) in ops {
                core.advance_compute(nonmem);
                expect_instr += nonmem as u64 + 1;
                core.reserve_slot(is_write, &mut |_, _| {});
                prop_assert!(core.clock() >= last_clock);
                last_clock = core.clock();
                core.issue(core.clock() + lat, AccessClass::CxlDram, is_write);
            }
            core.drain(&mut |_, _| {});
            prop_assert_eq!(core.outstanding(), 0);
            prop_assert_eq!(core.instructions(), expect_instr);
            prop_assert!(core.clock() >= last_clock);
        }

        /// Outstanding operations never exceed the ROB bound.
        #[test]
        fn prop_rob_bound_respected(lat in 1u64..5000, n in 1usize..600) {
            let cfg = CoreConfig::default();
            let mut core = CoreModel::new(&cfg);
            for _ in 0..n {
                core.reserve_slot(false, &mut |_, _| {});
                prop_assert!(core.outstanding() < cfg.rob_entries);
                core.issue(core.clock() + lat, AccessClass::LlcHit, false);
                prop_assert!(core.outstanding() <= cfg.rob_entries);
            }
        }
    }
}
