//! DDR5 DRAM timing model for the PIPM simulator.
//!
//! Models a multi-channel, multi-bank DRAM device with open-row policy,
//! the four headline timing parameters from Table 2 of the paper
//! (tRC-tRCD-tCL-tRP = 48-15-20-15 ns for DDR5-4800), and per-channel data
//! bandwidth. Contention is modelled with one [`Timeline`] per bank, per
//! bank activate window and per channel bus: a request arriving while its
//! bank or channel bus is busy queues behind the earlier work.
//!
//! # Example
//!
//! ```
//! use pipm_mem::Dram;
//! use pipm_types::{Addr, DramConfig};
//!
//! let mut dram = Dram::new(&DramConfig::default());
//! let done = dram.access(Addr::new(0x4000), 0, false);
//! assert!(done > 0);
//! // A second access to the same row is a row hit and completes faster
//! // than a row miss, relative to its start time.
//! let done2 = dram.access(Addr::new(0x4040), done, false);
//! assert!(done2 > done);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use pipm_types::{cycles_from_ns, Addr, Cycle, DramConfig, Timeline, CPU_GHZ, LINE_SIZE};

/// State of one DRAM bank: the open row (if any), when the bank becomes
/// free for the next command, and when tRC next allows an activate.
#[derive(Clone, Copy, Debug)]
struct Bank {
    open_row: Option<u64>,
    busy: Timeline,
    activate: Timeline,
}

/// One DDR channel: a set of banks plus a shared data bus.
#[derive(Clone, Debug)]
struct Channel {
    banks: Vec<Bank>,
    bus: Timeline,
}

/// Statistics kept by the DRAM model.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct DramStats {
    /// Total accesses served.
    pub accesses: u64,
    /// Row-buffer hits among those accesses.
    pub row_hits: u64,
    /// Total cycles spent queued behind busy banks.
    pub queue_cycles: u64,
    /// Total cycles demand reads waited for the channel data bus.
    pub bus_wait_cycles: u64,
    /// Total bytes transferred (reads + writes).
    pub bytes: u64,
}

impl DramStats {
    /// Row-hit rate over all accesses.
    pub fn row_hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.row_hits as f64 / self.accesses as f64
        }
    }
}

/// A DDR5 DRAM device with bank-level timing.
///
/// All times are CPU cycles (4 GHz). The device is deterministic: identical
/// access sequences produce identical timings.
#[derive(Clone, Debug)]
pub struct Dram {
    channels: Vec<Channel>,
    t_rcd: Cycle,
    t_cl: Cycle,
    t_rp: Cycle,
    t_rc: Cycle,
    burst_cycles: Cycle,
    ch_div: PowDiv,
    lpr_div: PowDiv,
    bank_div: PowDiv,
    stats: DramStats,
}

/// Divide/modulo by a fixed divisor, reduced to shift/mask when the
/// divisor is a power of two (the common DRAM geometry) so the per-access
/// address map avoids three hardware divides.
#[derive(Clone, Copy, Debug)]
struct PowDiv {
    n: u64,
    shift: u32,
    mask: u64, // `u64::MAX` sentinel: not a power of two, use `/` and `%`
}

impl PowDiv {
    fn new(n: u64) -> Self {
        assert!(n > 0, "divisor must be nonzero");
        if n.is_power_of_two() {
            PowDiv {
                n,
                shift: n.trailing_zeros(),
                mask: n - 1,
            }
        } else {
            PowDiv {
                n,
                shift: 0,
                mask: u64::MAX,
            }
        }
    }

    #[inline]
    fn divmod(self, x: u64) -> (u64, u64) {
        if self.mask != u64::MAX {
            (x >> self.shift, x & self.mask)
        } else {
            (x / self.n, x % self.n)
        }
    }
}

impl Dram {
    /// Creates a DRAM device from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero channels or banks.
    pub fn new(cfg: &DramConfig) -> Self {
        assert!(cfg.channels > 0, "DRAM needs at least one channel");
        assert!(cfg.banks_per_channel > 0, "DRAM needs at least one bank");
        let bytes_per_cycle = cfg.channel_gbps / CPU_GHZ; // GB/s ÷ Gcycle/s = B/cycle
        let burst_cycles = (LINE_SIZE as f64 / bytes_per_cycle).ceil() as Cycle;
        let t_rc = cycles_from_ns(cfg.t_rc_ns);
        // An activate at cycle 0 counts as the previous one, so the first
        // real activate waits for tRC.
        let bank = Bank {
            open_row: None,
            busy: Timeline::default(),
            activate: Timeline::held_until(t_rc),
        };
        Dram {
            channels: vec![
                Channel {
                    banks: vec![bank; cfg.banks_per_channel],
                    bus: Timeline::default(),
                };
                cfg.channels
            ],
            t_rcd: cycles_from_ns(cfg.t_rcd_ns),
            t_cl: cycles_from_ns(cfg.t_cl_ns),
            t_rp: cycles_from_ns(cfg.t_rp_ns),
            t_rc,
            burst_cycles: burst_cycles.max(1),
            ch_div: PowDiv::new(cfg.channels as u64),
            lpr_div: PowDiv::new((cfg.row_bytes / LINE_SIZE).max(1)),
            bank_div: PowDiv::new(cfg.banks_per_channel as u64),
            stats: DramStats::default(),
        }
    }

    #[inline]
    fn map(&self, addr: Addr) -> (usize, usize, u64) {
        // Line-interleave across channels, then banks, then rows: adjacent
        // lines spread across channels for bandwidth, matching common
        // controller address mappings.
        let line = addr.raw() / LINE_SIZE;
        let (per_ch_line, ch) = self.ch_div.divmod(line);
        let (row_global, _) = self.lpr_div.divmod(per_ch_line);
        let (row, bank) = self.bank_div.divmod(row_global);
        (ch as usize, bank as usize, row)
    }

    /// Performs a 64-byte access starting no earlier than `now`, returning
    /// the cycle at which the data transfer completes.
    ///
    /// `is_write` affects only statistics; reads and writes share the same
    /// simplified timing.
    pub fn access(&mut self, addr: Addr, now: Cycle, is_write: bool) -> Cycle {
        let (ch_idx, bank_idx, row) = self.map(addr);
        let (t_rcd, t_cl, t_rp, t_rc, burst) = (
            self.t_rcd,
            self.t_cl,
            self.t_rp,
            self.t_rc,
            self.burst_cycles,
        );
        let ch = &mut self.channels[ch_idx];
        let bank = &mut ch.banks[bank_idx];

        let start = bank.busy.free_at(now);
        self.stats.queue_cycles += start - now;

        // Column commands pipeline (tCCD ≈ one burst); only the activate
        // itself occupies the bank, and tRC is enforced between activates.
        let row_hit = bank.open_row == Some(row);
        let ready = if row_hit {
            bank.busy.hold_until(start + burst);
            start + t_cl
        } else {
            // Activate + CAS, after a precharge if another row is open,
            // respecting tRC since the previous activate.
            let precharge = if bank.open_row.is_some() { t_rp } else { 0 };
            let act = bank.activate.free_at(start + precharge);
            bank.activate.hold_until(act + t_rc);
            bank.open_row = Some(row);
            bank.busy.hold_until(act + t_rcd);
            act + t_rcd + t_cl
        };

        // The data bus is a throughput bound: each access reserves one
        // burst slot starting from its issue time; completion is the later
        // of CAS readiness and the reserved slot's end (pipelined column
        // accesses overlap with earlier bursts).
        let slot_end = ch.bus.reserve(start, burst) + burst;
        let done = ready.max(slot_end);
        self.stats.bus_wait_cycles += done - ready;

        self.stats.accesses += 1;
        if row_hit {
            self.stats.row_hits += 1;
        }
        self.stats.bytes += LINE_SIZE;
        let _ = is_write;
        done
    }

    /// Computes the completion time of a 64-byte read *without* mutating
    /// bank or bus state. Used for remote-initiated reads (coherence
    /// forwards, inter-host accesses) whose timestamps live on another
    /// host's timeline: charging them into the bank and bus timelines
    /// would stall this host's demand stream on a wall far in its future.
    /// Their bandwidth is negligible (they are rare relative to demand).
    pub fn access_shadow(&mut self, addr: Addr, now: Cycle) -> Cycle {
        let (ch_idx, bank_idx, row) = self.map(addr);
        let bank = &self.channels[ch_idx].banks[bank_idx];
        let start = bank.busy.free_at(now);
        let row_hit = bank.open_row == Some(row);
        let ready = if row_hit {
            start + self.t_cl
        } else {
            start + self.t_rp + self.t_rcd + self.t_cl
        };
        self.stats.accesses += 1;
        if row_hit {
            self.stats.row_hits += 1;
        }
        self.stats.bytes += LINE_SIZE;
        // The burst never waits for the channel bus: a shadow read sees
        // only the bank's wait (ROADMAP item 4 lists this and its other
        // departures from `access`).
        ready + self.burst_cycles
    }

    /// A buffered 64-byte write (eviction writeback, incremental-migration
    /// install): charges channel bandwidth only. Memory controllers drain
    /// writes from a write buffer at lower priority than demand reads, so
    /// writes do not add bank-timing latency to the demand path.
    pub fn write_buffered(&mut self, addr: Addr, now: Cycle) -> Cycle {
        let (ch_idx, _, _) = self.map(addr);
        let done = self.channels[ch_idx].bus.reserve(now, self.burst_cycles) + self.burst_cycles;
        self.stats.accesses += 1;
        self.stats.bytes += LINE_SIZE;
        done
    }

    /// Charges bandwidth for a bulk transfer of `bytes` (e.g. a migrated
    /// page) beginning at `now`, without modelling per-line bank timing.
    /// Returns the completion cycle. Used for migration payload traffic.
    pub fn bulk_transfer(&mut self, addr: Addr, now: Cycle, bytes: u64) -> Cycle {
        let (ch_idx, _, _) = self.map(addr);
        let cycles = bytes.div_ceil(LINE_SIZE) * self.burst_cycles;
        let start = self.channels[ch_idx].bus.reserve(now, cycles);
        self.stats.bytes += bytes;
        self.stats.queue_cycles += start - now;
        start + cycles
    }

    /// Idealized unloaded access latency for a row miss (used by cost
    /// estimators): tRP + tRCD + tCL + burst.
    pub fn unloaded_latency(&self) -> Cycle {
        self.t_rp + self.t_rcd + self.t_cl + self.burst_cycles
    }

    /// Cycles a 64-byte burst occupies the channel data bus.
    pub fn burst_cycles(&self) -> Cycle {
        self.burst_cycles
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> DramStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipm_types::DramConfig;

    fn dram() -> Dram {
        Dram::new(&DramConfig::default())
    }

    #[test]
    fn row_hit_faster_than_miss() {
        let mut d = dram();
        // First access opens the row (row miss).
        let t1 = d.access(Addr::new(0), 0, false);
        // Same row, later: row hit.
        let t2 = d.access(Addr::new(64), t1, false);
        let hit_lat = t2 - t1;
        // Different row, same bank: miss. With 32 banks and 8 KB rows the
        // same bank repeats every 32 rows within a channel.
        let far = Addr::new(32 * 8192);
        let t3 = d.access(far, t2, false);
        let miss_lat = t3 - t2;
        assert!(
            hit_lat < miss_lat,
            "row hit {hit_lat} should be faster than miss {miss_lat}"
        );
        assert_eq!(d.stats().row_hits, 1);
    }

    #[test]
    fn bus_throughput_bounds_burst_rate() {
        let mut d = dram();
        // Saturate one channel with same-row accesses at time 0: beyond the
        // pipeline depth, completions must space out by at least one burst.
        let mut last = 0;
        let mut spaced = 0;
        for i in 0..64u64 {
            let t = d.access(Addr::new(i * 64), 0, false);
            if i > 0 && t >= last + d.burst_cycles() {
                spaced += 1;
            }
            last = last.max(t);
        }
        assert!(spaced > 48, "bus must rate-limit bursts, spaced={spaced}");
    }

    #[test]
    fn bus_binds_across_banks() {
        let mut d = dram();
        // 64 concurrent row misses to 64 different banks/rows: bank-level
        // parallelism exceeds the channel bus, so the bus becomes the
        // binding constraint and completions spill past the CAS latency.
        let mut last = 0;
        for i in 0..256u64 {
            last = last.max(d.access(Addr::new(i * 8192), 0, false));
        }
        assert!(d.stats().bus_wait_cycles > 0, "bus must bind");
        assert!(last >= 256 * d.burst_cycles());
    }

    #[test]
    fn channels_provide_parallelism() {
        let cfg = DramConfig {
            channels: 2,
            ..DramConfig::default()
        };
        let mut d2 = Dram::new(&cfg);
        // Lines 0 and 1 map to different channels under line interleaving.
        let t_a = d2.access(Addr::new(0), 0, false);
        let t_b = d2.access(Addr::new(64), 0, false);
        // Both complete without serializing on a shared bus.
        assert_eq!(t_a, t_b);
    }

    #[test]
    fn unloaded_latency_matches_timing_params() {
        let d = dram();
        // 15 + 20 + 15 ns at 4 GHz = 60 + 80 + 60 cycles, plus the burst.
        assert_eq!(d.unloaded_latency(), 60 + 80 + 60 + d.burst_cycles());
    }

    #[test]
    fn bulk_transfer_charges_bandwidth() {
        let mut d = dram();
        let t = d.bulk_transfer(Addr::new(0), 0, 4096);
        assert_eq!(t, 64 * d.burst_cycles());
        assert_eq!(d.stats().bytes, 4096);
    }

    #[test]
    fn deterministic() {
        let mk = || {
            let mut d = dram();
            let mut t = 0;
            for i in 0..1000u64 {
                t = d.access(Addr::new(i * 4096 % (1 << 20)), t, i % 3 == 0);
            }
            t
        };
        assert_eq!(mk(), mk());
    }

    /// Characterizes the bus's order dependence: a demand read made after
    /// a buffered write, but stamped before it, waits behind that write
    /// although the bus is idle when the read arrives. ROADMAP item 1
    /// flips this (the read should use the idle bus at once).
    #[test]
    fn later_made_earlier_stamped_read_waits_for_the_bus() {
        let mut d = dram();
        let burst = d.burst_cycles();
        let written = d.write_buffered(Addr::new(0), 10_000);
        assert_eq!(written, 10_000 + burst);
        // Same channel, stamped long before the write; the bank is idle,
        // so the read is ready after tRC + tRCD + tCL (the first activate
        // waits for tRC).
        let ready = 192 + 60 + 80;
        let done = d.access(Addr::new(4 * 64), 0, false);
        assert_eq!(done, written + burst);
        assert_eq!(d.stats().bus_wait_cycles, done - ready);
    }

    #[test]
    fn invariant_checks_active_in_test_builds() {
        // Test profiles keep debug_assertions on, so the monotonic check
        // of the timelines behind every bank and bus must be live here
        // even without the cargo feature.
        let backward_hold = std::panic::catch_unwind(|| {
            let mut t = Timeline::held_until(100);
            t.hold_until(99);
        });
        assert!(backward_hold.is_err());
    }

    #[test]
    fn monotonic_completion_under_load() {
        let mut d = dram();
        let mut last = 0;
        for i in 0..100u64 {
            let t = d.access(Addr::new(i * 64), last, false);
            assert!(t >= last);
            last = t;
        }
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Completion times never precede issue times, and repeated access
        /// sequences are reproducible.
        #[test]
        fn prop_completion_after_issue(
            seq in proptest::collection::vec((0u64..(1 << 24), 0u64..64, proptest::bool::ANY), 1..300)
        ) {
            let mut d = Dram::new(&DramConfig::default());
            let mut now = 0u64;
            for (addr, gap, w) in &seq {
                now += gap;
                let done = d.access(Addr::new(addr & !63), now, *w);
                prop_assert!(done > now, "completion {done} must follow issue {now}");
            }
            // Determinism.
            let mut d2 = Dram::new(&DramConfig::default());
            let mut now2 = 0u64;
            let mut dones = Vec::new();
            for (addr, gap, w) in &seq {
                now2 += gap;
                dones.push(d2.access(Addr::new(addr & !63), now2, *w));
            }
            let mut d3 = Dram::new(&DramConfig::default());
            let mut now3 = 0u64;
            for ((addr, gap, w), expect) in seq.iter().zip(dones) {
                now3 += gap;
                prop_assert_eq!(d3.access(Addr::new(addr & !63), now3, *w), expect);
            }
        }

        /// Buffered writes and shadow reads never violate time ordering.
        #[test]
        fn prop_write_buffered_and_shadow(
            seq in proptest::collection::vec((0u64..(1 << 22), 0u64..32), 1..200)
        ) {
            let mut d = Dram::new(&DramConfig::default());
            let mut now = 0;
            for (addr, gap) in seq {
                now += gap;
                let a = Addr::new(addr & !63);
                prop_assert!(d.write_buffered(a, now) >= now);
                prop_assert!(d.access_shadow(a, now) > now);
            }
        }
    }
}
