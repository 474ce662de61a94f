//! CXL fabric model: the links between hosts and CXL memory devices.
//!
//! Every edge is a full-duplex link with a one-way propagation latency
//! (Table 2: 50 ns) and a per-direction bandwidth (Table 2: 5 GB/s in the
//! ×16 scaled-down setting). Messages serialize on each direction: a
//! message arriving while the direction is busy queues behind earlier
//! traffic (one `pipm_types::Timeline` per direction).
//!
//! The links distinguish demand traffic from migration payload traffic
//! so the simulator can attribute queueing delay caused by page transfers —
//! the "page transfer overhead" component of the paper's Figure 4.
//!
//! The graph — one or more multi-headed devices, optionally behind one
//! switch — is described by a `pipm_types::TopologySpec` and executed by
//! [`Topology`], which composes the links into per-device planes, or into
//! per-host uplinks and per-device switch ports (see [`topology`]).
//!
//! # Example
//!
//! ```
//! use pipm_fabric::{Topology, Dir};
//! use pipm_types::{HostId, SystemConfig, TopologySpec};
//!
//! // Four hosts (the default), one device each host reaches directly.
//! let cfg = SystemConfig {
//!     topology: TopologySpec::multi_headed(1),
//!     ..SystemConfig::default()
//! };
//! let mut fabric = Topology::new(&cfg);
//! let h = HostId::new(0);
//! // Send a 16-byte request host→device 0 at cycle 0: arrives after the
//! // 50 ns (200-cycle) propagation plus serialization.
//! let arr = fabric.send(h, 0, Dir::ToDevice, 0, 16, false);
//! assert!(arr.at >= 200);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod topology;

pub use topology::Topology;

use pipm_types::{CxlConfig, Cycle, HostId, Timeline, CPU_GHZ};

/// Direction of a message on a CXL link.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Dir {
    /// From the host toward the CXL memory node.
    ToDevice,
    /// From the CXL memory node toward the host.
    ToHost,
}

/// Result of sending a message over a link direction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Arrival {
    /// Cycle at which the message is fully delivered.
    pub at: Cycle,
    /// Cycles the message queued behind earlier traffic.
    pub queued: Cycle,
    /// Portion of `queued` attributable to migration payload traffic.
    pub queued_behind_migration: Cycle,
}

/// One link direction: when it is next free, and when the last migration
/// payload it carried finished serializing.
#[derive(Clone, Copy, Debug, Default)]
struct Direction {
    busy: Timeline,
    migration: Timeline,
}

/// Per-link traffic counters.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct LinkStats {
    /// Demand messages sent (both directions).
    pub demand_messages: u64,
    /// Demand bytes sent.
    pub demand_bytes: u64,
    /// Migration payload bytes sent.
    pub migration_bytes: u64,
    /// Total queueing cycles experienced by demand messages.
    pub demand_queue_cycles: u64,
}

#[derive(Clone, Debug)]
struct Link {
    up: Direction,
    down: Direction,
    stats: LinkStats,
}

/// A bundle of independent full-duplex links under one link config: the
/// edge type [`Topology`] builds its planes, uplinks, and switch ports
/// from. Link `i` is addressed as `HostId::new(i)`.
#[derive(Clone, Debug)]
pub(crate) struct Links {
    links: Vec<Link>,
    latency: Cycle,
    cycles_per_byte: f64,
}

impl Links {
    /// `n` idle links under `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or the configured bandwidth is non-positive.
    pub(crate) fn new(n: usize, cfg: &CxlConfig) -> Self {
        assert!(n > 0, "a link bundle needs at least one link");
        assert!(cfg.link_gbps > 0.0, "link bandwidth must be positive");
        Links {
            links: vec![
                Link {
                    up: Direction::default(),
                    down: Direction::default(),
                    stats: LinkStats::default(),
                };
                n
            ],
            latency: pipm_types::cycles_from_ns(cfg.link_latency_ns),
            cycles_per_byte: CPU_GHZ / cfg.link_gbps,
        }
    }

    /// Reconfigures link latency and bandwidth in place, preserving
    /// per-direction occupancy (the direction timelines) and accumulated
    /// statistics. Checkpointed sweeps use this to apply a late-binding
    /// configuration delta to a warmed fabric: in-flight serialization
    /// finishes under the old parameters, messages sent after the call
    /// see the new ones.
    ///
    /// # Panics
    ///
    /// Panics if the new bandwidth is non-positive.
    pub(crate) fn set_link_params(&mut self, cfg: &CxlConfig) {
        assert!(cfg.link_gbps > 0.0, "link bandwidth must be positive");
        self.latency = pipm_types::cycles_from_ns(cfg.link_latency_ns);
        self.cycles_per_byte = CPU_GHZ / cfg.link_gbps;
    }

    fn serialization(&self, bytes: u64) -> Cycle {
        (bytes as f64 * self.cycles_per_byte).ceil() as Cycle
    }

    /// Sends `bytes` over link `h` in direction `dir` starting at `now`.
    /// `is_migration` marks migration payload traffic, which is tracked
    /// separately for transfer-overhead attribution.
    pub(crate) fn send(
        &mut self,
        h: HostId,
        dir: Dir,
        now: Cycle,
        bytes: u64,
        is_migration: bool,
    ) -> Arrival {
        let ser = self.serialization(bytes);
        let latency = self.latency;
        let link = &mut self.links[h.index()];
        let d = match dir {
            Dir::ToDevice => &mut link.up,
            Dir::ToHost => &mut link.down,
        };
        let start = d.busy.reserve(now, ser);
        let queued = start - now;
        // The part of the wait that falls inside the migration window.
        let queued_behind_migration = d.migration.free_at(now).min(start) - now;
        if is_migration {
            d.migration.hold_until(start + ser);
            link.stats.migration_bytes += bytes;
        } else {
            link.stats.demand_messages += 1;
            link.stats.demand_bytes += bytes;
            link.stats.demand_queue_cycles += queued;
        }
        Arrival {
            at: start + ser + latency,
            queued,
            queued_behind_migration,
        }
    }

    /// Aggregate statistics over all links.
    pub(crate) fn total_stats(&self) -> LinkStats {
        let mut t = LinkStats::default();
        for l in &self.links {
            t.demand_messages += l.stats.demand_messages;
            t.demand_bytes += l.stats.demand_bytes;
            t.migration_bytes += l.stats.migration_bytes;
            t.demand_queue_cycles += l.stats.demand_queue_cycles;
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fabric() -> Links {
        Links::new(4, &CxlConfig::default())
    }

    #[test]
    fn propagation_latency() {
        let mut f = fabric();
        let a = f.send(HostId::new(0), Dir::ToDevice, 0, 16, false);
        // 16 B at 8 GB/s = 8 cycles, plus 200 cycles propagation.
        assert_eq!(a.at, 208);
        assert_eq!(a.queued, 0);
    }

    #[test]
    fn serialization_queues_messages() {
        let mut f = fabric();
        let h = HostId::new(1);
        let a1 = f.send(h, Dir::ToDevice, 0, 64, false);
        let a2 = f.send(h, Dir::ToDevice, 0, 64, false);
        assert!(a2.queued > 0);
        assert!(a2.at > a1.at);
    }

    #[test]
    fn set_link_params_preserves_occupancy_and_stats() {
        let mut f = fabric();
        let h = HostId::new(0);
        let old_latency = f.latency;
        let before = f.send(h, Dir::ToDevice, 0, 1 << 16, false);
        let free_at = before.at - old_latency;
        let faster = CxlConfig {
            link_latency_ns: 25.0,
            link_gbps: 16.0,
            ..CxlConfig::default()
        };
        f.set_link_params(&faster);
        assert_eq!(f.latency, pipm_types::cycles_from_ns(25.0));
        // New messages still queue behind traffic sent under the old
        // parameters (occupancy is preserved across reconfiguration) …
        let a = f.send(h, Dir::ToDevice, 0, 64, false);
        assert!(a.queued > 0, "pre-delta occupancy must persist");
        // … but serialize and propagate under the new ones: 64 B at
        // 16 GB/s = 16 cycles, plus the new 100-cycle propagation.
        assert_eq!(a.at, free_at + 16 + f.latency);
        // … and statistics keep accumulating.
        assert_eq!(f.total_stats().demand_messages, 2);
        assert_eq!(f.total_stats().demand_bytes, (1 << 16) + 64);
    }

    #[test]
    fn directions_are_independent() {
        let mut f = fabric();
        let h = HostId::new(0);
        f.send(h, Dir::ToDevice, 0, 1 << 20, false); // saturate upstream
        let a = f.send(h, Dir::ToHost, 0, 64, false);
        assert_eq!(a.queued, 0, "downstream must not queue behind upstream");
    }

    #[test]
    fn hosts_are_independent() {
        let mut f = fabric();
        f.send(HostId::new(0), Dir::ToDevice, 0, 1 << 20, false);
        let a = f.send(HostId::new(1), Dir::ToDevice, 0, 64, false);
        assert_eq!(a.queued, 0);
    }

    #[test]
    fn migration_attribution() {
        let mut f = fabric();
        let h = HostId::new(2);
        // A 4 KB migration payload occupies the downstream direction.
        f.send(h, Dir::ToHost, 0, 4096, true);
        let a = f.send(h, Dir::ToHost, 0, 64, false);
        assert!(a.queued > 0);
        assert_eq!(a.queued, a.queued_behind_migration);
        assert_eq!(f.total_stats().migration_bytes, 4096);
    }

    #[test]
    fn demand_after_migration_window_not_attributed() {
        let mut f = fabric();
        let h = HostId::new(0);
        let m = f.send(h, Dir::ToHost, 0, 4096, true);
        // Issue demand long after the migration drained: no attribution.
        let a = f.send(h, Dir::ToHost, m.at + 10_000, 64, false);
        assert_eq!(a.queued_behind_migration, 0);
    }

    #[test]
    fn stale_migration_window_attributes_nothing() {
        let mut f = fabric();
        let h = HostId::new(0);
        // Migration occupies [0, 128) (256 B at 2 B/cycle), then drains.
        f.send(h, Dir::ToHost, 0, 256, true);
        // Demand traffic occupies the direction well past the migration.
        f.send(h, Dir::ToHost, 128, 1 << 16, false);
        // Issued with the migration window (128) already past: the delay
        // is real but none of it is the migration's fault.
        let a = f.send(h, Dir::ToHost, 129, 64, false);
        assert!(a.queued > 0);
        assert_eq!(a.queued_behind_migration, 0);
    }

    #[test]
    fn inflight_migration_attributes_partially() {
        let mut f = fabric();
        let h = HostId::new(1);
        // Migration occupies [0, 2048); demand extends occupancy to 4096.
        f.send(h, Dir::ToHost, 0, 4096, true);
        f.send(h, Dir::ToHost, 0, 4096, false);
        // Issued mid-migration: queues to cycle 4096, but only the
        // migration's remaining window [100, 2048) is attributed.
        let a = f.send(h, Dir::ToHost, 100, 64, false);
        assert_eq!(a.queued, 4096 - 100);
        assert_eq!(a.queued_behind_migration, 2048 - 100);
    }

    #[test]
    fn bandwidth_scales_serialization() {
        let slow = CxlConfig {
            link_gbps: 2.5,
            ..CxlConfig::default()
        };
        let fast = CxlConfig {
            link_gbps: 10.0,
            ..CxlConfig::default()
        };
        let mut fs = Links::new(1, &slow);
        let mut ff = Links::new(1, &fast);
        let h = HostId::new(0);
        let ts = fs.send(h, Dir::ToDevice, 0, 4096, false).at;
        let tf = ff.send(h, Dir::ToDevice, 0, 4096, false).at;
        assert!(ts > tf);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Per-direction FIFO ordering: messages sent at non-decreasing
        /// times arrive in order, and arrival always includes propagation.
        #[test]
        fn prop_fifo_per_direction(
            seq in proptest::collection::vec((0u64..200, 1u64..4096), 1..200)
        ) {
            let mut f = Links::new(2, &CxlConfig::default());
            let h = HostId::new(0);
            let mut now = 0;
            let mut last_arrival = 0;
            for (gap, bytes) in seq {
                now += gap;
                let a = f.send(h, Dir::ToDevice, now, bytes, false);
                prop_assert!(a.at >= now + f.latency);
                prop_assert!(a.at >= last_arrival, "FIFO violated");
                last_arrival = a.at;
            }
        }

        /// Queue attribution never exceeds the total queueing delay.
        #[test]
        fn prop_migration_attribution_bounded(
            seq in proptest::collection::vec((0u64..64, 1u64..512, proptest::bool::ANY), 1..200)
        ) {
            let mut f = Links::new(1, &CxlConfig::default());
            let h = HostId::new(0);
            let mut now = 0;
            for (gap, bytes, mig) in seq {
                now += gap;
                let a = f.send(h, Dir::ToHost, now, bytes, mig);
                prop_assert!(a.queued_behind_migration <= a.queued);
            }
        }
    }
}
