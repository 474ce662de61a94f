//! Rack-scale topology engine: hosts and devices, optionally joined by
//! one switch, executed over busy-until links.
//!
//! The [`Topology`] executes the graph a [`pipm_types::TopologySpec`]
//! declares:
//!
//! * **Direct** racks give every host one dedicated full-duplex link per
//!   device (a *plane* per device, one link per host). With one device
//!   this is exactly one link per host to the memory node, the paper's
//!   setting.
//! * **Switched** racks give every host one uplink into the switch; the
//!   switch owns one port link per device, shared by every host. A
//!   traversal pays both link propagations plus the switch's
//!   store-and-forward latency, and is counted as a *hop*.
//! * **Devices** have independent bandwidth occupancy: traffic to device
//!   0 never queues behind traffic to device 1 unless they share an
//!   uplink.
//!
//! [`Dir::ToDevice`] moves toward the addressed device, [`Dir::ToHost`]
//! toward the host, whichever legs that takes.

use crate::{Arrival, Dir, LinkStats, Links};
use pipm_types::{cycles_from_ns, Cycle, FabricStats, HostId, LineAddr, PageNum, SystemConfig};

/// The edges of the graph.
#[derive(Clone, Debug)]
enum Graph {
    /// One plane of direct host links per device.
    Direct(Vec<Links>),
    /// One switch between every host and every device.
    Switched {
        /// Store-and-forward delay per traversal, in CPU cycles.
        forward: Cycle,
        /// One uplink per host into the switch.
        uplinks: Links,
        /// One port link per device, indexed by `HostId::new(device)`.
        ports: Links,
    },
}

/// The executable fabric graph. Construct with [`Topology::new`] from a
/// validated [`SystemConfig`]; the spec's default shape is one device
/// with one direct link per host.
#[derive(Clone, Debug)]
pub struct Topology {
    graph: Graph,
    devices: usize,
    header_bytes: u64,
    stats: FabricStats,
}

impl Topology {
    /// Builds the graph `cfg.topology` declares for `cfg.hosts` hosts.
    ///
    /// # Panics
    ///
    /// Panics if the topology spec fails validation.
    pub fn new(cfg: &SystemConfig) -> Self {
        let spec = cfg.topology;
        spec.validate().expect("invalid topology spec");
        let devices = spec.devices;
        let graph = match spec.switch_forward_ns {
            None => Graph::Direct(
                (0..devices)
                    .map(|_| Links::new(cfg.hosts, &cfg.cxl))
                    .collect(),
            ),
            Some(ns) => Graph::Switched {
                forward: cycles_from_ns(ns),
                uplinks: Links::new(cfg.hosts, &cfg.cxl),
                ports: Links::new(devices, &cfg.cxl),
            },
        };
        Topology {
            graph,
            devices,
            header_bytes: cfg.cxl.header_bytes,
            stats: FabricStats {
                switch_hops: 0,
                device_messages: vec![0; devices],
                device_bytes: vec![0; devices],
            },
        }
    }

    /// Size in bytes of a control/request message.
    pub fn header_bytes(&self) -> u64 {
        self.header_bytes
    }

    /// Home device of a shared page (page-interleaved across devices).
    pub fn device_for_page(&self, page: PageNum) -> usize {
        (page.raw() % self.devices as u64) as usize
    }

    /// Home device of a shared line (its page's device).
    pub fn device_for_line(&self, line: LineAddr) -> usize {
        self.device_for_page(line.page())
    }

    /// Sends `bytes` between host `h` and device `dev` in direction `dir`
    /// starting at `now`, traversing whatever legs the graph requires.
    /// Leg arrivals chain (store-and-forward at the switch); queueing
    /// attributions sum across legs.
    pub fn send(
        &mut self,
        h: HostId,
        dev: usize,
        dir: Dir,
        now: Cycle,
        bytes: u64,
        is_migration: bool,
    ) -> Arrival {
        self.stats.device_messages[dev] += 1;
        self.stats.device_bytes[dev] += bytes;
        match &mut self.graph {
            Graph::Direct(planes) => planes[dev].send(h, dir, now, bytes, is_migration),
            Graph::Switched {
                forward,
                uplinks,
                ports,
            } => {
                self.stats.switch_hops += 1;
                let port = HostId::new(dev);
                let (leg1, leg2) = match dir {
                    Dir::ToDevice => {
                        let up = uplinks.send(h, dir, now, bytes, is_migration);
                        let out = ports.send(port, dir, up.at + *forward, bytes, is_migration);
                        (up, out)
                    }
                    Dir::ToHost => {
                        let back = ports.send(port, dir, now, bytes, is_migration);
                        let down = uplinks.send(h, dir, back.at + *forward, bytes, is_migration);
                        (back, down)
                    }
                };
                Arrival {
                    at: leg2.at,
                    queued: leg1.queued + leg2.queued,
                    queued_behind_migration: leg1.queued_behind_migration
                        + leg2.queued_behind_migration,
                }
            }
        }
    }

    /// Reconfigures every link in place, preserving occupancy and
    /// statistics.
    pub fn set_link_params(&mut self, cfg: &pipm_types::CxlConfig) {
        match &mut self.graph {
            Graph::Direct(planes) => planes.iter_mut().for_each(|p| p.set_link_params(cfg)),
            Graph::Switched { uplinks, ports, .. } => {
                uplinks.set_link_params(cfg);
                ports.set_link_params(cfg);
            }
        }
        self.header_bytes = cfg.header_bytes;
    }

    /// Aggregate link statistics over every edge in the graph.
    pub fn total_stats(&self) -> LinkStats {
        let edges: Vec<&Links> = match &self.graph {
            Graph::Direct(planes) => planes.iter().collect(),
            Graph::Switched { uplinks, ports, .. } => vec![uplinks, ports],
        };
        let mut t = LinkStats::default();
        for s in edges.iter().map(|l| l.total_stats()) {
            t.demand_messages += s.demand_messages;
            t.demand_bytes += s.demand_bytes;
            t.migration_bytes += s.migration_bytes;
            t.demand_queue_cycles += s.demand_queue_cycles;
        }
        t
    }

    /// Topology-level counters: switch hops and per-device traffic.
    pub fn stats(&self) -> &FabricStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipm_types::{CxlConfig, TopologySpec};

    fn cfg_with(topology: TopologySpec) -> SystemConfig {
        SystemConfig {
            topology,
            ..SystemConfig::default()
        }
    }

    /// The degenerate single-device topology must be bit-identical to one
    /// raw link per host: same arrivals, same queueing, same attribution,
    /// message for message.
    #[test]
    fn single_device_matches_raw_fabric_bit_for_bit() {
        let cfg = cfg_with(TopologySpec::multi_headed(1));
        let mut topo = Topology::new(&cfg);
        let mut raw = Links::new(cfg.hosts, &cfg.cxl);
        // A deterministic mixed workload of demand and migration traffic.
        let mut now = 0;
        for i in 0..200u64 {
            let h = HostId::new((i % 4) as usize);
            let dir = if i % 3 == 0 {
                Dir::ToHost
            } else {
                Dir::ToDevice
            };
            let bytes = 16 + (i * 37) % 4096;
            let mig = i % 5 == 0;
            let a = topo.send(h, 0, dir, now, bytes, mig);
            let b = raw.send(h, dir, now, bytes, mig);
            assert_eq!(a, b, "message {i} diverged");
            now += (i * 13) % 97;
        }
        assert_eq!(topo.total_stats(), raw.total_stats());
        assert_eq!(topo.stats().switch_hops, 0);
    }

    #[test]
    fn devices_have_independent_occupancy() {
        let cfg = cfg_with(TopologySpec::multi_headed(2));
        let mut topo = Topology::new(&cfg);
        let h = HostId::new(0);
        // Saturate host 0's link to device 0 …
        topo.send(h, 0, Dir::ToDevice, 0, 1 << 20, false);
        // … device 1 must be unaffected (independent plane) …
        let a = topo.send(h, 1, Dir::ToDevice, 0, 64, false);
        assert_eq!(a.queued, 0, "devices must not share occupancy");
        // … while device 0 queues.
        let b = topo.send(h, 0, Dir::ToDevice, 0, 64, false);
        assert!(b.queued > 0);
    }

    #[test]
    fn switched_hosts_pay_forward_latency_and_count_hops() {
        let fwd_ns = 30.0;
        let cfg = cfg_with(TopologySpec::switched(2, fwd_ns));
        let mut topo = Topology::new(&cfg);
        let mut flat = Topology::new(&cfg_with(TopologySpec::multi_headed(2)));
        let h = HostId::new(0);
        let a = topo.send(h, 1, Dir::ToDevice, 0, 64, false);
        let d = flat.send(h, 1, Dir::ToDevice, 0, 64, false);
        // Two propagations + serialization twice + forward latency vs one
        // propagation + one serialization.
        let lat = cfg.link_latency();
        let ser = d.at - lat; // one serialization (unloaded)
        assert_eq!(a.at, 2 * ser + 2 * lat + cycles_from_ns(fwd_ns));
        assert_eq!(topo.stats().switch_hops, 1);
        assert_eq!(flat.stats().switch_hops, 0);
    }

    #[test]
    fn switched_link_delta_reaches_both_legs() {
        let fwd_ns = 30.0;
        let mut topo = Topology::new(&cfg_with(TopologySpec::switched(2, fwd_ns)));
        let slow = CxlConfig {
            link_latency_ns: 100.0,
            link_gbps: 4.0,
            ..CxlConfig::default()
        };
        topo.set_link_params(&slow);
        // Unloaded, after the delta: 80 B at 4 GB/s = 80 cycles per leg,
        // 400 cycles of propagation per leg, and the switch's forward.
        let bytes = 80;
        let ser = (bytes as f64 * pipm_types::CPU_GHZ / slow.link_gbps) as Cycle;
        let lat = cycles_from_ns(slow.link_latency_ns);
        let fwd = cycles_from_ns(fwd_ns);
        for (h, dev, dir) in [(0, 1, Dir::ToDevice), (1, 0, Dir::ToHost)] {
            let a = topo.send(HostId::new(h), dev, dir, 0, bytes, false);
            assert_eq!(a.at, 2 * ser + 2 * lat + fwd, "{dir:?}");
            assert_eq!(a.queued, 0);
        }
    }

    #[test]
    fn switch_ports_are_shared_per_device() {
        // Two hosts behind one switch: their traffic to the same device
        // serializes on the shared port even though their uplinks differ.
        let cfg = cfg_with(TopologySpec::switched(2, 0.0));
        let mut topo = Topology::new(&cfg);
        topo.send(HostId::new(0), 0, Dir::ToDevice, 0, 1 << 20, false);
        let a = topo.send(HostId::new(1), 0, Dir::ToDevice, 0, 64, false);
        assert!(
            a.queued > 0,
            "shared port must serialize cross-host traffic"
        );
        // The other device's port stays clear. Probe once host 1's own uplink
        // has drained (it carried the previous 64-byte message) but while
        // device 0's port is still busy with the megabyte transfer.
        let later = 10_000;
        let b = topo.send(HostId::new(1), 1, Dir::ToDevice, later, 64, false);
        assert_eq!(b.queued, 0);
        let c = topo.send(HostId::new(1), 0, Dir::ToDevice, later, 64, false);
        assert!(c.queued > 0, "device 0's port should still be saturated");
    }

    #[test]
    fn uplinks_are_per_host() {
        let cfg = cfg_with(TopologySpec::switched(1, 0.0));
        let mut topo = Topology::new(&cfg);
        // Host 0 saturates its uplink; host 1 queues only on the shared
        // port, not on host 0's uplink. Send small enough on the port that
        // host 0's message has cleared it: use disjoint times.
        let a0 = topo.send(HostId::new(0), 0, Dir::ToDevice, 0, 1 << 16, false);
        let a1 = topo.send(HostId::new(1), 0, Dir::ToDevice, a0.at, 64, false);
        assert_eq!(a1.queued, 0, "uplinks must be independent per host");
    }

    #[test]
    fn per_device_traffic_accounting() {
        let cfg = cfg_with(TopologySpec::multi_headed(4));
        let mut topo = Topology::new(&cfg);
        let h = HostId::new(1);
        topo.send(h, 0, Dir::ToDevice, 0, 100, false);
        topo.send(h, 2, Dir::ToDevice, 0, 200, false);
        topo.send(h, 2, Dir::ToHost, 0, 300, true);
        let s = topo.stats();
        assert_eq!(s.device_messages, vec![1, 0, 2, 0]);
        assert_eq!(s.device_bytes, vec![100, 0, 500, 0]);
    }

    #[test]
    fn migration_attribution_sums_across_switch_legs() {
        let cfg = cfg_with(TopologySpec::switched(1, 10.0));
        let mut topo = Topology::new(&cfg);
        let h = HostId::new(0);
        // Migration payload occupies both the uplink and the port.
        topo.send(h, 0, Dir::ToDevice, 0, 8192, true);
        let a = topo.send(h, 0, Dir::ToDevice, 0, 64, false);
        assert!(a.queued > 0);
        assert!(a.queued_behind_migration > 0);
        assert!(a.queued_behind_migration <= a.queued);
    }

    #[test]
    fn page_interleave_is_stable() {
        let cfg = cfg_with(TopologySpec::multi_headed(4));
        let topo = Topology::new(&cfg);
        for p in 0..64u64 {
            let page = pipm_types::Addr::new(p * pipm_types::PAGE_SIZE).page();
            assert_eq!(topo.device_for_page(page), (p % 4) as usize);
        }
    }
}
