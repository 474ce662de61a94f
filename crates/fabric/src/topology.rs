//! Rack-scale topology engine: a graph of hosts, switches, and devices
//! executed over busy-until links.
//!
//! The [`Topology`] executes the graph a [`pipm_types::TopologySpec`]
//! declares:
//!
//! * **Direct hosts** hold one dedicated full-duplex link per device (a
//!   *plane* per device, one link per host). With one device this is
//!   exactly one link per host to the memory node, the paper's setting.
//! * **Switched hosts** share one uplink into their switch; the switch
//!   owns one port link per device, shared by every host behind it. A
//!   traversal pays both link propagations plus the switch's
//!   store-and-forward latency, and is counted as a *hop*.
//! * **Devices** have independent bandwidth occupancy: traffic to device
//!   0 never queues behind traffic to device 1 unless they share a
//!   switch port or uplink.
//!
//! [`Dir::ToDevice`] moves toward the addressed device, [`Dir::ToHost`]
//! toward the host, whichever legs that takes.

use crate::{Arrival, Dir, LinkStats, Links};
use pipm_types::{cycles_from_ns, Attach, Cycle, HostId, LineAddr, PageNum, SystemConfig};

/// Aggregate topology counters beyond the per-link [`LinkStats`].
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct TopologyStats {
    /// Messages that traversed a switch (one per traversal).
    pub switch_hops: u64,
    /// Messages delivered over each device's links, indexed by device.
    pub device_messages: Vec<u64>,
    /// Bytes carried over each device's links, indexed by device.
    pub device_bytes: Vec<u64>,
}

#[derive(Clone, Debug)]
struct Switch {
    /// Store-and-forward delay per traversal, in CPU cycles.
    forward: Cycle,
    /// One port link per device, indexed by `HostId::new(device)`.
    ports: Links,
    /// Ports built from the system-wide link config (follow
    /// [`Topology::set_link_params`]) vs. pinned by the spec.
    ports_inherit: bool,
}

/// The executable fabric graph. Construct with [`Topology::new`] from a
/// validated [`SystemConfig`]; the spec's default shape is one device
/// with one direct link per host.
///
/// [`TopologySpec`]: pipm_types::TopologySpec
#[derive(Clone, Debug)]
pub struct Topology {
    /// Per-device planes of direct host links.
    planes: Vec<Links>,
    /// Host→switch uplinks (only the switched hosts' entries carry
    /// traffic; direct hosts' entries stay idle).
    uplinks: Links,
    switches: Vec<Switch>,
    attach: Vec<Attach>,
    devices: usize,
    header_bytes: u64,
    switch_hops: u64,
    device_messages: Vec<u64>,
    device_bytes: Vec<u64>,
}

impl Topology {
    /// Builds the graph `cfg.topology` declares for `cfg.hosts` hosts.
    ///
    /// # Panics
    ///
    /// Panics if the topology spec fails validation against `cfg.hosts`.
    pub fn new(cfg: &SystemConfig) -> Self {
        let spec = &cfg.topology;
        spec.validate(cfg.hosts).expect("invalid topology spec");
        let hosts = spec.resolved_hosts(cfg.hosts);
        let devices = spec.device_count();
        let switches = spec
            .switches
            .iter()
            .map(|sw| Switch {
                forward: cycles_from_ns(sw.forward_latency_ns),
                ports: Links::new(devices, sw.port_link.as_ref().unwrap_or(&cfg.cxl)),
                ports_inherit: sw.port_link.is_none(),
            })
            .collect();
        Topology {
            planes: (0..devices).map(|_| Links::new(hosts, &cfg.cxl)).collect(),
            uplinks: Links::new(hosts, &cfg.cxl),
            switches,
            attach: (0..hosts).map(|h| spec.attach_of(h)).collect(),
            devices,
            header_bytes: cfg.cxl.header_bytes,
            switch_hops: 0,
            device_messages: vec![0; devices],
            device_bytes: vec![0; devices],
        }
    }

    /// Number of CXL devices in the graph.
    pub fn devices(&self) -> usize {
        self.devices
    }

    /// Size in bytes of a control/request message.
    pub fn header_bytes(&self) -> u64 {
        self.header_bytes
    }

    /// One-way propagation latency of the direct host links, in cycles.
    pub fn latency(&self) -> Cycle {
        self.planes[0].latency()
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
    /// starting at `now`, traversing whatever legs the host's attachment
    /// requires. Leg arrivals chain (store-and-forward at switches);
    /// queueing attributions sum across legs.
    pub fn send(
        &mut self,
        h: HostId,
        dev: usize,
        dir: Dir,
        now: Cycle,
        bytes: u64,
        is_migration: bool,
    ) -> Arrival {
        self.device_messages[dev] += 1;
        self.device_bytes[dev] += bytes;
        match self.attach[h.index()] {
            Attach::Direct => self.planes[dev].send(h, dir, now, bytes, is_migration),
            Attach::Switch(si) => {
                self.switch_hops += 1;
                let sw = &mut self.switches[si];
                let port = HostId::new(dev);
                let (leg1, leg2) = match dir {
                    Dir::ToDevice => {
                        let up = self
                            .uplinks
                            .send(h, Dir::ToDevice, now, bytes, is_migration);
                        let out = sw.ports.send(
                            port,
                            Dir::ToDevice,
                            up.at + sw.forward,
                            bytes,
                            is_migration,
                        );
                        (up, out)
                    }
                    Dir::ToHost => {
                        let back = sw.ports.send(port, Dir::ToHost, now, bytes, is_migration);
                        let down = self.uplinks.send(
                            h,
                            Dir::ToHost,
                            back.at + sw.forward,
                            bytes,
                            is_migration,
                        );
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

    /// Reconfigures every edge built from the system-wide link config
    /// (direct planes, uplinks, and inheriting switch ports) in place,
    /// preserving occupancy and statistics. Switch ports the spec pinned
    /// with their own [`CxlConfig`] keep their parameters.
    ///
    /// [`CxlConfig`]: pipm_types::CxlConfig
    pub fn set_link_params(&mut self, cfg: &pipm_types::CxlConfig) {
        for p in &mut self.planes {
            p.set_link_params(cfg);
        }
        self.uplinks.set_link_params(cfg);
        for sw in &mut self.switches {
            if sw.ports_inherit {
                sw.ports.set_link_params(cfg);
            }
        }
        self.header_bytes = cfg.header_bytes;
    }

    /// Aggregate link statistics over every edge in the graph.
    pub fn total_stats(&self) -> LinkStats {
        let mut t = LinkStats::default();
        let mut add = |s: LinkStats| {
            t.demand_messages += s.demand_messages;
            t.demand_bytes += s.demand_bytes;
            t.migration_bytes += s.migration_bytes;
            t.demand_queue_cycles += s.demand_queue_cycles;
        };
        for p in &self.planes {
            add(p.total_stats());
        }
        add(self.uplinks.total_stats());
        for sw in &self.switches {
            add(sw.ports.total_stats());
        }
        t
    }

    /// Topology-level counters (hops, per-device traffic).
    pub fn topo_stats(&self) -> TopologyStats {
        TopologyStats {
            switch_hops: self.switch_hops,
            device_messages: self.device_messages.clone(),
            device_bytes: self.device_bytes.clone(),
        }
    }

    /// Resets all statistics without disturbing link occupancy.
    pub fn reset_stats(&mut self) {
        for p in &mut self.planes {
            p.reset_stats();
        }
        self.uplinks.reset_stats();
        for sw in &mut self.switches {
            sw.ports.reset_stats();
        }
        self.switch_hops = 0;
        self.device_messages.iter_mut().for_each(|v| *v = 0);
        self.device_bytes.iter_mut().for_each(|v| *v = 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipm_types::{CxlConfig, SwitchSpec, TopologySpec};

    fn cfg_with(t: TopologySpec) -> SystemConfig {
        let mut cfg = SystemConfig::default();
        cfg.apply_topology(t);
        cfg
    }

    /// The degenerate single-device topology must be bit-identical to one
    /// raw link per host: same arrivals, same queueing, same attribution,
    /// message for message.
    #[test]
    fn single_device_matches_raw_fabric_bit_for_bit() {
        let cfg = cfg_with(TopologySpec::single_device(4));
        let mut topo = Topology::new(&cfg);
        let mut raw = Links::new(4, &cfg.cxl);
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
        assert_eq!(topo.topo_stats().switch_hops, 0);
    }

    #[test]
    fn devices_have_independent_occupancy() {
        let cfg = cfg_with(TopologySpec::multi_headed(2, 2));
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
        let cfg = cfg_with(TopologySpec::switched(2, 2, fwd_ns));
        let mut topo = Topology::new(&cfg);
        let direct = cfg_with(TopologySpec::multi_headed(2, 2));
        let mut flat = Topology::new(&direct);
        let h = HostId::new(0);
        let a = topo.send(h, 1, Dir::ToDevice, 0, 64, false);
        let d = flat.send(h, 1, Dir::ToDevice, 0, 64, false);
        // Two propagations + serialization twice + forward latency vs one
        // propagation + one serialization.
        let lat = flat.latency();
        let ser = d.at - lat; // one serialization (unloaded)
        assert_eq!(a.at, 2 * ser + 2 * lat + cycles_from_ns(fwd_ns));
        assert_eq!(topo.topo_stats().switch_hops, 1);
        assert_eq!(flat.topo_stats().switch_hops, 0);
    }

    #[test]
    fn switch_ports_are_shared_per_device() {
        // Two hosts behind one switch: their traffic to the same device
        // serializes on the shared port even though their uplinks differ.
        let cfg = cfg_with(TopologySpec::switched(2, 2, 0.0));
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
        let cfg = cfg_with(TopologySpec::switched(2, 1, 0.0));
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
        let cfg = cfg_with(TopologySpec::multi_headed(2, 4));
        let mut topo = Topology::new(&cfg);
        let h = HostId::new(1);
        topo.send(h, 0, Dir::ToDevice, 0, 100, false);
        topo.send(h, 2, Dir::ToDevice, 0, 200, false);
        topo.send(h, 2, Dir::ToHost, 0, 300, true);
        let s = topo.topo_stats();
        assert_eq!(s.device_messages, vec![1, 0, 2, 0]);
        assert_eq!(s.device_bytes, vec![100, 0, 500, 0]);
        topo.reset_stats();
        assert_eq!(
            topo.topo_stats(),
            TopologyStats {
                switch_hops: 0,
                device_messages: vec![0; 4],
                device_bytes: vec![0; 4],
            }
        );
    }

    #[test]
    fn migration_attribution_sums_across_switch_legs() {
        let cfg = cfg_with(TopologySpec::switched(2, 1, 10.0));
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
    fn set_link_params_respects_pinned_ports() {
        let pinned = CxlConfig {
            link_gbps: 32.0,
            ..CxlConfig::default()
        };
        let spec = TopologySpec {
            hosts: 2,
            devices: 1,
            switches: vec![SwitchSpec {
                forward_latency_ns: 0.0,
                port_link: Some(pinned),
            }],
            host_attach: vec![pipm_types::Attach::Switch(0)],
        };
        let cfg = cfg_with(spec);
        let mut topo = Topology::new(&cfg);
        let base = topo.send(HostId::new(0), 0, Dir::ToDevice, 0, 4096, false);
        // Halve the system-wide bandwidth: the uplink slows, the pinned
        // port does not. Compare against a fully-inheriting twin.
        let slow = CxlConfig {
            link_gbps: cfg.cxl.link_gbps / 2.0,
            ..cfg.cxl
        };
        topo.set_link_params(&slow);
        let inh_cfg = cfg_with(TopologySpec::switched(2, 1, 0.0));
        let mut inh = Topology::new(&inh_cfg);
        inh.set_link_params(&slow);
        let a = topo.send(HostId::new(1), 0, Dir::ToDevice, base.at, 4096, false);
        let b = inh.send(HostId::new(1), 0, Dir::ToDevice, base.at, 4096, false);
        assert!(
            a.at < b.at,
            "pinned port must keep its bandwidth after a link delta"
        );
    }

    #[test]
    fn page_interleave_is_stable() {
        let cfg = cfg_with(TopologySpec::multi_headed(2, 4));
        let topo = Topology::new(&cfg);
        for p in 0..64u64 {
            let page = pipm_types::Addr::new(p * pipm_types::PAGE_SIZE).page();
            assert_eq!(topo.device_for_page(page), (p % 4) as usize);
        }
    }
}
