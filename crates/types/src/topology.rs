//! Declarative rack-scale fabric topology.
//!
//! The original simulator hard-wired one CXL memory device with a
//! point-to-point link per host. A [`TopologySpec`] generalizes that to a
//! small declarative graph: `hosts` attach either *directly* to every
//! device (multi-headed devices, one independent link per host–device
//! pair) or through a *switch* (one shared uplink per host, one shared
//! port link per switch–device pair, and a store-and-forward latency per
//! traversal). Shared pages are interleaved across devices by page number.
//!
//! The default spec describes exactly the legacy shape — one device, every
//! host direct — so existing configurations, golden fingerprints, and
//! cached results are unchanged unless a topology is explicitly requested.
//!
//! This module only *describes* the graph; the queueing engine that
//! executes it lives in `pipm-fabric::topology` (the runtime cannot live
//! here because `pipm-types` is the dependency root of the workspace).

use crate::config::CxlConfig;

/// How one host reaches the CXL devices.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Attach {
    /// Dedicated point-to-point links to every device (multi-headed
    /// devices; the legacy single-device shape is `Direct` with one
    /// device).
    Direct,
    /// A single uplink into the indexed switch; traffic to every device
    /// forwards across the switch's per-device port links.
    Switch(usize),
}

/// One switch in the fabric graph. Hosts attached to it share its port
/// links toward every device, so tenants behind one switch contend with
/// each other even when they target different devices.
#[derive(Clone, PartialEq, Debug)]
pub struct SwitchSpec {
    /// Store-and-forward latency added per traversal, in ns.
    pub forward_latency_ns: f64,
    /// Link parameters for the switch→device port links. `None` inherits
    /// the system-wide [`CxlConfig`] (and follows late-binding link
    /// deltas); `Some` pins the ports independently.
    pub port_link: Option<CxlConfig>,
}

impl Default for SwitchSpec {
    fn default() -> Self {
        SwitchSpec {
            forward_latency_ns: 25.0,
            port_link: None,
        }
    }
}

/// Declarative description of the host/switch/device graph.
///
/// Construct through [`TopologySpec::single_device`],
/// [`TopologySpec::multi_headed`], or [`TopologySpec::switched`]; the
/// `Default` value inherits the host count from
/// [`SystemConfig::hosts`](crate::SystemConfig::hosts) and describes the
/// legacy single-device shape.
#[derive(Clone, PartialEq, Debug)]
pub struct TopologySpec {
    /// Number of hosts, or `0` to inherit `SystemConfig::hosts`. When
    /// nonzero this is the source of truth and validation rejects a
    /// mismatching `SystemConfig::hosts`.
    pub hosts: usize,
    /// Number of CXL memory devices. Shared pages interleave across
    /// devices by page number ([`TopologySpec::device_for_page`]).
    pub devices: usize,
    /// Switches in the graph (may be empty).
    pub switches: Vec<SwitchSpec>,
    /// Per-host attachment. Empty = every host `Direct`; a single entry
    /// broadcasts to all hosts; otherwise one entry per host.
    pub host_attach: Vec<Attach>,
}

impl Default for TopologySpec {
    /// The legacy shape: inherit the configured host count, one device,
    /// all hosts directly attached.
    fn default() -> Self {
        TopologySpec {
            hosts: 0,
            devices: 1,
            switches: Vec::new(),
            host_attach: Vec::new(),
        }
    }
}

impl TopologySpec {
    /// The degenerate one-device topology for `hosts` hosts — the single
    /// source of truth for the host count when building a system
    /// explicitly (see [`SystemConfig::apply_topology`]).
    ///
    /// [`SystemConfig::apply_topology`]: crate::SystemConfig::apply_topology
    pub fn single_device(hosts: usize) -> Self {
        TopologySpec {
            hosts,
            ..TopologySpec::default()
        }
    }

    /// `hosts` hosts each holding a dedicated link to every one of
    /// `devices` multi-headed devices.
    pub fn multi_headed(hosts: usize, devices: usize) -> Self {
        TopologySpec {
            hosts,
            devices,
            ..TopologySpec::default()
        }
    }

    /// All `hosts` hosts behind one switch reaching `devices` devices;
    /// each traversal pays `forward_latency_ns` on top of both link
    /// propagations.
    pub fn switched(hosts: usize, devices: usize, forward_latency_ns: f64) -> Self {
        TopologySpec {
            hosts,
            devices,
            switches: vec![SwitchSpec {
                forward_latency_ns,
                port_link: None,
            }],
            host_attach: vec![Attach::Switch(0)],
        }
    }

    /// The host count this spec implies, falling back to `cfg_hosts` when
    /// inheriting (`hosts == 0`).
    pub fn resolved_hosts(&self, cfg_hosts: usize) -> usize {
        if self.hosts == 0 {
            cfg_hosts
        } else {
            self.hosts
        }
    }

    /// Number of CXL devices in the graph.
    pub fn device_count(&self) -> usize {
        self.devices
    }

    /// Attachment of host `h` (after broadcast/default expansion).
    pub fn attach_of(&self, h: usize) -> Attach {
        match self.host_attach.len() {
            0 => Attach::Direct,
            1 => self.host_attach[0],
            _ => self.host_attach[h],
        }
    }

    /// Home device of a shared page: pages interleave across devices so
    /// every device carries a share of every workload's footprint.
    pub fn device_for_page(&self, page: u64) -> usize {
        (page % self.devices as u64) as usize
    }

    /// Validates the graph against the configured host count.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency: a zero or
    /// oversized device count, an explicit host count disagreeing with
    /// `cfg_hosts`, a `host_attach` list of the wrong length, an
    /// out-of-range switch index, or a non-positive port bandwidth.
    pub fn validate(&self, cfg_hosts: usize) -> Result<(), String> {
        if self.devices == 0 || self.devices > crate::HostId::MAX_HOSTS {
            return Err(format!(
                "topology devices must be in 1..={}, got {}",
                crate::HostId::MAX_HOSTS,
                self.devices
            ));
        }
        if self.hosts != 0 && self.hosts != cfg_hosts {
            return Err(format!(
                "topology declares {} hosts but the configuration has {cfg_hosts} \
                 (TopologySpec is the source of truth; use apply_topology)",
                self.hosts
            ));
        }
        if !matches!(self.host_attach.len(), 0 | 1) && self.host_attach.len() != cfg_hosts {
            return Err(format!(
                "host_attach must be empty, a single broadcast entry, or one \
                 entry per host ({cfg_hosts}), got {}",
                self.host_attach.len()
            ));
        }
        for (i, a) in self.host_attach.iter().enumerate() {
            if let Attach::Switch(s) = a {
                if *s >= self.switches.len() {
                    return Err(format!(
                        "host_attach[{i}] references switch {s} but only {} \
                         switches are declared",
                        self.switches.len()
                    ));
                }
            }
        }
        for (i, sw) in self.switches.iter().enumerate() {
            if sw.forward_latency_ns < 0.0 {
                return Err(format!("switch {i} forward latency must be >= 0"));
            }
            if let Some(link) = &sw.port_link {
                if link.link_gbps <= 0.0 {
                    return Err(format!("switch {i} port bandwidth must be positive"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_legacy_single_device() {
        let t = TopologySpec::default();
        assert_eq!(t.resolved_hosts(4), 4);
        assert_eq!(t.device_count(), 1);
        assert!(matches!(t.attach_of(3), Attach::Direct));
        t.validate(4).unwrap();
        t.validate(32).unwrap();
    }

    #[test]
    fn single_device_pins_host_count() {
        let t = TopologySpec::single_device(8);
        assert_eq!(t.resolved_hosts(4), 8);
        t.validate(8).unwrap();
        assert!(t.validate(4).is_err(), "host-count drift must be rejected");
    }

    #[test]
    fn page_interleave_covers_all_devices() {
        let t = TopologySpec::multi_headed(4, 4);
        let mut seen = [false; 4];
        for p in 0..8 {
            seen[t.device_for_page(p)] = true;
        }
        assert!(seen.iter().all(|&s| s));
        assert_eq!(t.device_for_page(5), t.device_for_page(9));
    }

    #[test]
    fn switched_broadcast_attachment() {
        let t = TopologySpec::switched(4, 2, 30.0);
        for h in 0..4 {
            assert!(matches!(t.attach_of(h), Attach::Switch(0)));
        }
        t.validate(4).unwrap();
    }

    #[test]
    fn validation_catches_bad_graphs() {
        let t = TopologySpec {
            devices: 0,
            ..TopologySpec::default()
        };
        assert!(t.validate(4).is_err());
        let t = TopologySpec {
            host_attach: vec![Attach::Switch(0)],
            ..TopologySpec::default()
        };
        assert!(t.validate(4).is_err(), "switch index out of range");
        let t = TopologySpec {
            host_attach: vec![Attach::Direct; 3],
            ..TopologySpec::default()
        };
        assert!(t.validate(4).is_err(), "wrong host_attach arity");
        let t = TopologySpec {
            switches: vec![SwitchSpec {
                forward_latency_ns: -1.0,
                port_link: None,
            }],
            ..TopologySpec::default()
        };
        assert!(t.validate(4).is_err());
    }
}
