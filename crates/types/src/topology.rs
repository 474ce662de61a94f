//! Declarative rack-scale fabric topology.
//!
//! The original simulator hard-wired one CXL memory device with a
//! point-to-point link per host. A [`TopologySpec`] generalizes that to
//! `devices` multi-headed CXL devices that every host reaches either
//! *directly* (one independent link per host–device pair) or through one
//! *switch* (one shared uplink per host, one shared port link per device,
//! and a store-and-forward latency per traversal). Shared pages are
//! interleaved across devices by page number. The host count is
//! [`SystemConfig::hosts`](crate::SystemConfig::hosts); the spec does not
//! repeat it.
//!
//! The default spec describes exactly the legacy shape — one device, every
//! host direct — so existing configurations, golden fingerprints, and
//! cached results are unchanged unless a topology is explicitly requested.
//!
//! This module only *describes* the graph; the queueing engine that
//! executes it lives in `pipm-fabric::topology` (the runtime cannot live
//! here because `pipm-types` is the dependency root of the workspace).

/// Largest accepted switch store-and-forward latency, in ns.
const MAX_SWITCH_FORWARD_NS: f64 = 1e6;

/// Declarative description of the host/switch/device graph: `devices`
/// CXL devices, reached directly or through one switch.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct TopologySpec {
    /// Number of CXL memory devices. Shared pages interleave across
    /// devices by page number.
    pub devices: usize,
    /// `None`: every host holds a direct link to every device. `Some(ns)`:
    /// every host reaches every device through one switch that adds `ns`
    /// of store-and-forward latency per traversal.
    pub switch_forward_ns: Option<f64>,
}

impl Default for TopologySpec {
    /// The legacy shape: one device, all hosts directly attached.
    fn default() -> Self {
        TopologySpec::multi_headed(1)
    }
}

impl TopologySpec {
    /// Every host holding a dedicated link to each of `devices`
    /// multi-headed devices.
    pub fn multi_headed(devices: usize) -> Self {
        TopologySpec {
            devices,
            switch_forward_ns: None,
        }
    }

    /// Every host behind one switch reaching `devices` devices; each
    /// traversal pays `forward_ns` on top of both link propagations.
    pub fn switched(devices: usize, forward_ns: f64) -> Self {
        TopologySpec {
            devices,
            switch_forward_ns: Some(forward_ns),
        }
    }

    /// Validates the graph.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency: a zero or
    /// oversized device count, or a switch forward latency outside
    /// `[0, 1e6]` ns.
    pub fn validate(&self) -> Result<(), String> {
        if self.devices == 0 || self.devices > crate::HostId::MAX_HOSTS {
            return Err(format!(
                "topology devices must be in 1..={}, got {}",
                crate::HostId::MAX_HOSTS,
                self.devices
            ));
        }
        if let Some(ns) = self.switch_forward_ns {
            if !(0.0..=MAX_SWITCH_FORWARD_NS).contains(&ns) {
                return Err(format!(
                    "switch_forward_ns must be in [0, {MAX_SWITCH_FORWARD_NS:e}], got {ns}"
                ));
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
        assert_eq!(t, TopologySpec::multi_headed(1));
        assert_eq!(t.switch_forward_ns, None);
        t.validate().unwrap();
    }

    #[test]
    fn validation_catches_bad_graphs() {
        assert!(TopologySpec::multi_headed(0).validate().is_err());
        assert!(TopologySpec::multi_headed(crate::HostId::MAX_HOSTS + 1)
            .validate()
            .is_err());
        TopologySpec::switched(2, 0.0).validate().unwrap();
        TopologySpec::switched(2, MAX_SWITCH_FORWARD_NS)
            .validate()
            .unwrap();
        for ns in [-1.0, 2e6, f64::NAN, f64::INFINITY] {
            assert!(TopologySpec::switched(2, ns).validate().is_err(), "{ns}");
        }
    }
}
