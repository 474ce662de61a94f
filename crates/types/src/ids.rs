//! Identifiers for hosts and cores.

use std::fmt;

/// Identifies one host (compute node) in the multi-host CXL-DSM system.
///
/// The paper's global remapping table stores host IDs in 5 bits, so at most
/// 32 hosts are supported; [`HostId::new`] enforces this.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct HostId(u8);

impl HostId {
    /// Maximum number of hosts representable (5-bit host IDs per the paper).
    pub const MAX_HOSTS: usize = 32;

    /// Creates a host ID.
    ///
    /// # Panics
    ///
    /// Panics if `id >= 32` (host IDs are 5 bits wide in the global
    /// remapping table).
    pub fn new(id: usize) -> Self {
        assert!(id < Self::MAX_HOSTS, "host id {id} exceeds 5-bit encoding");
        HostId(id as u8)
    }

    /// Returns the numeric index of this host.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "H{}", self.0)
    }
}

impl From<HostId> for usize {
    fn from(h: HostId) -> usize {
        h.index()
    }
}

/// Identifies one core as a (host, core-within-host) pair.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct CoreId {
    /// The host this core belongs to.
    pub host: HostId,
    /// Index of the core within its host.
    pub core: u8,
}

impl CoreId {
    /// Maximum number of cores per host representable (the in-host core
    /// index is a `u8`).
    pub const MAX_CORES_PER_HOST: usize = 256;

    /// Creates a core ID.
    ///
    /// # Panics
    ///
    /// Panics if `core >= 256`: a wider index would alias a lower core.
    pub fn new(host: HostId, core: usize) -> Self {
        assert!(
            core < Self::MAX_CORES_PER_HOST,
            "core index {core} exceeds 8-bit encoding"
        );
        CoreId {
            host,
            core: core as u8,
        }
    }

    /// Flattens this ID into a global core index given `cores_per_host`.
    pub fn flat(self, cores_per_host: usize) -> usize {
        self.host.index() * cores_per_host + self.core as usize
    }
}

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}C{}", self.host, self.core)
    }
}

/// A set of hosts, used by coherence directories to track sharers.
///
/// Backed by a 32-bit mask, matching the 5-bit host ID space.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct HostSet(u32);

impl HostSet {
    /// Creates an empty host set.
    pub fn new() -> Self {
        HostSet(0)
    }

    /// Creates a set containing a single host.
    pub fn singleton(h: HostId) -> Self {
        HostSet(1 << h.index())
    }

    /// Adds a host to the set.
    pub fn insert(&mut self, h: HostId) {
        self.0 |= 1 << h.index();
    }

    /// Removes a host from the set.
    pub fn remove(&mut self, h: HostId) {
        self.0 &= !(1 << h.index());
    }

    /// Returns whether the set contains `h`.
    pub fn contains(self, h: HostId) -> bool {
        self.0 & (1 << h.index()) != 0
    }

    /// Returns whether the set is empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of hosts in the set.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Iterates over the hosts in the set in increasing index order.
    pub fn iter(self) -> impl Iterator<Item = HostId> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                None
            } else {
                let i = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(HostId::new(i))
            }
        })
    }

    /// Returns the set with host `h` removed (non-mutating).
    pub fn without(self, h: HostId) -> Self {
        HostSet(self.0 & !(1 << h.index()))
    }
}

impl fmt::Display for HostSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for h in self.iter() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{h}")?;
            first = false;
        }
        write!(f, "}}")
    }
}

impl FromIterator<HostId> for HostSet {
    fn from_iter<I: IntoIterator<Item = HostId>>(iter: I) -> Self {
        let mut s = HostSet::new();
        for h in iter {
            s.insert(h);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_id_bounds() {
        assert_eq!(HostId::new(31).index(), 31);
    }

    #[test]
    #[should_panic]
    fn host_id_too_large() {
        let _ = HostId::new(32);
    }

    #[test]
    fn host_set_basic() {
        let mut s = HostSet::new();
        assert!(s.is_empty());
        s.insert(HostId::new(3));
        s.insert(HostId::new(7));
        assert_eq!(s.len(), 2);
        assert!(s.contains(HostId::new(3)));
        assert!(!s.contains(HostId::new(4)));
        s.remove(HostId::new(3));
        let v: Vec<_> = s.iter().collect();
        assert_eq!(v, vec![HostId::new(7)]);
    }

    #[test]
    fn host_set_without_is_nonmutating() {
        let s = HostSet::singleton(HostId::new(5));
        let t = s.without(HostId::new(5));
        assert!(t.is_empty());
        assert!(s.contains(HostId::new(5)));
    }

    #[test]
    fn host_set_from_iter_and_display() {
        let s: HostSet = [0usize, 2, 9].into_iter().map(HostId::new).collect();
        assert_eq!(s.len(), 3);
        assert_eq!(format!("{s}"), "{H0,H2,H9}");
    }

    #[test]
    fn core_id_flat() {
        let c = CoreId::new(HostId::new(2), 3);
        assert_eq!(c.flat(4), 11);
        assert_eq!(format!("{c}"), "H2C3");
        assert_eq!(CoreId::new(HostId::new(0), 255).core, 255);
    }

    #[test]
    #[should_panic(expected = "exceeds 8-bit encoding")]
    fn core_id_rejects_an_index_that_would_alias() {
        CoreId::new(HostId::new(0), 256);
    }
}
