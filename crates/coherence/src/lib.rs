//! Multi-host CXL-DSM cache coherence, including the PIPM extensions.
//!
//! Two layers live here:
//!
//! * [`proto`] — a **pure, executable specification** of the hierarchical
//!   directory protocol of the paper (§2.2) extended with PIPM's ME / I′
//!   states and the six new transitions of Figure 9 (§4.3). It tracks
//!   abstract data versions so that the `pipm-mcheck` model checker can
//!   verify the Single-Writer-Multiple-Reader and data-value invariants,
//!   and so the timing simulator's behaviour has a ground truth.
//! * [`DeviceDirectory`] — the finite-capacity CXL device coherence
//!   directory (Table 2: 2048 sets × 16 ways × 16 slices) used by the
//!   timing simulator, with LRU recall of victim entries.
//!
//! # Example
//!
//! ```
//! use pipm_coherence::proto::{Event, LineState};
//! use pipm_types::HostId;
//!
//! let (h0, h1) = (HostId::new(0), HostId::new(1));
//! let mut line = LineState::new(2);
//! line.step(Event::LocWr(h0)).unwrap();     // h0 obtains M
//! line.step(Event::Initiate(h0)).unwrap();  // partial migration initiated
//! line.step(Event::Evict(h0)).unwrap();     // case ①: incremental migration
//! assert!(line.inmem_bit);                  // line now lives in h0's DRAM
//! line.step(Event::LocRd(h1)).unwrap();     // case ②: migrates back to CXL
//! assert!(!line.inmem_bit);
//! line.check_invariants().unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod proto;

use pipm_cache::{CacheStats, SetAssoc};
use pipm_types::{DirectoryConfig, HostId, HostSet, LineAddr};

pub use proto::{Action, CacheState, DevState, Event, LineState, ProtocolError};

/// An entry recalled from the device directory to make room for a new one.
///
/// The holders listed must be invalidated (and the owner's dirty data
/// written back) before the entry can be reused.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Recall {
    /// The line whose directory entry was evicted.
    pub line: LineAddr,
    /// Its directory state at eviction time.
    pub state: DevState,
}

/// The CXL device coherence directory: a finite, set-associative tag store
/// mapping CXL-DSM lines cached by some host to their global state.
///
/// Lines not present are Invalid (or Migrated-Invalid, distinguished by the
/// in-memory bit held in the migration metadata, not here — migrated lines
/// deliberately require **no** directory entry, one of PIPM's benefits,
/// §4.3.3).
#[derive(Clone, Debug)]
pub struct DeviceDirectory {
    entries: SetAssoc<LineAddr, DevState>,
}

impl DeviceDirectory {
    /// Creates a directory with the configured geometry (sets × ways ×
    /// slices; slices are folded into the set count since they are
    /// address-interleaved).
    pub fn new(cfg: &DirectoryConfig) -> Self {
        // Occupancy is bounded by what hosts actually cache (tens of K
        // lines), a fraction of the 512 Ki-lane capacity; `SetAssoc`
        // allocates a set's payload only on its first insert.
        DeviceDirectory {
            entries: SetAssoc::new(cfg.sets_per_slice * cfg.slices, cfg.ways),
        }
    }

    /// Looks up a line's state (no allocation). `None` means Invalid.
    pub fn lookup(&mut self, line: LineAddr) -> Option<DevState> {
        self.entries.lookup(line).copied()
    }

    /// Sets a line's state, allocating an entry. Returns a [`Recall`] if a
    /// victim entry had to be evicted.
    pub fn update(&mut self, line: LineAddr, state: DevState) -> Option<Recall> {
        self.entries
            .insert(line, state)
            .map(|(l, s)| Recall { line: l, state: s })
    }

    /// Removes a line's entry (transition to Invalid / Migrated-Invalid).
    pub fn remove(&mut self, line: LineAddr) -> Option<DevState> {
        self.entries.invalidate(line)
    }

    /// Adds `h` to the sharer set of `line` (allocating if needed).
    pub fn add_sharer(&mut self, line: LineAddr, h: HostId) -> Option<Recall> {
        if let Some(state) = self.entries.peek_mut(line) {
            match state {
                DevState::Shared(set) => {
                    set.insert(h);
                    None
                }
                DevState::Modified(_) => {
                    *state = DevState::Shared(HostSet::singleton(h));
                    None
                }
            }
        } else {
            self.update(line, DevState::Shared(HostSet::singleton(h)))
        }
    }

    /// Removes `h` from the sharer set; drops the entry if it empties.
    pub fn remove_sharer(&mut self, line: LineAddr, h: HostId) {
        let empty = match self.entries.peek_mut(line) {
            Some(DevState::Shared(set)) => {
                set.remove(h);
                set.is_empty()
            }
            Some(DevState::Modified(owner)) if *owner == h => true,
            _ => false,
        };
        if empty {
            self.entries.invalidate(line);
        }
    }

    /// Number of valid entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the directory is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Hit/miss statistics of the underlying tag store.
    pub fn stats(&self) -> CacheStats {
        self.entries.stats()
    }

    /// Peeks a line's state without touching LRU order or hit/miss
    /// statistics. `None` means Invalid. For invariant checks and harness
    /// snapshots — the timing path must use [`Self::lookup`].
    pub fn peek(&self, line: LineAddr) -> Option<DevState> {
        self.entries.peek(line).copied()
    }

    /// Iterates all `(line, state)` entries without allocating (and
    /// without perturbing LRU or statistics), for invariant checking.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, DevState)> + '_ {
        self.entries.iter().map(|(l, s)| (*l, *s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dir() -> DeviceDirectory {
        DeviceDirectory::new(&DirectoryConfig {
            sets_per_slice: 2,
            ways: 2,
            slices: 1,
            ..DirectoryConfig::default()
        })
    }

    #[test]
    fn lookup_update_remove() {
        let mut d = dir();
        let l = LineAddr::new(1);
        assert_eq!(d.lookup(l), None);
        assert!(d.update(l, DevState::Modified(HostId::new(0))).is_none());
        assert_eq!(d.lookup(l), Some(DevState::Modified(HostId::new(0))));
        assert_eq!(d.remove(l), Some(DevState::Modified(HostId::new(0))));
        assert!(d.is_empty());
    }

    #[test]
    fn capacity_recall() {
        let mut d = dir();
        // Fill one set (lines ≡ 0 mod 2): 2 ways, third insert recalls.
        assert!(d
            .update(LineAddr::new(0), DevState::Modified(HostId::new(0)))
            .is_none());
        assert!(d
            .update(LineAddr::new(2), DevState::Modified(HostId::new(1)))
            .is_none());
        let recall = d.update(LineAddr::new(4), DevState::Modified(HostId::new(2)));
        let r = recall.expect("set overflow must recall");
        assert_eq!(r.line, LineAddr::new(0));
        assert_eq!(r.state, DevState::Modified(HostId::new(0)));
    }

    #[test]
    fn sharer_management() {
        let mut d = dir();
        let l = LineAddr::new(3);
        d.add_sharer(l, HostId::new(0));
        d.add_sharer(l, HostId::new(1));
        match d.lookup(l) {
            Some(DevState::Shared(set)) => assert_eq!(set.len(), 2),
            other => panic!("unexpected {other:?}"),
        }
        d.remove_sharer(l, HostId::new(0));
        d.remove_sharer(l, HostId::new(1));
        assert_eq!(d.lookup(l), None, "empty sharer set drops the entry");
    }

    #[test]
    fn add_sharer_after_modified_downgrades() {
        let mut d = dir();
        let l = LineAddr::new(5);
        d.update(l, DevState::Modified(HostId::new(2)));
        d.add_sharer(l, HostId::new(1));
        match d.lookup(l) {
            Some(DevState::Shared(set)) => {
                assert!(set.contains(HostId::new(1)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
