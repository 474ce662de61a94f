//! Identification of the evaluated memory-management schemes (paper §5.1.3).

use std::fmt;
use std::str::FromStr;

/// The seven schemes compared in the paper's evaluation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum SchemeKind {
    /// Baseline multi-host CXL-DSM without any migration to local memory.
    Native,
    /// Recency-based hotness policy with asynchronous kernel migration
    /// (Nomad, OSDI '24).
    Nomad,
    /// Frequency-based hotness policy with kernel migration (Memtis,
    /// SOSP '23).
    Memtis,
    /// Frequency-threshold hotness policy with kernel migration (HeMem,
    /// SOSP '21).
    Hemem,
    /// Ablation: PIPM's majority-vote policy at page granularity driving the
    /// conventional kernel migration mechanism.
    OsSkew,
    /// Ablation: PIPM's incremental hardware mechanism with a static 1:1
    /// CXL-to-local mapping (Intel Flat Mode analogue).
    HwStatic,
    /// Partial and Incremental Page Migration (this paper).
    Pipm,
    /// Upper bound: single-socket run with all data in local DRAM.
    LocalOnly,
}

impl SchemeKind {
    /// All schemes in the order the paper's figures present them.
    pub const ALL: [SchemeKind; 8] = [
        SchemeKind::Native,
        SchemeKind::Nomad,
        SchemeKind::Memtis,
        SchemeKind::Hemem,
        SchemeKind::OsSkew,
        SchemeKind::HwStatic,
        SchemeKind::Pipm,
        SchemeKind::LocalOnly,
    ];

    /// Short label used in harness output, matching the paper's legends.
    pub fn label(self) -> &'static str {
        match self {
            SchemeKind::Native => "Native",
            SchemeKind::Nomad => "Nomad",
            SchemeKind::Memtis => "Memtis",
            SchemeKind::Hemem => "HeMem",
            SchemeKind::OsSkew => "OS-skew",
            SchemeKind::HwStatic => "HW-static",
            SchemeKind::Pipm => "PIPM",
            SchemeKind::LocalOnly => "Local-only",
        }
    }

    /// Whether this scheme uses the kernel page-migration mechanism
    /// (whole-page transfers, page-table updates, TLB shootdowns).
    pub fn uses_kernel_migration(self) -> bool {
        matches!(
            self,
            SchemeKind::Nomad | SchemeKind::Memtis | SchemeKind::Hemem | SchemeKind::OsSkew
        )
    }
}

impl fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Error returned when parsing an unknown scheme name.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseSchemeError(String);

impl fmt::Display for ParseSchemeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown scheme name `{}`", self.0)
    }
}

impl std::error::Error for ParseSchemeError {}

impl FromStr for SchemeKind {
    type Err = ParseSchemeError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let norm = s.to_ascii_lowercase().replace(['-', '_'], "");
        Ok(match norm.as_str() {
            "native" | "nativecxldsm" => SchemeKind::Native,
            "nomad" => SchemeKind::Nomad,
            "memtis" => SchemeKind::Memtis,
            "hemem" => SchemeKind::Hemem,
            "osskew" => SchemeKind::OsSkew,
            "hwstatic" => SchemeKind::HwStatic,
            "pipm" => SchemeKind::Pipm,
            "localonly" | "ideal" | "local" => SchemeKind::LocalOnly,
            _ => return Err(ParseSchemeError(s.to_string())),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip() {
        for s in SchemeKind::ALL {
            assert_eq!(s.label().parse::<SchemeKind>().unwrap(), s);
        }
    }

    #[test]
    fn parse_aliases() {
        assert_eq!(
            "ideal".parse::<SchemeKind>().unwrap(),
            SchemeKind::LocalOnly
        );
        assert_eq!("OS-skew".parse::<SchemeKind>().unwrap(), SchemeKind::OsSkew);
        assert!("bogus".parse::<SchemeKind>().is_err());
    }

    #[test]
    fn mechanism_classification() {
        assert!(SchemeKind::Nomad.uses_kernel_migration());
        assert!(SchemeKind::OsSkew.uses_kernel_migration());
        assert!(!SchemeKind::Pipm.uses_kernel_migration());
    }
}
