//! Workload identities (Table 1) and their behavioural specifications.

use std::fmt;
use std::str::FromStr;

/// The thirteen evaluated workloads (Table 1 of the paper).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Workload {
    /// GAPBS single-source shortest paths (Kron graph).
    Sssp,
    /// GAPBS breadth-first search.
    Bfs,
    /// GAPBS PageRank.
    Pr,
    /// GAPBS connected components.
    Cc,
    /// GAPBS betweenness centrality.
    Bc,
    /// GAPBS triangle counting.
    Tc,
    /// XSBench Monte Carlo neutron transport kernel.
    Xsbench,
    /// PARSEC streamcluster.
    Streamcluster,
    /// PARSEC fluidanimate.
    Fluidanimate,
    /// PARSEC canneal.
    Canneal,
    /// PARSEC bodytrack.
    Bodytrack,
    /// Silo TPC-C (default mix).
    Tpcc,
    /// Silo YCSB (read:write 4:1).
    Ycsb,
}

/// Top-level knobs shared by all workloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct WorkloadParams {
    /// Memory references generated per core.
    pub refs_per_core: u64,
    /// Master seed; per-core streams derive distinct sub-seeds.
    pub seed: u64,
}

impl WorkloadParams {
    /// Quick configuration used by tests and the default harness scale
    /// (400 K references per core; override with the `PIPM_SCALE`
    /// environment variable in the harness binaries).
    pub fn quick(seed: u64) -> Self {
        WorkloadParams {
            refs_per_core: 400_000,
            seed,
        }
    }
}

impl Default for WorkloadParams {
    fn default() -> Self {
        WorkloadParams::quick(0x5157)
    }
}

/// Behavioural specification driving [`SyntheticStream`].
///
/// All probability knobs are per memory reference. Among shared-data
/// references the generator first tries the globally hot region
/// (`global_hot_prob`), then the host's own partition (`affinity`), and
/// falls back to a uniform access over the whole shared space.
///
/// [`SyntheticStream`]: crate::SyntheticStream
#[derive(Clone, PartialEq, Debug)]
pub(crate) struct Spec {
    /// Which workload this spec models.
    pub kind: Workload,
    /// Scaled shared footprint in bytes (paper footprint ÷ 512).
    pub footprint_bytes: u64,
    /// Fraction of references that are stores.
    pub write_fraction: f64,
    /// Fraction of references to per-core private data (stack, locals).
    pub private_fraction: f64,
    /// Size of each core's private working set in bytes.
    pub private_bytes: u64,
    /// Among shared references: probability of targeting the host's own
    /// partition (after the global-hot draw fails).
    pub affinity: f64,
    /// Probability that a *store* is redirected to the host's own
    /// partition regardless of the read mix (transactions write their own
    /// warehouse, graph kernels write their own rank/frontier arrays).
    pub write_affinity: f64,
    /// Among shared references: probability of targeting the globally hot
    /// region shared by every host.
    pub global_hot_prob: f64,
    /// Size of the globally hot region in bytes.
    pub global_hot_bytes: u64,
    /// Mean sequential run length (in cache lines) for partition accesses.
    pub run_lines: u32,
    /// Fraction of the partition that forms the current hot window.
    pub hot_fraction: f64,
    /// Fraction of the partition the streaming scan sweeps per phase (the
    /// per-iteration working set of the kernel's sequential arrays; scans
    /// wrap within this window so repeated sweeps expose reuse).
    pub scan_fraction: f64,
    /// Probability that a new run starts in the hot window (vs streaming).
    pub hot_prob: f64,
    /// Zipf skew for database-style workloads (`None` = partition runs).
    pub zipf_theta: Option<f64>,
    /// For zipf workloads: probability a partition access targets the
    /// index working set (B-tree internals, hash directories) — modelled
    /// with the hot-window machinery — instead of a zipf record draw.
    pub index_prob: f64,
    /// Mean consecutive references to the same cache line (word-granular
    /// accesses within a line; raises L1 reuse as in real code).
    pub line_repeats: u32,
    /// Mean non-memory instructions between references.
    pub nonmem_mean: u32,
    /// References per phase before the hot window rotates.
    pub phase_refs: u64,
}

impl Workload {
    /// All workloads in Table 1 order.
    pub const ALL: [Workload; 13] = [
        Workload::Sssp,
        Workload::Bfs,
        Workload::Pr,
        Workload::Cc,
        Workload::Bc,
        Workload::Tc,
        Workload::Xsbench,
        Workload::Streamcluster,
        Workload::Fluidanimate,
        Workload::Canneal,
        Workload::Bodytrack,
        Workload::Tpcc,
        Workload::Ycsb,
    ];

    /// Display label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            Workload::Sssp => "SSSP",
            Workload::Bfs => "BFS",
            Workload::Pr => "PR",
            Workload::Cc => "CC",
            Workload::Bc => "BC",
            Workload::Tc => "TC",
            Workload::Xsbench => "XSBench",
            Workload::Streamcluster => "streamcluster",
            Workload::Fluidanimate => "fluidanimate",
            Workload::Canneal => "canneal",
            Workload::Bodytrack => "bodytrack",
            Workload::Tpcc => "TPC-C",
            Workload::Ycsb => "YCSB",
        }
    }

    /// Benchmark suite (Table 1).
    pub fn suite(self) -> &'static str {
        match self {
            Workload::Sssp
            | Workload::Bfs
            | Workload::Pr
            | Workload::Cc
            | Workload::Bc
            | Workload::Tc => "GAPBS",
            Workload::Xsbench => "XSBench",
            Workload::Streamcluster
            | Workload::Fluidanimate
            | Workload::Canneal
            | Workload::Bodytrack => "PARSEC",
            Workload::Tpcc | Workload::Ycsb => "Silo",
        }
    }

    /// Memory footprint reported in Table 1, in GB.
    pub fn paper_footprint_gb(self) -> u64 {
        match self {
            Workload::Sssp
            | Workload::Bfs
            | Workload::Pr
            | Workload::Cc
            | Workload::Bc
            | Workload::Tc => 48,
            Workload::Xsbench => 42,
            Workload::Streamcluster => 18,
            Workload::Fluidanimate => 10,
            Workload::Canneal => 12,
            Workload::Bodytrack => 8,
            Workload::Tpcc => 24,
            Workload::Ycsb => 15,
        }
    }

    /// One-line description (Table 1).
    pub fn description(self) -> &'static str {
        match self {
            Workload::Sssp => "Single-Source Shortest Paths",
            Workload::Bfs => "Breadth-first Search",
            Workload::Pr => "Compute the PageRank score",
            Workload::Cc => "Connected components",
            Workload::Bc => "Betweenness centrality",
            Workload::Tc => "Triangle Counting",
            Workload::Xsbench => "Monte Carlo neutron transport kernel",
            Workload::Streamcluster => "Data stream clustering",
            Workload::Fluidanimate => "Fluid simulation",
            Workload::Canneal => "Annealing simulation",
            Workload::Bodytrack => "Annealed particle filter",
            Workload::Tpcc => "Transaction processing (default mix)",
            Workload::Ycsb => "Key-value store (R:W 4:1)",
        }
    }

    /// The scaled footprint used by the generators: paper GB ÷ 256, with a
    /// 48 MB floor so every footprint exceeds the 32 MB of aggregate LLC
    /// and every per-host partition exceeds one host's 8 MB LLC.
    pub fn scaled_footprint_bytes(self) -> u64 {
        (self.paper_footprint_gb() * (1 << 30) / 256).max(48 << 20)
    }

    /// Behavioural specification for this workload.
    ///
    /// The parameters encode the qualitative structure the paper reports:
    /// graph kernels have strong per-host partition locality with a small
    /// shared boundary region; XSBench is read-dominated random lookup;
    /// PARSEC codes range from streaming (streamcluster) to random
    /// read-modify-write (canneal); the databases are zipfian with weak
    /// host affinity and heavier writes.
    pub(crate) fn spec(self) -> Spec {
        let footprint = self.scaled_footprint_bytes();
        let base = Spec {
            kind: self,
            footprint_bytes: footprint,
            write_fraction: 0.1,
            private_fraction: 0.3,
            private_bytes: 256 << 10,
            affinity: 0.9,
            write_affinity: 0.95,
            global_hot_prob: 0.08,
            global_hot_bytes: footprint / 64,
            run_lines: 16,
            hot_fraction: 0.04,
            scan_fraction: 0.02,
            hot_prob: 0.75,
            zipf_theta: None,
            index_prob: 0.0,
            line_repeats: 4,
            nonmem_mean: 16,
            phase_refs: 300_000,
        };
        match self {
            Workload::Sssp => Spec {
                write_fraction: 0.08,
                affinity: 0.93,
                global_hot_prob: 0.05,
                run_lines: 12,
                hot_prob: 0.78,
                ..base
            },
            Workload::Bfs => Spec {
                write_fraction: 0.12,
                affinity: 0.88,
                global_hot_prob: 0.07,
                run_lines: 8,
                hot_prob: 0.55,
                ..base
            },
            Workload::Pr => Spec {
                write_fraction: 0.15,
                affinity: 0.94,
                global_hot_prob: 0.04,
                run_lines: 32,
                hot_prob: 0.86,
                ..base
            },
            Workload::Cc => Spec {
                write_fraction: 0.12,
                affinity: 0.90,
                run_lines: 10,
                ..base
            },
            Workload::Bc => Spec {
                write_fraction: 0.15,
                affinity: 0.84,
                global_hot_prob: 0.10,
                run_lines: 8,
                hot_prob: 0.5,
                ..base
            },
            Workload::Tc => Spec {
                write_fraction: 0.02,
                affinity: 0.82,
                global_hot_prob: 0.12,
                run_lines: 6,
                hot_prob: 0.45,
                nonmem_mean: 22,
                ..base
            },
            Workload::Xsbench => Spec {
                line_repeats: 3,
                write_fraction: 0.01,
                private_fraction: 0.35,
                affinity: 0.80,
                global_hot_prob: 0.08,
                run_lines: 4,
                hot_fraction: 0.05,
                hot_prob: 0.6,
                nonmem_mean: 28,
                ..base
            },
            Workload::Streamcluster => Spec {
                line_repeats: 8,
                write_fraction: 0.05,
                affinity: 0.92,
                global_hot_prob: 0.06,
                run_lines: 48,
                hot_prob: 0.35,
                nonmem_mean: 26,
                ..base
            },
            Workload::Fluidanimate => Spec {
                line_repeats: 6,
                write_fraction: 0.35,
                write_affinity: 0.85,
                private_fraction: 0.35,
                affinity: 0.86,
                global_hot_prob: 0.10, // boundary cells shared with neighbours
                run_lines: 16,
                hot_prob: 0.6,
                nonmem_mean: 26,
                ..base
            },
            Workload::Canneal => Spec {
                line_repeats: 2,
                write_fraction: 0.30,
                write_affinity: 0.88,
                affinity: 0.75,
                global_hot_prob: 0.06,
                run_lines: 2,
                hot_fraction: 0.12,
                hot_prob: 0.6,
                nonmem_mean: 19,
                ..base
            },
            Workload::Bodytrack => Spec {
                write_fraction: 0.20,
                private_fraction: 0.5,
                affinity: 0.78,
                global_hot_prob: 0.10,
                run_lines: 10,
                nonmem_mean: 30,
                ..base
            },
            Workload::Tpcc => Spec {
                line_repeats: 5,
                write_fraction: 0.40,
                private_fraction: 0.4,
                affinity: 0.84, // warehouse affinity
                write_affinity: 0.92,
                global_hot_prob: 0.08,
                run_lines: 4,
                hot_fraction: 0.05,
                hot_prob: 0.75,
                zipf_theta: Some(0.80),
                index_prob: 0.5,
                nonmem_mean: 26,
                ..base
            },
            Workload::Ycsb => Spec {
                line_repeats: 4,
                write_fraction: 0.20, // R:W 4:1
                private_fraction: 0.35,
                affinity: 0.80,
                write_affinity: 0.92,
                global_hot_prob: 0.08,
                run_lines: 2,
                hot_fraction: 0.04,
                hot_prob: 0.8,
                zipf_theta: Some(0.99),
                index_prob: 0.45,
                nonmem_mean: 26,
                ..base
            },
        }
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Error returned when parsing an unknown workload name.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseWorkloadError(String);

impl fmt::Display for ParseWorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown workload name `{}`", self.0)
    }
}

impl std::error::Error for ParseWorkloadError {}

impl FromStr for Workload {
    type Err = ParseWorkloadError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let norm = s.to_ascii_lowercase().replace(['-', '_'], "");
        for w in Workload::ALL {
            if w.label().to_ascii_lowercase().replace('-', "") == norm {
                return Ok(w);
            }
        }
        Err(ParseWorkloadError(s.to_string()))
    }
}
