//! Per-layer metrics of the simulator crates.
//!
//! Host costs replay a workload's own trace through each crate's public
//! API, outside `System`: the records drained from `Workload::streams`
//! feed private L1s, the L1-miss stream feeds each host's LLC, and the
//! LLC-miss stream feeds DRAM and — for shared lines — the device
//! directory, the fabric and the remap tables. Cores are interleaved
//! round-robin. Each cost is the median of [`REPLAYS`] replays. These
//! isolated costs bound the per-reference time inside `System::run`;
//! they do not partition it.
//!
//! Counts are read from the `SystemStats` of the workload's cells, so
//! they repeat exactly for a given seed.

use crate::metrics::{median, ratio, Metrics};
use crate::sim::Cell;
use pipm_cache::SetAssoc;
use pipm_coherence::{DevState, DeviceDirectory};
use pipm_core::{GlobalRemap, LocalRemap};
use pipm_cpu::{CoreModel, TraceRecord};
use pipm_fabric::{Dir, Topology};
use pipm_mem::Dram;
use pipm_types::{AccessClass, Cycle, HostId, LineAddr, SchemeKind, SystemConfig, SystemStats};
use pipm_workloads::{Workload, WorkloadParams};
use std::hint::black_box;
use std::time::Instant;

/// Replays per workload; each host cost is the median over them.
const REPLAYS: usize = 3;

/// Simulated cycles between successive LLC misses offered to the DRAM
/// and fabric models (their queues need a clock that moves).
const MISS_GAP: Cycle = 16;

/// Host time and operation count of one layer over one replay.
#[derive(Clone, Copy, Default)]
struct Cost {
    ns: f64,
    ops: u64,
}

impl Cost {
    fn time<R>(ops: u64, f: impl FnOnce() -> R) -> (R, Cost) {
        let t = Instant::now();
        let r = black_box(f());
        let ns = t.elapsed().as_nanos() as f64;
        (r, Cost { ns, ops })
    }

    fn add(&mut self, other: Cost) {
        self.ns += other.ns;
        self.ops += other.ops;
    }
}

/// The host-cost metrics, in output order.
const HOST_COSTS: [&str; 9] = [
    "workloads.gen_ns_per_ref",
    "cache.l1_ns_per_probe",
    "cache.llc_ns_per_probe",
    "cpu.core_ns_per_ref",
    "coherence.devdir_ns_per_op",
    "fabric.send_ns",
    "mem.dram_ns_per_access",
    "core.remap.global_ns_per_lookup",
    "core.remap.local_ns_per_lookup",
];

/// One record that left a core's L1 or a host's LLC.
#[derive(Clone, Copy)]
struct Miss {
    host: HostId,
    rec: TraceRecord,
}

/// Replays `workload`'s trace once through every layer, returning one
/// [`Cost`] per entry of [`HOST_COSTS`].
fn replay(workload: Workload, params: &WorkloadParams) -> [Cost; 9] {
    let mut cfg = SystemConfig::experiment_scale();
    let mut streams = workload.streams(&mut cfg, params);
    let cores = cfg.total_cores();
    let per_core = params.refs_per_core as usize;
    let refs = (cores * per_core) as u64;
    let is_shared = |rec: &TraceRecord| rec.addr.is_shared(&cfg);

    let (traces, gen) = Cost::time(refs, || {
        let mut batch = Vec::with_capacity(64);
        streams
            .iter_mut()
            .map(|s| {
                let mut trace = Vec::with_capacity(per_core);
                while s.fill_batch(&mut batch, 64) > 0 {
                    trace.extend_from_slice(&batch);
                }
                trace
            })
            .collect::<Vec<Vec<TraceRecord>>>()
    });
    let len = traces.iter().map(Vec::len).max().unwrap_or(0);
    let host_of = |core: usize| HostId::new(core / cfg.cores_per_host);

    let mut l1: Vec<SetAssoc<LineAddr, ()>> = (0..cores)
        .map(|_| SetAssoc::new(cfg.l1d.sets(), cfg.l1d.ways))
        .collect();
    let mut l1_hit: Vec<Vec<bool>> = vec![Vec::with_capacity(per_core); cores];
    let mut l1_misses = Vec::new();
    let (_, l1_cost) = Cost::time(refs, || {
        for i in 0..len {
            for (c, trace) in traces.iter().enumerate() {
                let Some(rec) = trace.get(i) else { continue };
                let line = rec.addr.line();
                let hit = l1[c].lookup(line).is_some();
                if !hit {
                    l1[c].insert(line, ());
                    l1_misses.push(Miss {
                        host: host_of(c),
                        rec: *rec,
                    });
                }
                l1_hit[c].push(hit);
            }
        }
    });

    let llc_lines = (cfg.host_llc_bytes() / pipm_types::LINE_SIZE) as usize;
    let ways = cfg.llc_per_core.ways;
    let mut llc: Vec<SetAssoc<LineAddr, ()>> = (0..cfg.hosts)
        .map(|_| SetAssoc::new(llc_lines / ways, ways))
        .collect();
    let mut llc_misses = Vec::new();
    let (_, llc_cost) = Cost::time(l1_misses.len() as u64, || {
        for m in &l1_misses {
            let line = m.rec.addr.line();
            if llc[m.host.index()].lookup(line).is_none() {
                llc[m.host.index()].insert(line, ());
                llc_misses.push(*m);
            }
        }
    });

    // Structures are built before each timed loop, so construction
    // (set-up, not per-operation work) stays out of the per-op cost.
    let mut models: Vec<CoreModel> = (0..cores).map(|_| CoreModel::new(&cfg.core)).collect();
    let (_, core_cost) = Cost::time(refs, || {
        let mut stall = |_: AccessClass, _: Cycle| {};
        let (l1_lat, llc_lat) = (cfg.l1d.hit_latency, cfg.llc_per_core.hit_latency);
        let mut clocks = 0;
        for ((trace, hits), core) in traces.iter().zip(&l1_hit).zip(&mut models) {
            for (rec, &hit) in trace.iter().zip(hits) {
                core.advance_compute(rec.nonmem);
                core.reserve_slot(rec.is_write, &mut stall);
                if hit {
                    core.issue(core.clock() + l1_lat, AccessClass::L1Hit, rec.is_write);
                } else {
                    core.reserve_mshr(&mut stall);
                    core.issue(core.clock() + llc_lat, AccessClass::LlcHit, rec.is_write);
                }
            }
            core.drain(&mut stall);
            clocks += core.clock();
        }
        clocks
    });

    let shared: Vec<Miss> = llc_misses
        .iter()
        .copied()
        .filter(|m| is_shared(&m.rec))
        .collect();
    let shared_ops = shared.len() as u64;

    let mut dir = DeviceDirectory::new(&cfg.directory);
    let (_, devdir_cost) = Cost::time(2 * shared_ops, || {
        for m in &shared {
            let line = m.rec.addr.line();
            black_box(dir.lookup(line));
            let recall = if m.rec.is_write {
                dir.update(line, DevState::Modified(m.host))
            } else {
                dir.add_sharer(line, m.host)
            };
            black_box(recall);
        }
        dir.len()
    });

    let mut topo = Topology::new(&cfg);
    let (_, fabric_cost) = Cost::time(2 * shared_ops, || {
        let header = topo.header_bytes();
        let mut now = 0;
        let mut last = 0;
        for m in &shared {
            let dev = topo.device_for_line(m.rec.addr.line());
            let req = topo.send(m.host, dev, Dir::ToDevice, now, header, false);
            last = topo
                .send(
                    m.host,
                    dev,
                    Dir::ToHost,
                    req.at,
                    pipm_types::LINE_SIZE + header,
                    false,
                )
                .at;
            now += MISS_GAP;
        }
        last
    });

    let mut dram = Dram::new(&cfg.local_dram);
    let (_, dram_cost) = Cost::time(llc_misses.len() as u64, || {
        let mut now = 0;
        let mut last = 0;
        for m in &llc_misses {
            last = dram.access(m.rec.addr, now, m.rec.is_write);
            now += MISS_GAP;
        }
        last
    });

    let threshold = cfg.pipm.migration_threshold;
    let mut global = GlobalRemap::new(&cfg.pipm);
    let (_, global_cost) = Cost::time(shared_ops, || {
        let mut fired = 0u64;
        for m in &shared {
            let page = m.rec.addr.page();
            black_box(global.lookup(page));
            fired += u64::from(global.vote(page, m.host, threshold));
        }
        fired
    });

    let capacity_pages = (cfg.local_capacity_bytes / pipm_types::PAGE_SIZE) as usize;
    let mut local: Vec<LocalRemap> = (0..cfg.hosts)
        .map(|_| LocalRemap::new(&cfg.pipm, capacity_pages))
        .collect();
    let (_, local_cost) = Cost::time(shared_ops, || {
        for m in &shared {
            let page = m.rec.addr.page();
            let table = &mut local[m.host.index()];
            black_box(table.lookup(page));
            table.local_access(page);
        }
        local.iter().map(LocalRemap::resident_pages).sum::<usize>()
    });

    [
        gen,
        l1_cost,
        llc_cost,
        core_cost,
        devdir_cost,
        fabric_cost,
        dram_cost,
        global_cost,
        local_cost,
    ]
}

/// Host-cost metrics over the distinct workloads of `cells`: per layer,
/// total ns over total operations across workloads, median of
/// [`REPLAYS`] replays.
pub fn host_costs(cells: &[Cell], params: &WorkloadParams) -> Metrics {
    let mut workloads: Vec<Workload> = Vec::new();
    for c in cells {
        if !workloads.contains(&c.workload) {
            workloads.push(c.workload);
        }
    }
    let per_replay: Vec<[Cost; 9]> = (0..REPLAYS)
        .map(|_| {
            let mut total = [Cost::default(); 9];
            for &w in &workloads {
                for (t, c) in total.iter_mut().zip(replay(w, params)) {
                    t.add(c);
                }
            }
            total
        })
        .collect();
    HOST_COSTS
        .iter()
        .enumerate()
        .map(|(i, &name)| {
            let ns: Vec<f64> = per_replay
                .iter()
                .map(|r| ratio(r[i].ns, r[i].ops as f64))
                .collect();
            (name, median(&ns))
        })
        .collect()
}

/// Deterministic counts from the cells' statistics (`stats[i]` belongs to
/// `cells[i]`). Fractions of LLC misses are over the references that
/// missed both the L1 and the LLC.
pub fn counts(cells: &[Cell], stats: &[SystemStats]) -> Metrics {
    let class = |c: AccessClass| -> f64 { stats.iter().map(|s| s.class_total(c) as f64).sum() };
    let sum = |f: &dyn Fn(&SystemStats) -> u64| -> f64 { stats.iter().map(|s| f(s) as f64).sum() };
    let refs = sum(&|s| s.cores.iter().map(|c| c.mem_refs).sum());
    let l1 = class(AccessClass::L1Hit);
    let llc = class(AccessClass::LlcHit);
    let misses = refs - l1 - llc;
    let local = class(AccessClass::LocalPrivate) + class(AccessClass::LocalShared);
    let ipc: Vec<f64> = stats.iter().map(SystemStats::aggregate_ipc).collect();
    let nomad: Vec<&SystemStats> = cells
        .iter()
        .zip(stats)
        .filter(|(c, _)| c.scheme == SchemeKind::Nomad)
        .map(|(_, s)| s)
        .collect();
    let mgmt: f64 = nomad.iter().map(|s| s.total_mgmt_stall() as f64).sum();
    let core_cycles: f64 = nomad
        .iter()
        .map(|s| s.exec_cycles() as f64 * s.cores.len() as f64)
        .sum();
    vec![
        ("cpu.ipc", ipc.iter().sum::<f64>() / ipc.len() as f64),
        ("cache.l1_hit_frac", ratio(l1, refs)),
        ("cache.llc_hit_frac", ratio(llc, refs - l1)),
        (
            "coherence.forward_frac",
            ratio(class(AccessClass::CxlForward), misses),
        ),
        (
            "coherence.recalls_per_mref",
            ratio(sum(&|s| s.directory_recalls) * 1e6, refs),
        ),
        (
            "fabric.bytes_per_ref",
            ratio(sum(&|s| s.fabric.device_bytes.iter().sum()), refs),
        ),
        ("fabric.switch_hops", sum(&|s| s.fabric.switch_hops)),
        ("mem.cxl_frac", ratio(class(AccessClass::CxlDram), misses)),
        ("mem.local_frac", ratio(local, misses)),
        (
            "core.remap.global_hit_ratio",
            ratio(
                sum(&|s| s.global_remap_hits),
                sum(&|s| s.global_remap_hits + s.global_remap_misses),
            ),
        ),
        (
            "core.remap.local_hit_ratio",
            ratio(
                sum(&|s| s.local_remap_hits),
                sum(&|s| s.local_remap_hits + s.local_remap_misses),
            ),
        ),
        (
            "core.migration.lines_in_per_kref",
            ratio(sum(&|s| s.migration.lines_migrated_in) * 1e3, refs),
        ),
        (
            "core.migration.lines_back_per_kref",
            ratio(sum(&|s| s.migration.lines_migrated_back) * 1e3, refs),
        ),
        (
            "core.migration.inter_host_frac",
            ratio(class(AccessClass::InterHost), misses),
        ),
        ("baselines.mgmt_stall_frac", ratio(mgmt, core_cycles)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{run_cell, LOCAL_CELLS, SHARED_CELLS};

    #[test]
    fn every_host_cost_is_measured() {
        let params = WorkloadParams {
            refs_per_core: 2_000,
            seed: 5,
        };
        let costs = host_costs(&SHARED_CELLS[..1], &params);
        assert_eq!(costs.len(), HOST_COSTS.len());
        for (name, ns) in costs {
            assert!(ns.is_finite() && ns > 0.0, "{name} = {ns}");
        }
    }

    #[test]
    fn local_only_cells_count_no_shared_path_traffic() {
        let params = WorkloadParams {
            refs_per_core: 2_000,
            seed: 5,
        };
        let origin = Instant::now();
        let stats: Vec<SystemStats> = LOCAL_CELLS
            .iter()
            .map(|c| run_cell(c, &params, origin, None).stats.unwrap())
            .collect();
        let counts = counts(&LOCAL_CELLS, &stats);
        let get = |n: &str| counts.iter().find(|(m, _)| *m == n).unwrap().1;
        assert_eq!(get("coherence.forward_frac"), 0.0);
        assert_eq!(get("mem.cxl_frac"), 0.0);
        assert_eq!(get("fabric.bytes_per_ref"), 0.0);
        assert!(get("mem.local_frac") > 0.0);
    }
}
