//! Component micro-benchmark: where do the ~125 ns/ref go?
//!
//! Times, in isolation and with best-of-N repeats to beat machine noise:
//!   1. stream generation only (`next_record` through the vtable, as
//!      the simulator's run loop calls it),
//!   2. an L1-shaped `SetAssoc` lookup/insert loop over a real line trace,
//!   3. a `CoreModel` advance/reserve/issue loop,
//!   4. the full `run_one` for reference.
//!
//! Scratch tool for perf work; not part of the reproduced figures.

use std::time::Instant;

use pipm_cache::SetAssoc;
use pipm_core::run_one;
use pipm_cpu::{AccessStream, CoreModel};
use pipm_types::{AccessClass, CoreConfig, LineAddr, SchemeKind, SystemConfig};
use pipm_workloads::{Workload, WorkloadParams};

const REFS_PER_CORE: u64 = 100_000;
const REPEATS: usize = 5;

fn main() {
    let mut cfg = SystemConfig::experiment_scale();
    let params = WorkloadParams {
        refs_per_core: REFS_PER_CORE,
        seed: 7,
    };
    let ncores = cfg.total_cores() as u64;
    let total = REFS_PER_CORE * ncores;

    // ---- 1. generation only ----------------------------------------
    let mut best_ns = f64::INFINITY;
    let mut chk = 0u64;
    for _ in 0..REPEATS {
        let mut streams = Workload::Bfs.streams(&mut cfg, &params);
        let t0 = Instant::now();
        let mut c = 0u64;
        for s in &mut streams {
            while let Some(r) = s.next_record() {
                c = c.wrapping_add(r.addr.raw());
            }
        }
        let ns = t0.elapsed().as_nanos() as f64;
        chk ^= c;
        best_ns = best_ns.min(ns);
    }
    println!(
        "gen-only           : {:7.1} ns/ref  (chk {:x})",
        best_ns / total as f64,
        chk
    );

    // ---- 2. L1-shaped SetAssoc over a real line trace ---------------
    // Pre-generate one core's line sequence, then replay through a
    // 32-set x 8-way cache: lookup, insert on miss (as the L1 does).
    let mut streams = Workload::Bfs.streams(&mut cfg, &params);
    let mut lines: Vec<LineAddr> = Vec::with_capacity(REFS_PER_CORE as usize);
    let s0 = &mut streams[0];
    while let Some(r) = s0.next_record() {
        lines.push(r.addr.line());
    }
    let mut best_ns = f64::INFINITY;
    let mut chk = 0u64;
    for _ in 0..REPEATS {
        let mut l1: SetAssoc<LineAddr, bool> = SetAssoc::new(32, 8);
        let t0 = Instant::now();
        let mut hits = 0u64;
        for &l in &lines {
            if l1.lookup(l).is_some() {
                hits += 1;
            } else {
                l1.insert(l, false);
            }
        }
        let ns = t0.elapsed().as_nanos() as f64;
        chk ^= hits;
        best_ns = best_ns.min(ns);
    }
    println!(
        "l1-setassoc        : {:7.1} ns/ref  (hits {})",
        best_ns / lines.len() as f64,
        chk
    );

    // ---- 3. CoreModel loop ------------------------------------------
    let mut best_ns = f64::INFINITY;
    let mut chk = 0u64;
    for _ in 0..REPEATS {
        let mut core = CoreModel::new(&CoreConfig::default());
        let t0 = Instant::now();
        for i in 0..REFS_PER_CORE {
            core.advance_compute(3);
            let is_write = i % 4 == 0;
            core.reserve_slot(is_write, &mut |_c, _n| {});
            let now = core.clock();
            core.issue(now + 4, AccessClass::L1Hit, is_write);
        }
        let ns = t0.elapsed().as_nanos() as f64;
        chk ^= core.clock();
        best_ns = best_ns.min(ns);
    }
    println!(
        "coremodel          : {:7.1} ns/ref  (clk {})",
        best_ns / REFS_PER_CORE as f64,
        chk
    );

    // ---- 2b. devdir-shaped probes: SetAssoc vs a bare Vec per set ---
    // 32768 sets x 16 ways, sparsely occupied (~64K entries), random
    // probe mix like the device directory sees: lookup / insert / remove.
    // The baseline has no statistics or set mask, so the gap between the
    // rows is what `SetAssoc`'s bookkeeping costs.
    {
        struct VecPerSet {
            sets: Vec<Vec<(u64, u64, u64)>>, // (key, meta, last_use)
            tick: u64,
        }
        impl VecPerSet {
            fn probe(&mut self, key: u64, op: u64) -> u64 {
                let s = (key & 32767) as usize;
                self.tick += 1;
                let tick = self.tick;
                let set = &mut self.sets[s];
                match op {
                    0 => {
                        if let Some(e) = set.iter_mut().find(|e| e.0 == key) {
                            e.2 = tick;
                            e.1
                        } else {
                            0
                        }
                    }
                    1 => {
                        if let Some(e) = set.iter_mut().find(|e| e.0 == key) {
                            e.1 = key;
                            e.2 = tick;
                        } else if set.len() < 16 {
                            if set.capacity() == 0 {
                                set.reserve_exact(16);
                            }
                            set.push((key, key, tick));
                        } else {
                            let v = set
                                .iter()
                                .enumerate()
                                .min_by_key(|(_, e)| e.2)
                                .map(|(i, _)| i)
                                .unwrap();
                            set.swap_remove(v);
                            set.push((key, key, tick));
                        }
                        0
                    }
                    _ => {
                        if let Some(i) = set.iter().position(|e| e.0 == key) {
                            set.swap_remove(i).1
                        } else {
                            0
                        }
                    }
                }
            }
        }
        // Deterministic probe sequence over a 64K-line working set.
        let mut seq = Vec::with_capacity(1_000_000);
        let mut x = 0x9e3779b97f4a7c15u64;
        for _ in 0..1_000_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            seq.push((x % 65536, (x >> 20) % 3));
        }
        let mut best_base = f64::INFINITY;
        let mut best_new = f64::INFINITY;
        let mut c_base = 0u64;
        let mut c_new = 0u64;
        for _ in 0..REPEATS {
            let mut base = VecPerSet {
                sets: (0..32768).map(|_| Vec::new()).collect(),
                tick: 0,
            };
            let t0 = Instant::now();
            let mut c = 0u64;
            for &(k, op) in &seq {
                c = c.wrapping_add(base.probe(k, op));
            }
            best_base = best_base.min(t0.elapsed().as_nanos() as f64);
            c_base = c;

            let mut new: SetAssoc<u64, u64> = SetAssoc::new(32768, 16);
            let t0 = Instant::now();
            let mut c = 0u64;
            for &(k, op) in &seq {
                c = c.wrapping_add(match op {
                    0 => new.lookup(k).copied().unwrap_or(0),
                    1 => {
                        new.insert(k, k);
                        0
                    }
                    _ => new.invalidate(k).unwrap_or(0),
                });
            }
            best_new = best_new.min(t0.elapsed().as_nanos() as f64);
            c_new = c;
        }
        println!(
            "devdir-vec-per-set : {:7.1} ns/op  (chk {c_base:x})",
            best_base / seq.len() as f64
        );
        println!(
            "devdir-setassoc    : {:7.1} ns/op  (chk {c_new:x})",
            best_new / seq.len() as f64
        );
    }

    // ---- 3b. System-level path isolation ----------------------------
    // All-L1-hit run: every core spins on one private line, so after the
    // first touch the whole run is the L1-hit path + drive loop.
    // Then a private-miss run cycling 4096 lines/core: L1 misses that hit
    // the LLC or local DRAM, no shared-scheme machinery.
    use pipm_core::System;
    use pipm_cpu::TraceRecord as TR;
    use pipm_types::{Addr, HostId};
    for (name, span) in [("sys-all-l1hit", 1u64), ("sys-private-miss", 4096)] {
        let cfg = SystemConfig::experiment_scale();
        let mut best_ns = f64::INFINITY;
        for _ in 0..REPEATS {
            let mut streams: Vec<Box<dyn AccessStream>> = Vec::new();
            for h in 0..cfg.hosts {
                for c in 0..cfg.cores_per_host {
                    let base = Addr::private(HostId::new(h), (c as u64) << 24, &cfg).raw();
                    let recs: Vec<TR> = (0..REFS_PER_CORE)
                        .map(|i| TR::read(3, Addr::new(base + (i % span) * 64)))
                        .collect();
                    streams.push(Box::new(recs.into_iter()));
                }
            }
            let mut sys = System::new(cfg.clone(), SchemeKind::Native);
            let t0 = Instant::now();
            sys.run(streams, REFS_PER_CORE);
            let ns = t0.elapsed().as_nanos() as f64;
            best_ns = best_ns.min(ns);
        }
        println!("{name:<19}: {:7.1} ns/ref", best_ns / total as f64);
    }

    // ---- 4. full run_one --------------------------------------------
    for scheme in [SchemeKind::Native, SchemeKind::Pipm] {
        let mut best_ns = f64::INFINITY;
        let mut cycles = 0;
        for _ in 0..REPEATS {
            let cfg = SystemConfig::experiment_scale();
            let t0 = Instant::now();
            let r = run_one(Workload::Bfs, scheme, cfg, &params);
            let ns = t0.elapsed().as_nanos() as f64;
            cycles = r.exec_cycles();
            best_ns = best_ns.min(ns);
        }
        println!(
            "run_one {:<10}: {:7.1} ns/ref  (cycles {cycles})",
            format!("{scheme:?}"),
            best_ns / total as f64,
        );
    }
}
