//! Microbenchmarks of the simulation substrate: event queue throughput,
//! flow churn on a one-group link (a PCIe bus or a local disk),
//! water-filling on a multi-group link (GPFS behind per-node NICs), and
//! the executor's steady churn on both shapes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gpuflow_sim::{Engine, GroupedLink, SimDuration, SimTime};
use std::hint::black_box;

fn bench_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine");
    for &n in &[1_000usize, 10_000, 100_000] {
        g.bench_with_input(BenchmarkId::new("schedule_pop", n), &n, |b, &n| {
            b.iter(|| {
                let mut e: Engine<u64> = Engine::new();
                for i in 0..n as u64 {
                    // Pseudo-random-ish times without RNG cost.
                    e.schedule_at(
                        SimTime::from_nanos(i.wrapping_mul(2654435761) % 1_000_000),
                        i,
                    );
                }
                let mut acc = 0u64;
                while let Some(ev) = e.pop() {
                    acc = acc.wrapping_add(ev.payload);
                }
                black_box(acc)
            })
        });
    }
    g.finish();
}

fn bench_fair_share_link(c: &mut Criterion) {
    let mut g = c.benchmark_group("fair_share_link");
    for &flows in &[8usize, 64, 256] {
        g.bench_with_input(BenchmarkId::new("churn", flows), &flows, |b, &flows| {
            b.iter(|| {
                let mut link = GroupedLink::new(1e9, 1, 1e9);
                let mut now = SimTime::ZERO;
                for i in 0..flows {
                    link.start(now, 0, 1e6 + i as f64, i);
                    now += SimDuration::from_micros(10);
                }
                let mut done = Vec::with_capacity(flows);
                while let Some(t) = link.next_completion(now) {
                    now = t.max(now);
                    link.harvest(now, &mut done);
                }
                black_box(done.len())
            })
        });
    }
    g.finish();
}

fn bench_grouped_link(c: &mut Criterion) {
    let mut g = c.benchmark_group("grouped_link");
    for &flows_per_group in &[4usize, 16] {
        g.bench_with_input(
            BenchmarkId::new("water_filling_8_groups", flows_per_group),
            &flows_per_group,
            |b, &fpg| {
                b.iter(|| {
                    let mut link = GroupedLink::new(8e9, 8, 1.1e9);
                    let mut now = SimTime::ZERO;
                    for group in 0..8 {
                        for i in 0..fpg {
                            link.start(now, group, 1e7 + i as f64, i);
                            now += SimDuration::from_micros(3);
                        }
                    }
                    let mut done = Vec::with_capacity(8 * fpg);
                    while let Some(t) = link.next_completion(now) {
                        now = t.max(now);
                        link.harvest(now, &mut done);
                    }
                    black_box(done.len())
                })
            },
        );
    }
    g.finish();
}

/// The executor's pattern on one link: keep `inflight` flows moving,
/// harvest at each next completion and start one replacement per
/// finished flow, reading the next completion after every membership
/// change. Returns the flows finished once `completions` are reached.
fn steady_churn(link: &mut GroupedLink<usize>, groups: usize, inflight: usize) -> usize {
    const COMPLETIONS: usize = 2_000;
    let size = |i: usize| 1e6 + (i.wrapping_mul(2_654_435_761) % 1_000_000) as f64;
    let mut now = SimTime::ZERO;
    for i in 0..inflight {
        link.start(now, i * 13 % groups, size(i), i);
    }
    let (mut started, mut finished) = (inflight, 0);
    let mut done = Vec::with_capacity(inflight);
    while finished < COMPLETIONS {
        now = link.next_completion(now).expect("flows in flight").max(now);
        done.clear();
        link.harvest(now, &mut done);
        finished += done.len();
        for _ in 0..done.len() {
            link.start(now, started * 13 % groups, size(started), started);
            started += 1;
            black_box(link.next_completion(now));
        }
    }
    finished
}

fn bench_steady_churn(c: &mut Criterion) {
    let mut g = c.benchmark_group("steady_churn");
    for &inflight in &[8usize, 64] {
        // The stencil's shared file system: GPFS behind 32 NICs.
        g.bench_with_input(
            BenchmarkId::new("shared_32_groups", inflight),
            &inflight,
            |b, &n| {
                b.iter(|| black_box(steady_churn(&mut GroupedLink::new(8e9, 32, 1.1e9), 32, n)))
            },
        );
        // A PCIe bus or a local disk.
        g.bench_with_input(BenchmarkId::new("channel", inflight), &inflight, |b, &n| {
            b.iter(|| black_box(steady_churn(&mut GroupedLink::new(1e9, 1, 1e9), 1, n)))
        });
    }
    g.finish();
}

criterion_group!(
    simcore,
    bench_engine,
    bench_fair_share_link,
    bench_grouped_link,
    bench_steady_churn
);
criterion_main!(simcore);
