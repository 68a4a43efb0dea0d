//! Microbenchmarks of the simulation substrate: event queue throughput,
//! flow churn on a one-group link (a PCIe bus or a local disk) and
//! water-filling on a multi-group link (GPFS behind per-node NICs).

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
                    link.start(now, 0, 1e6 + i as f64);
                    now += SimDuration::from_micros(10);
                }
                let mut done = 0usize;
                while let Some(t) = link.next_completion(now) {
                    now = t.max(now);
                    done += link.harvest(now).len();
                }
                black_box(done)
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
                            link.start(now, group, 1e7 + i as f64);
                            now += SimDuration::from_micros(3);
                        }
                    }
                    let mut done = 0usize;
                    while let Some(t) = link.next_completion(now) {
                        now = t.max(now);
                        done += link.harvest(now).len();
                    }
                    black_box(done)
                })
            },
        );
    }
    g.finish();
}

criterion_group!(
    simcore,
    bench_engine,
    bench_fair_share_link,
    bench_grouped_link
);
criterion_main!(simcore);
