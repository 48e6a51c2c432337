//! End-to-end campaign throughput: how fast a simulated measurement day
//! runs. These are the numbers that bound full-scale `reproduce_all`.

use criterion::{criterion_group, criterion_main, Criterion};
use satiot_core::prelude::*;
use satiot_terrestrial::campaign::{TerrestrialCampaign, TerrestrialConfig};

/// A one-day passive campaign over the given sites.
fn passive_day(sites: &[&str]) -> PassiveConfig {
    let mut cfg = PassiveConfig {
        max_days: 1.0,
        ..Default::default()
    };
    cfg.sites.retain(|s| sites.contains(&s.code));
    cfg
}

fn bench_campaigns(c: &mut Criterion) {
    let opts = RunOptions::default();
    let mut group = c.benchmark_group("campaigns");
    group.sample_size(10);

    group.bench_function("passive_hk_1day", |b| {
        let serial = opts.with_threads(Some(1));
        b.iter(|| {
            PassiveCampaign::new(passive_day(&["HK"]))
                .run(&serial)
                .unwrap()
        })
    });

    // The sweep-pool payoff: the same three-site day, sharded one
    // *(site × satellite)* prediction task at a time across the work
    // queue. The cache is cleared inside each iteration so it measures
    // a cold-cache sweep.
    group.bench_function("passive_multisite_pool", |b| {
        b.iter(|| {
            satiot_core::sweep::clear();
            PassiveCampaign::new(passive_day(&["HK", "GZ", "SH"]))
                .run(&opts)
                .unwrap()
        })
    });

    // Warm-cache repeat of the pooled sweep: what every campaign after
    // the first costs inside `reproduce_all` and the ablation binaries
    // (prediction amortised away; only simulation remains).
    group.bench_function("passive_multisite_pool_warm", |b| {
        b.iter(|| {
            PassiveCampaign::new(passive_day(&["HK", "GZ", "SH"]))
                .run(&opts)
                .unwrap()
        })
    });

    group.bench_function("active_1day", |b| {
        b.iter(|| {
            ActiveCampaign::new(ActiveConfig::quick(1.0))
                .run(&opts)
                .unwrap()
        })
    });

    group.bench_function("terrestrial_30day", |b| {
        b.iter(|| {
            TerrestrialCampaign::new(TerrestrialConfig {
                days: 30.0,
                ..Default::default()
            })
            .run()
            .unwrap()
        })
    });

    group.finish();
}

criterion_group!(benches, bench_campaigns);
criterion_main!(benches);
