//! Microbenchmark of the serving layer's per-offer path: one `simulate`
//! call of OO-VR sessions on the common HL2 scene, offered at twice its
//! probed capacity. Half the arrivals are turned away, so every arrival
//! asks the admission budget whether one more session fits, and the cost
//! of that question stays visible beside the EDF loop it feeds.

mod common;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use oovr_gpu::GpuConfig;
use oovr_serve::{capacity, simulate, ServeConfig, ServeScheme};

/// Paced frames per session after the warmup frame.
const FRAMES: u32 = 8;

/// Offered load as a multiple of the probed capacity.
const OVERLOAD: u32 = 2;

fn bench(c: &mut Criterion) {
    let spec = common::spec();
    let gpu = GpuConfig::default();
    let probe = ServeConfig { frames_per_session: FRAMES, ..ServeConfig::default() };
    let cap = capacity(ServeScheme::OoVr, &spec, &gpu, &probe).max(1);
    // A session holds its budget for `FRAMES + 2` intervals, so this
    // arrival gap keeps `OVERLOAD × cap` sessions in flight.
    let cfg = ServeConfig {
        sessions: (OVERLOAD + 1) * cap,
        mean_interarrival: (u64::from(FRAMES + 2) * probe.vsync_cycles / u64::from(OVERLOAD * cap))
            .max(2),
        ..probe
    };
    c.bench_function("serve_simulate_oovr_2x", |b| {
        b.iter(|| black_box(simulate(ServeScheme::OoVr, &spec, &gpu, &cfg, None).rejects.len()))
    });
}

criterion_group! {
    name = benches;
    config = common::criterion();
    targets = bench
}
criterion_main!(benches);
