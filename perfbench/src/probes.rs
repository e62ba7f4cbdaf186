//! In-process timings of the layers below the server, taken in traced runs
//! on the workload's own data by calling each layer's public functions.

use crate::common::{memory_store, Collection, Ctx, Outcome};
use crate::stats;
use crate::trace::span;
use std::sync::Arc;
use std::time::Instant;
use wfdiff_core::{UnitCost, WorkflowDiff};
use wfdiff_pdiffview::{DiffService, RunDescriptor};

fn micros(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e6
}

/// `core.prepare_us`, `core.distance_prepared_us` (cold, no cache),
/// `service.diff_batch_us_per_pair`, `service.pool_scaling` and
/// `io.descriptor_decode_us` on `coll`, using `pairs` as the batch.
pub fn record(ctx: &Ctx, out: &mut Outcome, coll: &Collection, pairs: &[(String, String)]) {
    let tracer = ctx.tracer();
    let engine = WorkflowDiff::new(&coll.spec, &UnitCost);
    let sample: Vec<_> = coll.runs.iter().take(32).collect();
    let prepare: Vec<f64> = sample
        .iter()
        .map(|(_, run)| {
            let started = Instant::now();
            span(tracer, "core.prepare", 0, 0, |_| engine.prepare(run, None))
                .expect("generated runs prepare");
            micros(started)
        })
        .collect();
    out.layer("core.prepare_us", stats::median(&prepare));

    let distance: Vec<f64> = sample
        .windows(2)
        .map(|w| {
            let a = engine.prepare(&w[0].1, None).expect("generated runs prepare");
            let b = engine.prepare(&w[1].1, None).expect("generated runs prepare");
            let started = Instant::now();
            span(tracer, "core.distance_prepared", 0, 0, |_| {
                engine.distance_prepared(&a, &b, None)
            })
            .expect("generated runs differ");
            micros(started)
        })
        .collect();
    out.layer("core.distance_prepared_us", stats::median(&distance));

    let batch: Vec<(String, String)> = pairs.iter().take(256).cloned().collect();
    let store = memory_store(&[coll]);
    let timed = |threads: usize| {
        let service = DiffService::builder(Arc::clone(&store)).threads(threads).build();
        let started = Instant::now();
        span(tracer, "service.diff_batch", 0, 0, |_| service.diff_batch(coll.name(), &batch))
            .expect("stored pairs differ");
        micros(started)
    };
    let one = timed(1);
    let pool = timed(ctx.threads);
    out.layer("service.diff_batch_us_per_pair", pool / batch.len().max(1) as f64);
    out.layer("service.pool_scaling", if pool > 0.0 { one / pool } else { 0.0 });

    let decode: Vec<f64> = sample
        .iter()
        .map(|(_, run)| {
            let json = RunDescriptor::from_run(run).to_json();
            let started = Instant::now();
            span(tracer, "io.descriptor_decode", 0, 0, |_| {
                RunDescriptor::from_json(&json).expect("own JSON decodes").to_run(&coll.spec)
            })
            .expect("own descriptors validate");
            micros(started)
        })
        .collect();
    out.layer("io.descriptor_decode_us", stats::median(&decode));
}
