//! Render kernel bench: one `batch::sweep_json` per call over studies
//! computed once, outside the timed region, reported as µs per call and
//! as ns per output byte.
//!
//! Two bodies: the smoke scenarios (`examples/smoke_scenarios.json`, the
//! body `ci.sh` and the serve tests post) and the six paper studies
//! (`Scenario::paper` for every packaged technology). Each case times
//! `RENDERS` calls one by one after a warm-up call; the line printed per
//! body is the median call. This is the rendering share of a warm
//! `serve` request (the traced `batch.render_ms` layer metric).
//!
//! The `floats` case writes the smoke body's floats, collected once
//! into a `Vec<f64>`, with `serde_json::to_string`, and also reports ns
//! per float: the number-formatting share of a render.
//!
//! Two more cases time the Silicon 2.5D routed layout, the largest
//! stored artifact: its write, and its parse back, text →
//! `InterposerLayout` through `serde_json::from_str_typed` (what every
//! `--cache-dir` disk hit does), then their ratio. Run with
//! `cargo bench -p bench --bench render_kernel`.

use bench::time_calls;
use codesign::batch;
use codesign::context::StudyContext;
use codesign::scenario::scenarios_from_json;
use codesign::Scenario;
use interposer::report::InterposerLayout;
use serde_json::{Number, Value};
use std::hint::black_box;
use techlib::spec::InterposerKind;

/// Calls timed per case.
const RENDERS: usize = 500;

const SMOKE: &str = include_str!(concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../examples/smoke_scenarios.json"
));

fn main() {
    let bodies = [
        (
            "smoke",
            scenarios_from_json(SMOKE).expect("the smoke scenarios parse"),
        ),
        (
            "paper6",
            InterposerKind::PACKAGED.map(Scenario::paper).to_vec(),
        ),
    ];
    let mut smoke_body = String::new();
    for (name, scenarios) in bodies {
        let outcomes = batch::run(&scenarios).expect("the batch runs");
        let body = batch::sweep_json(&scenarios, &outcomes).expect("studies serialize");
        median_call(name, "sweep_json", body.len(), || {
            batch::sweep_json(&scenarios, &outcomes).expect("studies serialize")
        });
        if name == "smoke" {
            smoke_body = body;
        }
    }

    let mut floats = Vec::new();
    collect_floats(
        &serde_json::from_str(&smoke_body).expect("the smoke body parses"),
        &mut floats,
    );
    let text = serde_json::to_string(&floats).expect("floats serialize");
    let write = median_call("floats", "write", text.len(), || {
        serde_json::to_string(black_box(&floats)).expect("floats serialize")
    });
    println!(
        "{:<40} {:>8.1} ns/float  ({} floats)",
        "render_kernel/floats",
        write * 1e9 / floats.len() as f64,
        floats.len()
    );

    let layout = StudyContext::paper()
        .layout(InterposerKind::Silicon25D)
        .expect("the Silicon 2.5D layout routes");
    let text = serde_json::to_string(&*layout).expect("the layout serializes");
    let write = median_call("layout_write", "write", text.len(), || {
        serde_json::to_string(&*layout).expect("the layout serializes")
    });
    let parse = median_call("layout_parse", "parse", text.len(), || {
        serde_json::from_str_typed::<InterposerLayout>(black_box(&text)).expect("the layout parses")
    });
    println!(
        "{:<40} {:>8.2} parse/write",
        "render_kernel/layout",
        parse / write
    );
}

/// Appends every float in `value` to `out`, in document order.
fn collect_floats(value: &Value, out: &mut Vec<f64>) {
    match value {
        Value::Number(Number::F64(x)) => out.push(*x),
        Value::Array(items) => items.iter().for_each(|v| collect_floats(v, out)),
        Value::Object(pairs) => pairs.iter().for_each(|(_, v)| collect_floats(v, out)),
        _ => {}
    }
}

/// Times `call` `RENDERS` times under `id` and prints the median call
/// in µs and in ns per byte of `bytes`. Returns the median in seconds.
fn median_call<T>(id: &str, op: &str, bytes: usize, call: impl FnMut() -> T) -> f64 {
    let mut calls = time_calls(RENDERS, call);
    calls.sort_unstable();
    let median = calls[calls.len() / 2].as_secs_f64();
    println!(
        "{:<40} {:>8.1} us/{op}  {:>6.2} ns/byte  ({} bytes, median of {})",
        format!("render_kernel/{id}"),
        median * 1e6,
        median * 1e9 / bytes as f64,
        bytes,
        calls.len(),
    );
    median
}
