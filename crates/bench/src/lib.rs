//! Shared helpers for the benchmark harness.
//!
//! The regeneration binaries (`table1` … `headline`) print one paper
//! table/figure each; the Criterion benches time the underlying engines.

use codesign::flow::TechStudy;
use codesign::table5::MonitorLengths;

/// Runs (and process-caches) the full six-technology study used by the
/// table binaries.
pub fn studies() -> &'static [TechStudy] {
    use std::sync::OnceLock;
    static CACHE: OnceLock<Vec<TechStudy>> = OnceLock::new();
    CACHE.get_or_init(|| {
        codesign::flow::run_all(MonitorLengths::Routed).expect("full study completes")
    })
}

/// Snapshot of the observability layer as a JSON value for
/// `BENCH_flow.json`: per-stage call counts and total milliseconds
/// (summed over scenarios, sorted by stage name) plus every kernel work
/// counter. Call it while `techlib::obs` recording is on, right after
/// the run it should describe.
pub fn stages_value() -> serde_json::Value {
    use std::collections::BTreeMap;
    let mut by_stage: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for stat in techlib::obs::aggregate_spans() {
        let entry = by_stage.entry(stat.stage).or_insert((0, 0));
        entry.0 += stat.count;
        entry.1 += stat.total_us;
    }
    let stages = serde_json::Value::Object(
        by_stage
            .into_iter()
            .map(|(stage, (calls, total_us))| {
                (
                    stage.to_string(),
                    serde_json::Value::Object(vec![
                        ("calls".into(), serde_json::Value::from(calls)),
                        (
                            "total_ms".into(),
                            serde_json::Value::from(total_us as f64 / 1e3),
                        ),
                    ]),
                )
            })
            .collect(),
    );
    let counters = serde_json::Value::Object(
        techlib::obs::counter_totals()
            .into_iter()
            .map(|(name, value)| (name.to_string(), serde_json::Value::from(value)))
            .collect(),
    );
    // Per-technology router timing: flow spans carry a
    // `"{scenario}:{tech}"` label, so splitting the `route.nets` rows of
    // the (label, stage) aggregation on the first colon attributes each
    // call to its technology. Unlabeled spans (router benches outside
    // the flow) land under "(unlabeled)".
    let mut by_tech: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for stat in techlib::obs::aggregate_spans() {
        if stat.stage != "route.nets" {
            continue;
        }
        let tech = match stat.label.split_once(':') {
            Some((_, tech)) if !tech.is_empty() => tech.to_string(),
            _ if !stat.label.is_empty() => stat.label.clone(),
            _ => "(unlabeled)".to_string(),
        };
        let entry = by_tech.entry(tech).or_insert((0, 0));
        entry.0 += stat.count;
        entry.1 += stat.total_us;
    }
    let route_nets_by_tech = serde_json::Value::Object(
        by_tech
            .into_iter()
            .map(|(tech, (calls, total_us))| {
                (
                    tech,
                    serde_json::Value::Object(vec![
                        ("calls".into(), serde_json::Value::from(calls)),
                        (
                            "total_ms".into(),
                            serde_json::Value::from(total_us as f64 / 1e3),
                        ),
                    ]),
                )
            })
            .collect(),
    );
    serde_json::Value::Object(vec![
        ("by_stage".into(), stages),
        ("counters".into(), counters),
        ("route_nets_by_tech".into(), route_nets_by_tech),
    ])
}

/// Distils the router's share of a [`stages_value`] snapshot into the
/// `"router"` section of `BENCH_flow.json`: the `route.nets` span totals
/// plus every `router.*` work counter, flattened to bare keys so perf
/// PRs can diff them without digging through the full stage map.
pub fn router_value(stages: &serde_json::Value) -> serde_json::Value {
    let span = |key: &str| {
        stages
            .get("by_stage")
            .and_then(|s| s.get("route.nets"))
            .and_then(|r| r.get(key))
            .cloned()
            .unwrap_or(serde_json::Value::from(0u64))
    };
    let counter = |name: &str| {
        let value = stages
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(serde_json::Value::as_u64)
            .unwrap_or(0);
        serde_json::Value::from(value)
    };
    serde_json::Value::Object(vec![
        ("route_nets_calls".into(), span("calls")),
        ("route_nets_total_ms".into(), span("total_ms")),
        ("nets_routed".into(), counter("router.nets_routed")),
        ("heap_pops".into(), counter("router.heap_pops")),
        (
            "heuristic_prunes".into(),
            counter("router.heuristic_prunes"),
        ),
        ("expansions".into(), counter("router.expansions")),
        (
            "window_fallbacks".into(),
            counter("router.window_fallbacks"),
        ),
        (
            "incremental_reroutes".into(),
            counter("router.incremental_reroutes"),
        ),
        (
            "route_nets_by_tech".into(),
            stages
                .get("route_nets_by_tech")
                .cloned()
                .unwrap_or(serde_json::Value::Null),
        ),
    ])
}

/// Prints a paper-vs-measured header.
pub fn banner(what: &str) {
    println!("==================================================================");
    println!("{what}");
    println!("==================================================================");
}

#[cfg(test)]
mod tests {
    #[test]
    fn banner_does_not_panic() {
        super::banner("smoke");
    }

    #[test]
    fn router_value_flattens_span_and_counters() {
        let stages: serde_json::Value = serde_json::from_str(
            r#"{
                "by_stage": {"route.nets": {"calls": 5, "total_ms": 123.5}},
                "counters": {
                    "router.nets_routed": 530,
                    "router.heap_pops": 9001,
                    "router.heuristic_prunes": 11,
                    "router.window_fallbacks": 3
                },
                "route_nets_by_tech": {
                    "Glass 2.5D": {"calls": 1, "total_ms": 20.0}
                }
            }"#,
        )
        .unwrap();
        let r = super::router_value(&stages);
        assert_eq!(r.get("route_nets_calls").and_then(|v| v.as_u64()), Some(5));
        assert_eq!(r.get("nets_routed").and_then(|v| v.as_u64()), Some(530));
        assert_eq!(r.get("heap_pops").and_then(|v| v.as_u64()), Some(9001));
        assert_eq!(r.get("heuristic_prunes").and_then(|v| v.as_u64()), Some(11));
        // Counters of the retired batch router are gone from the section.
        for retired in ["batch_rounds", "bucket_pops", "conflict_reroutes"] {
            assert!(r.get(retired).is_none(), "{retired} still reported");
        }
        // Counters absent from the snapshot report zero, not null.
        assert_eq!(r.get("expansions").and_then(|v| v.as_u64()), Some(0));
        // The per-tech map passes through intact.
        assert_eq!(
            r.get("route_nets_by_tech")
                .and_then(|m| m.get("Glass 2.5D"))
                .and_then(|t| t.get("calls"))
                .and_then(|v| v.as_u64()),
            Some(1)
        );
    }

    #[test]
    fn stages_value_attributes_route_nets_to_technologies() {
        // Record a labeled route.nets span the way the flow does and
        // check the per-tech aggregation splits the scenario prefix off.
        techlib::obs::enable();
        techlib::obs::reset();
        {
            let _label = techlib::obs::enter_label(Some(std::sync::Arc::from("paper:Glass 2.5D")));
            let _span = techlib::obs::span("route.nets");
        }
        let v = super::stages_value();
        let by_tech = v.get("route_nets_by_tech").expect("per-tech map present");
        assert_eq!(
            by_tech
                .get("Glass 2.5D")
                .and_then(|t| t.get("calls"))
                .and_then(|c| c.as_u64()),
            Some(1)
        );
        techlib::obs::reset();
    }
}
