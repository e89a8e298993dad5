//! Deterministic fault injection through the whole parallel flow.
//!
//! For every named fault site (`techlib::faults::SITES` covers the six
//! stage boundaries plus the two numeric kernels) this binary proves the
//! tentpole contract:
//!
//! 1. arming the site makes [`run_all_in`] return a **typed** `FlowError`
//!    (no panic, no abort), and the parallel error is exactly the error
//!    the sequential reference reports (first failing input in
//!    `PACKAGED` order);
//! 2. failures are never memoized: after disarming, the flow reruns from
//!    scratch and serializes byte-identically to the pre-fault baseline.
//!
//! Each site is armed with `faults::scoped`, so it fires only on the
//! test's thread and in the pool tasks the flow hands out from it:
//! every site is reached on threads that inherit the caller's scope.
//! Everything lives in one `#[test]` so the sites share one baseline
//! study.

use codesign::flow::{run_all_in, run_all_sequential, run_tech_in};
use codesign::table5::MonitorLengths;
use codesign::{FlowError, StudyContext};
use techlib::faults;
use techlib::spec::InterposerKind;

/// Which flow-level error each armed site must surface as.
fn expected(site: &str, err: &FlowError) -> bool {
    match site {
        "partition.split" => matches!(err, FlowError::Netlist(netlist::NetlistError::EmptySide)),
        "chiplet.place" => {
            matches!(err, FlowError::InvalidConfig { reason } if reason.contains("infeasible"))
        }
        "router.escape" => *err == FlowError::Unroutable { net: 0 },
        "extract.channels" => {
            matches!(err, FlowError::Extraction { reason } if reason.contains("injected"))
        }
        "si.link" | "circuit.lu" => *err == FlowError::Singular { pivot: 0 },
        "thermal.solve" | "thermal.sor" => {
            *err == FlowError::NoConvergence {
                stage: "thermal SOR",
                iterations: 0,
            }
        }
        other => panic!("unknown fault site {other}"),
    }
}

#[test]
fn every_fault_site_surfaces_as_a_typed_error_and_never_poisons_the_cache() {
    let ctx = StudyContext::paper();
    let baseline =
        serde_json::to_string(&run_all_in(&ctx, MonitorLengths::Routed).unwrap()).unwrap();

    for &site in faults::SITES {
        // Clear the context's store so sites that live *inside*
        // stored computations (partitioning, routing, chiplet placement,
        // the SOR loop) are actually reached instead of short-circuited
        // by a store hit.
        ctx.store().clear();
        let guard = faults::scoped([site]);

        let par = run_all_in(&ctx, MonitorLengths::Routed)
            .expect_err(&format!("{site}: armed fault must fail the flow"));
        assert!(expected(site, &par), "{site}: wrong error {par:?}");

        // Error determinism: the parallel fan-out reports the same error
        // the sequential loop does, for the same (first) failing input.
        let seq = run_all_sequential(&ctx, MonitorLengths::Routed)
            .expect_err(&format!("{site}: sequential reference must fail too"));
        assert_eq!(par, seq, "{site}: parallel error diverges from sequential");

        drop(guard);
    }

    // A routing fault is scoped to technologies that route an interposer:
    // the Silicon 3D study (TSV stack, no lateral routing) still
    // completes while `router.escape` is armed.
    ctx.store().clear();
    {
        let _guard = faults::scoped(["router.escape"]);
        let study = run_tech_in(&ctx, InterposerKind::Silicon3D, MonitorLengths::Routed)
            .expect("Silicon 3D does not route, so the router fault must not reach it");
        assert!(study.routing.is_none());
        assert!(
            run_tech_in(&ctx, InterposerKind::Glass25D, MonitorLengths::Routed).is_err(),
            "routed technologies must see the armed router fault"
        );
    }

    // No poisoning: every failure above was returned, not memoized, so a
    // clean rerun reproduces the baseline byte for byte.
    ctx.store().clear();
    let rerun = serde_json::to_string(&run_all_in(&ctx, MonitorLengths::Routed).unwrap()).unwrap();
    assert_eq!(baseline, rerun, "a failed run left stale cached state");
}
