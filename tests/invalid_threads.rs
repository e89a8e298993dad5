//! A garbage `CODESIGN_THREADS` must surface as a typed configuration
//! error from the flow — not a panic, and not a silent fallback that
//! changes the worker count under the user's feet.
//!
//! This lives in its own test binary: the thread configuration is read
//! and memoized once per process, so the poisoned environment must not
//! leak into any other test.

use codesign::table5::MonitorLengths;
use codesign::{FlowError, StudyContext};

#[test]
fn garbage_codesign_threads_is_a_typed_flow_error() {
    std::env::set_var(techlib::par::THREADS_ENV, "four");

    let err = codesign::flow::run_all_in(&StudyContext::paper(), MonitorLengths::Routed)
        .expect_err("run_all_in must reject a malformed CODESIGN_THREADS");
    assert!(
        matches!(err, FlowError::InvalidConfig { .. }),
        "wrong error: {err:?}"
    );
    let msg = err.to_string();
    assert!(msg.contains("CODESIGN_THREADS"), "{msg}");
    assert!(msg.contains("four"), "{msg}");

    // The strict accessor keeps reporting the same memoized error...
    assert!(techlib::par::try_thread_count().is_err());
    // ...while the lenient one falls back to the default parallelism
    // (with a one-time warning) so diagnostics-only paths keep working.
    assert!(techlib::par::thread_count() >= 1);
}
