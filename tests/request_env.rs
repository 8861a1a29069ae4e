//! Environment-variable precedence of the request builder: explicit
//! request field > environment variable > default. One `#[test]` function
//! on purpose — `std::env::set_var` is process-global, so splitting these
//! cases across tests would race under the parallel test harness.

use wishbranch_core::{
    default_workers, Experiment, FaultKind, FaultPlan, SweepRequest, BATCH_ENV, FAULT_PLAN_ENV,
    WORKERS_ENV,
};

#[test]
fn explicit_beats_env_beats_default() {
    let req = |f: &dyn Fn(&mut SweepRequest)| {
        let mut r = SweepRequest::new(vec![Experiment::Fig10]);
        f(&mut r);
        r
    };

    // --- workers ---------------------------------------------------------
    std::env::remove_var(WORKERS_ENV);
    let hw = default_workers();
    assert!(hw >= 1);
    assert_eq!(req(&|_| {}).resolved_workers(), hw, "default = available parallelism");

    std::env::set_var(WORKERS_ENV, "3");
    assert_eq!(req(&|_| {}).resolved_workers(), 3, "env fills an unset field");
    assert_eq!(
        req(&|r| r.workers = Some(7)).resolved_workers(),
        7,
        "an explicit field beats the env"
    );

    std::env::set_var(WORKERS_ENV, "zero-ish");
    assert_eq!(
        req(&|_| {}).resolved_workers(),
        hw,
        "an unparseable env value falls back to available parallelism"
    );

    // --- fault plan ------------------------------------------------------
    std::env::remove_var(FAULT_PLAN_ENV);
    let plan = req(&|_| {}).resolved_fault_plan().expect("no env, no plan");
    assert_eq!(plan.iter().count(), 0, "default is an empty plan");

    std::env::set_var(FAULT_PLAN_ENV, "panic@3,budget@8");
    let plan = req(&|_| {}).resolved_fault_plan().expect("env plan parses");
    let faults: Vec<(u64, FaultKind)> = plan.iter().collect();
    assert_eq!(faults, [(3, FaultKind::Panic), (8, FaultKind::Budget)]);

    let explicit = FaultPlan::parse("abort@1").unwrap();
    let plan = req(&|r| r.fault_plan = Some(explicit.clone()))
        .resolved_fault_plan()
        .expect("explicit plan wins");
    let faults: Vec<(u64, FaultKind)> = plan.iter().collect();
    assert_eq!(faults, [(1, FaultKind::Abort)], "explicit field beats the env");

    // An explicit *empty* plan still beats the env — that is how a
    // respawned worker resumes without re-injecting the fault that killed
    // its predecessor.
    let plan = req(&|r| r.fault_plan = Some(FaultPlan::new()))
        .resolved_fault_plan()
        .expect("explicit empty plan wins");
    assert_eq!(plan.iter().count(), 0);

    std::env::set_var(FAULT_PLAN_ENV, "panic@nope");
    let err = req(&|_| {})
        .resolved_fault_plan()
        .expect_err("a malformed env plan is a typed error, not a silent ignore");
    assert_eq!(err.kind(), "bad_field");
    assert!(
        err.to_string().contains(FAULT_PLAN_ENV),
        "the error names the env var: {err}"
    );

    // --- batch width (deprecated) ---------------------------------------
    // The variable is no longer read: even a malformed value leaves the
    // runner buildable.
    std::env::remove_var(FAULT_PLAN_ENV);
    std::env::set_var(BATCH_ENV, "lots");
    assert!(req(&|_| {}).build_runner().is_ok(), "WISHBRANCH_BATCH is ignored");

    std::env::remove_var(WORKERS_ENV);
    std::env::remove_var(FAULT_PLAN_ENV);
    std::env::remove_var(BATCH_ENV);
}
