//! The typed sweep-request API (`wishbranch.request/v1`): one validated
//! description of "which experiments, at what scale, on what machine,
//! under which budgets" that both the CLI and the serving surface build
//! their runners from.
//!
//! ## Schema
//!
//! One JSON object:
//!
//! ```json
//! {"schema":"wishbranch.request/v1","tenant":"alice",
//!  "experiments":["fig10","tab4"],"scale":60,"quick":true,
//!  "workers":4,"oracle":false,"fault_plan":"panic@3","train":"B",
//!  "machine":{"window":128,"depth":20},
//!  "compile":{"wish_jump_threshold":5,"wish_loop_body_max":20},
//!  "budgets":{"cycles":100000000,"wall_ms":60000}}
//! ```
//!
//! Only `experiments` is required. Everything else defaults exactly like
//! the CLI flags it mirrors (`scale` 4000, paper machine, no budgets).
//!
//! ## Override precedence
//!
//! A request resolves its worker count and fault plan through one
//! documented precedence chain, the same for local CLI runs and served
//! requests:
//!
//! 1. the explicit request field (`workers` / `fault_plan`), if present;
//! 2. the environment (`WISHBRANCH_WORKERS` / `WISHBRANCH_FAULT_PLAN`);
//! 3. the default (available parallelism / no injected faults).
//!
//! [`SweepRequest::build_runner`] applies the whole request — scale,
//! machine/compile/train overrides, oracle mode, budgets, resolved
//! workers and fault plan — so the engine-facing configuration comes from
//! exactly one place.

use std::time::Duration;

use crate::catalog::Experiment;
use crate::engine::{default_workers, SweepRunner, SweepSummary};
use crate::error::{FaultPlan, JobFailure};
use crate::experiment::ExperimentConfig;
use crate::journal::fnv1a64;
use crate::minijson::JsonValue;
use crate::report::{json_escape, Report};
use wishbranch_workloads::InputSet;

/// Schema tag on every request document.
pub const REQUEST_SCHEMA: &str = "wishbranch.request/v1";

/// Environment variable consulted when a request carries no `fault_plan`
/// (moved here from the CLI binary so served requests honor it too).
pub const FAULT_PLAN_ENV: &str = "WISHBRANCH_FAULT_PLAN";

/// Deprecated: the environment variable that once set the lockstep batch
/// width. The simulator has one core and no batched mode, so the variable
/// is no longer read; the name stays exported for one release so callers
/// that clear or set it keep building.
pub const BATCH_ENV: &str = "WISHBRANCH_BATCH";

/// Per-request execution budgets. Both reuse the engine's typed
/// budget machinery: an exhausted cycle budget surfaces as
/// [`JobError::CycleBudgetExceeded`](crate::JobError::CycleBudgetExceeded)
/// and an exhausted wall budget as
/// [`JobError::WallBudgetExceeded`](crate::JobError::WallBudgetExceeded) —
/// failed cells, never dead sweeps.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Budgets {
    /// Per-job simulated-cycle cap (`MachineConfig::max_cycles`).
    pub cycles: Option<u64>,
    /// Per-job wall-clock cap in milliseconds.
    pub wall_ms: Option<u64>,
}

/// One validated sweep request: the canonical input of both the CLI and
/// the `serve` surface. Construct with [`SweepRequest::new`], deserialize
/// with [`SweepRequest::parse`], serialize with [`SweepRequest::to_json`].
#[derive(Clone, PartialEq, Debug)]
pub struct SweepRequest {
    /// Who is asking (admission control and budget accounting key).
    pub tenant: String,
    /// The experiments to run, in order.
    pub experiments: Vec<Experiment>,
    /// Workload scale (outer iterations per benchmark).
    pub scale: i32,
    /// Use the scaled-down quick machine (clamps scale to 500).
    pub quick: bool,
    /// Explicit worker-thread count; `None` falls back to
    /// `WISHBRANCH_WORKERS`, then available parallelism.
    pub workers: Option<usize>,
    /// Replay every retired stream through the lockstep oracle.
    pub oracle: bool,
    /// Deprecated and ignored: the former lockstep batch width. Still
    /// parsed, validated (`0` is a typed error) and serialized for one
    /// release so existing requests keep working; it changes nothing.
    pub batch: Option<usize>,
    /// Explicit deterministic fault plan; `None` falls back to
    /// [`FAULT_PLAN_ENV`], then no injected faults.
    pub fault_plan: Option<FaultPlan>,
    /// Training-input override (the input the compiler profiles on).
    pub train: Option<InputSet>,
    /// Instruction-window (ROB size) override.
    pub window: Option<usize>,
    /// Pipeline-depth override.
    pub depth: Option<u64>,
    /// Compiler wish-jump threshold N override (§4.2.2).
    pub wish_jump_threshold: Option<usize>,
    /// Compiler wish-loop body-size cap L override (§4.2.2).
    pub wish_loop_body_max: Option<usize>,
    /// Per-job cycle / wall budgets.
    pub budgets: Budgets,
}

/// Why a request was refused. Every variant carries a human-readable
/// message; [`RequestError::kind`] is the stable discriminator the
/// protocol's `rejected` messages carry.
#[derive(Clone, PartialEq, Debug)]
pub enum RequestError {
    /// The document is not valid JSON.
    BadJson(String),
    /// The document parses but is not a `wishbranch.request/v1` object.
    BadSchema(String),
    /// A field is present but malformed (bad type, bad range, bad spec).
    BadField {
        /// The offending field.
        field: String,
        /// What is wrong with it.
        message: String,
    },
    /// The experiment list is empty or names an unknown id.
    UnknownExperiment(String),
    /// The request names no experiments.
    NoExperiments,
}

impl RequestError {
    /// Short stable discriminator (mirrors [`JobError::kind`](crate::JobError::kind)).
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            RequestError::BadJson(_) => "bad_json",
            RequestError::BadSchema(_) => "bad_schema",
            RequestError::BadField { .. } => "bad_field",
            RequestError::UnknownExperiment(_) => "unknown_experiment",
            RequestError::NoExperiments => "no_experiments",
        }
    }
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::BadJson(msg) => write!(f, "request is not valid JSON: {msg}"),
            RequestError::BadSchema(msg) => write!(f, "not a {REQUEST_SCHEMA} document: {msg}"),
            RequestError::BadField { field, message } => {
                write!(f, "bad request field {field:?}: {message}")
            }
            RequestError::UnknownExperiment(id) => {
                let ids: Vec<&str> = Experiment::ALL.iter().map(|e| e.id()).collect();
                write!(f, "unknown experiment {id:?} (have: {})", ids.join(" "))
            }
            RequestError::NoExperiments => write!(f, "request names no experiments"),
        }
    }
}

impl std::error::Error for RequestError {}

fn bad_field(field: &str, message: impl Into<String>) -> RequestError {
    RequestError::BadField {
        field: field.to_string(),
        message: message.into(),
    }
}

impl SweepRequest {
    /// A request for the given experiments with every other field at its
    /// default (tenant `"local"`, scale 4000, paper machine, no budgets).
    #[must_use]
    pub fn new(experiments: Vec<Experiment>) -> SweepRequest {
        SweepRequest {
            tenant: "local".to_string(),
            experiments,
            scale: 4000,
            quick: false,
            workers: None,
            oracle: false,
            batch: None,
            fault_plan: None,
            train: None,
            window: None,
            depth: None,
            wish_jump_threshold: None,
            wish_loop_body_max: None,
            budgets: Budgets::default(),
        }
    }

    /// Validates the request's field ranges (non-empty experiment list,
    /// positive scale and workers).
    ///
    /// # Errors
    ///
    /// The first violated constraint, as a typed [`RequestError`].
    pub fn validate(&self) -> Result<(), RequestError> {
        if self.experiments.is_empty() {
            return Err(RequestError::NoExperiments);
        }
        if self.scale <= 0 {
            return Err(bad_field("scale", "must be a positive integer"));
        }
        if self.workers == Some(0) {
            return Err(bad_field("workers", "must be a positive integer"));
        }
        if self.batch == Some(0) {
            return Err(bad_field("batch", "must be a positive integer"));
        }
        Ok(())
    }

    /// The worker count this request resolves to: the explicit field,
    /// else `WISHBRANCH_WORKERS`, else available parallelism (see the
    /// module-level precedence contract).
    #[must_use]
    pub fn resolved_workers(&self) -> usize {
        self.workers.unwrap_or_else(default_workers)
    }

    /// The fault plan this request resolves to: the explicit field, else
    /// a parsed [`FAULT_PLAN_ENV`], else an empty plan.
    ///
    /// # Errors
    ///
    /// [`RequestError::BadField`] when the environment variable is set
    /// but unparseable (an explicit field never consults it).
    pub fn resolved_fault_plan(&self) -> Result<FaultPlan, RequestError> {
        if let Some(plan) = &self.fault_plan {
            return Ok(plan.clone());
        }
        match std::env::var(FAULT_PLAN_ENV) {
            Ok(spec) => FaultPlan::parse(&spec)
                .map_err(|e| bad_field(FAULT_PLAN_ENV, format!("bad fault plan {spec:?}: {e}"))),
            Err(_) => Ok(FaultPlan::new()),
        }
    }

    /// The [`ExperimentConfig`] this request describes: quick/paper base
    /// at the requested scale, with the train/machine/compile/budget
    /// overrides applied on top.
    #[must_use]
    pub fn experiment_config(&self) -> ExperimentConfig {
        let mut ec = if self.quick {
            ExperimentConfig::quick(self.scale.min(500))
        } else {
            ExperimentConfig::paper(self.scale)
        };
        if let Some(train) = self.train {
            ec.train_input = train;
        }
        if let Some(window) = self.window {
            ec.machine = ec.machine.with_window(window);
        }
        if let Some(depth) = self.depth {
            ec.machine = ec.machine.with_depth(depth);
        }
        if let Some(cycles) = self.budgets.cycles {
            ec.machine = ec.machine.with_max_cycles(cycles);
        }
        if let Some(n) = self.wish_jump_threshold {
            ec.compile.wish_jump_threshold = n;
        }
        if let Some(l) = self.wish_loop_body_max {
            ec.compile.wish_loop_body_max = l;
        }
        ec
    }

    /// Builds the fully configured [`SweepRunner`] for this request:
    /// validated fields, resolved worker count and fault plan, oracle
    /// mode, and the wall budget. This is the one code path that turns a
    /// request into an engine — the CLI and the server both call it.
    ///
    /// # Errors
    ///
    /// [`RequestError`] from [`validate`](Self::validate) or
    /// [`resolved_fault_plan`](Self::resolved_fault_plan).
    pub fn build_runner(&self) -> Result<SweepRunner, RequestError> {
        self.validate()?;
        let fault_plan = self.resolved_fault_plan()?;
        let ec = self.experiment_config();
        let mut runner = SweepRunner::with_workers(&ec, self.resolved_workers());
        runner.set_oracle(self.oracle);
        runner.set_fault_plan(fault_plan);
        runner.set_wall_budget(self.budgets.wall_ms.map(Duration::from_millis));
        Ok(runner)
    }

    /// An FNV-1a-64 fingerprint over the canonical serialized request.
    /// Used to name per-request server state; the *job identity*
    /// fingerprint stays [`SweepRunner::run_fingerprint`].
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        fnv1a64(self.to_json().as_bytes())
    }

    /// Serializes to one canonical `wishbranch.request/v1` object.
    /// Optional fields are omitted when absent, so the output is stable
    /// under a parse → serialize round trip.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"schema\":\"{REQUEST_SCHEMA}\",\"tenant\":\"{}\"",
            json_escape(&self.tenant)
        );
        let ids: Vec<String> = self
            .experiments
            .iter()
            .map(|e| format!("\"{}\"", e.id()))
            .collect();
        out.push_str(&format!(",\"experiments\":[{}]", ids.join(",")));
        out.push_str(&format!(",\"scale\":{}", self.scale));
        out.push_str(&format!(",\"quick\":{}", self.quick));
        if let Some(w) = self.workers {
            out.push_str(&format!(",\"workers\":{w}"));
        }
        out.push_str(&format!(",\"oracle\":{}", self.oracle));
        if let Some(width) = self.batch {
            out.push_str(&format!(",\"batch\":{width}"));
        }
        if let Some(plan) = &self.fault_plan {
            let spec: Vec<String> = plan
                .iter()
                .map(|(i, k)| format!("{}@{i}", k.label()))
                .collect();
            out.push_str(&format!(",\"fault_plan\":\"{}\"", spec.join(",")));
        }
        if let Some(train) = self.train {
            let letter = match train {
                InputSet::A => "A",
                InputSet::B => "B",
                InputSet::C => "C",
            };
            out.push_str(&format!(",\"train\":\"{letter}\""));
        }
        if self.window.is_some() || self.depth.is_some() {
            let mut fields = Vec::new();
            if let Some(w) = self.window {
                fields.push(format!("\"window\":{w}"));
            }
            if let Some(d) = self.depth {
                fields.push(format!("\"depth\":{d}"));
            }
            out.push_str(&format!(",\"machine\":{{{}}}", fields.join(",")));
        }
        if self.wish_jump_threshold.is_some() || self.wish_loop_body_max.is_some() {
            let mut fields = Vec::new();
            if let Some(n) = self.wish_jump_threshold {
                fields.push(format!("\"wish_jump_threshold\":{n}"));
            }
            if let Some(l) = self.wish_loop_body_max {
                fields.push(format!("\"wish_loop_body_max\":{l}"));
            }
            out.push_str(&format!(",\"compile\":{{{}}}", fields.join(",")));
        }
        if self.budgets.cycles.is_some() || self.budgets.wall_ms.is_some() {
            let mut fields = Vec::new();
            if let Some(c) = self.budgets.cycles {
                fields.push(format!("\"cycles\":{c}"));
            }
            if let Some(w) = self.budgets.wall_ms {
                fields.push(format!("\"wall_ms\":{w}"));
            }
            out.push_str(&format!(",\"budgets\":{{{}}}", fields.join(",")));
        }
        out.push('}');
        out
    }

    /// Parses and validates one `wishbranch.request/v1` document.
    ///
    /// # Errors
    ///
    /// A typed [`RequestError`] naming the first problem: malformed JSON,
    /// wrong schema tag, an unknown field, a field of the wrong type or
    /// range, or an unknown experiment id.
    pub fn parse(text: &str) -> Result<SweepRequest, RequestError> {
        let doc = JsonValue::parse(text).map_err(|e| RequestError::BadJson(e.to_string()))?;
        let entries = doc
            .entries()
            .ok_or_else(|| RequestError::BadSchema("document is not an object".into()))?;
        match doc.get("schema").and_then(JsonValue::as_str) {
            Some(REQUEST_SCHEMA) => {}
            Some(other) => {
                return Err(RequestError::BadSchema(format!("schema is {other:?}")));
            }
            None => return Err(RequestError::BadSchema("missing \"schema\" field".into())),
        }
        let mut req = SweepRequest::new(Vec::new());
        for (key, value) in entries {
            match key.as_str() {
                "schema" => {}
                "tenant" => {
                    req.tenant = value
                        .as_str()
                        .ok_or_else(|| bad_field("tenant", "must be a string"))?
                        .to_string();
                }
                "experiments" => {
                    let items = value
                        .as_array()
                        .ok_or_else(|| bad_field("experiments", "must be an array of ids"))?;
                    for item in items {
                        let id = item
                            .as_str()
                            .ok_or_else(|| bad_field("experiments", "ids must be strings"))?;
                        let exp = Experiment::from_id(id)
                            .ok_or_else(|| RequestError::UnknownExperiment(id.to_string()))?;
                        req.experiments.push(exp);
                    }
                }
                "scale" => {
                    req.scale = value
                        .as_i64()
                        .and_then(|v| i32::try_from(v).ok())
                        .ok_or_else(|| bad_field("scale", "must be an integer"))?;
                }
                "quick" => {
                    req.quick = value
                        .as_bool()
                        .ok_or_else(|| bad_field("quick", "must be a boolean"))?;
                }
                "workers" => {
                    req.workers = Some(
                        value
                            .as_u64()
                            .and_then(|v| usize::try_from(v).ok())
                            .ok_or_else(|| bad_field("workers", "must be a non-negative integer"))?,
                    );
                }
                "oracle" => {
                    req.oracle = value
                        .as_bool()
                        .ok_or_else(|| bad_field("oracle", "must be a boolean"))?;
                }
                "batch" => {
                    req.batch = Some(
                        value
                            .as_u64()
                            .and_then(|v| usize::try_from(v).ok())
                            .ok_or_else(|| bad_field("batch", "must be a non-negative integer"))?,
                    );
                }
                "fault_plan" => {
                    let spec = value
                        .as_str()
                        .ok_or_else(|| bad_field("fault_plan", "must be a spec string"))?;
                    req.fault_plan =
                        Some(FaultPlan::parse(spec).map_err(|e| bad_field("fault_plan", e))?);
                }
                "train" => {
                    let label = value
                        .as_str()
                        .ok_or_else(|| bad_field("train", "must be \"A\", \"B\" or \"C\""))?;
                    req.train = Some(parse_input_set(label).ok_or_else(|| {
                        bad_field("train", format!("unknown input set {label:?}"))
                    })?);
                }
                "machine" => {
                    for (mkey, mval) in value
                        .entries()
                        .ok_or_else(|| bad_field("machine", "must be an object"))?
                    {
                        match mkey.as_str() {
                            "window" => {
                                req.window = Some(
                                    mval.as_u64()
                                        .and_then(|v| usize::try_from(v).ok())
                                        .filter(|&v| v > 0)
                                        .ok_or_else(|| {
                                            bad_field("machine.window", "must be a positive integer")
                                        })?,
                                );
                            }
                            "depth" => {
                                req.depth = Some(mval.as_u64().filter(|&v| v > 0).ok_or_else(
                                    || bad_field("machine.depth", "must be a positive integer"),
                                )?);
                            }
                            other => {
                                return Err(bad_field(
                                    &format!("machine.{other}"),
                                    "unknown machine override",
                                ));
                            }
                        }
                    }
                }
                "compile" => {
                    for (ckey, cval) in value
                        .entries()
                        .ok_or_else(|| bad_field("compile", "must be an object"))?
                    {
                        match ckey.as_str() {
                            "wish_jump_threshold" => {
                                req.wish_jump_threshold = Some(
                                    cval.as_u64()
                                        .and_then(|v| usize::try_from(v).ok())
                                        .ok_or_else(|| {
                                            bad_field(
                                                "compile.wish_jump_threshold",
                                                "must be a non-negative integer",
                                            )
                                        })?,
                                );
                            }
                            "wish_loop_body_max" => {
                                req.wish_loop_body_max = Some(
                                    cval.as_u64()
                                        .and_then(|v| usize::try_from(v).ok())
                                        .ok_or_else(|| {
                                            bad_field(
                                                "compile.wish_loop_body_max",
                                                "must be a non-negative integer",
                                            )
                                        })?,
                                );
                            }
                            other => {
                                return Err(bad_field(
                                    &format!("compile.{other}"),
                                    "unknown compile override",
                                ));
                            }
                        }
                    }
                }
                "budgets" => {
                    for (bkey, bval) in value
                        .entries()
                        .ok_or_else(|| bad_field("budgets", "must be an object"))?
                    {
                        match bkey.as_str() {
                            "cycles" => {
                                req.budgets.cycles = Some(bval.as_u64().ok_or_else(|| {
                                    bad_field("budgets.cycles", "must be a non-negative integer")
                                })?);
                            }
                            "wall_ms" => {
                                req.budgets.wall_ms = Some(bval.as_u64().ok_or_else(|| {
                                    bad_field("budgets.wall_ms", "must be a non-negative integer")
                                })?);
                            }
                            other => {
                                return Err(bad_field(
                                    &format!("budgets.{other}"),
                                    "unknown budget",
                                ));
                            }
                        }
                    }
                }
                other => {
                    return Err(bad_field(other, "unknown request field"));
                }
            }
        }
        req.validate()?;
        Ok(req)
    }
}

/// Parses an input-set label (`A`/`B`/`C`, case-insensitive).
#[must_use]
pub fn parse_input_set(label: &str) -> Option<InputSet> {
    match label {
        "A" | "a" => Some(InputSet::A),
        "B" | "b" => Some(InputSet::B),
        "C" | "c" => Some(InputSet::C),
        _ => None,
    }
}

/// The in-process result of a whole request: one [`Report`] per requested
/// experiment plus the engine summary and failure table. This is what the
/// `serve` protocol streams incrementally; [`run_request`] produces it in
/// one call for local use.
#[derive(Clone, Debug)]
pub struct SweepResponse {
    /// One report per experiment, in request order.
    pub reports: Vec<Report>,
    /// Aggregate engine statistics across all experiments.
    pub summary: SweepSummary,
    /// Every failed job, in the order failures were recorded.
    pub failures: Vec<JobFailure>,
    /// Whether the sweep aborted before finishing.
    pub aborted: bool,
}

/// Runs a whole request in-process on one shared runner: every experiment
/// in request order, profile/compile caches shared across them. The CLI's
/// default path, and the bit-identity reference for served runs.
///
/// # Errors
///
/// A typed [`RequestError`] when the request does not validate; job-level
/// failures are *not* errors — they land in
/// [`SweepResponse::failures`].
pub fn run_request(req: &SweepRequest) -> Result<SweepResponse, RequestError> {
    let runner = req.build_runner()?;
    let mut reports = Vec::new();
    for exp in &req.experiments {
        reports.push(exp.run(&runner));
        if runner.aborted() {
            break;
        }
    }
    Ok(SweepResponse {
        reports,
        summary: runner.summary(),
        failures: runner.failures(),
        aborted: runner.aborted(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::FaultKind;

    fn full_request() -> SweepRequest {
        SweepRequest {
            tenant: "alice \"quoted\"".into(),
            experiments: vec![Experiment::Fig10, Experiment::Tab4],
            scale: 60,
            quick: true,
            workers: Some(4),
            oracle: true,
            batch: Some(8),
            fault_plan: Some(
                FaultPlan::new()
                    .inject(3, FaultKind::Panic)
                    .inject(7, FaultKind::Diverge),
            ),
            train: Some(InputSet::C),
            window: Some(128),
            depth: Some(20),
            wish_jump_threshold: Some(9),
            wish_loop_body_max: Some(30),
            budgets: Budgets {
                cycles: Some(1_000_000),
                wall_ms: Some(60_000),
            },
        }
    }

    #[test]
    fn full_request_round_trips() {
        let req = full_request();
        let back = SweepRequest::parse(&req.to_json()).expect("round trip");
        assert_eq!(back, req);
        // Canonical form is a fixed point.
        assert_eq!(back.to_json(), req.to_json());
    }

    #[test]
    fn minimal_request_gets_defaults() {
        let req = SweepRequest::parse(
            "{\"schema\":\"wishbranch.request/v1\",\"experiments\":[\"fig10\"]}",
        )
        .unwrap();
        assert_eq!(req.tenant, "local");
        assert_eq!(req.experiments, vec![Experiment::Fig10]);
        assert_eq!(req.scale, 4000);
        assert!(!req.quick);
        assert_eq!(req.workers, None);
        assert_eq!(req.batch, None);
        assert_eq!(req.budgets, Budgets::default());
    }

    #[test]
    fn typed_errors_name_the_problem() {
        let cases: &[(&str, &str)] = &[
            ("{", "bad_json"),
            ("[1]", "bad_schema"),
            ("{\"schema\":\"wishbranch.report/v1\"}", "bad_schema"),
            (
                "{\"schema\":\"wishbranch.request/v1\",\"experiments\":[\"fig99\"]}",
                "unknown_experiment",
            ),
            ("{\"schema\":\"wishbranch.request/v1\",\"experiments\":[]}", "no_experiments"),
            (
                "{\"schema\":\"wishbranch.request/v1\",\"experiments\":[\"fig10\"],\"scale\":0}",
                "bad_field",
            ),
            (
                "{\"schema\":\"wishbranch.request/v1\",\"experiments\":[\"fig10\"],\"workers\":0}",
                "bad_field",
            ),
            (
                "{\"schema\":\"wishbranch.request/v1\",\"experiments\":[\"fig10\"],\"batch\":0}",
                "bad_field",
            ),
            (
                "{\"schema\":\"wishbranch.request/v1\",\"experiments\":[\"fig10\"],\"bogus\":1}",
                "bad_field",
            ),
            (
                "{\"schema\":\"wishbranch.request/v1\",\"experiments\":[\"fig10\"],\
                 \"fault_plan\":\"explode@1\"}",
                "bad_field",
            ),
        ];
        for (doc, kind) in cases {
            let err = SweepRequest::parse(doc).expect_err(doc);
            assert_eq!(err.kind(), *kind, "{doc}: {err}");
        }
    }

    #[test]
    fn config_applies_overrides() {
        let req = full_request();
        let ec = req.experiment_config();
        assert_eq!(ec.scale, 60);
        assert_eq!(ec.train_input, InputSet::C);
        assert_eq!(ec.machine.rob_size, 128);
        assert_eq!(ec.machine.pipeline_depth, 20);
        assert_eq!(ec.machine.max_cycles, 1_000_000);
        assert_eq!(ec.compile.wish_jump_threshold, 9);
        assert_eq!(ec.compile.wish_loop_body_max, 30);
    }

    #[test]
    fn quick_clamps_scale_like_the_cli() {
        let mut req = SweepRequest::new(vec![Experiment::Fig10]);
        req.quick = true;
        req.scale = 4000;
        assert_eq!(req.experiment_config().scale, 500);
    }

    #[test]
    fn fingerprint_tracks_content() {
        let a = full_request();
        let mut b = a.clone();
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.scale += 1;
        assert_ne!(a.fingerprint(), b.fingerprint());
    }
}
