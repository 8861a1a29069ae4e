//! Pre-decoded per-PC program tables.
//!
//! Everything in a [`DecodedProgram`] is a pure function of the program
//! text and the decode-relevant slice of the machine configuration
//! (I-cache line size and the DHP knobs). [`crate::Simulator::new`] builds
//! one per run and every pipeline stage reads it.

use wishbranch_isa::{insn_addr, AluOp, BranchKind, Gpr, Insn, InsnKind, PredReg, Program, WishType};

use crate::config::MachineConfig;

/// Execution-latency classes, pre-decoded per PC so the issue stage can
/// resolve a µop's latency from a table without re-matching the
/// instruction kind. Everything not named here is single-cycle.
pub(crate) const EC_UNIT: u8 = 0;
pub(crate) const EC_MUL: u8 = 1;
pub(crate) const EC_DIV: u8 = 2;
pub(crate) const EC_LOAD: u8 = 3;
pub(crate) const EC_STORE: u8 = 4;

/// Static per-PC information, pre-decoded once per program — the decoded
/// µop cache.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PcInfo {
    pub(crate) insn: Insn,
    /// I-cache line of this pc's instruction address.
    pub(crate) line: u64,
    pub(crate) is_branch: bool,
    pub(crate) is_cond_branch: bool,
    pub(crate) is_halt: bool,
    pub(crate) is_cmp2: bool,
    pub(crate) is_store: bool,
    /// This µop defines at least one predicate register
    /// (predicate-prediction eligibility).
    pub(crate) defines_pred: bool,
    pub(crate) def_gpr: Option<Gpr>,
    pub(crate) def_preds: [Option<PredReg>; 2],
    pub(crate) gpr_srcs: [Option<Gpr>; 2],
    pub(crate) pred_srcs: [Option<PredReg>; 2],
    /// Static part of the select-µop expansion test: a guarded non-branch
    /// µop with a destination.
    pub(crate) select_expandable: bool,
    /// Execution-latency class (`EC_*`).
    pub(crate) exec_class: u8,
}

/// The static part of a DHP guard-injection plan for a conditional branch
/// (everything in the dynamic guard state except the captured condition
/// value, which is architectural and read at fetch).
#[derive(Clone, Copy, Debug)]
pub(crate) struct DhpPlan {
    pub(crate) pred: PredReg,
    pub(crate) negated: bool,
    pub(crate) until: u32,
    pub(crate) then: Option<(u32, u32, Option<u32>)>,
}

/// A program pre-decoded against one machine configuration: per-PC static
/// facts, static DHP hammock plans, and the wish-loop PC set.
#[derive(Clone, Debug)]
pub(crate) struct DecodedProgram {
    /// Pre-decoded static info per pc (same length as the program).
    pub(crate) pcs: Vec<PcInfo>,
    /// Static DHP hammock plans per pc (all `None` unless `dhp_enabled`).
    pub(crate) dhp_plans: Vec<Option<DhpPlan>>,
    /// The pcs of wish-loop branches (the only populated slots of the
    /// per-PC last-prediction buffer — drives the flush-time purge).
    pub(crate) wish_loop_pcs: Vec<u32>,
}

impl DecodedProgram {
    /// Decodes `program` under `cfg`.
    pub(crate) fn build(program: &Program, cfg: &MachineConfig) -> DecodedProgram {
        let n = program.len();
        let line_bytes = cfg.mem.icache.line_bytes as u64;
        let mut d = DecodedProgram {
            pcs: Vec::with_capacity(n),
            dhp_plans: vec![None; n],
            wish_loop_pcs: Vec::new(),
        };
        for pc in 0..n as u32 {
            let insn = *program.get(pc).expect("pc < program.len()");
            let def_preds = insn.def_preds();
            let is_branch = insn.is_branch();
            let info = PcInfo {
                insn,
                line: insn_addr(pc) / line_bytes,
                is_branch,
                is_cond_branch: insn.is_conditional_branch(),
                is_halt: matches!(insn.kind, InsnKind::Halt),
                is_cmp2: matches!(insn.kind, InsnKind::Cmp2 { .. }),
                is_store: matches!(insn.kind, InsnKind::Store { .. }),
                defines_pred: def_preds[0].is_some(),
                def_gpr: insn.def_gpr(),
                def_preds,
                gpr_srcs: insn.gpr_srcs(),
                pred_srcs: insn.pred_srcs(),
                select_expandable: insn.guard.is_some()
                    && !is_branch
                    && (insn.def_gpr().is_some() || def_preds[0].is_some()),
                exec_class: match insn.kind {
                    InsnKind::Alu { op: AluOp::Mul, .. } => EC_MUL,
                    InsnKind::Alu { op: AluOp::Div, .. } => EC_DIV,
                    InsnKind::Load { .. } => EC_LOAD,
                    InsnKind::Store { .. } => EC_STORE,
                    _ => EC_UNIT,
                },
            };
            if info.is_cond_branch && insn.wish == Some(WishType::Loop) {
                d.wish_loop_pcs.push(pc);
            }
            if cfg.dhp_enabled && info.is_cond_branch {
                d.dhp_plans[pc as usize] = dhp_plan_static(program, cfg.dhp_max_block, pc, &insn);
            }
            d.pcs.push(info);
        }
        d
    }
}

/// Checks whether the branch at `pc` guards a DHP-eligible hammock and
/// returns the static guard-injection plan. Eligibility: forward branch,
/// arms within `max` µops, arms free of control flow (hardware cannot
/// re-converge across nested branches). Three layouts are recognized,
/// matching what compilers actually emit:
///
/// 1. skip-triangle — `br → J; B…; J:` (guard B);
/// 2. contiguous diamond — `br → T; B…; jmp J; T: C…; J:`;
/// 3. far-taken diamond — `br → T; B…; J: …  T: C…; jmp J` (the taken
///    arm laid out out-of-line, jumping back to the join).
pub(crate) fn dhp_plan_static(program: &Program, max: u32, pc: u32, insn: &Insn) -> Option<DhpPlan> {
    let InsnKind::Branch {
        kind: BranchKind::Cond { pred, sense },
        target,
    } = insn.kind
    else {
        return None;
    };
    let straight = |lo: u32, hi: u32| {
        lo <= hi
            && hi - lo <= max
            && (lo..hi).all(|i| {
                program
                    .get(i)
                    .is_some_and(|x| !x.is_branch() && !matches!(x.kind, InsnKind::Halt))
            })
    };
    if target <= pc + 1 {
        return None;
    }
    // The fall-through arm executes when the branch is NOT taken:
    // guard value = !(pred == sense)  ⇒  (pred, negated = sense).
    // Layout 2: contiguous diamond (trailing jump inside the region).
    if target >= 2 && target - (pc + 1) >= 2 {
        if let Some(last) = program.get(target - 1) {
            if let InsnKind::Branch {
                kind: BranchKind::Uncond,
                target: join,
            } = last.kind
            {
                if join > target && straight(pc + 1, target - 1) && straight(target, join) {
                    return Some(DhpPlan {
                        pred,
                        negated: sense,
                        until: target - 1,
                        then: Some((target, join, None)),
                    });
                }
            }
        }
    }
    // Layout 3: far-taken diamond. Scan the taken arm for its trailing
    // jump back into the fall-through region.
    let mut k = target;
    while k - target <= max {
        let Some(x) = program.get(k) else { break };
        if let InsnKind::Branch { kind, target: join } = x.kind {
            if matches!(kind, BranchKind::Uncond)
                && join > pc
                && join <= target
                && straight(pc + 1, join)
                && straight(target, k)
            {
                return Some(DhpPlan {
                    pred,
                    negated: sense,
                    until: join,
                    then: Some((target, k, Some(join))),
                });
            }
            break;
        }
        if matches!(x.kind, InsnKind::Halt) {
            break;
        }
        k += 1;
    }
    // Layout 1: skip-triangle.
    if straight(pc + 1, target) {
        return Some(DhpPlan {
            pred,
            negated: sense,
            until: target,
            then: None,
        });
    }
    None
}
