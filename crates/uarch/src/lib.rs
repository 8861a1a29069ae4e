//! # wishbranch-uarch
//!
//! The cycle-level out-of-order superscalar core of Table 2, with full
//! predication support and the wish-branch hardware of §3.5:
//!
//! * 8-wide fetch that follows the branch predictors, stops at the first
//!   predicted-taken branch, and fetches at most three conditional branches
//!   per cycle;
//! * a configurable-depth front end (default 30 stages ⇒ ≥30-cycle
//!   misprediction penalty), 512-entry ROB, 8-wide issue/retire;
//! * C-style conditional-expression predication (§2.1) or the select-µop
//!   mechanism (§5.3.3), selected by [`PredMechanism`];
//! * the wish-branch front-end mode FSM (Fig. 8), the predicate-dependency
//!   elimination buffer (§3.5.3), and the wish-loop early/late/no-exit
//!   recovery logic (§3.5.4);
//! * oracle knobs ([`OracleConfig`]) for the paper's NO-DEPEND,
//!   NO-DEPEND+NO-FETCH and PERFECT-CBP experiments (Fig. 2) and for the
//!   perfect confidence estimator (Figs. 10/12);
//! * two studied extensions: *dynamic hammock predication* (the §6.1
//!   hardware-only alternative, [`MachineConfig::dhp_enabled`]) and the
//!   §3.2 specialized biasable wish-loop predictor
//!   ([`MachineConfig::wish_loop_predictor`]).
//!
//! ## Methodology: speculative front-end emulator
//!
//! The simulator is execution-driven. A *speculative emulator* holds the
//! architectural state along the fetched path: every fetched µop (correct
//! path or wrong path) is functionally executed at fetch time with an undo
//! log, so wrong-path instructions have real values, real load addresses,
//! and real branch outcomes. Fetch direction comes from the predictors —
//! the emulator is *forced* to follow fetch — and a pipeline flush unwinds
//! the undo log back to the mispredicted branch. This is strictly stronger
//! than the paper's Pin-based wrong-path traces. At `halt`, the retired
//! state must equal [`wishbranch_isa::exec::Machine`]'s — the test suite
//! enforces it for every binary variant.
//!
//! # Example
//!
//! ```
//! use wishbranch_uarch::{MachineConfig, Simulator};
//! use wishbranch_isa::{Insn, Program, Gpr, Operand, AluOp};
//!
//! let prog = Program::from_insns(vec![
//!     Insn::mov_imm(Gpr::new(1), 2),
//!     Insn::alu(AluOp::Add, Gpr::new(1), Gpr::new(1), Operand::imm(3)),
//!     Insn::halt(),
//! ]);
//! let mut sim = Simulator::new(&prog, MachineConfig::default());
//! let res = sim.run().expect("halts");
//! assert_eq!(res.final_regs[1], 5);
//! assert!(res.stats.cycles > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod core;
mod decode;
mod emu;
mod stats;
pub mod trace;

pub use config::{MachineConfig, OracleConfig, PredMechanism};
pub use core::{SimError, SimResult, Simulator};
pub use stats::{CycleAccounting, HotSiteCounts, SimStats, WishClassCounts};
pub use trace::{render_trace, TraceEvent, TraceKind};
