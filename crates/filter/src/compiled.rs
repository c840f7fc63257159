//! The compile tier: lowering filter programs to specialized forms at
//! insert time.
//!
//! The interpreter in [`crate::vm`] is the *specification* of filter
//! semantics; this module is what the demux table executes. Every
//! program is lowered once, when it is installed, to one of two
//! artifacts:
//!
//! - a **fast-path recognizer** for the canonical session-filter shape
//!   emitted by [`crate::compile::compile_endpoint`] — a conjunction of
//!   (possibly masked) 16-bit field compares ending in a constant
//!   verdict. The recognizer executes as a handful of direct slice
//!   reads with no operand stack and no per-run allocation;
//! - a **direct-threaded fallback** for every other program: the
//!   instruction stream pre-decoded into a dense op array executed over
//!   a fixed-size stack, again with no per-run allocation.
//!
//! Both artifacts reproduce the interpreter's observable behavior
//! *exactly* — the accept/reject verdict, the executed-instruction
//! count (`steps`, which the kernel charges to virtual time and the
//! census), and the abnormal-termination cause (out-of-bounds reads,
//! stack underflow, budget exhaustion). `tests/filter_equivalence.rs`
//! enforces this with seeded differential fuzzing; any divergence is a
//! bug in this module, never in the interpreter.

use crate::vm::{Binop, FilterOutcome, Insn, Program, VmError, MAX_STEPS};
use std::cell::Cell;

thread_local! {
    /// Artifact executions on this thread; see [`CompiledFilter::runs`].
    static RUNS: Cell<u64> = const { Cell::new(0) };
}

/// One lowered field comparison of the fast-path recognizer:
/// `word(off) & mask == value`, else the filter rejects. Eight bytes: a
/// table holds 7–10 per filter, a chain has ≤ [`MAX_STEPS`] = 256 steps.
#[derive(Clone, Copy, Debug)]
struct FieldCheck {
    /// Byte offset of the big-endian word in the packet.
    off: u16,
    /// Mask applied before comparing (`0xFFFF` for unmasked checks).
    mask: u16,
    /// Required value after masking.
    value: u16,
    /// Instructions the interpreter executes before this check's group
    /// starts (for exact `steps` reporting).
    steps_before: u8,
    /// Instructions in this check's group: 3 unmasked, 5 masked.
    steps_len: u8,
}

/// A pre-decoded instruction for the direct-threaded fallback. Mirrors
/// [`Insn`] with packet offsets widened to `usize` at compile time.
#[derive(Clone, Copy, Debug)]
enum ThreadedOp {
    Lit(u16),
    Word(usize),
    Bin(Binop),
    COr(Binop),
    CAnd(Binop),
    Ret,
}

#[derive(Debug)]
enum Tier {
    /// Conjunctive field-compare chain with a constant verdict.
    Recognizer {
        checks: Box<[FieldCheck]>,
        /// Verdict when every check passes (the lowered tail's literal).
        tail_accept: bool,
        /// Instructions in the whole program (the `steps` of a full
        /// pass, literal and `Ret` included).
        total_steps: usize,
    },
    /// Pre-decoded general program.
    Threaded { ops: Box<[ThreadedOp]> },
}

/// A filter program lowered at insert time. See the module docs for the
/// equivalence contract.
#[derive(Debug)]
pub struct CompiledFilter {
    tier: Tier,
}

impl CompiledFilter {
    /// Lowers a program. Never fails: programs outside the recognizable
    /// shape fall back to the direct-threaded tier.
    pub fn compile(program: &Program) -> CompiledFilter {
        if let Some(tier) = try_lower_recognizer(program) {
            return CompiledFilter { tier };
        }
        let ops = program
            .insns
            .iter()
            .map(|insn| match *insn {
                Insn::PushLit(v) => ThreadedOp::Lit(v),
                Insn::PushWord(off) => ThreadedOp::Word(usize::from(off)),
                Insn::Op(op) => ThreadedOp::Bin(op),
                Insn::CombineOr(op) => ThreadedOp::COr(op),
                Insn::CombineAnd(op) => ThreadedOp::CAnd(op),
                Insn::Ret => ThreadedOp::Ret,
            })
            .collect();
        CompiledFilter {
            tier: Tier::Threaded { ops },
        }
    }

    /// True when the program lowered to the fast-path recognizer (the
    /// canonical session-filter shape).
    pub fn is_fast_path(&self) -> bool {
        matches!(self.tier, Tier::Recognizer { .. })
    }

    /// Test hook: artifacts run on this thread so far. The table-level
    /// oracles difference it around `classify` to prove the CSPF closed
    /// form, not a silent fall-back to the scan, gave the answer.
    #[doc(hidden)]
    pub fn runs() -> u64 {
        RUNS.with(Cell::get)
    }

    /// Runs the compiled artifact against a packet. Returns exactly
    /// what [`Program::run`] returns on the same inputs.
    pub fn run(&self, packet: &[u8]) -> FilterOutcome {
        RUNS.with(|runs| runs.set(runs.get() + 1));
        match &self.tier {
            Tier::Recognizer {
                checks,
                tail_accept,
                total_steps,
            } => run_recognizer(checks, *tail_accept, *total_steps, packet),
            Tier::Threaded { ops } => run_threaded(ops, packet),
        }
    }
}

fn accepted(steps: usize) -> FilterOutcome {
    FilterOutcome {
        accepted: true,
        steps,
        error: None,
    }
}

fn rejected(steps: usize, error: Option<VmError>) -> FilterOutcome {
    FilterOutcome {
        accepted: false,
        steps,
        error,
    }
}

/// Attempts the fast-path lowering: a sequence of
/// `PushWord off; PushLit v; CombineAnd(Eq)` or
/// `PushWord off; PushLit m; Op(And); PushLit v; CombineAnd(Eq)`
/// groups terminated by `PushLit k; Ret`. This is precisely the shape
/// [`crate::compile::compile_endpoint`] emits. Programs longer than
/// [`MAX_STEPS`] are never lowered this way, so the recognizer can
/// ignore the step budget (a conjunctive chain executes each
/// instruction at most once, in order).
fn try_lower_recognizer(program: &Program) -> Option<Tier> {
    let insns = &program.insns;
    if insns.len() > MAX_STEPS {
        return None;
    }
    let mut checks = Vec::new();
    let mut i = 0usize;
    loop {
        match insns[i..] {
            [Insn::PushWord(off), Insn::PushLit(v), Insn::CombineAnd(Binop::Eq), ..] => {
                checks.push(FieldCheck {
                    off,
                    mask: 0xFFFF,
                    value: v,
                    steps_before: u8::try_from(i).ok()?,
                    steps_len: 3,
                });
                i += 3;
            }
            [Insn::PushWord(off), Insn::PushLit(m), Insn::Op(Binop::And), Insn::PushLit(v), Insn::CombineAnd(Binop::Eq), ..] =>
            {
                checks.push(FieldCheck {
                    off,
                    mask: m,
                    value: v,
                    steps_before: u8::try_from(i).ok()?,
                    steps_len: 5,
                });
                i += 5;
            }
            [Insn::PushLit(k), Insn::Ret] => {
                return Some(Tier::Recognizer {
                    checks: checks.into_boxed_slice(),
                    tail_accept: k != 0,
                    total_steps: i + 2,
                });
            }
            _ => return None,
        }
    }
}

/// Executes a lowered conjunctive chain. Steps reporting matches the
/// interpreter instruction for instruction: an out-of-bounds packet
/// read stops at the group's `PushWord` (one instruction in), a failed
/// compare stops at the group's `CombineAnd` (the whole group), and a
/// full pass executes every instruction including the verdict literal
/// and `Ret`.
fn run_recognizer(
    checks: &[FieldCheck],
    tail_accept: bool,
    total_steps: usize,
    packet: &[u8],
) -> FilterOutcome {
    for c in checks {
        let (off, before) = (usize::from(c.off), usize::from(c.steps_before));
        let Some(word) = packet.get(off..off + 2) else {
            return rejected(before + 1, Some(VmError::OutOfBounds));
        };
        if u16::from_be_bytes([word[0], word[1]]) & c.mask != c.value {
            return rejected(before + usize::from(c.steps_len), None);
        }
    }
    if tail_accept {
        accepted(total_steps)
    } else {
        rejected(total_steps, None)
    }
}

/// Executes a pre-decoded program over a fixed-size operand stack. The
/// loop structure is a transliteration of [`Program::run`]; the wins
/// are the dense op array, the pre-widened offsets, and the absence of
/// the per-run heap allocation for the stack. The stack cannot
/// overflow: each instruction pushes at most one word and at most
/// [`MAX_STEPS`] instructions execute.
fn run_threaded(ops: &[ThreadedOp], packet: &[u8]) -> FilterOutcome {
    let mut stack = [0u16; MAX_STEPS];
    let mut sp = 0usize;
    let mut steps = 0usize;
    for op in ops {
        steps += 1;
        if steps > MAX_STEPS {
            return rejected(steps, Some(VmError::StepBudget));
        }
        match *op {
            ThreadedOp::Lit(v) => {
                stack[sp] = v;
                sp += 1;
            }
            ThreadedOp::Word(off) => {
                if off + 2 > packet.len() {
                    return rejected(steps, Some(VmError::OutOfBounds));
                }
                stack[sp] = u16::from_be_bytes([packet[off], packet[off + 1]]);
                sp += 1;
            }
            ThreadedOp::Bin(op) => {
                if sp < 2 {
                    return rejected(steps, Some(VmError::StackUnderflow));
                }
                sp -= 1;
                stack[sp - 1] = op.apply(stack[sp - 1], stack[sp]);
            }
            ThreadedOp::COr(op) => {
                if sp < 2 {
                    return rejected(steps, Some(VmError::StackUnderflow));
                }
                sp -= 2;
                if op.apply(stack[sp], stack[sp + 1]) != 0 {
                    return accepted(steps);
                }
            }
            ThreadedOp::CAnd(op) => {
                if sp < 2 {
                    return rejected(steps, Some(VmError::StackUnderflow));
                }
                sp -= 2;
                if op.apply(stack[sp], stack[sp + 1]) == 0 {
                    return rejected(steps, None);
                }
            }
            ThreadedOp::Ret => {
                let accept = sp > 0 && stack[sp - 1] != 0;
                return if accept {
                    accepted(steps)
                } else {
                    rejected(steps, None)
                };
            }
        }
    }
    let accept = sp > 0 && stack[sp - 1] != 0;
    if accept {
        accepted(steps)
    } else {
        rejected(steps, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{catch_all_ip, compile_endpoint, EndpointSpec};
    use crate::compile::{KEY_FIELDS, PREFIX_FIELDS};
    use psd_wire::IpProto;
    use std::net::Ipv4Addr;

    fn outcomes_match(p: &Program, packet: &[u8]) {
        let interpreted = p.run(packet);
        let compiled = CompiledFilter::compile(p).run(packet);
        assert_eq!(
            interpreted, compiled,
            "tiers diverge on {p:?} over {packet:02x?}"
        );
    }

    #[test]
    fn session_filters_lower_to_the_fast_path() {
        let spec = EndpointSpec::connected(
            IpProto::Udp,
            Ipv4Addr::new(10, 0, 0, 2),
            7000,
            Ipv4Addr::new(10, 0, 0, 1),
            1234,
        );
        let p = compile_endpoint(&spec);
        assert!(CompiledFilter::compile(&p).is_fast_path());
        let wild = compile_endpoint(&EndpointSpec::unconnected(
            IpProto::Tcp,
            Ipv4Addr::LOCALHOST,
            80,
        ));
        assert!(CompiledFilter::compile(&wild).is_fast_path());
    }

    #[test]
    fn field_check_stays_eight_bytes() {
        // A 4128-filter table holds ~32 k of these; at the former 24
        // bytes that is half a megabyte of psdbench's peak heap.
        assert_eq!(std::mem::size_of::<FieldCheck>(), 8);
    }

    /// The CSPF closed form prices frames from `compile.rs`'s layout
    /// table without running anything, so the table must *be* what the
    /// lowering produces: same offsets, masks and values, in the same
    /// order, at the same cumulative step counts, for both spec shapes.
    /// A compiler change that is not mirrored fails here, loudly,
    /// instead of mis-charging virtual time.
    #[test]
    fn lowering_both_spec_shapes_yields_exactly_the_layout_table() {
        let (local, remote) = (Ipv4Addr::new(10, 1, 2, 3), Ipv4Addr::new(172, 16, 9, 8));
        for spec in [
            EndpointSpec::unconnected(IpProto::Tcp, local, 80),
            EndpointSpec::connected(IpProto::Udp, local, 7000, remote, 1234),
        ] {
            let (words, len) = spec.key();
            let fields = PREFIX_FIELDS
                .into_iter()
                .chain(KEY_FIELDS.into_iter().zip(words).take(len));
            let mut before = 0;
            let mut want = Vec::new();
            for (field, value) in fields {
                want.push((field.off, field.mask, value, before, field.steps()));
                before += field.steps();
            }
            let compiled = CompiledFilter::compile(&compile_endpoint(&spec));
            let Tier::Recognizer {
                checks,
                tail_accept,
                total_steps,
            } = compiled.tier
            else {
                panic!("{spec:?} did not lower to the recognizer");
            };
            let got: Vec<_> = checks
                .iter()
                .map(|c| {
                    let (before, len) = (usize::from(c.steps_before), usize::from(c.steps_len));
                    (c.off, c.mask, c.value, before, len)
                })
                .collect();
            assert_eq!(got, want, "{spec:?}");
            assert!(tail_accept);
            assert_eq!(total_steps, spec.accept_steps(), "{spec:?}");
        }
    }

    #[test]
    fn catch_all_falls_back_to_threaded() {
        assert!(!CompiledFilter::compile(&catch_all_ip()).is_fast_path());
    }

    #[test]
    fn recognizer_reports_interpreter_steps_on_every_path() {
        let spec = EndpointSpec::unconnected(IpProto::Udp, Ipv4Addr::new(10, 0, 0, 2), 7000);
        let p = compile_endpoint(&spec);
        // Accept, mid-chain mismatch, OOB at various truncations.
        let mut frame = vec![0u8; 64];
        frame[12] = 0x08; // IPv4 ethertype
        frame[14] = 0x45;
        frame[23] = 17; // UDP
        frame[30..34].copy_from_slice(&[10, 0, 0, 2]);
        frame[36..38].copy_from_slice(&7000u16.to_be_bytes());
        outcomes_match(&p, &frame);
        frame[37] = 0; // wrong port
        outcomes_match(&p, &frame);
        frame[12] = 0; // wrong ethertype: first group fails
        outcomes_match(&p, &frame);
        for len in 0..40 {
            outcomes_match(&p, &vec![0u8; len]);
        }
    }

    #[test]
    fn threaded_matches_interpreter_on_edge_programs() {
        let programs = [
            Program::default(),
            Program::new(vec![Insn::Ret]),
            Program::new(vec![Insn::Op(Binop::Eq)]),
            Program::new(vec![Insn::CombineOr(Binop::Lt)]),
            Program::new(vec![Insn::PushLit(1), Insn::CombineAnd(Binop::Eq)]),
            Program::new(vec![Insn::PushLit(1); MAX_STEPS + 5]),
            Program::new(vec![Insn::PushWord(0xFFFF), Insn::Ret]),
            catch_all_ip(),
        ];
        for p in &programs {
            for packet in [&[][..], &[1, 2, 3], &[0u8; 64]] {
                outcomes_match(p, packet);
            }
        }
    }

    #[test]
    fn long_conjunctive_chains_are_not_lowered_past_the_budget() {
        // A recognizer-shaped program longer than the budget must take
        // the threaded tier so budget exhaustion still reproduces.
        let mut insns = Vec::new();
        for _ in 0..(MAX_STEPS / 3 + 1) {
            insns.push(Insn::PushWord(0));
            insns.push(Insn::PushLit(0));
            insns.push(Insn::CombineAnd(Binop::Eq));
        }
        insns.push(Insn::PushLit(1));
        insns.push(Insn::Ret);
        let p = Program::new(insns);
        let c = CompiledFilter::compile(&p);
        assert!(!c.is_fast_path());
        outcomes_match(&p, &[0u8; 4]);
        outcomes_match(&p, &[1u8; 4]);
    }

    #[test]
    fn constant_false_tail_is_recognized() {
        // `PushLit 0; Ret` after the checks: always rejects, but only
        // after charging the whole chain (catch-alls end this way).
        let p = Program::new(vec![
            Insn::PushWord(0),
            Insn::PushLit(0x0102),
            Insn::CombineAnd(Binop::Eq),
            Insn::PushLit(0),
            Insn::Ret,
        ]);
        let c = CompiledFilter::compile(&p);
        assert!(c.is_fast_path());
        outcomes_match(&p, &[1, 2, 3, 4]);
        outcomes_match(&p, &[9, 9]);
    }
}
