//! The filter virtual machine.
//!
//! A small stack machine over 16-bit big-endian words of the packet,
//! modeled on the CMU/Stanford Packet Filter that Mach's `NETF`
//! interface exposed. Programs are data, not code: execution is
//! bounds-checked (a reference beyond the packet simply fails the
//! filter, as in CSPF) and budgeted, so a malformed or malicious
//! program can neither read out of bounds nor run unboundedly.

/// Upper bound on executed instructions per packet.
pub const MAX_STEPS: usize = 256;

/// Binary operations on the top two stack words.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Binop {
    /// Equality.
    Eq,
    /// Inequality.
    Ne,
    /// Unsigned less-than.
    Lt,
    /// Unsigned less-or-equal.
    Le,
    /// Unsigned greater-than.
    Gt,
    /// Unsigned greater-or-equal.
    Ge,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
}

impl Binop {
    pub(crate) fn apply(self, a: u16, b: u16) -> u16 {
        match self {
            Binop::Eq => u16::from(a == b),
            Binop::Ne => u16::from(a != b),
            Binop::Lt => u16::from(a < b),
            Binop::Le => u16::from(a <= b),
            Binop::Gt => u16::from(a > b),
            Binop::Ge => u16::from(a >= b),
            Binop::And => a & b,
            Binop::Or => a | b,
            Binop::Xor => a ^ b,
            Binop::Add => a.wrapping_add(b),
            Binop::Sub => a.wrapping_sub(b),
        }
    }
}

/// One filter instruction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Insn {
    /// Push a literal word.
    PushLit(u16),
    /// Push the packet word at the given *byte* offset (big-endian pair;
    /// out-of-bounds fails the filter).
    PushWord(u16),
    /// Pop two words, push `a op b` (`a` pushed first).
    Op(Binop),
    /// Pop two words; if `a op b` is nonzero, accept immediately (the
    /// CSPF "COR" combinator), else continue.
    CombineOr(Binop),
    /// Pop two words; if `a op b` is zero, reject immediately ("CAND"),
    /// else continue.
    CombineAnd(Binop),
    /// Stop: accept if the top of stack is nonzero (an empty stack
    /// rejects).
    Ret,
}

/// A filter program.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Program {
    /// The instructions, executed in order.
    pub insns: Vec<Insn>,
}

impl Program {
    /// Creates a program from instructions.
    pub fn new(insns: Vec<Insn>) -> Program {
        Program { insns }
    }

    /// Runs the program against a packet. Never panics on any input.
    pub fn run(&self, packet: &[u8]) -> FilterOutcome {
        let mut stack: Vec<u16> = Vec::with_capacity(8);
        let mut steps = 0;
        for insn in &self.insns {
            steps += 1;
            if steps > MAX_STEPS {
                return FilterOutcome::rejected(steps, Some(VmError::StepBudget));
            }
            match *insn {
                Insn::PushLit(v) => stack.push(v),
                Insn::PushWord(off) => {
                    let off = usize::from(off);
                    if off + 2 > packet.len() {
                        // Out-of-bounds reference fails the filter.
                        return FilterOutcome::rejected(steps, Some(VmError::OutOfBounds));
                    }
                    stack.push(u16::from_be_bytes([packet[off], packet[off + 1]]));
                }
                Insn::Op(op) => {
                    let (a, b) = match (stack.pop(), stack.pop()) {
                        (Some(b), Some(a)) => (a, b),
                        _ => return FilterOutcome::rejected(steps, Some(VmError::StackUnderflow)),
                    };
                    stack.push(op.apply(a, b));
                }
                Insn::CombineOr(op) => {
                    let (a, b) = match (stack.pop(), stack.pop()) {
                        (Some(b), Some(a)) => (a, b),
                        _ => return FilterOutcome::rejected(steps, Some(VmError::StackUnderflow)),
                    };
                    if op.apply(a, b) != 0 {
                        return FilterOutcome::accepted(steps);
                    }
                }
                Insn::CombineAnd(op) => {
                    let (a, b) = match (stack.pop(), stack.pop()) {
                        (Some(b), Some(a)) => (a, b),
                        _ => return FilterOutcome::rejected(steps, Some(VmError::StackUnderflow)),
                    };
                    if op.apply(a, b) == 0 {
                        return FilterOutcome::rejected(steps, None);
                    }
                }
                Insn::Ret => {
                    let accept = stack.pop().is_some_and(|v| v != 0);
                    return if accept {
                        FilterOutcome::accepted(steps)
                    } else {
                        FilterOutcome::rejected(steps, None)
                    };
                }
            }
        }
        // Falling off the end: accept iff top of stack is nonzero, as if
        // an implicit `Ret`.
        let accept = stack.last().copied().unwrap_or(0) != 0;
        if accept {
            FilterOutcome::accepted(steps)
        } else {
            FilterOutcome::rejected(steps, None)
        }
    }
}

/// Why a program failed abnormally.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VmError {
    /// A packet reference fell outside the packet.
    OutOfBounds,
    /// A pop on an empty stack.
    StackUnderflow,
    /// The instruction budget was exhausted.
    StepBudget,
}

/// The result of running a filter.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FilterOutcome {
    /// True if the packet matched.
    pub accepted: bool,
    /// Instructions executed (for cost accounting).
    pub steps: usize,
    /// Abnormal termination cause, if any.
    pub error: Option<VmError>,
}

impl FilterOutcome {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_true_accepts() {
        let p = Program::new(vec![Insn::PushLit(1), Insn::Ret]);
        assert!(p.run(&[]).accepted);
    }

    #[test]
    fn literal_false_rejects() {
        let p = Program::new(vec![Insn::PushLit(0), Insn::Ret]);
        assert!(!p.run(&[]).accepted);
    }

    #[test]
    fn word_compare() {
        let packet = [0x12, 0x34, 0x56, 0x78];
        let p = Program::new(vec![
            Insn::PushWord(2),
            Insn::PushLit(0x5678),
            Insn::Op(Binop::Eq),
            Insn::Ret,
        ]);
        assert!(p.run(&packet).accepted);
        let p2 = Program::new(vec![
            Insn::PushWord(0),
            Insn::PushLit(0x9999),
            Insn::Op(Binop::Eq),
            Insn::Ret,
        ]);
        assert!(!p2.run(&packet).accepted);
    }

    #[test]
    fn out_of_bounds_rejects_without_panic() {
        let p = Program::new(vec![Insn::PushWord(100), Insn::Ret]);
        let out = p.run(&[1, 2, 3]);
        assert!(!out.accepted);
        assert_eq!(out.error, Some(VmError::OutOfBounds));
        // Reference straddling the end also rejects.
        let p2 = Program::new(vec![Insn::PushWord(2), Insn::Ret]);
        let out2 = p2.run(&[1, 2, 3]);
        assert!(!out2.accepted);
        assert_eq!(out2.error, Some(VmError::OutOfBounds));
    }

    #[test]
    fn stack_underflow_rejects() {
        let p = Program::new(vec![Insn::Op(Binop::Eq), Insn::Ret]);
        let out = p.run(&[0, 0]);
        assert!(!out.accepted);
        assert_eq!(out.error, Some(VmError::StackUnderflow));
    }

    #[test]
    fn combine_and_short_circuits() {
        // First comparison fails → reject after 3 steps, not 6.
        let packet = [0x00, 0x01, 0x00, 0x02];
        let p = Program::new(vec![
            Insn::PushWord(0),
            Insn::PushLit(9),
            Insn::CombineAnd(Binop::Eq),
            Insn::PushWord(2),
            Insn::PushLit(2),
            Insn::CombineAnd(Binop::Eq),
            Insn::PushLit(1),
            Insn::Ret,
        ]);
        let out = p.run(&packet);
        assert!(!out.accepted);
        assert_eq!(out.steps, 3);
    }

    #[test]
    fn combine_or_short_circuits() {
        let packet = [0x00, 0x07];
        let p = Program::new(vec![
            Insn::PushWord(0),
            Insn::PushLit(7),
            Insn::CombineOr(Binop::Eq),
            Insn::PushLit(0),
            Insn::Ret,
        ]);
        let out = p.run(&packet);
        assert!(out.accepted);
        assert_eq!(out.steps, 3);
    }

    #[test]
    fn arithmetic_ops() {
        let p = Program::new(vec![
            Insn::PushLit(0xFFFF),
            Insn::PushLit(2),
            Insn::Op(Binop::Add),
            Insn::PushLit(1),
            Insn::Op(Binop::Eq),
            Insn::Ret,
        ]);
        assert!(p.run(&[]).accepted, "wrapping add");
        let p2 = Program::new(vec![
            Insn::PushLit(0x0F0F),
            Insn::PushLit(0x00FF),
            Insn::Op(Binop::And),
            Insn::PushLit(0x000F),
            Insn::Op(Binop::Eq),
            Insn::Ret,
        ]);
        assert!(p2.run(&[]).accepted);
    }

    #[test]
    fn unsigned_comparisons() {
        for (op, a, b, expect) in [
            (Binop::Lt, 1u16, 2u16, true),
            (Binop::Lt, 2, 1, false),
            (Binop::Le, 2, 2, true),
            (Binop::Gt, 3, 2, true),
            (Binop::Ge, 2, 3, false),
            (Binop::Ne, 1, 2, true),
        ] {
            let p = Program::new(vec![
                Insn::PushLit(a),
                Insn::PushLit(b),
                Insn::Op(op),
                Insn::Ret,
            ]);
            assert_eq!(p.run(&[]).accepted, expect, "{op:?} {a} {b}");
        }
    }

    #[test]
    fn empty_program_rejects() {
        assert!(!Program::default().run(&[1, 2, 3]).accepted);
    }

    #[test]
    fn implicit_ret_at_end() {
        let p = Program::new(vec![Insn::PushLit(5)]);
        assert!(p.run(&[]).accepted);
    }

    #[test]
    fn step_budget_bounds_execution() {
        let insns = vec![Insn::PushLit(1); MAX_STEPS + 10];
        let p = Program::new(insns);
        let out = p.run(&[]);
        assert!(!out.accepted);
        assert_eq!(out.error, Some(VmError::StepBudget));
    }

    // --- Exact reject semantics at every underflow/overflow/budget
    // edge. These pin the specification the compiled tier must match
    // bit for bit (verdict, steps, and error cause). ---

    #[test]
    fn ret_on_empty_stack_is_a_plain_reject_not_an_underflow() {
        // `Ret` treats a missing top-of-stack as zero: the program
        // rejects *normally* (error None), unlike the pop pairs of the
        // operator instructions.
        let out = Program::new(vec![Insn::Ret]).run(&[1, 2, 3]);
        assert!(!out.accepted);
        assert_eq!(out.steps, 1);
        assert_eq!(out.error, None);
    }

    #[test]
    fn combine_or_underflow_rejects_with_exact_step() {
        // No operands at all.
        let out = Program::new(vec![Insn::CombineOr(Binop::Eq)]).run(&[]);
        assert!(!out.accepted);
        assert_eq!(out.steps, 1);
        assert_eq!(out.error, Some(VmError::StackUnderflow));
        // One operand is still an underflow: the pop pair is atomic.
        let out = Program::new(vec![Insn::PushLit(7), Insn::CombineOr(Binop::Ne)]).run(&[]);
        assert!(!out.accepted);
        assert_eq!(out.steps, 2);
        assert_eq!(out.error, Some(VmError::StackUnderflow));
    }

    #[test]
    fn combine_and_underflow_rejects_with_exact_step() {
        let out = Program::new(vec![Insn::CombineAnd(Binop::Eq)]).run(&[]);
        assert!(!out.accepted);
        assert_eq!(out.steps, 1);
        assert_eq!(out.error, Some(VmError::StackUnderflow));
        let out = Program::new(vec![Insn::PushLit(1), Insn::CombineAnd(Binop::Eq)]).run(&[]);
        assert!(!out.accepted);
        assert_eq!(out.steps, 2);
        assert_eq!(out.error, Some(VmError::StackUnderflow));
    }

    #[test]
    fn op_underflow_with_one_operand() {
        let out = Program::new(vec![Insn::PushLit(5), Insn::Op(Binop::Add)]).run(&[]);
        assert!(!out.accepted);
        assert_eq!(out.steps, 2);
        assert_eq!(out.error, Some(VmError::StackUnderflow));
    }

    #[test]
    fn budget_edge_exactly_max_steps_completes() {
        // A program of exactly MAX_STEPS instructions runs to the end
        // (implicit Ret): the budget rejects the (MAX_STEPS+1)-th
        // instruction, not the MAX_STEPS-th.
        let p = Program::new(vec![Insn::PushLit(1); MAX_STEPS]);
        let out = p.run(&[]);
        assert!(out.accepted);
        assert_eq!(out.steps, MAX_STEPS);
        assert_eq!(out.error, None);
    }

    #[test]
    fn budget_edge_one_past_max_steps_rejects() {
        let p = Program::new(vec![Insn::PushLit(1); MAX_STEPS + 1]);
        let out = p.run(&[]);
        assert!(!out.accepted);
        assert_eq!(out.steps, MAX_STEPS + 1);
        assert_eq!(out.error, Some(VmError::StepBudget));
    }

    #[test]
    fn budget_edge_ret_as_final_allowed_instruction() {
        // Ret at position MAX_STEPS executes; one later it cannot.
        let mut insns = vec![Insn::PushLit(1); MAX_STEPS - 1];
        insns.push(Insn::Ret);
        let out = Program::new(insns).run(&[]);
        assert!(out.accepted);
        assert_eq!(out.steps, MAX_STEPS);
        let mut insns = vec![Insn::PushLit(1); MAX_STEPS];
        insns.push(Insn::Ret);
        let out = Program::new(insns).run(&[]);
        assert!(!out.accepted);
        assert_eq!(out.steps, MAX_STEPS + 1);
        assert_eq!(out.error, Some(VmError::StepBudget));
    }

    #[test]
    fn deepest_possible_stack_never_overflows() {
        // MAX_STEPS - 1 pushes then Ret: the deepest stack any program
        // can build within the budget. No overflow error exists; the
        // compiled tier's fixed array must accommodate exactly this.
        let mut insns = vec![Insn::PushLit(0xABCD); MAX_STEPS - 1];
        insns.push(Insn::Ret);
        let out = Program::new(insns).run(&[]);
        assert!(out.accepted, "top of a deep stack decides the verdict");
        assert_eq!(out.steps, MAX_STEPS);
    }

    #[test]
    fn budget_trips_before_a_late_out_of_bounds_read() {
        // The budget check precedes instruction decode: an OOB read at
        // position MAX_STEPS+1 reports StepBudget, not OutOfBounds.
        let mut insns = vec![Insn::PushLit(1); MAX_STEPS];
        insns.push(Insn::PushWord(9999));
        let out = Program::new(insns).run(&[]);
        assert_eq!(out.error, Some(VmError::StepBudget));
        assert_eq!(out.steps, MAX_STEPS + 1);
    }
}
