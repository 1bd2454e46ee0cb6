//! The instruction/trace record consumed by the CPU timing model.

use serde::{Deserialize, Serialize};

/// A dynamic instruction in a synthetic trace.
///
/// The record is deliberately minimal: a program counter (for the
/// instruction cache and branch predictor), an operation kind (for
/// functional-unit latency and the memory system) and up to two
/// backward dependency distances (for the issue model's dataflow).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Inst {
    /// Byte address of the instruction (4-byte fixed encoding, Alpha-like).
    pub pc: u64,
    /// Operation class.
    pub kind: InstKind,
    /// Distances (in dynamic instructions, counted backwards) to the two
    /// producers of this instruction's source operands; 0 means "no
    /// dependency". Small distances serialise execution, large distances
    /// expose ILP.
    pub deps: [u8; 2],
}

impl Inst {
    /// A dependency-free instruction of the given kind.
    pub fn free(pc: u64, kind: InstKind) -> Self {
        Inst {
            pc,
            kind,
            deps: [0, 0],
        }
    }

    /// Whether this instruction references data memory.
    pub fn is_mem(&self) -> bool {
        matches!(self.kind, InstKind::Load { .. } | InstKind::Store { .. })
    }

    /// The data address, if this is a load or store.
    pub fn mem_addr(&self) -> Option<u64> {
        match self.kind {
            InstKind::Load { addr } | InstKind::Store { addr } => Some(addr),
            _ => None,
        }
    }
}

/// Operation classes, mirroring the simulated machine's functional units
/// (Table 1: integer ALU/mult/div, FP add/div, memory ports) plus control
/// flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InstKind {
    /// 1-cycle integer operation.
    IntAlu,
    /// 8-cycle integer multiply (pipelined).
    IntMul,
    /// 8-cycle integer divide (unpipelined).
    IntDiv,
    /// 4-cycle FP add/mul (pipelined).
    FpAdd,
    /// 16-cycle FP divide (unpipelined).
    FpDiv,
    /// Data-memory read from `addr`.
    Load {
        /// Byte address read.
        addr: u64,
    },
    /// Data-memory write to `addr`.
    Store {
        /// Byte address written.
        addr: u64,
    },
    /// Conditional branch.
    Branch {
        /// Actual direction.
        taken: bool,
        /// Branch target (for BTB modelling).
        target: u64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_classification() {
        assert!(Inst::free(0, InstKind::Load { addr: 64 }).is_mem());
        assert!(Inst::free(0, InstKind::Store { addr: 64 }).is_mem());
        assert!(!Inst::free(0, InstKind::IntAlu).is_mem());
        assert!(!Inst::free(
            0,
            InstKind::Branch {
                taken: true,
                target: 8
            }
        )
        .is_mem());
    }

    #[test]
    fn mem_addr_extraction() {
        assert_eq!(
            Inst::free(0, InstKind::Load { addr: 123 }).mem_addr(),
            Some(123)
        );
        assert_eq!(Inst::free(0, InstKind::FpAdd).mem_addr(), None);
    }

    #[test]
    fn serde_roundtrip() {
        let i = Inst {
            pc: 0x1000,
            kind: InstKind::Load { addr: 0xbeef },
            deps: [3, 0],
        };
        let json = serde_json::to_string(&i).unwrap();
        let back: Inst = serde_json::from_str(&json).unwrap();
        assert_eq!(i, back);
    }
}
