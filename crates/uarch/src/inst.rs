//! Static instructions and the compiler→hardware steering annotation.

use std::fmt;

use crate::op::OpClass;
use crate::reg::ArchReg;

/// Maximum number of register sources a micro-op can have.
///
/// Three covers every x86-like micro-op we model: a store needs an address
/// base, an index and the data value; everything else needs at most two.
pub const MAX_SRCS: usize = 3;

/// A compact inline list of source registers (at most [`MAX_SRCS`]).
///
/// Micro-ops are created in the billions during trace expansion, so sources
/// are stored inline rather than in a heap-allocated `Vec`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SrcList {
    regs: [Option<ArchReg>; MAX_SRCS],
    len: u8,
}

impl SrcList {
    /// Empty source list.
    #[inline]
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from a slice of registers.
    ///
    /// # Panics
    /// Panics if `regs.len() > MAX_SRCS`.
    pub fn from_slice(regs: &[ArchReg]) -> Self {
        assert!(regs.len() <= MAX_SRCS, "too many sources: {}", regs.len());
        let mut s = Self::new();
        for &r in regs {
            s.push(r);
        }
        s
    }

    /// Append a source register.
    ///
    /// # Panics
    /// Panics if the list already holds [`MAX_SRCS`] registers.
    #[inline]
    pub fn push(&mut self, r: ArchReg) {
        assert!((self.len as usize) < MAX_SRCS, "source list full");
        self.regs[self.len as usize] = Some(r);
        self.len += 1;
    }

    /// Number of sources.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True if there are no sources.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterate over the sources in insertion order.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = ArchReg> + '_ {
        self.regs[..self.len as usize]
            .iter()
            .map(|r| r.expect("slot below len is Some"))
    }

    /// True if `r` appears among the sources.
    #[inline]
    pub fn contains(&self, r: ArchReg) -> bool {
        self.iter().any(|s| s == r)
    }
}

impl FromIterator<ArchReg> for SrcList {
    fn from_iter<T: IntoIterator<Item = ArchReg>>(iter: T) -> Self {
        let mut s = Self::new();
        for r in iter {
            s.push(r);
        }
        s
    }
}

impl fmt::Display for SrcList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for r in self.iter() {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{r}")?;
            first = false;
        }
        Ok(())
    }
}

/// The steering annotation a compiler pass attaches to a static instruction.
///
/// This is the paper's ISA extension: "the x86 instruction set is extended in
/// our simulation framework in order to allow the virtual cluster information
/// to be passed from the compiler to the hardware" (Sec. 5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SteerHint {
    /// No annotation; hardware-only policies (OP, one-cluster) ignore hints.
    #[default]
    None,
    /// Software-only placement (OB/SPDI and RHOP): the instruction is bound
    /// to a *physical* cluster chosen at compile time.
    Static {
        /// Physical cluster index the compiler chose.
        cluster: u8,
    },
    /// Hybrid virtual-cluster steering (the paper's contribution): the
    /// instruction belongs to virtual cluster `vc`; if `leader` is set it is
    /// a *chain leader*, telling the hardware to re-evaluate the VC→physical
    /// mapping from the workload counters (Fig. 3 / Fig. 4).
    Vc {
        /// Virtual cluster identifier (`vc_id` in the paper).
        vc: u8,
        /// Chain-leader mark. Non-leaders are "marked with zero" (Fig. 3)
        /// and simply follow the current mapping-table entry.
        leader: bool,
    },
}

impl SteerHint {
    /// The virtual-cluster id, if this is a VC hint.
    #[inline]
    pub fn vc_id(self) -> Option<u8> {
        match self {
            SteerHint::Vc { vc, .. } => Some(vc),
            _ => None,
        }
    }

    /// True if this is a VC hint with the chain-leader mark set.
    #[inline]
    pub fn is_chain_leader(self) -> bool {
        matches!(self, SteerHint::Vc { leader: true, .. })
    }

    /// The static physical-cluster assignment, if this is a static hint.
    #[inline]
    pub fn static_cluster(self) -> Option<u8> {
        match self {
            SteerHint::Static { cluster } => Some(cluster),
            _ => None,
        }
    }
}

/// Identifies a static instruction inside a [`crate::Program`]:
/// region index plus instruction index within the region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstId {
    /// Index of the region in `Program::regions`.
    pub region: u32,
    /// Index of the instruction in `Region::insts`.
    pub index: u32,
}

impl InstId {
    /// Construct an id.
    #[inline]
    pub fn new(region: u32, index: u32) -> Self {
        InstId { region, index }
    }
}

impl fmt::Display for InstId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}:{}", self.region, self.index)
    }
}

/// A static micro-op as the compiler sees it.
///
/// Register operands use architectural names; memory addresses and branch
/// outcomes are dynamic properties supplied by the trace expander.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaticInst {
    /// Operation class.
    pub op: OpClass,
    /// Source registers (data dependences flow through these).
    pub srcs: SrcList,
    /// Destination register, if the op produces a register value.
    pub dst: Option<ArchReg>,
    /// Steering annotation set by a compiler pass ([`SteerHint::None`] until
    /// a pass runs).
    pub hint: SteerHint,
}

impl StaticInst {
    /// Create an unannotated instruction.
    pub fn new(op: OpClass, srcs: &[ArchReg], dst: Option<ArchReg>) -> Self {
        StaticInst {
            op,
            srcs: SrcList::from_slice(srcs),
            dst,
            hint: SteerHint::None,
        }
    }

    /// Returns a copy with the given steering hint.
    #[must_use]
    pub fn with_hint(mut self, hint: SteerHint) -> Self {
        self.hint = hint;
        self
    }

    /// Instantiate this static instruction as a dynamic micro-op.
    ///
    /// This is the **single source of truth** for the static fields a
    /// [`crate::DynUop`] carries (`op`, `srcs`, `dst`, `hint`): every code
    /// path that turns a static instruction into a dynamic one — the trace
    /// expander, the replay pipeline, tests — funnels through here, so the
    /// copies can never drift from the program. The fields are copied (not
    /// referenced) deliberately: the simulator touches every micro-op many
    /// times per cycle and an indirection through the `Program` on each
    /// access would wreck locality.
    ///
    /// # Panics
    /// Debug-asserts that `mem_addr`/`branch` presence matches the op class
    /// (memory ops need an address, branches need an outcome).
    pub fn instantiate(
        &self,
        seq: u64,
        id: InstId,
        mem_addr: Option<u64>,
        branch: Option<crate::trace::BranchInfo>,
    ) -> crate::trace::DynUop {
        debug_assert_eq!(
            self.op.is_mem(),
            mem_addr.is_some(),
            "memory ops need an address"
        );
        debug_assert_eq!(
            self.op.is_branch(),
            branch.is_some(),
            "branches need an outcome"
        );
        crate::trace::DynUop {
            seq,
            inst: id,
            op: self.op,
            srcs: self.srcs,
            dst: self.dst,
            hint: self.hint,
            mem_addr,
            branch,
        }
    }
}

impl fmt::Display for StaticInst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.dst {
            Some(d) => write!(f, "{d} <- {} ({})", self.op, self.srcs),
            None => write!(f, "{} ({})", self.op, self.srcs),
        }?;
        match self.hint {
            SteerHint::None => Ok(()),
            SteerHint::Static { cluster } => write!(f, " [pc={cluster}]"),
            SteerHint::Vc { vc, leader } => {
                write!(f, " [vc={vc}{}]", if leader { ",leader" } else { "" })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::ArchReg;

    #[test]
    fn srclist_push_and_iter_preserve_order() {
        let mut s = SrcList::new();
        s.push(ArchReg::int(1));
        s.push(ArchReg::flt(2));
        s.push(ArchReg::int(3));
        let got: Vec<_> = s.iter().collect();
        assert_eq!(got, vec![ArchReg::int(1), ArchReg::flt(2), ArchReg::int(3)]);
        assert_eq!(s.len(), 3);
    }

    #[test]
    #[should_panic(expected = "source list full")]
    fn srclist_overflow_panics() {
        let mut s = SrcList::new();
        for i in 0..=MAX_SRCS {
            s.push(ArchReg::int(i as u8));
        }
    }

    #[test]
    fn srclist_contains() {
        let s = SrcList::from_slice(&[ArchReg::int(5), ArchReg::int(7)]);
        assert!(s.contains(ArchReg::int(5)));
        assert!(!s.contains(ArchReg::int(6)));
        assert!(!s.contains(ArchReg::flt(5)));
    }

    #[test]
    fn hint_accessors() {
        assert_eq!(SteerHint::None.vc_id(), None);
        assert_eq!(SteerHint::Static { cluster: 2 }.static_cluster(), Some(2));
        let h = SteerHint::Vc {
            vc: 1,
            leader: true,
        };
        assert_eq!(h.vc_id(), Some(1));
        assert!(h.is_chain_leader());
        assert!(!SteerHint::Vc {
            vc: 1,
            leader: false
        }
        .is_chain_leader());
    }

    #[test]
    fn static_inst_display_mentions_hint() {
        let i = StaticInst::new(
            OpClass::IntAlu,
            &[ArchReg::int(1), ArchReg::int(2)],
            Some(ArchReg::int(0)),
        )
        .with_hint(SteerHint::Vc {
            vc: 1,
            leader: true,
        });
        let s = i.to_string();
        assert!(s.contains("vc=1"), "{s}");
        assert!(s.contains("leader"), "{s}");
    }

    #[test]
    fn inst_id_ordering_is_region_major() {
        assert!(InstId::new(0, 9) < InstId::new(1, 0));
        assert!(InstId::new(1, 0) < InstId::new(1, 1));
    }
}
