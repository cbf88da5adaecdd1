//! Static programs: regions of micro-ops as the compiler sees them.
//!
//! The software side of every steering mechanism in the paper operates on
//! *regions* — superblock-like single-entry instruction sequences over which
//! a data-dependence graph is built (the paper's compiler passes run "in the
//! code generation step of the Intel production compiler"). A [`Program`] is
//! a collection of regions; the workload layer decides how often and in what
//! order regions execute.

use std::fmt;

use crate::inst::{InstId, StaticInst, SteerHint};
use crate::op::OpClass;
use crate::reg::ArchReg;

/// A single-entry straight-line region of static micro-ops.
///
/// Control flow inside a region is modelled by [`OpClass::Branch`] micro-ops
/// whose dynamic outcome the trace expander chooses; steering passes treat
/// the region as a scheduling scope, exactly like an acyclic scheduling
/// region in the paper's compiler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Region {
    /// Region index within its program.
    pub id: u32,
    /// Human-readable name (e.g. `"inner_loop"`), for reports and tests.
    pub name: String,
    /// The instructions, in program order.
    pub insts: Vec<StaticInst>,
}

impl Region {
    /// Create an empty region.
    pub fn new(id: u32, name: impl Into<String>) -> Self {
        Region {
            id,
            name: name.into(),
            insts: Vec::new(),
        }
    }

    /// Append an instruction, returning its index within the region.
    pub fn push(&mut self, inst: StaticInst) -> u32 {
        let idx = self.insts.len() as u32;
        self.insts.push(inst);
        idx
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// True if the region has no instructions.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// The [`InstId`] of instruction `index` within this region.
    pub fn inst_id(&self, index: u32) -> InstId {
        debug_assert!((index as usize) < self.insts.len());
        InstId::new(self.id, index)
    }

    /// Iterate `(InstId, &StaticInst)` pairs in program order.
    pub fn iter_ids(&self) -> impl Iterator<Item = (InstId, &StaticInst)> + '_ {
        self.insts
            .iter()
            .enumerate()
            .map(|(i, inst)| (InstId::new(self.id, i as u32), inst))
    }

    /// Clear every steering hint (used before re-running a different pass).
    pub fn clear_hints(&mut self) {
        for inst in &mut self.insts {
            inst.hint = SteerHint::None;
        }
    }
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "region {} `{}` ({} insts):",
            self.id,
            self.name,
            self.insts.len()
        )?;
        for (i, inst) in self.insts.iter().enumerate() {
            writeln!(f, "  {i:4}: {inst}")?;
        }
        Ok(())
    }
}

/// A whole static program: a set of regions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// Program name (e.g. the benchmark it models).
    pub name: String,
    /// All regions; `regions[i].id == i` is an invariant maintained by
    /// [`Program::add_region`].
    pub regions: Vec<Region>,
}

impl Program {
    /// Create an empty program.
    pub fn new(name: impl Into<String>) -> Self {
        Program {
            name: name.into(),
            regions: Vec::new(),
        }
    }

    /// Add a region built elsewhere; its `id` is rewritten to its index.
    pub fn add_region(&mut self, mut region: Region) -> u32 {
        let id = self.regions.len() as u32;
        region.id = id;
        self.regions.push(region);
        id
    }

    /// Look up an instruction by id.
    ///
    /// # Panics
    /// Panics if the id is out of range.
    pub fn inst(&self, id: InstId) -> &StaticInst {
        &self.regions[id.region as usize].insts[id.index as usize]
    }

    /// Mutable instruction lookup (used by compiler passes to set hints).
    pub fn inst_mut(&mut self, id: InstId) -> &mut StaticInst {
        &mut self.regions[id.region as usize].insts[id.index as usize]
    }

    /// Total static instruction count across regions.
    pub fn static_len(&self) -> usize {
        self.regions.iter().map(Region::len).sum()
    }

    /// Clear steering hints across all regions.
    pub fn clear_hints(&mut self) {
        for r in &mut self.regions {
            r.clear_hints();
        }
    }
}

/// Convenience builder for writing regions in tests, examples and workload
/// generators without spelling out [`StaticInst`] every time.
///
/// ```
/// use virtclust_uarch::{RegionBuilder, ArchReg};
/// let r = ArchReg::int;
/// let region = RegionBuilder::new(0, "example")
///     .alu(r(1), &[r(1), r(2)])   // I1: r1 <- r1 + r2
///     .load(r(3), r(1))           // I2: r3 <- load(r1)
///     .load(r(4), r(3))           // I3: r4 <- load(r3)
///     .build();
/// assert_eq!(region.len(), 3);
/// ```
#[derive(Debug)]
pub struct RegionBuilder {
    region: Region,
}

impl RegionBuilder {
    /// Start a new region.
    pub fn new(id: u32, name: impl Into<String>) -> Self {
        RegionBuilder {
            region: Region::new(id, name),
        }
    }

    /// Append an arbitrary instruction.
    #[must_use]
    pub fn inst(mut self, inst: StaticInst) -> Self {
        self.region.push(inst);
        self
    }

    /// Integer ALU op `dst <- f(srcs)`.
    #[must_use]
    pub fn alu(self, dst: ArchReg, srcs: &[ArchReg]) -> Self {
        self.inst(StaticInst::new(OpClass::IntAlu, srcs, Some(dst)))
    }

    /// Integer multiply `dst <- a * b`.
    #[must_use]
    pub fn mul(self, dst: ArchReg, a: ArchReg, b: ArchReg) -> Self {
        self.inst(StaticInst::new(OpClass::IntMul, &[a, b], Some(dst)))
    }

    /// Integer divide `dst <- a / b`.
    #[must_use]
    pub fn div(self, dst: ArchReg, a: ArchReg, b: ArchReg) -> Self {
        self.inst(StaticInst::new(OpClass::IntDiv, &[a, b], Some(dst)))
    }

    /// Load `dst <- mem[addr_base]`.
    #[must_use]
    pub fn load(self, dst: ArchReg, addr_base: ArchReg) -> Self {
        self.inst(StaticInst::new(OpClass::Load, &[addr_base], Some(dst)))
    }

    /// Store `mem[addr_base] <- data`.
    #[must_use]
    pub fn store(self, addr_base: ArchReg, data: ArchReg) -> Self {
        self.inst(StaticInst::new(OpClass::Store, &[addr_base, data], None))
    }

    /// Conditional branch testing `cond`.
    #[must_use]
    pub fn branch(self, cond: ArchReg) -> Self {
        self.inst(StaticInst::new(OpClass::Branch, &[cond], None))
    }

    /// FP add `dst <- a + b`.
    #[must_use]
    pub fn fadd(self, dst: ArchReg, a: ArchReg, b: ArchReg) -> Self {
        self.inst(StaticInst::new(OpClass::FpAdd, &[a, b], Some(dst)))
    }

    /// FP multiply `dst <- a * b`.
    #[must_use]
    pub fn fmul(self, dst: ArchReg, a: ArchReg, b: ArchReg) -> Self {
        self.inst(StaticInst::new(OpClass::FpMul, &[a, b], Some(dst)))
    }

    /// FP divide `dst <- a / b`.
    #[must_use]
    pub fn fdiv(self, dst: ArchReg, a: ArchReg, b: ArchReg) -> Self {
        self.inst(StaticInst::new(OpClass::FpDiv, &[a, b], Some(dst)))
    }

    /// No-op.
    #[must_use]
    pub fn nop(self) -> Self {
        self.inst(StaticInst::new(OpClass::Nop, &[], None))
    }

    /// Finish and return the region.
    pub fn build(self) -> Region {
        self.region
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_inst_region() -> Region {
        // The motivating example from Sec. 2.1 of the paper:
        //   I1: R1 <- R1 + R2
        //   I2: R3 <- Load(R1)
        //   I3: R4 <- Load(R3)
        let r = ArchReg::int;
        RegionBuilder::new(0, "sec2.1")
            .alu(r(1), &[r(1), r(2)])
            .load(r(3), r(1))
            .load(r(4), r(3))
            .build()
    }

    #[test]
    fn builder_produces_expected_ops() {
        let region = three_inst_region();
        assert_eq!(region.insts[0].op, OpClass::IntAlu);
        assert_eq!(region.insts[1].op, OpClass::Load);
        assert_eq!(region.insts[2].op, OpClass::Load);
        assert_eq!(region.insts[1].srcs.iter().next(), Some(ArchReg::int(1)));
        assert_eq!(region.insts[2].dst, Some(ArchReg::int(4)));
    }

    #[test]
    fn program_rewrites_region_ids() {
        let mut p = Program::new("t");
        let a = p.add_region(Region::new(99, "a"));
        let b = p.add_region(Region::new(42, "b"));
        assert_eq!((a, b), (0, 1));
        assert_eq!(p.regions[0].id, 0);
        assert_eq!(p.regions[1].id, 1);
    }

    #[test]
    fn inst_lookup_and_mutation() {
        let mut p = Program::new("t");
        p.add_region(three_inst_region());
        let id = InstId::new(0, 1);
        assert_eq!(p.inst(id).op, OpClass::Load);
        p.inst_mut(id).hint = SteerHint::Vc {
            vc: 1,
            leader: true,
        };
        assert!(p.inst(id).hint.is_chain_leader());
        p.clear_hints();
        assert_eq!(p.inst(id).hint, SteerHint::None);
    }

    #[test]
    fn iter_ids_matches_indices() {
        let region = three_inst_region();
        for (i, (id, _)) in region.iter_ids().enumerate() {
            assert_eq!(id, InstId::new(0, i as u32));
        }
    }

    #[test]
    fn static_len_sums_regions() {
        let mut p = Program::new("t");
        p.add_region(three_inst_region());
        p.add_region(three_inst_region());
        assert_eq!(p.static_len(), 6);
    }
}
