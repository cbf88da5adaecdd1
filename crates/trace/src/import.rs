//! The textual kernel importer: externally authored programs enter the
//! pipeline without touching the synthetic generator.
//!
//! The input is the trace format's program grammar in *lenient* mode — one
//! micro-op per line, `#` comments, with every scaffold line optional:
//!
//! ```text
//! # dot product, unrolled once
//! region loop
//! i ld f0 = r1
//! i ld f1 = r2
//! i fmul f2 = f0 f1
//! i fadd f3 = f3 f2
//! i alu r1 = r1 r4
//! i alu r2 = r2 r4
//! i br r3
//! ```
//!
//! Instruction syntax: `i <mnemonic> [<dst> =] <src>… [@cluster <n> |
//! @vc <n> [leader]]` with registers `r0`–`r15` (integer) and `f0`–`f15`
//! (floating-point). Mnemonics are
//! [`OpClass::mnemonic`](virtclust_uarch::OpClass::mnemonic) names: `alu`,
//! `mul`, `div`, `ld`, `st`, `br`, `fadd`, `fmul`, `fdiv`, `nop`.
//!
//! A `program <name>` line names the program (default `imported`);
//! `region <name>` lines split it into steering regions (instructions
//! before any region line land in an implicit region `kernel`). Steering
//! hints are normally left to the compiler passes, but the grammar accepts
//! them so hand-annotated experiments are possible.
//!
//! The resulting [`Program`] drives the normal pipeline: compiler passes
//! annotate it, `virtclust-workloads`' expander (which accepts any program)
//! instantiates dynamic behaviour, and a [`TraceWriter`](crate::TraceWriter)
//! persists the result.

use std::fs::{File, Metadata};
use std::io::{self, Read};
use std::path::Path;

use virtclust_uarch::Program;

use crate::error::{Result, TraceError};
use crate::text;

/// Parse a kernel description (see the module docs for the grammar).
///
/// Copy micro-ops cannot appear: the grammar resolves mnemonics from
/// [`OpClass::PROGRAM_CLASSES`](virtclust_uarch::OpClass::PROGRAM_CLASSES) only (copies are hardware-generated and
/// have no program-side spelling).
pub fn parse_kernel(input: &str) -> Result<Program> {
    let lines = input.lines().enumerate().map(|(i, l)| (i as u64 + 1, l));
    text::parse_program_section(lines, true)
}

/// Refuse anything that `meta` says is not a regular file (a FIFO, a
/// directory, a socket, a device) with a permanent
/// `Io(InvalidInput, "not a regular file")` error. Checking a path's
/// metadata with this before `open` keeps a caller from blocking on a
/// FIFO that has no writer.
pub fn require_regular_file(meta: &Metadata) -> Result<()> {
    if meta.is_file() {
        Ok(())
    } else {
        Err(TraceError::Io(io::Error::new(
            io::ErrorKind::InvalidInput,
            "not a regular file",
        )))
    }
}

/// Read and parse a kernel file. The path must name a regular file
/// ([`require_regular_file`]), checked before any `open`. Reads at most the
/// program-text bound of the trace decoders; a longer file is
/// [`TraceError::TooLarge`].
pub fn import_kernel_file(path: impl AsRef<Path>) -> Result<Program> {
    let path = path.as_ref();
    require_regular_file(&std::fs::metadata(path)?)?;
    let mut bytes = Vec::new();
    File::open(path)?
        .take(text::MAX_PROGRAM_BYTES + 1)
        .read_to_end(&mut bytes)?;
    if bytes.len() as u64 > text::MAX_PROGRAM_BYTES {
        return Err(text::program_text_too_large());
    }
    let input =
        String::from_utf8(bytes).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    parse_kernel(&input)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use virtclust_uarch::{ArchReg, OpClass, RegClass, SteerHint};

    const DOTPROD: &str = "\
# dot product kernel
program dotprod
region loop
i ld f0 = r1
i ld f1 = r2
i fmul f2 = f0 f1
i fadd f3 = f3 f2
i alu r1 = r1 r4
i alu r2 = r2 r4
i br r3
";

    #[test]
    fn dotprod_imports() {
        let p = parse_kernel(DOTPROD).unwrap();
        assert_eq!(p.name, "dotprod");
        assert_eq!(p.regions.len(), 1);
        assert_eq!(p.regions[0].name, "loop");
        assert_eq!(p.static_len(), 7);
        assert_eq!(p.regions[0].insts[0].op, OpClass::Load);
        assert_eq!(p.regions[0].insts[2].op, OpClass::FpMul);
        assert_eq!(
            p.regions[0].insts[2].dst.unwrap().class,
            RegClass::Flt,
            "fmul writes an FP register"
        );
        assert_eq!(p.regions[0].insts[6].op, OpClass::Branch);
    }

    #[test]
    fn bare_uop_lines_are_enough() {
        let p = parse_kernel("i alu r1 = r1 r2\ni st r1 r3\n").unwrap();
        assert_eq!(p.name, "imported");
        assert_eq!(p.regions[0].name, "kernel");
        assert_eq!(p.static_len(), 2);
        assert_eq!(p.regions[0].insts[1].dst, None, "stores have no dst");
    }

    #[test]
    fn hand_annotated_hints_are_accepted() {
        let p =
            parse_kernel("i alu r1 = r1 r2 @vc 1 leader\ni alu r2 = r2 r3 @cluster 1\n").unwrap();
        assert_eq!(
            p.regions[0].insts[0].hint,
            SteerHint::Vc {
                vc: 1,
                leader: true
            }
        );
        assert_eq!(p.regions[0].insts[1].hint, SteerHint::Static { cluster: 1 });
    }

    #[test]
    fn imported_programs_expand_and_capture() {
        // End-to-end inside the crate: import → expand_region → capture.
        let p = parse_kernel(DOTPROD).unwrap();
        let mut uops = Vec::new();
        virtclust_uarch::trace::expand_region(
            &p.regions[0],
            0,
            &mut uops,
            |s, _| 0x2000 + s * 8,
            |_, _| true,
        );
        assert_eq!(uops.len(), 7);
        let mut w = crate::TraceWriter::new(Vec::new(), &p, crate::Codec::Text, None).unwrap();
        for u in &uops {
            w.write_uop(u).unwrap();
        }
        assert_eq!(w.finish().unwrap(), 7);
        let _ = ArchReg::int(0);
    }

    #[test]
    fn garbage_is_rejected_with_line_numbers() {
        let err = parse_kernel("i alu r1 = r1 r2\ni zap r1\n").unwrap_err();
        assert!(matches!(err, TraceError::Parse { line: 2, .. }), "{err}");
        assert!(parse_kernel("").is_err(), "empty kernel");
        assert!(parse_kernel("i ld r99 = r1\n").is_err(), "bad register");
    }

    #[test]
    fn multi_byte_register_is_a_parse_error() {
        let err = parse_kernel("i alu é1 = r1 r2\n").unwrap_err();
        assert!(matches!(err, TraceError::Parse { line: 1, .. }), "{err}");
    }

    #[test]
    fn kernel_file_one_instruction_over_the_cap_is_too_large() {
        let dir = std::env::temp_dir().join(format!("virtclust-kcap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("big.kernel");
        let at_cap = "i alu r1 = r1 r2\n".repeat(text::MAX_PROGRAM_INSTS);
        std::fs::write(&path, &at_cap).unwrap();
        let p = import_kernel_file(&path).unwrap();
        assert_eq!(p.static_len(), text::MAX_PROGRAM_INSTS);
        std::fs::write(&path, at_cap + "i alu r1 = r1 r2\n").unwrap();
        let err = import_kernel_file(&path).unwrap_err();
        assert!(matches!(err, TraceError::TooLarge(_)), "{err}");
        // Past the text bound the file is refused before parsing.
        std::fs::write(&path, vec![b'#'; text::MAX_PROGRAM_BYTES as usize + 1]).unwrap();
        let err = import_kernel_file(&path).unwrap_err();
        assert!(matches!(err, TraceError::TooLarge(_)), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn kernel_paths_that_are_not_regular_files_fail_at_once() {
        let dir = std::env::temp_dir().join(format!("virtclust-knotfile-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let fifo = dir.join("fifo.kernel");
        let status = std::process::Command::new("mkfifo")
            .arg(&fifo)
            .status()
            .expect("mkfifo runs");
        assert!(status.success(), "mkfifo {}", fifo.display());
        let subdir = dir.join("dir.kernel");
        std::fs::create_dir_all(&subdir).unwrap();
        for path in [fifo, subdir] {
            // On a helper thread: opening the FIFO would block until a
            // writer appeared, and the test must fail, not hang.
            let (tx, rx) = std::sync::mpsc::channel();
            let opened = path.clone();
            std::thread::spawn(move || {
                tx.send(import_kernel_file(&opened).map(|_| ())).ok();
            });
            let got = rx
                .recv_timeout(Duration::from_secs(20))
                .unwrap_or_else(|e| panic!("{} did not fail at once: {e}", path.display()));
            match got {
                Err(TraceError::Io(e)) => {
                    assert_eq!(e.kind(), io::ErrorKind::InvalidInput, "{}", path.display());
                    assert_eq!(e.to_string(), "not a regular file");
                }
                other => panic!(
                    "{}: expected not a regular file, got {other:?}",
                    path.display()
                ),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
