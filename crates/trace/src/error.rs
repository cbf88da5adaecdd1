//! Error type shared by every codec, the importer and the replay plumbing.

use std::fmt;
use std::io;

/// Anything that can go wrong while reading, writing or importing a trace.
#[derive(Debug)]
pub enum TraceError {
    /// An underlying I/O failure.
    Io(io::Error),
    /// A malformed line in the text codec or the kernel importer.
    Parse {
        /// 1-based line number within the input.
        line: u64,
        /// What was wrong with it.
        msg: String,
    },
    /// Structurally invalid binary data (bad magic, truncated record,
    /// varint overflow, record count mismatch…).
    Corrupt(String),
    /// A format version or codec this build does not understand.
    Unsupported(String),
    /// A semantic mismatch: a micro-op that does not belong to the writer's
    /// program, a non-monotonic sequence number, or a replacement program
    /// whose shape differs from the embedded one.
    Inconsistent(String),
    /// Input past a decoder's declared bound: a program over
    /// [`MAX_PROGRAM_INSTS`](crate::text::MAX_PROGRAM_INSTS) instructions,
    /// or more program text than a decoder buffers before parsing.
    TooLarge(String),
}

impl TraceError {
    /// Shorthand for a text-codec parse error.
    pub fn parse(line: u64, msg: impl Into<String>) -> Self {
        TraceError::Parse {
            line,
            msg: msg.into(),
        }
    }

    /// Whether retrying the same operation could plausibly succeed.
    ///
    /// Transient: `Io` failures that name an interrupted/timed-out
    /// syscall (`Interrupted`, `WouldBlock`, `TimedOut`) — the categories
    /// the batch engine's retry policy re-attempts with rebuilt worker
    /// state. Everything else — malformed data (`Parse`, `Corrupt`),
    /// version mismatches (`Unsupported`), semantic mismatches
    /// (`Inconsistent`), inputs past a bound (`TooLarge`), and I/O errors
    /// like `NotFound` or `PermissionDenied` — is permanent: the same
    /// inputs will fail the same way.
    pub fn is_transient(&self) -> bool {
        match self {
            TraceError::Io(e) => matches!(
                e.kind(),
                io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ),
            _ => false,
        }
    }
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceError::Parse { line, msg } => write!(f, "trace parse error (line {line}): {msg}"),
            TraceError::Corrupt(msg) => write!(f, "corrupt trace: {msg}"),
            TraceError::Unsupported(msg) => write!(f, "unsupported trace: {msg}"),
            TraceError::Inconsistent(msg) => write!(f, "inconsistent trace: {msg}"),
            TraceError::TooLarge(msg) => write!(f, "trace input too large: {msg}"),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TraceError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_the_line_number() {
        let e = TraceError::parse(7, "bad register");
        assert!(e.to_string().contains("line 7"), "{e}");
        assert!(e.to_string().contains("bad register"), "{e}");
    }

    #[test]
    fn io_errors_convert() {
        let e: TraceError = io::Error::new(io::ErrorKind::NotFound, "gone").into();
        assert!(matches!(e, TraceError::Io(_)));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn io_source_exposes_the_underlying_kind() {
        let e: TraceError = io::Error::new(io::ErrorKind::Interrupted, "EINTR").into();
        let src = std::error::Error::source(&e).expect("Io carries a source");
        let io_src = src
            .downcast_ref::<io::Error>()
            .expect("source is io::Error");
        assert_eq!(io_src.kind(), io::ErrorKind::Interrupted);
        // Non-Io variants have no source to chase.
        assert!(std::error::Error::source(&TraceError::Corrupt("x".into())).is_none());
    }

    #[test]
    fn transience_follows_the_io_kind() {
        for kind in [
            io::ErrorKind::Interrupted,
            io::ErrorKind::WouldBlock,
            io::ErrorKind::TimedOut,
        ] {
            let e: TraceError = io::Error::new(kind, "flaky").into();
            assert!(e.is_transient(), "{kind:?} is retryable");
        }
        for kind in [io::ErrorKind::NotFound, io::ErrorKind::PermissionDenied] {
            let e: TraceError = io::Error::new(kind, "hard").into();
            assert!(!e.is_transient(), "{kind:?} is permanent");
        }
    }

    #[test]
    fn data_errors_are_never_transient() {
        assert!(!TraceError::parse(3, "junk").is_transient());
        assert!(!TraceError::Corrupt("bad magic".into()).is_transient());
        assert!(!TraceError::Unsupported("v99".into()).is_transient());
        assert!(!TraceError::Inconsistent("seq".into()).is_transient());
        assert!(!TraceError::TooLarge("program".into()).is_transient());
    }
}
