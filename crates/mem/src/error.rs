//! Typed errors for fallible memory-substrate operations.
//!
//! The simulator's library paths prefer `Result` over `panic!` so a harness
//! (e.g. the `figures` binary) can report a bad configuration per-experiment
//! instead of aborting the whole run. The panicking constructors remain as
//! thin wrappers for internal callers with already-validated inputs.

use std::fmt;

use crate::address::LINE_SIZE;
use crate::cache::MAX_WAYS;
use crate::placement::MAX_GPMS;

/// Errors raised by the memory substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemError {
    /// The requested GPM count is outside the supported `1..=16` range.
    TooManyGpms {
        /// The rejected count.
        requested: usize,
    },
    /// A cache level has zero ways, more than
    /// [`MAX_WAYS`](crate::cache::MAX_WAYS), or too few bytes for one set
    /// of lines.
    BadCacheGeometry {
        /// `"L1"` or `"L2"`.
        level: &'static str,
        /// The configured capacity in bytes.
        bytes: u64,
        /// The configured associativity.
        ways: usize,
    },
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::TooManyGpms { requested } => {
                write!(f, "supported GPM counts are 1..={MAX_GPMS}, got {requested}")
            }
            MemError::BadCacheGeometry { level, bytes, ways } => write!(
                f,
                "{level} cache geometry {bytes} B x {ways} ways is invalid: \
                 needs 1..={MAX_WAYS} ways and one set of {LINE_SIZE} B lines"
            ),
        }
    }
}

impl std::error::Error for MemError {}
