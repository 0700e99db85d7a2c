//! Error type for every cross-thread communication path in the crate.
//!
//! The seed implementation panicked (`expect`) whenever a peer thread
//! was gone — acceptable while failures were out of scope, fatal once
//! they are the point (Sec. VIII-A). Every operation that crosses a
//! thread boundary now returns [`CommResult`] so the caller — usually
//! the [`crate::supervisor`] — can decide between retry, respawn and
//! giving the failure back to the engine.

use std::fmt;
use std::time::Duration;

/// Result alias used across `scidl-comm`.
pub type CommResult<T> = Result<T, CommError>;

/// Why a communication operation failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CommError {
    /// The peer's channel is closed: its thread exited or crashed.
    ChannelClosed {
        /// Which link failed (e.g. `"PS update"`, `"ring neighbour"`).
        context: &'static str,
    },
    /// No reply arrived before the deadline; the peer may be hung.
    Timeout {
        /// Which link timed out.
        context: &'static str,
        /// How long the caller waited.
        waited: Duration,
    },
    /// A buffer had the wrong length for the target shard.
    SizeMismatch {
        /// Which operation was rejected.
        context: &'static str,
        /// Length the shard expects.
        expected: usize,
        /// Length the caller supplied.
        got: usize,
    },
    /// A supervised operation failed even after respawn + retry.
    RetriesExhausted {
        /// Which operation gave up.
        context: &'static str,
        /// Attempts made (including the first).
        attempts: u32,
    },
    /// A peer thread panicked (observed at join time).
    ServerPanicked {
        /// Which server panicked.
        context: &'static str,
    },
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::ChannelClosed { context } => {
                write!(f, "{context}: peer channel closed (thread gone)")
            }
            Self::Timeout { context, waited } => {
                write!(f, "{context}: no reply within {waited:?}")
            }
            Self::SizeMismatch {
                context,
                expected,
                got,
            } => {
                write!(
                    f,
                    "{context}: length {got} does not match shard length {expected}"
                )
            }
            Self::RetriesExhausted { context, attempts } => {
                write!(
                    f,
                    "{context}: failed after {attempts} attempts (respawns included)"
                )
            }
            Self::ServerPanicked { context } => write!(f, "{context}: server thread panicked"),
        }
    }
}

impl std::error::Error for CommError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = CommError::SizeMismatch {
            context: "PS update",
            expected: 4,
            got: 3,
        };
        assert!(e.to_string().contains("PS update"));
        assert!(e.to_string().contains('3') && e.to_string().contains('4'));
        let t = CommError::Timeout {
            context: "PS fetch",
            waited: Duration::from_millis(5),
        };
        assert!(t.to_string().contains("PS fetch"));
    }
}
