//! Library half of the `ringrt` command-line tool.
//!
//! The binary (`src/main.rs`) is a thin shell around this module so every
//! piece — message-set file parsing, argument handling, command execution —
//! is unit-testable.
//!
//! # Message-set file format
//!
//! One stream per line: `period_ms <whitespace-or-comma> payload_bits`.
//! Blank lines and `#` comments are ignored.
//!
//! ```text
//! # period_ms, payload_bits
//! 20,  20000
//! 50,  60000
//! 100, 120000
//! ```
//!
//! # Commands
//!
//! ```text
//! ringrt check    <set-file> --mbps <N> [--protocol 802.5|modified|fddi] [--stations N]
//! ringrt simulate <set-file> --mbps <N> [--protocol ...] [--seconds S] [--async-load X] [--seed N]
//! ringrt sweep    <set-file> --mbps <N>[,<N>...]   # headroom of all three protocols
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod args;
mod commands;

pub use args::{Cli, Command, OutputFormat, RegistryAction};
pub use commands::run;
// The set-file parser lives in `ringrt-model` (shared with the admission
// service's wire protocol); re-exported here for backward compatibility.
pub use ringrt_model::{parse_message_set, ParseSetError};

/// Process exit codes: 0 = schedulable / success, 1 = unschedulable,
/// 2 = usage or input error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExitCode {
    /// The requested check passed (or the command has no verdict).
    Success,
    /// The analysis or simulation found the set unschedulable.
    Unschedulable,
    /// Bad arguments or unreadable/invalid input file.
    UsageError,
}

impl ExitCode {
    /// The numeric process exit code.
    #[must_use]
    pub fn code(self) -> i32 {
        match self {
            ExitCode::Success => 0,
            ExitCode::Unschedulable => 1,
            ExitCode::UsageError => 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes() {
        assert_eq!(ExitCode::Success.code(), 0);
        assert_eq!(ExitCode::Unschedulable.code(), 1);
        assert_eq!(ExitCode::UsageError.code(), 2);
    }
}
