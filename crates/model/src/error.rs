//! Error type for model construction.

use core::fmt;

use ringrt_units::Seconds;

/// Errors raised when constructing or validating model objects.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ModelError {
    /// A stream period was not finite and strictly positive.
    InvalidPeriod {
        /// Index of the offending stream within the candidate set.
        index: usize,
        /// The rejected period value in seconds.
        period_secs: f64,
    },
    /// A relative deadline was outside `(0, period]`.
    InvalidDeadline {
        /// The rejected deadline in seconds.
        deadline_secs: f64,
        /// The stream's period in seconds.
        period_secs: f64,
    },
    /// A stream payload length was zero bits.
    EmptyMessage {
        /// Index of the offending stream within the candidate set.
        index: usize,
    },
    /// The message set was empty.
    EmptySet,
    /// A ring parameter was out of range.
    InvalidRing {
        /// Name of the offending parameter.
        parameter: &'static str,
        /// Human-readable description of the violation.
        reason: String,
    },
    /// A frame format parameter was out of range.
    InvalidFrame {
        /// Name of the offending parameter.
        parameter: &'static str,
        /// Human-readable description of the violation.
        reason: String,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::InvalidPeriod { index, period_secs } => write!(
                f,
                "stream {index} has invalid period {period_secs} s (must be finite and positive)"
            ),
            ModelError::InvalidDeadline {
                deadline_secs,
                period_secs,
            } => write!(
                f,
                "relative deadline must satisfy 0 < D ≤ P (D = {}, P = {})",
                Seconds::new(*deadline_secs),
                Seconds::new(*period_secs)
            ),
            ModelError::EmptyMessage { index } => {
                write!(f, "stream {index} has a zero-length message")
            }
            ModelError::EmptySet => write!(f, "message set contains no streams"),
            ModelError::InvalidRing { parameter, reason } => {
                write!(f, "invalid ring parameter `{parameter}`: {reason}")
            }
            ModelError::InvalidFrame { parameter, reason } => {
                write!(f, "invalid frame parameter `{parameter}`: {reason}")
            }
        }
    }
}

impl std::error::Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = ModelError::InvalidPeriod {
            index: 3,
            period_secs: -1.0,
        };
        assert!(e.to_string().contains("stream 3"));
        assert!(ModelError::EmptySet.to_string().contains("no streams"));
        let e = ModelError::InvalidRing {
            parameter: "stations",
            reason: "must be at least 1".into(),
        };
        assert!(e.to_string().contains("stations"));
    }

    #[test]
    fn is_std_error() {
        fn assert_err<E: std::error::Error + Send + Sync>() {}
        assert_err::<ModelError>();
    }
}
