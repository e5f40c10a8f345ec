//! Error type for DRAM substrate operations.

use std::error::Error;
use std::fmt;

/// Errors returned by DRAM configuration checks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DramError {
    /// A geometry parameter was zero or otherwise invalid.
    InvalidGeometry(String),
    /// A protocol timing parameter set was inconsistent (e.g. tRAS <
    /// tRCD), reported by checked [`crate::protocol::ProtocolTiming`]
    /// construction.
    InvalidTiming(String),
}

impl fmt::Display for DramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DramError::InvalidGeometry(msg) => write!(f, "invalid DRAM geometry: {msg}"),
            DramError::InvalidTiming(msg) => write!(f, "invalid DRAM timing: {msg}"),
        }
    }
}

impl Error for DramError {}
