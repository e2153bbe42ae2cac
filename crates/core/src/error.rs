//! Engine error type.

/// Reasons the incremental engine can reject a configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InkError {
    /// The model contains an exact GraphNorm layer — its whole-vertex-set
    /// statistics contradict incremental updates. Capture statistics with a
    /// full inference and freeze them (paper §II-E).
    ExactGraphNorm,
    /// The feature matrix does not match the model input or the graph size.
    ShapeMismatch {
        /// Human-readable description of the mismatch.
        detail: String,
    },
    /// A vertex id outside the graph was referenced.
    UnknownVertex(ink_graph::VertexId),
    /// A checkpoint stream did not start with the expected magic bytes.
    BadMagic,
    /// A checkpoint stream ended before all declared data arrived.
    Truncated,
    /// A checkpoint stream is structurally invalid (e.g. a matrix header
    /// whose element count overflows, or an unloadable graph section).
    Corrupt {
        /// Human-readable description of what was malformed.
        detail: String,
    },
    /// An underlying I/O failure that is not a truncation (disk error,
    /// connection reset, permissions).
    Io {
        /// The rendered `std::io::Error`.
        detail: String,
    },
}

impl InkError {
    /// Classifies an `io::Error` raised while reading a checkpoint stream:
    /// unexpected EOF means the file was cut short, `InvalidData` means a
    /// section parser rejected its bytes, anything else is a real I/O fault.
    pub fn from_read_error(e: std::io::Error) -> InkError {
        match e.kind() {
            std::io::ErrorKind::UnexpectedEof => InkError::Truncated,
            std::io::ErrorKind::InvalidData => InkError::Corrupt { detail: e.to_string() },
            _ => InkError::Io { detail: e.to_string() },
        }
    }
}

impl std::fmt::Display for InkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InkError::ExactGraphNorm => write!(
                f,
                "model uses exact GraphNorm; freeze cached statistics before incremental updates"
            ),
            InkError::ShapeMismatch { detail } => write!(f, "shape mismatch: {detail}"),
            InkError::UnknownVertex(v) => write!(f, "unknown vertex {v}"),
            InkError::BadMagic => write!(f, "not an InkStream checkpoint (bad magic)"),
            InkError::Truncated => write!(f, "checkpoint truncated: stream ended mid-section"),
            InkError::Corrupt { detail } => write!(f, "corrupt checkpoint: {detail}"),
            InkError::Io { detail } => write!(f, "checkpoint I/O error: {detail}"),
        }
    }
}

impl std::error::Error for InkError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        assert!(InkError::ExactGraphNorm.to_string().contains("GraphNorm"));
        assert!(InkError::ShapeMismatch { detail: "x".into() }.to_string().contains("x"));
        assert!(InkError::UnknownVertex(9).to_string().contains('9'));
        assert!(InkError::BadMagic.to_string().contains("magic"));
        assert!(InkError::Truncated.to_string().contains("truncated"));
        assert!(InkError::Corrupt { detail: "why".into() }.to_string().contains("why"));
        assert!(InkError::Io { detail: "disk".into() }.to_string().contains("disk"));
    }

    #[test]
    fn read_errors_classify_by_kind() {
        use std::io::{Error, ErrorKind};
        assert_eq!(
            InkError::from_read_error(Error::new(ErrorKind::UnexpectedEof, "eof")),
            InkError::Truncated
        );
        assert!(matches!(
            InkError::from_read_error(Error::new(ErrorKind::InvalidData, "bad")),
            InkError::Corrupt { .. }
        ));
        assert!(matches!(
            InkError::from_read_error(Error::new(ErrorKind::PermissionDenied, "no")),
            InkError::Io { .. }
        ));
    }
}
