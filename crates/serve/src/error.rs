//! Typed errors for the serving layer.

use pse_store::StoreError;
use pse_wal::WalError;

/// Why a serve-layer operation failed.
#[derive(Debug)]
pub enum ServeError {
    /// A socket operation failed.
    Io(std::io::Error),
    /// The client sent something that is not a well-formed HTTP/1.1
    /// request, or a body that is not valid JSON for the endpoint.
    BadRequest(String),
    /// The request body exceeded the configured size cap.
    RequestTooLarge {
        /// Bytes the client tried to send (as far as we read).
        got: usize,
        /// The configured cap.
        cap: usize,
    },
    /// An underlying store operation failed (snapshot restore, …).
    Store(StoreError),
    /// The server did not respond with a parseable HTTP status line.
    BadResponse(String),
    /// The durability layer failed (WAL append, snapshot write, recovery).
    Durability(WalError),
    /// The [`crate::ServerConfig`] contradicts itself; the server did
    /// not start.
    BadConfig(String),
}

impl ServeError {
    /// The stable machine-readable code the JSON error envelope carries
    /// for this error. Codes are part of the wire contract (pinned by
    /// the socket tests): renaming one is an API break.
    pub fn code(&self) -> &'static str {
        match self {
            Self::Io(_) => "io_error",
            Self::BadRequest(_) => "bad_request",
            Self::RequestTooLarge { .. } => "request_too_large",
            Self::Store(e) => store_error_code(e),
            Self::BadResponse(_) => "bad_response",
            Self::Durability(_) => "durability_failed",
            Self::BadConfig(_) => "bad_config",
        }
    }
}

/// The stable envelope code for a store-layer failure.
pub fn store_error_code(e: &StoreError) -> &'static str {
    match e {
        StoreError::Json(_) => "store_bad_json",
        StoreError::UnsupportedVersion { .. } => "store_unsupported_version",
        StoreError::CorruptSnapshot(_) => "store_corrupt_snapshot",
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "io error: {e}"),
            Self::BadRequest(msg) => write!(f, "bad request: {msg}"),
            Self::RequestTooLarge { got, cap } => {
                write!(f, "request too large: {got} bytes exceeds cap of {cap}")
            }
            Self::Store(e) => write!(f, "store error: {e}"),
            Self::BadResponse(msg) => write!(f, "bad response: {msg}"),
            Self::Durability(e) => write!(f, "durability error: {e}"),
            Self::BadConfig(msg) => write!(f, "bad server config: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            Self::Store(e) => Some(e),
            Self::Durability(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<StoreError> for ServeError {
    fn from(e: StoreError) -> Self {
        Self::Store(e)
    }
}

impl From<WalError> for ServeError {
    fn from(e: WalError) -> Self {
        Self::Durability(e)
    }
}
