//! The middleware error type.

use datablinder_netsim::{NetError, Refusal};

use crate::model::{FieldOp, ProtectionClass};

/// Errors surfaced by the DataBlinder middleware.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// No admissible tactic combination exists for an annotation.
    PolicyUnsatisfiable {
        /// The field that cannot be served.
        field: String,
        /// Its requested class.
        class: ProtectionClass,
        /// The operation no tactic can serve within the class.
        op: FieldOp,
    },
    /// A document does not conform to its schema.
    SchemaViolation(String),
    /// The schema is not registered.
    UnknownSchema(String),
    /// The field is not part of the schema or lacks the needed annotation.
    UnsupportedOperation(String),
    /// A document id was not found.
    NotFound(String),
    /// A write contradicts state the cloud already holds: a duplicate
    /// document id, an index address holding another entry, a second key
    /// for one scope.
    Conflict(String),
    /// Wire (de)serialization failure.
    Wire(&'static str),
    /// Failure crossing the gateway↔cloud channel. Kept structured so
    /// callers can distinguish transient transport faults (worth retrying at
    /// a higher level or surfacing as "try again") from remote failures.
    Net(NetError),
    /// An SSE tactic failed.
    Sse(String),
    /// A cryptographic primitive failed.
    Crypto(String),
    /// Cloud-side storage failed.
    Storage(String),
    /// Key management failure.
    Kms(String),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::PolicyUnsatisfiable { field, class, op } => {
                write!(f, "no tactic can serve op {op} on field {field} within protection class {class}")
            }
            CoreError::SchemaViolation(msg) => write!(f, "schema violation: {msg}"),
            CoreError::UnknownSchema(name) => write!(f, "unknown schema: {name}"),
            CoreError::UnsupportedOperation(msg) => write!(f, "unsupported operation: {msg}"),
            CoreError::NotFound(id) => write!(f, "document not found: {id}"),
            CoreError::Conflict(msg) => write!(f, "conflict: {msg}"),
            CoreError::Wire(what) => write!(f, "wire format error: {what}"),
            CoreError::Net(e) => write!(f, "channel error: {e}"),
            CoreError::Sse(e) => write!(f, "tactic error: {e}"),
            CoreError::Crypto(e) => write!(f, "crypto error: {e}"),
            CoreError::Storage(e) => write!(f, "storage error: {e}"),
            CoreError::Kms(e) => write!(f, "kms error: {e}"),
        }
    }
}

impl CoreError {
    /// Whether this failure is a transient transport condition that already
    /// exhausted the channel's retries — the caller may back off and try the
    /// whole operation again, nothing is known to be half-applied.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            CoreError::Net(
                NetError::Timeout | NetError::CircuitOpen | NetError::Unavailable(_) | NetError::Disconnected(_)
            )
        )
    }
}

impl std::error::Error for CoreError {}

impl From<datablinder_codec::Malformed> for CoreError {
    fn from(e: datablinder_codec::Malformed) -> Self {
        CoreError::Wire(e.0)
    }
}

impl From<datablinder_sse::SseError> for CoreError {
    fn from(e: datablinder_sse::SseError) -> Self {
        match e {
            datablinder_sse::SseError::AddressTaken => CoreError::Conflict(e.to_string()),
            e => CoreError::Sse(e.to_string()),
        }
    }
}

impl From<datablinder_primitives::CryptoError> for CoreError {
    fn from(e: datablinder_primitives::CryptoError) -> Self {
        CoreError::Crypto(e.to_string())
    }
}

/// A cloud's refusal is the one error that comes back as itself: a
/// missing document is [`CoreError::NotFound`] whichever cloud answered.
impl From<NetError> for CoreError {
    fn from(e: NetError) -> Self {
        match e {
            NetError::Remote(Refusal::NotFound, id) => CoreError::NotFound(id),
            e => CoreError::Net(e),
        }
    }
}

/// How a cloud refuses a request: the kind crosses the wire as one byte,
/// the message after it. A refusal with no kind of its own (a tactic's or
/// a schema's) is unsupported, and keeps its whole text.
impl From<CoreError> for NetError {
    fn from(e: CoreError) -> Self {
        match e {
            CoreError::NotFound(id) => NetError::Remote(Refusal::NotFound, id),
            CoreError::Conflict(msg) => NetError::Remote(Refusal::Conflict, msg),
            CoreError::Wire(what) => NetError::Remote(Refusal::Wire, what.into()),
            CoreError::UnsupportedOperation(msg) => NetError::Remote(Refusal::Unsupported, msg),
            CoreError::Storage(msg) => NetError::Remote(Refusal::Storage, msg),
            e => NetError::Remote(Refusal::Unsupported, e.to_string()),
        }
    }
}

impl From<datablinder_docstore::DocStoreError> for CoreError {
    fn from(e: datablinder_docstore::DocStoreError) -> Self {
        match e {
            datablinder_docstore::DocStoreError::NotFound(id) => CoreError::NotFound(id),
            e => CoreError::Conflict(e.to_string()),
        }
    }
}

impl From<datablinder_kvstore::KvError> for CoreError {
    fn from(e: datablinder_kvstore::KvError) -> Self {
        CoreError::Storage(e.to_string())
    }
}

impl From<datablinder_kms::KmsError> for CoreError {
    fn from(e: datablinder_kms::KmsError) -> Self {
        CoreError::Kms(e.to_string())
    }
}

impl From<datablinder_paillier::PaillierError> for CoreError {
    fn from(e: datablinder_paillier::PaillierError) -> Self {
        CoreError::Crypto(e.to_string())
    }
}
