//! A MongoDB-like in-process document store.
//!
//! DataBlinder "employed document-oriented databases, e.g., MongoDB and
//! Elasticsearch, to store documents and indexes" (§4.3). This substrate
//! reproduces the slice of that functionality the middleware needs:
//! collections of schemaless documents, id lookup, field filters
//! (equality / range / boolean combinations) and secondary indexes.
//!
//! The cloud side of DataBlinder stores only *encrypted* field values here;
//! plaintext filters exist so the `S_A` baseline scenario (no protection)
//! can run against the very same store.
//!
//! # Examples
//!
//! ```
//! use datablinder_docstore::{DocStore, Document, Filter, Value};
//!
//! let store = DocStore::new();
//! let coll = store.collection("observations");
//! let mut doc = Document::new("obs-1");
//! doc.set("status", Value::from("final"));
//! coll.insert(doc).unwrap();
//! let hits = coll.find(&Filter::eq("status", Value::from("final")));
//! assert_eq!(hits.len(), 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
mod collection;
mod filter;
mod value;

pub use collection::{Collection, Cursor, DocStore, Names};
pub use filter::Filter;
pub use value::{Document, FieldName, Value};

/// Errors produced by the document store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DocStoreError {
    /// Insert with an id that already exists.
    DuplicateId(String),
    /// Update/delete of an id that does not exist.
    NotFound(String),
}

impl std::fmt::Display for DocStoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DocStoreError::DuplicateId(id) => write!(f, "document id already exists: {id}"),
            DocStoreError::NotFound(id) => write!(f, "document not found: {id}"),
        }
    }
}

impl std::error::Error for DocStoreError {}
