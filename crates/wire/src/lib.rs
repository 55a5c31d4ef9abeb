//! # dup-wire — schema-driven serialization runtime
//!
//! A from-scratch implementation of the two serialization-library wire
//! formats that dominate the paper's data-syntax incompatibility study
//! (§4.1.1, §6.2):
//!
//! - [`proto`] — a Protocol-Buffers-compatible tag/varint format with
//!   proto2 `required`/`optional`/`repeated` semantics;
//! - [`thrift`] — a Thrift-like binary format (type byte + field id + stop
//!   byte) over the same runtime [`Schema`];
//! - [`Frame`] — a versioned message envelope implementing the paper's
//!   "version id in every message" good practice.
//!
//! Schemas are *runtime values*, so two versions of a system can each carry
//! their own [`Schema`] and genuinely disagree about the same bytes — the
//! mechanism behind HBASE-25238, HDFS-14726, HDFS-15624, and every other
//! serialization-library incompatibility the tools detect.
//!
//! # Examples
//!
//! ```
//! use dup_wire::{Schema, MessageDescriptor, FieldDescriptor, FieldType, MessageValue, Value, proto};
//!
//! let schema = Schema::new().with_message(
//!     MessageDescriptor::new("Checkpoint")
//!         .with(FieldDescriptor::required(1, "term", FieldType::Uint64)),
//! );
//! let value = MessageValue::new("Checkpoint").set("term", Value::U64(7));
//! let bytes = proto::encode(&schema, &value).unwrap();
//! let back = proto::decode(&schema, "Checkpoint", &bytes).unwrap();
//! assert_eq!(back.get_u64("term").unwrap(), 7);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod frame;
pub mod proto;
mod schema;
mod slots;
pub mod thrift;
mod value;
mod varint;

pub use crate::error::{WireError, MAX_NESTING_DEPTH};
pub use crate::frame::Frame;
pub use crate::schema::{
    EnumDescriptor, FieldDescriptor, FieldType, Label, MessageDescriptor, Schema,
};
pub use crate::value::{MessageValue, Value};
pub use crate::varint::{decode_varint, encode_varint, zigzag_decode, zigzag_encode};
