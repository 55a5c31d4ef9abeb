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
//!
//! A message handler that reads two integers out of a payload, or writes a
//! message once and drops it, has no use for the value in between:
//! [`proto::Reader`] and [`proto::Writer`] stream the same bytes under the
//! same checks, field by field, without building it.
//!
//! ```
//! # use dup_wire::{Schema, MessageDescriptor, FieldDescriptor, FieldType};
//! use dup_wire::proto::{Reader, ValueRef, Writer};
//!
//! # let schema = Schema::new().with_message(
//! #     MessageDescriptor::new("Checkpoint")
//! #         .with(FieldDescriptor::required(1, "term", FieldType::Uint64)),
//! # );
//! let mut bytes = Vec::new();
//! let mut checkpoint = Writer::new(&schema, "Checkpoint", &mut bytes)?;
//! checkpoint.put("term", ValueRef::U64(7))?;
//! checkpoint.finish()?;
//!
//! let mut term = 0;
//! let mut fields = Reader::new(&schema, "Checkpoint", &bytes)?;
//! while let Some((field, value)) = fields.next()? {
//!     if let ("term", ValueRef::U64(v)) = (field.name.as_str(), value) {
//!         term = v;
//!     }
//! }
//! assert_eq!(term, 7);
//! # Ok::<(), dup_wire::WireError>(())
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
