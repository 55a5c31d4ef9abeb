//! Wire-format errors.
//!
//! These are the *observable symptoms* of cross-version data-syntax
//! incompatibility (paper §4.1.1): a new decoder failing to find a required
//! field written by an old encoder surfaces as [`WireError::MissingRequired`],
//! an enum index shifted by a mid-enum insertion surfaces as
//! [`WireError::UnknownEnumValue`], and so on.

use std::fmt;

/// Deepest message nesting the decoders follow. Each level is a stack frame,
/// so a schema that refers to itself would otherwise let a small hostile
/// payload overflow the stack — which no `catch_unwind` contains.
pub const MAX_NESTING_DEPTH: usize = 64;

/// Errors raised while encoding or decoding wire data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Input ended in the middle of a value.
    Truncated,
    /// A varint exceeded 10 bytes.
    VarintOverflow,
    /// A field key had an invalid or unsupported wire type.
    BadWireType {
        /// The raw wire-type bits.
        wire_type: u8,
        /// The tag they were attached to.
        tag: u32,
    },
    /// A `required` field was absent from the payload.
    MissingRequired {
        /// Message type being decoded or encoded.
        message: String,
        /// Name of the missing field.
        field: String,
    },
    /// A non-`repeated` field appeared with no value at encode time is fine,
    /// but a `required`/`optional` field was *given* more than one value.
    TooManyValues {
        /// Message type.
        message: String,
        /// Field name.
        field: String,
    },
    /// A decoded enum value is not a member of the enum.
    UnknownEnumValue {
        /// Enum type name.
        enum_name: String,
        /// The out-of-range numeric value.
        value: i32,
    },
    /// The payload's wire type does not match the field's declared type.
    TypeMismatch {
        /// Message type.
        message: String,
        /// Field name.
        field: String,
        /// Human-readable description of the mismatch.
        detail: String,
    },
    /// The value supplied for a field does not match its declared type.
    ValueType {
        /// Message type.
        message: String,
        /// Field name.
        field: String,
    },
    /// A message or enum type referenced by a descriptor is not in the schema.
    UnknownType(String),
    /// The message type requested for encode/decode is not in the schema.
    UnknownMessage(String),
    /// The payload nests messages deeper than [`MAX_NESTING_DEPTH`].
    NestingTooDeep,
    /// The value carries a field name the descriptor does not declare.
    UnknownField {
        /// Message type.
        message: String,
        /// The undeclared field name.
        field: String,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "input truncated"),
            WireError::VarintOverflow => write!(f, "varint longer than 10 bytes"),
            WireError::BadWireType { wire_type, tag } => {
                write!(f, "invalid wire type {wire_type} for tag {tag}")
            }
            WireError::MissingRequired { message, field } => {
                write!(f, "message {message} is missing required field '{field}'")
            }
            WireError::TooManyValues { message, field } => {
                write!(
                    f,
                    "non-repeated field {message}.{field} given multiple values"
                )
            }
            WireError::UnknownEnumValue { enum_name, value } => {
                write!(f, "value {value} is not a member of enum {enum_name}")
            }
            WireError::TypeMismatch {
                message,
                field,
                detail,
            } => {
                write!(f, "type mismatch decoding {message}.{field}: {detail}")
            }
            WireError::ValueType { message, field } => {
                write!(f, "value supplied for {message}.{field} has the wrong type")
            }
            WireError::UnknownType(name) => write!(f, "schema has no type named {name}"),
            WireError::UnknownMessage(name) => write!(f, "schema has no message named {name}"),
            WireError::NestingTooDeep => {
                write!(f, "messages nested deeper than {MAX_NESTING_DEPTH} levels")
            }
            WireError::UnknownField { message, field } => {
                write!(f, "message {message} declares no field named '{field}'")
            }
        }
    }
}

impl std::error::Error for WireError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_the_parties() {
        let e = WireError::MissingRequired {
            message: "ReplicationLoadSink".into(),
            field: "timestampStarted".into(),
        };
        let text = e.to_string();
        assert!(text.contains("ReplicationLoadSink"));
        assert!(text.contains("timestampStarted"));

        let e = WireError::UnknownEnumValue {
            enum_name: "StorageType".into(),
            value: 5,
        };
        assert!(e.to_string().contains("StorageType"));
    }
}
