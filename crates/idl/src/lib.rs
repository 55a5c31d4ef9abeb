//! # dup-idl — IDL parsers for the DUPChecker schema languages
//!
//! Parsers for the two declarative serialization languages the paper's
//! static checker reads (§6.2): a proto2 subset ([`parse_proto`]) and a
//! Thrift subset ([`parse_thrift`]). Both produce the same [`IdlFile`] AST,
//! which preserves declaration order, `reserved` statements, and source
//! spans — the raw material of the four compatibility rules.
//!
//! [`lower`] converts an AST into a runtime [`dup_wire::Schema`], and
//! [`SchemaHistory`] maps each release of a mini system to the checked-in
//! `.proto` text of the format it runs: the protocol text the checker
//! analyzes statically is the text the miniature systems *execute*.
//!
//! # Examples
//!
//! ```
//! let file = dup_idl::parse_proto(r#"
//!     message ReplicationLoadSink {
//!         required uint64 ageOfLastAppliedOp = 1;
//!     }
//! "#).unwrap();
//! assert_eq!(file.message("ReplicationLoadSink").unwrap().fields.len(), 1);
//! let schema = dup_idl::lower(&file).unwrap();
//! assert!(schema.message("ReplicationLoadSink").is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ast;
mod history;
mod lexer;
mod lower;
mod proto_parser;
mod thrift_parser;

pub use crate::ast::{
    EnumDecl, EnumValueDecl, FieldDecl, FieldLabel, IdlFile, MessageDecl, SyntaxKind,
};
pub use crate::history::SchemaHistory;
pub use crate::lexer::{ParseError, Span};
pub use crate::lower::lower;
pub use crate::proto_parser::parse_proto;
pub use crate::thrift_parser::parse_thrift;
