//! Recursive-descent parser for the Thrift subset DUPChecker reads.
//!
//! Supported constructs: `namespace`, `include` (skipped), `struct` with
//! numbered fields (`1: required string name,`), `required`/`optional`
//! qualifiers (default-requiredness maps to `optional`, matching Thrift's
//! "default requiredness" behaviour on the read path), `list<T>`/`set<T>` as
//! repeated fields, `map<K,V>` (recorded with a synthetic type name),
//! `enum` with explicit or auto-incremented numbers, `typedef` (recorded as
//! an alias and resolved textually), and `const` (skipped).

use crate::ast::{
    EnumDecl, EnumValueDecl, FieldDecl, FieldLabel, IdlFile, MessageDecl, SyntaxKind,
};
use crate::lexer::{check_nesting, Cursor, ParseError, TokenKind};
use std::collections::BTreeMap;

/// Parses Thrift source text.
pub fn parse_thrift(input: &str) -> Result<IdlFile, ParseError> {
    let mut p = Parser {
        cur: Cursor::new(input)?,
        typedefs: BTreeMap::new(),
    };
    p.file()
}

struct Parser<'a> {
    cur: Cursor<'a>,
    typedefs: BTreeMap<&'a str, String>,
}

impl Parser<'_> {
    fn file(&mut self) -> Result<IdlFile, ParseError> {
        let mut file = IdlFile {
            syntax: SyntaxKind::Thrift,
            package: None,
            messages: Vec::new(),
            enums: Vec::new(),
        };
        loop {
            let t = self.cur.peek();
            match t.kind {
                TokenKind::Eof => break,
                TokenKind::Ident(word) => match word {
                    "namespace" => {
                        self.cur.advance();
                        self.cur.eat_ident()?; // Language tag (`java`, `cpp`, …).
                        file.package = Some(self.cur.eat_ident()?.0.to_string());
                    }
                    "include" => {
                        self.cur.advance();
                        self.cur.advance(); // The string literal.
                    }
                    "typedef" => {
                        self.cur.advance();
                        let (target, _) = self.read_type(1)?;
                        let (alias, _) = self.cur.eat_ident()?;
                        self.typedefs.insert(alias, target);
                    }
                    "const" => {
                        // `const <type> NAME = value` — values can be
                        // literals or simple lists; skip to end of line by
                        // consuming until the next top-level keyword. We
                        // conservatively consume `<type> NAME = <one token>`.
                        self.cur.advance();
                        self.read_type(1)?;
                        self.cur.eat_ident()?;
                        self.cur.eat_punct('=')?;
                        self.cur.advance();
                    }
                    "struct" | "union" | "exception" => {
                        self.cur.advance();
                        let m = self.struct_decl()?;
                        file.messages.push(m);
                    }
                    "enum" => {
                        self.cur.advance();
                        let e = self.enum_decl()?;
                        file.enums.push(e);
                    }
                    "service" => self.skip_braced_block()?,
                    other => {
                        return Err(ParseError::new(
                            t.span,
                            format!("unexpected top-level keyword '{other}'"),
                        ));
                    }
                },
                other => return Err(ParseError::new(t.span, format!("unexpected {other}"))),
            }
        }
        Ok(file)
    }

    fn skip_braced_block(&mut self) -> Result<(), ParseError> {
        // `service Name { ... }` — skip the whole body.
        let start = self.cur.peek().span;
        while !self.cur.at_punct('{') {
            if self.cur.peek().kind == TokenKind::Eof {
                return Err(ParseError::new(start, "expected '{'"));
            }
            self.cur.advance();
        }
        let mut depth = 0i32;
        loop {
            match self.cur.advance().kind {
                TokenKind::Punct('{') => depth += 1,
                TokenKind::Punct('}') => {
                    depth -= 1;
                    if depth == 0 {
                        return Ok(());
                    }
                }
                TokenKind::Eof => return Err(ParseError::new(start, "unterminated block")),
                _ => {}
            }
        }
    }

    /// Reads a type expression `depth` containers deep (1 at a field);
    /// returns `(base type name, is_repeated)`.
    fn read_type(&mut self, depth: usize) -> Result<(String, bool), ParseError> {
        let (name, span) = self.cur.eat_ident()?;
        check_nesting(depth, span, "types")?;
        match name {
            "list" | "set" => {
                self.cur.eat_punct('<')?;
                let (inner, _) = self.read_type(depth + 1)?;
                self.cur.eat_punct('>')?;
                Ok((inner, true))
            }
            "map" => {
                self.cur.eat_punct('<')?;
                let (k, _) = self.read_type(depth + 1)?;
                self.cur.eat_punct(',')?;
                let (v, _) = self.read_type(depth + 1)?;
                self.cur.eat_punct('>')?;
                Ok((format!("map<{k},{v}>"), true))
            }
            _ => {
                let resolved = self.typedefs.get(name).map_or(name, String::as_str);
                Ok((resolved.to_string(), false))
            }
        }
    }

    fn struct_decl(&mut self) -> Result<MessageDecl, ParseError> {
        let (name, decl_span) = self.cur.eat_ident()?;
        self.cur.eat_punct('{')?;
        let mut fields = Vec::new();
        loop {
            let t = self.cur.peek();
            match t.kind {
                TokenKind::Punct('}') => {
                    self.cur.advance();
                    break;
                }
                TokenKind::Eof => {
                    return Err(ParseError::new(
                        decl_span,
                        format!("unterminated struct {name}"),
                    ));
                }
                TokenKind::Int(id) => {
                    let span = t.span;
                    self.cur.advance();
                    let tag = u32::try_from(id)
                        .map_err(|_| ParseError::new(span, format!("invalid field id {id}")))?;
                    self.cur.eat_punct(':')?;
                    let mut label = FieldLabel::Optional;
                    if self.cur.is_ident("required") {
                        self.cur.advance();
                        label = FieldLabel::Required;
                    } else if self.cur.is_ident("optional") {
                        self.cur.advance();
                    }
                    let (type_name, repeated) = self.read_type(1)?;
                    if repeated {
                        label = FieldLabel::Repeated;
                    }
                    let (fname, _) = self.cur.eat_ident()?;
                    let mut default = None;
                    if self.cur.at_punct('=') {
                        self.cur.advance();
                        default = Some(match self.cur.advance().kind {
                            TokenKind::Ident(s) | TokenKind::Str(s) => s.to_string(),
                            TokenKind::Int(v) => v.to_string(),
                            other => {
                                return Err(ParseError::new(
                                    span,
                                    format!("bad default value: {other}"),
                                ))
                            }
                        });
                    }
                    // Field separators are optional in thrift (`,` or `;`).
                    if self.cur.at_punct(',') || self.cur.at_punct(';') {
                        self.cur.advance();
                    }
                    fields.push(FieldDecl {
                        label,
                        type_name,
                        name: fname.to_string(),
                        tag,
                        default,
                        span,
                    });
                }
                other => {
                    return Err(ParseError::new(
                        t.span,
                        format!("expected field id or '}}' in struct {name}, found {other}"),
                    ));
                }
            }
        }
        Ok(MessageDecl {
            name: name.to_string(),
            fields,
            reserved_tags: Vec::new(),
            reserved_names: Vec::new(),
            span: decl_span,
        })
    }

    fn enum_decl(&mut self) -> Result<EnumDecl, ParseError> {
        let (name, decl_span) = self.cur.eat_ident()?;
        self.cur.eat_punct('{')?;
        let mut values = Vec::new();
        // `None` once the previous value was `i32::MAX`.
        let mut next_number = Some(0i32);
        loop {
            let t = self.cur.peek();
            match t.kind {
                TokenKind::Punct('}') => {
                    self.cur.advance();
                    break;
                }
                TokenKind::Eof => {
                    return Err(ParseError::new(
                        decl_span,
                        format!("unterminated enum {name}"),
                    ));
                }
                TokenKind::Ident(vname) => {
                    self.cur.advance();
                    let number = if self.cur.at_punct('=') {
                        self.cur.advance();
                        let (v, nspan) = self.cur.eat_int()?;
                        i32::try_from(v)
                            .map_err(|_| ParseError::new(nspan, "enum number out of range"))?
                    } else {
                        next_number
                            .ok_or_else(|| ParseError::new(t.span, "enum number out of range"))?
                    };
                    next_number = number.checked_add(1);
                    if self.cur.at_punct(',') || self.cur.at_punct(';') {
                        self.cur.advance();
                    }
                    values.push(EnumValueDecl {
                        name: vname.to_string(),
                        number,
                        span: t.span,
                    });
                }
                other => {
                    return Err(ParseError::new(
                        t.span,
                        format!("unexpected {other} in enum {name}"),
                    ));
                }
            }
        }
        Ok(EnumDecl {
            name: name.to_string(),
            values,
            span: decl_span,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::MAX_NESTING;

    const SCAN: &str = r#"
        namespace java org.apache.accumulo.core
        include "shared.thrift"

        typedef i64 ScanID

        struct ScanResult {
            1: required ScanID scanId,
            2: optional i32 more;
            3: list<string> results
            4: bool partial
        }

        enum ScanType { SINGLE, BATCH = 5, RESUMED }
    "#;

    #[test]
    fn parses_struct_with_typedef_and_collections() {
        let file = parse_thrift(SCAN).unwrap();
        assert_eq!(file.package.as_deref(), Some("org.apache.accumulo.core"));
        let m = file.message("ScanResult").unwrap();
        assert_eq!(m.fields.len(), 4);
        // typedef resolved.
        assert_eq!(m.field("scanId").unwrap().type_name, "i64");
        assert_eq!(m.field("scanId").unwrap().label, FieldLabel::Required);
        // list<T> becomes repeated T.
        assert_eq!(m.field("results").unwrap().label, FieldLabel::Repeated);
        assert_eq!(m.field("results").unwrap().type_name, "string");
        // Default requiredness maps to optional.
        assert_eq!(m.field("partial").unwrap().label, FieldLabel::Optional);
    }

    #[test]
    fn enum_auto_increment_matches_thrift_semantics() {
        let file = parse_thrift(SCAN).unwrap();
        let e = file.enum_decl("ScanType").unwrap();
        let nums: Vec<_> = e
            .values
            .iter()
            .map(|v| (v.name.as_str(), v.number))
            .collect();
        assert_eq!(nums, vec![("SINGLE", 0), ("BATCH", 5), ("RESUMED", 6)]);
    }

    #[test]
    fn map_fields_get_synthetic_type_names() {
        let src = "struct M { 1: map<string, i64> counts }";
        let file = parse_thrift(src).unwrap();
        let f = &file.message("M").unwrap().fields[0];
        assert_eq!(f.type_name, "map<string,i64>");
        assert_eq!(f.label, FieldLabel::Repeated);
    }

    #[test]
    fn services_and_consts_are_skipped() {
        let src = r#"
            const i32 VERSION = 9
            service TabletServer {
                void ping(1: i64 tid)
            }
            struct Keep { 1: i32 x }
        "#;
        let file = parse_thrift(src).unwrap();
        assert!(file.message("Keep").is_some());
        assert_eq!(file.messages.len(), 1);
    }

    #[test]
    fn defaults_are_recorded() {
        let src = "struct M { 1: i32 retries = 3, 2: string mode = \"fast\" }";
        let file = parse_thrift(src).unwrap();
        let m = file.message("M").unwrap();
        assert_eq!(m.field("retries").unwrap().default.as_deref(), Some("3"));
        assert_eq!(m.field("mode").unwrap().default.as_deref(), Some("fast"));
    }

    #[test]
    fn union_and_exception_parse_as_messages() {
        let src = "union U { 1: i32 a } exception E { 1: string msg }";
        let file = parse_thrift(src).unwrap();
        assert!(file.message("U").is_some());
        assert!(file.message("E").is_some());
    }

    #[test]
    fn rejects_malformed_structs() {
        assert!(parse_thrift("struct M { x: i32 }").is_err());
        assert!(parse_thrift("struct M { 1: }").is_err());
        assert!(parse_thrift("struct M { 1: i32 x").is_err());
    }

    /// A field whose type is `depth` levels deep: `depth - 1` lists around an `i32`.
    fn nested_lists(depth: usize) -> String {
        let (open, close) = ("list<".repeat(depth - 1), ">".repeat(depth - 1));
        format!("struct S {{ 1: {open}i32{close} xs }}")
    }

    #[test]
    fn type_nesting_is_bounded() {
        let file = parse_thrift(&nested_lists(MAX_NESTING)).unwrap();
        assert_eq!(file.messages[0].fields[0].type_name, "i32");
        let err = parse_thrift(&nested_lists(MAX_NESTING + 1)).unwrap_err();
        assert!(err.message.contains("nested deeper than 64"), "{err}");
        // Column of the innermost `i32`.
        assert_eq!((err.span.line, err.span.col), (1, 15 + 5 * 64));
        // Used to overflow the stack.
        let hostile = format!("struct S {{ 1: {}", "list<".repeat(200_000));
        assert!(parse_thrift(&hostile).is_err());
        assert!(parse_thrift(&hostile.replace("list<", "map<i32,")).is_err());
    }

    #[test]
    fn enum_auto_increment_is_checked() {
        let file = parse_thrift("enum E { A = 2147483646, B }").unwrap();
        assert_eq!(file.enums[0].values[1].number, i32::MAX);
        // An explicit number after the maximum needs no increment.
        assert!(parse_thrift("enum E { A = 2147483647, B = 1 }").is_ok());
        // Used to panic in debug and wrap to `i32::MIN` in release.
        let err = parse_thrift("enum E { A = 2147483647, B }").unwrap_err();
        assert_eq!(err.message, "enum number out of range");
        assert_eq!((err.span.line, err.span.col), (1, 26));
    }
}
