//! Recursive-descent parser for the proto2 subset DUPChecker reads.
//!
//! Supported constructs: `syntax`, `package`, file- and message-level
//! `option` (skipped), `message` with nesting, `enum` (top-level and nested),
//! fields with `required`/`optional`/`repeated` labels, `[default = …]` and
//! other field options (recorded or skipped), `reserved` tags and names, and
//! `extensions` ranges (skipped). This covers every construct the checker
//! rules in the paper (§6.2) mention.

use crate::ast::{
    EnumDecl, EnumValueDecl, FieldDecl, FieldLabel, IdlFile, MessageDecl, SyntaxKind,
};
use crate::lexer::{check_nesting, expected, Cursor, ParseError, TokenKind};

/// Most tags one message's `reserved` ranges may add up to. Proto's own
/// field-number ceiling (2^29 - 1) is far too many to materialise one by one.
const MAX_RESERVED_TAGS: usize = 65_536;

/// Parses proto2 source text.
pub fn parse_proto(input: &str) -> Result<IdlFile, ParseError> {
    let mut p = Parser {
        cur: Cursor::new(input)?,
    };
    p.file()
}

struct Parser<'a> {
    cur: Cursor<'a>,
}

/// `prefix.name` for a nested declaration, `name` at the top level.
fn qualified(prefix: &str, name: &str) -> String {
    if prefix.is_empty() {
        name.to_string()
    } else {
        format!("{prefix}.{name}")
    }
}

impl Parser<'_> {
    fn file(&mut self) -> Result<IdlFile, ParseError> {
        let mut file = IdlFile {
            syntax: SyntaxKind::Proto2,
            package: None,
            messages: Vec::new(),
            enums: Vec::new(),
        };
        loop {
            let t = self.cur.peek();
            match t.kind {
                TokenKind::Eof => break,
                TokenKind::Ident(word) => match word {
                    "syntax" => {
                        self.cur.advance();
                        self.cur.eat_punct('=')?;
                        let t = self.cur.advance();
                        if !matches!(t.kind, TokenKind::Str(_)) {
                            return Err(ParseError::new(
                                t.span,
                                "expected string after 'syntax ='",
                            ));
                        }
                        self.cur.eat_punct(';')?;
                    }
                    "package" => {
                        self.cur.advance();
                        let (name, _) = self.cur.eat_ident()?;
                        file.package = Some(name.to_string());
                        self.cur.eat_punct(';')?;
                    }
                    "option" => self.skip_option()?,
                    "import" => {
                        self.cur.advance();
                        // `import "x.proto";` or `import public "x.proto";`
                        if self.cur.is_ident("public") || self.cur.is_ident("weak") {
                            self.cur.advance();
                        }
                        self.cur.advance(); // The string literal.
                        self.cur.eat_punct(';')?;
                    }
                    "message" => {
                        self.cur.advance();
                        self.message("", &mut file, 1)?;
                    }
                    "enum" => {
                        self.cur.advance();
                        let e = self.enum_decl("")?;
                        file.enums.push(e);
                    }
                    other => {
                        return Err(ParseError::new(
                            t.span,
                            format!("unexpected top-level keyword '{other}'"),
                        ));
                    }
                },
                kind => return Err(ParseError::new(t.span, format!("unexpected {kind}"))),
            }
        }
        Ok(file)
    }

    fn skip_option(&mut self) -> Result<(), ParseError> {
        // `option name = value;` — value may be ident, int, or string.
        self.cur.advance(); // 'option'
        self.cur.eat_ident()?;
        self.cur.eat_punct('=')?;
        self.cur.advance(); // The value.
        self.cur.eat_punct(';')?;
        Ok(())
    }

    /// Parses a message body; `depth` is 1 for a top-level message.
    fn message(
        &mut self,
        prefix: &str,
        file: &mut IdlFile,
        depth: usize,
    ) -> Result<(), ParseError> {
        let (name, span) = self.cur.eat_ident()?;
        check_nesting(depth, span, "messages")?;
        self.cur.eat_punct('{')?;
        let mut decl = MessageDecl {
            name: qualified(prefix, name),
            fields: Vec::new(),
            reserved_tags: Vec::new(),
            reserved_names: Vec::new(),
            span,
        };
        loop {
            let t = self.cur.peek();
            match t.kind {
                TokenKind::Punct('}') => {
                    self.cur.advance();
                    break;
                }
                TokenKind::Eof => {
                    return Err(ParseError::new(
                        span,
                        format!("unterminated message {}", decl.name),
                    ));
                }
                TokenKind::Ident(word) => match word {
                    "message" => {
                        self.cur.advance();
                        self.message(&decl.name, file, depth + 1)?;
                    }
                    "enum" => {
                        self.cur.advance();
                        let e = self.enum_decl(&decl.name)?;
                        file.enums.push(e);
                    }
                    "option" => self.skip_option()?,
                    "reserved" => self.reserved(&mut decl)?,
                    "extensions" => {
                        // `extensions 100 to 199;` — skip to semicolon.
                        while !self.cur.at_punct(';') {
                            if self.cur.peek().kind == TokenKind::Eof {
                                return Err(ParseError::new(span, "unterminated extensions"));
                            }
                            self.cur.advance();
                        }
                        self.cur.advance();
                    }
                    "required" | "optional" | "repeated" => {
                        let field = self.field()?;
                        decl.fields.push(field);
                    }
                    other => {
                        let hint = "(proto2 fields need a label)";
                        return Err(ParseError::new(
                            t.span,
                            format!("unexpected '{other}' in message {} {hint}", decl.name),
                        ));
                    }
                },
                other => {
                    return Err(ParseError::new(
                        t.span,
                        format!("unexpected {other} in message {}", decl.name),
                    ));
                }
            }
        }
        file.messages.push(decl);
        Ok(())
    }

    fn reserved(&mut self, decl: &mut MessageDecl) -> Result<(), ParseError> {
        self.cur.advance(); // 'reserved'
        loop {
            let t = self.cur.advance();
            match t.kind {
                TokenKind::Int(v) => {
                    let lo = u32::try_from(v).map_err(|_| {
                        ParseError::new(self.cur.peek().span, "negative reserved tag")
                    })?;
                    let mut hi = lo;
                    if self.cur.is_ident("to") {
                        self.cur.advance();
                        let (v, sp) = self.cur.eat_int()?;
                        hi = u32::try_from(v)
                            .map_err(|_| ParseError::new(sp, "negative reserved tag"))?;
                        // One less than the tags the range adds.
                        let width = hi.saturating_sub(lo) as usize;
                        if decl.reserved_tags.len().saturating_add(width) >= MAX_RESERVED_TAGS {
                            return Err(ParseError::new(
                                sp,
                                format!(
                                    "more than {MAX_RESERVED_TAGS} reserved tags in one message"
                                ),
                            ));
                        }
                    }
                    decl.reserved_tags.extend(lo..=hi);
                }
                TokenKind::Str(s) => decl.reserved_names.push(s.to_string()),
                other => {
                    return Err(ParseError::new(
                        t.span,
                        format!("expected tag or name in reserved, found {other}"),
                    ));
                }
            }
            let t = self.cur.advance();
            match t.kind {
                TokenKind::Punct(',') => {}
                TokenKind::Punct(';') => return Ok(()),
                _ => return Err(expected("',' or ';'", t)),
            }
        }
    }

    fn field(&mut self) -> Result<FieldDecl, ParseError> {
        let (label_word, span) = self.cur.eat_ident()?;
        let label = match label_word {
            "required" => FieldLabel::Required,
            "optional" => FieldLabel::Optional,
            "repeated" => FieldLabel::Repeated,
            _ => unreachable!("caller checked the label keyword"),
        };
        let (type_name, _) = self.cur.eat_ident()?;
        let (name, _) = self.cur.eat_ident()?;
        self.cur.eat_punct('=')?;
        let (tag, tag_span) = self.cur.eat_int()?;
        let tag = u32::try_from(tag)
            .map_err(|_| ParseError::new(tag_span, format!("invalid field tag {tag}")))?;
        let mut default = None;
        if self.cur.at_punct('[') {
            self.cur.advance();
            // Parse `[name = value, name = value]`, remembering `default`.
            loop {
                let (opt_name, _) = self.cur.eat_ident()?;
                self.cur.eat_punct('=')?;
                let value = self.cur.advance();
                if opt_name == "default" {
                    default = Some(match value.kind {
                        TokenKind::Ident(s) | TokenKind::Str(s) => s.to_string(),
                        TokenKind::Int(v) => v.to_string(),
                        other => {
                            return Err(ParseError::new(
                                value.span,
                                format!("bad default value: {other}"),
                            ))
                        }
                    });
                }
                let t = self.cur.advance();
                match t.kind {
                    TokenKind::Punct(',') => {}
                    TokenKind::Punct(']') => break,
                    _ => return Err(expected("',' or ']'", t)),
                }
            }
        }
        self.cur.eat_punct(';')?;
        Ok(FieldDecl {
            label,
            type_name: type_name.to_string(),
            name: name.to_string(),
            tag,
            default,
            span,
        })
    }

    fn enum_decl(&mut self, prefix: &str) -> Result<EnumDecl, ParseError> {
        let (name, span) = self.cur.eat_ident()?;
        let full = qualified(prefix, name);
        self.cur.eat_punct('{')?;
        let mut values = Vec::new();
        loop {
            let t = self.cur.peek();
            match t.kind {
                TokenKind::Punct('}') => {
                    self.cur.advance();
                    break;
                }
                TokenKind::Eof => {
                    return Err(ParseError::new(span, format!("unterminated enum {full}")));
                }
                TokenKind::Ident("option") => self.skip_option()?,
                TokenKind::Ident(vname) => {
                    self.cur.advance();
                    self.cur.eat_punct('=')?;
                    let (number, nspan) = self.cur.eat_int()?;
                    let number = i32::try_from(number)
                        .map_err(|_| ParseError::new(nspan, "enum number out of range"))?;
                    self.cur.eat_punct(';')?;
                    values.push(EnumValueDecl {
                        name: vname.to_string(),
                        number,
                        span: t.span,
                    });
                }
                other => {
                    return Err(ParseError::new(
                        t.span,
                        format!("unexpected {other} in enum {full}"),
                    ));
                }
            }
        }
        Ok(EnumDecl {
            name: full,
            values,
            span,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::MAX_NESTING;

    /// The exact proto diff of paper Figure 2.
    const SINK_V2: &str = r#"
        syntax = "proto2";
        package hbase.pb;

        message ReplicationLoadSink {
            required uint64 ageOfLastAppliedOp = 1;
            required uint64 timestampStarted = 3;
        }
    "#;

    #[test]
    fn parses_figure_2() {
        let file = parse_proto(SINK_V2).unwrap();
        assert_eq!(file.package.as_deref(), Some("hbase.pb"));
        let m = file.message("ReplicationLoadSink").unwrap();
        assert_eq!(m.fields.len(), 2);
        assert_eq!(m.fields[1].name, "timestampStarted");
        assert_eq!(m.fields[1].tag, 3);
        assert_eq!(m.fields[1].label, FieldLabel::Required);
    }

    #[test]
    fn parses_nested_messages_and_enums() {
        let src = r#"
            message Outer {
                optional Inner inner = 1;
                message Inner {
                    required int32 x = 1;
                }
                enum Mode { FAST = 0; SAFE = 1; }
                optional Mode mode = 2 [default = FAST];
            }
        "#;
        let file = parse_proto(src).unwrap();
        assert!(file.message("Outer").is_some());
        assert!(file.message("Outer.Inner").is_some());
        let e = file.enum_decl("Outer.Mode").unwrap();
        assert_eq!(e.values.len(), 2);
        assert_eq!(
            file.message("Outer")
                .unwrap()
                .field("mode")
                .unwrap()
                .default
                .as_deref(),
            Some("FAST")
        );
    }

    #[test]
    fn parses_reserved() {
        let src = r#"
            message M {
                reserved 2, 4 to 6;
                reserved "legacy", "older";
                optional string live = 1;
            }
        "#;
        let m = parse_proto(src).unwrap();
        let m = m.message("M").unwrap();
        assert_eq!(m.reserved_tags, vec![2, 4, 5, 6]);
        assert_eq!(
            m.reserved_names,
            vec!["legacy".to_string(), "older".to_string()]
        );
    }

    #[test]
    fn skips_options_and_imports() {
        let src = r#"
            syntax = "proto2";
            import "other.proto";
            option java_package = "org.example";
            message M {
                option deprecated = true;
                optional int64 f = 1 [deprecated = true, default = 9];
            }
        "#;
        let file = parse_proto(src).unwrap();
        assert_eq!(
            file.message("M")
                .unwrap()
                .field("f")
                .unwrap()
                .default
                .as_deref(),
            Some("9")
        );
    }

    #[test]
    fn rejects_label_free_fields() {
        // proto2 requires a label; a missing one is a parse error.
        let err = parse_proto("message M { int32 x = 1; }").unwrap_err();
        assert!(err.message.contains("label"));
    }

    #[test]
    fn rejects_unterminated_message() {
        assert!(parse_proto("message M { optional int32 x = 1;").is_err());
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_proto("mesage M {}").is_err());
        assert!(parse_proto("message M { optional int32 = 1; }").is_err());
    }

    #[test]
    fn enum_numbers_preserved_in_declaration_order() {
        let src = "enum StorageType { DISK = 0; SSD = 1; NVDIMM = 2; ARCHIVE = 3; }";
        let file = parse_proto(src).unwrap();
        let e = file.enum_decl("StorageType").unwrap();
        let names: Vec<_> = e.values.iter().map(|v| v.name.as_str()).collect();
        assert_eq!(names, vec!["DISK", "SSD", "NVDIMM", "ARCHIVE"]);
        assert!(e.has_zero());
    }

    #[test]
    fn extensions_are_skipped() {
        let src = "message M { extensions 100 to 199; optional bool b = 1; }";
        assert!(parse_proto(src)
            .unwrap()
            .message("M")
            .unwrap()
            .field("b")
            .is_some());
    }

    /// `depth` messages nested inside each other, closed properly.
    fn nested_messages(depth: usize) -> String {
        "message A { ".repeat(depth) + &"} ".repeat(depth)
    }

    #[test]
    fn message_nesting_is_bounded() {
        let file = parse_proto(&nested_messages(MAX_NESTING)).unwrap();
        assert_eq!(file.messages.len(), MAX_NESTING);
        let err = parse_proto(&nested_messages(MAX_NESTING + 1)).unwrap_err();
        assert!(err.message.contains("nested deeper than 64"), "{err}");
        // Column of the 65th `A` on the single line.
        assert_eq!((err.span.line, err.span.col), (1, 12 * 64 + 9));
        // Used to overflow the stack.
        assert!(parse_proto(&"message A { ".repeat(200_000)).is_err());
    }

    #[test]
    fn reserved_ranges_are_bounded() {
        let m = parse_proto("message M { reserved 1 to 65536; }").unwrap();
        assert_eq!(m.messages[0].reserved_tags.len(), MAX_RESERVED_TAGS);
        let err = parse_proto("message M { reserved 0 to 65536; }").unwrap_err();
        assert!(err.message.contains("65536 reserved tags"), "{err}");
        // The cap is per message, not per statement.
        let split = "message M { reserved 1 to 40000; reserved 50000 to 90000; }";
        assert!(parse_proto(split).is_err());
        // Used to try to materialise 2^32 tags.
        assert!(parse_proto("message M { reserved 0 to 4294967295; }").is_err());
    }
}
