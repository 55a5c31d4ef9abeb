//! A tolerant recursive-descent parser for the Java subset.
//!
//! The parser understands packages, imports, classes (with nesting), enums,
//! fields, and method bodies consisting of local declarations, assignments,
//! calls, `return`, and `if`/`for`/`while` blocks (whose bodies are
//! flattened — the dataflow is flow-insensitive). Statements it cannot model
//! are skipped to the next `;`, never failing the file: real static
//! checkers must survive code they do not fully understand.

use crate::ast::{ClassModel, CompilationUnit, EnumModel, Expr, MethodModel, Param, Stmt};
use std::fmt;

/// A parse error (only raised for structurally broken input, e.g.
/// unbalanced braces).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JavaParseError {
    /// Description.
    pub message: String,
}

impl fmt::Display for JavaParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "java parse error: {}", self.message)
    }
}

impl std::error::Error for JavaParseError {}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Punct(char),
    Literal(String),
    Eof,
}

fn lex(input: &str) -> Result<Vec<Tok>, JavaParseError> {
    let mut toks = Vec::new();
    let bytes = input.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            c if c.is_whitespace() => i += 1,
            '/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '/' if bytes.get(i + 1) == Some(&b'*') => {
                i += 2;
                while i + 1 < bytes.len() && !(bytes[i] == b'*' && bytes[i + 1] == b'/') {
                    i += 1;
                }
                if i + 1 >= bytes.len() {
                    return Err(JavaParseError {
                        message: "unterminated comment".into(),
                    });
                }
                i += 2;
            }
            '"' => {
                let start = i;
                i += 1;
                while i < bytes.len() && bytes[i] != b'"' {
                    if bytes[i] == b'\\' {
                        i += 1;
                    }
                    i += 1;
                }
                if i >= bytes.len() {
                    return Err(JavaParseError {
                        message: "unterminated string".into(),
                    });
                }
                i += 1;
                toks.push(Tok::Literal(
                    String::from_utf8_lossy(&bytes[start..i]).into_owned(),
                ));
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len() {
                    let c = bytes[i] as char;
                    if c.is_ascii_alphanumeric() || c == '_' {
                        i += 1;
                    } else {
                        break;
                    }
                }
                toks.push(Tok::Ident(
                    String::from_utf8_lossy(&bytes[start..i]).into_owned(),
                ));
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'.')
                {
                    i += 1;
                }
                toks.push(Tok::Literal(
                    String::from_utf8_lossy(&bytes[start..i]).into_owned(),
                ));
            }
            other => {
                toks.push(Tok::Punct(other));
                i += 1;
            }
        }
    }
    toks.push(Tok::Eof);
    Ok(toks)
}

/// Deepest nesting of classes, blocks and expressions (counted together)
/// the parser follows; it recurses once per level, so unbounded input would
/// overflow the stack.
const MAX_NESTING: usize = 64;

/// Parses Java-subset source text into a [`CompilationUnit`].
pub fn parse_java(input: &str) -> Result<CompilationUnit, JavaParseError> {
    let toks = lex(input)?;
    let mut p = P {
        toks,
        pos: 0,
        depth: 0,
        too_deep: false,
    };
    let unit = p.unit();
    if p.too_deep {
        return Err(JavaParseError {
            message: format!("nesting deeper than {MAX_NESTING} levels"),
        });
    }
    unit
}

struct P {
    toks: Vec<Tok>,
    pos: usize,
    /// Levels of [`P::nested`] currently open.
    depth: usize,
    /// Set once `depth` passed [`MAX_NESTING`]; `parse_java` reports it.
    too_deep: bool,
}

const MODIFIERS: &[&str] = &[
    "public",
    "private",
    "protected",
    "static",
    "final",
    "abstract",
    "synchronized",
    "native",
];

impl P {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos.min(self.toks.len() - 1)]
    }

    fn next(&mut self) -> Tok {
        let t = self.toks[self.pos.min(self.toks.len() - 1)].clone();
        if self.pos < self.toks.len() - 1 {
            self.pos += 1;
        }
        t
    }

    /// Runs the recursive step `f` one nesting level down. Past
    /// [`MAX_NESTING`] it first jumps to `Eof`, where every loop of the
    /// parser ends, so the (infallible) block and expression parsers unwind
    /// without a `Result` of their own.
    fn nested<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> T {
        self.depth += 1;
        if self.depth > MAX_NESTING {
            self.too_deep = true;
            self.pos = self.toks.len() - 1;
        }
        let out = f(self);
        self.depth -= 1;
        out
    }

    fn eat_punct(&mut self, c: char) -> bool {
        if *self.peek() == Tok::Punct(c) {
            self.next();
            true
        } else {
            false
        }
    }

    fn skip_modifiers(&mut self) {
        while let Tok::Ident(w) = self.peek() {
            if MODIFIERS.contains(&w.as_str()) {
                self.next();
            } else {
                break;
            }
        }
        // Annotations.
        while *self.peek() == Tok::Punct('@') {
            self.next();
            self.next(); // Annotation name.
            if self.eat_punct('(') {
                self.skip_balanced('(', ')');
            }
        }
    }

    fn skip_balanced(&mut self, open: char, close: char) {
        let mut depth = 1;
        loop {
            match self.next() {
                Tok::Punct(c) if c == open => depth += 1,
                Tok::Punct(c) if c == close => {
                    depth -= 1;
                    if depth == 0 {
                        return;
                    }
                }
                Tok::Eof => return,
                _ => {}
            }
        }
    }

    fn skip_to_semi(&mut self) {
        loop {
            match self.next() {
                Tok::Punct(';') | Tok::Eof => return,
                Tok::Punct('{') => {
                    self.skip_balanced('{', '}');
                    return;
                }
                _ => {}
            }
        }
    }

    fn unit(&mut self) -> Result<CompilationUnit, JavaParseError> {
        let mut unit = CompilationUnit::default();
        loop {
            self.skip_modifiers();
            match self.peek().clone() {
                Tok::Eof => break,
                Tok::Ident(w) if w == "package" => {
                    self.next();
                    let mut name = String::new();
                    loop {
                        match self.next() {
                            Tok::Ident(part) => name.push_str(&part),
                            Tok::Punct('.') => name.push('.'),
                            _ => break,
                        }
                    }
                    unit.package = Some(name);
                }
                Tok::Ident(w) if w == "import" => {
                    self.next();
                    self.skip_to_semi();
                }
                Tok::Ident(w) if w == "class" || w == "interface" => {
                    self.next();
                    self.class_decl(&mut unit)?;
                }
                Tok::Ident(w) if w == "enum" => {
                    self.next();
                    let e = self.enum_decl()?;
                    unit.enums.push(e);
                }
                _ => {
                    self.next(); // Tolerate stray tokens.
                }
            }
        }
        Ok(unit)
    }

    fn enum_decl(&mut self) -> Result<EnumModel, JavaParseError> {
        let name = match self.next() {
            Tok::Ident(n) => n,
            _ => {
                return Err(JavaParseError {
                    message: "expected enum name".into(),
                })
            }
        };
        if !self.eat_punct('{') {
            return Err(JavaParseError {
                message: format!("expected '{{' after enum {name}"),
            });
        }
        let mut members = Vec::new();
        // Members: `NAME`, `NAME(args)`, separated by commas, optionally
        // followed by `;` and a body (which we skip).
        loop {
            match self.next() {
                Tok::Ident(member) => {
                    members.push(member);
                    if self.eat_punct('(') {
                        self.skip_balanced('(', ')');
                    }
                    match self.next() {
                        Tok::Punct(',') => continue,
                        Tok::Punct('}') => break,
                        Tok::Punct(';') => {
                            // Enum body (methods, fields): skip to close.
                            self.skip_balanced_from_open_state();
                            break;
                        }
                        _ => break,
                    }
                }
                Tok::Punct('}') => break,
                Tok::Eof => {
                    return Err(JavaParseError {
                        message: format!("unterminated enum {name}"),
                    })
                }
                _ => {}
            }
        }
        Ok(EnumModel { name, members })
    }

    /// Skips to the `}` matching an already-open `{`.
    fn skip_balanced_from_open_state(&mut self) {
        let mut depth = 1;
        loop {
            match self.next() {
                Tok::Punct('{') => depth += 1,
                Tok::Punct('}') => {
                    depth -= 1;
                    if depth == 0 {
                        return;
                    }
                }
                Tok::Eof => return,
                _ => {}
            }
        }
    }

    fn class_decl(&mut self, unit: &mut CompilationUnit) -> Result<(), JavaParseError> {
        let name = match self.next() {
            Tok::Ident(n) => n,
            _ => {
                return Err(JavaParseError {
                    message: "expected class name".into(),
                })
            }
        };
        // `extends X implements Y, Z` — skip until '{'.
        while *self.peek() != Tok::Punct('{') {
            if *self.peek() == Tok::Eof {
                return Err(JavaParseError {
                    message: format!("class {name} has no body"),
                });
            }
            self.next();
        }
        self.next(); // '{'
        let mut class = ClassModel {
            name,
            ..ClassModel::default()
        };
        loop {
            self.skip_modifiers();
            match self.peek().clone() {
                Tok::Punct('}') => {
                    self.next();
                    break;
                }
                Tok::Eof => {
                    return Err(JavaParseError {
                        message: format!("unterminated class {}", class.name),
                    })
                }
                Tok::Ident(w) if w == "class" || w == "interface" => {
                    self.next();
                    self.nested(|p| p.class_decl(unit))?;
                }
                Tok::Ident(w) if w == "enum" => {
                    self.next();
                    let e = self.enum_decl()?;
                    unit.enums.push(e);
                }
                Tok::Ident(_) => {
                    self.member(&mut class)?;
                }
                _ => {
                    self.next();
                }
            }
        }
        unit.classes.push(class);
        Ok(())
    }

    /// Parses one field or method: `Type name;`, `Type name = expr;`, or
    /// `Type name(params) { body }`.
    fn member(&mut self, class: &mut ClassModel) -> Result<(), JavaParseError> {
        let type_name = match self.next() {
            Tok::Ident(t) => t,
            _ => return Ok(()),
        };
        // Generic types: `Map<String, Long>` — skip the type arguments.
        if self.eat_punct('<') {
            self.skip_balanced('<', '>');
        }
        // Array types.
        while self.eat_punct('[') {
            self.eat_punct(']');
        }
        let name = match self.next() {
            Tok::Ident(n) => n,
            Tok::Punct('(') => {
                // Constructor: `ClassName(params) { ... }`.
                self.skip_balanced('(', ')');
                if self.eat_punct('{') {
                    self.skip_balanced_from_open_state();
                }
                return Ok(());
            }
            _ => {
                self.skip_to_semi();
                return Ok(());
            }
        };
        match self.next() {
            Tok::Punct(';') => {
                class.fields.push((type_name, name));
            }
            Tok::Punct('=') => {
                class.fields.push((type_name, name));
                self.skip_to_semi();
            }
            Tok::Punct('(') => {
                let params = self.params()?;
                // `throws X, Y`.
                while *self.peek() != Tok::Punct('{') && *self.peek() != Tok::Punct(';') {
                    if *self.peek() == Tok::Eof {
                        return Ok(());
                    }
                    self.next();
                }
                let mut body = Vec::new();
                if self.eat_punct('{') {
                    self.block(&mut body);
                } else {
                    self.next(); // Abstract method's ';'.
                }
                class.methods.push(MethodModel { name, params, body });
            }
            _ => self.skip_to_semi(),
        }
        Ok(())
    }

    fn params(&mut self) -> Result<Vec<Param>, JavaParseError> {
        let mut params = Vec::new();
        if self.eat_punct(')') {
            return Ok(params);
        }
        loop {
            self.skip_modifiers();
            let type_name = match self.next() {
                Tok::Ident(t) => t,
                Tok::Punct(')') => break,
                _ => continue,
            };
            if self.eat_punct('<') {
                self.skip_balanced('<', '>');
            }
            while self.eat_punct('[') {
                self.eat_punct(']');
            }
            let name = match self.next() {
                Tok::Ident(n) => n,
                _ => continue,
            };
            params.push(Param { type_name, name });
            match self.next() {
                Tok::Punct(',') => continue,
                Tok::Punct(')') => break,
                Tok::Eof => break,
                _ => continue,
            }
        }
        Ok(params)
    }

    /// Parses statements until the matching `}` — nested blocks flatten.
    fn block(&mut self, out: &mut Vec<Stmt>) {
        loop {
            match self.peek().clone() {
                Tok::Punct('}') => {
                    self.next();
                    return;
                }
                Tok::Eof => return,
                Tok::Punct('{') => {
                    self.next();
                    self.nested(|p| p.block(out));
                }
                Tok::Ident(w) if w == "if" || w == "while" || w == "for" || w == "switch" => {
                    self.next();
                    if self.eat_punct('(') {
                        self.skip_balanced('(', ')');
                    }
                    // Bodies parse through the main loop (brace or single stmt).
                }
                Tok::Ident(w) if w == "else" || w == "try" || w == "finally" || w == "do" => {
                    self.next();
                }
                Tok::Ident(w) if w == "catch" => {
                    self.next();
                    if self.eat_punct('(') {
                        self.skip_balanced('(', ')');
                    }
                }
                Tok::Ident(w) if w == "return" => {
                    self.next();
                    if *self.peek() == Tok::Punct(';') {
                        self.next();
                        out.push(Stmt::Return(None));
                    } else {
                        let e = self.expr();
                        self.end_stmt();
                        out.push(Stmt::Return(Some(e)));
                    }
                }
                Tok::Ident(w) if w == "throw" || w == "break" || w == "continue" => {
                    self.next();
                    self.skip_to_semi();
                }
                Tok::Ident(first) => {
                    self.statement_starting_with_ident(first, out);
                }
                _ => {
                    self.next();
                }
            }
        }
    }

    fn statement_starting_with_ident(&mut self, first: String, out: &mut Vec<Stmt>) {
        // Lookahead: `Type name = …` / `Type name;` vs `x = …` vs `x.y(…)`.
        let start = self.pos;
        self.next(); // Consume `first`.
                     // Possible generic type.
        if *self.peek() == Tok::Punct('<') {
            self.next();
            self.skip_balanced('<', '>');
        }
        match self.peek().clone() {
            Tok::Ident(second) => {
                // Local declaration `Type name …`.
                self.next();
                match self.next() {
                    Tok::Punct('=') => {
                        let init = self.expr();
                        self.end_stmt();
                        out.push(Stmt::Local {
                            type_name: first,
                            name: second,
                            init: Some(init),
                        });
                    }
                    Tok::Punct(';') => {
                        out.push(Stmt::Local {
                            type_name: first,
                            name: second,
                            init: None,
                        });
                    }
                    _ => self.skip_to_semi(),
                }
            }
            Tok::Punct('=') => {
                self.next();
                let value = self.expr();
                self.end_stmt();
                out.push(Stmt::Assign { name: first, value });
            }
            Tok::Punct('.') | Tok::Punct('(') => {
                // Rewind and parse as an expression statement.
                self.pos = start;
                let e = self.expr();
                self.end_stmt();
                out.push(Stmt::ExprStmt(e));
            }
            _ => {
                self.skip_to_semi();
            }
        }
    }

    fn end_stmt(&mut self) {
        while !matches!(self.peek(), Tok::Punct(';') | Tok::Eof | Tok::Punct('}')) {
            self.next();
        }
        self.eat_punct(';');
    }

    /// Parses a primary expression with call/field chains; anything fancier
    /// degrades to [`Expr::Opaque`].
    fn expr(&mut self) -> Expr {
        let mut base = match self.next() {
            Tok::Ident(w) if w == "new" => {
                // `new Foo(args)` → call with no receiver.
                match self.next() {
                    Tok::Ident(class) => {
                        if self.eat_punct('(') {
                            let args = self.call_args();
                            Expr::Call {
                                recv: None,
                                name: class,
                                args,
                            }
                        } else {
                            Expr::Opaque
                        }
                    }
                    _ => Expr::Opaque,
                }
            }
            Tok::Ident(name) => {
                if self.eat_punct('(') {
                    let args = self.call_args();
                    Expr::Call {
                        recv: None,
                        name,
                        args,
                    }
                } else {
                    Expr::Ident(name)
                }
            }
            Tok::Literal(text) => Expr::Literal(text),
            Tok::Punct('(') => {
                // Parenthesized or cast: parse inner, continue.
                let inner = self.nested(Self::expr);
                self.eat_punct(')');
                inner
            }
            _ => Expr::Opaque,
        };
        // Chains: `.name` or `.name(args)`. Each link nests `base` one level
        // deeper, so a chain past the bound degrades like anything unmodelled.
        let mut links = 0;
        while self.eat_punct('.') {
            links += 1;
            if links > MAX_NESTING {
                return Expr::Opaque;
            }
            match self.next() {
                Tok::Ident(name) => {
                    if self.eat_punct('(') {
                        let args = self.call_args();
                        base = Expr::Call {
                            recv: Some(Box::new(base)),
                            name,
                            args,
                        };
                    } else {
                        base = Expr::FieldAccess {
                            recv: Box::new(base),
                            field: name,
                        };
                    }
                }
                _ => return Expr::Opaque,
            }
        }
        // Binary operators and the rest degrade to opaque (taint does not
        // survive arithmetic in the checker, matching the paper's tool).
        if matches!(
            self.peek(),
            Tok::Punct('+') | Tok::Punct('-') | Tok::Punct('*') | Tok::Punct('?')
        ) {
            while !matches!(
                self.peek(),
                Tok::Punct(';') | Tok::Punct(',') | Tok::Punct(')') | Tok::Eof | Tok::Punct('}')
            ) {
                self.next();
            }
            return Expr::Opaque;
        }
        base
    }

    fn call_args(&mut self) -> Vec<Expr> {
        let mut args = Vec::new();
        if self.eat_punct(')') {
            return args;
        }
        loop {
            args.push(self.nested(Self::expr));
            match self.next() {
                Tok::Punct(',') => continue,
                Tok::Punct(')') => break,
                Tok::Eof => break,
                _ => {
                    // Unmodelled tokens inside an argument: skip until the
                    // argument list closes.
                    let mut depth = 1;
                    loop {
                        match self.next() {
                            Tok::Punct('(') => depth += 1,
                            Tok::Punct(')') => {
                                depth -= 1;
                                if depth == 0 {
                                    return args;
                                }
                            }
                            Tok::Eof => return args,
                            _ => {}
                        }
                    }
                }
            }
        }
        args
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = r#"
        package org.apache.hadoop.hdfs;
        import java.io.DataOutput;

        public class BlockReporter {
            public enum StorageType { DISK, SSD, ARCHIVE }

            private DataOutput cached;
            private long blockId = 0;

            public void writeReport(DataOutput out, StorageType type) {
                out.writeInt(type.ordinal());
                out.writeLong(blockId);
            }

            public void indirect(StorageType t) {
                int idx = t.ordinal();
                DataOutput stream = openStream();
                stream.writeInt(idx);
            }
        }
    "#;

    #[test]
    fn parses_package_class_enum_fields_methods() {
        let unit = parse_java(SRC).unwrap();
        assert_eq!(unit.package.as_deref(), Some("org.apache.hadoop.hdfs"));
        let class = unit.class("BlockReporter").unwrap();
        assert_eq!(class.fields.len(), 2);
        assert_eq!(class.methods.len(), 2);
        let e = unit.enum_model("StorageType").unwrap();
        assert_eq!(e.members, vec!["DISK", "SSD", "ARCHIVE"]);
    }

    #[test]
    fn method_bodies_capture_calls_and_locals() {
        let unit = parse_java(SRC).unwrap();
        let m = &unit.class("BlockReporter").unwrap().methods[0];
        assert_eq!(m.name, "writeReport");
        assert_eq!(m.params.len(), 2);
        assert_eq!(m.params[0].type_name, "DataOutput");
        assert_eq!(m.body.len(), 2);
        match &m.body[0] {
            Stmt::ExprStmt(Expr::Call {
                recv: Some(recv),
                name,
                args,
            }) => {
                assert_eq!(**recv, Expr::Ident("out".into()));
                assert_eq!(name, "writeInt");
                assert!(args[0].is_ordinal_call());
            }
            other => panic!("unexpected stmt {other:?}"),
        }
    }

    #[test]
    fn locals_with_initializers() {
        let unit = parse_java(SRC).unwrap();
        let m = &unit.class("BlockReporter").unwrap().methods[1];
        match &m.body[0] {
            Stmt::Local {
                type_name,
                name,
                init: Some(init),
            } => {
                assert_eq!(type_name, "int");
                assert_eq!(name, "idx");
                assert!(init.is_ordinal_call());
            }
            other => panic!("unexpected stmt {other:?}"),
        }
    }

    #[test]
    fn tolerates_control_flow_and_unknown_statements() {
        let src = r#"
            class C {
                void m(DataOutput out, Mode mode) {
                    if (mode != null) {
                        out.writeInt(mode.ordinal());
                    }
                    for (int i = 0; i < 10; i = i + 1) {
                        doStuff(i);
                    }
                }
                enum Mode { A, B }
            }
        "#;
        let unit = parse_java(src).unwrap();
        let m = &unit.class("C").unwrap().methods[0];
        // The writeInt call inside the if-block is captured (flattened).
        assert!(m.body.iter().any(|s| matches!(
            s,
            Stmt::ExprStmt(Expr::Call { name, .. }) if name == "writeInt"
        )));
    }

    #[test]
    fn enum_with_constructor_args_and_body() {
        let src = r#"
            enum Level {
                LOW(1), HIGH(2);
                private final int v;
                Level(int v) { this.v = v; }
            }
        "#;
        let unit = parse_java(src).unwrap();
        assert_eq!(
            unit.enum_model("Level").unwrap().members,
            vec!["LOW", "HIGH"]
        );
    }

    #[test]
    fn unterminated_input_errors() {
        assert!(parse_java("class C {").is_err());
        assert!(parse_java("enum E { A, ").is_err());
        assert!(parse_java("/* no end").is_err());
    }

    #[test]
    fn assignments_are_modelled() {
        let src = r#"
            class C {
                void m(Kind k) {
                    int x = 0;
                    x = k.ordinal();
                }
                enum Kind { P, Q }
            }
        "#;
        let unit = parse_java(src).unwrap();
        let m = &unit.class("C").unwrap().methods[0];
        assert!(m.body.iter().any(
            |s| matches!(s, Stmt::Assign { name, value } if name == "x" && value.is_ordinal_call())
        ));
    }

    /// One class holding `depth` more classes, one inside the other.
    fn nested_classes(depth: usize) -> String {
        "class A { ".repeat(depth + 1) + &"} ".repeat(depth + 1)
    }

    /// A method body with `depth` blocks, one inside the other.
    fn nested_blocks(depth: usize) -> String {
        format!(
            "class C {{ void m() {{ {} }} }}",
            "{".repeat(depth) + &"}".repeat(depth)
        )
    }

    /// `f(f(…f(1)…))`, `depth` calls around the literal.
    fn nested_calls(depth: usize) -> String {
        format!(
            "class C {{ int m() {{ return {}1{}; }} }}",
            "f(".repeat(depth),
            ")".repeat(depth)
        )
    }

    #[test]
    fn nesting_is_bounded() {
        for shape in [nested_classes, nested_blocks, nested_calls] {
            assert!(parse_java(&shape(MAX_NESTING)).is_ok());
            let err = parse_java(&shape(MAX_NESTING + 1)).unwrap_err();
            assert!(err.message.contains("nesting deeper than 64"), "{err}");
        }
        assert_eq!(
            parse_java(&nested_classes(MAX_NESTING))
                .unwrap()
                .classes
                .len(),
            MAX_NESTING + 1
        );
        // Each of these used to overflow the stack.
        assert!(parse_java(&"class A { ".repeat(200_000)).is_err());
        assert!(parse_java(&format!("class C {{ void m() {{ {}", "{".repeat(200_000))).is_err());
        assert!(parse_java(&format!(
            "class C {{ void m() {{ x = {}",
            "f(".repeat(200_000)
        ))
        .is_err());
        assert!(parse_java(&format!(
            "class C {{ void m() {{ x = {}",
            "(".repeat(200_000)
        ))
        .is_err());
    }

    #[test]
    fn long_chains_degrade_to_opaque() {
        let value_of = |links: usize| {
            let src = format!("class C {{ void m() {{ y = x{}; }} }}", ".a".repeat(links));
            let unit = parse_java(&src).unwrap();
            match &unit.class("C").unwrap().methods[0].body[0] {
                Stmt::Assign { value, .. } => value.clone(),
                other => panic!("not an assignment: {other:?}"),
            }
        };
        assert!(matches!(value_of(MAX_NESTING), Expr::FieldAccess { .. }));
        assert_eq!(value_of(MAX_NESTING + 1), Expr::Opaque);
        // Used to build a tree too deep to drop.
        assert_eq!(value_of(200_000), Expr::Opaque);
    }
}
