//! Tokenizer shared by the proto and thrift grammars.

use std::fmt;

/// A source position, 1-based.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    /// Line number (1-based).
    pub line: u32,
    /// Column number (1-based).
    pub col: u32,
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// A lexical token; identifier and string text borrows from the source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TokenKind<'a> {
    /// Identifier or keyword (`message`, `required`, `uint64`, names, …).
    /// Dotted identifiers (`foo.Bar`) are a single token.
    Ident(&'a str),
    /// Integer literal (possibly negative).
    Int(i64),
    /// Quoted string literal (content, without quotes).
    Str(&'a str),
    /// Single punctuation character: `{ } = ; , < > ( ) [ ] :`.
    Punct(char),
    /// End of input.
    Eof,
}

impl fmt::Display for TokenKind<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident(s) => write!(f, "identifier '{s}'"),
            TokenKind::Int(v) => write!(f, "integer {v}"),
            TokenKind::Str(s) => write!(f, "string \"{s}\""),
            TokenKind::Punct(c) => write!(f, "'{c}'"),
            TokenKind::Eof => write!(f, "end of input"),
        }
    }
}

/// A token with its source position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Token<'a> {
    /// What was lexed.
    pub(crate) kind: TokenKind<'a>,
    /// Where it starts.
    pub(crate) span: Span,
}

/// A lexing or parsing error with a source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Where the problem is.
    pub span: Span,
    /// What the problem is.
    pub message: String,
}

impl ParseError {
    /// Creates an error at `span`.
    pub fn new(span: Span, message: impl Into<String>) -> Self {
        ParseError {
            span,
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.span, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Deepest message or type nesting either grammar accepts; the parsers
/// recurse once per level, so unbounded input would overflow the stack.
pub(crate) const MAX_NESTING: usize = 64;

/// Fails at `span` when `depth` levels of `what` exceed [`MAX_NESTING`].
pub(crate) fn check_nesting(depth: usize, span: Span, what: &str) -> Result<(), ParseError> {
    if depth > MAX_NESTING {
        let message = format!("{what} nested deeper than {MAX_NESTING} levels");
        return Err(ParseError::new(span, message));
    }
    Ok(())
}

/// Tokenizes `input`, skipping whitespace, `//` line comments, `#` line
/// comments (thrift), and `/* */` block comments. Bytes are read as Latin-1
/// and columns count bytes; identifiers are ASCII and string contents sit
/// between two ASCII quotes, so every slice falls on a char boundary.
pub(crate) fn lex(input: &str) -> Result<Vec<Token<'_>>, ParseError> {
    let bytes = input.as_bytes();
    // Schema text runs at about four bytes per token: one allocation, not a
    // doubling series per file.
    let mut tokens = Vec::with_capacity(input.len() / 4 + 1);
    let (mut i, mut line, mut line_start) = (0usize, 1u32, 0usize);
    while i < bytes.len() {
        let c = bytes[i];
        let span = Span {
            line,
            col: (i - line_start) as u32 + 1,
        };
        let mut push = |kind| tokens.push(Token { kind, span });
        match c {
            b'\n' => {
                i += 1;
                line += 1;
                line_start = i;
            }
            _ if (c as char).is_whitespace() => i += 1,
            _ if c == b'#' || bytes[i..].starts_with(b"//") => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            _ if bytes[i..].starts_with(b"/*") => {
                i += 2;
                loop {
                    if i + 1 >= bytes.len() {
                        return Err(ParseError::new(span, "unterminated block comment"));
                    }
                    if bytes[i] == b'*' && bytes[i + 1] == b'/' {
                        i += 2;
                        break;
                    }
                    if bytes[i] == b'\n' {
                        line += 1;
                        line_start = i + 1;
                    }
                    i += 1;
                }
            }
            b'"' | b'\'' => {
                let start = i + 1;
                let len = bytes[start..].iter().position(|&b| b == c || b == b'\n');
                match len {
                    Some(len) if bytes[start + len] == c => {
                        push(TokenKind::Str(&input[start..start + len]));
                        i = start + len + 1;
                    }
                    _ => return Err(ParseError::new(span, "unterminated string literal")),
                }
            }
            _ if c.is_ascii_alphabetic() || c == b'_' => {
                let start = i;
                while i < bytes.len()
                    && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_' || bytes[i] == b'.')
                {
                    i += 1;
                }
                push(TokenKind::Ident(&input[start..i]));
            }
            _ if c.is_ascii_digit() || c == b'-' => {
                let start = i;
                i += 1;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let text = &input[start..i];
                let value = text
                    .parse()
                    .map_err(|_| ParseError::new(span, format!("invalid integer '{text}'")))?;
                push(TokenKind::Int(value));
            }
            b'{' | b'}' | b'=' | b';' | b',' | b'<' | b'>' | b'(' | b')' | b'[' | b']' | b':' => {
                push(TokenKind::Punct(c as char));
                i += 1;
            }
            other => {
                let message = format!("unexpected character '{}'", other as char);
                return Err(ParseError::new(span, message));
            }
        }
    }
    let col = (i - line_start) as u32 + 1;
    tokens.push(Token {
        kind: TokenKind::Eof,
        span: Span { line, col },
    });
    Ok(tokens)
}

/// The eagerly lexed token stream with the lookahead and `eat_*` helpers
/// both grammars drive. The whole file is tokenized before parsing starts,
/// so a lexical error anywhere wins over a syntax error before it.
pub(crate) struct Cursor<'a> {
    tokens: Vec<Token<'a>>,
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Lexes `input` and positions the cursor on its first token.
    pub(crate) fn new(input: &'a str) -> Result<Self, ParseError> {
        let tokens = lex(input)?;
        Ok(Cursor { tokens, pos: 0 })
    }

    /// The current token; at the end of input this is `Eof`, forever.
    pub(crate) fn peek(&self) -> Token<'a> {
        self.tokens[self.pos]
    }

    /// Returns the current token and steps past it (never past `Eof`).
    pub(crate) fn advance(&mut self) -> Token<'a> {
        let t = self.peek();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    /// Whether the current token is the punctuation `c`.
    pub(crate) fn at_punct(&self, c: char) -> bool {
        self.peek().kind == TokenKind::Punct(c)
    }

    /// Whether the current token is the identifier `word`.
    pub(crate) fn is_ident(&self, word: &str) -> bool {
        self.peek().kind == TokenKind::Ident(word)
    }

    /// Steps past the punctuation `c`, or fails on whatever is there instead.
    pub(crate) fn eat_punct(&mut self, c: char) -> Result<Span, ParseError> {
        let t = self.advance();
        match t.kind {
            TokenKind::Punct(p) if p == c => Ok(t.span),
            _ => Err(expected(&format!("'{c}'"), t)),
        }
    }

    /// Steps past an identifier and returns its text and position.
    pub(crate) fn eat_ident(&mut self) -> Result<(&'a str, Span), ParseError> {
        let t = self.advance();
        match t.kind {
            TokenKind::Ident(s) => Ok((s, t.span)),
            _ => Err(expected("identifier", t)),
        }
    }

    /// Steps past an integer literal and returns its value and position.
    pub(crate) fn eat_int(&mut self) -> Result<(i64, Span), ParseError> {
        let t = self.advance();
        match t.kind {
            TokenKind::Int(v) => Ok((v, t.span)),
            _ => Err(expected("integer", t)),
        }
    }
}

/// The "expected X, found Y" error at `found`.
pub(crate) fn expected(what: &str, found: Token<'_>) -> ParseError {
    ParseError::new(found.span, format!("expected {what}, found {}", found.kind))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn kinds(input: &str) -> Vec<TokenKind<'_>> {
        lex(input).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_a_proto_field() {
        let toks = kinds("required uint64 ageOfLastAppliedOp = 1;");
        assert_eq!(
            toks,
            vec![
                TokenKind::Ident("required"),
                TokenKind::Ident("uint64"),
                TokenKind::Ident("ageOfLastAppliedOp"),
                TokenKind::Punct('='),
                TokenKind::Int(1),
                TokenKind::Punct(';'),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn skips_comments() {
        let toks = kinds("// line\n/* block\nmore */ x # thrift\ny");
        assert_eq!(
            toks,
            vec![TokenKind::Ident("x"), TokenKind::Ident("y"), TokenKind::Eof]
        );
    }

    #[test]
    fn strings_and_negatives() {
        let toks = kinds("syntax = \"proto2\"; -5");
        assert!(toks.contains(&TokenKind::Str("proto2")));
        assert!(toks.contains(&TokenKind::Int(-5)));
    }

    #[test]
    fn dotted_identifiers_are_single_tokens() {
        let toks = kinds("hadoop.hdfs.StorageTypeProto");
        assert_eq!(toks[0], TokenKind::Ident("hadoop.hdfs.StorageTypeProto"));
    }

    #[test]
    fn spans_track_lines() {
        let toks = lex("a\n  b").unwrap();
        assert_eq!(toks[0].span, Span { line: 1, col: 1 });
        assert_eq!(toks[1].span, Span { line: 2, col: 3 });
    }

    #[test]
    fn errors_are_positioned() {
        let err = lex("ok @").unwrap_err();
        assert_eq!(err.span, Span { line: 1, col: 4 });
        assert!(err.message.contains('@'));
    }

    #[test]
    fn unterminated_string_is_an_error() {
        assert!(lex("\"abc").is_err());
        assert!(lex("\"abc\ndef\"").is_err());
        assert!(lex("/* never closed").is_err());
    }

    #[test]
    fn thrift_punctuation() {
        let toks = kinds("1: list<string> xs,");
        assert_eq!(
            toks,
            vec![
                TokenKind::Int(1),
                TokenKind::Punct(':'),
                TokenKind::Ident("list"),
                TokenKind::Punct('<'),
                TokenKind::Ident("string"),
                TokenKind::Punct('>'),
                TokenKind::Ident("xs"),
                TokenKind::Punct(','),
                TokenKind::Eof,
            ]
        );
    }

    /// Lexable text with everything that moves a position: line breaks in
    /// and out of comments, tabs, and multi-byte characters inside strings
    /// and comments (columns count bytes).
    fn arb_lexable() -> impl Strategy<Value = String> {
        const GLUE: &[&str] = &[
            "{", "}", "=", ";", ",", "<", ">", "(", ")", "[", "]", ":", " ", "\t", "\r\n", "\n",
        ];
        let fragment = prop_oneof![
            "[a-zA-Z_][a-zA-Z0-9_.]{0,12} {0,2}",
            "-[0-9]{1,9}",
            (0..GLUE.len()).prop_map(|i| GLUE[i].to_string()),
            "[a-z é日]{0,8}".prop_map(|text| format!("\"{text}\"")),
            "[a-z é日]{0,8}".prop_map(|text| format!("'{text}'")),
            "[a-z é日]{0,8}".prop_map(|text| format!("//{text}\n")),
            "[a-z é日]{0,8}".prop_map(|text| format!("#{text}\n")),
            "[a-z é日\n]{0,8}".prop_map(|text| format!("/*{text}*/")),
        ];
        proptest::collection::vec(fragment, 0..40).prop_map(|parts| parts.concat())
    }

    proptest! {
        /// Walking a token's 1-based line and byte column back to an offset
        /// lands on the first byte of the text it borrows (for a string, on
        /// the opening quote just before it).
        #[test]
        fn spans_point_at_the_borrowed_text(input in arb_lexable()) {
            let line_starts: Vec<usize> = std::iter::once(0)
                .chain(input.match_indices('\n').map(|(i, _)| i + 1))
                .collect();
            let offset_of = |s: &str| s.as_ptr() as usize - input.as_ptr() as usize;
            for t in lex(&input).expect("every fragment lexes") {
                let at = line_starts[t.span.line as usize - 1] + t.span.col as usize - 1;
                match t.kind {
                    TokenKind::Ident(s) => prop_assert_eq!(at, offset_of(s)),
                    TokenKind::Str(s) => {
                        prop_assert_eq!(at + 1, offset_of(s));
                        prop_assert!(matches!(input.as_bytes()[at], b'"' | b'\''));
                    }
                    _ => {}
                }
            }
        }
    }
}
