//! Hand-written streaming lexer for Javelin.
//!
//! The parser pulls one token at a time ([`Lexer::next_token`]) into a
//! two-token window; no file is ever held as a token vector. Tokens are
//! `Copy`: identifier and string-literal text is interned as it is lexed
//! into the file's name table ([`Lexer::names`]), which the parsed file
//! keeps, so a repeated name costs one hash probe and no allocation.
//!
//! Comments (`// ...` and `/* ... */`) are skipped by the token stream but the
//! raw source is retained in [`crate::project::SourceFile`] so that the
//! LLM-based analyses can still see them — the paper observes that comments
//! and identifier names are the clearest evidence of retry logic. Line
//! comments are skipped eight bytes at a time.

use crate::ast::Names;
use crate::error::Diagnostic;
use crate::intern::NameSet;
use crate::span::Span;
use crate::token::{Token, TokenKind};

/// Streaming lexer over a source string.
pub struct Lexer<'a> {
    text: &'a str,
    src: &'a [u8],
    pos: usize,
    names: NameSet,
    /// Reused buffer for string literals with escapes.
    unescaped: String,
}

impl<'a> Lexer<'a> {
    /// Creates a lexer over `source`.
    pub fn new(source: &'a str) -> Self {
        Lexer::with_names(source, NameSet::default())
    }

    /// A lexer that interns into `names`, which must be empty; its slots
    /// may be grown already.
    pub(crate) fn with_names(source: &'a str, names: NameSet) -> Self {
        Lexer {
            text: source,
            src: source.as_bytes(),
            pos: 0,
            names,
            unescaped: String::new(),
        }
    }

    /// The names interned so far; resolves the [`Name`](crate::ast::Name)s of the tokens
    /// returned.
    pub fn names(&self) -> &Names {
        self.names.names()
    }

    /// Ends lexing and hands over the name set.
    pub(crate) fn into_name_set(self) -> NameSet {
        self.names
    }

    fn peek(&self) -> u8 {
        *self.src.get(self.pos).unwrap_or(&0)
    }

    fn peek2(&self) -> u8 {
        *self.src.get(self.pos + 1).unwrap_or(&0)
    }

    fn bump(&mut self) -> u8 {
        let c = self.peek();
        self.pos += 1;
        c
    }

    fn skip_trivia(&mut self) -> Result<(), Diagnostic> {
        loop {
            match self.peek() {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.pos += 1;
                }
                b'/' if self.peek2() == b'/' => self.pos = line_end(self.src, self.pos + 2),
                b'/' if self.peek2() == b'*' => {
                    let start = self.pos;
                    self.pos += 2;
                    loop {
                        if self.pos >= self.src.len() {
                            return Err(Diagnostic::new(
                                Span::new(start as u32, self.pos as u32),
                                "unterminated block comment",
                            ));
                        }
                        if self.peek() == b'*' && self.peek2() == b'/' {
                            self.pos += 2;
                            break;
                        }
                        self.pos += 1;
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    /// Returns the next token, skipping whitespace and comments. At the end
    /// of input it returns [`TokenKind::Eof`], again on every call.
    pub fn next_token(&mut self) -> Result<Token, Diagnostic> {
        self.skip_trivia()?;
        let start = self.pos as u32;
        if self.pos >= self.src.len() {
            return Ok(Token {
                kind: TokenKind::Eof,
                span: Span::new(start, start),
            });
        }
        let c = self.bump();
        let kind = match c {
            b'(' => TokenKind::LParen,
            b')' => TokenKind::RParen,
            b'{' => TokenKind::LBrace,
            b'}' => TokenKind::RBrace,
            b',' => TokenKind::Comma,
            b';' => TokenKind::Semi,
            b':' => TokenKind::Colon,
            b'.' => TokenKind::Dot,
            b'+' => TokenKind::Plus,
            b'-' => TokenKind::Minus,
            b'*' => TokenKind::Star,
            b'/' => TokenKind::Slash,
            b'%' => TokenKind::Percent,
            b'=' => {
                if self.peek() == b'=' {
                    self.pos += 1;
                    TokenKind::EqEq
                } else {
                    TokenKind::Assign
                }
            }
            b'!' => {
                if self.peek() == b'=' {
                    self.pos += 1;
                    TokenKind::NotEq
                } else {
                    TokenKind::Bang
                }
            }
            b'<' => {
                if self.peek() == b'=' {
                    self.pos += 1;
                    TokenKind::LtEq
                } else {
                    TokenKind::Lt
                }
            }
            b'>' => {
                if self.peek() == b'=' {
                    self.pos += 1;
                    TokenKind::GtEq
                } else {
                    TokenKind::Gt
                }
            }
            b'&' => {
                if self.peek() == b'&' {
                    self.pos += 1;
                    TokenKind::AndAnd
                } else {
                    return Err(Diagnostic::new(
                        Span::new(start, self.pos as u32),
                        "expected `&&`",
                    ));
                }
            }
            b'|' => {
                if self.peek() == b'|' {
                    self.pos += 1;
                    TokenKind::OrOr
                } else {
                    return Err(Diagnostic::new(
                        Span::new(start, self.pos as u32),
                        "expected `||`",
                    ));
                }
            }
            b'"' => self.lex_string(start)?,
            b'0'..=b'9' => self.lex_number(start)?,
            c if c == b'_' || c == b'$' || c.is_ascii_alphabetic() => self.lex_ident(start),
            other => {
                return Err(Diagnostic::new(
                    Span::new(start, self.pos as u32),
                    format!("unexpected character `{}`", other as char),
                ));
            }
        };
        Ok(Token {
            kind,
            span: Span::new(start, self.pos as u32),
        })
    }

    fn lex_string(&mut self, start: u32) -> Result<TokenKind, Diagnostic> {
        let mut escaped = false;
        loop {
            // Take the run up to the next `"`, `\` or newline whole: all
            // three are ASCII, so the run ends on a character boundary and
            // multi-byte text passes through intact.
            let run = self.pos;
            while self.pos < self.src.len() && !matches!(self.src[self.pos], b'"' | b'\\' | b'\n') {
                self.pos += 1;
            }
            if self.pos >= self.src.len() {
                return Err(Diagnostic::new(
                    Span::new(start, self.pos as u32),
                    "unterminated string literal",
                ));
            }
            let text = self.text;
            let run = &text[run..self.pos];
            match self.bump() {
                // Without escapes the literal's text is a slice of the
                // source and is interned straight from it.
                b'"' if !escaped => return Ok(TokenKind::Str(self.names.intern(run))),
                b'"' => {
                    self.unescaped.push_str(run);
                    return Ok(TokenKind::Str(self.names.intern(&self.unescaped)));
                }
                b'\\' => {
                    if !escaped {
                        escaped = true;
                        self.unescaped.clear();
                    }
                    self.unescaped.push_str(run);
                    let esc = self.bump();
                    match esc {
                        b'n' => self.unescaped.push('\n'),
                        b't' => self.unescaped.push('\t'),
                        b'\\' => self.unescaped.push('\\'),
                        b'"' => self.unescaped.push('"'),
                        other => {
                            return Err(Diagnostic::new(
                                Span::new(start, self.pos as u32),
                                format!("unknown escape `\\{}`", other as char),
                            ));
                        }
                    }
                }
                _ => {
                    return Err(Diagnostic::new(
                        Span::new(start, self.pos as u32),
                        "newline in string literal",
                    ));
                }
            }
        }
    }

    fn lex_number(&mut self, start: u32) -> Result<TokenKind, Diagnostic> {
        while self.peek().is_ascii_digit() {
            self.pos += 1;
        }
        let text = &self.text[start as usize..self.pos];
        text.parse::<i64>().map(TokenKind::Int).map_err(|_| {
            Diagnostic::new(
                Span::new(start, self.pos as u32),
                format!("integer literal `{text}` out of range"),
            )
        })
    }

    fn lex_ident(&mut self, start: u32) -> TokenKind {
        while {
            let c = self.peek();
            c == b'_' || c == b'$' || c.is_ascii_alphanumeric()
        } {
            self.pos += 1;
        }
        let text = &self.text[start as usize..self.pos];
        TokenKind::keyword(text).unwrap_or_else(|| TokenKind::Ident(self.names.intern(text)))
    }
}

/// Offset of the first `\n` at or after `from`, or the end of `src`. Reads
/// eight bytes at a time: a byte of `word ^ 0x0a..0a` is zero exactly where
/// `word` holds a newline, and the classic has-zero-byte test flags the
/// lowest such byte exactly (a borrow only disturbs the bytes above it).
fn line_end(src: &[u8], from: usize) -> usize {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGHS: u64 = 0x8080_8080_8080_8080;
    let mut at = from;
    while let Some(chunk) = src.get(at..at + 8) {
        let word = u64::from_le_bytes(chunk.try_into().expect("an 8-byte slice"));
        let x = word ^ (ONES * u64::from(b'\n'));
        let zeros = x.wrapping_sub(ONES) & !x & HIGHS;
        if zeros != 0 {
            return at + (zeros.trailing_zeros() / 8) as usize;
        }
        at += 8;
    }
    while at < src.len() && src[at] != b'\n' {
        at += 1;
    }
    at
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Name;

    /// Drives the stream to the end; the first error ends it.
    fn lex(src: &str) -> Result<(Vec<Token>, Names), Diagnostic> {
        let mut lexer = Lexer::new(src);
        let mut tokens = Vec::new();
        loop {
            let tok = lexer.next_token()?;
            tokens.push(tok);
            if tok.kind == TokenKind::Eof {
                return Ok((tokens, lexer.names().clone()));
            }
        }
    }

    /// Token kinds, with names rendered as text: `Ident`/`Str` become
    /// `ident:<text>`/`str:<text>`, everything else its `Debug` form.
    fn kinds(src: &str) -> Vec<String> {
        let (tokens, names) = lex(src).unwrap();
        tokens
            .iter()
            .map(|t| match t.kind {
                TokenKind::Ident(n) => format!("ident:{}", names.get(n)),
                TokenKind::Str(n) => format!("str:{}", names.get(n)),
                other => format!("{other:?}"),
            })
            .collect()
    }

    #[test]
    fn lexes_punctuation_and_operators() {
        assert_eq!(
            kinds("( ) { } , ; : . = == != < <= > >= + - * / % ! && ||"),
            [
                "LParen", "RParen", "LBrace", "RBrace", "Comma", "Semi", "Colon", "Dot", "Assign",
                "EqEq", "NotEq", "Lt", "LtEq", "Gt", "GtEq", "Plus", "Minus", "Star", "Slash",
                "Percent", "Bang", "AndAnd", "OrOr", "Eof",
            ]
        );
    }

    #[test]
    fn lexes_keywords_and_identifiers() {
        assert_eq!(
            kinds("class retryCount while $tmp _x"),
            [
                "Class",
                "ident:retryCount",
                "While",
                "ident:$tmp",
                "ident:_x",
                "Eof"
            ]
        );
    }

    #[test]
    fn lexes_literals() {
        assert_eq!(
            kinds(r#"42 "hi\n" true false null"#),
            ["Int(42)", "str:hi\n", "True", "False", "Null", "Eof"]
        );
    }

    #[test]
    fn interns_each_distinct_text_once() {
        let (tokens, names) = lex("retry x retry \"x\" \"re\\ttry\" \"retry\"").unwrap();
        let ids: Vec<Name> = tokens
            .iter()
            .filter_map(|t| match t.kind {
                TokenKind::Ident(n) | TokenKind::Str(n) => Some(n),
                _ => None,
            })
            .collect();
        assert_eq!(ids, [Name(0), Name(1), Name(0), Name(1), Name(2), Name(0)]);
        assert_eq!(names.len(), 3);
        assert_eq!(names.get(Name(2)), "re\ttry");
    }

    #[test]
    fn interning_survives_table_growth() {
        let src: String = (0..2000).map(|i| format!("n{i} ")).collect();
        let (tokens, names) = lex(&format!("{src}{src}")).unwrap();
        assert_eq!(names.len(), 2000);
        assert_eq!(tokens[0].kind, tokens[2000].kind);
        assert_eq!(tokens[1999].kind, tokens[3999].kind);
        assert_eq!(names.get(Name(1234)), "n1234");
    }

    #[test]
    fn lexes_non_ascii_string_literals_intact() {
        let (toks, names) = lex("x = \"h\u{e9}llo \\\"\u{2603}\\\" \u{1f980}\\n\";").unwrap();
        let TokenKind::Str(s) = toks[2].kind else {
            panic!("expected a string, got {:?}", toks[2].kind);
        };
        assert_eq!(names.get(s), "h\u{e9}llo \"\u{2603}\" \u{1f980}\n");
        assert_eq!(toks[2].span, Span::new(4, 27));
        assert_eq!(toks[3].kind, TokenKind::Semi);
    }

    #[test]
    fn string_errors_keep_their_messages_and_spans() {
        for (src, message, span) in [
            ("\"ab\u{e9}", "unterminated string literal", Span::new(0, 5)),
            ("\"a\ncd\"", "newline in string literal", Span::new(0, 3)),
            ("\"\u{e9}\\q\"", "unknown escape `\\q`", Span::new(0, 5)),
            ("\"a\\", "unknown escape `\\\0`", Span::new(0, 4)),
        ] {
            let err = lex(src).unwrap_err();
            assert_eq!((err.message.as_str(), err.span), (message, span), "{src:?}");
        }
    }

    #[test]
    fn skips_comments() {
        assert_eq!(
            kinds("a // retry here\n b /* block\ncomment */ c"),
            ["ident:a", "ident:b", "ident:c", "Eof"]
        );
    }

    #[test]
    fn line_comments_end_at_the_first_newline_at_any_alignment() {
        for len in 0..40 {
            for tail in ["", "\n", "\nx", "\n\n"] {
                let src = format!("//{}{tail}", "c".repeat(len));
                let expected = src.find('\n').unwrap_or(src.len());
                assert_eq!(line_end(src.as_bytes(), 2), expected, "{src:?}");
            }
        }
        // A multi-byte character next to the newline does not hide it.
        let src = "// \u{e9}\u{2603}\u{1f980}\nx";
        assert_eq!(line_end(src.as_bytes(), 2), src.find('\n').unwrap());
        assert_eq!(kinds("// \u{1f980}\u{1f980}\nx"), ["ident:x", "Eof"]);
    }

    #[test]
    fn spans_are_correct() {
        let (toks, _) = lex("ab  cd").unwrap();
        assert_eq!(toks[0].span, Span::new(0, 2));
        assert_eq!(toks[1].span, Span::new(4, 6));
    }

    #[test]
    fn eof_repeats_at_the_end() {
        let mut lexer = Lexer::new("x");
        assert!(matches!(
            lexer.next_token().unwrap().kind,
            TokenKind::Ident(_)
        ));
        for _ in 0..3 {
            let tok = lexer.next_token().unwrap();
            assert_eq!((tok.kind, tok.span), (TokenKind::Eof, Span::new(1, 1)));
        }
    }

    #[test]
    fn rejects_unterminated_string() {
        assert!(lex("\"abc").is_err());
    }

    #[test]
    fn rejects_unterminated_block_comment() {
        assert!(lex("/* abc").is_err());
    }

    #[test]
    fn rejects_newline_in_string() {
        assert!(lex("\"ab\ncd\"").is_err());
    }

    #[test]
    fn rejects_single_ampersand() {
        assert!(lex("a & b").is_err());
    }

    #[test]
    fn rejects_unknown_escape() {
        assert!(lex(r#""\q""#).is_err());
    }

    #[test]
    fn rejects_unknown_character() {
        assert!(lex("a # b").is_err());
    }
}
