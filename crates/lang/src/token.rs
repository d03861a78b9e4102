//! Token kinds produced by the Javelin lexer.
//!
//! Tokens are `Copy`: identifiers and string literals carry the [`Name`]
//! the lexer interned their text under, so the parser's token window never
//! allocates.

use crate::ast::{Name, Names};
use crate::span::Span;

/// A lexical token: a kind plus the source span it covers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Token {
    /// What kind of token this is (including any literal payload).
    pub kind: TokenKind,
    /// Where in the source the token appears.
    pub span: Span,
}

/// The kind of a lexical token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    // Literals and identifiers.
    /// An integer literal, e.g. `42`.
    Int(i64),
    /// A string literal (contents, unescaped, interned), e.g. `"hello"`.
    Str(Name),
    /// An identifier (interned), e.g. `maxRetries`.
    Ident(Name),

    // Keywords.
    Class,
    Extends,
    Exception,
    Config,
    Default,
    Field,
    Method,
    Test,
    Throws,
    Var,
    If,
    Else,
    While,
    For,
    Switch,
    Case,
    Try,
    Catch,
    Finally,
    Throw,
    Return,
    Break,
    Continue,
    New,
    This,
    Null,
    True,
    False,
    Instanceof,

    // Punctuation and operators.
    LParen,
    RParen,
    LBrace,
    RBrace,
    Comma,
    Semi,
    Colon,
    Dot,
    Assign,
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    Bang,
    EqEq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    AndAnd,
    OrOr,

    /// End of input.
    Eof,
}

impl TokenKind {
    /// Returns the keyword kind for `ident`, if `ident` is a keyword.
    pub fn keyword(ident: &str) -> Option<TokenKind> {
        Some(match ident {
            "class" => TokenKind::Class,
            "extends" => TokenKind::Extends,
            "exception" => TokenKind::Exception,
            "config" => TokenKind::Config,
            "default" => TokenKind::Default,
            "field" => TokenKind::Field,
            "method" => TokenKind::Method,
            "test" => TokenKind::Test,
            "throws" => TokenKind::Throws,
            "var" => TokenKind::Var,
            "if" => TokenKind::If,
            "else" => TokenKind::Else,
            "while" => TokenKind::While,
            "for" => TokenKind::For,
            "switch" => TokenKind::Switch,
            "case" => TokenKind::Case,
            "try" => TokenKind::Try,
            "catch" => TokenKind::Catch,
            "finally" => TokenKind::Finally,
            "throw" => TokenKind::Throw,
            "return" => TokenKind::Return,
            "break" => TokenKind::Break,
            "continue" => TokenKind::Continue,
            "new" => TokenKind::New,
            "this" => TokenKind::This,
            "null" => TokenKind::Null,
            "true" => TokenKind::True,
            "false" => TokenKind::False,
            "instanceof" => TokenKind::Instanceof,
            _ => return None,
        })
    }

    /// A short human-readable description used in parse errors; `names`
    /// is the table the lexer interned identifiers into.
    pub fn describe(&self, names: &Names) -> String {
        match self {
            TokenKind::Int(v) => format!("integer `{v}`"),
            TokenKind::Str(_) => "string literal".to_string(),
            TokenKind::Ident(name) => format!("identifier `{}`", names.get(*name)),
            TokenKind::Eof => "end of input".to_string(),
            other => format!("`{}`", other.symbol()),
        }
    }

    /// The literal symbol or keyword text for fixed tokens.
    fn symbol(&self) -> &'static str {
        match self {
            TokenKind::Class => "class",
            TokenKind::Extends => "extends",
            TokenKind::Exception => "exception",
            TokenKind::Config => "config",
            TokenKind::Default => "default",
            TokenKind::Field => "field",
            TokenKind::Method => "method",
            TokenKind::Test => "test",
            TokenKind::Throws => "throws",
            TokenKind::Var => "var",
            TokenKind::If => "if",
            TokenKind::Else => "else",
            TokenKind::While => "while",
            TokenKind::For => "for",
            TokenKind::Switch => "switch",
            TokenKind::Case => "case",
            TokenKind::Try => "try",
            TokenKind::Catch => "catch",
            TokenKind::Finally => "finally",
            TokenKind::Throw => "throw",
            TokenKind::Return => "return",
            TokenKind::Break => "break",
            TokenKind::Continue => "continue",
            TokenKind::New => "new",
            TokenKind::This => "this",
            TokenKind::Null => "null",
            TokenKind::True => "true",
            TokenKind::False => "false",
            TokenKind::Instanceof => "instanceof",
            TokenKind::LParen => "(",
            TokenKind::RParen => ")",
            TokenKind::LBrace => "{",
            TokenKind::RBrace => "}",
            TokenKind::Comma => ",",
            TokenKind::Semi => ";",
            TokenKind::Colon => ":",
            TokenKind::Dot => ".",
            TokenKind::Assign => "=",
            TokenKind::Plus => "+",
            TokenKind::Minus => "-",
            TokenKind::Star => "*",
            TokenKind::Slash => "/",
            TokenKind::Percent => "%",
            TokenKind::Bang => "!",
            TokenKind::EqEq => "==",
            TokenKind::NotEq => "!=",
            TokenKind::Lt => "<",
            TokenKind::LtEq => "<=",
            TokenKind::Gt => ">",
            TokenKind::GtEq => ">=",
            TokenKind::AndAnd => "&&",
            TokenKind::OrOr => "||",
            TokenKind::Int(_) | TokenKind::Str(_) | TokenKind::Ident(_) | TokenKind::Eof => {
                unreachable!("non-fixed token has no symbol")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_lookup() {
        assert_eq!(TokenKind::keyword("class"), Some(TokenKind::Class));
        assert_eq!(
            TokenKind::keyword("instanceof"),
            Some(TokenKind::Instanceof)
        );
        assert_eq!(TokenKind::keyword("retry"), None);
    }

    #[test]
    fn describe_is_readable() {
        let mut names = Names::default();
        let x = names.push("x");
        assert_eq!(TokenKind::Int(7).describe(&names), "integer `7`");
        assert_eq!(TokenKind::Ident(x).describe(&names), "identifier `x`");
        assert_eq!(TokenKind::Str(x).describe(&names), "string literal");
        assert_eq!(TokenKind::LBrace.describe(&names), "`{`");
        assert_eq!(TokenKind::Eof.describe(&names), "end of input");
    }
}
