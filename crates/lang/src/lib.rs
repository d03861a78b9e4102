#![forbid(unsafe_code)]
//! Javelin: a small Java-like modeling language.
//!
//! Javelin is the source substrate of the WASABI reproduction. It models the
//! subset of Java that retry logic and retry-bug detection care about:
//! classes, methods with declared `throws` clauses, try/catch/finally with an
//! exception hierarchy, loops, switches (for state machines), queues (for
//! asynchronous task re-enqueueing), `sleep`, configuration keys, and unit
//! tests with assertions.
//!
//! The crate provides:
//!
//! - [`lexer::Lexer`] and [`parser::parse_file`] — source text to AST, one
//!   streamed token at a time, with nesting bounded by
//!   [`parser::MAX_DEPTH`];
//! - [`ast`] — the abstract syntax tree, stored flat per file (node vectors
//!   linked by `u32` ids, names interned per file), with stable
//!   [`ast::CallId`]s on every call site and [`ast::LoopId`]s on every
//!   loop, used by the analysis and injection crates to name retry
//!   locations;
//! - [`printer`] — a pretty-printer whose output re-parses to the same AST;
//! - [`project::Project`] — a compiled multi-file program with a
//!   [`project::SymbolTable`] (classes, exception hierarchy, config defaults).
//!
//! # Examples
//!
//! ```
//! use wasabi_lang::project::Project;
//!
//! let src = r#"
//! exception ConnectException extends Exception;
//! class Client {
//!     method connect() throws ConnectException {
//!         return "ok";
//!     }
//!     method run() {
//!         for (var retry = 0; retry < 3; retry = retry + 1) {
//!             try {
//!                 return this.connect();
//!             } catch (ConnectException e) {
//!                 sleep(100);
//!             }
//!         }
//!         return null;
//!     }
//! }
//! "#;
//! let project = Project::compile("demo", vec![("client.jav", src)]).unwrap();
//! assert_eq!(project.files.len(), 1);
//! assert!(project.symbols.class("Client").is_some());
//! ```

pub mod ast;
pub mod error;
pub mod index;
pub mod intern;
pub mod lexer;
pub mod parser;
pub mod printer;
pub mod project;
pub mod span;
pub mod token;

pub use ast::{CallId, LoopId};
pub use error::Diagnostic;
pub use index::ProgramIndex;
pub use intern::{Interner, MethodSym, NameTable, Symbol};
pub use project::Project;
pub use span::Span;
