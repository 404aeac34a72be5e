//! A Django-style template engine.
//!
//! The paper's whole premise is the separation of *content code* from
//! *presentation code* via templates (its Figures 2/3 show a Django data
//! function and template). This crate rebuilds the template language
//! those figures and the TPC-W pages use, and nothing more — each tag
//! and filter below is one some page compiles to:
//!
//! * `{{ variable.path }}` substitution with dotted lookup into maps,
//!   lists and query-result [`Table`]s, every value HTML-escaped;
//! * `{% if expr %} / {% else %} / {% endif %}`, testing one expression
//!   for truthiness (no operators);
//! * `{% for x in xs %} … {% empty %} … {% endfor %}`;
//! * `{% include "name" %}`;
//! * a pipe-filter chain (`{{ item.cost|floatformat:2 }}`) over the
//!   seven filters of [`FILTERS`];
//! * a concurrent [`TemplateStore`] that compiles once and renders many
//!   times — the paper's render pool holds exactly such a store.
//!
//! Any other tag or filter fails to compile, with its line; [`TAGS`]
//! and [`FILTERS`] are the whole language.
//!
//! # Examples
//!
//! ```
//! use staged_templates::{Context, Template, Value};
//!
//! let t = Template::compile(
//!     "<h2>{{ heading }}</h2><ul>{% for item in listitems %}\
//!      <li>{{ item }}</li>{% endfor %}</ul>",
//! ).unwrap();
//! let mut ctx = Context::new();
//! ctx.insert("heading", "Welcome");
//! ctx.insert("listitems", Value::from(vec!["a".into(), "b".into()]));
//! let html = t.render(&ctx).unwrap();
//! assert_eq!(html, "<h2>Welcome</h2><ul><li>a</li><li>b</li></ul>");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ast;
mod error;
mod filters;
mod lexer;
mod parser;
mod program;
mod render;
mod store;
mod value;

pub use error::TemplateError;
pub use filters::{escape_html, FILTERS};
pub use parser::TAGS;
pub use render::Template;
pub use store::TemplateStore;
pub use value::{Context, Table, Value};
