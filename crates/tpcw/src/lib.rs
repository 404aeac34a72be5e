//! A TPC-W online-bookstore benchmark built on the staged-web stack.
//!
//! The paper evaluates its scheduling method with "the standard TPC-W
//! benchmark implemented with the Django web templates" — an
//! implementation the authors wrote from scratch (455 lines of Python,
//! 704 lines of templates) because existing TPC-W codebases predate the
//! template style. This crate is the same artefact for the Rust stack:
//!
//! * the full **bookstore schema** (customer / address / country /
//!   author / item / orders / order_line / cc_xacts / shopping_cart /
//!   shopping_cart_line) with the TPC-W-shaped indexes;
//! * a deterministic, **scalable population generator**
//!   ([`ScaleConfig`]; the paper's one-million-item database scales down
//!   ×100 by default, preserving the quick/lengthy query dichotomy);
//! * all **14 web interactions** as [`staged_core::App`] routes, each
//!   returning an unrendered template (the paper's modified return
//!   statement) — the quick pages are indexed point lookups, while Best
//!   Sellers / New Products / Execute Search scan and aggregate, and
//!   Admin Confirm takes the item-table write lock (the paper's four
//!   slow pages);
//! * Django-style **templates** for every page;
//! * the **browsing-mix workload generator**: closed-loop emulated
//!   browsers with scaled 0.7–7 s think times, per-page response-time
//!   measurement (Table 3) and completion counts (Table 4);
//! * the paper run's **deployment** ([`Deployment::paper`]): every
//!   constant of one experiment run, each with the paper's value and
//!   the time scale between them.
//!
//! # Examples
//!
//! ```
//! use staged_tpcw::{build_app, populate, ScaleConfig};
//! use staged_db::Database;
//! use std::sync::Arc;
//!
//! let db = Arc::new(Database::new());
//! let scale = ScaleConfig::tiny();
//! populate(&db, &scale);
//! let app = build_app(&db, &scale);
//! assert_eq!(app.route_paths().len(), 14);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod app;
mod deployment;
mod pages;
mod populate;
mod report;
mod scale;
mod schema;
mod templates;
mod workload;

pub use app::build_app;
pub use deployment::Deployment;
pub use populate::{populate, PopulationSummary};
pub use report::{PageReport, WorkloadReport};
pub use scale::ScaleConfig;
pub use schema::create_schema;
pub use templates::install_templates;
pub use workload::{run_workload, PAGES};
