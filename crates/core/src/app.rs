//! The application contract shared by both servers.

use crate::error::AppError;
use staged_db::PooledConnection;
use staged_http::{Request, Response, RouteParams, Router, StaticFiles};
use staged_templates::{Context, TemplateStore};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// What a dynamic page handler returns.
///
/// The paper's entire template modification is the return statement
/// (§3.1): instead of `return get_template("tmpl.html").render(data)`
/// a handler returns `return ("tmpl.html", data)`. `PageOutcome`
/// encodes both forms:
///
/// * [`PageOutcome::Template`] is the modified form — the *unrendered*
///   template name plus the rendering data. The staged server ships it
///   to the template-rendering pool; the baseline renders it inline.
/// * [`PageOutcome::Body`] is a pre-rendered response — the backward
///   compatibility path. "Even if a function returns an already-rendered
///   template by mistake, the modified web server can still handle this
///   properly" (§3.1): the dynamic thread sends it directly.
#[derive(Debug, Clone)]
pub enum PageOutcome {
    /// A fully built response; sent by the dynamic-request thread.
    Body(Response),
    /// An unrendered template plus its data; rendered by the render
    /// pool (staged server) or inline (baseline).
    Template {
        /// Template name in the application's [`TemplateStore`].
        name: String,
        /// The data to render with.
        context: Context,
    },
}

impl PageOutcome {
    /// Convenience constructor for the modified return form.
    pub fn template(name: impl Into<String>, context: Context) -> Self {
        PageOutcome::Template {
            name: name.into(),
            context,
        }
    }
}

/// A dynamic page handler.
///
/// Handlers receive the parsed request and the database connection owned
/// by the worker thread executing them — the analogue of CherryPy
/// handlers calling `getconn()` for their thread's connection.
pub type Handler =
    Arc<dyn Fn(&Request, &PooledConnection) -> Result<PageOutcome, AppError> + Send + Sync>;

/// A registered dynamic route: its page name and handler.
pub struct Route {
    /// Stable page key used for per-page service-time tracking (the
    /// paper tracks "the average time spent in generating data for each
    /// page").
    pub name: String,
    /// The page handler ([`PageOutcome`]-producing function).
    pub handler: Handler,
    /// Whether successful `GET` renders of this page may be kept in the
    /// staged server's response cache and served from it when
    /// [`ServerConfig::doc_cache`](crate::ServerConfig::doc_cache) is
    /// on. Off by default: only read-only pages should opt in (a cached
    /// order confirmation would lie).
    pub cacheable: bool,
}

/// A web application: dynamic routes, templates, and static files.
///
/// The same `App` runs unmodified on both servers, so experiments vary
/// only the request-processing model.
#[derive(Clone)]
pub struct App {
    inner: Arc<AppInner>,
}

struct AppInner {
    routes: HashMap<String, Route>,
    patterns: Router<Route>,
    templates: Arc<TemplateStore>,
    statics: StaticFiles,
    render_weight_per_kb: Duration,
    static_weight: Duration,
}

impl fmt::Debug for App {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut names: Vec<&str> = self.inner.routes.keys().map(String::as_str).collect();
        names.sort_unstable();
        f.debug_struct("App")
            .field("routes", &names)
            .field("templates", &self.inner.templates.len())
            .finish()
    }
}

impl App {
    /// Starts building an application.
    pub fn builder() -> AppBuilder {
        AppBuilder {
            routes: HashMap::new(),
            patterns: Router::new(),
            templates: None,
            statics: StaticFiles::in_memory(),
            render_weight_per_kb: Duration::ZERO,
            static_weight: Duration::ZERO,
        }
    }

    /// Blocks for the configured per-kilobyte render weight — the
    /// emulation of the paper's CPython/Django rendering speed (see
    /// `AppBuilder::render_weight_per_kb`). Whichever thread renders
    /// (a baseline worker, or the staged server's render pool) pays it.
    pub fn charge_render(&self, rendered_bytes: usize) {
        let w = self.inner.render_weight_per_kb;
        if !w.is_zero() {
            std::thread::sleep(w.mul_f64(rendered_bytes as f64 / 1024.0));
        }
    }

    /// Blocks for the configured static-service weight (the emulation
    /// of CherryPy's per-request Python overhead on static files).
    pub fn charge_static(&self) {
        let w = self.inner.static_weight;
        if !w.is_zero() {
            std::thread::sleep(w);
        }
    }

    /// Resolves a path: exact routes first, then patterns (most
    /// specific wins). Pattern captures are returned so the server can
    /// merge them into the request's parameters. Public so tests and
    /// tools can invoke a page handler directly, outside a server.
    pub fn route(&self, path: &str) -> Option<(&Route, RouteParams)> {
        if let Some(route) = self.inner.routes.get(path) {
            return Some((route, RouteParams::default()));
        }
        self.inner.patterns.route(path)
    }

    /// The application's template store.
    pub fn templates(&self) -> &Arc<TemplateStore> {
        &self.inner.templates
    }

    /// The application's static file store.
    pub fn statics(&self) -> &StaticFiles {
        &self.inner.statics
    }

    /// Registered dynamic route paths, sorted (exact routes only).
    pub fn route_paths(&self) -> Vec<String> {
        let mut paths: Vec<String> = self.inner.routes.keys().cloned().collect();
        paths.sort();
        paths
    }
}

/// Builder for [`App`].
///
/// # Examples
///
/// ```
/// use staged_core::{App, PageOutcome};
/// use staged_http::Response;
///
/// let app = App::builder()
///     .route("/ping", "ping", |_req, _db| {
///         Ok(PageOutcome::Body(Response::text("pong")))
///     })
///     .build();
/// assert_eq!(app.route_paths(), vec!["/ping"]);
/// ```
pub struct AppBuilder {
    routes: HashMap<String, Route>,
    patterns: Router<Route>,
    templates: Option<Arc<TemplateStore>>,
    statics: StaticFiles,
    render_weight_per_kb: Duration,
    static_weight: Duration,
}

impl fmt::Debug for AppBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AppBuilder")
            .field("routes", &self.routes.len())
            .finish()
    }
}

impl AppBuilder {
    /// Registers a dynamic route. `name` is the page key the scheduler
    /// tracks service times under (one per page type, like the paper's
    /// 14 TPC-W pages).
    pub fn route<F>(mut self, path: impl Into<String>, name: impl Into<String>, handler: F) -> Self
    where
        F: Fn(&Request, &PooledConnection) -> Result<PageOutcome, AppError> + Send + Sync + 'static,
    {
        self.routes.insert(
            path.into(),
            Route {
                name: name.into(),
                handler: Arc::new(handler),
                cacheable: false,
            },
        );
        self
    }

    /// Marks an already-registered exact route as **cacheable**: with
    /// [`ServerConfig::doc_cache`](crate::ServerConfig::doc_cache) on,
    /// the staged server keeps its successful `GET` renders in its
    /// response cache, tagged with what they read, evicted by any write
    /// that touches it, and served from the parse stage until then.
    /// Only mark read-only pages — a cached copy of a page that confirms
    /// a mutation would misreport what happened.
    ///
    /// # Panics
    ///
    /// Panics if no exact route is registered at `path` (a programming
    /// error caught at startup).
    pub fn cacheable(mut self, path: &str) -> Self {
        self.routes
            .get_mut(path)
            .unwrap_or_else(|| panic!("cacheable: no exact route at {path:?}"))
            .cacheable = true;
        self
    }

    /// Registers a pattern route (`/item/:id`, trailing `*rest`
    /// wildcards). Captures are merged into the request's query
    /// parameters before the handler runs, so `req.param("id")` works
    /// for both sources. Exact routes always win over patterns.
    ///
    /// # Panics
    ///
    /// Panics if the pattern is malformed (a programming error caught
    /// at startup).
    pub fn route_pattern<F>(mut self, pattern: &str, name: impl Into<String>, handler: F) -> Self
    where
        F: Fn(&Request, &PooledConnection) -> Result<PageOutcome, AppError> + Send + Sync + 'static,
    {
        self.patterns
            .add(
                pattern,
                Route {
                    name: name.into(),
                    handler: Arc::new(handler),
                    cacheable: false,
                },
            )
            .unwrap_or_else(|e| panic!("invalid route pattern {pattern:?}: {e}"));
        self
    }

    /// Sets the template store handlers name templates from.
    pub fn templates(mut self, store: Arc<TemplateStore>) -> Self {
        self.templates = Some(store);
        self
    }

    /// Sets the static file store.
    pub fn static_files(mut self, statics: StaticFiles) -> Self {
        self.statics = statics;
        self
    }

    /// Emulates a slower template engine: rendering a page blocks the
    /// rendering thread for this duration per kilobyte of output. The
    /// paper's stack rendered Django templates under the CPython
    /// interpreter, where rendering cost is comparable to the database
    /// time of quick pages — that ratio is what makes moving rendering
    /// off connection-holding threads profitable. Zero (the default)
    /// means only the real Rust rendering cost is paid.
    pub fn render_weight_per_kb(mut self, weight: Duration) -> Self {
        self.render_weight_per_kb = weight;
        self
    }

    /// Emulates interpreter overhead on static file service: each
    /// static response blocks its serving thread this long. Zero (the
    /// default) pays only real cost.
    pub fn static_weight(mut self, weight: Duration) -> Self {
        self.static_weight = weight;
        self
    }

    /// Finishes the application.
    pub fn build(self) -> App {
        App {
            inner: Arc::new(AppInner {
                routes: self.routes,
                patterns: self.patterns,
                templates: self
                    .templates
                    .unwrap_or_else(|| Arc::new(TemplateStore::new())),
                statics: self.statics,
                render_weight_per_kb: self.render_weight_per_kb,
                static_weight: self.static_weight,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use staged_http::StatusCode;

    #[test]
    fn builder_registers_routes_and_stores() {
        let templates = Arc::new(TemplateStore::new());
        templates.insert("a.html", "x").unwrap();
        let mut statics = StaticFiles::in_memory();
        statics.insert("/s.css", b"body{}".to_vec());
        let app = App::builder()
            .templates(Arc::clone(&templates))
            .static_files(statics)
            .route("/a", "page_a", |_r, _c| {
                Ok(PageOutcome::template("a.html", Context::new()))
            })
            .route("/b", "page_b", |_r, _c| {
                Ok(PageOutcome::Body(Response::text("b")))
            })
            .build();
        assert_eq!(app.route_paths(), vec!["/a", "/b"]);
        assert!(app.route("/a").is_some());
        assert!(app.route("/zzz").is_none());
        assert_eq!(app.route("/a").unwrap().0.name, "page_a");
        assert_eq!(app.templates().len(), 1);
        assert!(app.statics().lookup("/s.css").is_some());
    }

    #[test]
    fn outcome_constructors() {
        let o = PageOutcome::template("t.html", Context::new());
        match o {
            PageOutcome::Template { name, .. } => assert_eq!(name, "t.html"),
            o => panic!("unexpected {o:?}"),
        }
        let o = PageOutcome::Body(Response::error(StatusCode::NOT_FOUND));
        match o {
            PageOutcome::Body(r) => assert_eq!(r.status(), StatusCode::NOT_FOUND),
            o => panic!("unexpected {o:?}"),
        }
    }

    #[test]
    fn cacheable_flags_exact_routes() {
        let app = App::builder()
            .route("/ro", "ro", |_r, _c| {
                Ok(PageOutcome::template("t.html", Context::new()))
            })
            .route("/rw", "rw", |_r, _c| {
                Ok(PageOutcome::template("t.html", Context::new()))
            })
            .cacheable("/ro")
            .build();
        assert!(app.route("/ro").unwrap().0.cacheable);
        assert!(!app.route("/rw").unwrap().0.cacheable);
    }

    #[test]
    #[should_panic(expected = "no exact route")]
    fn cacheable_requires_registered_route() {
        let _ = App::builder().cacheable("/missing");
    }

    #[test]
    fn debug_lists_routes() {
        let app = App::builder()
            .route("/x", "x", |_r, _c| {
                Ok(PageOutcome::Body(Response::text("")))
            })
            .build();
        assert!(format!("{app:?}").contains("/x"));
    }
}
