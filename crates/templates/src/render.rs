//! Template compilation and rendering.

use crate::error::TemplateError;
use crate::parser::parse;
use crate::program::{render_program, Program};
use crate::store::TemplateStore;
use crate::value::Context;

/// A compiled template, safe to share across threads and render
/// concurrently.
///
/// Compilation happens once ([`Template::compile`]); rendering runs the
/// compiled instruction stream against a [`Context`]. Every value is
/// HTML-escaped on output; the language has no way to mark one safe.
///
/// # Examples
///
/// ```
/// use staged_templates::{Context, Template};
///
/// let t = Template::compile("Hello {{ name|title }}!").unwrap();
/// let mut ctx = Context::new();
/// ctx.insert("name", "ada <lovelace>");
/// assert_eq!(t.render(&ctx).unwrap(), "Hello Ada &lt;lovelace&gt;!");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Template {
    program: Program,
}

impl Template {
    /// Compiles template source: parses it and flattens the syntax tree
    /// into the instruction-stream program that rendering executes.
    ///
    /// # Errors
    ///
    /// [`TemplateError::Parse`] with a line number on syntax errors,
    /// unknown tags and unknown filters.
    pub fn compile(source: &str) -> Result<Self, TemplateError> {
        Ok(Template {
            program: Program::compile(&parse(source)?),
        })
    }

    /// Renders with the given context. `{% include %}` tags fail without
    /// a store — use [`TemplateStore::render`] for templates that
    /// include others.
    ///
    /// # Errors
    ///
    /// [`TemplateError::Render`] on filter errors or includes without a
    /// store.
    pub fn render(&self, ctx: &Context) -> Result<String, TemplateError> {
        self.render_with(ctx, None)
    }

    /// Renders with access to a store for `{% include %}` resolution.
    ///
    /// # Errors
    ///
    /// [`TemplateError::Render`] on filter errors,
    /// [`TemplateError::NotFound`] for missing includes.
    pub fn render_with(
        &self,
        ctx: &Context,
        store: Option<&TemplateStore>,
    ) -> Result<String, TemplateError> {
        let mut out = Vec::with_capacity(256);
        self.render_into(ctx, store, &mut out)?;
        Ok(String::from_utf8(out).expect("template output is UTF-8"))
    }

    /// Renders into a caller-supplied buffer (typically taken from a
    /// buffer pool), appending to its current contents. This is the
    /// zero-copy hot path: compiled-program execution with no
    /// intermediate `String`s.
    ///
    /// # Errors
    ///
    /// [`TemplateError::Render`] on filter errors,
    /// [`TemplateError::NotFound`] for missing includes.
    pub fn render_into(
        &self,
        ctx: &Context,
        store: Option<&TemplateStore>,
        out: &mut Vec<u8>,
    ) -> Result<(), TemplateError> {
        render_program(&self.program, ctx, store, out)
    }

    pub(crate) fn program(&self) -> &Program {
        &self.program
    }

    /// The block tags of [`TAGS`](crate::TAGS) this template compiled
    /// to, each once, in table order (`include` counts; the included
    /// template's own tags do not).
    pub fn tags(&self) -> Vec<&'static str> {
        self.program.tags()
    }

    /// The filters of [`FILTERS`](crate::FILTERS) this template applies,
    /// each once, in table order.
    pub fn filters(&self) -> Vec<&'static str> {
        self.program.filters()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{Table, Value};
    use std::collections::BTreeMap;

    fn render(source: &str, ctx: &Context) -> String {
        Template::compile(source).unwrap().render(ctx).unwrap()
    }

    #[test]
    fn renders_paper_figure_3_template() {
        // The presentation template from the paper's Figure 3.
        let source = "<html>\n<head> <title> {{ title }} </title> </head>\n<body>\n\
                      <h2 align=\"center\"> {{ heading }} </h2>\n<ul>\n\
                      {% for item in listitems %}\n<li> {{ item }} </li>\n{% endfor %}\n\
                      </ul>\n</body>\n</html>";
        let mut ctx = Context::new();
        ctx.insert("title", "My Page");
        ctx.insert("heading", "Welcome");
        ctx.insert(
            "listitems",
            Value::from(vec!["one".into(), "two".into(), "three".into()]),
        );
        let html = render(source, &ctx);
        assert!(html.contains("<title> My Page </title>"));
        assert!(html.contains("<h2 align=\"center\"> Welcome </h2>"));
        assert_eq!(html.matches("<li>").count(), 3);
        assert!(html.contains("<li> two </li>"));
    }

    #[test]
    fn missing_variables_render_empty() {
        assert_eq!(render("[{{ nothing }}]", &Context::new()), "[]");
    }

    #[test]
    fn auto_escaping_on_by_default() {
        let mut ctx = Context::new();
        ctx.insert("evil", "<script>alert(1)</script>");
        assert_eq!(
            render("{{ evil }}", &ctx),
            "&lt;script&gt;alert(1)&lt;/script&gt;"
        );
        // Filters that write straight into the buffer escape too, as do
        // a default's literal and a filter's computed value.
        ctx.insert("name", "o'NEIL & <sons> 'x co");
        assert_eq!(
            render("{{ name|title }}|{{ name|urlencode }}", &ctx),
            "O&#x27;neil &amp; &lt;sons&gt; &#x27;x Co\
             |o%27NEIL%20%26%20%3Csons%3E%20%27x%20co"
        );
        assert_eq!(
            render("{{ nothing|default:'<i>' }}|{{ evil|slice:':3' }}", &ctx),
            "&lt;i&gt;|&lt;sc"
        );
    }

    #[test]
    fn dotted_lookup_into_maps_and_lists() {
        let mut book = BTreeMap::new();
        book.insert("title".to_string(), Value::from("Dune"));
        let mut ctx = Context::new();
        ctx.insert("books", Value::from(vec![Value::from(book)]));
        assert_eq!(render("{{ books.0.title }}", &ctx), "Dune");
        assert_eq!(render("{{ books.5.title }}", &ctx), "");
    }

    #[test]
    fn if_else_branches() {
        let src = "{% if n %}some{% else %}none{% endif %}|{% if n %}only{% endif %}";
        let mut ctx = Context::new();
        ctx.insert("n", 20);
        assert_eq!(render(src, &ctx), "some|only");
        for falsy in [Value::Int(0), Value::from(""), Value::List(vec![])] {
            ctx.insert("n", falsy);
            assert_eq!(render(src, &ctx), "none|");
        }
        assert_eq!(render(src, &Context::new()), "none|");
    }

    #[test]
    fn nested_loops() {
        let mut ctx = Context::new();
        let rows = vec![
            Value::from(vec!["x".into(), "y".into()]),
            Value::from(vec!["z".into()]),
        ];
        ctx.insert("rows", Value::from(rows));
        assert_eq!(
            render(
                "{% for row in rows %}{% for c in row %}\
                 {{ row|length }}{{ c }} {% endfor %}{% endfor %}",
                &ctx
            ),
            "2x 2y 1z "
        );
    }

    #[test]
    fn for_empty_branch() {
        let mut ctx = Context::new();
        ctx.insert("xs", Value::List(vec![]));
        assert_eq!(
            render("{% for x in xs %}{{ x }}{% empty %}none{% endfor %}", &ctx),
            "none"
        );
    }

    #[test]
    fn loop_variable_shadows_context() {
        let mut ctx = Context::new();
        ctx.insert("x", "outer");
        ctx.insert("xs", Value::from(vec!["inner".into()]));
        assert_eq!(
            render("{% for x in xs %}{{ x }}{% endfor %}|{{ x }}", &ctx),
            "inner|outer"
        );
    }

    #[test]
    fn iterating_a_string_yields_chars() {
        let mut ctx = Context::new();
        ctx.insert("s", "ab");
        assert_eq!(
            render("{% for c in s %}({{ c }}){% endfor %}", &ctx),
            "(a)(b)"
        );
    }

    /// `with` is not a tag of the language.
    #[test]
    fn with_errors() {
        for src in [
            "{% with %}{% endwith %}",
            "{% with x = 1 %}{{ x }}{% endwith %}",
            "{% with x=1 %}{{ x }}{% endwith %}",
        ] {
            assert!(
                matches!(Template::compile(src), Err(TemplateError::Parse { .. })),
                "{src}"
            );
        }
    }

    #[test]
    fn include_without_store_errors() {
        let t = Template::compile(r#"{% include "x.html" %}"#).unwrap();
        assert!(matches!(
            t.render(&Context::new()),
            Err(TemplateError::Render(_))
        ));
    }

    #[test]
    fn filters_chain_in_output() {
        let mut ctx = Context::new();
        ctx.insert("items", Value::from(vec!["b".into(), "a".into()]));
        ctx.insert("name", "ARTSY");
        assert_eq!(
            render(
                r#"{{ name|slice:":3"|title }}-{{ items|slice:"1:"|length }}"#,
                &ctx
            ),
            "Art-1"
        );
    }

    #[test]
    fn filter_arg_resolves_variables() {
        let mut ctx = Context::new();
        ctx.insert("n", 4);
        ctx.insert("digits", 2);
        ctx.insert("fallback", 3);
        assert_eq!(
            render("{{ n|floatformat:digits }}|{{ m|default:fallback }}", &ctx),
            "4.00|3"
        );
    }

    /// A query-result table: `rows` books with a NULL author on row 2.
    fn books(rows: usize) -> Value {
        let columns = ["title", "cost", "author"].map(String::from).to_vec();
        let mut t = Table::with_capacity(columns, rows);
        for i in 0..rows {
            let author = if i == 1 {
                Value::Null
            } else {
                Value::from("Le Guin & Co")
            };
            t.push_row([
                Value::from(format!("Book <{i}>")),
                Value::Float(i as f64 + 0.5),
                author,
            ]);
        }
        Value::from(t)
    }

    #[test]
    fn table_rows_drive_for_and_empty() {
        let src = "{% for b in books %}[{{ b.title }}|{{ b.cost|floatformat:2 }}|{{ b.author }}]\
                   {% empty %}none{% endfor %}";
        let mut ctx = Context::new();
        ctx.insert("books", books(2));
        assert_eq!(
            render(src, &ctx),
            "[Book &lt;0&gt;|0.50|Le Guin &amp; Co][Book &lt;1&gt;|1.50|]"
        );
        ctx.insert("books", books(0));
        assert_eq!(render(src, &ctx), "none");
    }

    #[test]
    fn table_loops_count_and_measure() {
        let src = "{% for b in books %}{{ b.title|length }},{% endfor %} \
                   {{ books|length }} book{{ books|length|pluralize }}";
        let mut ctx = Context::new();
        for (rows, want) in [(3, "8,8,8, 3 books"), (1, "8, 1 book"), (0, " 0 books")] {
            ctx.insert("books", books(rows));
            assert_eq!(render(src, &ctx), want, "{rows} rows");
        }
    }

    #[test]
    fn table_truthiness() {
        let src = "{% if books %}some{% else %}none{% endif %}\
                   {% if books.0 %}+row{% endif %}{% if books.7 %}+row{% else %}-row{% endif %}";
        let mut ctx = Context::new();
        ctx.insert("books", books(2));
        assert_eq!(render(src, &ctx), "some+row-row");
        ctx.insert("books", books(0));
        assert_eq!(render(src, &ctx), "none-row");
        assert!(!books(0).is_truthy());
        assert!(books(1).is_truthy());
    }

    #[test]
    fn missing_table_column_renders_empty_like_a_missing_key() {
        let mut map = BTreeMap::new();
        map.insert("title".to_string(), Value::from("T"));
        let mut ctx = Context::new();
        ctx.insert("books", books(1));
        ctx.insert("maps", Value::from(vec![Value::from(map)]));
        let src = "{% for b in books %}[{{ b.isbn }}|{{ b.isbn.deep }}|{{ b.isbn|default:'-' }}]{% endfor %}\
                   {% for b in maps %}[{{ b.isbn }}|{{ b.isbn.deep }}|{{ b.isbn|default:'-' }}]{% endfor %}\
                   [{{ books.0.isbn }}|{{ books.3.title }}|{{ books.title }}]";
        assert_eq!(render(src, &ctx), "[||-][||-][||]");
    }

    #[test]
    fn table_rows_read_as_maps_of_their_columns() {
        let mut ctx = Context::new();
        ctx.insert("books", books(2));
        assert_eq!(
            render("{{ books.1.title }}|{{ books.0 }}|{% for k in books.0 %}{{ k }};{% endfor %}", &ctx),
            "Book &lt;1&gt;|{author: Le Guin &amp; Co, cost: 0.5, title: Book &lt;0&gt;}|author;cost;title;"
        );
        assert_eq!(render("{{ books.1.cost }}", &ctx), "1.5");
    }

    #[test]
    fn unknown_filter_is_compile_error() {
        assert!(matches!(
            Template::compile("{{ x|zap }}"),
            Err(TemplateError::Parse { line: 1, .. })
        ));
    }

    /// A template reports the tags and filters it compiled to, from
    /// the engine's tables, each once.
    #[test]
    fn reports_its_tags_and_filters() {
        let t = Template::compile(
            "{% if a %}{{ a|title }}{% endif %}{% for x in xs|slice:':2' %}\
             {{ x|default:'-'|title }}{% empty %}{% include \"e\" %}{% endfor %}",
        )
        .unwrap();
        assert_eq!(t.tags(), ["if", "for", "empty", "include"]);
        assert_eq!(t.filters(), ["default", "slice", "title"]);
        let t = Template::compile("{% if a %}1{% else %}2{% endif %}{{ n }}").unwrap();
        assert_eq!(t.tags(), ["if", "else"]);
        assert!(t.filters().is_empty());
    }
}
