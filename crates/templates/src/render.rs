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
/// compiled instruction stream against a [`Context`]. Output
/// auto-escapes HTML unless a value passes through the `safe` filter,
/// mirroring Django.
///
/// # Examples
///
/// ```
/// use staged_templates::{Context, Template};
///
/// let t = Template::compile("Hello {{ name|capfirst }}!").unwrap();
/// let mut ctx = Context::new();
/// ctx.insert("name", "ada");
/// assert_eq!(t.render(&ctx).unwrap(), "Hello Ada!");
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
    /// [`TemplateError::Parse`] with a line number on syntax errors.
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
        assert_eq!(render("{{ evil|safe }}", &ctx), "<script>alert(1)</script>");
        // Filters that write straight into the buffer escape too.
        ctx.insert("name", "o'NEIL & <sons> 'x co");
        assert_eq!(
            render(
                "{{ name|title }}|{{ name|title|safe }}|{{ name|urlencode }}",
                &ctx
            ),
            "O&#x27;neil &amp; &lt;sons&gt; &#x27;x Co|O'neil & <sons> 'x Co\
             |o%27NEIL%20%26%20%3Csons%3E%20%27x%20co"
        );
    }

    #[test]
    fn escape_applies_once_even_with_safe_text() {
        let mut ctx = Context::new();
        ctx.insert("v", "a&b");
        assert_eq!(render("{{ v|escape }}", &ctx), "a&amp;b");
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
    fn if_elif_else_branches() {
        let src = "{% if n > 10 %}big{% elif n > 5 %}mid{% else %}small{% endif %}";
        let mut ctx = Context::new();
        ctx.insert("n", 20);
        assert_eq!(render(src, &ctx), "big");
        ctx.insert("n", 7);
        assert_eq!(render(src, &ctx), "mid");
        ctx.insert("n", 1);
        assert_eq!(render(src, &ctx), "small");
    }

    #[test]
    fn boolean_operators_and_comparisons() {
        let mut ctx = Context::new();
        ctx.insert("a", true);
        ctx.insert("b", false);
        ctx.insert("name", "ada");
        assert_eq!(render("{% if a and not b %}y{% endif %}", &ctx), "y");
        assert_eq!(render("{% if b or a %}y{% endif %}", &ctx), "y");
        assert_eq!(render("{% if name == 'ada' %}y{% endif %}", &ctx), "y");
        assert_eq!(render("{% if name != 'bob' %}y{% endif %}", &ctx), "y");
        assert_eq!(render("{% if 'd' in name %}y{% endif %}", &ctx), "y");
    }

    #[test]
    fn in_operator_on_lists() {
        let mut ctx = Context::new();
        ctx.insert("xs", Value::from(vec![Value::Int(1), Value::Int(2)]));
        assert_eq!(render("{% if 2 in xs %}y{% else %}n{% endif %}", &ctx), "y");
        assert_eq!(render("{% if 9 in xs %}y{% else %}n{% endif %}", &ctx), "n");
    }

    #[test]
    fn numeric_comparison_coerces_strings() {
        let mut ctx = Context::new();
        ctx.insert("n", "15");
        assert_eq!(render("{% if n > 9 %}y{% endif %}", &ctx), "y");
    }

    #[test]
    fn string_comparison_is_lexicographic() {
        let mut ctx = Context::new();
        ctx.insert("a", "apple");
        ctx.insert("b", "banana");
        assert_eq!(render("{% if a < b %}y{% endif %}", &ctx), "y");
    }

    #[test]
    fn forloop_counters() {
        let mut ctx = Context::new();
        ctx.insert("xs", Value::from(vec!["a".into(), "b".into(), "c".into()]));
        assert_eq!(
            render(
                "{% for x in xs %}{{ forloop.counter }}{{ x }} {% endfor %}",
                &ctx
            ),
            "1a 2b 3c "
        );
        assert_eq!(
            render(
                "{% for x in xs %}{% if forloop.first %}[{% endif %}{{ x }}\
                 {% if forloop.last %}]{% endif %}{% endfor %}",
                &ctx
            ),
            "[abc]"
        );
        assert_eq!(
            render(
                "{% for x in xs %}{{ forloop.revcounter0 }}{% endfor %}",
                &ctx
            ),
            "210"
        );
    }

    #[test]
    fn nested_loops_and_parentloop() {
        let mut ctx = Context::new();
        let inner = Value::from(vec!["x".into(), "y".into()]);
        ctx.insert("rows", Value::from(vec![inner.clone(), inner]));
        assert_eq!(
            render(
                "{% for row in rows %}{% for c in row %}\
                 {{ forloop.parentloop.counter }}.{{ forloop.counter }} \
                 {% endfor %}{% endfor %}",
                &ctx
            ),
            "1.1 1.2 2.1 2.2 "
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

    #[test]
    fn with_binds_a_scoped_value() {
        let mut ctx = Context::new();
        ctx.insert("price", 10);
        assert_eq!(
            render(
                "{% with t = price|add:5 %}{{ t }}+{{ t }}{% endwith %}|{{ t }}",
                &ctx
            ),
            "15+15|"
        );
        // Compact Django syntax.
        assert_eq!(render("{% with x=3 %}{{ x }}{% endwith %}", &ctx), "3");
        // Shadowing ends at endwith.
        ctx.insert("x", "outer");
        assert_eq!(
            render("{% with x='inner' %}{{ x }}{% endwith %}{{ x }}", &ctx),
            "innerouter"
        );
    }

    #[test]
    fn with_errors() {
        assert!(Template::compile("{% with %}{% endwith %}").is_err());
        assert!(Template::compile("{% with x = 1 %}").is_err());
        assert!(Template::compile("{% with a.b = 1 %}{% endwith %}").is_err());
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
        assert_eq!(render(r#"{{ items|join:"-"|upper }}"#, &ctx), "B-A");
    }

    #[test]
    fn filter_arg_resolves_variables() {
        let mut ctx = Context::new();
        ctx.insert("n", 4);
        ctx.insert("inc", 3);
        assert_eq!(render("{{ n|add:inc }}", &ctx), "7");
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
        let src = "{% for b in books %}{{ forloop.counter }}/{{ forloop.length }}\
                   {% if forloop.last %}.{% else %},{% endif %}{% endfor %} \
                   {{ books|length }} book{{ books|length|pluralize }}";
        let mut ctx = Context::new();
        for (rows, want) in [
            (3, "1/3,2/3,3/3. 3 books"),
            (1, "1/1. 1 book"),
            (0, " 0 books"),
        ] {
            ctx.insert("books", books(rows));
            assert_eq!(render(src, &ctx), want, "{rows} rows");
        }
    }

    #[test]
    fn table_truthiness() {
        let src = "{% if books %}some{% else %}none{% endif %}\
                   {% if books.0 %}+row{% endif %}{% if not books.7 %}-row{% endif %}";
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
        assert_eq!(
            render("{% with b=books.1 %}{{ b.cost }}{% endwith %}", &ctx),
            "1.5"
        );
    }

    #[test]
    fn unknown_filter_is_render_error() {
        let t = Template::compile("{{ x|zap }}").unwrap();
        assert!(t.render(&Context::new()).is_err());
    }
}
