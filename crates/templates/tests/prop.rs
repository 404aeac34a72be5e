//! Property-based tests for the template engine.

use proptest::prelude::*;
use staged_templates::{escape_html, Context, Template, Value};

proptest! {
    /// Compilation is total: arbitrary source either compiles or
    /// returns a parse error — it never panics.
    #[test]
    fn compile_is_total(source in ".{0,300}") {
        let _ = Template::compile(&source);
    }

    /// Rendering compiled arbitrary-ish templates is total too.
    #[test]
    fn render_is_total(source in "[ -~{}%|.]{0,120}") {
        if let Ok(t) = Template::compile(&source) {
            let mut ctx = Context::new();
            ctx.insert("x", 1);
            ctx.insert("s", "text");
            let _ = t.render(&ctx);
        }
    }

    /// Escaped output never contains active HTML metacharacters.
    #[test]
    fn escape_neutralizes_html(s in ".{0,200}") {
        let escaped = escape_html(&s);
        prop_assert!(!escaped.contains('<'));
        prop_assert!(!escaped.contains('>'));
        prop_assert!(!escaped.contains('"'));
        prop_assert!(!escaped.contains('\''));
        // Every remaining '&' begins an entity we produced.
        for (i, _) in escaped.match_indices('&') {
            let rest = &escaped[i..];
            prop_assert!(
                rest.starts_with("&amp;")
                    || rest.starts_with("&lt;")
                    || rest.starts_with("&gt;")
                    || rest.starts_with("&quot;")
                    || rest.starts_with("&#x27;"),
                "stray ampersand in {escaped:?}"
            );
        }
    }

    /// Template text without tag delimiters renders as itself.
    #[test]
    fn plain_text_is_identity(s in "[^{}%#]*") {
        let t = Template::compile(&s).unwrap();
        prop_assert_eq!(t.render(&Context::new()).unwrap(), s);
    }

    /// Variable interpolation of benign values inserts exactly the
    /// display string.
    #[test]
    fn interpolation_inserts_value(n in -1000i64..1000) {
        let t = Template::compile("[{{ n }}]").unwrap();
        let mut ctx = Context::new();
        ctx.insert("n", n);
        prop_assert_eq!(t.render(&ctx).unwrap(), format!("[{n}]"));
    }

    /// Auto-escaping means a hostile string value can never introduce
    /// an unescaped tag into the output.
    #[test]
    fn no_injection_through_values(payload in ".{0,100}") {
        let t = Template::compile("<div>{{ v }}</div>").unwrap();
        let mut ctx = Context::new();
        ctx.insert("v", payload);
        let html = t.render(&ctx).unwrap();
        let inner = &html[5..html.len() - 6];
        prop_assert!(!inner.contains('<'), "injection: {html:?}");
    }

    /// A for-loop over a list visits every element exactly once, in
    /// order.
    #[test]
    fn for_loop_visits_in_order(items in proptest::collection::vec(0i64..100, 0..10)) {
        let t = Template::compile("{% for x in xs %}{{ x }};{% endfor %}").unwrap();
        let mut ctx = Context::new();
        ctx.insert(
            "xs",
            Value::List(items.iter().map(|&i| Value::Int(i)).collect()),
        );
        let expected: String = items.iter().map(|x| format!("{x};")).collect();
        prop_assert_eq!(t.render(&ctx).unwrap(), expected);
    }

    /// The `length` filter matches the actual collection size.
    #[test]
    fn length_filter_is_exact(items in proptest::collection::vec(0i64..5, 0..20)) {
        let t = Template::compile("{{ xs|length }}").unwrap();
        let mut ctx = Context::new();
        let n = items.len();
        ctx.insert("xs", Value::List(items.into_iter().map(Value::Int).collect()));
        prop_assert_eq!(t.render(&ctx).unwrap(), n.to_string());
    }
}
