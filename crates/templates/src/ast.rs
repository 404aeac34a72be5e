//! The compiled template AST and expression parsing.

use crate::error::TemplateError;
use crate::filters::Filter as Kind;
use crate::value::Value;

/// A node of a compiled template.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Node {
    /// Literal output.
    Text(String),
    /// `{{ expr }}`
    Var(FilterExpr),
    /// `{% if expr %}…{% else %}…{% endif %}`: the body when `expr` is
    /// truthy.
    If {
        cond: FilterExpr,
        body: Vec<Node>,
        else_body: Vec<Node>,
    },
    /// `{% for x in xs %}…{% empty %}…{% endfor %}`
    For {
        var: String,
        iterable: FilterExpr,
        body: Vec<Node>,
        empty: Vec<Node>,
    },
    /// `{% include "name" %}`
    Include { name: String },
}

/// An operand: a literal or a dotted variable path.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Operand {
    Literal(Value),
    Path(Vec<String>),
}

/// One filter application: `|name` or `|name:arg`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Filter {
    pub kind: Kind,
    pub arg: Option<Operand>,
}

/// An operand plus its filter chain: `item.cost|floatformat:2`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FilterExpr {
    pub base: Operand,
    pub filters: Vec<Filter>,
}

/// Splits a tag body on whitespace, keeping quoted strings (and the
/// filter expressions containing them) intact — Django's `smart_split`.
pub(crate) fn smart_split(s: &str) -> Vec<String> {
    let mut parts = Vec::new();
    let mut current = String::new();
    let mut quote: Option<char> = None;
    for c in s.chars() {
        match quote {
            Some(q) => {
                current.push(c);
                if c == q {
                    quote = None;
                }
            }
            None => {
                if c == '\'' || c == '"' {
                    quote = Some(c);
                    current.push(c);
                } else if c.is_whitespace() {
                    if !current.is_empty() {
                        parts.push(std::mem::take(&mut current));
                    }
                } else {
                    current.push(c);
                }
            }
        }
    }
    if !current.is_empty() {
        parts.push(current);
    }
    parts
}

/// Parses a single token (no unquoted whitespace) as an operand.
fn parse_operand(word: &str, line: usize) -> Result<Operand, TemplateError> {
    if word.is_empty() {
        return Err(TemplateError::parse(line, "empty expression"));
    }
    let first = word.chars().next().expect("non-empty");
    if first == '\'' || first == '"' {
        if word.len() >= 2 && word.ends_with(first) {
            return Ok(Operand::Literal(Value::Str(
                word[1..word.len() - 1].to_string(),
            )));
        }
        return Err(TemplateError::parse(
            line,
            format!("unterminated string literal: {word}"),
        ));
    }
    if let Ok(i) = word.parse::<i64>() {
        return Ok(Operand::Literal(Value::Int(i)));
    }
    if let Ok(f) = word.parse::<f64>() {
        return Ok(Operand::Literal(Value::Float(f)));
    }
    match word {
        "True" => return Ok(Operand::Literal(Value::Bool(true))),
        "False" => return Ok(Operand::Literal(Value::Bool(false))),
        "None" => return Ok(Operand::Literal(Value::Null)),
        _ => {}
    }
    let segments: Vec<String> = word.split('.').map(str::to_string).collect();
    if segments.iter().any(|s| s.is_empty()) {
        return Err(TemplateError::parse(
            line,
            format!("invalid variable path: {word}"),
        ));
    }
    for seg in &segments {
        let valid = seg.chars().all(|c| c.is_alphanumeric() || c == '_');
        if !valid {
            return Err(TemplateError::parse(
                line,
                format!("invalid character in variable path: {word}"),
            ));
        }
    }
    Ok(Operand::Path(segments))
}

/// Splits a filter expression on `|` outside quotes.
fn split_pipes(word: &str) -> Vec<String> {
    let mut parts = Vec::new();
    let mut current = String::new();
    let mut quote: Option<char> = None;
    for c in word.chars() {
        match quote {
            Some(q) => {
                current.push(c);
                if c == q {
                    quote = None;
                }
            }
            None => {
                if c == '\'' || c == '"' {
                    quote = Some(c);
                    current.push(c);
                } else if c == '|' {
                    parts.push(std::mem::take(&mut current));
                } else {
                    current.push(c);
                }
            }
        }
    }
    parts.push(current);
    parts
}

/// Splits `name:arg` on the first `:` outside quotes.
fn split_filter_arg(part: &str) -> (String, Option<String>) {
    let mut quote: Option<char> = None;
    for (i, c) in part.char_indices() {
        match quote {
            Some(q) => {
                if c == q {
                    quote = None;
                }
            }
            None => {
                if c == '\'' || c == '"' {
                    quote = Some(c);
                } else if c == ':' {
                    return (part[..i].to_string(), Some(part[i + 1..].to_string()));
                }
            }
        }
    }
    (part.to_string(), None)
}

impl FilterExpr {
    /// Parses `operand|filter:arg|filter…` from one smart-split token.
    pub(crate) fn parse(word: &str, line: usize) -> Result<Self, TemplateError> {
        let mut parts = split_pipes(word).into_iter();
        let base_str = parts
            .next()
            .ok_or_else(|| TemplateError::parse(line, "empty expression"))?;
        let base = parse_operand(base_str.trim(), line)?;
        let mut filters = Vec::new();
        for part in parts {
            let part = part.trim();
            let (name, arg) = split_filter_arg(part);
            if name.is_empty() || !name.chars().all(|c| c.is_alphanumeric() || c == '_') {
                return Err(TemplateError::parse(
                    line,
                    format!("invalid filter name: {part}"),
                ));
            }
            let kind = Kind::parse(&name)
                .ok_or_else(|| TemplateError::parse(line, format!("invalid filter: {name}")))?;
            let arg = match arg {
                Some(a) => Some(parse_operand(a.trim(), line)?),
                None => None,
            };
            filters.push(Filter { kind, arg });
        }
        Ok(FilterExpr { base, filters })
    }
}

/// Parses an `{% if %}` condition from its smart-split words: one
/// filter expression, tested for truthiness. The language has no `and`,
/// `or`, `not`, comparisons or `in`, so a condition of any other length
/// is an error.
pub(crate) fn parse_condition(words: &[String], line: usize) -> Result<FilterExpr, TemplateError> {
    match words {
        [expr] => FilterExpr::parse(expr, line),
        [] => Err(TemplateError::parse(
            line,
            "expected expression in condition",
        )),
        _ => Err(TemplateError::parse(
            line,
            format!(
                "a condition is one expression, tested for truth: {}",
                words.join(" ")
            ),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smart_split_respects_quotes() {
        assert_eq!(
            smart_split(r#"for x in items|default:", " rest"#),
            vec!["for", "x", "in", r#"items|default:", ""#, "rest"]
        );
        assert_eq!(smart_split("  a   b "), vec!["a", "b"]);
        assert_eq!(smart_split(""), Vec::<String>::new());
    }

    #[test]
    fn parses_paths_and_literals() {
        match FilterExpr::parse("user.name", 1).unwrap().base {
            Operand::Path(p) => assert_eq!(p, vec!["user", "name"]),
            o => panic!("unexpected {o:?}"),
        }
        match FilterExpr::parse("'hi there'", 1).unwrap().base {
            Operand::Literal(Value::Str(s)) => assert_eq!(s, "hi there"),
            o => panic!("unexpected {o:?}"),
        }
        match FilterExpr::parse("-42", 1).unwrap().base {
            Operand::Literal(Value::Int(i)) => assert_eq!(i, -42),
            o => panic!("unexpected {o:?}"),
        }
        match FilterExpr::parse("2.5", 1).unwrap().base {
            Operand::Literal(Value::Float(f)) => assert!((f - 2.5).abs() < 1e-9),
            o => panic!("unexpected {o:?}"),
        }
        match FilterExpr::parse("True", 1).unwrap().base {
            Operand::Literal(Value::Bool(true)) => {}
            o => panic!("unexpected {o:?}"),
        }
    }

    #[test]
    fn parses_filter_chain_with_args() {
        let e = FilterExpr::parse(r#"items|slice:":2"|length"#, 1).unwrap();
        assert_eq!(e.filters.len(), 2);
        assert_eq!(e.filters[0].kind, Kind::Slice);
        assert_eq!(
            e.filters[0].arg,
            Some(Operand::Literal(Value::Str(":2".into())))
        );
        assert_eq!(e.filters[1].kind, Kind::Length);
        assert_eq!(e.filters[1].arg, None);
    }

    #[test]
    fn filter_arg_may_be_variable() {
        let e = FilterExpr::parse("count|default:offset", 1).unwrap();
        assert_eq!(
            e.filters[0].arg,
            Some(Operand::Path(vec!["offset".to_string()]))
        );
    }

    #[test]
    fn rejects_bad_expressions() {
        assert!(FilterExpr::parse("", 1).is_err());
        assert!(FilterExpr::parse("a..b", 1).is_err());
        assert!(FilterExpr::parse("'unterminated", 1).is_err());
        assert!(FilterExpr::parse("a|bad name", 1).is_err());
        assert!(FilterExpr::parse("a-b", 1).is_err());
        assert!(FilterExpr::parse("a|upper", 1).is_err());
    }

    #[test]
    fn condition_errors() {
        let words = |ws: &[&str]| ws.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert!(parse_condition(&words(&["x", "=="]), 1).is_err());
        assert!(parse_condition(&words(&["x", "y"]), 1).is_err());
        assert!(parse_condition(&words(&["not", "x"]), 1).is_err());
        assert!(parse_condition(&words(&["a", "or", "b"]), 1).is_err());
        assert!(parse_condition(&[], 1).is_err());
        assert!(parse_condition(&words(&["x|length"]), 1).is_ok());
    }
}
