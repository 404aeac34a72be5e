//! Parses token streams into the template AST.

use crate::ast::{parse_condition, smart_split, FilterExpr, Node};
use crate::error::TemplateError;
use crate::lexer::{lex, Token};

/// Every block tag the language has, closers (`endif`, `endfor`) aside:
/// the tags the TPC-W pages compile to. Any other tag is a parse error.
pub const TAGS: [&str; 5] = ["if", "else", "for", "empty", "include"];

/// Compiles template source into an AST.
pub(crate) fn parse(source: &str) -> Result<Vec<Node>, TemplateError> {
    let tokens = lex(source)?;
    let mut pos = 0;
    let (nodes, terminator) = parse_nodes(&tokens, &mut pos, &[])?;
    debug_assert!(terminator.is_none());
    Ok(nodes)
}

/// Parses nodes until one of `until` tag keywords (or end of input).
/// Returns the nodes and the terminating tag's content, if any.
fn parse_nodes(
    tokens: &[Token],
    pos: &mut usize,
    until: &[&str],
) -> Result<(Vec<Node>, Option<String>), TemplateError> {
    let mut nodes = Vec::new();
    while *pos < tokens.len() {
        match &tokens[*pos] {
            Token::Text(t) => {
                nodes.push(Node::Text(t.clone()));
                *pos += 1;
            }
            Token::Var { expr, line } => {
                nodes.push(Node::Var(FilterExpr::parse(expr, *line)?));
                *pos += 1;
            }
            Token::Tag { content, line } => {
                let keyword = content.split_whitespace().next().unwrap_or("");
                if until.contains(&keyword) {
                    let content = content.clone();
                    *pos += 1;
                    return Ok((nodes, Some(content)));
                }
                let line = *line;
                match keyword {
                    "if" => nodes.push(parse_if(tokens, pos, line)?),
                    "for" => nodes.push(parse_for(tokens, pos, line)?),
                    "include" => {
                        nodes.push(parse_include(content, line)?);
                        *pos += 1;
                    }
                    "" => {
                        return Err(TemplateError::parse(line, "empty block tag"));
                    }
                    other => {
                        return Err(TemplateError::parse(
                            line,
                            format!("unknown or unexpected tag: {other}"),
                        ));
                    }
                }
            }
        }
    }
    if until.is_empty() {
        Ok((nodes, None))
    } else {
        Err(TemplateError::parse(
            last_line(tokens),
            format!("unclosed block; expected one of: {}", until.join(", ")),
        ))
    }
}

fn last_line(tokens: &[Token]) -> usize {
    tokens
        .iter()
        .rev()
        .find_map(|t| match t {
            Token::Var { line, .. } | Token::Tag { line, .. } => Some(*line),
            Token::Text(_) => None,
        })
        .unwrap_or(1)
}

/// `{% if expr %} … ({% else %} …)? {% endif %}`
fn parse_if(tokens: &[Token], pos: &mut usize, line: usize) -> Result<Node, TemplateError> {
    let Token::Tag { content, .. } = &tokens[*pos] else {
        unreachable!("parse_if called on non-tag");
    };
    let cond = parse_condition(&smart_split(content)[1..], line)?;
    *pos += 1;
    let (body, term) = parse_nodes(tokens, pos, &["else", "endif"])?;
    let mut else_body = Vec::new();
    if term.is_some_and(|t| t.starts_with("else")) {
        (else_body, _) = parse_nodes(tokens, pos, &["endif"])?;
    }
    Ok(Node::If {
        cond,
        body,
        else_body,
    })
}

/// `{% for var in iterable %} … ({% empty %} …)? {% endfor %}`
fn parse_for(tokens: &[Token], pos: &mut usize, line: usize) -> Result<Node, TemplateError> {
    let Token::Tag { content, .. } = &tokens[*pos] else {
        unreachable!("parse_for called on non-tag");
    };
    let words = smart_split(content);
    if words.len() != 4 || words[2] != "in" {
        return Err(TemplateError::parse(
            line,
            format!("malformed for tag: {content}"),
        ));
    }
    let var = words[1].clone();
    if !var.chars().all(|c| c.is_alphanumeric() || c == '_') || var.is_empty() {
        return Err(TemplateError::parse(
            line,
            format!("invalid loop variable: {var}"),
        ));
    }
    let iterable = FilterExpr::parse(&words[3], line)?;
    *pos += 1;

    let (body, term) = parse_nodes(tokens, pos, &["empty", "endfor"])?;
    let term = term.expect("terminator guaranteed");
    let mut empty = Vec::new();
    if term.starts_with("empty") {
        let (e, term) = parse_nodes(tokens, pos, &["endfor"])?;
        debug_assert!(term.is_some());
        empty = e;
    }
    Ok(Node::For {
        var,
        iterable,
        body,
        empty,
    })
}

/// `{% include "name" %}`
fn parse_include(content: &str, line: usize) -> Result<Node, TemplateError> {
    let words = smart_split(content);
    if words.len() != 2 {
        return Err(TemplateError::parse(
            line,
            format!("malformed include tag: {content}"),
        ));
    }
    let arg = &words[1];
    let first = arg.chars().next().unwrap_or(' ');
    if (first == '"' || first == '\'') && arg.len() >= 2 && arg.ends_with(first) {
        Ok(Node::Include {
            name: arg[1..arg.len() - 1].to_string(),
        })
    } else {
        Err(TemplateError::parse(
            line,
            "include requires a quoted template name",
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flat_template() {
        let nodes = parse("Hello {{ name }}!").unwrap();
        assert_eq!(nodes.len(), 3);
        assert!(matches!(&nodes[0], Node::Text(t) if t == "Hello "));
        assert!(matches!(&nodes[1], Node::Var(_)));
        assert!(matches!(&nodes[2], Node::Text(t) if t == "!"));
    }

    #[test]
    fn parses_if_else() {
        let nodes = parse("{% if a %}1{% else %}3{% endif %}").unwrap();
        match &nodes[0] {
            Node::If {
                body, else_body, ..
            } => {
                assert_eq!(body.len(), 1);
                assert_eq!(else_body.len(), 1);
            }
            n => panic!("expected If, got {n:?}"),
        }
    }

    #[test]
    fn parses_nested_blocks() {
        let nodes = parse("{% for x in xs %}{% if x %}{{ x }}{% endif %}{% endfor %}").unwrap();
        match &nodes[0] {
            Node::For { body, .. } => assert!(matches!(&body[0], Node::If { .. })),
            n => panic!("expected For, got {n:?}"),
        }
    }

    #[test]
    fn parses_for_empty() {
        let nodes = parse("{% for x in xs %}a{% empty %}none{% endfor %}").unwrap();
        match &nodes[0] {
            Node::For { body, empty, .. } => {
                assert_eq!(body.len(), 1);
                assert_eq!(empty.len(), 1);
            }
            n => panic!("expected For, got {n:?}"),
        }
    }

    #[test]
    fn parses_include() {
        let nodes = parse(r#"{% include "header.html" %}"#).unwrap();
        assert_eq!(
            nodes[0],
            Node::Include {
                name: "header.html".to_string()
            }
        );
    }

    #[test]
    fn include_requires_quoted_name() {
        assert!(parse("{% include header %}").is_err());
        assert!(parse("{% include %}").is_err());
    }

    #[test]
    fn unclosed_blocks_error() {
        assert!(parse("{% if a %}x").is_err());
        assert!(parse("{% for x in xs %}x").is_err());
        assert!(parse("{% if a %}x{% else %}y").is_err());
    }

    #[test]
    fn stray_terminators_error() {
        assert!(parse("{% endif %}").is_err());
        assert!(parse("{% endfor %}").is_err());
        assert!(parse("{% else %}").is_err());
        assert!(parse("{% empty %}").is_err());
    }

    #[test]
    fn malformed_for_errors() {
        assert!(parse("{% for x xs %}{% endfor %}").is_err());
        assert!(parse("{% for %}{% endfor %}").is_err());
        assert!(parse("{% for a.b in xs %}{% endfor %}").is_err());
    }

    #[test]
    fn unknown_tag_errors_with_line() {
        match parse("line1\n{% frobnicate %}") {
            Err(TemplateError::Parse { line, message }) => {
                assert_eq!(line, 2);
                assert!(message.contains("frobnicate"));
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    /// The tag table is the language: each of its tags parses where it
    /// belongs, and Django's other tags do not parse at all.
    #[test]
    fn only_the_tag_table_parses() {
        let source = r#"{% if a %}{% for x in xs %}{% include "i" %}{% empty %}{% endfor %}{% else %}{% endif %}"#;
        for tag in TAGS {
            assert!(source.contains(&format!("{{% {tag}")), "{tag}");
        }
        assert!(parse(source).is_ok());
        for other in [
            "{% if a %}{% elif b %}{% endif %}",
            "{% with x=1 %}{% endwith %}",
            "{% comment %}{% endcomment %}",
            "{% if a == b %}{% endif %}",
            "{% if not a %}{% endif %}",
            "{% if a and b %}{% endif %}",
            "{% if a in b %}{% endif %}",
        ] {
            assert!(parse(other).is_err(), "{other}");
        }
    }
}
