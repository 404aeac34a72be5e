//! Tokenizes template source into text, variable, and tag tokens.

use crate::error::TemplateError;

/// One lexical token of a template.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Token {
    /// Literal output text.
    Text(String),
    /// The inside of a `{{ … }}` variable tag, trimmed.
    Var { expr: String, line: usize },
    /// The inside of a `{% … %}` block tag, trimmed.
    Tag { content: String, line: usize },
}

/// Splits template source into tokens. Unterminated constructs are
/// parse errors.
pub(crate) fn lex(source: &str) -> Result<Vec<Token>, TemplateError> {
    let mut tokens = Vec::new();
    let bytes = source.as_bytes();
    let mut i = 0;
    let mut line = 1;
    let mut text_start = 0;

    while i < bytes.len() {
        let var = match bytes[i..] {
            [b'{', b'{', ..] => true,
            [b'{', b'%', ..] => false,
            _ => {
                if bytes[i] == b'\n' {
                    line += 1;
                }
                i += 1;
                continue;
            }
        };
        if i > text_start {
            tokens.push(Token::Text(source[text_start..i].to_string()));
        }
        let (open, close) = if var { ("{{", "}}") } else { ("{%", "%}") };
        let body_start = i + 2;
        let Some(rel) = source[body_start..].find(close) else {
            return Err(TemplateError::parse(
                line,
                format!("unterminated {open} tag"),
            ));
        };
        let body = &source[body_start..body_start + rel];
        let token = if var {
            Token::Var {
                expr: body.trim().to_string(),
                line,
            }
        } else {
            Token::Tag {
                content: body.trim().to_string(),
                line,
            }
        };
        tokens.push(token);
        line += body.matches('\n').count();
        i = body_start + rel + 2;
        text_start = i;
    }
    if bytes.len() > text_start {
        tokens.push(Token::Text(source[text_start..].to_string()));
    }
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_text_is_one_token() {
        assert_eq!(
            lex("hello world").unwrap(),
            vec![Token::Text("hello world".into())]
        );
    }

    #[test]
    fn variables_and_tags() {
        let tokens = lex("a{{ x }}b{% if y %}c{% endif %}").unwrap();
        assert_eq!(
            tokens,
            vec![
                Token::Text("a".into()),
                Token::Var {
                    expr: "x".into(),
                    line: 1
                },
                Token::Text("b".into()),
                Token::Tag {
                    content: "if y".into(),
                    line: 1
                },
                Token::Text("c".into()),
                Token::Tag {
                    content: "endif".into(),
                    line: 1
                },
            ]
        );
    }

    #[test]
    fn line_numbers_advance() {
        let tokens = lex("line1\nline2\n{{ x }}").unwrap();
        match &tokens[1] {
            Token::Var { line, .. } => assert_eq!(*line, 3),
            t => panic!("unexpected token {t:?}"),
        }
    }

    #[test]
    fn unterminated_tags_error() {
        assert!(matches!(
            lex("{{ x"),
            Err(TemplateError::Parse { line: 1, .. })
        ));
        assert!(lex("{% if").is_err());
    }

    #[test]
    fn lone_brace_is_text() {
        assert_eq!(lex("a { b }").unwrap(), vec![Token::Text("a { b }".into())]);
        assert_eq!(lex("100%}").unwrap(), vec![Token::Text("100%}".into())]);
        // No comment syntax: `{#` is text like any other brace.
        assert_eq!(
            lex("a{# b #}").unwrap(),
            vec![Token::Text("a{# b #}".into())]
        );
    }

    #[test]
    fn brace_at_end_is_text() {
        assert_eq!(lex("abc{").unwrap(), vec![Token::Text("abc{".into())]);
    }

    #[test]
    fn multiline_tag_body() {
        let tokens = lex("{% if\n  x %}y{% endif %}").unwrap();
        match &tokens[0] {
            Token::Tag { content, line } => {
                assert_eq!(content, "if\n  x");
                assert_eq!(*line, 1);
            }
            t => panic!("unexpected {t:?}"),
        }
        match &tokens[2] {
            Token::Tag { line, .. } => assert_eq!(*line, 2),
            t => panic!("unexpected {t:?}"),
        }
    }
}
