//! The built-in filter library.

use crate::error::TemplateError;
use crate::value::Value;
use std::borrow::Cow;

/// Escapes `& < > " '` for safe HTML interpolation.
///
/// # Examples
///
/// ```
/// use staged_templates::escape_html;
///
/// assert_eq!(escape_html("<b>&\"'"), "&lt;b&gt;&amp;&quot;&#x27;");
/// ```
pub fn escape_html(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&#x27;"),
            c => out.push(c),
        }
    }
    out
}

/// A filter, resolved from its name once, when the template compiles.
/// An unknown name is a parse error, as Django raises
/// `TemplateSyntaxError: Invalid filter` while parsing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Filter {
    Default,
    Floatformat,
    Length,
    Pluralize,
    Slice,
    Title,
    Urlencode,
}

/// Every filter's template name, in `Filter` order: the filters the
/// TPC-W pages compile to, and all the engine has.
pub const FILTERS: [&str; 7] = [
    "default",
    "floatformat",
    "length",
    "pluralize",
    "slice",
    "title",
    "urlencode",
];

impl Filter {
    const ALL: [Filter; 7] = [
        Filter::Default,
        Filter::Floatformat,
        Filter::Length,
        Filter::Pluralize,
        Filter::Slice,
        Filter::Title,
        Filter::Urlencode,
    ];

    /// The filter named `name`, if the engine has one.
    pub(crate) fn parse(name: &str) -> Option<Filter> {
        FILTERS
            .iter()
            .position(|n| *n == name)
            .map(|i| Self::ALL[i])
    }

    /// The name as written in templates.
    pub(crate) fn name(self) -> &'static str {
        FILTERS[self as usize]
    }
}

fn arg_required<'v>(name: &str, arg: Option<&'v Value>) -> Result<&'v Value, TemplateError> {
    arg.ok_or_else(|| TemplateError::render(format!("filter '{name}' requires an argument")))
}

/// `floatformat`'s digit count: the argument, or `-1` (one decimal
/// place, dropped when the value is whole) without one.
pub(crate) fn floatformat_digits(arg: Option<&Value>) -> Result<i32, TemplateError> {
    match arg {
        Some(v) => v
            .as_f64()
            .map(|f| f as i32)
            .ok_or_else(|| TemplateError::render("floatformat argument must be numeric")),
        None => Ok(-1),
    }
}

/// Writes `floatformat` of `x` with `digits` straight into `out`.
pub(crate) fn write_floatformat(x: f64, digits: i32, out: &mut Vec<u8>) {
    use std::io::Write as _;
    // Normalize negative zero so empty sums render as "0.00", not
    // "-0.00" (Django does the same).
    let x = if x == 0.0 { 0.0 } else { x };
    if digits < 0 && x.fract() == 0.0 {
        write_int(x as i64, out);
    } else if !write_fixed(x, digits.unsigned_abs(), out) {
        let _ = write!(out, "{:.*}", digits.unsigned_abs() as usize, x);
    }
}

/// Writes `x` with `digits` decimals exactly as `format!("{x:.digits$}")`
/// does — correctly rounded, ties to even — by integer arithmetic on
/// the binary value (`x = m·2^e`, so `x·10^digits = m·10^digits·2^e`),
/// which is an order of magnitude faster than `fmt`'s exact mode.
/// `false` (nothing written) when the integers would not fit: `|x| ≥
/// 2^53`, a tiny `|x|`, `x·10^digits` past 64 bits, more than 15
/// digits, or a non-finite `x`.
pub(crate) fn write_fixed(x: f64, digits: u32, out: &mut Vec<u8>) -> bool {
    if !x.is_finite() || digits > 15 {
        return false;
    }
    let bits = x.to_bits();
    let biased = ((bits >> 52) & 0x7ff) as i32;
    let fraction = bits & ((1 << 52) - 1);
    let (mantissa, exp) = if biased == 0 {
        (fraction, -1074)
    } else {
        (fraction | (1 << 52), biased - 1075)
    };
    // m < 2^53 and 10^15 < 2^50: the product fits in 103 bits.
    if !(-110..=0).contains(&exp) {
        return false;
    }
    let pow = 10u128.pow(digits);
    let scaled = u128::from(mantissa) * pow;
    let shift = exp.unsigned_abs();
    let mut q = scaled >> shift;
    if shift > 0 {
        let rem = scaled & ((1u128 << shift) - 1);
        let half = 1u128 << (shift - 1);
        if rem > half || (rem == half && q & 1 == 1) {
            q += 1;
        }
    }
    let (Ok(q), Ok(pow)) = (u64::try_from(q), u64::try_from(pow)) else {
        return false;
    };
    if bits >> 63 == 1 {
        out.push(b'-');
    }
    write_digits(q / pow, 0, out);
    if digits > 0 {
        out.push(b'.');
        write_digits(q % pow, digits as usize, out);
    }
    true
}

/// Writes an integer's decimal digits — what `{i}` formats, without
/// the `fmt` machinery.
pub(crate) fn write_int(i: i64, out: &mut Vec<u8>) {
    if i < 0 {
        out.push(b'-');
    }
    write_digits(i.unsigned_abs(), 0, out);
}

/// Writes `n` in decimal, zero-padded to at least `width` digits.
fn write_digits(mut n: u64, width: usize, out: &mut Vec<u8>) {
    let mut buf = [b'0'; 20];
    let mut at = buf.len();
    while n > 0 {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
    }
    let start = at.min(buf.len() - width.max(1));
    out.extend_from_slice(&buf[start..]);
}

/// Writes `s`, HTML-escaped when `escape` is set: `&`/`<`/`>`/`"`/`'`
/// escapes are streamed without an intermediate `String`, unescaped
/// spans copied in bulk.
pub(crate) fn write_str(s: &str, escape: bool, out: &mut Vec<u8>) {
    if !escape {
        out.extend_from_slice(s.as_bytes());
        return;
    }
    let bytes = s.as_bytes();
    let mut start = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let rep: &[u8] = match b {
            b'&' => b"&amp;",
            b'<' => b"&lt;",
            b'>' => b"&gt;",
            b'"' => b"&quot;",
            b'\'' => b"&#x27;",
            _ => continue,
        };
        out.extend_from_slice(&bytes[start..i]);
        out.extend_from_slice(rep);
        start = i + 1;
    }
    out.extend_from_slice(&bytes[start..]);
}

/// Writes `title` of `text` — each space-separated word with its first
/// character upper-cased and the rest lower-cased. ASCII words are
/// cased in place; others go through `char::to_uppercase` and
/// `str::to_lowercase`.
pub(crate) fn write_title(text: &str, escape: bool, out: &mut Vec<u8>) {
    for (i, word) in text.split(' ').enumerate() {
        if i > 0 {
            out.push(b' ');
        }
        if word.is_ascii() {
            let at = out.len();
            write_str(word, escape, out);
            // Casing changes only letters, and the entities escaping
            // adds are lower case and start with `&`: casing the
            // written bytes is casing the word.
            if let Some((first, rest)) = out[at..].split_first_mut() {
                first.make_ascii_uppercase();
                rest.make_ascii_lowercase();
            }
        } else {
            let mut cs = word.chars();
            if let Some(c) = cs.next() {
                let cased = c.to_uppercase().collect::<String>() + &cs.as_str().to_lowercase();
                write_str(&cased, escape, out);
            }
        }
    }
}

/// Writes `urlencode` of `text`: unreserved bytes and `/` as they are,
/// every other byte as `%XX`. The output is ASCII with nothing to
/// escape.
pub(crate) fn write_urlencoded(text: &str, out: &mut Vec<u8>) {
    use std::io::Write as _;
    for b in text.bytes() {
        match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' | b'/' => {
                out.push(b)
            }
            _ => {
                let _ = write!(out, "%{b:02X}");
            }
        }
    }
}

/// Applies a filter. The input is borrowed where the filter only reads
/// it (`length` of a 50-row table copies nothing) and taken over where
/// the filter passes it on.
pub(crate) fn apply(
    filter: Filter,
    input: Cow<'_, Value>,
    arg: Option<&Value>,
) -> Result<Value, TemplateError> {
    let s = |v: &Value| v.to_display_string();
    match filter {
        Filter::Default => {
            let arg = arg_required(filter.name(), arg)?;
            Ok(if input.is_truthy() {
                input.into_owned()
            } else {
                arg.clone()
            })
        }
        Filter::Floatformat => {
            let digits = floatformat_digits(arg)?;
            let x = input
                .as_f64()
                .ok_or_else(|| TemplateError::render("floatformat input must be numeric"))?;
            let mut out = Vec::new();
            write_floatformat(x, digits, &mut out);
            Ok(Value::Str(
                String::from_utf8(out).expect("formatted numbers are ASCII"),
            ))
        }
        Filter::Length => Ok(Value::Int(input.len().unwrap_or(0) as i64)),
        Filter::Pluralize => {
            let n = input.as_f64().or_else(|| input.len().map(|l| l as f64));
            let suffixes = arg.map(s).unwrap_or_else(|| "s".to_string());
            let (singular, plural) = match suffixes.split_once(',') {
                Some((a, b)) => (a.to_string(), b.to_string()),
                None => (String::new(), suffixes),
            };
            let is_one = n.map(|x| (x - 1.0).abs() < f64::EPSILON).unwrap_or(false);
            Ok(Value::Str(if is_one { singular } else { plural }))
        }
        Filter::Slice => {
            let spec = s(arg_required(filter.name(), arg)?);
            let (from, to) = parse_slice_spec(&spec)?;
            match &*input {
                Value::List(l) => {
                    let (a, b) = resolve_slice(from, to, l.len());
                    Ok(Value::List(l[a..b].to_vec()))
                }
                v => {
                    let text = s(v);
                    let chars: Vec<char> = text.chars().collect();
                    let (a, b) = resolve_slice(from, to, chars.len());
                    Ok(Value::Str(chars[a..b].iter().collect()))
                }
            }
        }
        Filter::Title => {
            let mut out = Vec::new();
            write_title(&s(&input), false, &mut out);
            Ok(Value::Str(
                String::from_utf8(out).expect("title-cased UTF-8 stays UTF-8"),
            ))
        }
        Filter::Urlencode => {
            let mut out = Vec::new();
            write_urlencoded(&s(&input), &mut out);
            Ok(Value::Str(
                String::from_utf8(out).expect("percent-encoding is ASCII"),
            ))
        }
    }
}

/// Parses "n", ":n", "n:", or "n:m" into optional bounds.
fn parse_slice_spec(spec: &str) -> Result<(Option<i64>, Option<i64>), TemplateError> {
    let parse_part = |p: &str| -> Result<Option<i64>, TemplateError> {
        if p.is_empty() {
            Ok(None)
        } else {
            p.parse::<i64>()
                .map(Some)
                .map_err(|_| TemplateError::render(format!("bad slice spec: {spec}")))
        }
    };
    match spec.split_once(':') {
        Some((a, b)) => Ok((parse_part(a)?, parse_part(b)?)),
        None => Ok((None, parse_part(spec)?)),
    }
}

/// Resolves optional/negative slice bounds against a length.
fn resolve_slice(from: Option<i64>, to: Option<i64>, len: usize) -> (usize, usize) {
    let clamp = |i: i64| -> usize {
        if i < 0 {
            len.saturating_sub(i.unsigned_abs() as usize)
        } else {
            (i as usize).min(len)
        }
    };
    let a = from.map(clamp).unwrap_or(0);
    let b = to.map(clamp).unwrap_or(len);
    (a, b.max(a))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(name: &str, input: Value, arg: Option<Value>) -> Value {
        try_apply(name, input, arg.as_ref()).unwrap()
    }

    fn try_apply(name: &str, input: Value, arg: Option<&Value>) -> Result<Value, TemplateError> {
        apply(Filter::parse(name).unwrap(), Cow::Owned(input), arg)
    }

    #[test]
    fn case_filters() {
        assert_eq!(
            run("title", "the GREAT escape".into(), None),
            Value::from("The Great Escape")
        );
        assert_eq!(
            run("title", "élan vital".into(), None),
            Value::from("Élan Vital")
        );
    }

    #[test]
    fn length_filter() {
        assert_eq!(
            run("length", Value::from(vec![Value::Null, Value::Null]), None),
            Value::Int(2)
        );
        assert_eq!(run("length", "abcd".into(), None), Value::Int(4));
        assert_eq!(run("length", Value::Int(7), None), Value::Int(0));
    }

    #[test]
    fn default_filters() {
        assert_eq!(
            run("default", Value::Null, Some("x".into())),
            Value::from("x")
        );
        assert_eq!(
            run("default", "".into(), Some("x".into())),
            Value::from("x")
        );
        assert_eq!(
            run("default", "y".into(), Some("x".into())),
            Value::from("y")
        );
        assert_eq!(
            run("default", Value::Int(0), Some(Value::Int(1))),
            Value::Int(1)
        );
    }

    #[test]
    fn floatformat_behaviour() {
        assert_eq!(
            run(
                "floatformat",
                Value::Float(std::f64::consts::PI),
                Some(Value::Int(2))
            ),
            Value::from("3.14")
        );
        assert_eq!(
            run("floatformat", Value::Float(3.0), None),
            Value::from("3")
        );
        assert_eq!(
            run("floatformat", Value::Float(3.25), None),
            Value::from("3.2")
        );
        assert_eq!(
            run("floatformat", Value::Int(2), Some(Value::Int(3))),
            Value::from("2.000")
        );
    }

    /// The integer-arithmetic fixed-point writer against `fmt`'s exact
    /// mode: cents, binary ties at every digit count, random bit
    /// patterns across magnitudes, and the fallbacks.
    #[test]
    fn fixed_point_matches_fmt() {
        let check = |x: f64, digits: u32| {
            let mut out = Vec::new();
            if write_fixed(x, digits, &mut out) {
                let want = format!("{:.*}", digits as usize, x);
                assert_eq!(String::from_utf8(out).unwrap(), want, "{x:e} to {digits}");
            }
        };
        for cents in -20_000..20_000 {
            for digits in 0..4 {
                check(f64::from(cents) / 100.0, digits);
                check(f64::from(cents) / 8.0, digits);
            }
        }
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..200_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let x = f64::from_bits(state);
            check(x, (state % 16) as u32);
            // Magnitudes a page actually prints.
            check(x.fract() * 1e6, (state % 7) as u32);
        }
        for x in [
            0.5,
            1.5,
            2.5,
            -0.5,
            0.125,
            0.375,
            1e-300,
            5e-324,
            9.007_199_254_740_993e15,
        ] {
            for digits in 0..16 {
                check(x, digits);
            }
        }
        let mut out = Vec::new();
        assert!(!write_fixed(f64::NAN, 2, &mut out));
        assert!(!write_fixed(1e300, 2, &mut out));
        assert!(out.is_empty());
        let mut out = Vec::new();
        write_int(i64::MIN, &mut out);
        write_int(0, &mut out);
        write_int(-7, &mut out);
        assert_eq!(out, format!("{}0-7", i64::MIN).as_bytes());
    }

    #[test]
    fn floatformat_normalizes_negative_zero() {
        assert_eq!(
            run("floatformat", Value::Float(-0.0), Some(Value::Int(2))),
            Value::from("0.00")
        );
        assert_eq!(
            run("floatformat", Value::Float(-0.0), None),
            Value::from("0")
        );
    }

    #[test]
    fn pluralize_rules() {
        assert_eq!(run("pluralize", Value::Int(1), None), Value::from(""));
        assert_eq!(run("pluralize", Value::Int(2), None), Value::from("s"));
        assert_eq!(
            run("pluralize", Value::Int(2), Some("es".into())),
            Value::from("es")
        );
        assert_eq!(
            run("pluralize", Value::Int(1), Some("y,ies".into())),
            Value::from("y")
        );
        assert_eq!(
            run("pluralize", Value::Int(3), Some("y,ies".into())),
            Value::from("ies")
        );
    }

    #[test]
    fn slice_filter() {
        let list = Value::from(vec![Value::Int(1), Value::Int(2), Value::Int(3)]);
        assert_eq!(
            run("slice", list.clone(), Some(":2".into())),
            Value::from(vec![Value::Int(1), Value::Int(2)])
        );
        assert_eq!(
            run("slice", list.clone(), Some("1:".into())),
            Value::from(vec![Value::Int(2), Value::Int(3)])
        );
        assert_eq!(
            run("slice", list.clone(), Some(":-1".into())),
            Value::from(vec![Value::Int(1), Value::Int(2)])
        );
        assert_eq!(
            run("slice", "abcdef".into(), Some(":3".into())),
            Value::from("abc")
        );
        assert_eq!(
            run("slice", list, Some(":100".into())),
            Value::from(vec![Value::Int(1), Value::Int(2), Value::Int(3)])
        );
    }

    #[test]
    fn urlencode_filter() {
        assert_eq!(
            run("urlencode", "a b/c&d".into(), None),
            Value::from("a%20b/c%26d")
        );
        assert_eq!(run("urlencode", "é".into(), None), Value::from("%C3%A9"));
    }

    /// An unknown filter — every Django filter the pages do not use
    /// among them — fails the compile, with the line it is on.
    #[test]
    fn unknown_filter_errors() {
        assert_eq!(Filter::parse("nope"), None);
        for name in ["upper", "safe", "escape", "join", "add", "nope"] {
            let source = format!("line one\n{{{{ x|{name} }}}}");
            match crate::Template::compile(&source) {
                Err(TemplateError::Parse { line, message }) => {
                    assert_eq!(line, 2);
                    assert_eq!(message, format!("invalid filter: {name}"));
                }
                other => panic!("{name}: expected a parse error, got {other:?}"),
            }
        }
        for (i, name) in FILTERS.iter().enumerate() {
            assert_eq!(Filter::parse(name), Some(Filter::ALL[i]));
            assert_eq!(Filter::ALL[i].name(), *name);
        }
    }

    #[test]
    fn missing_required_arg_errors() {
        assert!(try_apply("default", Value::Null, None).is_err());
        assert!(try_apply("slice", Value::List(vec![]), None).is_err());
    }
}
