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

/// The result of applying a filter: the new value plus safety markers
/// that interact with auto-escaping.
pub(crate) struct Filtered {
    pub value: Value,
    /// `Some(true)`: output is safe (skip auto-escape);
    /// `Some(false)`: output must be escaped even if marked safe;
    /// `None`: no change to safety.
    pub safe_override: Option<bool>,
}

impl Filtered {
    fn plain(value: Value) -> Self {
        Filtered {
            value,
            safe_override: None,
        }
    }
}

/// A filter, resolved from its name once, when the template compiles.
/// An unknown name compiles too and fails when it is applied, matching
/// Django's `TemplateSyntaxError` at render time.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Filter {
    Upper,
    Lower,
    Capfirst,
    Title,
    Length,
    Wordcount,
    Default,
    DefaultIfNone,
    Join,
    First,
    Last,
    Add,
    Cut,
    Truncatewords,
    Truncatechars,
    Floatformat,
    Pluralize,
    Yesno,
    Urlencode,
    Slugify,
    Divisibleby,
    Slice,
    Center,
    Ljust,
    Rjust,
    Escape,
    Safe,
    Unknown(Box<str>),
}

/// Every filter's template name.
const FILTERS: [(&str, Filter); 27] = [
    ("upper", Filter::Upper),
    ("lower", Filter::Lower),
    ("capfirst", Filter::Capfirst),
    ("title", Filter::Title),
    ("length", Filter::Length),
    ("wordcount", Filter::Wordcount),
    ("default", Filter::Default),
    ("default_if_none", Filter::DefaultIfNone),
    ("join", Filter::Join),
    ("first", Filter::First),
    ("last", Filter::Last),
    ("add", Filter::Add),
    ("cut", Filter::Cut),
    ("truncatewords", Filter::Truncatewords),
    ("truncatechars", Filter::Truncatechars),
    ("floatformat", Filter::Floatformat),
    ("pluralize", Filter::Pluralize),
    ("yesno", Filter::Yesno),
    ("urlencode", Filter::Urlencode),
    ("slugify", Filter::Slugify),
    ("divisibleby", Filter::Divisibleby),
    ("slice", Filter::Slice),
    ("center", Filter::Center),
    ("ljust", Filter::Ljust),
    ("rjust", Filter::Rjust),
    ("escape", Filter::Escape),
    ("safe", Filter::Safe),
];

impl Filter {
    pub(crate) fn parse(name: &str) -> Filter {
        FILTERS
            .iter()
            .find(|(n, _)| *n == name)
            .map_or_else(|| Filter::Unknown(name.into()), |(_, f)| f.clone())
    }

    /// The name as written in templates (for error messages).
    fn name(&self) -> &str {
        match self {
            Filter::Unknown(name) => name,
            known => FILTERS
                .iter()
                .find(|(_, f)| f == known)
                .map_or("", |(n, _)| n),
        }
    }
}

fn arg_required<'v>(name: &str, arg: Option<&'v Value>) -> Result<&'v Value, TemplateError> {
    arg.ok_or_else(|| TemplateError::render(format!("filter '{name}' requires an argument")))
}

fn arg_int(name: &str, arg: Option<&Value>) -> Result<i64, TemplateError> {
    let v = arg_required(name, arg)?;
    v.as_f64()
        .map(|f| f as i64)
        .ok_or_else(|| TemplateError::render(format!("filter '{name}' needs a numeric argument")))
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
/// the filter passes it on. Unknown filters are render errors.
pub(crate) fn apply(
    filter: &Filter,
    input: Cow<'_, Value>,
    arg: Option<&Value>,
) -> Result<Filtered, TemplateError> {
    let name = filter.name();
    let s = |v: &Value| v.to_display_string();
    match filter {
        Filter::Upper => Ok(Filtered::plain(Value::Str(s(&input).to_uppercase()))),
        Filter::Lower => Ok(Filtered::plain(Value::Str(s(&input).to_lowercase()))),
        Filter::Capfirst => {
            let text = s(&input);
            let mut chars = text.chars();
            let out = match chars.next() {
                Some(c) => c.to_uppercase().collect::<String>() + chars.as_str(),
                None => String::new(),
            };
            Ok(Filtered::plain(Value::Str(out)))
        }
        Filter::Title => {
            let mut out = Vec::new();
            write_title(&s(&input), false, &mut out);
            let out = String::from_utf8(out).expect("title-cased UTF-8 stays UTF-8");
            Ok(Filtered::plain(Value::Str(out)))
        }
        Filter::Length => Ok(Filtered::plain(Value::Int(input.len().unwrap_or(0) as i64))),
        Filter::Wordcount => Ok(Filtered::plain(Value::Int(
            s(&input).split_whitespace().count() as i64,
        ))),
        Filter::Default => {
            let arg = arg_required(name, arg)?;
            Ok(Filtered::plain(if input.is_truthy() {
                input.into_owned()
            } else {
                arg.clone()
            }))
        }
        Filter::DefaultIfNone => {
            let arg = arg_required(name, arg)?;
            Ok(Filtered::plain(match &*input {
                Value::Null => arg.clone(),
                _ => input.into_owned(),
            }))
        }
        Filter::Join => {
            let sep = s(arg_required(name, arg)?);
            match &*input {
                Value::List(items) => {
                    let joined = items
                        .iter()
                        .map(Value::to_display_string)
                        .collect::<Vec<_>>()
                        .join(&sep);
                    Ok(Filtered::plain(Value::Str(joined)))
                }
                _ => Ok(Filtered::plain(input.into_owned())),
            }
        }
        Filter::First => Ok(Filtered::plain(match &*input {
            Value::List(l) => l.first().cloned().unwrap_or(Value::Null),
            Value::Str(st) => st
                .chars()
                .next()
                .map(|c| Value::Str(c.to_string()))
                .unwrap_or(Value::Null),
            _ => Value::Null,
        })),
        Filter::Last => Ok(Filtered::plain(match &*input {
            Value::List(l) => l.last().cloned().unwrap_or(Value::Null),
            Value::Str(st) => st
                .chars()
                .last()
                .map(|c| Value::Str(c.to_string()))
                .unwrap_or(Value::Null),
            _ => Value::Null,
        })),
        Filter::Add => {
            let arg = arg_required(name, arg)?;
            match (input.as_f64(), arg.as_f64()) {
                (Some(a), Some(b)) => {
                    let sum = a + b;
                    if sum.fract() == 0.0 && matches!(&*input, Value::Int(_) | Value::Str(_)) {
                        Ok(Filtered::plain(Value::Int(sum as i64)))
                    } else {
                        Ok(Filtered::plain(Value::Float(sum)))
                    }
                }
                _ => Ok(Filtered::plain(Value::Str(s(&input) + &s(arg)))),
            }
        }
        Filter::Cut => {
            let needle = s(arg_required(name, arg)?);
            Ok(Filtered::plain(Value::Str(s(&input).replace(&needle, ""))))
        }
        Filter::Truncatewords => {
            let n = arg_int(name, arg)?.max(0) as usize;
            let text = s(&input);
            let words: Vec<&str> = text.split_whitespace().collect();
            if words.len() <= n {
                Ok(Filtered::plain(Value::Str(text)))
            } else {
                Ok(Filtered::plain(Value::Str(words[..n].join(" ") + " …")))
            }
        }
        Filter::Truncatechars => {
            let n = arg_int(name, arg)?.max(0) as usize;
            let text = s(&input);
            if text.chars().count() <= n {
                Ok(Filtered::plain(Value::Str(text)))
            } else {
                let cut: String = text.chars().take(n.saturating_sub(1)).collect();
                Ok(Filtered::plain(Value::Str(cut + "…")))
            }
        }
        Filter::Floatformat => {
            let digits = floatformat_digits(arg)?;
            let x = input
                .as_f64()
                .ok_or_else(|| TemplateError::render("floatformat input must be numeric"))?;
            let mut out = Vec::new();
            write_floatformat(x, digits, &mut out);
            let out = String::from_utf8(out).expect("formatted numbers are ASCII");
            Ok(Filtered::plain(Value::Str(out)))
        }
        Filter::Pluralize => {
            let n = input.as_f64().or_else(|| input.len().map(|l| l as f64));
            let suffixes = arg.map(s).unwrap_or_else(|| "s".to_string());
            let (singular, plural) = match suffixes.split_once(',') {
                Some((a, b)) => (a.to_string(), b.to_string()),
                None => (String::new(), suffixes),
            };
            let is_one = n.map(|x| (x - 1.0).abs() < f64::EPSILON).unwrap_or(false);
            Ok(Filtered::plain(Value::Str(if is_one {
                singular
            } else {
                plural
            })))
        }
        Filter::Yesno => {
            let choices = arg.map(s).unwrap_or_else(|| "yes,no,maybe".to_string());
            let parts: Vec<&str> = choices.split(',').collect();
            let out = match (&*input, parts.as_slice()) {
                (Value::Null, [_, _, maybe, ..]) => maybe.to_string(),
                (v, [yes, no, ..]) => {
                    if v.is_truthy() {
                        yes.to_string()
                    } else {
                        no.to_string()
                    }
                }
                _ => return Err(TemplateError::render("yesno needs at least 'yes,no'")),
            };
            Ok(Filtered::plain(Value::Str(out)))
        }
        Filter::Urlencode => {
            let mut out = Vec::new();
            write_urlencoded(&s(&input), &mut out);
            let out = String::from_utf8(out).expect("percent-encoding is ASCII");
            Ok(Filtered::plain(Value::Str(out)))
        }
        Filter::Slugify => {
            let text = s(&input).to_lowercase();
            let mut out = String::with_capacity(text.len());
            let mut last_dash = true;
            for c in text.chars() {
                if c.is_alphanumeric() {
                    out.push(c);
                    last_dash = false;
                } else if !last_dash {
                    out.push('-');
                    last_dash = true;
                }
            }
            while out.ends_with('-') {
                out.pop();
            }
            Ok(Filtered::plain(Value::Str(out)))
        }
        Filter::Divisibleby => {
            let d = arg_int(name, arg)?;
            if d == 0 {
                return Err(TemplateError::render("divisibleby zero"));
            }
            let n = input
                .as_f64()
                .ok_or_else(|| TemplateError::render("divisibleby input must be numeric"))?
                as i64;
            Ok(Filtered::plain(Value::Bool(n % d == 0)))
        }
        Filter::Slice => {
            let spec = s(arg_required(name, arg)?);
            let (from, to) = parse_slice_spec(&spec)?;
            match &*input {
                Value::List(l) => {
                    let len = l.len();
                    let (a, b) = resolve_slice(from, to, len);
                    Ok(Filtered::plain(Value::List(l[a..b].to_vec())))
                }
                v => {
                    let text = s(v);
                    let chars: Vec<char> = text.chars().collect();
                    let (a, b) = resolve_slice(from, to, chars.len());
                    Ok(Filtered::plain(Value::Str(chars[a..b].iter().collect())))
                }
            }
        }
        Filter::Center | Filter::Ljust | Filter::Rjust => {
            let width = arg_int(name, arg)?.max(0) as usize;
            let text = s(&input);
            let len = text.chars().count();
            let out = if len >= width {
                text
            } else {
                let pad = width - len;
                match filter {
                    Filter::Ljust => text + &" ".repeat(pad),
                    Filter::Rjust => " ".repeat(pad) + &text,
                    _ => {
                        let left = pad / 2;
                        " ".repeat(left) + &text + &" ".repeat(pad - left)
                    }
                }
            };
            Ok(Filtered::plain(Value::Str(out)))
        }
        Filter::Escape => Ok(Filtered {
            value: Value::Str(escape_html(&s(&input))),
            safe_override: Some(true),
        }),
        Filter::Safe => Ok(Filtered {
            value: input.into_owned(),
            safe_override: Some(true),
        }),
        Filter::Unknown(other) => Err(TemplateError::render(format!("unknown filter: {other}"))),
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
        apply(&Filter::parse(name), Cow::Owned(input), arg.as_ref())
            .unwrap()
            .value
    }

    fn try_apply(name: &str, input: Value, arg: Option<&Value>) -> Result<Filtered, TemplateError> {
        apply(&Filter::parse(name), Cow::Owned(input), arg)
    }

    #[test]
    fn case_filters() {
        assert_eq!(run("upper", "abc".into(), None), Value::from("ABC"));
        assert_eq!(run("lower", "ABC".into(), None), Value::from("abc"));
        assert_eq!(run("capfirst", "hello".into(), None), Value::from("Hello"));
        assert_eq!(
            run("title", "the GREAT escape".into(), None),
            Value::from("The Great Escape")
        );
    }

    #[test]
    fn length_and_wordcount() {
        assert_eq!(
            run("length", Value::from(vec![Value::Null, Value::Null]), None),
            Value::Int(2)
        );
        assert_eq!(run("length", "abcd".into(), None), Value::Int(4));
        assert_eq!(run("length", Value::Int(7), None), Value::Int(0));
        assert_eq!(run("wordcount", "a b  c".into(), None), Value::Int(3));
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
            run("default_if_none", Value::Int(0), Some("x".into())),
            Value::Int(0)
        );
        assert_eq!(
            run("default_if_none", Value::Null, Some("x".into())),
            Value::from("x")
        );
    }

    #[test]
    fn join_first_last() {
        let list = Value::from(vec![Value::Int(1), Value::Int(2), Value::Int(3)]);
        assert_eq!(
            run("join", list.clone(), Some(", ".into())),
            Value::from("1, 2, 3")
        );
        assert_eq!(run("first", list.clone(), None), Value::Int(1));
        assert_eq!(run("last", list, None), Value::Int(3));
        assert_eq!(run("first", Value::from("abc"), None), Value::from("a"));
        assert_eq!(run("first", Value::List(vec![]), None), Value::Null);
    }

    #[test]
    fn add_filter() {
        assert_eq!(
            run("add", Value::Int(2), Some(Value::Int(3))),
            Value::Int(5)
        );
        assert_eq!(run("add", "2".into(), Some(Value::Int(3))), Value::Int(5));
        assert_eq!(run("add", "a".into(), Some("b".into())), Value::from("ab"));
        assert_eq!(
            run("add", Value::Float(1.5), Some(Value::Int(1))),
            Value::Float(2.5)
        );
    }

    #[test]
    fn truncation() {
        assert_eq!(
            run(
                "truncatewords",
                "one two three four".into(),
                Some(Value::Int(2))
            ),
            Value::from("one two …")
        );
        assert_eq!(
            run("truncatewords", "one two".into(), Some(Value::Int(5))),
            Value::from("one two")
        );
        assert_eq!(
            run("truncatechars", "abcdef".into(), Some(Value::Int(4))),
            Value::from("abc…")
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
    fn yesno_rules() {
        assert_eq!(run("yesno", Value::Bool(true), None), Value::from("yes"));
        assert_eq!(run("yesno", Value::Bool(false), None), Value::from("no"));
        assert_eq!(run("yesno", Value::Null, None), Value::from("maybe"));
        assert_eq!(
            run("yesno", Value::Null, Some("a,b".into())),
            Value::from("b")
        );
    }

    #[test]
    fn urlencode_and_slugify() {
        assert_eq!(
            run("urlencode", "a b/c&d".into(), None),
            Value::from("a%20b/c%26d")
        );
        assert_eq!(
            run("slugify", "Hello,  World! ".into(), None),
            Value::from("hello-world")
        );
    }

    #[test]
    fn divisibleby_rules() {
        assert_eq!(
            run("divisibleby", Value::Int(9), Some(Value::Int(3))),
            Value::Bool(true)
        );
        assert_eq!(
            run("divisibleby", Value::Int(10), Some(Value::Int(3))),
            Value::Bool(false)
        );
        assert!(try_apply("divisibleby", Value::Int(1), Some(&Value::Int(0))).is_err());
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
    fn padding_filters() {
        assert_eq!(
            run("ljust", "ab".into(), Some(Value::Int(4))),
            Value::from("ab  ")
        );
        assert_eq!(
            run("rjust", "ab".into(), Some(Value::Int(4))),
            Value::from("  ab")
        );
        assert_eq!(
            run("center", "ab".into(), Some(Value::Int(6))),
            Value::from("  ab  ")
        );
        assert_eq!(
            run("center", "abcdef".into(), Some(Value::Int(2))),
            Value::from("abcdef")
        );
    }

    #[test]
    fn escape_and_safe_mark_safety() {
        let f = try_apply("escape", Value::from("<b>"), None).unwrap();
        assert_eq!(f.value, Value::from("&lt;b&gt;"));
        assert_eq!(f.safe_override, Some(true));
        let f = try_apply("safe", Value::from("<b>"), None).unwrap();
        assert_eq!(f.value, Value::from("<b>"));
        assert_eq!(f.safe_override, Some(true));
    }

    #[test]
    fn cut_filter() {
        assert_eq!(
            run("cut", "a b c".into(), Some(" ".into())),
            Value::from("abc")
        );
    }

    #[test]
    fn unknown_filter_errors() {
        assert!(try_apply("nope", Value::Null, None).is_err());
    }

    #[test]
    fn missing_required_arg_errors() {
        assert!(try_apply("join", Value::List(vec![]), None).is_err());
        assert!(try_apply("add", Value::Int(1), None).is_err());
    }
}
