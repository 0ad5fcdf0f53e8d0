//! The line-oriented TOML subset the suite's config files are written in
//! (sweep grids, scenario specs).
//!
//! A file is a sequence of lines: blank, a `[section]` header, or a
//! `key = value` pair. `#` starts a comment outside double quotes. Values
//! are double-quoted strings without embedded quotes, numbers, integers,
//! or single-line `[ a, b ]` arrays of those whose elements contain no
//! commas. [`lines`] yields the meaningful lines with their numbers; the
//! `parse_*` functions read one value. Each format keeps its own key table
//! and wraps the error details here with its own context.

/// One meaningful line of a TOML-subset file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Line<'a> {
    /// A `[section]` header: the trimmed text between the brackets.
    Section(&'a str),
    /// A `key = value` pair, both trimmed; the value is still raw text.
    Pair(&'a str, &'a str),
}

/// Yields `(line number, line)` for every non-blank line of `text`, with
/// comments stripped and line numbers counted from 1. A line that is
/// neither a header nor a pair yields an error detail. Lazy, and it
/// allocates only for an error.
#[inline]
pub fn lines(text: &str) -> impl Iterator<Item = (usize, Result<Line<'_>, String>)> {
    text.lines().enumerate().filter_map(|(idx, raw)| {
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            return None;
        }
        let parsed = if let Some(header) = line.strip_prefix('[') {
            header
                .strip_suffix(']')
                .map(|h| Line::Section(h.trim()))
                .ok_or_else(|| format!("unclosed section header {line:?}"))
        } else {
            line.split_once('=')
                .map(|(key, value)| Line::Pair(key.trim(), value.trim()))
                .ok_or_else(|| format!("expected key = value, got {line:?}"))
        };
        Some((idx + 1, parsed))
    })
}

/// Cuts `line` at the first `#` that is not inside a double-quoted string.
#[inline]
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

/// `"value"` → `value`.
#[inline]
pub fn parse_string(v: &str) -> Result<String, String> {
    let inner = v
        .strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .ok_or_else(|| format!("expected a double-quoted string, got {v}"))?;
    if inner.contains('"') {
        return Err(format!("embedded quotes are not supported: {v}"));
    }
    Ok(inner.to_string())
}

/// A number, integral or not.
#[inline]
pub fn parse_number(v: &str) -> Result<f64, String> {
    v.parse().map_err(|_| format!("bad number {v}"))
}

/// A non-negative integer that fits `T`. Fractions and exponents are
/// rejected rather than truncated, and out-of-range values rather than
/// saturated.
#[inline]
pub fn parse_integer<T: TryFrom<u64>>(v: &str) -> Result<T, String> {
    use std::num::IntErrorKind;
    let n: u64 = v.parse().map_err(|e: std::num::ParseIntError| {
        if *e.kind() == IntErrorKind::PosOverflow {
            format!("integer {v} is out of range")
        } else {
            format!("expected a non-negative integer, got {v}")
        }
    })?;
    T::try_from(n).map_err(|_| format!("integer {v} is out of range"))
}

/// `[ a, b, c ]` → each trimmed element read by `element`.
#[inline]
pub fn parse_array<T>(
    v: &str,
    element: impl FnMut(&str) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let inner = v
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(|| format!("expected a [ ... ] array, got {v}"))?
        .trim();
    if inner.is_empty() {
        return Ok(Vec::new());
    }
    inner.split(',').map(str::trim).map(element).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_skip_blanks_and_comments_and_count_from_one() {
        let text = "# header\n\n[scenario] # named\nname = \"a # b\" # tail\nbad line\n[open\n";
        let got: Vec<_> = lines(text).collect();
        assert_eq!(
            got[..2],
            [
                (3, Ok(Line::Section("scenario"))),
                (4, Ok(Line::Pair("name", "\"a # b\""))),
            ]
        );
        assert_eq!(got[2].0, 5);
        assert!(got[2].1.as_ref().unwrap_err().contains("key = value"));
        assert_eq!(got[3].0, 6);
        assert!(got[3].1.as_ref().unwrap_err().contains("unclosed"));
        assert_eq!(got.len(), 4);
    }
}
