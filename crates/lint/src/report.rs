//! Report rendering and the grandfathered-findings baseline.
//!
//! The baseline is a checked-in JSON array of `{rule, file, key}` entries.
//! A finding whose triple matches a baseline entry is reported as
//! *grandfathered* and does not fail `--check`; a baseline entry no longer
//! matched by any finding is *stale* and fails `--check` (so the file can
//! only shrink). The key is the trimmed offending line, not its number —
//! stable under unrelated edits above it.
//!
//! Everything here is hand-rolled (the tool is dependency-free): a small
//! JSON writer with full string escaping, and a parser for exactly the
//! baseline's shape — an array of flat objects with string values.

use crate::rules::Finding;

/// One grandfathered finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineEntry {
    pub rule: String,
    pub file: String,
    pub key: String,
}

/// JSON string escape (control chars, quotes, backslash).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders findings as a JSON report (an object with a `findings` array).
pub fn to_json(findings: &[Finding]) -> String {
    let mut out = String::from("{\n  \"findings\": [\n");
    for (i, f) in findings.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\", \"key\": \"{}\"}}{}\n",
            escape(f.rule),
            escape(&f.file),
            f.line,
            escape(&f.message),
            escape(&f.key),
            if i + 1 < findings.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Renders a baseline file from findings.
pub fn baseline_to_json(findings: &[Finding]) -> String {
    let mut out = String::from("[\n");
    for (i, f) in findings.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"rule\": \"{}\", \"file\": \"{}\", \"key\": \"{}\"}}{}\n",
            escape(f.rule),
            escape(&f.file),
            escape(&f.key),
            if i + 1 < findings.len() { "," } else { "" }
        ));
    }
    out.push_str("]\n");
    out
}

/// Parses a baseline file: a JSON array of flat objects with string values.
pub fn parse_baseline(text: &str) -> Result<Vec<BaselineEntry>, String> {
    let mut entries = Vec::new();
    let chars: Vec<char> = text.chars().collect();
    let mut i = 0;
    let skip_ws = |chars: &[char], i: &mut usize| {
        while *i < chars.len() && chars[*i].is_whitespace() {
            *i += 1;
        }
    };
    let parse_string = |chars: &[char], i: &mut usize| -> Result<String, String> {
        if chars.get(*i) != Some(&'"') {
            return Err(format!("expected string at offset {i}", i = *i));
        }
        *i += 1;
        let mut s = String::new();
        while *i < chars.len() {
            match chars[*i] {
                '"' => {
                    *i += 1;
                    return Ok(s);
                }
                '\\' => {
                    *i += 1;
                    match chars.get(*i) {
                        Some('n') => s.push('\n'),
                        Some('t') => s.push('\t'),
                        Some('r') => s.push('\r'),
                        Some('u') => {
                            let hex: String = chars[*i + 1..].iter().take(4).collect();
                            let code = u32::from_str_radix(&hex, 16)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            *i += 4;
                        }
                        Some(&c) => s.push(c),
                        None => return Err("dangling escape".to_string()),
                    }
                    *i += 1;
                }
                c => {
                    s.push(c);
                    *i += 1;
                }
            }
        }
        Err("unterminated string".to_string())
    };

    skip_ws(&chars, &mut i);
    if chars.get(i) != Some(&'[') {
        return Err("baseline must be a JSON array".to_string());
    }
    i += 1;
    loop {
        skip_ws(&chars, &mut i);
        match chars.get(i) {
            Some(']') => break,
            Some(',') => {
                i += 1;
                continue;
            }
            Some('{') => {
                i += 1;
                let mut rule = None;
                let mut file = None;
                let mut key = None;
                loop {
                    skip_ws(&chars, &mut i);
                    match chars.get(i) {
                        Some('}') => {
                            i += 1;
                            break;
                        }
                        Some(',') => {
                            i += 1;
                            continue;
                        }
                        Some('"') => {
                            let name = parse_string(&chars, &mut i)?;
                            skip_ws(&chars, &mut i);
                            if chars.get(i) != Some(&':') {
                                return Err("expected `:` after field name".to_string());
                            }
                            i += 1;
                            skip_ws(&chars, &mut i);
                            let value = parse_string(&chars, &mut i)?;
                            match name.as_str() {
                                "rule" => rule = Some(value),
                                "file" => file = Some(value),
                                "key" => key = Some(value),
                                other => return Err(format!("unknown baseline field `{other}`")),
                            }
                        }
                        _ => return Err("malformed baseline object".to_string()),
                    }
                }
                match (rule, file, key) {
                    (Some(rule), Some(file), Some(key)) => {
                        entries.push(BaselineEntry { rule, file, key })
                    }
                    _ => return Err("baseline entry missing rule/file/key".to_string()),
                }
            }
            _ => return Err("malformed baseline array".to_string()),
        }
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Finding> {
        vec![Finding {
            rule: "panic-path",
            file: "crates/core/src/serve/worker.rs".to_string(),
            line: 42,
            message: "an \"example\" message\twith escapes".to_string(),
            key: "let x = v[i];".to_string(),
        }]
    }

    #[test]
    fn baseline_roundtrips() {
        let json = baseline_to_json(&sample());
        let parsed = parse_baseline(&json).expect("roundtrip parse");
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].rule, "panic-path");
        assert_eq!(parsed[0].key, "let x = v[i];");
    }

    #[test]
    fn empty_baseline_parses() {
        assert_eq!(parse_baseline("[]").expect("empty"), Vec::new());
        assert_eq!(parse_baseline("[\n]\n").expect("empty"), Vec::new());
    }

    #[test]
    fn report_json_escapes_strings() {
        let json = to_json(&sample());
        assert!(json.contains("\\\"example\\\""));
        assert!(json.contains("\\t"));
        assert!(json.contains("\"line\": 42"));
    }

    #[test]
    fn malformed_baseline_is_an_error() {
        assert!(parse_baseline("{}").is_err());
        assert!(parse_baseline("[{\"rule\": \"x\"}]").is_err());
    }
}
