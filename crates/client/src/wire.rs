//! Total (never-panicking) field extraction for the flat single-line
//! JSON frames `sctmd` emits.
//!
//! The service's frames are flat objects with known key names, so a
//! full JSON parser is not required: a scan for `"key":` followed by a
//! string or integer literal is exact on well-formed frames and safely
//! returns `None` on anything else. The scan respects string escapes,
//! so a `"key":` *inside* a string value (say, an error message quoting
//! a request) is never mistaken for the field itself.

/// Extract `"name":"value"` from a flat JSON object, unescaping the
/// value. `None` if absent or not a string.
pub fn json_str_field(json: &str, name: &str) -> Option<String> {
    let rest = find_field(json, name)?;
    let rest = rest.strip_prefix('"')?;
    let mut out = String::new();
    let mut chars = rest.chars();
    loop {
        match chars.next()? {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                '/' => out.push('/'),
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'b' => out.push('\u{8}'),
                'f' => out.push('\u{c}'),
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    if hex.len() != 4 {
                        return None;
                    }
                    let code = u32::from_str_radix(&hex, 16).ok()?;
                    // Surrogates never appear in our frames (json_escape
                    // only \u-escapes control chars); reject them rather
                    // than emit garbage.
                    out.push(char::from_u32(code)?);
                }
                _ => return None,
            },
            c => out.push(c),
        }
    }
}

/// Extract `"name":123` from a flat JSON object. `None` if absent or
/// not an unsigned integer.
pub fn json_u64_field(json: &str, name: &str) -> Option<u64> {
    let rest = find_field(json, name)?;
    let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
    if digits.is_empty() {
        return None;
    }
    digits.parse().ok()
}

/// Position the cursor just after `"name":` (and any whitespace),
/// skipping occurrences inside string values.
fn find_field<'a>(json: &'a str, name: &str) -> Option<&'a str> {
    let needle = format!("\"{name}\"");
    let bytes = json.as_bytes();
    let mut in_string = false;
    let mut escaped = false;
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        if in_string {
            if escaped {
                escaped = false;
            } else if b == b'\\' {
                escaped = true;
            } else if b == b'"' {
                in_string = false;
            }
            i += 1;
            continue;
        }
        if b == b'"' {
            // At a top-level string start: is it our key?
            if json[i..].starts_with(&needle) {
                let after = &json[i + needle.len()..];
                let after = after.trim_start();
                if let Some(rest) = after.strip_prefix(':') {
                    return Some(rest.trim_start());
                }
            }
            in_string = true;
            i += 1;
            continue;
        }
        i += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extracts_string_and_integer_fields() {
        let j = r#"{"status":"ok","id":"r-1","wall_ns":123456,"cache":"hit"}"#;
        assert_eq!(json_str_field(j, "status").as_deref(), Some("ok"));
        assert_eq!(json_str_field(j, "id").as_deref(), Some("r-1"));
        assert_eq!(json_u64_field(j, "wall_ns"), Some(123456));
        assert_eq!(json_str_field(j, "missing"), None);
        assert_eq!(json_u64_field(j, "id"), None);
    }

    #[test]
    fn unescapes_values() {
        let j = r#"{"message":"line1\nline\"2\"\tA"}"#;
        assert_eq!(
            json_str_field(j, "message").as_deref(),
            Some("line1\nline\"2\"\tA")
        );
    }

    #[test]
    fn a_key_name_inside_a_string_value_is_not_a_field() {
        let j = r#"{"message":"fake \"status\":\"ok\" here","status":"error"}"#;
        assert_eq!(json_str_field(j, "status").as_deref(), Some("error"));
    }

    #[test]
    fn total_on_truncated_and_garbage_input() {
        for j in [
            "",
            "{",
            r#"{"status""#,
            r#"{"status":"#,
            r#"{"status":""#,
            r#"{"status":"ok"#,
            r#"{"x":"\u12"#,
            r#"{"x":"\q"}"#,
            "\\\"\\\"\\",
        ] {
            let _ = json_str_field(j, "status");
            let _ = json_str_field(j, "x");
            let _ = json_u64_field(j, "status");
        }
    }
}
