//! CLI entry point: `seplint [--format json] [workspace-root]` (root
//! defaults to `.`). Prints every violation and exits non-zero if any were
//! found. With `--format json` the findings are emitted to stdout as a JSON
//! array of `{file, line, rule, message}` objects (an empty array when
//! clean), so CI can name the exact violation without scraping text.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut json = false;
    let mut root = PathBuf::from(".");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--format" => match args.next().as_deref() {
                Some("json") => json = true,
                Some("text") => json = false,
                other => {
                    eprintln!(
                        "seplint: unknown format {:?} (expected `json` or `text`)",
                        other.unwrap_or("<missing>")
                    );
                    return ExitCode::FAILURE;
                }
            },
            "--format=json" => json = true,
            "--format=text" => json = false,
            other => root = PathBuf::from(other),
        }
    }
    match seplint::lint_workspace(&root) {
        Ok(violations) => {
            if json {
                println!("{}", to_json(&violations));
            } else if violations.is_empty() {
                println!("seplint: ok (R3-R9 clean)");
            } else {
                for v in &violations {
                    eprintln!("{v}");
                }
                eprintln!("seplint: {} violation(s)", violations.len());
            }
            if violations.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(err) => {
            eprintln!("seplint: error: {err}");
            ExitCode::FAILURE
        }
    }
}

/// Renders the findings as a JSON array. Hand-rolled (the crate is
/// dependency-free by design); strings are escaped per RFC 8259.
fn to_json(violations: &[seplint::Violation]) -> String {
    let mut out = String::from("[");
    for (i, v) in violations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\"}}",
            escape(&v.file.display().to_string()),
            v.line,
            escape(v.rule),
            escape(&v.message)
        ));
    }
    if !violations.is_empty() {
        out.push('\n');
    }
    out.push(']');
    out
}

/// JSON string escaping: backslash, quote, and control characters.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}
