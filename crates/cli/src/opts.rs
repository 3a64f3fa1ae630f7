//! Flag parsing for the CLI (`--name value` pairs; no command takes a
//! bare switch, so a flag without a value is skipped).

use std::collections::HashMap;

/// Parsed command-line options.
#[derive(Debug, Default)]
pub struct Opts {
    values: HashMap<String, String>,
}

impl Opts {
    /// Parses `args` (everything after the subcommand).
    pub fn parse(args: &[String]) -> Self {
        let mut opts = Opts::default();
        let mut i = 0;
        while i < args.len() {
            let arg = &args[i];
            if let Some(name) = arg.strip_prefix("--") {
                // A flag followed by a non-flag token is a key/value pair;
                // a bare one never takes the next flag as its value.
                if i + 1 < args.len() && !args[i + 1].starts_with("--") {
                    opts.values.insert(name.to_string(), args[i + 1].clone());
                    i += 2;
                    continue;
                }
            }
            i += 1;
        }
        opts
    }

    /// The value of `--name`, if present.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// The value of `--name` parsed as `T`, or `default`.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        self.get(name)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// The value of `--name`, or an error mentioning the flag.
    pub fn require(&self, name: &str) -> Result<&str, String> {
        self.get(name)
            .ok_or_else(|| format!("missing required flag --{name}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Opts {
        Opts::parse(&tokens.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_pairs_and_switches() {
        let o = parse(&["--points", "100", "--verbose", "--seed", "7"]);
        assert_eq!(o.get("points"), Some("100"));
        assert_eq!(o.get_or("seed", 0u64), 7);
        assert_eq!(o.get("verbose"), None);
        assert_eq!(o.get("missing"), None);
    }

    #[test]
    fn adjacent_flags_are_switches() {
        let o = parse(&["--a", "--b", "value"]);
        assert_eq!(o.get("a"), None);
        assert_eq!(o.get("b"), Some("value"));
    }

    #[test]
    fn require_reports_the_flag_name() {
        let o = parse(&[]);
        let err = o.require("input").expect_err("missing");
        assert!(err.contains("--input"));
    }

    #[test]
    fn defaults_apply_on_parse_failure() {
        let o = parse(&["--points", "not-a-number"]);
        assert_eq!(o.get_or("points", 42usize), 42);
    }
}
