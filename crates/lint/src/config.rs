//! `lint.toml` loading.
//!
//! The workspace ships no TOML crate (offline shim policy), so this module
//! parses the small subset the config actually uses: `[section]` tables,
//! `[[section]]` arrays of tables, and `key = value` where value is a string,
//! integer, or (possibly multiline) array of strings. `#` starts a comment
//! outside of strings. Anything beyond that subset is a hard error — a
//! config the linter half-understood would silently weaken the gate.

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

/// One parsed value.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Str(String),
    Int(i64),
    List(Vec<String>),
}

type Table = BTreeMap<String, Value>;

/// A declarative forbidden-pattern rule (the replacement for the old ad-hoc
/// `include_str!` source-scan tests).
#[derive(Debug, Clone)]
pub struct ForbiddenRule {
    /// Rule id diagnostics are reported under (and suppressed by).
    pub id: String,
    /// Workspace-relative file the rule applies to.
    pub file: String,
    /// Line of the rule's `[[forbidden]]` header (see
    /// [`crate::rules::config_path`]).
    pub line: u32,
    /// Token-wise patterns that must appear at most `max_count` times in
    /// non-test code of `file`.
    pub patterns: Vec<String>,
    /// Maximum allowed occurrences per pattern (0 = forbidden outright).
    pub max_count: usize,
    /// The invariant being protected; echoed in diagnostics.
    pub reason: String,
}

/// Parsed `lint.toml`.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Declared lock-acquisition chains, outermost first.
    pub lock_chains: Vec<Vec<String>>,
    /// Declarative forbidden-pattern rules.
    pub forbidden: Vec<ForbiddenRule>,
}

/// Config-file problem, reported with a line number.
#[derive(Debug)]
pub struct ConfigError {
    pub line: usize,
    pub message: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lint.toml:{}: {}", self.line, self.message)
    }
}

impl std::error::Error for ConfigError {}

impl Config {
    /// Load and parse a config file.
    pub fn load(path: &Path) -> Result<Config, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        Config::parse(&text).map_err(|e| e.to_string())
    }

    /// Parse config text.
    pub fn parse(text: &str) -> Result<Config, ConfigError> {
        let doc = parse_document(text)?;
        let mut cfg = Config::default();

        for (section, line, table) in &doc {
            match section.as_str() {
                "lock_order" => {
                    for chain in take_list(table, "chains", *line)? {
                        let locks: Vec<String> =
                            chain.split("->").map(|s| s.trim().to_string()).collect();
                        if locks.len() < 2 || locks.iter().any(String::is_empty) {
                            return Err(ConfigError {
                                line: *line,
                                message: format!(
                                    "lock chain `{chain}` must name two or more locks \
                                     separated by `->`"
                                ),
                            });
                        }
                        cfg.lock_chains.push(locks);
                    }
                }
                "forbidden" => {
                    let rule = ForbiddenRule {
                        id: take_str(table, "id", *line)?,
                        file: take_str(table, "file", *line)?,
                        line: *line as u32,
                        patterns: take_list(table, "patterns", *line)?,
                        max_count: match table.get("max_count") {
                            Some(Value::Int(n)) if *n >= 0 => *n as usize,
                            Some(_) => {
                                return Err(ConfigError {
                                    line: *line,
                                    message: "max_count must be a non-negative integer".into(),
                                })
                            }
                            None => 0,
                        },
                        reason: take_str(table, "reason", *line)?,
                    };
                    if rule.patterns.is_empty() {
                        return Err(ConfigError {
                            line: *line,
                            message: format!("forbidden rule `{}` has no patterns", rule.id),
                        });
                    }
                    cfg.forbidden.push(rule);
                }
                other => {
                    return Err(ConfigError {
                        line: *line,
                        message: format!("unknown section `[{other}]`"),
                    })
                }
            }
        }
        Ok(cfg)
    }
}

fn take_list(table: &Table, key: &str, line: usize) -> Result<Vec<String>, ConfigError> {
    match table.get(key) {
        Some(Value::List(items)) => Ok(items.clone()),
        Some(_) => Err(ConfigError {
            line,
            message: format!("`{key}` must be an array of strings"),
        }),
        None => Err(ConfigError {
            line,
            message: format!("missing required key `{key}`"),
        }),
    }
}

fn take_str(table: &Table, key: &str, line: usize) -> Result<String, ConfigError> {
    match table.get(key) {
        Some(Value::Str(s)) => Ok(s.clone()),
        Some(_) => Err(ConfigError {
            line,
            message: format!("`{key}` must be a string"),
        }),
        None => Err(ConfigError {
            line,
            message: format!("missing required key `{key}`"),
        }),
    }
}

/// Parse the raw document into `(section-path, header-line, table)` triples,
/// one per `[section]` / `[[section]]` occurrence, in file order.
fn parse_document(text: &str) -> Result<Vec<(String, usize, Table)>, ConfigError> {
    let mut out: Vec<(String, usize, Table)> = Vec::new();
    let lines: Vec<&str> = text.lines().collect();
    let mut i = 0usize;
    while i < lines.len() {
        let lineno = i + 1;
        let stripped = strip_comment(lines[i]);
        let trimmed = stripped.trim();
        if trimmed.is_empty() {
            i += 1;
            continue;
        }
        if let Some(header) = trimmed.strip_prefix("[[") {
            let name = header.strip_suffix("]]").ok_or_else(|| ConfigError {
                line: lineno,
                message: "malformed `[[section]]` header".into(),
            })?;
            out.push((name.trim().to_string(), lineno, Table::new()));
            i += 1;
        } else if let Some(header) = trimmed.strip_prefix('[') {
            let name = header.strip_suffix(']').ok_or_else(|| ConfigError {
                line: lineno,
                message: "malformed `[section]` header".into(),
            })?;
            out.push((name.trim().to_string(), lineno, Table::new()));
            i += 1;
        } else {
            let (key, mut value_text) = trimmed.split_once('=').ok_or_else(|| ConfigError {
                line: lineno,
                message: format!("expected `key = value`, got `{trimmed}`"),
            })?;
            let key = key.trim().to_string();
            let mut buf = value_text.trim().to_string();
            // Multiline arrays: keep consuming lines until brackets balance.
            while bracket_depth(&buf) > 0 {
                i += 1;
                if i >= lines.len() {
                    return Err(ConfigError {
                        line: lineno,
                        message: format!("unterminated array for key `{key}`"),
                    });
                }
                buf.push(' ');
                buf.push_str(strip_comment(lines[i]).trim());
            }
            value_text = &buf;
            let value = parse_value(value_text.trim(), lineno)?;
            let Some((_, _, table)) = out.last_mut() else {
                return Err(ConfigError {
                    line: lineno,
                    message: format!("key `{key}` before any [section] header"),
                });
            };
            if table.insert(key.clone(), value).is_some() {
                return Err(ConfigError {
                    line: lineno,
                    message: format!("duplicate key `{key}`"),
                });
            }
            i += 1;
        }
    }
    Ok(out)
}

/// Remove a `#` comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let bytes = line.as_bytes();
    let mut in_str = false;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' if in_str => i += 1,
            b'"' => in_str = !in_str,
            b'#' if !in_str => return &line[..i],
            _ => {}
        }
        i += 1;
    }
    line
}

/// Net `[`/`]` nesting outside strings; positive means the array continues.
fn bracket_depth(s: &str) -> i32 {
    let mut depth = 0i32;
    let mut in_str = false;
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' if in_str => i += 1,
            b'"' => in_str = !in_str,
            b'[' if !in_str => depth += 1,
            b']' if !in_str => depth -= 1,
            _ => {}
        }
        i += 1;
    }
    depth
}

fn parse_value(text: &str, line: usize) -> Result<Value, ConfigError> {
    if let Some(body) = text.strip_prefix('[') {
        let body = body.strip_suffix(']').ok_or_else(|| ConfigError {
            line,
            message: "malformed array".into(),
        })?;
        let mut items = Vec::new();
        for part in split_top_level(body) {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            match parse_value(part, line)? {
                Value::Str(s) => items.push(s),
                _ => {
                    return Err(ConfigError {
                        line,
                        message: "arrays may contain only strings".into(),
                    })
                }
            }
        }
        return Ok(Value::List(items));
    }
    if let Some(body) = text.strip_prefix('"') {
        let body = body.strip_suffix('"').ok_or_else(|| ConfigError {
            line,
            message: "unterminated string".into(),
        })?;
        return Ok(Value::Str(unescape(body)));
    }
    if let Ok(n) = text.parse::<i64>() {
        return Ok(Value::Int(n));
    }
    Err(ConfigError {
        line,
        message: format!("cannot parse value `{text}`"),
    })
}

/// Split an array body on commas that sit outside strings.
fn split_top_level(body: &str) -> Vec<String> {
    let mut parts = Vec::new();
    let mut current = String::new();
    let mut in_str = false;
    let mut chars = body.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '\\' if in_str => {
                current.push(c);
                if let Some(next) = chars.next() {
                    current.push(next);
                }
            }
            '"' => {
                in_str = !in_str;
                current.push(c);
            }
            ',' if !in_str => {
                parts.push(std::mem::take(&mut current));
            }
            _ => current.push(c),
        }
    }
    if !current.trim().is_empty() {
        parts.push(current);
    }
    parts
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                Some(other) => out.push(other),
                None => {}
            }
        } else {
            out.push(c);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sections of the rules rustc and clippy hold (docs/LINTS.md) are
    /// rejected, not skipped: a stale config must not half-configure the gate.
    #[test]
    fn retired_sections_are_unknown() {
        for (text, section) in [
            ("[hot_path]\nmodules = [\"src/lib.rs\"]\n", "[hot_path]"),
            ("[unsafe_code]\n", "[unsafe_code]"),
            ("[debug_output]\nallow = []\n", "[debug_output]"),
            (
                "[[atomic.allow_seqcst]]\nfile = \"src/lib.rs\"\nreason = \"why\"\n",
                "[atomic.allow_seqcst]",
            ),
        ] {
            let err = Config::parse(text).expect_err(section);
            assert_eq!(err.line, 1, "{section}: {err}");
            assert_eq!(err.message, format!("unknown section `{section}`"));
        }
    }
}
