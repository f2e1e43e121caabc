//! `LINT.toml` configuration beyond waivers: the designated
//! steady-state allocation scopes for EP008.
//!
//! ```toml
//! [[alloc.scope]]
//! path = "crates/trace/src/registry.rs"
//! items = ["record", "incr"]           # fns that must not allocate
//! ```

use crate::toml_lite::{self, TomlValue};
use crate::waiver::{self, Waiver};

/// One `[[alloc.scope]]` entry: fns in `path` that EP008 holds to the
/// steady-state allocation-freedom contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllocScope {
    pub path: String,
    pub items: Vec<String>,
}

/// Everything the engine reads from `LINT.toml`.
#[derive(Debug, Clone, Default)]
pub struct LintConfig {
    pub waivers: Vec<Waiver>,
    pub alloc: Vec<AllocScope>,
}

/// Parses a full `LINT.toml`. Errors are environmental: a malformed
/// config must fail the run loudly, not silently disable a rule.
pub fn parse_config(src: &str) -> Result<LintConfig, String> {
    let waivers = waiver::parse_waivers(src)?;
    let doc = toml_lite::parse(src).map_err(|e| format!("LINT.toml: {e}"))?;

    let mut alloc = Vec::new();
    if let Some(table) = doc.get("alloc") {
        if let Some(entries) = table.get("scope") {
            let entries = entries
                .as_array()
                .ok_or_else(|| "LINT.toml: `alloc.scope` must be an array of tables".to_string())?;
            for (i, entry) in entries.iter().enumerate() {
                let path = entry
                    .get("path")
                    .and_then(TomlValue::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| {
                        format!("LINT.toml: alloc scope #{} is missing `path`", i + 1)
                    })?;
                let items: Vec<String> = entry
                    .get("items")
                    .and_then(TomlValue::as_array)
                    .ok_or_else(|| {
                        format!("LINT.toml: alloc scope #{} needs an `items` array", i + 1)
                    })?
                    .iter()
                    .filter_map(|v| v.as_str().map(str::to_string))
                    .collect();
                if items.is_empty() {
                    return Err(format!(
                        "LINT.toml: alloc scope #{} ({path}) has no items",
                        i + 1
                    ));
                }
                alloc.push(AllocScope { path, items });
            }
        }
    }

    Ok(LintConfig { waivers, alloc })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
[[alloc.scope]]
path = "crates/serve/src/x.rs"
items = ["hot", "hotter"]

[[waiver]]
rule = "EP008"
path = "crates/serve/src/x.rs"
item = "hot"
reason = "handoff vectors are the API"
"#;

    #[test]
    fn parses_alloc_sections_and_waivers() {
        let cfg = parse_config(SAMPLE).expect("valid config");
        assert_eq!(cfg.alloc.len(), 1);
        assert_eq!(cfg.alloc[0].items, vec!["hot", "hotter"]);
        assert_eq!(cfg.waivers.len(), 1);
    }

    #[test]
    fn empty_config_is_fine() {
        let cfg = parse_config("").expect("empty ok");
        assert!(cfg.alloc.is_empty());
        assert!(cfg.waivers.is_empty());
    }
}
