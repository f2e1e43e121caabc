//! Structured diagnostics: every rule violation carries a rule id, a
//! severity, a position, a message, and (when the fix is mechanical) a
//! suggestion. Diagnostics render both human-readable (`file:line:col`)
//! and machine-readable (`target/lint.json`).

use std::fmt;

use edgepc_trace::json::escape;

/// How bad a diagnostic is. Every shipped rule currently reports
/// [`Severity::Error`]; `Warning` exists so future advisory rules don't
/// need a model change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    Warning,
    Error,
}

impl Severity {
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One rule violation at one site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule id, e.g. `EP002`.
    pub rule: &'static str,
    pub severity: Severity,
    /// Repo-relative path with `/` separators.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// What went wrong, in one sentence.
    pub message: String,
    /// A mechanical fix, when one exists.
    pub suggestion: Option<String>,
    /// The named item the diagnostic is about (function name for EP002,
    /// lock variant for EP006); inline waivers match on it.
    pub item: Option<String>,
}

impl Diagnostic {
    pub fn new(rule: &'static str, file: &str, line: usize, col: usize, message: String) -> Self {
        Diagnostic {
            rule,
            severity: Severity::Error,
            file: file.to_string(),
            line,
            col,
            message,
            suggestion: None,
            item: None,
        }
    }

    pub fn with_suggestion(mut self, s: impl Into<String>) -> Self {
        self.suggestion = Some(s.into());
        self
    }

    pub fn with_item(mut self, item: impl Into<String>) -> Self {
        self.item = Some(item.into());
        self
    }

    /// Serializes this diagnostic as a JSON object.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        push_field(&mut s, "rule", self.rule);
        push_field(&mut s, "severity", self.severity.as_str());
        push_field(&mut s, "file", &self.file);
        s.push_str(&format!("\"line\":{},\"col\":{},", self.line, self.col));
        push_field(&mut s, "message", &self.message);
        if let Some(sug) = &self.suggestion {
            push_field(&mut s, "suggestion", sug);
        }
        if let Some(item) = &self.item {
            push_field(&mut s, "item", item);
        }
        s.pop(); // trailing comma
        s.push('}');
        s
    }
}

fn push_field(out: &mut String, key: &str, value: &str) {
    out.push_str(&format!("\"{key}\":\"{}\",", escape(value)));
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {}:{}:{}: [{}] {}",
            self.severity.as_str(),
            self.file,
            self.line,
            self.col,
            self.rule,
            self.message
        )?;
        if let Some(s) = &self.suggestion {
            write!(f, "\n    suggestion: {s}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_json_round_out() {
        let d = Diagnostic::new("EP002", "crates/x/src/lib.rs", 3, 7, "no `unwrap`".into())
            .with_suggestion("propagate the Option")
            .with_item("unwrap");
        let text = d.to_string();
        assert!(text.contains("crates/x/src/lib.rs:3:7"));
        assert!(text.contains("[EP002]"));
        assert!(text.contains("suggestion: propagate"));
        let json = d.to_json();
        assert!(json.contains("\"rule\":\"EP002\""));
        assert!(json.contains("\"line\":3"));
        assert!(json.contains("\"item\":\"unwrap\""));
    }
}
