//! Findings: what a rule reports, and how findings render.

use crate::json::escape;

/// One diagnostic from the rule engine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Root-relative path with forward slashes (stable across platforms —
    /// the baseline file embeds these).
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Rule identifier (one of [`crate::rules::RULES`]).
    pub rule: &'static str,
    /// Human-readable explanation of the hazard at this site.
    pub message: String,
    /// The source line, whitespace-normalised — the baseline key, so
    /// findings survive unrelated line-number churn.
    pub snippet: String,
}

impl Finding {
    /// `file:line: [rule] message` — the human diagnostic line.
    pub fn render(&self) -> String {
        format!(
            "{}:{}: [{}] {}\n    {}",
            self.file, self.line, self.rule, self.message, self.snippet
        )
    }

    /// The finding as one machine-readable JSON object, following the same
    /// diagnostics idiom as `run_experiments --diag-json`: every line is an
    /// object with at least `tool`, `level` and `message` keys.
    pub fn to_json(&self, baselined: bool) -> String {
        format!(
            "{{\"tool\": \"dft-analyze\", \"level\": \"{}\", \"rule\": \"{}\", \
             \"file\": \"{}\", \"line\": {}, \"message\": \"{}\", \"snippet\": \"{}\"}}",
            if baselined { "baselined" } else { "error" },
            self.rule,
            escape(&self.file),
            self.line,
            escape(&self.message),
            escape(&self.snippet),
        )
    }
}

/// Collapses runs of whitespace to single spaces and trims — the snippet
/// normalisation used for baseline matching.
pub fn normalize_snippet(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut last_space = true;
    for c in line.chars() {
        if c.is_whitespace() {
            if !last_space {
                out.push(' ');
            }
            last_space = true;
        } else {
            out.push(c);
            last_space = false;
        }
    }
    while out.ends_with(' ') {
        out.pop();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snippet_normalisation() {
        assert_eq!(normalize_snippet("   a \t b  \n"), "a b");
        assert_eq!(normalize_snippet("x"), "x");
        assert_eq!(normalize_snippet("  "), "");
    }

    #[test]
    fn json_line_escapes_content() {
        let finding = Finding {
            file: "crates/x/src/lib.rs".to_string(),
            line: 7,
            rule: "panic-expect",
            message: "msg with \"quotes\"".to_string(),
            snippet: "let x = m.expect(\"why\");".to_string(),
        };
        let json = finding.to_json(false);
        assert!(json.contains("\\\"quotes\\\""));
        assert!(json.contains("\"level\": \"error\""));
        let parsed = crate::json::parse(&json).expect("valid JSON");
        assert_eq!(
            parsed.get("snippet").and_then(crate::json::Json::as_str),
            Some("let x = m.expect(\"why\");")
        );
    }
}
