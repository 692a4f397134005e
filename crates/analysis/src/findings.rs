//! Findings: what the schema pass reports, and how findings render.

/// One diagnostic from the schema pass.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Root-relative path with forward slashes (stable across platforms).
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Rule identifier: [`crate::schema::RULE_WIRE_HANDWRITTEN`] or
    /// [`crate::schema::RULE_WIRE_UNTESTED`].
    pub rule: &'static str,
    /// Human-readable explanation of the hazard at this site.
    pub message: String,
    /// The source line, whitespace-normalised.
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
}

/// Collapses runs of whitespace to single spaces and trims.
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
}
