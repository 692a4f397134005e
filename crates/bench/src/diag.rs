//! Buffered stderr diagnostics with deterministic flush order.
//!
//! Experiments emit warnings (e.g. `--t` clamp notices) while they run.
//! Under `--jobs`/`--shards` fan-out several experiments run at once, so
//! direct `eprintln!` calls interleave nondeterministically and CI diffs of
//! harness stderr flap.  Instead, [`warn`] routes a diagnostic to the
//! current thread's capture buffer when one is active ([`capture`]); the
//! harness captures per experiment and flushes the buffers in canonical
//! E1–E11 order.  Outside a capture — library users calling `measure_*` or
//! `experiment_*` directly — [`warn`] degrades to plain stderr, so no
//! diagnostic is ever silently dropped.
//!
//! For machine consumers, [`json_line`] renders a diagnostic as one JSON
//! object per line (`run_experiments --diag-json`).

use std::cell::RefCell;

use crate::json::escape;

thread_local! {
    static CAPTURE: RefCell<Option<Vec<String>>> = const { RefCell::new(None) };
}

/// Renders one diagnostic as a machine-readable JSON object on a single
/// line: `{"tool": …, "level": …, "experiment": …, "message": …}`.
pub fn json_line(tool: &str, level: &str, experiment: &str, message: &str) -> String {
    format!(
        "{{\"tool\": \"{}\", \"level\": \"{}\", \"experiment\": \"{}\", \"message\": \"{}\"}}",
        escape(tool),
        escape(level),
        escape(experiment),
        escape(message)
    )
}

/// Reports a diagnostic line: buffered when the calling thread is inside
/// [`capture`], otherwise printed to stderr immediately.
pub fn warn(line: String) {
    CAPTURE.with(|slot| match slot.borrow_mut().as_mut() {
        Some(buffer) => buffer.push(line),
        None => eprintln!("{line}"),
    });
}

/// Runs `f` with diagnostics buffered on this thread, returning `f`'s
/// result together with every line [`warn`]ed during the call, in emission
/// order.
pub fn capture<T>(f: impl FnOnce() -> T) -> (T, Vec<String>) {
    CAPTURE.with(|slot| {
        *slot.borrow_mut() = Some(Vec::new());
    });
    let value = f();
    let lines = CAPTURE.with(|slot| slot.borrow_mut().take().unwrap_or_default());
    (value, lines)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warnings_inside_capture_are_buffered_in_order() {
        let ((), lines) = capture(|| {
            warn("first".to_string());
            warn("second".to_string());
        });
        assert_eq!(lines, vec!["first".to_string(), "second".to_string()]);
    }

    #[test]
    fn capture_is_per_thread_and_resets() {
        let ((), lines) = capture(|| {
            // A sibling thread without a capture must not contribute here
            // (its warning goes to real stderr instead).
            std::thread::scope(|s| {
                s.spawn(|| warn("other thread".to_string()));
            });
            warn("mine".to_string());
        });
        assert_eq!(lines, vec!["mine".to_string()]);
        // After the capture ends, warnings pass through (smoke: no panic).
        warn("uncaptured".to_string());
    }

    #[test]
    fn nested_work_returns_value() {
        let (value, lines) = capture(|| 41 + 1);
        assert_eq!(value, 42);
        assert!(lines.is_empty());
    }

    #[test]
    fn json_line_has_the_shared_key_set() {
        let line = json_line("run_experiments", "warn", "E3", "t clamped to 12");
        assert_eq!(
            line,
            "{\"tool\": \"run_experiments\", \"level\": \"warn\", \
             \"experiment\": \"E3\", \"message\": \"t clamped to 12\"}"
        );
        assert!(!line.contains('\n'), "one object per line");
    }

    #[test]
    fn json_line_escapes_quotes_backslashes_and_controls() {
        let line = json_line("t", "warn", "E1", "path \"C:\\x\"\nnext\tcol\u{1}");
        assert_eq!(
            line,
            "{\"tool\": \"t\", \"level\": \"warn\", \"experiment\": \"E1\", \
             \"message\": \"path \\\"C:\\\\x\\\"\\nnext\\tcol\\u0001\"}"
        );
    }

    #[test]
    fn json_line_passes_non_ascii_through() {
        let line = json_line("t", "warn", "E1", "ε = 0.1 → groups");
        assert!(line.contains("ε = 0.1 → groups"));
    }
}
