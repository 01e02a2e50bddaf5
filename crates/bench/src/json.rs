//! A tiny JSON-lines emitter for machine-readable benchmark output.
//!
//! The workspace builds fully offline, so instead of `serde_json` the
//! tools that need structured output (`dipload`'s MST lines, the
//! `reconvergence` and `scenarios` benches) use this hand-rolled builder: one [`JsonLine`] per measurement,
//! fields appended in insertion order, printed as a single line on
//! stdout so results can be collected with `cargo bench ... | grep '^{'`
//! and parsed by any JSON tool.

use std::fmt::Write as _;

/// Builder for one JSON object, emitted as a single output line.
#[derive(Debug)]
pub struct JsonLine {
    buf: String,
}

fn escape_into(buf: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => buf.push_str("\\\""),
            '\\' => buf.push_str("\\\\"),
            '\n' => buf.push_str("\\n"),
            '\r' => buf.push_str("\\r"),
            '\t' => buf.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(buf, "\\u{:04x}", c as u32);
            }
            c => buf.push(c),
        }
    }
}

impl JsonLine {
    /// Starts an object whose first field is `"bench": name`.
    pub fn new(name: &str) -> Self {
        let mut line = JsonLine { buf: String::from("{") };
        line.push_key("bench");
        line.push_str_value(name);
        line
    }

    fn push_key(&mut self, key: &str) {
        if self.buf.len() > 1 {
            self.buf.push(',');
        }
        self.buf.push('"');
        escape_into(&mut self.buf, key);
        self.buf.push_str("\":");
    }

    fn push_str_value(&mut self, value: &str) {
        self.buf.push('"');
        escape_into(&mut self.buf, value);
        self.buf.push('"');
    }

    /// Appends a string field.
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.push_key(key);
        self.push_str_value(value);
        self
    }

    /// Appends an unsigned integer field.
    pub fn u64(mut self, key: &str, value: u64) -> Self {
        self.push_key(key);
        let _ = write!(self.buf, "{value}");
        self
    }

    /// Appends a float field (rendered with one decimal; JSON-safe for
    /// NaN/infinity by falling back to `null`).
    pub fn f64(mut self, key: &str, value: f64) -> Self {
        self.push_key(key);
        if value.is_finite() {
            let _ = write!(self.buf, "{value:.1}");
        } else {
            self.buf.push_str("null");
        }
        self
    }

    /// Appends a float field rendered with `decimals` decimal places
    /// (small fractions like drop rates vanish at the default single
    /// decimal); NaN/infinity fall back to `null`.
    pub fn f64p(mut self, key: &str, value: f64, decimals: usize) -> Self {
        self.push_key(key);
        if value.is_finite() {
            let _ = write!(self.buf, "{value:.decimals$}");
        } else {
            self.buf.push_str("null");
        }
        self
    }

    /// Closes the object and returns the line.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }

    /// Closes the object and prints it on its own stdout line.
    pub fn emit(self) {
        println!("{}", self.finish());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_keep_insertion_order() {
        let line = JsonLine::new("demo").u64("workers", 4).f64("pps", 1234.56).str("mode", "block");
        assert_eq!(line.finish(), r#"{"bench":"demo","workers":4,"pps":1234.6,"mode":"block"}"#);
    }

    #[test]
    fn strings_are_escaped() {
        let line = JsonLine::new("q\"uote").str("k", "a\\b\nc");
        assert_eq!(line.finish(), r#"{"bench":"q\"uote","k":"a\\b\nc"}"#);
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(JsonLine::new("x").f64("v", f64::NAN).finish(), r#"{"bench":"x","v":null}"#);
    }
}
