//! Plain-text table rendering for the benchmark harness.
//!
//! Every figure/table reproduction binary prints its rows through this module
//! so the output format is uniform and easy to diff against the paper.

use std::fmt::Write as _;

/// A single table cell.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    Text(String),
    Int(i64),
    Float(f64),
    /// A float rendered with a fixed number of decimals.
    FloatPrec(f64, usize),
    Empty,
}

impl Cell {
    fn render(&self) -> String {
        match self {
            Cell::Text(s) => s.clone(),
            Cell::Int(v) => format!("{v}"),
            Cell::Float(v) => {
                if v.abs() >= 100.0 {
                    format!("{v:.0}")
                } else if v.abs() >= 1.0 {
                    format!("{v:.2}")
                } else {
                    format!("{v:.4}")
                }
            }
            Cell::FloatPrec(v, p) => format!("{v:.*}", p),
            Cell::Empty => "-".to_string(),
        }
    }
}

impl From<&str> for Cell {
    fn from(s: &str) -> Self {
        Cell::Text(s.to_string())
    }
}

impl From<String> for Cell {
    fn from(s: String) -> Self {
        Cell::Text(s)
    }
}

impl From<u64> for Cell {
    fn from(v: u64) -> Self {
        Cell::Int(v as i64)
    }
}

impl From<i64> for Cell {
    fn from(v: i64) -> Self {
        Cell::Int(v)
    }
}

impl From<usize> for Cell {
    fn from(v: usize) -> Self {
        Cell::Int(v as i64)
    }
}

impl From<f64> for Cell {
    fn from(v: f64) -> Self {
        Cell::Float(v)
    }
}

/// A simple column-aligned text table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    pub title: String,
    pub headers: Vec<String>,
    pub rows: Vec<Vec<Cell>>,
}

impl Table {
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn push_row(&mut self, row: Vec<Cell>) {
        self.rows.push(row);
    }

    pub fn row(&mut self, cells: impl IntoIterator<Item = Cell>) {
        self.rows.push(cells.into_iter().collect());
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render the table as column-aligned plain text.
    pub fn render(&self) -> String {
        format_table(self)
    }

    /// Render the table as GitHub-flavoured markdown (used for EXPERIMENTS.md).
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "### {}\n", self.title);
        }
        let _ = writeln!(out, "| {} |", self.headers.join(" | "));
        let _ = writeln!(
            out,
            "|{}|",
            self.headers
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        );
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(|c| c.render()).collect();
            let _ = writeln!(out, "| {} |", cells.join(" | "));
        }
        out
    }

    /// Render the table as a JSON object (`{"title", "columns", "rows"}`).
    ///
    /// Numeric cells are emitted as JSON numbers, text cells as strings and
    /// empty cells as `null`, so the nightly-CI artifact is machine-readable
    /// without depending on a serialization crate.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"title\":");
        json_string(&mut out, &self.title);
        out.push_str(",\"columns\":[");
        for (i, h) in self.headers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json_string(&mut out, h);
        }
        out.push_str("],\"rows\":[");
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('[');
            for (j, cell) in row.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                match cell {
                    Cell::Text(s) => json_string(&mut out, s),
                    Cell::Int(v) => {
                        let _ = write!(out, "{v}");
                    }
                    Cell::Float(v) | Cell::FloatPrec(v, _) => {
                        if v.is_finite() {
                            let _ = write!(out, "{v}");
                        } else {
                            out.push_str("null");
                        }
                    }
                    Cell::Empty => out.push_str("null"),
                }
            }
            out.push(']');
        }
        out.push_str("]}");
        out
    }
}

/// Render `s` as a JSON string literal (quotes included).
pub fn json_string_literal(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    json_string(&mut out, s);
    out
}

/// Append `s` to `out` as a JSON string literal.
fn json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Structural JSON validity check: balanced containers, well-formed strings,
/// numbers, and literals. This is *not* a parser — it exists so tests and the
/// flight-recorder dump path can assert that our hand-rolled JSON emitters
/// produce loadable documents without pulling in a serialization crate.
pub fn json_is_valid(s: &str) -> bool {
    let mut stack: Vec<char> = Vec::new();
    let mut chars = s.chars().peekable();
    // Tracks whether a value is legal at this point (vs. expecting ',' etc.);
    // kept deliberately loose — the emitters, not arbitrary input, are under
    // test. Structure (nesting, string escapes, token shape) is checked.
    let mut saw_value = false;
    while let Some(c) = chars.next() {
        match c {
            '{' => {
                stack.push('}');
                saw_value = false;
            }
            '[' => {
                stack.push(']');
                saw_value = false;
            }
            '}' | ']' => {
                if stack.pop() != Some(c) {
                    return false;
                }
                saw_value = true;
            }
            '"' => {
                loop {
                    match chars.next() {
                        None => return false,
                        Some('\\') => match chars.next() {
                            Some('u') => {
                                for _ in 0..4 {
                                    match chars.next() {
                                        Some(h) if h.is_ascii_hexdigit() => {}
                                        _ => return false,
                                    }
                                }
                            }
                            Some('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') => {}
                            _ => return false,
                        },
                        Some('"') => break,
                        Some(c) if (c as u32) < 0x20 => return false,
                        Some(_) => {}
                    }
                }
                saw_value = true;
            }
            ',' | ':' => saw_value = false,
            c if c.is_whitespace() => {}
            c if c.is_ascii_digit() || c == '-' => {
                while let Some(&n) = chars.peek() {
                    if n.is_ascii_digit() || matches!(n, '.' | 'e' | 'E' | '+' | '-') {
                        chars.next();
                    } else {
                        break;
                    }
                }
                saw_value = true;
            }
            't' | 'f' | 'n' => {
                let word = match c {
                    't' => "rue",
                    'f' => "alse",
                    _ => "ull",
                };
                for expect in word.chars() {
                    if chars.next() != Some(expect) {
                        return false;
                    }
                }
                saw_value = true;
            }
            _ => return false,
        }
    }
    stack.is_empty() && saw_value
}

/// Render a [`Table`] with aligned columns.
fn format_table(table: &Table) -> String {
    let ncols = table
        .headers
        .len()
        .max(table.rows.iter().map(|r| r.len()).max().unwrap_or(0));
    let mut widths = vec![0usize; ncols];
    for (i, h) in table.headers.iter().enumerate() {
        widths[i] = widths[i].max(h.len());
    }
    let rendered_rows: Vec<Vec<String>> = table
        .rows
        .iter()
        .map(|r| r.iter().map(|c| c.render()).collect())
        .collect();
    for row in &rendered_rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }

    let mut out = String::new();
    if !table.title.is_empty() {
        let _ = writeln!(out, "== {} ==", table.title);
    }
    if !table.headers.is_empty() {
        let header_line: Vec<String> = table
            .headers
            .iter()
            .enumerate()
            .map(|(i, h)| format!("{:width$}", h, width = widths[i]))
            .collect();
        let _ = writeln!(out, "{}", header_line.join("  "));
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols.saturating_sub(1));
        let _ = writeln!(out, "{}", "-".repeat(total));
    }
    for row in &rendered_rows {
        let line: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:width$}", c, width = widths[i]))
            .collect();
        let _ = writeln!(out, "{}", line.join("  "));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("demo", &["design", "tps"]);
        t.row(vec![Cell::from("Conventional"), Cell::from(123u64)]);
        t.row(vec![Cell::from("PLP"), Cell::from(456u64)]);
        let s = t.render();
        assert!(s.contains("demo"));
        assert!(s.contains("Conventional"));
        assert!(s.contains("456"));
        // Columns aligned: both rows have same offset for the tps column.
        let lines: Vec<&str> = s.lines().collect();
        let conv = lines.iter().find(|l| l.contains("Conventional")).unwrap();
        let plp = lines.iter().find(|l| l.starts_with("PLP")).unwrap();
        assert_eq!(conv.find("123"), plp.find("456"));
    }

    #[test]
    fn markdown_has_separator() {
        let mut t = Table::new("md", &["a", "b"]);
        t.row(vec![Cell::from(1u64), Cell::from(2u64)]);
        let md = t.render_markdown();
        assert!(md.contains("|---|---|"));
        assert!(md.contains("| 1 | 2 |"));
    }

    #[test]
    fn cell_rendering() {
        assert_eq!(Cell::from(3u64).render(), "3");
        assert_eq!(Cell::Empty.render(), "-");
        assert_eq!(Cell::FloatPrec(1.23456, 2).render(), "1.23");
        assert_eq!(Cell::Float(0.5).render(), "0.5000");
        assert_eq!(Cell::Float(12.5).render(), "12.50");
        assert_eq!(Cell::Float(1200.0).render(), "1200");
    }

    #[test]
    fn json_string_literal_escapes_control_chars() {
        assert_eq!(
            json_string_literal("a\nb\"c\\\u{1}"),
            "\"a\\nb\\\"c\\\\\\u0001\""
        );
    }

    #[test]
    fn json_rendering_escapes_and_types() {
        let mut t = Table::new("fig \"x\"", &["design", "tps"]);
        t.row(vec![Cell::from("a\\b"), Cell::FloatPrec(1.5, 2)]);
        t.row(vec![Cell::from("c"), Cell::Empty]);
        let json = t.render_json();
        assert_eq!(
            json,
            "{\"title\":\"fig \\\"x\\\"\",\"columns\":[\"design\",\"tps\"],\
             \"rows\":[[\"a\\\\b\",1.5],[\"c\",null]]}"
        );
    }

    #[test]
    fn json_validity_checker() {
        assert!(json_is_valid(
            "{\"a\":[1,2.5,-3e4],\"b\":\"x\\n\",\"c\":null}"
        ));
        assert!(json_is_valid("[]"));
        assert!(json_is_valid("{\"t\":true,\"f\":false}"));
        assert!(!json_is_valid("{\"a\":[1,2}"));
        assert!(!json_is_valid("{\"a\": \"unterminated"));
        assert!(!json_is_valid("{\"bad\\q\": 1}"));
        assert!(!json_is_valid(""));
        assert!(!json_is_valid("@"));
        let mut t = Table::new("fig", &["a"]);
        t.row(vec![Cell::from("x\"y")]);
        assert!(json_is_valid(&t.render_json()));
    }

    #[test]
    fn empty_table() {
        let t = Table::new("", &[]);
        assert!(t.is_empty());
        assert_eq!(t.render().trim(), "");
    }
}
