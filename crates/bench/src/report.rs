//! Plain-text tables and JSON persistence for the `repro` binary.

use han_sim::Time;
use serde::Serialize;
use std::fmt::Write as _;
use std::path::Path;

/// A simple aligned text table.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "column count mismatch");
        self.rows.push(cells);
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::new();
            for (c, w) in cells.iter().zip(widths) {
                let _ = write!(line, "{c:>w$}  ");
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        out.push_str(&"-".repeat(total.saturating_sub(2)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Human-friendly microseconds with adaptive precision.
pub fn us(t: Time) -> String {
    let v = t.as_us_f64();
    if v < 10.0 {
        format!("{v:.2}")
    } else if v < 1000.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.0}")
    }
}

/// Persist a serializable result as pretty JSON at `path`, creating its
/// directory.
pub fn save_json<T: Serialize>(path: &Path, value: &T) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(
        path,
        serde_json::to_string_pretty(value).expect("serialize"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let mut t = Table::new(&["size", "HAN", "tuned"]);
        t.row(vec!["4".into(), "1.23".into(), "5.6".into()]);
        t.row(vec!["128K".into(), "100".into(), "472".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("size"));
        assert!(lines[3].contains("128K"));
        // All data lines share the same width.
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    #[should_panic]
    fn column_mismatch_panics() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(us(Time::from_us(3)), "3.00");
        assert_eq!(us(Time::from_us(42)), "42.0");
        assert_eq!(us(Time::from_ms(5)), "5000");
    }
}
