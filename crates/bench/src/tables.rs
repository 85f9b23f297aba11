//! Aligned table output for the figure binaries: right-aligned columns
//! on stdout.

/// A simple column-aligned table builder.
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width {} != header width {}",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if no rows were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table as right-aligned text.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(r[c].len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&fmt_row(r, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats a float with 3 significant decimals (table cells).
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a float with 1 decimal.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aligned_rendering() {
        let mut t = Table::new(&["a", "long-header"]);
        t.row(vec!["1".into(), "2".into()]);
        t.row(vec!["100".into(), "20000".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // All rows same width.
        assert_eq!(lines[0].len(), lines[2].len());
        assert_eq!(lines[2].len(), lines[3].len());
        assert!(lines[3].ends_with("20000"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new(&["only-one"]);
        t.row(vec!["a".into(), "b".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(f3(1.23456), "1.235");
        assert_eq!(f1(1.26), "1.3");
        assert!(Table::new(&["h"]).is_empty());
    }
}
