//! Plain-text table and series rendering for the experiment reports.
//!
//! Every experiment prints the same rows/series the paper's tables and
//! figures report; this module keeps the formatting in one place.

/// A simple left-aligned text table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with a title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Table {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (cells are pre-formatted strings).
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        self.rows.push(cells.to_vec());
        self
    }

    /// Append a row of string slices.
    pub fn row_str(&mut self, cells: &[&str]) -> &mut Self {
        self.rows
            .push(cells.iter().map(|s| s.to_string()).collect());
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether there are no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render to a string.
    pub fn render(&self) -> String {
        let cols = self
            .headers
            .len()
            .max(self.rows.iter().map(|r| r.len()).max().unwrap_or(0));
        let mut widths = vec![0usize; cols];
        for (i, h) in self.headers.iter().enumerate() {
            widths[i] = widths[i].max(h.len());
        }
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, w) in widths.iter().enumerate() {
                let cell = cells.get(i).map(|s| s.as_str()).unwrap_or("");
                line.push_str(&format!("{cell:<w$}"));
                if i + 1 < widths.len() {
                    line.push_str("  ");
                }
            }
            line.trim_end().to_string()
        };
        if !self.headers.is_empty() {
            out.push_str(&fmt_row(&self.headers, &widths));
            out.push('\n');
            out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
            out.push('\n');
        }
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Render a `(x, y)` series (e.g. a CDF) as aligned two-column text.
pub fn render_series(title: &str, x_label: &str, y_label: &str, series: &[(f64, f64)]) -> String {
    let mut out = format!("== {title} ==\n{x_label:>12}  {y_label}\n");
    for (x, y) in series {
        out.push_str(&format!("{x:>12.3}  {y:.4}\n"));
    }
    out
}

/// Format a float with `digits` decimals — the standard cell formatter.
pub fn num(v: f64, digits: usize) -> String {
    format!("{v:.digits$}")
}

/// Format a ratio as a percentage with one decimal.
pub fn pct(ratio: f64) -> String {
    format!("{:.1}%", ratio * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("Demo", &["City", "# GS", "Traces"]);
        t.row_str(&["HK", "6", "31330"]);
        t.row_str(&["Pittsburgh", "3", "15612"]);
        let s = t.render();
        assert!(s.contains("== Demo =="));
        assert!(s.contains("City"));
        // Column alignment: both data rows have the numbers starting at
        // the same offset.
        let lines: Vec<&str> = s.lines().collect();
        let hk = lines.iter().find(|l| l.starts_with("HK")).unwrap();
        let pgh = lines.iter().find(|l| l.starts_with("Pittsburgh")).unwrap();
        assert_eq!(hk.find("31330").unwrap(), pgh.find("15612").unwrap());
    }

    #[test]
    fn empty_table_renders_headers_only() {
        let t = Table::new("Empty", &["A", "B"]);
        assert!(t.is_empty());
        let s = t.render();
        assert!(s.contains("A"));
        assert_eq!(s.lines().count(), 3); // Title, header, rule.
    }

    #[test]
    fn series_renders_every_point() {
        let s = render_series("CDF", "latency", "P", &[(1.0, 0.5), (2.0, 1.0)]);
        assert_eq!(s.lines().count(), 4);
        assert!(s.contains("1.000"));
        assert!(s.contains("0.5000"));
    }

    #[test]
    fn formatters() {
        assert_eq!(num(3.85642, 2), "3.86");
        assert_eq!(pct(0.914), "91.4%");
        assert_eq!(pct(1.0), "100.0%");
    }

    #[test]
    fn ragged_rows_are_tolerated() {
        let mut t = Table::new("Ragged", &["A", "B"]);
        t.row_str(&["only-one"]);
        t.row_str(&["x", "y"]);
        let s = t.render();
        assert!(s.contains("only-one"));
        assert_eq!(t.len(), 2);
    }
}
