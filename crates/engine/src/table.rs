//! Paper-style table rendering.
//!
//! The bench harness prints every reproduced table/figure as an aligned
//! ASCII table plus a machine-readable CSV line per row, so results can
//! be both eyeballed and post-processed.

use std::fmt::Write as _;

/// A simple column-aligned table builder.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row. Shorter rows are padded with empty cells; longer
    /// rows panic, because that is always a harness bug.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert!(
            cells.len() <= self.headers.len(),
            "row has {} cells but table '{}' has {} columns",
            cells.len(),
            self.title,
            self.headers.len()
        );
        let mut r = cells.to_vec();
        r.resize(self.headers.len(), String::new());
        self.rows.push(r);
        self
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render as an aligned ASCII table.
    pub fn render(&self) -> String {
        let ncol = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let total: usize = widths.iter().sum::<usize>() + 3 * ncol + 1;
        let _ = writeln!(out, "{}", "=".repeat(total));
        let _ = writeln!(out, "{}", self.title);
        let _ = writeln!(out, "{}", "-".repeat(total));
        let mut line = String::new();
        for (h, w) in self.headers.iter().zip(&widths) {
            let _ = write!(line, "| {h:<w$} ");
        }
        line.push('|');
        let _ = writeln!(out, "{line}");
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let mut line = String::new();
            for (c, w) in row.iter().zip(&widths) {
                let _ = write!(line, "| {c:<w$} ");
            }
            line.push('|');
            let _ = writeln!(out, "{line}");
        }
        let _ = writeln!(out, "{}", "=".repeat(total));
        out
    }

    /// Render as CSV (header line + rows), suitable for plotting.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", csv_row(&self.headers));
        for row in &self.rows {
            let _ = writeln!(out, "{}", csv_row(row));
        }
        out
    }
}

/// Join cells into a CSV line, quoting cells that contain separators.
pub fn csv_row<S: AsRef<str>>(cells: &[S]) -> String {
    cells
        .iter()
        .map(|c| {
            let c = c.as_ref();
            if c.contains(',') || c.contains('"') || c.contains('\n') {
                format!("\"{}\"", c.replace('"', "\"\""))
            } else {
                c.to_string()
            }
        })
        .collect::<Vec<_>>()
        .join(",")
}

/// Format a float with a sensible number of digits for tables.
pub fn fnum(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else if x.abs() >= 1000.0 {
        format!("{x:.0}")
    } else if x.abs() >= 10.0 {
        format!("{x:.1}")
    } else if x.abs() >= 0.1 {
        format!("{x:.2}")
    } else {
        format!("{x:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("T", &["a", "bbbb"]);
        t.row(&["x".into(), "1".into()]);
        t.row(&["yyyy".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains("| x    | 1    |"));
        assert!(s.contains("| yyyy | 2    |"));
        assert!(s.contains("T\n"));
    }

    #[test]
    fn pads_short_rows() {
        let mut t = Table::new("T", &["a", "b", "c"]);
        t.row(&["1".into()]);
        assert!(t.render().contains("| 1 |"));
    }

    #[test]
    #[should_panic(expected = "has 3 columns")]
    fn rejects_long_rows() {
        let mut t = Table::new("T", &["a", "b", "c"]);
        t.row(&["1".into(), "2".into(), "3".into(), "4".into()]);
    }

    #[test]
    fn csv_quotes_specials() {
        assert_eq!(csv_row(&["a", "b,c", "d\"e"]), "a,\"b,c\",\"d\"\"e\"");
    }

    #[test]
    fn csv_roundtrip_shape() {
        let mut t = Table::new("T", &["h1", "h2"]);
        t.row(&["1".into(), "2".into()]);
        let csv = t.to_csv();
        let lines: Vec<_> = csv.lines().collect();
        assert_eq!(lines, vec!["h1,h2", "1,2"]);
    }

    #[test]
    fn fnum_ranges() {
        assert_eq!(fnum(0.0), "0");
        assert_eq!(fnum(12345.6), "12346");
        assert_eq!(fnum(12.34), "12.3");
        assert_eq!(fnum(1.234), "1.23");
        assert_eq!(fnum(0.01234), "0.0123");
    }
}
