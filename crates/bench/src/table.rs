//! Minimal aligned-text table rendering (no serde_json offline, so the
//! harness emits plain text and CSV itself).

use std::fmt::Write as _;

/// A simple table: headers plus string rows.
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line: String = widths.iter().map(|w| "-".repeat(w + 2)).collect();
        let mut hdr = String::new();
        for (w, h) in widths.iter().zip(&self.headers) {
            let _ = write!(hdr, " {h:>w$} ");
        }
        let _ = writeln!(out, "{hdr}");
        let _ = writeln!(out, "{line}");
        for row in &self.rows {
            let mut r = String::new();
            for (w, cell) in widths.iter().zip(row) {
                let _ = write!(r, " {cell:>w$} ");
            }
            let _ = writeln!(out, "{r}");
        }
        out
    }

    /// Render as CSV (for plotting).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.headers.join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join(","));
        }
        out
    }

    /// This table's cells as long-format CSV lines
    /// `name,row,column,value`, where a row is named by its first cell.
    fn long_csv_lines(&self, name: &str, out: &mut String) {
        for row in &self.rows {
            for (h, cell) in self.headers.iter().zip(row).skip(1) {
                let _ = writeln!(out, "{name},{},{h},{cell}", row[0]);
            }
        }
    }

    /// Print the table and, if `csv_path` is set, also write the CSV.
    pub fn emit(&self, csv_path: Option<&str>) {
        print!("{}", self.render());
        if let Some(path) = csv_path {
            std::fs::write(path, self.to_csv()).expect("write csv");
            println!("(csv written to {path})");
        }
        println!();
    }
}

/// Several named tables as one long-format CSV with the header
/// `table,row,column,value`.
pub fn long_csv(tables: &[(&str, Table)]) -> String {
    let mut out = String::from("table,row,column,value\n");
    for (name, t) in tables {
        t.long_csv_lines(name, &mut out);
    }
    out
}

/// Format a byte count the way the paper's axes do (64kB, 1MB, 16MB).
pub fn fmt_size(bytes: u64) -> String {
    if bytes >= 1 << 20 {
        format!("{}MiB", bytes >> 20)
    } else if bytes >= 1 << 10 {
        format!("{}KiB", bytes >> 10)
    } else {
        format!("{bytes}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("demo", &["size", "MiB/s"]);
        t.row(vec!["64KiB".into(), "650.1".into()]);
        t.row(vec!["16MiB".into(), "955.0".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("64KiB"));
        let csv = t.to_csv();
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.starts_with("size,MiB/s"));
    }

    #[test]
    fn long_csv_has_one_line_per_value_cell() {
        let mut t = Table::new("demo", &["size", "a", "b"]);
        t.row(vec!["64KiB".into(), "1".into(), "2".into()]);
        let csv = long_csv(&[("demo", t)]);
        assert_eq!(
            csv,
            "table,row,column,value\ndemo,64KiB,a,1\ndemo,64KiB,b,2\n"
        );
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["x".into()]);
    }

    #[test]
    fn size_formatting() {
        assert_eq!(fmt_size(64 * 1024), "64KiB");
        assert_eq!(fmt_size(16 << 20), "16MiB");
        assert_eq!(fmt_size(100), "100B");
    }
}
