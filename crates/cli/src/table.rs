//! Minimal table printing + CSV output for the experiment harness.

use std::fs::File;
use std::io::Write;
use std::path::Path;

/// Accumulates rows, prints an aligned table, writes a CSV.
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with a title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Self::new_owned(title, headers.iter().map(|s| s.to_string()).collect())
    }

    /// New table with owned headers (for dynamically built columns).
    pub fn new_owned(title: &str, headers: Vec<String>) -> Self {
        Self {
            title: title.to_string(),
            headers,
            rows: Vec::new(),
        }
    }

    /// New table whose header row comes from its first
    /// [`Table::row_keyed`] call.
    pub fn keyed(title: &str) -> Self {
        Self::new_owned(title, Vec::new())
    }

    /// Append one row of `(header, cell)` pairs, so each column is named
    /// where its value is produced. The first row fixes the header; every
    /// later row must name the same columns in the same order.
    pub fn row_keyed(&mut self, cells: Vec<(&str, String)>) {
        let (headers, cells): (Vec<String>, Vec<String>) =
            cells.into_iter().map(|(h, c)| (h.to_string(), c)).unzip();
        if self.rows.is_empty() {
            self.headers = headers;
        } else {
            assert_eq!(headers, self.headers, "keyed row names other columns");
        }
        self.rows.push(cells);
    }

    /// Append one row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells);
    }

    /// Print aligned to stdout.
    pub fn print(&self) {
        println!("\n== {} ==", self.title);
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        println!("{}", fmt_row(&self.headers));
        println!(
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
        );
        for row in &self.rows {
            println!("{}", fmt_row(row));
        }
    }

    /// Write as CSV to `dir/name.csv`.
    pub fn write_csv(&self, dir: &str, name: &str) {
        let path = Path::new(dir).join(format!("{name}.csv"));
        let mut f = File::create(&path).expect("create csv");
        writeln!(f, "{}", self.headers.join(",")).unwrap();
        for row in &self.rows {
            writeln!(f, "{}", row.join(",")).unwrap();
        }
        eprintln!("[wrote {}]", path.display());
    }
}

/// Format seconds human-readably.
pub fn fmt_secs(s: f64) -> String {
    if s < 60.0 {
        format!("{s:.1}s")
    } else if s < 3_600.0 {
        format!("{:.1}min", s / 60.0)
    } else if s < 86_400.0 {
        format!("{:.1}h", s / 3_600.0)
    } else {
        format!("{:.1}d", s / 86_400.0)
    }
}
