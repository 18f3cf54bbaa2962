//! # fa-bench
//!
//! Benchmark harness regenerating every table and figure of the
//! Flash-ABFT paper. Each experiment is a binary (see DESIGN.md's
//! experiment index):
//!
//! | binary | paper artifact |
//! |---|---|
//! | `fig4_area_power` | Fig. 4 — area & power with checker share |
//! | `table1_fault_detection` | Table I — single-fault detection accuracy |
//! | `multi_fault` | §IV-B — 1–5 faults per campaign |
//! | `threshold_sweep` | §IV-B — the 10⁻⁶ error bound determination |
//! | `overhead_report` | §I/III — fused vs two-step checking cost |
//!
//! Criterion benches (`cargo bench -p fa-bench`) measure kernel and
//! checker throughput: `attention_kernels`, `overhead`, `checksum`.

pub mod faults;
pub mod kernels;
pub mod serving;

/// Parses a report's JSON and asserts that each dotted key path in
/// `paths` resolves (a numeric segment indexes an array).
#[cfg(test)]
fn assert_paths(text: &str, paths: &[&str]) {
    let doc = fa_json::Json::parse(text).unwrap_or_else(|e| panic!("report JSON: {e}"));
    for path in paths {
        let mut at = &doc;
        for seg in path.split('.') {
            at = match seg.parse::<usize>() {
                Ok(i) => at.as_arr().and_then(|items| items.get(i)),
                Err(_) => at.get(seg),
            }
            .unwrap_or_else(|| panic!("no {path} in {text}"));
        }
    }
}

/// Simple fixed-width table printer for experiment reports.
pub struct TablePrinter {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TablePrinter {
    /// Creates a printer with column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        TablePrinter {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::from("|");
            for (cell, w) in cells.iter().zip(widths) {
                line.push_str(&format!(" {cell:w$} |"));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('|');
        for w in &widths {
            out.push_str(&format!("{:-<1$}|", "", w + 2));
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }
}

/// Parses `--quick` / `--campaigns N` style flags shared by the
/// experiment binaries. Returns the campaign count: `default_n`, reduced
/// to `quick_n` when `--quick` is present, or an explicit `--campaigns`.
pub fn campaign_count_from_args(default_n: usize, quick_n: usize) -> usize {
    let args: Vec<String> = std::env::args().collect();
    if let Some(pos) = args.iter().position(|a| a == "--campaigns") {
        if let Some(n) = args.get(pos + 1).and_then(|s| s.parse().ok()) {
            return n;
        }
    }
    if args.iter().any(|a| a == "--quick") {
        quick_n
    } else {
        default_n
    }
}

/// Whether a flag is present on the command line.
pub fn has_flag(flag: &str) -> bool {
    std::env::args().any(|a| a == flag)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = TablePrinter::new(vec!["name", "value"]);
        t.row(vec!["alpha", "1"]);
        t.row(vec!["b", "22222"]);
        let s = t.render();
        assert!(s.contains("| alpha | 1     |"));
        assert!(s.contains("| name  | value |"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines.iter().all(|l| l.len() == lines[0].len()));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_mismatch_panics() {
        let mut t = TablePrinter::new(vec!["a", "b"]);
        t.row(vec!["only one"]);
    }

    #[test]
    fn campaign_count_default() {
        // No flags in the test harness invocation: default applies.
        assert_eq!(campaign_count_from_args(500, 50), 500);
    }
}
