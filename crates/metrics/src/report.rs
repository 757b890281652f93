//! Plain-text table rendering for the experiment binaries.
//!
//! Every `fig*` / `table*` binary in `qoserve-bench` prints its results as
//! aligned text tables so paper-vs-measured comparison is a diff away.

use std::fmt;

/// A simple fixed-width text table.
///
/// # Example
///
/// ```
/// use qoserve_metrics::Table;
///
/// let mut t = Table::new(vec!["scheme", "goodput"]);
/// t.row(vec!["Sarathi-FCFS".into(), "1.8".into()]);
/// t.row(vec!["QoServe".into(), "4.3".into()]);
/// let text = t.to_string();
/// assert!(text.contains("QoServe"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(headers: I) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row. Short rows are padded with empty cells; extra
    /// cells are kept (the table widens).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    fn column_count(&self) -> usize {
        self.rows
            .iter()
            .map(Vec::len)
            .chain(std::iter::once(self.headers.len()))
            .max()
            .unwrap_or(0)
    }

    fn widths(&self) -> Vec<usize> {
        let cols = self.column_count();
        let mut widths = vec![0usize; cols];
        for (i, h) in self.headers.iter().enumerate() {
            widths[i] = widths[i].max(h.chars().count());
        }
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        widths
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let widths = self.widths();
        let write_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            let mut parts = Vec::with_capacity(widths.len());
            for (i, w) in widths.iter().enumerate() {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                parts.push(format!("{cell:<w$}"));
            }
            writeln!(f, "| {} |", parts.join(" | "))
        };

        write_row(f, &self.headers)?;
        let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        writeln!(f, "|-{}-|", rule.join("-|-"))?;
        for row in &self.rows {
            write_row(f, row)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(vec!["a", "longer-header"]);
        t.row(vec!["x".into(), "1".into()]);
        t.row(vec!["yyyyyy".into(), "2".into()]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // All lines have equal width.
        let width = lines[0].chars().count();
        assert!(lines.iter().all(|l| l.chars().count() == width));
        assert!(lines[0].contains("longer-header"));
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = Table::new(vec!["a", "b", "c"]);
        t.row(vec!["only-one".into()]);
        let s = t.to_string();
        assert!(s.contains("only-one"));
        assert_eq!(s.lines().count(), 3);
    }

    #[test]
    fn wide_rows_extend_table() {
        let mut t = Table::new(vec!["a"]);
        t.row(vec!["1".into(), "2".into(), "3".into()]);
        let s = t.to_string();
        assert!(s.contains("3"));
    }

    #[test]
    fn len_and_empty() {
        let mut t = Table::new(vec!["a"]);
        assert!(t.is_empty());
        t.row(vec!["1".into()]);
        assert_eq!(t.len(), 1);
    }
}
