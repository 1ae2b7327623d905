//! Plain-text tables.
//!
//! The experiment binaries print their results as aligned tables (for the
//! terminal and EXPERIMENTS.md); figures render their own CSV. [`Table`]
//! is a tiny column-aligned table builder used for anything that is not a
//! per-figure series (parameter listings, summary comparisons, ablations).

/// A simple column-aligned table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<I, S>(headers: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row. Rows shorter than the header are padded with empty cells;
    /// longer rows are truncated to the header width.
    pub fn push_row<I, S>(&mut self, cells: I)
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        row.resize(self.headers.len(), String::new());
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Column headers.
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// Data rows.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        format_table(&self.headers, &self.rows)
    }
}

/// Formats headers and rows as an aligned text table.
fn format_table(headers: &[String], rows: &[Vec<String>]) -> String {
    let columns = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(columns) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let render_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate().take(widths.len()) {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{:<width$}", cell, width = widths[i]));
        }
        line.trim_end().to_string()
    };
    out.push_str(&render_row(headers, &widths));
    out.push('\n');
    let separator: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    out.push_str(&render_row(&separator, &widths));
    out.push('\n');
    for row in rows {
        out.push_str(&render_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new(["protocol", "success rate", "messages"]);
        t.push_row(["locaware", "0.82", "14.2"]);
        t.push_row(["flooding", "0.97", "803.1"]);
        t
    }

    #[test]
    fn rows_are_padded_and_truncated() {
        let mut t = Table::new(["a", "b"]);
        t.push_row(["1"]);
        t.push_row(["1", "2", "3"]);
        assert_eq!(t.rows()[0], vec!["1".to_string(), String::new()]);
        assert_eq!(t.rows()[1], vec!["1".to_string(), "2".to_string()]);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn rendering_aligns_columns() {
        let rendered = sample().render();
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("protocol"));
        assert!(lines[1].starts_with("--------"));
        // Columns align: "success rate" column starts at the same offset everywhere.
        let offset = lines[0].find("success rate").unwrap();
        assert_eq!(lines[2].find("0.82").unwrap(), offset);
        assert_eq!(lines[3].find("0.97").unwrap(), offset);
    }

    #[test]
    fn empty_table_renders_headers_only() {
        let t = Table::new(["x", "y"]);
        assert!(t.is_empty());
        let rendered = t.render();
        assert_eq!(rendered.lines().count(), 2);
    }
}
