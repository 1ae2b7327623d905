//! Tables: the one shape the experiment binaries print.
//!
//! Every result — a figure's series ([`Figure::table`](crate::Figure::table)),
//! a summary comparison, an ablation, a sweep — is a [`Table`] of
//! pre-formatted cells, rendered as aligned text (for the terminal and
//! EXPERIMENTS.md) or as CSV from the same cells.

/// Column headers over rows of pre-formatted cells.
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

    /// Renders the table as CSV: the header line, then one line per row,
    /// holding the same cells as [`Table::render`]. A cell holding a comma,
    /// a double quote or a line break is quoted, its quotes doubled.
    pub fn csv(&self) -> String {
        let field = |cell: &String| {
            let quoted = cell.contains([',', '"', '\n', '\r']);
            if quoted { format!("\"{}\"", cell.replace('"', "\"\"")) } else { cell.clone() }
        };
        let line = |cells: &Vec<String>| cells.iter().map(field).collect::<Vec<_>>().join(",") + "\n";
        std::iter::once(&self.headers).chain(&self.rows).map(line).collect()
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

    /// The CSV holds exactly the headers and cells `render` aligns, one
    /// line each, in the same order.
    #[test]
    fn csv_lists_the_cells_render_aligns() {
        let table = sample();
        let (csv, rendered) = (table.csv(), table.render());
        let aligned: Vec<&str> = rendered.lines().filter(|line| !line.starts_with('-')).collect();
        let lines: Vec<&Vec<String>> = std::iter::once(&table.headers).chain(&table.rows).collect();
        assert_eq!(csv.lines().count(), lines.len());
        assert_eq!(aligned.len(), lines.len());
        for ((csv_line, aligned_line), cells) in csv.lines().zip(aligned).zip(lines) {
            assert_eq!(csv_line, cells.join(","));
            let words: Vec<&str> =
                aligned_line.split("  ").map(str::trim).filter(|w| !w.is_empty()).collect();
            assert_eq!(words, *cells);
        }
    }

    #[test]
    fn csv_quotes_cells_holding_a_separator() {
        let mut t = Table::new(["claim", "value"]);
        t.push_row(["traffic, search only", "85.4%"]);
        t.push_row(["the \"paper\" says", "line\nbreak"]);
        assert_eq!(
            t.csv(),
            "claim,value\n\"traffic, search only\",85.4%\n\"the \"\"paper\"\" says\",\"line\nbreak\"\n"
        );
        assert_eq!(Table::new(["x"]).csv(), "x\n");
    }

    #[test]
    fn empty_table_renders_headers_only() {
        let t = Table::new(["x", "y"]);
        assert!(t.is_empty());
        let rendered = t.render();
        assert_eq!(rendered.lines().count(), 2);
    }
}
