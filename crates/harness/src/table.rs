//! The one table every `anoc run` target prints.
//!
//! A [`Table`] holds a title, the literal text header, typed columns, rows
//! of typed cells and trailing note lines. It has one writer per output
//! format: [`Table::text`] pads each cell to its column's width and
//! precision, [`Table::csv`] and [`Table::json`] print each cell at its
//! column's data precision, keyed by the column name. A sweep point that
//! failed leaves its measured cells [`Cell::Empty`].

use std::fmt::Write;

/// The output format of `anoc run`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// The padded text table.
    Text,
    /// CSV with a header row.
    Csv,
    /// `{"study":…,"rows":[…]}` with one object per CSV row.
    Json,
}

/// One value of a table row.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// No value: the sweep point failed.
    Empty,
    /// A count or a setting.
    Int(u64),
    /// A measurement.
    Float(f64),
    /// A name or a marker.
    Text(String),
    /// A verdict.
    Bool(bool),
}

impl From<u64> for Cell {
    fn from(v: u64) -> Self {
        Cell::Int(v)
    }
}

impl From<u32> for Cell {
    fn from(v: u32) -> Self {
        Cell::Int(v.into())
    }
}

impl From<f64> for Cell {
    fn from(v: f64) -> Self {
        Cell::Float(v)
    }
}

impl From<&str> for Cell {
    fn from(v: &str) -> Self {
        Cell::Text(v.to_string())
    }
}

impl From<bool> for Cell {
    fn from(v: bool) -> Self {
        Cell::Bool(v)
    }
}

/// How a column prints in the text table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// Left-aligned in `width` characters.
    Left(usize),
    /// Right-aligned in `width` characters, a float with `precision`
    /// decimals.
    Right(usize, usize),
    /// Not printed in the text table.
    Hidden,
}

/// One column of a [`Table`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Column {
    /// CSV header and JSON key; empty for a column only the text table
    /// prints.
    pub key: &'static str,
    /// Text layout.
    pub layout: Layout,
    /// Decimals of a float in CSV and JSON; `None` prints the shortest form
    /// that reads back to the same `f64`.
    pub precision: Option<usize>,
}

/// A column printed by every writer.
pub const fn col(key: &'static str, layout: Layout, precision: Option<usize>) -> Column {
    Column {
        key,
        layout,
        precision,
    }
}

/// A column only the text table prints.
pub const fn text_only(layout: Layout) -> Column {
    col("", layout, None)
}

/// A column only CSV and JSON carry.
pub const fn data_only(key: &'static str, precision: Option<usize>) -> Column {
    col(key, Layout::Hidden, precision)
}

/// What the text table prints after the leading cells of a failed point.
const FAILED_ROW: &str = "     failed (see below)";

/// A titled table of typed cells with text, CSV and JSON writers.
#[derive(Debug)]
pub struct Table {
    study: String,
    title: String,
    header: String,
    columns: Vec<Column>,
    rows: Vec<Vec<Cell>>,
    notes: Vec<String>,
}

impl Table {
    /// An empty table: `study` names it in JSON, `title` and `header` are the
    /// first two lines of its text form.
    pub fn new(
        study: &str,
        title: impl Into<String>,
        header: impl Into<String>,
        columns: &[Column],
    ) -> Self {
        Table {
            study: study.to_string(),
            title: title.into(),
            header: header.into(),
            columns: columns.to_vec(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// A table that only CSV and JSON print: every column is
    /// [`data_only`], and there is no title, header or text form.
    pub fn data(study: &str, columns: &[Column]) -> Self {
        Table::new(study, "", "", columns)
    }

    /// Appends a row with one cell per column.
    pub fn row(&mut self, cells: Vec<Cell>) {
        assert_eq!(cells.len(), self.columns.len(), "one cell per column");
        self.rows.push(cells);
    }

    /// Appends a line the text table prints after its rows.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// The table in `format`.
    pub fn render(&self, format: Format) -> String {
        match format {
            Format::Text => self.text(),
            Format::Csv => self.csv(),
            Format::Json => self.json(),
        }
    }

    /// The text table: title, header, one padded line per row (a failed
    /// point prints its leading cells and a pointer to the notes), then the
    /// notes.
    pub fn text(&self) -> String {
        debug_assert!(!self.title.is_empty(), "a data table has no text form");
        let mut out = format!("{}\n{}\n", self.title, self.header);
        for row in &self.rows {
            let mut first = true;
            for (column, cell) in self.columns.iter().zip(row) {
                if *cell == Cell::Empty {
                    out.push_str(FAILED_ROW);
                    break;
                }
                if column.layout == Layout::Hidden {
                    continue;
                }
                if !first {
                    out.push(' ');
                }
                first = false;
                let _ = match (column.layout, cell) {
                    (Layout::Left(w), Cell::Text(s)) => write!(out, "{s:<w$}"),
                    (Layout::Right(w, _), Cell::Text(s)) => write!(out, "{s:>w$}"),
                    (Layout::Right(w, p), Cell::Float(v)) => write!(out, "{v:>w$.p$}"),
                    (Layout::Right(w, _), Cell::Int(v)) => write!(out, "{v:>w$}"),
                    (_, cell) => write!(out, "{}", cell_data(cell, None)),
                };
            }
            out.push('\n');
        }
        for note in &self.notes {
            out.push_str(note);
            out.push('\n');
        }
        out
    }

    /// The data columns with their cell index.
    fn data_columns(&self) -> impl Iterator<Item = (usize, &Column)> {
        self.columns
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.key.is_empty())
    }

    /// The CSV form: a header of column keys, then one line per row; a
    /// failed point leaves its measured fields empty.
    pub fn csv(&self) -> String {
        let keys: Vec<&str> = self.data_columns().map(|(_, c)| c.key).collect();
        let mut out = keys.join(",");
        out.push('\n');
        for row in &self.rows {
            let fields: Vec<String> = self
                .data_columns()
                .map(|(i, c)| cell_data(&row[i], c.precision))
                .collect();
            out.push_str(&fields.join(","));
            out.push('\n');
        }
        out
    }

    /// The JSON form: `{"study":…,"rows":[…]}` with one object per CSV row,
    /// keyed by the CSV header, at the CSV precisions. Empty cells and
    /// non-finite floats are `null`.
    pub fn json(&self) -> String {
        let mut out = format!("{{\"study\":{},\"rows\":[", json_string(&self.study));
        for (n, row) in self.rows.iter().enumerate() {
            if n > 0 {
                out.push(',');
            }
            let fields: Vec<String> = self
                .data_columns()
                .map(|(i, c)| {
                    let value = match &row[i] {
                        Cell::Text(s) => json_string(s),
                        Cell::Float(v) if !v.is_finite() => "null".into(),
                        Cell::Empty => "null".into(),
                        cell => cell_data(cell, c.precision),
                    };
                    format!("{}:{value}", json_string(c.key))
                })
                .collect();
            out.push_str("\n  {");
            out.push_str(&fields.join(","));
            out.push('}');
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
impl Table {
    /// The cells of the column keyed `key`, one per row.
    pub(crate) fn cells(&self, key: &str) -> Vec<&Cell> {
        let i = self.columns.iter().position(|c| c.key == key);
        let i = i.unwrap_or_else(|| panic!("no column {key}"));
        self.rows.iter().map(|row| &row[i]).collect()
    }
}

/// A cell as CSV prints it: floats at `precision` decimals, or in their
/// shortest exact form without one.
fn cell_data(cell: &Cell, precision: Option<usize>) -> String {
    match (cell, precision) {
        (Cell::Empty, _) => String::new(),
        (Cell::Int(v), _) => v.to_string(),
        (Cell::Float(v), Some(p)) => format!("{v:.p$}"),
        (Cell::Float(v), None) => v.to_string(),
        (Cell::Text(s), _) => s.clone(),
        (Cell::Bool(b), _) => b.to_string(),
    }
}

/// `s` as a JSON string literal. Names and markers hold no control
/// characters, so only quotes and backslashes need escaping.
fn json_string(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep() -> Table {
        let mut t = Table::new(
            "sweep",
            "A sweep",
            "rate  name     value  ok",
            &[
                col("rate", Layout::Right(4, 0), None),
                col("name", Layout::Left(6), None),
                col("value", Layout::Right(7, 2), Some(3)),
                data_only("ok", None),
            ],
        );
        t.row(vec![5u32.into(), "a\"b".into(), 1.25.into(), true.into()]);
        t.row(vec![
            10u32.into(),
            "c".into(),
            f64::NAN.into(),
            false.into(),
        ]);
        t.row(vec![20u32.into(), "d".into(), Cell::Empty, Cell::Empty]);
        t.note("note");
        t
    }

    #[test]
    fn text_pads_cells_and_marks_failed_points() {
        assert_eq!(
            sweep().text(),
            "A sweep\nrate  name     value  ok\n   5 a\"b       1.25\n  10 c          NaN\n  20 d          failed (see below)\nnote\n"
        );
    }

    #[test]
    fn csv_and_json_share_keys_and_precisions() {
        let t = sweep();
        assert_eq!(
            t.csv(),
            "rate,name,value,ok\n5,a\"b,1.250,true\n10,c,NaN,false\n20,d,,\n"
        );
        assert_eq!(
            t.json(),
            "{\"study\":\"sweep\",\"rows\":[\n  {\"rate\":5,\"name\":\"a\\\"b\",\"value\":1.250,\"ok\":true},\n  {\"rate\":10,\"name\":\"c\",\"value\":null,\"ok\":false},\n  {\"rate\":20,\"name\":\"d\",\"value\":null,\"ok\":null}\n]}\n"
        );
        assert_eq!(t.render(Format::Csv), t.csv());
    }
}
