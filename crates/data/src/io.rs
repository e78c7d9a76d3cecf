//! Plain CSV import/export for datasets.
//!
//! The reproduction is self-contained (all datasets are generated), but a
//! downstream user will want to cluster their own data; this module reads
//! and writes the simplest possible interchange format: one point per line,
//! coordinates separated by commas, optional `#` comment lines, no header.

use std::io::{BufRead, BufWriter, Write};
use std::path::Path;

use crate::dataset::Dataset;

/// Errors from CSV parsing.
#[derive(Debug)]
pub enum CsvError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A non-numeric field, with its line number (1-based).
    BadField {
        /// 1-based line number of the offending field.
        line: usize,
        /// The raw field text.
        field: String,
    },
    /// A field that parses to NaN or an infinity (`NaN`, `inf`, `1e400`):
    /// no clustering of such a point exists.
    NonFinite {
        /// 1-based line number of the offending field.
        line: usize,
        /// 1-based column of the offending field.
        column: usize,
        /// The raw field text.
        field: String,
    },
    /// A row whose arity differs from the first row.
    RaggedRow {
        /// 1-based line number of the offending row.
        line: usize,
        /// Fields found on that row.
        found: usize,
        /// Fields expected (from the first data row).
        expected: usize,
    },
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsvError::Io(e) => write!(f, "I/O error: {e}"),
            CsvError::BadField { line, field } => {
                write!(f, "line {line}: cannot parse field '{field}' as a number")
            }
            CsvError::NonFinite {
                line,
                column,
                field,
            } => {
                write!(
                    f,
                    "line {line}, column {column}: '{field}' is not a finite number"
                )
            }
            CsvError::RaggedRow {
                line,
                found,
                expected,
            } => {
                write!(f, "line {line}: {found} fields, expected {expected}")
            }
        }
    }
}

impl std::error::Error for CsvError {}

impl From<std::io::Error> for CsvError {
    fn from(e: std::io::Error) -> Self {
        CsvError::Io(e)
    }
}

/// Parse a dataset from CSV text in a reader. Empty and `#`-prefixed lines
/// are skipped; the first data row fixes the dimensionality.
pub fn read_csv<R: BufRead>(reader: R) -> Result<Dataset, CsvError> {
    let mut coords = Vec::new();
    let mut dim = 0usize;
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let line_no = idx + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut count = 0usize;
        for field in trimmed.split(',') {
            let field = field.trim();
            let value: f64 = field.parse().map_err(|_| CsvError::BadField {
                line: line_no,
                field: field.to_owned(),
            })?;
            if !value.is_finite() {
                return Err(CsvError::NonFinite {
                    line: line_no,
                    column: count + 1,
                    field: field.to_owned(),
                });
            }
            coords.push(value);
            count += 1;
        }
        if dim == 0 {
            dim = count;
        } else if count != dim {
            return Err(CsvError::RaggedRow {
                line: line_no,
                found: count,
                expected: dim,
            });
        }
    }
    // every value was checked finite as it was parsed
    Ok(Dataset::from_finite_coords(coords, dim.max(1)))
}

/// Read a dataset from a CSV file on disk.
pub fn read_csv_file(path: impl AsRef<Path>) -> Result<Dataset, CsvError> {
    let file = std::fs::File::open(path)?;
    read_csv(std::io::BufReader::new(file))
}

/// Write a dataset as CSV to a writer, one point per line. If `labels` is
/// provided, it is appended as a final integer column.
///
/// # Panics
/// Panics if `labels` is provided with a length different from the dataset.
pub fn write_csv<W: Write>(
    writer: W,
    data: &Dataset,
    labels: Option<&[u32]>,
) -> std::io::Result<()> {
    if let Some(labels) = labels {
        assert_eq!(labels.len(), data.len(), "one label per point required");
    }
    let mut w = BufWriter::new(writer);
    for (i, p) in data.iter().enumerate() {
        for (d, x) in p.iter().enumerate() {
            if d > 0 {
                write!(w, ",")?;
            }
            write!(w, "{x}")?;
        }
        if let Some(labels) = labels {
            write!(w, ",{}", labels[i])?;
        }
        writeln!(w)?;
    }
    w.flush()
}

/// Write a dataset (and optional label column) to a CSV file on disk.
pub fn write_csv_file(
    path: impl AsRef<Path>,
    data: &Dataset,
    labels: Option<&[u32]>,
) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    write_csv(file, data, labels)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_through_memory() {
        let data = Dataset::from_coords(vec![1.0, 2.5, -3.0, 0.125], 2);
        let mut out = Vec::new();
        write_csv(&mut out, &data, None).unwrap();
        let back = read_csv(out.as_slice()).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn labels_appended_as_last_column() {
        let data = Dataset::from_coords(vec![1.0, 2.0], 2);
        let mut out = Vec::new();
        write_csv(&mut out, &data, Some(&[7])).unwrap();
        assert_eq!(String::from_utf8(out).unwrap(), "1,2,7\n");
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let text = "# a comment\n\n1,2\n# another\n3,4\n";
        let data = read_csv(text.as_bytes()).unwrap();
        assert_eq!(data.len(), 2);
        assert_eq!(data.point(1), &[3.0, 4.0]);
    }

    #[test]
    fn bad_field_is_reported_with_line() {
        let err = read_csv("1,2\n3,oops\n".as_bytes()).unwrap_err();
        match err {
            CsvError::BadField { line, field } => {
                assert_eq!(line, 2);
                assert_eq!(field, "oops");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn non_finite_fields_are_reported_with_line_and_column() {
        for (text, column, field) in [
            ("1,2\n3,NaN\n", 2, "NaN"),
            ("1,2\n-inf,4\n", 1, "-inf"),
            ("1,2\n3,1e400\n", 2, "1e400"),
        ] {
            match read_csv(text.as_bytes()).unwrap_err() {
                CsvError::NonFinite {
                    line,
                    column: c,
                    field: f,
                } => assert_eq!((line, c, f.as_str()), (2, column, field), "{text:?}"),
                other => panic!("unexpected error {other:?}"),
            }
        }
    }

    #[test]
    fn ragged_row_is_reported() {
        let err = read_csv("1,2\n3\n".as_bytes()).unwrap_err();
        match err {
            CsvError::RaggedRow {
                line,
                found,
                expected,
            } => {
                assert_eq!((line, found, expected), (2, 1, 2));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn empty_input_yields_empty_dataset() {
        let data = read_csv("".as_bytes()).unwrap();
        assert!(data.is_empty());
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("egg_data_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("points.csv");
        let data = Dataset::from_coords(vec![0.5, 0.25, 0.75, 1.0], 2);
        write_csv_file(&path, &data, Some(&[0, 1])).unwrap();
        let back = read_csv_file(&path).unwrap();
        assert_eq!(back.dim(), 3); // label column parses as a coordinate
        assert_eq!(back.len(), 2);
        std::fs::remove_file(&path).ok();
    }
}
