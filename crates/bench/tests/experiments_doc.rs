//! EXPERIMENTS.md's counter cells are what `bench::experiments` computes.
//!
//! Every table in the document follows an `<!-- experiments: NAME -->`
//! marker. The test finds each one, checks its header and row count,
//! and compares every counter cell with the computed table; time cells
//! are skipped. A release build runs the searches of a million
//! transitions or more as well; a debug build checks those rows' count
//! only.

use bench::{experiments, Cell};

const DOC: &str = include_str!("../../../EXPERIMENTS.md");
const MARKER: &str = "<!-- experiments: ";

/// Each marked table of the document: its name and its table lines.
fn doc_tables() -> Vec<(&'static str, Vec<&'static str>)> {
    let mut tables = Vec::new();
    let mut lines = DOC.lines().peekable();
    while let Some(line) = lines.next() {
        if let Some(name) = line.strip_prefix(MARKER) {
            let name = name.strip_suffix(" -->").expect("a marker ends in `-->`");
            let mut body = Vec::new();
            while let Some(next) = lines.next_if(|l| l.starts_with('|')) {
                body.push(next);
            }
            tables.push((name, body));
        }
    }
    tables
}

fn cells(line: &str) -> Vec<&str> {
    let inner = line.trim().trim_start_matches('|').trim_end_matches('|');
    inner.split('|').map(str::trim).collect()
}

#[test]
fn every_counter_cell_of_experiments_md_is_computed() {
    let computed = experiments(!cfg!(debug_assertions)).tables;
    let doc = doc_tables();
    let names = |v: Vec<&str>| v.join(", ");
    assert_eq!(
        names(doc.iter().map(|(n, _)| *n).collect()),
        names(computed.iter().map(|t| t.name).collect()),
        "EXPERIMENTS.md's marked tables are not the computed ones"
    );
    for ((name, lines), table) in doc.iter().zip(&computed) {
        assert_eq!(cells(lines[0]), table.header, "{name}: header");
        assert_eq!(lines.len() - 2, table.rows.len(), "{name}: row count");
        for (i, (line, row)) in lines[2..].iter().zip(&table.rows).enumerate() {
            let Some(row) = row else { continue };
            let doc_cells = cells(line);
            assert_eq!(
                doc_cells.len(),
                row.len(),
                "{name} row {}: cell count",
                i + 1
            );
            for (j, (doc_cell, cell)) in doc_cells.iter().zip(row).enumerate() {
                if let Cell::Count(value) = cell {
                    assert_eq!(
                        doc_cell,
                        value,
                        "{name} row {} column `{}`",
                        i + 1,
                        table.header[j]
                    );
                }
            }
        }
    }
}
