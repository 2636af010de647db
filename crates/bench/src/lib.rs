//! Shared helpers for the experiment harness.
//!
//! Each `table_*` binary regenerates one experiment from DESIGN.md's
//! index (E1–E14), printing the rows the paper's evaluation would have
//! tabulated. The `benches/` directory holds the matching Criterion
//! performance benchmarks, and [`gate`] implements the JSON regression
//! gate the `bench_gate` binary applies against `BENCH_10.json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gate;

/// A fixed-width console table writer.
#[derive(Debug)]
pub struct Table {
    widths: Vec<usize>,
}

impl Table {
    /// Creates a table and prints the header row.
    pub fn new(headers: &[(&str, usize)]) -> Self {
        let widths: Vec<usize> = headers.iter().map(|(_, w)| *w).collect();
        let mut line = String::new();
        for ((h, _), w) in headers.iter().zip(&widths) {
            line.push_str(&format!("{h:>w$}  "));
        }
        println!("{line}");
        println!("{}", "-".repeat(line.len().min(120)));
        Table { widths }
    }

    /// Prints one data row (cells are pre-formatted strings).
    pub fn row(&self, cells: &[String]) {
        let mut line = String::new();
        for (c, w) in cells.iter().zip(&self.widths) {
            line.push_str(&format!("{c:>w$}  "));
        }
        println!("{line}");
    }
}

/// Formats a float with engineering-style precision for tables.
pub fn fmt(v: f64) -> String {
    if v == 0.0 {
        "0".to_owned()
    } else if v.abs() >= 1e5 || v.abs() < 1e-3 {
        format!("{v:.2e}")
    } else {
        format!("{v:.4}")
    }
}

/// Prints an experiment banner.
pub fn banner(id: &str, title: &str, anchor: &str) {
    println!();
    println!("=== {id}: {title}");
    println!("    paper anchor: {anchor}");
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_ranges() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(1.0), "1.0000");
        assert_eq!(fmt(1e6), "1.00e6");
        assert_eq!(fmt(1e-6), "1.00e-6");
    }
}
