//! Plain-text output shared by every experiment row: fixed-width tables,
//! appended to the row's `String`, and number formats.

/// Append a titled table: a header row and data rows, columns padded to the
/// widest cell. Output is plain text that reads well in a terminal and
/// pastes cleanly into EXPERIMENTS.md.
pub fn table(out: &mut String, title: &str, headers: &[&str], rows: &[Vec<String>]) {
    out.push_str(&format!("\n== {title} ==\n"));
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "row width mismatch");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut render = |cells: Vec<&str>| {
        let line: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect();
        out.push_str(&format!("  {}\n", line.join("  ")));
    };
    render(headers.to_vec());
    render(widths.iter().map(|_| "-").collect::<Vec<_>>());
    for row in rows {
        render(row.iter().map(String::as_str).collect());
    }
}

/// Format a float with 1 decimal.
pub fn f1(v: f64) -> String {
    format!("{v:.1}")
}

/// Format a float with 2 decimals.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Format a float with 3 decimals.
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// Format a count with a K/M/G suffix and one decimal.
pub fn human(n: u64) -> String {
    if n >= 1_000_000_000 {
        format!("{:.1}G", n as f64 / 1e9)
    } else if n >= 1_000_000 {
        format!("{:.1}M", n as f64 / 1e6)
    } else if n >= 1_000 {
        format!("{:.1}K", n as f64 / 1e3)
    } else {
        n.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formats() {
        assert_eq!(f1(1.25), "1.2");
        assert_eq!(f2(1.256), "1.26");
        assert_eq!(f3(0.12345), "0.123");
        assert_eq!(human(999), "999");
        assert_eq!(human(65_536), "65.5K");
        assert_eq!(human(32_000_000_000), "32.0G");
    }

    #[test]
    fn table_does_not_panic() {
        let mut out = String::new();
        table(
            &mut out,
            "demo",
            &["a", "bee"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        assert_eq!(
            out,
            "\n== demo ==\n    a  bee\n    -    -\n    1    2\n  333    4\n"
        );
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn mismatched_rows_panic() {
        table(
            &mut String::new(),
            "demo",
            &["a"],
            &[vec!["1".into(), "2".into()]],
        );
    }
}
