//! Plain-text table rendering for experiment output.

/// Render an aligned table with a header row and a separator line.
pub fn render(headers: &[&str], rows: &[Vec<String>]) -> String {
    let ncols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), ncols, "row width mismatch");
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<w$}", c, w = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
            .trim_end()
            .to_string()
    };
    let header_cells: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncols - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Print a rendered table with a title.
pub fn print(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n{title}");
    println!("{}", render(headers, rows));
}

/// Format bytes as GiB with enough precision to distinguish near-zero
/// residues from true zero.
pub fn gib(bytes: u64) -> String {
    let g = bytes as f64 / (1u64 << 30) as f64;
    if g > 0.0 && g < 0.01 {
        format!("{g:.4}")
    } else {
        format!("{g:.2}")
    }
}

/// Format bytes as MiB with one decimal.
pub(crate) fn mib(bytes: u64) -> String {
    format!("{:.1}", bytes as f64 / (1u64 << 20) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let s = render(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["longer".into(), "22".into()],
            ],
        );
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[3].starts_with("longer"));
    }

    #[test]
    fn unit_helpers() {
        assert_eq!(gib(1 << 30), "1.00");
        assert_eq!(gib(5 << 20), "0.0049");
        assert_eq!(mib(3 << 20), "3.0");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn rejects_ragged_rows() {
        render(&["a", "b"], &[vec!["x".into()]]);
    }
}
