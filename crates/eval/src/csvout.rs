//! Tiny CSV writer for the reproduction binaries.

use std::fs;
use std::io::Write;
use std::path::Path;

/// Writes `rows` (first row = header) to `dir/name`, creating `dir` if
/// needed. Returns the path written.
///
/// # Panics
/// Panics on I/O errors — the reproduction binaries want loud failures.
pub fn write_csv(dir: &str, name: &str, rows: &[Vec<String>]) -> String {
    fs::create_dir_all(dir).expect("create results directory");
    let path = Path::new(dir).join(name);
    let mut file = fs::File::create(&path).expect("create csv file");
    for row in rows {
        let escaped: Vec<String> = row
            .iter()
            .map(|cell| {
                if cell.contains(',') || cell.contains('"') {
                    format!("\"{}\"", cell.replace('"', "\"\""))
                } else {
                    cell.clone()
                }
            })
            .collect();
        writeln!(file, "{}", escaped.join(",")).expect("write csv row");
    }
    path.display().to_string()
}

/// Formats a float with 3 significant decimals for tables.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a speedup in the paper's `N.NNx` style.
pub fn speedup(x: f64) -> String {
    format!("{x:.2}x")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_and_escapes() {
        let dir = intune_core::ScratchDir::new("csv-test");
        let path = write_csv(
            dir.path().to_str().unwrap(),
            "t.csv",
            &[
                vec!["a".into(), "b,c".into()],
                vec!["1".into(), "he said \"hi\"".into()],
            ],
        );
        let text = std::fs::read_to_string(path).unwrap();
        assert!(text.contains("\"b,c\""));
        assert!(text.contains("\"he said \"\"hi\"\"\""));
    }

    #[test]
    fn formatting() {
        assert_eq!(f3(1.23456), "1.235");
        assert_eq!(speedup(2.9512), "2.95x");
    }
}
