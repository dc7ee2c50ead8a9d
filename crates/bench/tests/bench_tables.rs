//! `EXPERIMENTS.md` quotes tables that `--bin all_experiments` prints
//! into `BENCH_tables.txt`. These tests fail when a quoted cell
//! disagrees with the file, so regenerating one without the other
//! cannot go unnoticed. Each builds the rows a section should hold from
//! the file and compares them with the section's Markdown table.

const BENCH_TABLES: &str = include_str!("../../../BENCH_tables.txt");
const EXPERIMENTS: &str = include_str!("../../../EXPERIMENTS.md");

/// The cells of the Markdown table under `header` in `EXPERIMENTS.md`.
fn doc_table(header: &str) -> Vec<Vec<String>> {
    let rows: Vec<Vec<String>> = EXPERIMENTS
        .lines()
        .skip_while(|line| line.trim() != header)
        .skip(2) // header and separator
        .take_while(|line| line.starts_with('|'))
        .map(|line| {
            line.trim().trim_matches('|').split('|').map(|c| c.trim().to_string()).collect()
        })
        .collect();
    assert!(!rows.is_empty(), "EXPERIMENTS.md has no table under {header}");
    rows
}

/// The lines of `BENCH_tables.txt` after the line starting with
/// `title`, skipping `skip` of them, up to the next blank line.
fn bench_rows(title: &str, skip: usize) -> Vec<&'static str> {
    let rows: Vec<&str> = BENCH_TABLES
        .lines()
        .skip_while(|line| !line.starts_with(title))
        .skip(1 + skip)
        .take_while(|line| !line.trim().is_empty())
        .collect();
    assert!(!rows.is_empty(), "BENCH_tables.txt has no rows under {title}");
    rows
}

fn fields(line: &str) -> Vec<&str> {
    line.split_whitespace().collect()
}

fn number(field: &str) -> f64 {
    field.parse().unwrap_or_else(|_| panic!("{field} is not a number"))
}

#[test]
fn fig8_foreground_shares_match_bench_tables() {
    // "  expert 0: 14%" -> ["0", "14 %"]
    let expected: Vec<Vec<String>> = bench_rows("Foreground share per expert:", 0)
        .iter()
        .map(|line| {
            let (expert, share) =
                line.trim().trim_start_matches("expert ").split_once(": ").unwrap();
            vec![expert.to_string(), format!("{} %", share.trim_end_matches('%'))]
        })
        .collect();
    assert_eq!(doc_table("| Expert | Foreground share |"), expected, "Fig. 8 shares");
}

#[test]
fn fig13a_psnr_matches_bench_tables() {
    // "       40        20.18         17.97" -> ["40", "20.18 dB", "17.97 dB", "-2.21 dB"]
    let expected: Vec<Vec<String>> = bench_rows("=== Fig. 13(a)", 2)
        .iter()
        .map(|line| {
            let [iterations, single, moe] = fields(line)[..] else {
                panic!("Fig. 13(a) row {line}")
            };
            let gap = number(moe) - number(single);
            vec![
                iterations.into(),
                format!("{single} dB"),
                format!("{moe} dB"),
                format!("{gap:.2} dB"),
            ]
        })
        .collect();
    let header = "| Iterations | Single 2^12 | MoE 4×2^10 | MoE − single |";
    assert_eq!(doc_table(header), expected, "Fig. 13(a)");
}

#[test]
fn expert_count_psnr_matches_bench_tables() {
    // "      1      26.73" -> ["1", "26.73 dB"]
    let expected: Vec<Vec<String>> = bench_rows("=== Convergent PSNR vs expert count", 2)
        .iter()
        .map(|line| {
            let [experts, psnr] = fields(line)[..] else { panic!("expert-count row {line}") };
            vec![experts.into(), format!("{psnr} dB")]
        })
        .collect();
    assert_eq!(doc_table("| Experts | Convergent PSNR |"), expected, "expert-count scaling");
}

#[test]
fn table2_psnr_matches_bench_tables() {
    // "              48 Iter.       30.2" -> ["48 Iter.", "30.2 dB", "+0.0 dB"]
    let rows: Vec<(String, f64)> = bench_rows("=== Table II", 2)
        .iter()
        .map(|line| {
            let (label, psnr) = line.trim().rsplit_once(' ').expect("Table II row");
            (label.trim().to_string(), number(psnr))
        })
        .collect();
    let never = rows[0].1;
    let expected: Vec<Vec<String>> = rows
        .iter()
        .map(|(label, psnr)| {
            vec![label.clone(), format!("{psnr:.1} dB"), format!("{:+.1} dB", psnr - never)]
        })
        .collect();
    let header = "| Quantization frequency | Measured PSNR | vs Never |";
    assert_eq!(doc_table(header), expected, "Table II");
}
