//! The kernel throughput table in `EXPERIMENTS.md` quotes
//! `BENCH_perf.json`, which `--bin perf` rewrites. This test fails when
//! the table's `Points/s` or `vs scalar` column disagrees with the file,
//! so regenerating one without the other cannot go unnoticed.

const BENCH_PERF: &str = include_str!("../../../BENCH_perf.json");
const EXPERIMENTS: &str = include_str!("../../../EXPERIMENTS.md");
const TABLE_HEADER: &str = "| Bench | Points/s (batched) | vs scalar |";

/// The raw value after `"key": ` in a one-line JSON object.
fn field<'a>(line: &'a str, key: &str) -> &'a str {
    let pattern = format!("\"{key}\": ");
    let start = line.find(&pattern).unwrap_or_else(|| panic!("no {key} in {line}")) + pattern.len();
    let rest = &line[start..];
    rest[..rest.find([',', '}']).unwrap_or(rest.len())].trim().trim_matches('"')
}

#[test]
fn experiments_perf_table_matches_bench_perf_json() {
    // The table's cells, as the JSON says they should read.
    let expected: Vec<(String, String, String)> = BENCH_PERF
        .lines()
        .filter(|line| line.contains("\"name\""))
        .map(|line| {
            let pts: f64 = field(line, "batched_pts_per_s").parse().expect("pts/s");
            let speedup: f64 = field(line, "speedup").parse().expect("speedup");
            (
                field(line, "name").to_string(),
                format!("{:.2} M", pts / 1e6),
                format!("{speedup:.2}×"),
            )
        })
        .collect();
    assert!(!expected.is_empty(), "BENCH_perf.json lists no benches");

    let table: Vec<Vec<&str>> = EXPERIMENTS
        .lines()
        .skip_while(|line| line.trim() != TABLE_HEADER)
        .skip(2) // header and separator
        .take_while(|line| line.starts_with('|'))
        .map(|line| line.trim_matches('|').split('|').map(str::trim).collect())
        .collect();
    assert_eq!(table.len(), expected.len(), "the table has one row per bench of BENCH_perf.json");
    for (row, (name, pts, speedup)) in table.iter().zip(&expected) {
        assert!(row[0].starts_with(&format!("`{name}`")), "row {row:?} should be {name}");
        assert_eq!(row[1], pts, "{name}: Points/s column");
        assert_eq!(row[2], speedup, "{name}: vs scalar column");
    }
}
