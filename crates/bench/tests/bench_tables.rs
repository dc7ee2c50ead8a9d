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

/// A printed ratio such as `44x` as the docs write it, `44×`.
fn times(field: &str) -> String {
    format!("{}×", field.trim_end_matches('x'))
}

/// The line of `BENCH_tables.txt` that starts with `prefix`, after the
/// line starting with `title`.
fn bench_line(title: &str, prefix: &str) -> &'static str {
    BENCH_TABLES
        .lines()
        .skip_while(|line| !line.starts_with(title))
        .find(|line| line.starts_with(prefix))
        .unwrap_or_else(|| panic!("BENCH_tables.txt has no {prefix} line under {title}"))
}

#[test]
fn table3_best_baseline_ratios_match_bench_tables() {
    // "Inference: 1.91x throughput and 10.1x energy efficiency vs best
    // baseline" -> ["Inference", "1.91×", "10.1×"]
    let expected: Vec<Vec<String>> = ["Inference:", "Training:"]
        .iter()
        .map(|mode| {
            let line = bench_line("=== Table III", mode);
            let [_, throughput, "throughput", "and", energy, ..] = fields(line)[..] else {
                panic!("Table III ratio line {line}")
            };
            vec![mode.trim_end_matches(':').to_string(), times(throughput), times(energy)]
        })
        .collect();
    let header = "| Mode | Throughput vs best baseline | Energy efficiency vs best baseline |";
    assert_eq!(doc_table(header), expected, "Table III ratios");
}

#[test]
fn fig11_ranges_match_bench_tables() {
    // "Nvidia Jetson XNX       ship     588.8    47.1x       194.0x": per
    // baseline, in print order, the range of speedups and energy
    // efficiencies over its scenes.
    let mut ranges: Vec<(String, [f64; 2], [f64; 2])> = Vec::new();
    for line in bench_rows("=== Fig. 11", 2) {
        let f = fields(line);
        let [.., _scene, _throughput, speedup, energy] = f[..] else {
            panic!("Fig. 11 row {line}")
        };
        let baseline = f[..f.len() - 4].join(" ");
        let (speedup, energy) =
            (number(speedup.trim_end_matches('x')), number(energy.trim_end_matches('x')));
        match ranges.iter_mut().find(|(name, ..)| *name == baseline) {
            Some((_, s, e)) => {
                *s = [s[0].min(speedup), s[1].max(speedup)];
                *e = [e[0].min(energy), e[1].max(energy)];
            }
            None => ranges.push((baseline, [speedup; 2], [energy; 2])),
        }
    }
    let expected: Vec<Vec<String>> = ranges
        .iter()
        .map(|(baseline, s, e)| {
            vec![
                baseline.clone(),
                format!("{:.1}–{:.1}×", s[0], s[1]),
                format!("{:.1}–{:.1}×", e[0], e[1]),
            ]
        })
        .collect();
    assert_eq!(doc_table("| Baseline | Speedup | Energy efficiency |"), expected, "Fig. 11");
}

#[test]
fn fig13b_inset_psnr_matches_bench_tables() {
    // "       2^9      24.33" -> ["2^9", "24.33 dB"]
    let rows: Vec<(&str, &str)> = bench_rows("=== Fig. 13(b) inset", 2)
        .iter()
        .map(|line| {
            let [size, psnr] = fields(line)[..] else { panic!("Fig. 13(b) inset row {line}") };
            (size, psnr)
        })
        .collect();
    let expected: Vec<Vec<String>> =
        rows.iter().map(|&(size, psnr)| vec![size.into(), format!("{psnr} dB")]).collect();
    assert_eq!(doc_table("| Table size | PSNR |"), expected, "Fig. 13(b) inset");
    // EXPERIMENTS.md says the inset rises with table size.
    assert!(rows.windows(2).all(|w| number(w[0].1) < number(w[1].1)), "{rows:?}");
}

#[test]
fn speedup_breakdown_matches_bench_tables() {
    // "inference 44x, training 73x (paper: 47x and 76x)."
    let line = bench_line("=== Ablation: speedup breakdown", "inference ");
    let words: Vec<&str> = line
        .trim_end_matches('.')
        .split(|c: char| c.is_whitespace() || ",():".contains(c))
        .filter(|w| !w.is_empty())
        .collect();
    let ["inference", inference, "training", training, "paper", paper_inference, "and", paper_training] =
        words[..]
    else {
        panic!("speedup breakdown line {line}")
    };
    let expected = vec![
        vec!["Inference".to_string(), times(paper_inference), times(inference)],
        vec!["Training".to_string(), times(paper_training), times(training)],
    ];
    let header = "| Per-stage speedup vs XNX | Paper | Measured |";
    assert_eq!(doc_table(header), expected, "speedup breakdown");
}

/// The prose of the `EXPERIMENTS.md` section under `header`, up to the
/// next section, with every run of whitespace one space.
fn doc_prose(header: &str) -> String {
    let section: Vec<&str> = EXPERIMENTS
        .lines()
        .skip_while(|line| line.trim() != header)
        .skip(1)
        .take_while(|line| !line.starts_with("## "))
        .collect();
    assert!(!section.is_empty(), "EXPERIMENTS.md has no section {header}");
    section.join(" ").split_whitespace().collect::<Vec<_>>().join(" ")
}

/// The scenes with the smallest and largest value, with the values.
fn extremes(values: &[(String, f64)]) -> [(&str, f64); 2] {
    let by_value = |a: &&(String, f64), b: &&(String, f64)| a.1.total_cmp(&b.1);
    let [lo, hi] = [values.iter().min_by(by_value), values.iter().max_by(by_value)]
        .map(|v| v.expect("a table with rows"));
    [(lo.0.as_str(), lo.1), (hi.0.as_str(), hi.1)]
}

#[test]
fn table6_speedups_and_shape_match_bench_tables() {
    // "     ship     4.6x" -> ["ship", "4.6×"]
    let rows: Vec<(&str, &str)> = bench_rows("=== Table VI", 2)
        .iter()
        .map(|line| {
            let [scene, speedup] = fields(line)[..] else { panic!("Table VI row {line}") };
            (scene, speedup)
        })
        .collect();
    let expected: Vec<Vec<String>> =
        rows.iter().map(|&(scene, speedup)| vec![scene.into(), times(speedup)]).collect();
    let doc = doc_table("| Scene | Paper | Measured |");
    let quoted: Vec<Vec<String>> =
        doc.iter().map(|row| vec![row[0].clone(), row[2].clone()]).collect();
    assert_eq!(quoted, expected, "Table VI measured column");
    // The shape sentence: the measured range, the paper's, and the
    // scenes at the extremes, which must be the paper's.
    let value =
        |(scene, x): (&str, &str)| (scene.to_string(), number(x.trim_end_matches(['x', '×'])));
    let measured: Vec<(String, f64)> = rows.iter().copied().map(value).collect();
    let paper: Vec<(String, f64)> = doc.iter().map(|row| value((&row[0], &row[1]))).collect();
    let [(lo, lo_x), (hi, hi_x)] = extremes(&measured);
    let [(paper_lo, paper_lo_x), (paper_hi, paper_hi_x)] = extremes(&paper);
    assert_eq!([lo, hi], [paper_lo, paper_hi], "the measured extremes are not the paper's");
    let shape = format!(
        "Shape: all scenes gain substantially ({lo_x:.1}–{hi_x:.1}× vs the paper's \
         {paper_lo_x:.1}–{paper_hi_x:.1}×); the extremes match ({hi} largest, {lo} smallest)"
    );
    let prose = doc_prose("## Table VI — Technique T1 ablation (`--bin table6`)");
    assert!(prose.contains(&shape), "Table VI prose does not say: {shape}");
}

/// The cells of the first Markdown table in the `EXPERIMENTS.md`
/// section whose heading starts with `heading`, for sections whose
/// table header other sections share.
fn section_table(heading: &str) -> Vec<Vec<String>> {
    let rows: Vec<Vec<String>> = EXPERIMENTS
        .lines()
        .skip_while(|line| !line.starts_with(heading))
        .skip_while(|line| !line.starts_with('|'))
        .skip(2) // header and separator
        .take_while(|line| line.starts_with('|'))
        .map(|line| {
            line.trim().trim_matches('|').split('|').map(|c| c.trim().to_string()).collect()
        })
        .collect();
    assert!(!rows.is_empty(), "EXPERIMENTS.md has no table under {heading}");
    rows
}

/// Each row's quantity and measured cells, from a three-column
/// `| Quantity | Paper | Measured |` table.
fn quantity_and_measured(table: &[Vec<String>]) -> Vec<Vec<String>> {
    table.iter().map(|row| vec![row[0].clone(), row[2].clone()]).collect()
}

#[test]
fn table4_measured_column_matches_bench_tables() {
    // "    This Work    28 nm       35.0   600     4497      6.0       61.7       30.9      0.6"
    // -> the last seven fields: area, MHz, SRAM, power, the two M/s/W
    // figures and bandwidth.
    let device = |name: &str| -> [f64; 7] {
        let line = BENCH_TABLES
            .lines()
            .skip_while(|line| !line.starts_with("=== Table IV"))
            .find(|line| line.trim_start().starts_with(name))
            .unwrap_or_else(|| panic!("Table IV has no {name} row"));
        let f = fields(line);
        let last: Vec<f64> =
            f[f.len() - 7..].iter().map(|x| x.parse().unwrap_or(f64::NAN)).collect();
        last.try_into().expect("seven fields")
    };
    let [area, _, sram, power, inference, training, _] = device("This Work");
    let neurex = device("NeuRex-Server")[4];
    let [.., gpu_inference, gpu_training, _] = device("Nvidia 2080Ti");
    let expected = vec![
        vec!["Area / SRAM / power".to_string(), format!("{area:.1} / {sram} / {power:.1}")],
        vec!["Inference throughput/W".to_string(), format!("{inference:.1} M/s/W")],
        vec!["Training throughput/W".to_string(), format!("{training:.1} M/s/W")],
        vec![format!("vs NeuRex-Server ({neurex} M/s/W)"), format!("{:.2}×", inference / neurex)],
        vec![
            format!("vs 2080 Ti ({gpu_inference} / {gpu_training} M/s/W)"),
            format!("{:.0}× / {:.0}×", inference / gpu_inference, training / gpu_training),
        ],
    ];
    let doc = section_table("## Table IV");
    assert_eq!(quantity_and_measured(&doc[..expected.len()]), expected, "Table IV");
}

#[test]
fn table5_measured_column_matches_bench_tables() {
    // "bicycle         5.7x        13.6x        236x        569x       1.07"
    let rows: Vec<(&str, [&str; 4])> = bench_rows("=== Table V:", 2)
        .iter()
        .map(|line| {
            let [scene, a, b, c, d, _imbalance] = fields(line)[..] else {
                panic!("Table V row {line}")
            };
            (scene, [a, b, c, d].map(|x| x.trim_end_matches('x')))
        })
        .collect();
    // The printed range of column `k` over the scenes, and the scenes
    // at its ends.
    let range = |k: usize| {
        let values: Vec<(String, f64)> =
            rows.iter().map(|(scene, cells)| (scene.to_string(), number(cells[k]))).collect();
        let [(lo, _), (hi, _)] = extremes(&values);
        let cell = |scene: &str| rows.iter().find(|(s, _)| *s == scene).expect("a row").1[k];
        (format!("{}–{}×", cell(lo), cell(hi)), lo.to_string(), hi.to_string())
    };
    let labels =
        ["Inference speedup", "Training speedup", "Inference energy eff.", "Training energy eff."];
    let mut expected: Vec<Vec<String>> =
        labels.iter().enumerate().map(|(k, label)| vec![label.to_string(), range(k).0]).collect();
    // The best and worst scene by inference speedup.
    let (_, worst, best) = range(0);
    expected.push(vec!["Best / worst scene".to_string(), format!("{best} / {worst}")]);
    let doc = section_table("## Table V —");
    assert_eq!(quantity_and_measured(&doc), expected, "Table V");
}

/// The `[quantity, measured]` cells of the rows labelled `quantities`
/// in the `| Quantity | Paper | Measured |` table of the section whose
/// heading starts with `heading`.
fn measured_rows(heading: &str, quantities: &[&str]) -> Vec<Vec<String>> {
    let doc = quantity_and_measured(&section_table(heading));
    quantities
        .iter()
        .map(|&quantity| {
            doc.iter()
                .find(|row| row[0] == quantity)
                .cloned()
                .unwrap_or_else(|| panic!("{heading} has no {quantity} row"))
        })
        .collect()
}

/// The Fig. 3 design-boundary lines as printed:
/// `(boundary, GB/s, verdict)`.
fn fig3_boundaries() -> Vec<(&'static str, &'static str, &'static str)> {
    // "  Stages II+III                4.55 GB/s  (exceeds USB)"
    bench_rows("Design boundaries", 0)
        .iter()
        .map(|line| {
            let (boundary, rest) = line.trim().split_once("  ").expect("Fig. 3 boundary line");
            let [bandwidth, "GB/s", ..] = fields(rest)[..] else {
                panic!("Fig. 3 boundary line {line}")
            };
            let verdict = rest.split_once('(').expect("a verdict").1.trim_end_matches(')');
            (boundary, bandwidth, verdict)
        })
        .collect()
}

/// Fig. 3's end-to-end boundary bandwidth as printed, e.g. `0.39`.
fn fig3_end_to_end_gbs() -> &'static str {
    let end_to_end = fig3_boundaries().into_iter().find(|(b, ..)| b.starts_with("End-to-end"));
    end_to_end.expect("an end-to-end boundary").1
}

#[test]
fn table1_measured_column_matches_bench_tables() {
    // "    RT-NeRF (Edge)             No    LPDDR4-1600       17.0": the
    // columns are right-aligned, so a row's Training cell ends where
    // the header's does. Prior accelerators read Yes or No there; edge
    // platforms read "-" and this work "Yes (Instant)".
    let lines = bench_rows("=== Table I:", 0);
    let training_end = lines[0].find("Training").expect("a Training column") + "Training".len();
    let bandwidth = |line: &'static str| *fields(line).last().expect("a bandwidth");
    let prior: Vec<(String, f64)> = lines[2..]
        .iter()
        .filter(|line| matches!(line[..training_end].rsplit(' ').next(), Some("Yes" | "No")))
        .map(|line| (bandwidth(line).to_string(), number(bandwidth(line))))
        .collect();
    let [(lo, _), (hi, hi_gbs)] = extremes(&prior);
    let this_work = lines.iter().find(|line| line.trim_start().starts_with("This Work"));
    let this_work = number(bandwidth(this_work.expect("a This Work row")));
    // "Every prior accelerator exceeds the 0.625 GB/s USB budget (worst
    // case 512 GB/s = 819x over); ..."
    let verdict = bench_line("=== Table I:", "Every prior accelerator");
    let (_, rest) = verdict.split_once("exceeds the ").expect("a budget");
    let [usb, "GB/s", "USB", "budget", "(worst", "case", worst, "GB/s", "=", gap, ..] =
        fields(rest)[..]
    else {
        panic!("Table I verdict {verdict}")
    };
    assert_eq!(number(worst), hi_gbs, "the worst case is the largest prior bandwidth");
    let expected = vec![
        vec!["Prior accelerators' bandwidth".to_string(), format!("{lo}–{hi} GB/s")],
        vec!["Edge USB budget".to_string(), format!("{usb} GB/s")],
        vec![
            "This work".to_string(),
            format!(
                "{this_work:.1} GB/s ({} GB/s at Fig. 3's end-to-end boundary)",
                fig3_end_to_end_gbs()
            ),
        ],
        vec!["Gap".to_string(), format!("worst case {} over USB", times(gap))],
    ];
    let quantities = ["Prior accelerators' bandwidth", "Edge USB budget", "This work", "Gap"];
    assert_eq!(measured_rows("## Table I —", &quantities), expected, "Table I");
}

#[test]
fn fig3_measured_column_matches_bench_tables() {
    // "      Total intermediate        187.6               93.8" -> the
    // volume in GB; "   End-to-end I/O (ours)         0.77  ..." -> MB.
    let volume = |prefix: &str| {
        let f = fields(bench_line("=== Fig. 3", prefix));
        f[f.len() - 2]
    };
    let (intermediate, io) = (volume("      Total intermediate"), volume("   End-to-end I/O"));
    let partial: Vec<(String, f64)> = fig3_boundaries()
        .into_iter()
        .filter(|(boundary, ..)| !boundary.starts_with("End-to-end"))
        .map(|(_, bandwidth, verdict)| {
            assert_eq!(verdict, "exceeds USB", "a partial boundary fits USB");
            (bandwidth.to_string(), number(bandwidth))
        })
        .collect();
    let [(lo, _), (hi, _)] = extremes(&partial);
    let expected = vec![
        vec!["Total intermediate volume".to_string(), format!("{intermediate} GB")],
        vec!["End-to-end I/O".to_string(), format!("{:.0} MB", number(io) * 1e3)],
        vec![
            "End-to-end boundary bandwidth (2 s)".to_string(),
            format!("{} GB/s", fig3_end_to_end_gbs()),
        ],
        vec!["Partial-design boundaries".to_string(), format!("{lo}–{hi} GB/s")],
    ];
    let quantities = [
        "Total intermediate volume",
        "End-to-end I/O",
        "End-to-end boundary bandwidth (2 s)",
        "Partial-design boundaries",
    ];
    assert_eq!(measured_rows("## Fig. 3 —", &quantities), expected, "Fig. 3");
}
