//! Fixture tests: for every rule, at least one positive snippet that
//! must be flagged and one negative snippet that must stay clean —
//! including the `// lint: allow(<rule>)` escape hatch and the
//! test-code exemption.

use fusion3d_lint::{lint_source, lint_sources};

/// Rules fired by linting `source` as if it lived at `path`.
fn rules_at(path: &str, source: &str) -> Vec<&'static str> {
    lint_source(path, source).into_iter().map(|f| f.rule).collect()
}

// ---------------------------------------------------------------- D1

#[test]
fn d1_flags_hash_containers_in_result_bearing_crates() {
    let src = "use std::collections::HashMap;\nfn f(m: &HashMap<u32, u32>) {}\n";
    let fired = rules_at("crates/core/src/config.rs", src);
    assert_eq!(fired, vec!["D1", "D1"], "both mentions flagged");

    let set = "fn g() { let s: std::collections::HashSet<u32> = Default::default(); }\n";
    assert_eq!(rules_at("crates/nerf/src/hash.rs", set), vec!["D1"]);
}

#[test]
fn d1_ignores_out_of_scope_crates_and_ordered_containers() {
    let src = "use std::collections::HashMap;\n";
    assert!(rules_at("crates/bench/src/lib.rs", src).is_empty(), "bench is not result-bearing");
    assert!(rules_at("crates/lint/src/lib.rs", src).is_empty());

    let ordered = "use std::collections::{BTreeMap, BTreeSet};\nfn f(m: &BTreeMap<u32, u32>) {}\n";
    assert!(rules_at("crates/core/src/config.rs", ordered).is_empty());
}

#[test]
fn d1_allow_comment_suppresses() {
    let src = "// lint: allow(d1): keyed lookups only, never iterated\n\
               use std::collections::HashMap;\n";
    assert!(rules_at("crates/mem/src/banks.rs", src).is_empty());
}

// ---------------------------------------------------------------- D2

#[test]
fn d2_flags_wall_clock_randomness_and_env() {
    assert_eq!(
        rules_at("crates/core/src/chip.rs", "fn f() { let t = std::time::Instant::now(); }"),
        vec!["D2"],
        "one finding per line even when two patterns overlap"
    );
    assert_eq!(
        rules_at("crates/nerf/src/trainer.rs", "fn f() { let mut rng = rand::thread_rng(); }"),
        vec!["D2"]
    );
    assert_eq!(
        rules_at("crates/par/src/lib.rs", "fn f() -> bool { std::env::var(\"X\").is_ok() }"),
        vec!["D2"]
    );
    assert_eq!(rules_at("crates/mem/src/sram.rs", "fn f(t: std::time::SystemTime) {}"), vec!["D2"]);
}

#[test]
fn d2_ignores_bench_and_comments() {
    let src = "fn f() { let t = std::time::Instant::now(); }";
    assert!(rules_at("crates/bench/src/support.rs", src).is_empty(), "timing belongs in bench");
    let comment = "// std::time::Instant is banned here\nfn f() {}\n";
    assert!(rules_at("crates/core/src/chip.rs", comment).is_empty());
}

#[test]
fn d2_allow_comment_suppresses() {
    let src = "fn f() -> bool {\n\
               // lint: allow(d2): worker count never affects results\n\
               std::env::var(\"FUSION3D_THREADS\").is_ok()\n\
               }\n";
    assert!(rules_at("crates/par/src/lib.rs", src).is_empty());
}

// ---------------------------------------------------------------- D3

#[test]
fn d3_flags_raw_threads_outside_par() {
    assert_eq!(
        rules_at("crates/nerf/src/render.rs", "fn f() { std::thread::spawn(|| {}); }"),
        vec!["D3"]
    );
    assert_eq!(
        rules_at("crates/core/src/noc.rs", "use std::thread;\nfn f() { thread::scope(|_| {}); }"),
        vec!["D3", "D3"]
    );
}

#[test]
fn d3_exempts_crates_par() {
    let src = "use std::thread;\nfn f() { thread::scope(|_| {}); }";
    assert!(rules_at("crates/par/src/lib.rs", src).is_empty());
}

#[test]
fn d3_allow_comment_suppresses() {
    let src = "// lint: allow(d3): joined before any result is read\nuse std::thread;\n";
    assert!(rules_at("crates/core/src/noc.rs", src).is_empty());
}

// ---------------------------------------------------------------- P1

#[test]
fn p1_flags_panicking_constructs_in_library_code() {
    assert_eq!(
        rules_at("crates/arith/src/half.rs", "fn f(x: Option<u32>) -> u32 { x.unwrap() }"),
        vec!["P1"]
    );
    assert_eq!(
        rules_at("crates/mem/src/banks.rs", "fn f(x: Option<u32>) -> u32 { x.expect(\"set\") }"),
        vec!["P1"]
    );
    assert_eq!(rules_at("src/lib.rs", "fn f() { panic!(\"boom\"); }"), vec!["P1"]);
    assert_eq!(rules_at("crates/core/src/chip.rs", "fn f() { unreachable!() }"), vec!["P1"]);
    assert_eq!(rules_at("crates/core/src/chip.rs", "fn f() { todo!() }"), vec!["P1"]);
}

#[test]
fn p1_ignores_test_code_binaries_and_lookalikes() {
    let test_mod = "#[cfg(test)]\nmod tests {\n  #[test]\n  fn t() { Some(1).unwrap(); }\n}\n";
    assert!(rules_at("crates/nerf/src/io.rs", test_mod).is_empty());

    let test_fn = "#[test]\nfn t() { Some(1).unwrap(); }\n";
    assert!(rules_at("crates/nerf/src/io.rs", test_fn).is_empty());

    let bin = "fn main() { std::fs::read(\"x\").unwrap(); }";
    assert!(rules_at("src/bin/fusion3d.rs", bin).is_empty(), "binaries may panic on bad input");
    assert!(rules_at("crates/bench/src/bin/table1.rs", bin).is_empty());

    // Lookalikes that must NOT fire: unwrap_or, expect_err, a string
    // containing "panic!", and `#[should_panic]` attributes.
    let clean = "fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }\n\
                 fn g(x: Result<u32, u32>) -> u32 { x.expect_err(\"e\") }\n\
                 const S: &str = \"panic!\";\n";
    assert!(rules_at("crates/core/src/chip.rs", clean).is_empty());
}

#[test]
fn p1_allow_comment_suppresses_trailing_and_preceding() {
    let trailing = "fn f(x: Option<u32>) -> u32 { x.unwrap() } // lint: allow(p1): invariant\n";
    assert!(rules_at("crates/core/src/chip.rs", trailing).is_empty());

    let preceding = "fn f(x: Option<u32>) -> u32 {\n\
                     // lint: allow(p1): invariant\n\
                     x.unwrap()\n\
                     }\n";
    assert!(rules_at("crates/core/src/chip.rs", preceding).is_empty());
}

// ---------------------------------------------------------------- O1

#[test]
fn o1_flags_print_macros_in_library_code() {
    assert_eq!(
        rules_at("crates/core/src/chip.rs", "fn f() { println!(\"cycles: {}\", 1); }"),
        vec!["O1"]
    );
    assert_eq!(rules_at("crates/nerf/src/trainer.rs", "fn f() { print!(\"x\"); }"), vec!["O1"]);
    assert_eq!(
        rules_at("crates/obs/src/report.rs", "fn f() { eprintln!(\"warn\"); }"),
        vec!["O1"],
        "the obs crate renders reports to strings, never to stdout"
    );
    assert_eq!(rules_at("src/lib.rs", "fn f() { eprint!(\"x\"); }"), vec!["O1"]);
}

#[test]
fn o1_ignores_binaries_harness_tests_and_lookalikes() {
    let src = "fn main() { println!(\"table row\"); }";
    assert!(rules_at("crates/bench/src/bin/table1.rs", src).is_empty(), "binaries print");
    assert!(rules_at("src/bin/fusion3d.rs", src).is_empty());
    assert!(rules_at("crates/bench/src/support.rs", src).is_empty(), "the harness prints tables");
    assert!(rules_at("crates/lint/src/report.rs", src).is_empty(), "lint renders findings");

    let test_fn = "#[test]\nfn t() { println!(\"debugging\"); }\n";
    assert!(rules_at("crates/core/src/chip.rs", test_fn).is_empty());

    // Lookalikes that must NOT fire: write!/writeln! into a sink, a
    // `println` identifier without `!`, and mentions in comments or
    // strings.
    let clean = "use std::fmt::Write;\n\
                 fn f(out: &mut String) { let _ = writeln!(out, \"row\"); }\n\
                 fn println() {}\n\
                 // println! is banned in library code\n\
                 const S: &str = \"println!\";\n";
    assert!(rules_at("crates/obs/src/report.rs", clean).is_empty());
}

#[test]
fn o1_allow_comment_suppresses() {
    let trailing = "fn f() { println!(\"x\"); } // lint: allow(o1): interactive debug aid\n";
    assert!(rules_at("crates/core/src/chip.rs", trailing).is_empty());
}

// ------------------------------------------------------- reporting

#[test]
fn findings_carry_path_line_and_rule() {
    let src = "fn a() {}\nfn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
    let findings = lint_source("crates/core/src/chip.rs", src);
    assert_eq!(findings.len(), 1);
    assert_eq!(findings[0].rule, "P1");
    assert_eq!(findings[0].path, "crates/core/src/chip.rs");
    assert_eq!(findings[0].line, 2);
    assert!(findings[0].message.contains("unwrap"));
}

#[test]
fn one_allow_covers_multiple_rules() {
    let src = "// lint: allow(d1, p1): fixture — keyed read of a constant entry\n\
               fn f(m: &std::collections::HashMap<u32, u32>) -> u32 { m.get(&0).unwrap() + 0 }\n";
    assert!(rules_at("crates/core/src/chip.rs", src).is_empty());
}

#[test]
fn reports_are_deterministic_and_ordered() {
    let sources = [
        (
            "crates/nerf/src/b.rs".to_string(),
            "pub fn render_layer(out: &mut Vec<f32>) { out.push(1.0); }\n".to_string(),
        ),
        (
            "crates/core/src/a.rs".to_string(),
            "pub fn pick(xs: &[u32], i: usize) -> u32 { xs[i] }\n\
             fn f() { let t = std::time::Instant::now(); }\n"
                .to_string(),
        ),
    ];
    let first = lint_sources(&sources);
    let second = lint_sources(&sources);
    assert_eq!(first.findings, second.findings, "two runs over the same input are identical");

    let keys: Vec<_> = first.findings.iter().map(|f| (f.path.clone(), f.line, f.rule)).collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted, "findings come back sorted by (path, line, rule)");
    assert_eq!(keys.len(), 3, "P2 + D2 in core, H2 in nerf: {keys:?}");
}

// ---------------------------------------------------------------- P2

#[test]
fn p2_flags_unguarded_indexing_and_division_in_public_entries() {
    let indexed = "pub fn pick(xs: &[u32], i: usize) -> u32 { xs[i] }\n";
    assert_eq!(rules_at("crates/core/src/chip.rs", indexed), vec!["P2"]);

    let divided = "pub fn mean(total: u32, n: u32) -> u32 { total / n }\n";
    assert_eq!(rules_at("crates/mem/src/sram.rs", divided), vec!["P2"]);
}

#[test]
fn p2_leaves_unwrap_and_panics_to_p1() {
    // P1 covers every non-test library line, a superset of what P2
    // reaches from public entries: a public unwrap or panic is one
    // finding, not two.
    let unwrapped = "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
    assert_eq!(rules_at("crates/core/src/chip.rs", unwrapped), vec!["P1"]);

    let panics = "pub fn g() { panic!(\"boom\") }\n";
    assert_eq!(rules_at("crates/core/src/chip.rs", panics), vec!["P1"]);
}

#[test]
fn p2_follows_the_call_graph_from_public_entries() {
    let src = "pub fn api(xs: &[u32], i: usize) -> u32 {\n\
               lookup(xs, i)\n\
               }\n\
               fn lookup(xs: &[u32], i: usize) -> u32 {\n\
               xs[i]\n\
               }\n";
    let findings = lint_source("crates/mem/src/sram.rs", src);
    assert_eq!(findings.len(), 1);
    assert_eq!(findings[0].rule, "P2");
    assert_eq!(findings[0].line, 5, "reported at the hazard, not the entry");
    assert!(findings[0].message.contains("api"), "names the entry: {}", findings[0].message);
}

#[test]
fn p2_respects_guards_on_the_checked_path() {
    let asserted = "pub fn pick(xs: &[u32], i: usize) -> u32 {\n\
                    debug_assert!(i < xs.len());\n\
                    xs[i]\n\
                    }\n";
    assert!(rules_at("crates/core/src/chip.rs", asserted).is_empty());

    let branched = "pub fn mean(total: u32, n: u32) -> u32 {\n\
                    if n == 0 {\n\
                    return 0;\n\
                    }\n\
                    total / n\n\
                    }\n";
    assert!(rules_at("crates/mem/src/sram.rs", branched).is_empty());

    let clamped = "pub fn at(xs: &[f32], i: usize) -> f32 { xs[i.min(xs.len() - 1)] }\n";
    assert!(rules_at("crates/nerf/src/sampler.rs", clamped).is_empty());
}

#[test]
fn p2_exempts_constant_indexing_into_fixed_size_arrays() {
    let direct = "pub fn x_of(v: &[f32; 3]) -> f32 { v[0] }\n";
    assert!(rules_at("crates/nerf/src/sampler.rs", direct).is_empty());

    // The exemption follows workspace type aliases across files.
    let sources = [
        ("crates/core/src/geom.rs".to_string(), "pub type Coord = [f32; 3];\n".to_string()),
        (
            "crates/core/src/chip.rs".to_string(),
            "pub fn x_of(v: &Coord) -> f32 { v[2] }\n".to_string(),
        ),
    ];
    let report = lint_sources(&sources);
    assert!(report.findings.is_empty(), "{:?}", report.findings);

    // A run-time index into the same array is still flagged.
    let dynamic = "pub fn at(v: &[f32; 3], i: usize) -> f32 { v[i] }\n";
    assert_eq!(rules_at("crates/nerf/src/sampler.rs", dynamic), vec!["P2"]);
}

#[test]
fn p2_division_only_flags_bare_parameter_divisors() {
    // `b.pow(2)` is a derived value, not the raw parameter; the zero
    // hazard (if any) is not `b`'s own.
    let derived = "pub fn scaled(a: u32, b: u32) -> u32 { a / b.pow(2) }\n";
    assert!(rules_at("crates/core/src/chip.rs", derived).is_empty());
}

#[test]
fn p2_skips_private_helpers_and_out_of_scope_crates() {
    let private = "fn lookup(xs: &[u32], i: usize) -> u32 { xs[i] }\n";
    assert!(
        rules_at("crates/core/src/chip.rs", private).is_empty(),
        "not reachable from any public entry"
    );

    let harness = "pub fn lookup(xs: &[u32], i: usize) -> u32 { xs[i] }\n";
    assert!(
        rules_at("crates/bench/src/support.rs", harness).is_empty(),
        "bench is not result-bearing"
    );
}

#[test]
fn p2_allow_comment_and_continuation_suppress() {
    let src = "pub fn pick(xs: &[u32], i: usize) -> u32 {\n\
               // lint: allow(p2): indices come from enumerate() over\n\
               // this same slice, so they are in range by construction\n\
               xs[i]\n\
               }\n";
    assert!(rules_at("crates/core/src/chip.rs", src).is_empty());
}

// ---------------------------------------------------------------- H2

#[test]
fn h2_flags_allocation_reachable_from_render_entries() {
    let src = "pub fn render_layer(out: &mut Vec<f32>) {\n\
               shade(out);\n\
               }\n\
               fn shade(out: &mut Vec<f32>) {\n\
               out.push(1.0);\n\
               }\n";
    let findings = lint_source("crates/nerf/src/pipeline.rs", src);
    assert_eq!(findings.len(), 1);
    assert_eq!(findings[0].rule, "H2");
    assert_eq!(findings[0].line, 5, "reported at the allocation inside the callee");
}

#[test]
fn h2_flags_allocating_macros_in_the_training_step() {
    let src = "impl Trainer {\n\
               pub fn step(&mut self, n: usize) -> String {\n\
               format!(\"step {n}\")\n\
               }\n\
               }\n";
    assert_eq!(rules_at("crates/nerf/src/trainer.rs", src), vec!["H2"]);
}

#[test]
fn h2_ignores_unreachable_code_and_the_dispatch_crate() {
    let cold = "pub fn build_buffers(out: &mut Vec<f32>) { out.push(1.0); }\n";
    assert!(rules_at("crates/nerf/src/pipeline.rs", cold).is_empty(), "not a hot-path entry");

    // `par`'s per-dispatch slot vectors ARE the deterministic fan-out
    // mechanism; its allocations are exempt even when reachable.
    let sources = [
        (
            "crates/nerf/src/pipeline.rs".to_string(),
            "pub fn render_layer(out: &mut Vec<f32>) { dispatch(out); }\n".to_string(),
        ),
        (
            "crates/par/src/lib.rs".to_string(),
            "pub fn dispatch(out: &mut Vec<f32>) { out.push(1.0); }\n".to_string(),
        ),
    ];
    assert!(lint_sources(&sources).findings.is_empty());
}

#[test]
fn h2_allow_comment_suppresses() {
    let src = "pub fn render_layer(out: &mut Vec<f32>) {\n\
               out.push(1.0); // lint: allow(h2): amortized into caller capacity\n\
               }\n";
    assert!(rules_at("crates/nerf/src/pipeline.rs", src).is_empty());
}

#[test]
fn h2_covers_the_serve_request_path() {
    // The admission entry and anything it reaches are hot.
    let src = "pub fn admit(&mut self, t: Ticket) -> bool {\n\
               self.log.push(t);\n\
               true\n\
               }\n";
    assert_eq!(rules_at("crates/serve/src/queue.rs", src), vec!["H2"]);

    let render = "pub fn render_batch(&mut self) {\n\
                  let label = self.name.to_string();\n\
                  stage(&label);\n\
                  }\n";
    assert_eq!(rules_at("crates/serve/src/scheduler.rs", render), vec!["H2"]);
}

#[test]
fn h2_exempts_the_serve_cold_path() {
    // The event loop and the registry miss path may allocate: a
    // container decode is a load, not steady-state serving.
    let src = "pub fn run_trace(&mut self, trace: &[Request]) -> Vec<u64> {\n\
               let mut latencies = Vec::with_capacity(trace.len());\n\
               latencies.push(1);\n\
               latencies\n\
               }\n\
               pub fn ensure_resident(&mut self, id: u32) {\n\
               self.eviction_log.push(id);\n\
               }\n";
    assert!(rules_at("crates/serve/src/registry.rs", src).is_empty());
}

// ---------------------------------------------------------------- D5

#[test]
fn d5_flags_shared_mutable_state_in_parallel_closures() {
    let atomics = "pub fn count(pool: &Pool, hits: &AtomicU64) {\n\
                   pool.run_tasks(8, |_task| {\n\
                   hits.fetch_add(1, Ordering::Relaxed);\n\
                   });\n\
                   }\n";
    let fired = rules_at("crates/core/src/noc.rs", atomics);
    assert!(!fired.is_empty() && fired.iter().all(|r| *r == "D5"), "{fired:?}");

    let locking = "pub fn collect(pool: &Pool, sink: &Mutex<Vec<f32>>) {\n\
                   pool.parallel_chunks(4, 1, |_i, _r| sink.lock());\n\
                   }\n";
    assert_eq!(rules_at("crates/core/src/noc.rs", locking), vec!["D5"]);

    let unsafety = "pub fn f(pool: &Pool) {\n\
                    pool.run_tasks(2, |_t| unsafe { poke() });\n\
                    }\n";
    assert_eq!(rules_at("crates/core/src/noc.rs", unsafety), vec!["D5"]);
}

#[test]
fn d5_ignores_per_task_state_and_serial_sections() {
    let per_task = "pub fn f(pool: &Pool, slots: &mut [f32]) {\n\
                    pool.run_tasks(slots, &mut [()], |_i, slot, _w| {\n\
                    let mut local = 0.0;\n\
                    local += 1.0;\n\
                    *slot = local;\n\
                    });\n\
                    }\n";
    assert!(rules_at("crates/core/src/noc.rs", per_task).is_empty());

    let serial = "pub fn bump(counter: &AtomicU64) {\n\
                  counter.fetch_add(1, Ordering::Relaxed);\n\
                  }\n";
    assert!(
        rules_at("crates/core/src/noc.rs", serial).is_empty(),
        "interior mutability outside parallel closures is fine"
    );
}

#[test]
fn d5_allow_comment_suppresses() {
    let src = "pub fn count(pool: &Pool, hits: &AtomicU64) {\n\
               // lint: allow(d5): monotonic counter — order is never observed\n\
               pool.run_tasks(8, |_t| { hits.fetch_add(1, Ordering::Relaxed); });\n\
               }\n";
    assert!(rules_at("crates/core/src/noc.rs", src).is_empty());
}

// ---------------------------------------------------------------- U1

#[test]
fn u1_flags_reasonless_suppressions_even_when_used() {
    let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() } // lint: allow(p1)\n";
    assert_eq!(
        rules_at("crates/core/src/chip.rs", src),
        vec!["U1"],
        "the P1 hit is suppressed, but the missing reason is reported"
    );
}

#[test]
fn u1_flags_unused_suppressions() {
    let src = "// lint: allow(d1): leftover from a removed container\n\
               fn f() {}\n";
    assert_eq!(rules_at("crates/core/src/chip.rs", src), vec!["U1"]);
}

#[test]
fn u1_exempts_declared_prophylactic_suppressions_and_docs() {
    let prophylactic = "// lint: allow(d2, u1): macro expansions sometimes time here\n\
                        fn f() {}\n";
    assert!(rules_at("crates/core/src/chip.rs", prophylactic).is_empty());

    let doc = "/// Suppress with `// lint: allow(d2): why`.\n\
               fn f() {}\n";
    assert!(
        rules_at("crates/core/src/chip.rs", doc).is_empty(),
        "doc comments never register directives"
    );
}

// ------------------------------------------------------- A2 (absint)

#[test]
fn a2_flags_unproven_arithmetic_in_accounting_files() {
    // Full-range u32 operands: the interval analysis cannot bound the
    // product below u32::MAX, so the overflow proof fails.
    let mul = "pub fn area(w: u32, h: u32) -> u32 { w * h }\n";
    assert_eq!(rules_at("crates/mem/src/sram.rs", mul), vec!["A2"]);

    let add = "pub fn total(a: u16, b: u16) -> u16 { a + b }\n";
    assert_eq!(rules_at("crates/mem/src/sram.rs", add), vec!["A2"]);

    let shift = "pub fn scaled(bits: u32) -> u32 { 1u32 << bits }\n";
    assert_eq!(rules_at("crates/mem/src/sram.rs", shift), vec!["A2"]);
}

#[test]
fn a2_ignores_out_of_scope_files_and_wide_totals() {
    let mul = "pub fn area(w: u32, h: u32) -> u32 { w * h }\n";
    assert!(rules_at("crates/nerf/src/render.rs", mul).is_empty(), "file is not under A2");

    // `+` on 64-bit totals carries deliberate headroom and is exempt.
    let wide = "pub fn total(a: u64, b: u64) -> u64 { a + b }\n";
    assert!(rules_at("crates/mem/src/sram.rs", wide).is_empty());
}

#[test]
fn a2_accepts_debug_assert_refined_operands() {
    // The same unprovable multiply, made provable by a precondition:
    // the analyzer narrows both operands through the assert before it
    // reaches the `*`.
    let asserted = "pub fn area(w: u32, h: u32) -> u32 {\n\
                    debug_assert!(w <= 4096 && h <= 4096, \"tile-sized\");\n\
                    w * h\n\
                    }\n";
    assert!(rules_at("crates/mem/src/sram.rs", asserted).is_empty());
}

#[test]
fn a2_accepts_clamp_and_min_refinements() {
    let clamped = "pub fn area(w: u32, h: u32) -> u32 { w.min(4096) * h.clamp(0, 4096) }\n";
    assert!(rules_at("crates/mem/src/sram.rs", clamped).is_empty());

    let branched = "pub fn halved(n: u32) -> u32 { if n < 1 << 16 { n * 2 } else { n } }\n";
    assert!(rules_at("crates/mem/src/sram.rs", branched).is_empty());
}

#[test]
fn a2_allow_comment_suppresses() {
    let src = "pub fn area(w: u32, h: u32) -> u32 {\n\
               // lint: allow(a2): caller guarantees tile-sized inputs\n\
               w * h\n\
               }\n";
    assert!(rules_at("crates/mem/src/sram.rs", src).is_empty());
}

#[test]
fn a2_proofs_depend_on_the_debug_assert_preconditions() {
    // The real gate-cost model must be clean as shipped, and the
    // overflow proof for `multiplier`'s `w * h` cell count must
    // genuinely hinge on its operand-width debug_assert!: strip that
    // one statement and the A2 gate has to fail. This is the
    // regression test that keeps the assert from rotting into
    // decoration.
    // Rules needing the full workspace call graph (H2's reachability,
    // U1's usage accounting of those allows) are noise in single-file
    // mode; the proof obligation under test is the A family.
    let a_findings = |source: &str| -> Vec<(&'static str, u32)> {
        lint_source("crates/arith/src/cost.rs", source)
            .into_iter()
            .filter(|f| f.rule.starts_with('A'))
            .map(|f| (f.rule, f.line))
            .collect()
    };

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../arith/src/cost.rs");
    let src = std::fs::read_to_string(path).expect("cost.rs readable");
    assert!(a_findings(&src).is_empty(), "shipped cost.rs must prove clean");

    let start = src.find("debug_assert!(").expect("multiplier() precondition present");
    let end = start + src[start..].find(");").expect("assert closes") + 2;
    let stripped = format!("{}{}", &src[..start], &src[end..]);
    let product_line = stripped
        .lines()
        .position(|l| l.contains("(w * h)"))
        .map(|i| i as u32 + 1)
        .expect("multiplier's cell-count product present");
    let fired = a_findings(&stripped);
    assert!(
        fired.contains(&("A2", product_line)),
        "deleting the operand-width precondition must break the A2 proof of `w * h`, \
         got {fired:?}"
    );
}

// ------------------------------------------------- A2 casts (absint)

#[test]
fn a2_flags_lossy_casts_in_accounting_files() {
    assert_eq!(
        rules_at("crates/core/src/energy.rs", "fn f(c: u64) -> u32 { c as u32 }"),
        vec!["A2"]
    );
    assert_eq!(rules_at("crates/mem/src/sram.rs", "fn f(e: f64) -> f32 { e as f32 }"), vec!["A2"]);
    assert_eq!(
        rules_at("crates/multichip/src/comm.rs", "const C: u64 = 2.5 as u64;"),
        vec!["A2"],
        "float literal to int is lossy even at 64-bit width"
    );
    assert_eq!(
        rules_at("crates/core/src/bandwidth.rs", "fn f(c: u64) -> usize { c as usize }"),
        vec!["A2"],
        "usize counts as 32-bit"
    );
    // Unbounded float straight into a fixed-point integer: saturation
    // would silently corrupt the quantized value.
    let raw = "pub fn quantize(v: f32, scale: f32) -> i32 { (v * scale) as i32 }\n";
    assert_eq!(rules_at("crates/arith/src/fiem.rs", raw), vec!["A2"]);
    // An f32 holds integers exactly only within ±2^24.
    let to_f32 = "pub fn as_float(n: u32) -> f32 { n as f32 }\n";
    assert_eq!(rules_at("crates/mem/src/sram.rs", to_f32), vec!["A2"]);
}

#[test]
fn a2_ignores_widening_and_proven_casts_and_other_files() {
    let widening = "fn f(c: u32) -> u64 { c as u64 }\n\
                    fn g(c: u64) -> f64 { c as f64 }\n\
                    fn h(c: u32) -> usize { c as usize }\n\
                    fn k(c: u16) -> f32 { c as f32 }\n\
                    fn m(x: f32) -> f64 { x as f64 }\n";
    assert!(rules_at("crates/core/src/energy.rs", widening).is_empty());

    // The clamp pins the interval inside the destination type.
    let clamped =
        "pub fn quantize(v: f32, scale: f32) -> i32 { (v * scale).clamp(-1024.0, 1024.0) as i32 }\n";
    assert!(rules_at("crates/arith/src/fiem.rs", clamped).is_empty());
    let asserted = "pub fn as_float(n: u32) -> f32 {\n\
                    debug_assert!(n <= 1 << 24, \"exact in f32\");\n\
                    n as f32\n\
                    }\n";
    assert!(rules_at("crates/mem/src/sram.rs", asserted).is_empty());

    // A const initializer is evaluated at its declared type, as rustc
    // infers it: `1 << 32` is a u64 here, not an i32 overflow.
    let typed_const = "pub const MAX_RAYS: u64 = 1 << 32;\nconst WHOLE: u64 = 2.0 as u64;\n";
    assert!(rules_at("crates/multichip/src/comm.rs", typed_const).is_empty());

    // The same lossy cast outside the accounting files is exempt.
    let lossy = "fn f(c: u64) -> u32 { c as u32 }";
    assert!(rules_at("crates/core/src/chip.rs", lossy).is_empty());
}

#[test]
fn a2_bounds_a_signed_operand_by_range_not_by_abs() {
    // `i32::MIN.abs()` wraps to a negative in release builds, so an
    // `abs` check bounds nothing; the range form proves `int as f32`.
    let by_abs = "pub fn widen(int: i32) -> f32 {\n\
                  assert!(int.abs() <= 1 << 24, \"out of range\");\n\
                  int as f32\n\
                  }\n";
    assert_eq!(rules_at("crates/arith/src/fiem.rs", by_abs), vec!["A2"]);
    let by_range = "pub fn widen(int: i32) -> f32 {\n\
                    assert!((-(1 << 24)..=1 << 24).contains(&int), \"out of range\");\n\
                    int as f32\n\
                    }\n";
    assert!(rules_at("crates/arith/src/fiem.rs", by_range).is_empty());
}

#[test]
fn a2_allow_comment_suppresses_casts() {
    let drain = "// lint: allow(a2): accumulator drain floors by design\n\
                 fn f(acc: f64) -> u64 { acc as u32 as u64 }\n";
    assert!(rules_at("crates/core/src/pipeline_sim.rs", drain).is_empty());

    let quantize = "pub fn quantize(v: f32) -> i32 {\n\
                    // lint: allow(a2): the caller clamps v to the weight range\n\
                    v as i32\n\
                    }\n";
    assert!(rules_at("crates/arith/src/fiem.rs", quantize).is_empty());
}

// ------------------------------------------------------- A3 (absint)

#[test]
fn a3_flags_cross_unit_arithmetic() {
    // Unit tags come from name suffixes; adding cycles to bytes is a
    // category error no matter the integer widths.
    let src = "pub fn mixed(total_cycles: u64, payload_bytes: u64) -> u64 {\n\
               total_cycles + payload_bytes\n\
               }\n";
    assert_eq!(rules_at("crates/core/src/energy.rs", src), vec!["A3"]);

    let cmp = "pub fn odd(stall_cycles: u64, energy_pj: u64) -> bool {\n\
               stall_cycles > energy_pj\n\
               }\n";
    assert_eq!(rules_at("crates/core/src/energy.rs", cmp), vec!["A3"]);
}

#[test]
fn a3_accepts_same_unit_and_scaling_arithmetic() {
    let same = "pub fn total(busy_cycles: u64, stall_cycles: u64) -> u64 {\n\
                busy_cycles + stall_cycles\n\
                }\n";
    assert!(rules_at("crates/core/src/energy.rs", same).is_empty());

    // Multiplying a unit by a dimensionless count keeps the unit and
    // is legal (the operands are bounded so A2's overflow proof goes
    // through too — `*` is checked even at 64 bits).
    let scaled = "pub fn repeated(frame_cycles: u64, frames: u64) -> u64 {\n\
                  debug_assert!(frame_cycles < 1u64 << 32 && frames < 1 << 20, \"paper scale\");\n\
                  frame_cycles * frames\n\
                  }\n";
    assert!(rules_at("crates/core/src/energy.rs", scaled).is_empty());
}

#[test]
fn a3_allow_comment_suppresses() {
    let src = "pub fn packed(total_cycles: u64, payload_bytes: u64) -> u64 {\n\
               // lint: allow(a3): serialization packs both into one word\n\
               total_cycles + payload_bytes\n\
               }\n";
    assert!(rules_at("crates/core/src/energy.rs", src).is_empty());
}

// ------------------------------------------------------- A4 (absint)

#[test]
fn a4_rederives_the_fiem_exact_int_claim() {
    let wide = "pub const FIEM_MAX_INT: i64 = 1 << 25;\n";
    let fired = rules_at("crates/arith/src/fiem.rs", wide);
    assert!(fired.contains(&"A4"), "{fired:?}");

    let ok = "pub const FIEM_MAX_INT: i64 = 1 << 24;\n";
    assert!(rules_at("crates/arith/src/fiem.rs", ok).is_empty());
}
