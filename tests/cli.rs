//! The `fusion3d` binary rejects bad input with an `error:` line and
//! exit code 1 — never a panic (exit code 101). None of these runs
//! needs a model file: each is refused before any file is read, so the
//! error names the bad argument, not the missing model.

use std::process::Command;

fn assert_rejected(args: &[&str], names: &str) {
    let output = Command::new(env!("CARGO_BIN_EXE_fusion3d"))
        .args(args)
        .output()
        .expect("the fusion3d binary runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{args:?} exited with {:?}: {stderr}", output.status);
    assert!(
        stderr.lines().any(|line| line.starts_with("error: ") && line.contains(names)),
        "{args:?} printed no error line naming {names}: {stderr}"
    );
}

fn render_with_size(size: &str) -> [&str; 9] {
    ["render", "--model", "missing.f3dm", "--scene", "lego", "--size", size, "--out", "unused.ppm"]
}

#[test]
fn render_rejects_a_size_out_of_range_or_not_a_number() {
    for size in ["0", "4097", "abc"] {
        assert_rejected(&render_with_size(size), "--size");
    }
}

#[test]
fn render_rejects_an_unknown_scene() {
    let args = ["render", "--model", "missing.f3dm", "--scene", "nope", "--out", "x.ppm"];
    assert_rejected(&args, "nope");
}

#[test]
fn unknown_commands_are_rejected() {
    assert_rejected(&["frobnicate"], "unknown command");
}

#[test]
fn commands_reject_flags_they_do_not_take() {
    assert_rejected(&["chip-info", "--foo"], "--foo");
    assert_rejected(&["scenes", "--verbose"], "--verbose");
    assert_rejected(&["simulate", "--scene", "lego", "--multichipp"], "--multichipp");
    assert_rejected(&["train", "--scene", "lego", "--size", "64", "--out", "x.f3dm"], "--size");
}

#[test]
fn a_flag_missing_its_value_is_rejected() {
    assert_rejected(&["train", "--scene", "lego", "--out"], "--out");
    assert_rejected(&["simulate", "--scene", "--multichip"], "--scene");
}

#[test]
fn train_rejects_zero_iterations() {
    let out = concat!(env!("CARGO_TARGET_TMPDIR"), "/zero_iterations.f3dm");
    let _ = std::fs::remove_file(out);
    assert_rejected(&["train", "--scene", "lego", "--iters", "0", "--out", out], "--iters");
    assert!(!std::path::Path::new(out).exists(), "an untrained container was written");
}

/// FNV-1a, 64-bit.
fn fnv1a_64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Training is bit-stable: 50 Lego iterations, across the occupancy
/// refresh at step 48, and 100, across the refreshes at 48, 72 and 96
/// (after which a gradient shard trains in one grouped model call),
/// write the containers whose digests are pinned here. Any change to a
/// training kernel's arithmetic or order moves them; a change that
/// only makes training faster must not.
#[test]
fn training_writes_the_pinned_container() {
    for (iters, digest) in [("50", 0x4fdb_ec6d_dffb_4470), ("100", 0x53d5_63c7_e6c9_a747)] {
        let out = format!("{}/pinned_lego_{iters}.f3dm", env!("CARGO_TARGET_TMPDIR"));
        run_ok(&["train", "--scene", "lego", "--iters", iters, "--out", &out]);
        let bytes = std::fs::read(&out).expect("the trained container was written");
        assert_eq!(fnv1a_64(&bytes), digest, "{iters} iterations, {} bytes", bytes.len());
    }
}

/// Runs the binary with `args` and returns its stdout, failing the test
/// on a nonzero exit.
fn run_ok(args: &[&str]) -> Vec<u8> {
    let output = Command::new(env!("CARGO_BIN_EXE_fusion3d"))
        .args(args)
        .output()
        .expect("the fusion3d binary runs");
    assert!(output.status.success(), "{args:?}: {}", String::from_utf8_lossy(&output.stderr));
    output.stdout
}

/// Rendering is bit-stable: the 64 × 64 frame of the pinned 50-iteration
/// Lego container has the digest pinned here. Stage I, the model and the
/// compositing all feed it, so a change to any of them that moves a
/// pixel fails this test.
#[test]
fn rendering_the_pinned_container_writes_the_pinned_frame() {
    let model = concat!(env!("CARGO_TARGET_TMPDIR"), "/pinned_lego_50_for_render.f3dm");
    let frame = concat!(env!("CARGO_TARGET_TMPDIR"), "/pinned_lego_50_64.ppm");
    run_ok(&["train", "--scene", "lego", "--iters", "50", "--out", model]);
    run_ok(&["render", "--model", model, "--scene", "lego", "--size", "64", "--out", frame]);
    let bytes = std::fs::read(frame).expect("the rendered frame was written");
    assert_eq!(fnv1a_64(&bytes), 0x1778_b235_76cf_b030, "{} bytes", bytes.len());
}

/// The chip model is bit-stable: the multi-chip Lego report, built from
/// Stage-I frame traces of the scene and its four expert gates, prints
/// the text whose digest is pinned here.
#[test]
fn multichip_simulation_prints_the_pinned_report() {
    let stdout = run_ok(&["simulate", "--scene", "lego", "--multichip"]);
    assert_eq!(fnv1a_64(&stdout), 0x0e77_ff39_30bf_911e, "{}", String::from_utf8_lossy(&stdout));
}
