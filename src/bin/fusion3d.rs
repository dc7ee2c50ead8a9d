//! The `fusion3d` command-line tool: train, render, inspect, and
//! simulate without writing code.
//!
//! ```text
//! fusion3d train   --scene lego --iters 400 --out lego.f3dm
//! fusion3d render  --model lego.f3dm --scene lego --out view.ppm
//! fusion3d simulate --scene lego [--multichip]
//! fusion3d scenes
//! fusion3d chip-info
//! ```
//!
//! Scenes are the built-in procedural stand-ins (see `fusion3d scenes`
//! for the list); models are `.f3dm` containers produced by `train`.

use fusion3d::core::chip::FusionChip;
use fusion3d::nerf::camera::{orbit_poses, Camera};
use fusion3d::nerf::encoding::HashGridConfig;
use fusion3d::nerf::io::{decode_model_into, encode_model, Precision};
use fusion3d::nerf::pipeline::{render_image, trace_frame, PipelineConfig};
use fusion3d::nerf::{
    Dataset, LargeScene, ModelConfig, NerfModel, ProceduralScene, SamplerConfig, SyntheticScene,
    Trainer, TrainerConfig, Vec3,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("train") => cmd_train(&args[1..]),
        Some("render") => cmd_render(&args[1..]),
        Some("simulate") => cmd_simulate(&args[1..]),
        Some("scenes") => cmd_scenes(&args[1..]),
        Some("chip-info") => cmd_chip_info(&args[1..]),
        Some("help") | Some("--help") | Some("-h") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(format!("unknown command '{other}' (try 'fusion3d help')")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    println!(
        "fusion3d — instant 3D reconstruction and real-time rendering\n\
         \n\
         USAGE:\n\
           fusion3d train    --scene <name> [--iters N] [--seed N] [--f16] --out <file.f3dm>\n\
           fusion3d render   --model <file.f3dm> --scene <name> [--size N] --out <file.ppm>\n\
           fusion3d simulate --scene <name> [--multichip]\n\
           fusion3d scenes\n\
           fusion3d chip-info"
    );
}

/// Parses `command`'s arguments: `--key value` pairs and `--flag`
/// switches, each named in `accepted` with whether it takes a value.
/// Any other argument, and a value flag without its value, is an error.
fn parse_flags(
    command: &str,
    args: &[String],
    accepted: &[(&str, bool)],
) -> Result<Vec<(String, Option<String>)>, String> {
    let mut out = Vec::new();
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        let key = arg.strip_prefix("--").ok_or_else(|| format!("expected --flag, got '{arg}'"))?;
        let takes_value = accepted
            .iter()
            .find_map(|&(name, takes_value)| (name == key).then_some(takes_value))
            .ok_or_else(|| format!("unknown flag '{arg}' for '{command}'"))?;
        let value = if takes_value {
            let value = rest.next().filter(|v| !v.starts_with("--"));
            Some(value.ok_or_else(|| format!("{arg} needs a value"))?.clone())
        } else {
            None
        };
        out.push((key.to_string(), value));
    }
    Ok(out)
}

fn flag_value<'a>(flags: &'a [(String, Option<String>)], key: &str) -> Option<&'a str> {
    flags.iter().find(|(k, _)| k == key).and_then(|(_, v)| v.as_deref())
}

fn flag_present(flags: &[(String, Option<String>)], key: &str) -> bool {
    flags.iter().any(|(k, _)| k == key)
}

/// The value of flag `key` parsed as a `T`, or `default` when the flag
/// is absent. Values that do not parse or that `valid` rejects are an
/// error saying the flag must be `expected`.
fn parse_value<T: std::str::FromStr>(
    flags: &[(String, Option<String>)],
    key: &str,
    default: T,
    expected: &str,
    valid: impl Fn(&T) -> bool,
) -> Result<T, String> {
    let Some(value) = flag_value(flags, key) else {
        return Ok(default);
    };
    let parsed = value.parse().ok().filter(|v| valid(v));
    parsed.ok_or_else(|| format!("--{key} must be {expected}, got '{value}'"))
}

/// Largest accepted `render --size`: the frame buffer grows with its
/// square, so outside input must not choose it freely.
const MAX_RENDER_SIZE: u32 = 4096;

fn find_scene(name: &str) -> Result<ProceduralScene, String> {
    for s in SyntheticScene::ALL {
        if s.name() == name {
            return Ok(ProceduralScene::synthetic(s));
        }
    }
    for s in LargeScene::ALL {
        if s.name() == name {
            return Ok(ProceduralScene::large(s));
        }
    }
    Err(format!("unknown scene '{name}' (see 'fusion3d scenes')"))
}

fn cli_model_config() -> ModelConfig {
    ModelConfig {
        grid: HashGridConfig {
            levels: 6,
            features_per_level: 2,
            log2_table_size: 13,
            base_resolution: 8,
            max_resolution: 128,
        },
        hidden_dim: 32,
        geo_feature_dim: 7,
    }
}

fn cli_trainer_config(background: Vec3) -> TrainerConfig {
    TrainerConfig { background, ..TrainerConfig::default() }
}

fn cmd_train(args: &[String]) -> Result<(), String> {
    let accepted =
        [("scene", true), ("out", true), ("iters", true), ("seed", true), ("f16", false)];
    let flags = parse_flags("train", args, &accepted)?;
    let scene_name = flag_value(&flags, "scene").ok_or("train requires --scene")?;
    let out = flag_value(&flags, "out").ok_or("train requires --out")?;
    // Zero iterations would save an untrained model.
    let iters = parse_value(&flags, "iters", 400u32, "a positive integer", |&n| n > 0)?;
    let seed = parse_value(&flags, "seed", 42u64, "an integer", |_| true)?;
    let precision = if flag_present(&flags, "f16") { Precision::F16 } else { Precision::F32 };

    let scene = find_scene(scene_name)?;
    println!("Rendering training views of '{}'...", scene.name());
    let dataset = Dataset::from_scene(&scene, 8, 32, 0.9);

    let mut rng = SmallRng::seed_from_u64(seed);
    let model = NerfModel::new(cli_model_config(), &mut rng);
    println!("Training {} parameters for {iters} iterations...", model.param_count());
    let mut trainer = Trainer::new(model, cli_trainer_config(scene.background()));
    let started = std::time::Instant::now();
    for i in 0..iters {
        let stats = trainer.step(&dataset, &mut rng);
        if (i + 1) % 100 == 0 {
            println!("  iter {:>5}: loss {:.5}", i + 1, stats.loss);
        }
    }
    let psnr = trainer.evaluate_psnr(&dataset);
    println!("Done in {:.2?}: PSNR {psnr:.2} dB", started.elapsed());

    let (model, occupancy) = trainer.into_parts();
    let bytes = encode_model(&model, &occupancy, precision);
    std::fs::write(out, &bytes).map_err(|e| format!("writing {out}: {e}"))?;
    println!("Saved {} ({:.2} MB, {:?})", out, bytes.len() as f64 / 1e6, precision);
    Ok(())
}

fn cmd_render(args: &[String]) -> Result<(), String> {
    let accepted = [("model", true), ("scene", true), ("size", true), ("out", true)];
    let flags = parse_flags("render", args, &accepted)?;
    let model_path = flag_value(&flags, "model").ok_or("render requires --model")?;
    let scene_name =
        flag_value(&flags, "scene").ok_or("render requires --scene (for camera/background)")?;
    let out = flag_value(&flags, "out").ok_or("render requires --out")?;
    let expected = format!("an integer in 1..={MAX_RENDER_SIZE}");
    let size = parse_value(&flags, "size", 128, &expected, |n| (1..=MAX_RENDER_SIZE).contains(n))?;

    let scene = find_scene(scene_name)?;
    let data = std::fs::read(model_path).map_err(|e| format!("reading {model_path}: {e}"))?;
    let mut rng = SmallRng::seed_from_u64(0);
    let mut model = NerfModel::new(cli_model_config(), &mut rng);
    let occupancy = decode_model_into(&data, &mut model).map_err(|e| e.to_string())?;

    let pose = orbit_poses(Vec3::new(0.5, 0.4, 0.5), 1.25, 8)[2];
    let camera = Camera::new(pose, size, size, 0.9);
    let config = PipelineConfig {
        sampler: SamplerConfig { steps_per_diagonal: 192, max_samples_per_ray: 128 },
        background: scene.background(),
        early_stop: true,
    };
    println!("Rendering {size}x{size}...");
    let started = std::time::Instant::now();
    let image = render_image(&model, &occupancy, &camera, &config);
    println!("Rendered in {:.2?}", started.elapsed());
    std::fs::write(out, image.to_ppm()).map_err(|e| format!("writing {out}: {e}"))?;
    println!("Saved {out}");
    Ok(())
}

fn cmd_simulate(args: &[String]) -> Result<(), String> {
    let flags = parse_flags("simulate", args, &[("scene", true), ("multichip", false)])?;
    let scene_name = flag_value(&flags, "scene").ok_or("simulate requires --scene")?;
    let scene = find_scene(scene_name)?;
    let occupancy = scene.occupancy_grid(32);
    let pose = orbit_poses(Vec3::new(0.5, 0.4, 0.5), 1.25, 8)[2];
    let camera = Camera::new(pose, 160, 160, 0.9);
    let sampler = SamplerConfig { steps_per_diagonal: 512, max_samples_per_ray: 256 };
    let trace = trace_frame(&occupancy, &camera, &sampler);
    let scale = 800.0 * 800.0 / trace.ray_count() as f64;

    let chip = FusionChip::scaled_up();
    let frame = chip.simulate_frame(&trace);
    let train = chip.simulate_training_step(&trace);
    println!("Scene '{}' on the scaled-up Fusion-3D chip:", scene.name());
    println!(
        "  inference: {:.1} M pts/s sustained, {:.1} ms per 800x800 frame ({:.0} FPS)",
        frame.points_per_second() / 1e6,
        frame.seconds * scale * 1e3,
        1.0 / (frame.seconds * scale)
    );
    println!(
        "  training:  {:.1} M pts/s; {:.2} s for a 398 M-sample run to 25 PSNR",
        train.points_per_second() / 1e6,
        398e6 / train.points_per_second()
    );
    println!(
        "  energy:    {:.2} nJ/pt inference, {:.2} nJ/pt training",
        chip.config().typical_power_w / frame.points_per_second() * 1e9,
        chip.config().typical_power_w / train.points_per_second() * 1e9
    );

    if flag_present(&flags, "multichip") {
        use fusion3d::multichip::moe::partition_occupancy;
        use fusion3d::multichip::system::MultiChipSystem;
        let system = MultiChipSystem::fusion3d();
        let per_chip: Vec<fusion3d::nerf::FrameTrace> = partition_occupancy(&occupancy, 4)
            .iter()
            .map(|gate| trace_frame(gate, &camera, &sampler))
            .collect();
        let report = system.simulate(&per_chip, false);
        println!(
            "  multi-chip (4 chips): {:.2} ms/frame at trace scale, imbalance {:.2}",
            report.total_seconds * 1e3,
            report.imbalance()
        );
    }
    Ok(())
}

fn cmd_scenes(args: &[String]) -> Result<(), String> {
    parse_flags("scenes", args, &[])?;
    println!("Object scenes (NeRF-Synthetic class):");
    for s in SyntheticScene::ALL {
        let scene = ProceduralScene::synthetic(s);
        println!(
            "  {:<10} {} primitives, {:.1}% occupied",
            s.name(),
            scene.primitive_count(),
            scene.occupancy_ratio(12, 0.04) * 100.0
        );
    }
    println!("Large scenes (NeRF-360 class):");
    for s in LargeScene::ALL {
        let scene = ProceduralScene::large(s);
        println!(
            "  {:<10} {} primitives, {:.1}% occupied",
            s.name(),
            scene.primitive_count(),
            scene.occupancy_ratio(12, 0.04) * 100.0
        );
    }
    Ok(())
}

fn cmd_chip_info(args: &[String]) -> Result<(), String> {
    parse_flags("chip-info", args, &[])?;
    use fusion3d::core::config::{ChipConfig, Module};
    for (label, cfg) in
        [("Prototype", ChipConfig::prototype()), ("Scaled-up", ChipConfig::scaled_up())]
    {
        println!(
            "{label}: {:.1} mm^2, {:.0} KB SRAM, {:.0} MHz @ {:.2} V, {:.2} W",
            cfg.die_area_mm2,
            cfg.total_sram_kb(),
            cfg.clock_mhz,
            cfg.core_voltage,
            cfg.typical_power_w
        );
        for m in Module::ALL {
            println!(
                "    {:<16} {:>5.2} mm^2  {:>6.3} W",
                m.name(),
                cfg.module_area_mm2(m),
                cfg.module_power_w(m)
            );
        }
    }
    let chip = FusionChip::scaled_up();
    println!(
        "Peak: {:.0} M pts/s inference, {:.0} M pts/s training; {:.2}/{:.2} nJ per point",
        chip.peak_inference_points_per_second() / 1e6,
        chip.peak_training_points_per_second() / 1e6,
        chip.inference_energy_per_point_nj(),
        chip.training_energy_per_point_nj()
    );
    Ok(())
}
