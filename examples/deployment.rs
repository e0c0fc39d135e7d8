//! Deployment flow: the offline trainers produce a configuration image
//! (accelerator weights + checker coefficients) that is embedded in the
//! application binary and streamed to the accelerator through the config
//! queue at startup — the full Figure-4 path, end to end.
//!
//! ```text
//! cargo run --release --example deployment
//! ```

use rumba::accel::{CheckerUnit, DeploymentImage, NpuParams};
use rumba::apps::{kernel_by_name, Split};
use rumba::core::runtime::{RumbaSystem, RuntimeConfig};
use rumba::core::trainer::{train_app, OfflineConfig};
use rumba::core::tuner::{Tuner, TuningMode};
use rumba::nn::encode_model;
use rumba::predict::{decode_tree, encode_tree};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let kernel = kernel_by_name("fft").expect("built-in benchmark");

    // ---- build machine: offline training produces the config image ----
    let app = train_app(kernel.as_ref(), &OfflineConfig { seed: 42, ..OfflineConfig::default() })?;
    let image = DeploymentImage::new(encode_model(app.rumba_npu.model()), encode_tree(&app.tree));
    println!(
        "deployment image: {} words ({} accelerator + {} checker)",
        image.total_words(),
        image.npu_words().len(),
        image.checker_words().len()
    );

    // ---- target machine: stream the image through the config queue ----
    let transfer = image.transfer(32, 4);
    println!(
        "config upload: {} words in {} bursts, {} cycles",
        transfer.words, transfer.bursts, transfer.cycles
    );
    let npu = image.instantiate_npu(NpuParams::default())?;
    let checker = decode_tree(image.checker_words(), npu.input_dim())?;

    // ---- run the reconstituted system online ----
    let mut system = RumbaSystem::new(
        npu,
        CheckerUnit::new(Box::new(checker)),
        Tuner::new(TuningMode::TargetQuality { toq: 0.90 }, 0.05)?,
        RuntimeConfig::default(),
    )?;
    let test = kernel.generate(Split::Test, 42);
    let outcome = system.run(kernel.as_ref(), &test)?;

    println!("\nreconstituted system on {}:", kernel.name());
    println!("  output error: {:.1}%", outcome.output_error * 100.0);
    println!("  re-executed:  {} / {} iterations", outcome.fixes, test.len());

    // Sanity: identical to running the original (never-serialized) system.
    let mut original = RumbaSystem::new(
        app.rumba_npu.clone(),
        CheckerUnit::new(Box::new(app.tree)),
        Tuner::new(TuningMode::TargetQuality { toq: 0.90 }, 0.05)?,
        RuntimeConfig::default(),
    )?;
    let reference = original.run(kernel.as_ref(), &test)?;
    assert_eq!(outcome.merged_outputs, reference.merged_outputs);
    println!("  bit-identical to the never-serialized system: yes");
    Ok(())
}
