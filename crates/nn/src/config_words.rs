//! Config-stream serialization of trained models.
//!
//! The paper embeds the accelerator configuration in the application binary
//! and ships it to the NPU through the config queue (Figure 4). This module
//! defines that wire format for [`TrainedModel`]: a self-describing stream
//! of `f64` words, each carried as its `u64` bit pattern —
//!
//! ```text
//! [magic, input_dim, output_dim, n_layers,
//!  layer sizes...,
//!  hidden activation code,
//!  flat parameters (weights then biases per layer)...,
//!  input normalizer  (lo, hi, mins..., maxs...),
//!  output normalizer (lo, hi, mins..., maxs...)]
//! ```
//!
//! Counts are stored as exact small integers, which `f64` represents
//! losslessly. The decoder reads through one [`WordReader`] and checks
//! every count against the words that remain — the parameter count with
//! checked arithmetic before the network is allocated — so a corrupt
//! stream is an error, never a panic or an oversized allocation.

use rumba_obs::words::{push_f64s, read_all, WordReader};

use crate::mlp::param_count;
use crate::{Activation, Mlp, Normalizer, TrainedModel};

/// Magic word marking the start of a model config stream.
pub const MODEL_MAGIC: f64 = 0x52_4D_42_41 as f64; // "RMBA"

/// Activations by their config code.
const ACTIVATIONS: [Activation; 4] =
    [Activation::Sigmoid, Activation::Tanh, Activation::Relu, Activation::Identity];

/// Serializes a trained model into config words.
///
/// # Examples
///
/// ```
/// use rumba_nn::{encode_model, decode_model, Activation, NnDataset, TrainedModel, TrainParams};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let data = NnDataset::from_fn(1, 1, 64, |i, x, y| {
///     x[0] = i as f64;
///     y[0] = 2.0 * x[0];
/// })?;
/// let model = TrainedModel::fit(&[1, 2, 1], Activation::Sigmoid, &data,
///                               &TrainParams::default(), 1)?;
/// let words = encode_model(&model);
/// let restored = decode_model(&words)?;
/// assert_eq!(model.predict(&[10.0])?, restored.predict(&[10.0])?);
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn encode_model(model: &TrainedModel) -> Vec<u64> {
    let mlp = model.mlp();
    let topo = mlp.topology();
    let mut words = vec![MODEL_MAGIC.to_bits()];
    let counts =
        [mlp.input_dim(), mlp.output_dim(), topo.len()].into_iter().chain(topo.iter().copied());
    words.extend(counts.map(|n| (n as f64).to_bits()));
    // Hidden activation (output layer is always identity by construction).
    let hidden_act = mlp.layers().first().map_or(Activation::Sigmoid, |l| l.activation());
    let code = ACTIVATIONS.iter().position(|&a| a == hidden_act).expect("every activation");
    words.push((code as f64).to_bits());
    push_f64s(&mut words, &mlp.to_flat_params());
    for norm in [model.input_norm(), model.output_norm()] {
        let (lo, hi) = norm.range();
        push_f64s(&mut words, &[lo, hi]);
        push_f64s(&mut words, norm.mins());
        push_f64s(&mut words, norm.maxs());
    }
    words
}

/// Reconstructs a [`TrainedModel`] from [`encode_model`] output.
///
/// # Errors
///
/// Returns the name of the first malformed field: a bad magic word or
/// activation code, a topology that disagrees with the declared widths or
/// asks for more parameters than the stream holds, a truncated stream, or
/// trailing words.
pub fn decode_model(words: &[u64]) -> Result<TrainedModel, String> {
    read_all(words, "model", |r| {
        if r.u64("model.magic")? != MODEL_MAGIC.to_bits() {
            return Err("model.magic: not a model config stream".to_owned());
        }
        // Every width and layer size is bounded by the words that must
        // follow it, so none can exceed the remaining stream.
        let input_dim = r.f64_count("model.input_dim", r.remaining())?;
        let output_dim = r.f64_count("model.output_dim", r.remaining())?;
        let n_layers = r.f64_count("model.n_layers", r.remaining())?;
        let topo = (0..n_layers)
            .map(|_| r.f64_count("model.layer", r.remaining()))
            .collect::<Result<Vec<_>, _>>()?;
        if topo.first() != Some(&input_dim) || topo.last() != Some(&output_dim) {
            return Err(format!("model.topology: {topo:?} is not {input_dim} -> {output_dim}"));
        }
        let hidden_act = ACTIVATIONS[r.f64_count("model.activation", ACTIVATIONS.len() - 1)?];
        if topo.len() == 2 && hidden_act != Activation::Identity {
            return Err("model.activation: a network without hidden layers is identity".into());
        }
        let params = param_count(&topo)
            .filter(|&n| n <= r.remaining())
            .ok_or_else(|| format!("model.params: {topo:?} wants more than the stream holds"))?;
        let mlp = Mlp::from_flat_params(&topo, hidden_act, &r.f64s("model.params", params)?)
            .map_err(|e| format!("model.topology: {e}"))?;
        let input_norm = read_normalizer(r, input_dim)?;
        let output_norm = read_normalizer(r, output_dim)?;
        Ok(TrainedModel::from_parts(mlp, input_norm, output_norm))
    })
}

fn read_normalizer(r: &mut WordReader, dim: usize) -> Result<Normalizer, String> {
    let (lo, hi) = (r.f64("model.norm.lo")?, r.f64("model.norm.hi")?);
    let mins = r.f64s("model.norm.mins", dim)?;
    let maxs = r.f64s("model.norm.maxs", dim)?;
    Ok(Normalizer::from_bounds(mins, maxs, lo, hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NnDataset, TrainParams};

    fn model() -> TrainedModel {
        let data = NnDataset::from_fn(2, 1, 64, |i, x, y| {
            x[0] = i as f64;
            x[1] = (i * 3 % 7) as f64;
            y[0] = x[0] + 2.0 * x[1];
        })
        .unwrap();
        TrainedModel::fit(&[2, 4, 1], Activation::Tanh, &data, &TrainParams::default(), 9).unwrap()
    }

    fn f(v: f64) -> u64 {
        v.to_bits()
    }

    #[test]
    fn round_trip_preserves_predictions_and_words() {
        let m = model();
        let words = encode_model(&m);
        let restored = decode_model(&words).unwrap();
        for i in 0..10 {
            let x = [i as f64, (i * 2) as f64];
            assert_eq!(m.predict(&x).unwrap(), restored.predict(&x).unwrap());
        }
        assert_eq!(restored.mlp().layers()[0].activation(), Activation::Tanh);
        assert_eq!(encode_model(&restored), words);
    }

    #[test]
    fn malformed_streams_are_rejected_naming_the_field() {
        let words = encode_model(&model());
        let with = |at: usize, word: u64| {
            let mut w = words.clone();
            w[at] = word;
            decode_model(&w).unwrap_err()
        };
        assert!(with(0, f(123.0)).starts_with("model.magic"));
        assert!(with(1, f(-3.0)).starts_with("model.input_dim"));
        assert!(with(1, f(2.5)).starts_with("model.input_dim"));
        assert!(with(7, f(0.5)).starts_with("model.activation"));
        for cut in [1, 5, words.len() / 2, words.len() - 1] {
            assert!(decode_model(&words[..cut]).is_err(), "cut at {cut}");
        }
        let mut trailing = words.clone();
        trailing.push(0);
        assert!(decode_model(&trailing).unwrap_err().contains("trailing"));
    }

    #[test]
    fn huge_layer_count_is_rejected_without_allocating() {
        // A decoder that reserves `n_layers` slots up front asks for 8 GB
        // here and aborts the process.
        let mut words = encode_model(&model());
        words[3] = f(1e9);
        assert!(decode_model(&words).unwrap_err().starts_with("model.n_layers"));
    }

    #[test]
    fn topology_without_parameters_behind_it_is_rejected_before_allocating() {
        // A declared [2, hidden, 1] network with `tail` words behind it.
        // Building the `Mlp` before checking that the stream holds its
        // parameters would allocate 4e8 weights for [2, 1e8, 1].
        let stream = |hidden: f64, tail: usize| {
            let mut w = vec![f(MODEL_MAGIC), f(2.0), f(1.0), f(3.0), f(2.0), f(hidden), f(1.0)];
            w.push(f(0.0));
            w.extend(vec![0; tail]);
            w
        };
        assert!(decode_model(&stream(1e8, 16)).unwrap_err().starts_with("model.layer"));
        // Sizes within the stream, parameters not: 2*100 + 100 + 100 + 1
        // = 401 words wanted, 300 present.
        assert!(decode_model(&stream(100.0, 300)).unwrap_err().starts_with("model.params"));
        // The parameter count itself cannot overflow into acceptance.
        assert_eq!(param_count(&[usize::MAX, 2, 1]), None);
        assert_eq!(param_count(&[2, 4, 1]), Some(2 * 4 + 4 + 4 + 1));
    }

    #[test]
    fn layerless_network_carries_the_identity_code() {
        let data = NnDataset::from_fn(1, 1, 16, |i, x, y| {
            x[0] = i as f64;
            y[0] = x[0];
        })
        .unwrap();
        let m = TrainedModel::fit(&[1, 1], Activation::Sigmoid, &data, &TrainParams::default(), 1)
            .unwrap();
        let mut words = encode_model(&m);
        assert_eq!(encode_model(&decode_model(&words).unwrap()), words);
        words[6] = f(0.0);
        assert!(decode_model(&words).unwrap_err().starts_with("model.activation"));
    }
}
