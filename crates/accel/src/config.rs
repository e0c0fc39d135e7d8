//! Deployment images and the config-queue transfer model.
//!
//! The offline trainers embed the accelerator topology/weights and the
//! checker coefficients in the application binary; at startup the CPU
//! streams them to the accelerator through the config queue (Figure 4) and
//! the checker's coefficient buffers (Figure 7). This module models that
//! path: a [`DeploymentImage`] bundles the word streams, and
//! [`DeploymentImage::transfer`] accounts the queue bursts and cycles the
//! upload costs.

use rumba_nn::decode_model;

use crate::queue::Fifo;
use crate::{Npu, NpuParams};

/// The configuration payload embedded in an application binary: the
/// accelerator model plus (optionally) one checker's coefficient image.
///
/// # Examples
///
/// ```
/// use rumba_accel::{DeploymentImage, NpuParams};
/// use rumba_nn::{encode_model, Activation, NnDataset, TrainedModel, TrainParams};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let data = NnDataset::from_fn(1, 1, 32, |i, x, y| {
///     x[0] = i as f64;
///     y[0] = x[0];
/// })?;
/// let model = TrainedModel::fit(&[1, 2, 1], Activation::Sigmoid, &data,
///                               &TrainParams::default(), 0)?;
/// let image = DeploymentImage::new(encode_model(&model), Vec::new());
/// let npu = image.instantiate_npu(NpuParams::default())?;
/// assert_eq!(npu.input_dim(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DeploymentImage {
    npu_words: Vec<u64>,
    checker_words: Vec<u64>,
}

/// Cost accounting for one config upload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferReport {
    /// Total words streamed.
    pub words: usize,
    /// Queue bursts needed (the queue drains fully between bursts).
    pub bursts: usize,
    /// Cycles the upload occupied the interconnect.
    pub cycles: u64,
}

impl DeploymentImage {
    /// Bundles pre-encoded word streams (see [`rumba_nn::encode_model`],
    /// [`rumba_predict::encode_linear`] / [`rumba_predict::encode_tree`]).
    ///
    /// [`rumba_predict::encode_linear`]: https://docs.rs/rumba-predict
    /// [`rumba_predict::encode_tree`]: https://docs.rs/rumba-predict
    #[must_use]
    pub fn new(npu_words: Vec<u64>, checker_words: Vec<u64>) -> Self {
        Self { npu_words, checker_words }
    }

    /// The accelerator's portion of the stream.
    #[must_use]
    pub fn npu_words(&self) -> &[u64] {
        &self.npu_words
    }

    /// The checker's coefficient portion of the stream (may be empty).
    #[must_use]
    pub fn checker_words(&self) -> &[u64] {
        &self.checker_words
    }

    /// Total words in the image.
    #[must_use]
    pub fn total_words(&self) -> usize {
        self.npu_words.len() + self.checker_words.len()
    }

    /// Decodes the accelerator portion into a live [`Npu`].
    ///
    /// # Errors
    ///
    /// Propagates decode failures for corrupt or truncated images.
    pub fn instantiate_npu(&self, params: NpuParams) -> Result<Npu, String> {
        Ok(Npu::new(decode_model(&self.npu_words)?, params))
    }

    /// Streams the image through a config queue of the given capacity,
    /// charging `cycles_per_word` per transfer, and returns the cost.
    ///
    /// # Panics
    ///
    /// Panics if `queue_capacity` is zero (a queue cannot hold nothing).
    #[must_use]
    pub fn transfer(&self, queue_capacity: usize, cycles_per_word: u64) -> TransferReport {
        let mut queue: Fifo<u64> = Fifo::new(queue_capacity);
        let mut bursts = 0usize;
        let mut words = 0usize;
        for &w in self.npu_words.iter().chain(&self.checker_words) {
            if queue.push(w).is_err() {
                // Queue full: the accelerator drains a burst into its
                // buffers, then transfer resumes.
                bursts += 1;
                let _ = queue.drain().count();
                queue.push(w).expect("queue was just drained");
            }
            words += 1;
        }
        if !queue.is_empty() {
            bursts += 1;
        }
        TransferReport { words, bursts, cycles: words as u64 * cycles_per_word }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rumba_nn::{encode_model, Activation, NnDataset, TrainParams, TrainedModel};

    fn image() -> DeploymentImage {
        let data = NnDataset::from_fn(2, 1, 48, |i, x, y| {
            x[0] = i as f64;
            x[1] = (i * 2) as f64;
            y[0] = x[0] + x[1];
        })
        .unwrap();
        let model =
            TrainedModel::fit(&[2, 4, 1], Activation::Sigmoid, &data, &TrainParams::default(), 3)
                .unwrap();
        DeploymentImage::new(encode_model(&model), vec![1, 2, 3])
    }

    #[test]
    fn instantiated_npu_matches_source_model() {
        let data = NnDataset::from_fn(2, 1, 48, |i, x, y| {
            x[0] = i as f64;
            x[1] = (i * 2) as f64;
            y[0] = x[0] + x[1];
        })
        .unwrap();
        let model =
            TrainedModel::fit(&[2, 4, 1], Activation::Sigmoid, &data, &TrainParams::default(), 3)
                .unwrap();
        let image = DeploymentImage::new(encode_model(&model), Vec::new());
        let npu = image.instantiate_npu(NpuParams::default()).unwrap();
        assert_eq!(npu.invoke(&[3.0, 6.0]).unwrap().outputs, model.predict(&[3.0, 6.0]).unwrap());
    }

    #[test]
    fn corrupt_image_fails_to_instantiate() {
        let mut img = image();
        img.npu_words[0] = (-1f64).to_bits();
        assert!(img.instantiate_npu(NpuParams::default()).is_err());
    }

    #[test]
    fn transfer_counts_words_and_bursts() {
        let img = image();
        let total = img.total_words();
        let report = img.transfer(8, 4);
        assert_eq!(report.words, total);
        assert_eq!(report.cycles, total as u64 * 4);
        assert_eq!(report.bursts, total.div_ceil(8));
    }

    #[test]
    fn one_big_queue_means_one_burst() {
        let img = image();
        let report = img.transfer(10_000, 1);
        assert_eq!(report.bursts, 1);
    }

    #[test]
    #[should_panic(expected = "capacity must be nonzero")]
    fn zero_capacity_queue_rejected() {
        let _ = image().transfer(0, 1);
    }
}
