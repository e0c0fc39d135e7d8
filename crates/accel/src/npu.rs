//! The neural processing unit: an 8-PE accelerator evaluating one trained
//! MLP per invocation, with a cycle model derived from how neurons schedule
//! onto processing elements.

use rumba_faults::FaultPlan;
use rumba_nn::{FixedModel, Matrix, MatrixView, NnError, RowEdit, Scratch, TrainedModel};

/// Microarchitectural parameters of the accelerator.
///
/// Defaults match the paper's 8-PE NPU configuration; the `ablate_pe_count`
/// harness sweeps `pe_count`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NpuParams {
    /// Number of processing elements evaluating neurons in parallel.
    pub pe_count: usize,
    /// Pipeline fill/drain overhead charged per scheduled neuron wave.
    pub wave_overhead: u64,
    /// Queue-transfer cycles charged per word moved through the input and
    /// output FIFOs.
    pub io_cycles_per_word: u64,
    /// Fixed invocation overhead (enqueue/dequeue handshake).
    pub invocation_overhead: u64,
    /// Datapath precision in fractional bits; `None` is the paper's
    /// full-precision digital NPU, `Some(b)` models a limited-precision
    /// (analog-style) implementation whose values live on a `2^-b` grid —
    /// the "dial up the approximation" knob the `ablate_precision` harness
    /// sweeps.
    pub precision_bits: Option<u32>,
    /// Evaluate the limited-precision datapath on the true `i16`/`i32`
    /// fixed-point path ([`rumba_nn::FixedModel`]) instead of the f64
    /// grid simulation. Only meaningful with `precision_bits: Some(_)`
    /// (ignored otherwise); off by default so existing configurations and
    /// goldens are untouched.
    pub fixed_point: bool,
}

impl Default for NpuParams {
    fn default() -> Self {
        // Calibrated so kernel-level accelerator gains land in the paper's
        // 2–7x band (Figure 18 quotes 6.67x for the fastest configuration):
        // queue transfers dominate small-topology invocations.
        Self {
            pe_count: 8,
            wave_overhead: 4,
            io_cycles_per_word: 4,
            invocation_overhead: 16,
            precision_bits: None,
            fixed_point: false,
        }
    }
}

/// Output of one accelerator invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct NpuResult {
    /// The approximate outputs, in application units.
    pub outputs: Vec<f64>,
    /// Cycles the invocation occupied the accelerator.
    pub cycles: u64,
}

/// The accelerator: a [`TrainedModel`] plus the scheduling cycle model.
///
/// See the [crate docs](crate) for a usage example.
#[derive(Debug, Clone, PartialEq)]
pub struct Npu {
    model: TrainedModel,
    params: NpuParams,
    cycles_per_invocation: u64,
    fault_plan: Option<FaultPlan>,
    /// Prepared once at construction when `params.fixed_point` asks for
    /// the integer datapath, so invocations pay no quantization setup.
    fixed: Option<FixedModel>,
}

impl Npu {
    /// Builds an accelerator around an offline-trained model.
    ///
    /// # Panics
    ///
    /// Panics if `params.pe_count` is zero.
    #[must_use]
    pub fn new(model: TrainedModel, params: NpuParams) -> Self {
        assert!(params.pe_count > 0, "accelerator needs at least one PE");
        let cycles_per_invocation = cycle_model(&model, &params);
        let fixed = match (params.fixed_point, params.precision_bits) {
            (true, Some(bits)) => Some(model.prepare_fixed(bits)),
            _ => None,
        };
        Self { model, params, cycles_per_invocation, fault_plan: None, fixed }
    }

    /// Attaches a fault-injection plan (builder style). With a plan
    /// attached, [`Npu::invoke_at`] and [`Npu::invoke_batch`] corrupt the
    /// datapath exactly as the plan dictates; without one, the hooks are
    /// never consulted and the fault-off path is byte-identical to a build
    /// that has no fault support at all.
    #[must_use]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.set_fault_plan(Some(plan));
        self
    }

    /// Attaches or detaches the fault-injection plan. Empty plans are
    /// normalized to `None` so the hot path needs only one check.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.fault_plan = plan.filter(|p| !p.is_empty());
    }

    /// The attached fault-injection plan, if any.
    #[must_use]
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault_plan.as_ref()
    }

    /// Evaluates one invocation.
    ///
    /// With a fault plan attached this is invocation index 0; streams that
    /// care about per-invocation fault positions use [`Npu::invoke_at`].
    ///
    /// # Errors
    ///
    /// Returns a dimension error if `input` does not match the configured
    /// topology.
    pub fn invoke(&self, input: &[f64]) -> Result<NpuResult, NnError> {
        self.invoke_at(0, input)
    }

    /// Evaluates one invocation at stream position `invocation` — the
    /// coordinate fault decisions are keyed on, so a streaming caller
    /// passing its running index gets bit-identical corruption to a
    /// batched [`Npu::invoke_batch`] run over the same rows.
    ///
    /// # Errors
    ///
    /// Returns a dimension error if `input` does not match the configured
    /// topology.
    pub fn invoke_at(&self, invocation: usize, input: &[f64]) -> Result<NpuResult, NnError> {
        let mut drifted;
        let effective: &[f64] = match &self.fault_plan {
            Some(plan) if plan.has_input_faults() => {
                drifted = input.to_vec();
                plan.drift_input(invocation, &mut drifted);
                &drifted
            }
            _ => input,
        };
        let mut outputs = match (&self.fixed, self.params.precision_bits) {
            (Some(fixed), _) => fixed.predict(effective)?,
            (None, Some(bits)) => self.model.predict_quantized(effective, bits)?,
            (None, None) => self.model.predict(effective)?,
        };
        if let Some(plan) = &self.fault_plan {
            plan.corrupt_output(invocation, &mut outputs);
        }
        Ok(NpuResult { outputs, cycles: self.cycles_per_invocation })
    }

    /// Evaluates many invocations through the row-tile batched model path,
    /// writing row `i`'s outputs into `out.row(i)` and returning the
    /// per-invocation cycle cost (a constant of the configuration, so one
    /// number covers the whole batch). Row chunks fan out over the
    /// deterministic pool; each row is bit-identical to [`Npu::invoke`] at
    /// any thread count, and with a reused `scratch`/`out` pair the
    /// single-thread path allocates nothing in steady state.
    ///
    /// # Errors
    ///
    /// Returns a dimension error if `inputs` does not match the configured
    /// topology.
    pub fn invoke_batch(
        &self,
        inputs: MatrixView<'_>,
        scratch: &mut Scratch,
        out: &mut Matrix,
    ) -> Result<u64, NnError> {
        self.invoke_batch_at(0, inputs, scratch, out)
    }

    /// [`Npu::invoke_batch`] for a batch starting at stream position
    /// `base`: row `i` is treated as invocation `base + i` for every fault
    /// decision, so a mid-stream drain batch (the serving scheduler's case)
    /// is corrupted bit-identically to per-row [`Npu::invoke_at`] calls at
    /// the same stream positions.
    ///
    /// # Errors
    ///
    /// Returns a dimension error if `inputs` does not match the configured
    /// topology.
    pub fn invoke_batch_at(
        &self,
        base: usize,
        inputs: MatrixView<'_>,
        scratch: &mut Scratch,
        out: &mut Matrix,
    ) -> Result<u64, NnError> {
        self.invoke_keyed(|row| base + row, inputs, scratch, out)
    }

    /// [`Npu::invoke_batch_at`] for a *gathered* batch: row `i` of
    /// `inputs` is treated as stream invocation `positions[i]` for every
    /// fault decision. The model-zoo router uses this to dispatch the
    /// subset of a window routed to one tier as a single flat-matrix
    /// batch (keeping the SIMD paths hot) while every row's fault stream
    /// stays keyed on its true stream position — so a routed run is
    /// corrupted bit-identically to per-row [`Npu::invoke_at`] calls.
    ///
    /// # Errors
    ///
    /// Returns a dimension error if `inputs` does not match the configured
    /// topology.
    ///
    /// # Panics
    ///
    /// Panics if `positions.len()` differs from `inputs.rows()`.
    pub fn invoke_rows_at(
        &self,
        positions: &[usize],
        inputs: MatrixView<'_>,
        scratch: &mut Scratch,
        out: &mut Matrix,
    ) -> Result<u64, NnError> {
        assert_eq!(positions.len(), inputs.rows(), "one stream position per gathered row");
        self.invoke_keyed(|row| positions[row], inputs, scratch, out)
    }

    /// The one batched invocation body: row `i` of `inputs` is stream
    /// invocation `position(i)` for every fault decision. Input drift
    /// corrupts the accelerator's input-FIFO view, so it is applied to
    /// each row as the model loads it (an edit into the workspace's
    /// staging row, no copy of the batch); output corruption is applied
    /// serially afterwards. Both are pure functions of (seed, invocation,
    /// element), so the result is bit-identical to per-row
    /// [`Npu::invoke_at`] calls at any thread count.
    fn invoke_keyed(
        &self,
        position: impl Fn(usize) -> usize + Sync,
        inputs: MatrixView<'_>,
        scratch: &mut Scratch,
        out: &mut Matrix,
    ) -> Result<u64, NnError> {
        let plan = self.fault_plan.as_ref();
        let position = &position;
        let drift = plan.filter(|plan| plan.has_input_faults()).map(|plan| {
            move |row: usize, values: &mut [f64]| {
                plan.drift_input(position(row), values);
            }
        });
        let edit = drift.as_ref().map(|drift| drift as &RowEdit<'_>);
        match &self.fixed {
            Some(fixed) => fixed.predict_batch_with(inputs, edit, scratch, out)?,
            None => self.model.predict_batch_with(
                inputs,
                self.params.precision_bits,
                edit,
                scratch,
                out,
            )?,
        }
        if let Some(plan) = plan.filter(|plan| plan.has_output_faults()) {
            for row in 0..out.rows() {
                plan.corrupt_output(position(row), out.row_mut(row));
            }
        }
        Ok(self.cycles_per_invocation)
    }

    /// Cycles every invocation costs (the model is static, so this is a
    /// constant per configuration).
    #[must_use]
    pub fn cycles_per_invocation(&self) -> u64 {
        self.cycles_per_invocation
    }

    /// Total multiply-accumulates one invocation performs.
    #[must_use]
    pub fn macs_per_invocation(&self) -> usize {
        self.model.mlp().mac_count()
    }

    /// The underlying trained model.
    #[must_use]
    pub fn model(&self) -> &TrainedModel {
        &self.model
    }

    /// The prepared fixed-point lowering, when `params.fixed_point`
    /// selected the integer datapath.
    #[must_use]
    pub fn fixed_model(&self) -> Option<&FixedModel> {
        self.fixed.as_ref()
    }

    /// The accelerator's microarchitectural parameters.
    #[must_use]
    pub fn params(&self) -> &NpuParams {
        &self.params
    }

    /// Width of the input port.
    #[must_use]
    pub fn input_dim(&self) -> usize {
        self.model.mlp().input_dim()
    }

    /// Width of the output port.
    #[must_use]
    pub fn output_dim(&self) -> usize {
        self.model.mlp().output_dim()
    }
}

/// Per-invocation cycles: for each layer, neurons are issued to PEs in
/// waves of `pe_count`; each wave streams the layer's inputs through its
/// MAC chain (`in_dim` cycles) plus sigmoid/pipeline overhead. Input and
/// output words pay queue transfer cost, plus a fixed handshake.
fn cycle_model(model: &TrainedModel, params: &NpuParams) -> u64 {
    let mlp = model.mlp();
    let mut cycles = params.invocation_overhead;
    cycles += params.io_cycles_per_word * (mlp.input_dim() as u64 + mlp.output_dim() as u64);
    for layer in mlp.layers() {
        let waves = layer.out_dim().div_ceil(params.pe_count) as u64;
        cycles += waves * (layer.in_dim() as u64 + params.wave_overhead);
    }
    cycles
}

#[cfg(test)]
mod tests {
    use super::*;
    use rumba_nn::{Activation, NnDataset, TrainParams, TrainedModel};

    fn toy_model(topology: &[usize]) -> TrainedModel {
        let data = NnDataset::from_fn(topology[0], *topology.last().unwrap(), 32, |i, x, y| {
            for (j, v) in x.iter_mut().enumerate() {
                *v = (i + j) as f64 / 32.0;
            }
            for v in y.iter_mut() {
                *v = i as f64 / 32.0;
            }
        })
        .unwrap();
        let params = TrainParams { epochs: 2, ..TrainParams::default() };
        TrainedModel::fit(topology, Activation::Sigmoid, &data, &params, 0).unwrap()
    }

    #[test]
    fn cycle_model_matches_hand_count() {
        // Topology 3->8->8->1 on 8 PEs:
        //   layer 1: ceil(8/8)=1 wave * (3 + 4) = 7
        //   layer 2: 1 wave * (8 + 4) = 12
        //   layer 3: 1 wave * (8 + 4) = 12
        //   io: (3 + 1) words * 4 = 16, overhead 16  → total 63.
        let npu = Npu::new(toy_model(&[3, 8, 8, 1]), NpuParams::default());
        assert_eq!(npu.cycles_per_invocation(), 63);
    }

    #[test]
    fn fewer_pes_cost_more_cycles() {
        let model = toy_model(&[4, 16, 2]);
        let fast = Npu::new(model.clone(), NpuParams { pe_count: 16, ..NpuParams::default() });
        let slow = Npu::new(model, NpuParams { pe_count: 2, ..NpuParams::default() });
        assert!(slow.cycles_per_invocation() > fast.cycles_per_invocation());
    }

    #[test]
    fn bigger_networks_cost_more_cycles() {
        let small = Npu::new(toy_model(&[2, 2, 2]), NpuParams::default());
        let large = Npu::new(toy_model(&[2, 32, 32, 2]), NpuParams::default());
        assert!(large.cycles_per_invocation() > small.cycles_per_invocation());
    }

    #[test]
    fn invoke_validates_width() {
        let npu = Npu::new(toy_model(&[2, 2, 1]), NpuParams::default());
        assert!(npu.invoke(&[1.0]).is_err());
        assert!(npu.invoke(&[1.0, 2.0]).is_ok());
    }

    #[test]
    #[should_panic(expected = "at least one PE")]
    fn zero_pes_rejected() {
        let _ = Npu::new(toy_model(&[2, 2, 1]), NpuParams { pe_count: 0, ..NpuParams::default() });
    }

    #[test]
    fn limited_precision_perturbs_outputs() {
        let model = toy_model(&[2, 8, 1]);
        let exact = Npu::new(model.clone(), NpuParams::default());
        let analog = Npu::new(model, NpuParams { precision_bits: Some(3), ..NpuParams::default() });
        let x = [0.31, 0.77];
        let a = exact.invoke(&x).unwrap().outputs[0];
        let b = analog.invoke(&x).unwrap().outputs[0];
        assert_ne!(a, b, "3-bit datapath must deviate from full precision");
    }

    #[test]
    fn invoke_batch_matches_invoke_bitwise() {
        for precision in [None, Some(4)] {
            let params = NpuParams { precision_bits: precision, ..NpuParams::default() };
            let npu = Npu::new(toy_model(&[2, 6, 2]), params);
            let flat: Vec<f64> = (0..40).map(|i| i as f64 / 7.0).collect();
            let inputs = MatrixView::new(&flat, 20, 2);
            let (mut scratch, mut out) = (Scratch::new(), Matrix::default());
            let cycles = npu.invoke_batch(inputs, &mut scratch, &mut out).unwrap();
            assert_eq!(cycles, npu.cycles_per_invocation());
            for i in 0..20 {
                let serial = npu.invoke(inputs.row(i)).unwrap();
                let batch_bits: Vec<u64> = out.row(i).iter().map(|x| x.to_bits()).collect();
                let row_bits: Vec<u64> = serial.outputs.iter().map(|x| x.to_bits()).collect();
                assert_eq!(batch_bits, row_bits, "precision {precision:?} row {i}");
            }
        }
    }

    #[test]
    fn fixed_point_requires_precision_bits() {
        let model = toy_model(&[2, 6, 2]);
        let no_bits =
            Npu::new(model.clone(), NpuParams { fixed_point: true, ..NpuParams::default() });
        assert!(no_bits.fixed_model().is_none(), "fixed_point without bits is a no-op");
        let armed = Npu::new(
            model,
            NpuParams { fixed_point: true, precision_bits: Some(10), ..NpuParams::default() },
        );
        assert_eq!(armed.fixed_model().unwrap().frac_bits(), 10);
    }

    #[test]
    fn fixed_point_batch_matches_fixed_point_serial_bitwise() {
        let params =
            NpuParams { fixed_point: true, precision_bits: Some(12), ..NpuParams::default() };
        let npu = Npu::new(toy_model(&[2, 6, 2]), params);
        let flat: Vec<f64> = (0..40).map(|i| i as f64 / 7.0).collect();
        let inputs = MatrixView::new(&flat, 20, 2);
        let (mut scratch, mut out) = (Scratch::new(), Matrix::default());
        let cycles = npu.invoke_batch(inputs, &mut scratch, &mut out).unwrap();
        assert_eq!(cycles, npu.cycles_per_invocation());
        for i in 0..20 {
            let serial = npu.invoke(inputs.row(i)).unwrap();
            let batch_bits: Vec<u64> = out.row(i).iter().map(|x| x.to_bits()).collect();
            let row_bits: Vec<u64> = serial.outputs.iter().map(|x| x.to_bits()).collect();
            assert_eq!(batch_bits, row_bits, "row {i}");
        }
    }

    #[test]
    fn fixed_point_stays_near_the_float_datapath() {
        let model = toy_model(&[2, 8, 1]);
        let float_npu = Npu::new(model.clone(), NpuParams::default());
        let fixed_npu = Npu::new(
            model,
            NpuParams { fixed_point: true, precision_bits: Some(14), ..NpuParams::default() },
        );
        let x = [0.31, 0.77];
        let a = float_npu.invoke(&x).unwrap().outputs[0];
        let b = fixed_npu.invoke(&x).unwrap().outputs[0];
        assert!((a - b).abs() < 0.1, "integer datapath drifted: {a} vs {b}");
    }

    #[test]
    fn invocations_are_deterministic() {
        let npu = Npu::new(toy_model(&[2, 4, 1]), NpuParams::default());
        let a = npu.invoke(&[0.25, 0.75]).unwrap();
        let b = npu.invoke(&[0.25, 0.75]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_fault_plan_is_normalized_away() {
        let clean = Npu::new(toy_model(&[2, 4, 1]), NpuParams::default());
        let hooked = clean.clone().with_fault_plan(rumba_faults::FaultPlan::new(1));
        assert!(hooked.fault_plan().is_none(), "empty plans must not arm the hooks");
        assert_eq!(clean, hooked);
    }

    #[test]
    fn faulted_batch_matches_faulted_serial_invocations_bitwise() {
        use rumba_faults::{FaultModel, FaultPlan};
        let plan = FaultPlan::new(0xfa17)
            .with(FaultModel::BitFlip { rate: 0.1 })
            .with(FaultModel::NonFinite { rate: 0.05 })
            .with(FaultModel::StuckAt { start: 4, value: 0.5 })
            .with(FaultModel::InputDrift { start: 6, ramp: 4, magnitude: 0.2 });
        let npu = Npu::new(toy_model(&[2, 6, 2]), NpuParams::default()).with_fault_plan(plan);
        let flat: Vec<f64> = (0..40).map(|i| i as f64 / 7.0).collect();
        let inputs = MatrixView::new(&flat, 20, 2);
        let (mut scratch, mut out) = (Scratch::new(), Matrix::default());
        npu.invoke_batch(inputs, &mut scratch, &mut out).unwrap();
        let mut any_corruption = false;
        for i in 0..20 {
            let serial = npu.invoke_at(i, inputs.row(i)).unwrap();
            let batch_bits: Vec<u64> = out.row(i).iter().map(|x| x.to_bits()).collect();
            let row_bits: Vec<u64> = serial.outputs.iter().map(|x| x.to_bits()).collect();
            assert_eq!(batch_bits, row_bits, "row {i}");
            let clean = {
                let mut bare = npu.clone();
                bare.set_fault_plan(None);
                bare.invoke(inputs.row(i)).unwrap().outputs
            };
            any_corruption |=
                clean.iter().map(|x| x.to_bits()).ne(serial.outputs.iter().map(|x| x.to_bits()));
        }
        assert!(any_corruption, "the plan must actually corrupt something over 20 rows");
    }

    #[test]
    fn offset_batch_matches_serial_invocations_at_the_same_stream_positions() {
        use rumba_faults::{FaultModel, FaultPlan};
        // A drain batch starting mid-stream must key every fault decision
        // on the stream position, not the batch-local row index.
        let plan = FaultPlan::new(0x5e55)
            .with(FaultModel::BitFlip { rate: 0.15 })
            .with(FaultModel::StuckAt { start: 10, value: 0.25 })
            .with(FaultModel::InputDrift { start: 8, ramp: 6, magnitude: 0.3 });
        let npu = Npu::new(toy_model(&[2, 6, 2]), NpuParams::default()).with_fault_plan(plan);
        let flat: Vec<f64> = (0..24).map(|i| i as f64 / 5.0).collect();
        let inputs = MatrixView::new(&flat, 12, 2);
        for base in [0usize, 7, 13] {
            let (mut scratch, mut out) = (Scratch::new(), Matrix::default());
            npu.invoke_batch_at(base, inputs, &mut scratch, &mut out).unwrap();
            for i in 0..12 {
                let serial = npu.invoke_at(base + i, inputs.row(i)).unwrap();
                let batch_bits: Vec<u64> = out.row(i).iter().map(|x| x.to_bits()).collect();
                let row_bits: Vec<u64> = serial.outputs.iter().map(|x| x.to_bits()).collect();
                assert_eq!(batch_bits, row_bits, "base {base} row {i}");
            }
        }
    }

    #[test]
    fn gathered_rows_match_serial_invocations_at_their_true_positions() {
        use rumba_faults::{FaultModel, FaultPlan};
        // A routed sub-batch gathers non-contiguous stream positions; every
        // fault decision must key on the true position, not the gathered
        // row index — for the float, quantized, and fixed-point datapaths.
        let plan = FaultPlan::new(0x2007)
            .with(FaultModel::BitFlip { rate: 0.2 })
            .with(FaultModel::InputDrift { start: 3, ramp: 5, magnitude: 0.25 });
        for params in [
            NpuParams::default(),
            NpuParams { precision_bits: Some(8), ..NpuParams::default() },
            NpuParams { precision_bits: Some(10), fixed_point: true, ..NpuParams::default() },
        ] {
            let npu = Npu::new(toy_model(&[2, 6, 2]), params).with_fault_plan(plan.clone());
            let positions = [2usize, 5, 11, 17, 23];
            let flat: Vec<f64> = (0..10).map(|i| i as f64 / 3.0).collect();
            let gathered = MatrixView::new(&flat, 5, 2);
            let (mut scratch, mut out) = (Scratch::new(), Matrix::default());
            let cycles = npu.invoke_rows_at(&positions, gathered, &mut scratch, &mut out).unwrap();
            assert_eq!(cycles, npu.cycles_per_invocation());
            for (i, &pos) in positions.iter().enumerate() {
                let serial = npu.invoke_at(pos, gathered.row(i)).unwrap();
                let batch_bits: Vec<u64> = out.row(i).iter().map(|x| x.to_bits()).collect();
                let row_bits: Vec<u64> = serial.outputs.iter().map(|x| x.to_bits()).collect();
                assert_eq!(batch_bits, row_bits, "params {params:?} position {pos}");
            }
        }
    }

    #[test]
    fn contiguous_gathered_rows_match_invoke_batch_at_bitwise() {
        let npu = Npu::new(toy_model(&[2, 6, 2]), NpuParams::default());
        let flat: Vec<f64> = (0..40).map(|i| i as f64 / 7.0).collect();
        let inputs = MatrixView::new(&flat, 20, 2);
        let positions: Vec<usize> = (9..29).collect();
        let (mut s1, mut plain) = (Scratch::new(), Matrix::default());
        npu.invoke_batch_at(9, inputs, &mut s1, &mut plain).unwrap();
        let (mut s2, mut routed) = (Scratch::new(), Matrix::default());
        npu.invoke_rows_at(&positions, inputs, &mut s2, &mut routed).unwrap();
        let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&plain), bits(&routed));
    }

    #[test]
    fn fault_off_batch_is_byte_identical_with_hooks_compiled_in() {
        let npu = Npu::new(toy_model(&[2, 6, 2]), NpuParams::default());
        let flat: Vec<f64> = (0..40).map(|i| i as f64 / 7.0).collect();
        let inputs = MatrixView::new(&flat, 20, 2);
        let (mut scratch, mut out) = (Scratch::new(), Matrix::default());
        npu.invoke_batch(inputs, &mut scratch, &mut out).unwrap();
        let mut hooked = npu.clone().with_fault_plan(rumba_faults::FaultPlan::new(3));
        hooked.set_fault_plan(None);
        let (mut scratch2, mut out2) = (Scratch::new(), Matrix::default());
        hooked.invoke_batch(inputs, &mut scratch2, &mut out2).unwrap();
        let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&out), bits(&out2));
    }
}
