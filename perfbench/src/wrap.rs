//! Outside-in instrumentation: wrappers that implement the program's own
//! public traits and time the calls that pass through them.
//!
//! * [`TimedLayer`] wraps one `haccs_nn::Layer` and adds its forward and
//!   backward wall time to a shared [`LayerClock`],
//! * [`timed_factory`] is a `ModelFactory` that assembles the MLP from the
//!   public layer constructors, wraps every layer, and counts builds,
//! * [`TimedSelector`] wraps any `haccs_fedsim::Selector` and records each
//!   `select` call as a span.
//!
//! All counters are atomics: the coordinator trains on its worker
//! threads, so layers run off the benchmark's main thread.

use crate::stats::Series;
use crate::trace::{DrainSink, Tracer};
use haccs_fedsim::engine::ModelFactory;
use haccs_fedsim::persist::{PersistError, SnapshotReader, SnapshotWriter};
use haccs_fedsim::{SelectionContext, Selector};
use haccs_nn::{Layer, Linear, Relu, Sequential};
use haccs_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// Layer families the per-layer metrics are reported by.
#[derive(Debug, Clone, Copy)]
pub enum LayerKind {
    Conv2d = 0,
    Linear = 1,
    /// ReLU, MaxPool2 and Flatten.
    Elementwise = 2,
}

impl LayerKind {
    pub const ALL: [LayerKind; 3] = [LayerKind::Conv2d, LayerKind::Linear, LayerKind::Elementwise];

    fn of(layer: &dyn Layer) -> Self {
        match layer.name() {
            "Conv2d" => LayerKind::Conv2d,
            "Linear" => LayerKind::Linear,
            _ => LayerKind::Elementwise,
        }
    }
}

/// Forward/backward nanoseconds per layer family, plus the call count.
#[derive(Debug, Default)]
pub struct LayerClock {
    fwd_ns: [AtomicU64; 3],
    bwd_ns: [AtomicU64; 3],
    calls: AtomicU64,
}

/// A point-in-time copy of a [`LayerClock`], in milliseconds.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTimes {
    pub fwd_ms: [f64; 3],
    pub bwd_ms: [f64; 3],
    pub calls: u64,
}

impl LayerClock {
    pub fn read(&self) -> LayerTimes {
        let ms = |a: &[AtomicU64; 3]| a.each_ref().map(|x| x.load(Relaxed) as f64 / 1e6);
        LayerTimes {
            fwd_ms: ms(&self.fwd_ns),
            bwd_ms: ms(&self.bwd_ns),
            calls: self.calls.load(Relaxed),
        }
    }
}

impl LayerTimes {
    /// Per-family difference `self − earlier`.
    pub fn since(&self, earlier: &LayerTimes) -> LayerTimes {
        LayerTimes {
            fwd_ms: std::array::from_fn(|i| self.fwd_ms[i] - earlier.fwd_ms[i]),
            bwd_ms: std::array::from_fn(|i| self.bwd_ms[i] - earlier.bwd_ms[i]),
            calls: self.calls - earlier.calls,
        }
    }

    pub fn plus(&self, other: &LayerTimes) -> LayerTimes {
        LayerTimes {
            fwd_ms: std::array::from_fn(|i| self.fwd_ms[i] + other.fwd_ms[i]),
            bwd_ms: std::array::from_fn(|i| self.bwd_ms[i] + other.bwd_ms[i]),
            calls: self.calls + other.calls,
        }
    }

    pub fn total_ms(&self) -> f64 {
        self.fwd_ms.iter().chain(&self.bwd_ms).sum()
    }

    /// Pushes one round's times under the `nn.*` metric names.
    pub fn push_to(&self, series: &mut Series) {
        const NAMES: [(&str, &str); 3] = [
            ("nn.conv2d.fwd_ms", "nn.conv2d.bwd_ms"),
            ("nn.linear.fwd_ms", "nn.linear.bwd_ms"),
            ("nn.elementwise.fwd_ms", "nn.elementwise.bwd_ms"),
        ];
        for kind in LayerKind::ALL {
            let (fwd, bwd) = NAMES[kind as usize];
            series.push(fwd, self.fwd_ms[kind as usize]);
            series.push(bwd, self.bwd_ms[kind as usize]);
        }
        series.push("nn.layer_calls", self.calls as f64);
    }
}

/// A layer whose forward and backward calls are timed into a clock.
pub struct TimedLayer {
    inner: Box<dyn Layer>,
    kind: LayerKind,
    clock: Arc<LayerClock>,
}

impl TimedLayer {
    pub fn new(inner: Box<dyn Layer>, clock: Arc<LayerClock>) -> Self {
        let kind = LayerKind::of(inner.as_ref());
        TimedLayer { inner, kind, clock }
    }
}

impl Layer for TimedLayer {
    fn forward(&mut self, x: Tensor) -> Tensor {
        let t = Instant::now();
        let y = self.inner.forward(x);
        self.clock.fwd_ns[self.kind as usize].fetch_add(t.elapsed().as_nanos() as u64, Relaxed);
        self.clock.calls.fetch_add(1, Relaxed);
        y
    }

    fn backward(&mut self, dy: Tensor) -> Tensor {
        let t = Instant::now();
        let dx = self.inner.backward(dy);
        self.clock.bwd_ns[self.kind as usize].fetch_add(t.elapsed().as_nanos() as u64, Relaxed);
        self.clock.calls.fetch_add(1, Relaxed);
        dx
    }

    fn params(&mut self) -> Vec<(&mut [f32], &[f32])> {
        self.inner.params()
    }

    fn param_views(&self) -> Vec<&[f32]> {
        self.inner.param_views()
    }

    fn param_count(&self) -> usize {
        self.inner.param_count()
    }

    fn zero_grad(&mut self) {
        self.inner.zero_grad()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Shape of the MLP `haccs_nn::ModelKind::Mlp` builds for
/// `channels × side × side` inputs.
#[derive(Debug, Clone, Copy)]
pub struct MlpShape {
    pub channels: usize,
    pub side: usize,
    pub classes: usize,
}

impl MlpShape {
    /// `ModelKind::Mlp`'s hidden widths.
    const HIDDEN: [usize; 2] = [64, 32];

    /// The plain model, as the program builds it.
    pub fn build(&self, seed: u64) -> Sequential {
        haccs_nn::ModelKind::Mlp.build(
            self.channels,
            self.side,
            self.classes,
            &mut StdRng::seed_from_u64(seed),
        )
    }

    /// The same model assembled layer by layer from the public
    /// constructors (same RNG draws in the same order), every layer
    /// wrapped in a [`TimedLayer`] on `clock`.
    pub fn build_timed(&self, seed: u64, clock: &Arc<LayerClock>) -> Sequential {
        let rng = &mut StdRng::seed_from_u64(seed);
        let mut layers: Vec<Box<dyn Layer>> = Vec::new();
        let mut prev = self.channels * self.side * self.side;
        for h in Self::HIDDEN {
            layers.push(Box::new(Linear::new(prev, h, rng)));
            layers.push(Box::new(Relu::new()));
            prev = h;
        }
        layers.push(Box::new(Linear::new(prev, self.classes, rng)));
        layers
            .into_iter()
            .fold(Sequential::new(), |m, l| m.add(Box::new(TimedLayer::new(l, clock.clone()))))
    }
}

/// Layer clocks and the build counter behind one [`timed_factory`].
#[derive(Debug, Default)]
pub struct ModelProbe {
    /// Clock of the first model built — the global/evaluation model both
    /// `FedSim::new` and `Coordinator::new` build before anything else.
    pub eval: Arc<LayerClock>,
    /// Clock of every later model: loss probes and local training.
    pub train: Arc<LayerClock>,
    pub builds: AtomicU64,
}

impl ModelProbe {
    /// Both clocks together.
    pub fn layers(&self) -> LayerTimes {
        self.eval.read().plus(&self.train.read())
    }
}

/// Everything a traced run instruments: the benchmark's spans, the
/// model's layer clocks and the program's own spans.
#[derive(Default)]
pub struct Probes {
    pub tracer: Tracer,
    pub model: Arc<ModelProbe>,
    pub sink: DrainSink,
}

/// A `ModelFactory` producing [`MlpShape::build_timed`] models and
/// counting every build on `probe`.
pub fn timed_factory(shape: MlpShape, seed: u64, probe: Arc<ModelProbe>) -> ModelFactory {
    Box::new(move || {
        let clock =
            if probe.builds.fetch_add(1, Relaxed) == 0 { &probe.eval } else { &probe.train };
        shape.build_timed(seed, clock)
    })
}

/// Checks that the wrapped assembly starts from exactly the parameters
/// `ModelKind::build` gives for the same seed.
pub fn timed_matches_plain(shape: MlpShape, seed: u64) -> bool {
    let plain = shape.build(seed).get_params();
    let timed = shape.build_timed(seed, &Arc::default()).get_params();
    plain.len() == timed.len() && plain.iter().zip(&timed).all(|(a, b)| a.to_bits() == b.to_bits())
}

/// A selector whose `select` calls are recorded as `span` spans.
pub struct TimedSelector<S> {
    inner: S,
    tracer: Tracer,
    span: &'static str,
}

impl<S: Selector> TimedSelector<S> {
    pub fn new(inner: S, tracer: Tracer, span: &'static str) -> Self {
        TimedSelector { inner, tracer, span }
    }
}

impl<S: Selector> Selector for TimedSelector<S> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn select(&mut self, ctx: &SelectionContext<'_>, rng: &mut StdRng) -> Vec<usize> {
        let id = self.tracer.enter(self.span);
        let out = self.inner.select(ctx, rng);
        self.tracer.exit(id);
        out
    }

    fn observe_round(&mut self, epoch: usize, participants: &[usize], losses: &[f32]) {
        self.inner.observe_round(epoch, participants, losses)
    }

    fn observe_faults(&mut self, epoch: usize, failed: &[usize]) {
        self.inner.observe_faults(epoch, failed)
    }

    fn wants_updates(&self) -> bool {
        self.inner.wants_updates()
    }

    fn observe_update(&mut self, epoch: usize, id: usize, delta: &[f32]) {
        self.inner.observe_update(epoch, id, delta)
    }

    fn save_state(&self, w: &mut SnapshotWriter) {
        self.inner.save_state(w)
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), PersistError> {
        self.inner.load_state(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_mlp_matches_the_program_build_and_counts() {
        let shape = MlpShape { channels: 3, side: 8, classes: 10 };
        assert!(timed_matches_plain(shape, 11));
        let probe = Arc::new(ModelProbe::default());
        let factory = timed_factory(shape, 11, probe.clone());
        let mut m = factory();
        let _ = factory();
        let y = m.forward(Tensor::zeros(&[2, 192]));
        m.backward(Tensor::full(y.shape(), 1.0));
        assert_eq!(probe.builds.load(Relaxed), 2);
        assert_eq!(probe.eval.read().calls, 10);
        assert_eq!(probe.train.read().calls, 0);
    }
}
