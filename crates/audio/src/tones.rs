use rand::{Rng, RngCore};
use semcom_nn::rng::{derive_seed, seeded_rng};

/// Samples per melody waveform.
pub const WAVE_SAMPLES: usize = 64;

/// Notes per melody.
const NOTES: usize = 3;
/// Frequency alphabet size.
const FREQS: usize = 8;
/// Samples per note segment.
const SEGMENT: usize = WAVE_SAMPLES / NOTES;

/// A synthetic audio modality: each auditory concept is a deterministic
/// three-note melody; renderings add Gaussian noise and amplitude jitter.
///
/// Frequencies are chosen so each note completes an integer number of
/// half-cycles per segment, keeping prototypes well separated under
/// correlation.
#[derive(Debug, Clone, PartialEq)]
pub struct ToneSet {
    /// `prototypes[c]` = the clean waveform of concept `c`'s melody.
    prototypes: Vec<Vec<f32>>,
    /// Standard deviation of additive acoustic noise in samples.
    pub acoustic_noise: f32,
}

fn note_wave(freq_idx: usize, out: &mut [f32]) {
    // Cycles per segment: 1..=FREQS, all distinguishable over SEGMENT
    // samples.
    let cycles = (freq_idx + 1) as f32;
    let n = out.len() as f32;
    for (i, s) in out.iter_mut().enumerate() {
        *s = (2.0 * std::f32::consts::PI * cycles * i as f32 / n).sin();
    }
}

impl ToneSet {
    /// Creates `n_concepts` distinct melodies from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `n_concepts == 0` or exceeds the melody space
    /// (`FREQS^NOTES = 512`).
    pub fn new(n_concepts: usize, seed: u64) -> Self {
        assert!(n_concepts > 0, "need at least one melody");
        assert!(
            n_concepts <= FREQS.pow(NOTES as u32),
            "melody space exhausted"
        );
        let mut rng = seeded_rng(derive_seed(seed, 0));
        let mut melodies: Vec<[usize; NOTES]> = Vec::with_capacity(n_concepts);
        while melodies.len() < n_concepts {
            let m = [
                rng.gen_range(0..FREQS),
                rng.gen_range(0..FREQS),
                rng.gen_range(0..FREQS),
            ];
            if !melodies.contains(&m) {
                melodies.push(m);
            }
        }
        let prototypes = melodies
            .iter()
            .map(|m| {
                let mut wave = vec![0.0f32; WAVE_SAMPLES];
                for (k, &f) in m.iter().enumerate() {
                    note_wave(f, &mut wave[k * SEGMENT..(k + 1) * SEGMENT]);
                }
                wave
            })
            .collect();
        ToneSet {
            prototypes,
            acoustic_noise: 0.15,
        }
    }

    /// Number of auditory concepts.
    pub fn len(&self) -> usize {
        self.prototypes.len()
    }

    /// Whether the set is empty (never: `new` rejects zero).
    pub fn is_empty(&self) -> bool {
        self.prototypes.is_empty()
    }

    /// The clean prototype waveform of a concept.
    ///
    /// # Panics
    ///
    /// Panics if `concept` is out of range.
    pub fn prototype_of(&self, concept: usize) -> &[f32] {
        &self.prototypes[concept]
    }

    /// Draws a random concept and a noisy rendering of it.
    pub fn sample(&self, rng: &mut dyn RngCore) -> (Vec<f32>, usize) {
        let concept = rng.gen_range(0..self.prototypes.len());
        (self.render(concept, rng), concept)
    }

    /// Renders a noisy, amplitude-jittered waveform of `concept`.
    ///
    /// # Panics
    ///
    /// Panics if `concept` is out of range.
    pub fn render(&self, concept: usize, rng: &mut dyn RngCore) -> Vec<f32> {
        let amp = 0.8 + 0.4 * rng.gen::<f32>();
        let prototype = &self.prototypes[concept];
        let mut wave = vec![0.0; prototype.len()];
        semcom_nn::rng::fill_standard_normal(rng, &mut wave);
        for (w, &s) in wave.iter_mut().zip(prototype) {
            *w = amp * s + self.acoustic_noise * *w;
        }
        wave
    }
}

/// Correlation (matched-filter) classification — the classical receiver
/// for the raw-waveform baseline.
#[derive(Debug, Clone)]
pub struct MatchedFilter {
    prototypes: Vec<Vec<f32>>,
}

impl MatchedFilter {
    /// Builds the filter bank from a tone set.
    pub fn new(tones: &ToneSet) -> Self {
        MatchedFilter {
            prototypes: (0..tones.len())
                .map(|c| tones.prototype_of(c).to_vec())
                .collect(),
        }
    }

    /// The concept whose prototype correlates best with `waveform`.
    ///
    /// # Panics
    ///
    /// Panics if `waveform.len() != WAVE_SAMPLES`.
    pub fn classify(&self, waveform: &[f32]) -> usize {
        assert_eq!(waveform.len(), WAVE_SAMPLES, "wrong waveform length");
        let mut best = 0;
        let mut best_corr = f32::NEG_INFINITY;
        for (c, p) in self.prototypes.iter().enumerate() {
            let corr: f32 = p.iter().zip(waveform).map(|(a, b)| a * b).sum();
            if corr > best_corr {
                best_corr = corr;
                best = c;
            }
        }
        best
    }

    /// Channel symbols to ship a raw waveform as analog I/Q samples.
    pub fn symbols_per_melody(&self) -> usize {
        WAVE_SAMPLES / 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn melodies_are_deterministic_and_distinct() {
        let a = ToneSet::new(12, 3);
        let b = ToneSet::new(12, 3);
        assert_eq!(a, b);
        for i in 0..12 {
            for j in (i + 1)..12 {
                assert_ne!(a.prototype_of(i), a.prototype_of(j));
            }
        }
    }

    #[test]
    fn prototypes_have_unit_scale_oscillation() {
        let t = ToneSet::new(4, 1);
        for c in 0..4 {
            let p = t.prototype_of(c);
            let max = p.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
            assert!(max > 0.9 && max <= 1.0, "max amplitude {max}");
        }
    }

    #[test]
    fn matched_filter_recovers_noisy_samples() {
        let t = ToneSet::new(10, 2);
        let mf = MatchedFilter::new(&t);
        let mut rng = seeded_rng(5);
        let mut correct = 0;
        let n = 200;
        for _ in 0..n {
            let (wave, label) = t.sample(&mut rng);
            if mf.classify(&wave) == label {
                correct += 1;
            }
        }
        assert!(correct as f64 / n as f64 > 0.95, "{correct}/{n}");
    }

    #[test]
    fn heavy_noise_confuses_the_filter() {
        let mut t = ToneSet::new(10, 2);
        t.acoustic_noise = 3.0;
        let mf = MatchedFilter::new(&t);
        let mut rng = seeded_rng(6);
        let mut correct = 0;
        let n = 150;
        for _ in 0..n {
            let (wave, label) = t.sample(&mut rng);
            if mf.classify(&wave) == label {
                correct += 1;
            }
        }
        assert!(
            (correct as f64 / n as f64) < 0.95,
            "noise should hurt: {correct}/{n}"
        );
    }

    #[test]
    fn symbol_cost_is_half_samples() {
        let t = ToneSet::new(3, 1);
        assert_eq!(MatchedFilter::new(&t).symbols_per_melody(), 32);
    }

    #[test]
    #[should_panic(expected = "melody space exhausted")]
    fn too_many_concepts_rejected() {
        ToneSet::new(513, 1);
    }
}
