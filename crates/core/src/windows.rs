//! Sensitivity-aware window scheduling.
//!
//! The plain round-robin schedule visits every layer window equally often.
//! A LUC sensitivity profile tells us more: windows containing fragile
//! layers benefit from more frequent tuning visits, while robust layers can
//! be refreshed rarely. [`sensitivity_window_schedule`] turns a profile
//! into a weighted [`WindowSchedule::Ordered`] visit list — one of the
//! design-choice ablations listed in `DESIGN.md`.

use edge_llm_luc::SensitivityProfile;
use edge_llm_model::{LayerWindow, WindowSchedule};

/// Maximum visit multiplier for the most sensitive window.
const MAX_WEIGHT: usize = 3;

/// Builds an ordered window schedule where each depth-`depth` window is
/// visited 1–3 times per cycle, proportional to the mean sensitivity of
/// its layers.
///
/// Falls back to plain round-robin when the profile is flat (all layers
/// equally sensitive) — including the all-zero profile of an untrained
/// model.
///
/// # Panics
///
/// Panics if `depth == 0`.
pub fn sensitivity_window_schedule(profile: &SensitivityProfile, depth: usize) -> WindowSchedule {
    assert!(depth > 0, "window depth must be positive");
    let n = profile.n_layers();
    let depth = depth.min(n);
    let scores = profile.layer_scores();
    let windows: Vec<(LayerWindow, f32)> = (WindowSchedule::RoundRobin { depth }.cycle(n))
        .into_iter()
        .map(|w| (w, scores[w.start..w.end].iter().sum::<f32>() / depth as f32))
        .collect();
    let max = windows.iter().map(|(_, s)| *s).fold(0.0f32, f32::max);
    if max <= 0.0 {
        return WindowSchedule::RoundRobin { depth };
    }
    let weights: Vec<usize> = windows
        .iter()
        .map(|(_, s)| 1 + ((s / max) * (MAX_WEIGHT - 1) as f32).round() as usize)
        .collect();
    if weights.iter().all(|&w| w == weights[0]) {
        return WindowSchedule::RoundRobin { depth };
    }
    // weighted round-robin: round r visits every window whose weight > r,
    // keeping visits interleaved rather than bursty
    let mut order = Vec::new();
    for round in 0..MAX_WEIGHT {
        for ((window, _), &w) in windows.iter().zip(weights.iter()) {
            if w > round {
                order.push(*window);
            }
        }
    }
    WindowSchedule::Ordered(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use edge_llm_luc::{profile, FnOracle, LayerPolicy};
    use edge_llm_quant::BitWidth;

    fn profile_with_weights(weights: Vec<f32>) -> SensitivityProfile {
        let n = weights.len();
        let mut oracle = FnOracle::new(
            n,
            move |layer, p: LayerPolicy| {
                1.0 + weights[layer] * ((16.0 - p.bits.bits() as f32) / 16.0 + p.prune_ratio)
            },
            || 1.0,
        );
        profile(&mut oracle, &[BitWidth::W2], &[0.5]).unwrap()
    }

    #[test]
    fn flat_profile_falls_back_to_round_robin() {
        let prof = profile_with_weights(vec![1.0; 4]);
        assert_eq!(
            sensitivity_window_schedule(&prof, 2),
            WindowSchedule::RoundRobin { depth: 2 }
        );
        let zero = profile_with_weights(vec![0.0; 4]);
        assert_eq!(
            sensitivity_window_schedule(&zero, 2),
            WindowSchedule::RoundRobin { depth: 2 }
        );
    }

    #[test]
    fn sensitive_windows_visited_more_often() {
        let prof = profile_with_weights(vec![0.1, 0.1, 5.0, 5.0]);
        let WindowSchedule::Ordered(order) = sensitivity_window_schedule(&prof, 2) else {
            panic!("expected ordered schedule");
        };
        let fragile = LayerWindow { start: 2, end: 4 };
        let robust = LayerWindow { start: 0, end: 2 };
        let n_fragile = order.iter().filter(|&&w| w == fragile).count();
        let n_robust = order.iter().filter(|&&w| w == robust).count();
        assert!(n_fragile > n_robust, "{n_fragile} vs {n_robust}");
        // every window still appears at least once per cycle
        assert!(n_robust >= 1);
    }

    #[test]
    fn schedule_covers_all_layers() {
        let prof = profile_with_weights(vec![0.1, 0.5, 2.0, 0.2, 3.0]);
        let sched = sensitivity_window_schedule(&prof, 2);
        let mut covered = std::collections::HashSet::new();
        for i in 0..16 {
            let w = sched.window_for(i, 5).unwrap();
            for l in w.start..w.end {
                covered.insert(l);
            }
        }
        assert_eq!(covered.len(), 5);
    }

    #[test]
    fn depth_clamps_to_model() {
        let prof = profile_with_weights(vec![1.0, 2.0]);
        let sched = sensitivity_window_schedule(&prof, 10);
        let w = sched.window_for(0, 2).unwrap();
        assert_eq!(w, LayerWindow { start: 0, end: 2 });
    }
}
