//! Frequency assignment: graph colors to concrete GHz values via the
//! difference-logic SMT solver (paper §V-B3/4).

use crate::error::CompileError;
use fastsc_device::{Band, Device};
use fastsc_graph::coloring;
use fastsc_smt::{maximize, Problem};

/// Solves the paper's `smt_find`: places `k` frequencies inside `band`
/// maximizing the pairwise separation threshold `delta`, subject to
///
/// * `band.lo <= x_c <= band.hi` (Eq. 1),
/// * `|x_i - x_j| >= delta` for every pair (Eq. 2),
/// * `|x_i + alpha - x_j| >= delta` for every ordered pair (Eq. 3),
/// * a fixed total order `x_0 >= x_1 >= ...` so that the caller can map
///   the most-used color to the highest (fastest) frequency (§V-B3).
///
/// Returns the frequencies in descending order.
///
/// # Errors
///
/// Returns [`CompileError::FrequencyBandExhausted`] when even `delta = 0`
/// is infeasible (an empty band).
///
/// # Panics
///
/// Panics if `k == 0` or `tolerance <= 0`.
pub fn smt_find(
    k: usize,
    band: Band,
    alpha: f64,
    tolerance: f64,
) -> Result<Vec<f64>, CompileError> {
    assert!(k > 0, "at least one frequency required");
    let build = |delta: f64, floor: f64| {
        let mut p = Problem::new();
        let xs: Vec<_> = (0..k).map(|_| p.new_var()).collect();
        for &x in &xs {
            p.add_bounds(x, band.lo, band.hi);
        }
        // Anchor: even the lowest frequency sits at or above `floor`.
        p.add_bounds(xs[k - 1], floor.min(band.hi), band.hi);
        for i in 0..k {
            for j in (i + 1)..k {
                p.add_abs_ge(xs[i], 0.0, xs[j], delta);
                p.add_abs_ge(xs[i], alpha, xs[j], delta);
                p.add_abs_ge(xs[j], alpha, xs[i], delta);
                // Total ordering: x_i (earlier) above x_j (later).
                p.add_ge(xs[i], xs[j], 0.0);
            }
        }
        p
    };
    // Phase 1: maximize the separation threshold delta (the paper's
    // binary search).
    let best_delta =
        maximize(0.0, band.width().max(tolerance), tolerance, |delta| build(delta, band.lo))
            .ok_or(CompileError::FrequencyBandExhausted { colors: k })?
            .best;
    // Phase 2: at (just under) the optimal separation, push the whole
    // assignment as high in the band as possible — higher interaction
    // frequency means faster gates (t_gate ~ 1/omega, §V-B3), and keeps
    // interaction frequencies far from the parking sidebands.
    let delta = (best_delta - tolerance).max(0.0);
    let solved = maximize(band.lo, band.hi, tolerance, |floor| build(delta, floor))
        .ok_or(CompileError::FrequencyBandExhausted { colors: k })?;
    let mut values: Vec<f64> = (0..k)
        .map(|i| {
            // Variables were created in order; re-create handles by index.
            solved.model.values()[i]
        })
        .collect();
    values.sort_by(|a, b| b.total_cmp(a));
    Ok(values)
}

/// Maps a coloring to frequencies ordered by color multiplicity: the color
/// used by the most gates receives the highest frequency (fastest gates,
/// §V-B3). Returns `frequency[color]`.
///
/// # Errors
///
/// Propagates [`CompileError::FrequencyBandExhausted`] from [`smt_find`].
///
/// # Panics
///
/// Panics if `colors` is empty.
pub fn frequencies_for_coloring(
    colors: &[usize],
    band: Band,
    alpha: f64,
    tolerance: f64,
) -> Result<Vec<f64>, CompileError> {
    assert!(!colors.is_empty(), "need at least one colored vertex");
    let k = coloring::color_count(colors);
    let values = smt_find(k, band, alpha, tolerance)?;
    Ok(freq_of_color_by_multiplicity(colors, &values))
}

/// Maps sorted-descending frequency `values` onto the colors of `colors`
/// ranked by multiplicity (descending, ties by color index): the color
/// used by the most gates receives the highest frequency (§V-B3). Returns
/// `frequency[color]`.
///
/// Shared by the static (whole-graph) and dynamic (per-cycle) assignment
/// paths so both rank identically.
///
/// # Panics
///
/// Panics if `values` holds fewer entries than `colors` has colors.
pub fn freq_of_color_by_multiplicity(colors: &[usize], values: &[f64]) -> Vec<f64> {
    let mut scratch = MultiplicityScratch::default();
    freq_of_color_by_multiplicity_into(colors, values, &mut scratch);
    scratch.freq_of_color.clone()
}

/// Reusable buffers for
/// [`freq_of_color_by_multiplicity_into`]: the per-cycle ColorDynamic
/// path ranks a fresh coloring every colored cycle, and routing those
/// three vectors through caller-owned scratch keeps the engine's hot loop
/// allocation-free.
#[derive(Debug, Clone, Default)]
pub struct MultiplicityScratch {
    histogram: Vec<usize>,
    order: Vec<usize>,
    /// `freq_of_color[color]` after the last
    /// [`freq_of_color_by_multiplicity_into`] call.
    pub freq_of_color: Vec<f64>,
}

/// [`freq_of_color_by_multiplicity`] writing into reusable scratch; the
/// result lands in `scratch.freq_of_color`. Identical ranking (count
/// descending, ties by color index) — the allocation-free twin the
/// engine's per-cycle path uses.
///
/// # Panics
///
/// Panics if `values` holds fewer entries than `colors` has colors.
pub fn freq_of_color_by_multiplicity_into(
    colors: &[usize],
    values: &[f64],
    scratch: &mut MultiplicityScratch,
) {
    let k = colors.iter().max().map_or(0, |&m| m + 1);
    assert!(values.len() >= k, "need one frequency per color");
    scratch.histogram.clear();
    scratch.histogram.resize(k, 0);
    for &c in colors {
        scratch.histogram[c] += 1;
    }
    scratch.order.clear();
    scratch.order.extend(0..k);
    let histogram = &scratch.histogram;
    scratch.order.sort_by_key(|&c| (std::cmp::Reverse(histogram[c]), c));
    scratch.freq_of_color.clear();
    scratch.freq_of_color.resize(k, 0.0);
    for (rank, &color) in scratch.order.iter().enumerate() {
        scratch.freq_of_color[color] = values[rank];
    }
}

/// Parking (idle) frequencies for every qubit: colors the connectivity
/// graph (2 colors on bipartite meshes, Welsh–Powell otherwise) and maps
/// colors to maximally separated values in the parking band (§IV-C-1).
///
/// # Errors
///
/// Propagates [`CompileError::FrequencyBandExhausted`].
pub fn parking_assignment(device: &Device, tolerance: f64) -> Result<Vec<f64>, CompileError> {
    let g = device.connectivity();
    let colors = coloring::two_coloring(g).unwrap_or_else(|| coloring::welsh_powell(g));
    let alpha = mean_anharmonicity(device);
    let freq_of_color =
        frequencies_for_coloring(&colors, device.partition().parking, alpha, tolerance)?;
    Ok(colors.into_iter().map(|c| freq_of_color[c]).collect())
}

/// The interaction band clamped so every qubit can reach it: tunable
/// transmons only tune *down* from their sampled `omega_max`, so the band
/// top is the slowest qubit's maximum.
///
/// # Errors
///
/// Returns [`CompileError::FrequencyBandExhausted`] when the clamped band
/// is empty (a qubit's maximum sits below the band floor).
pub fn reachable_interaction_band(device: &Device) -> Result<Band, CompileError> {
    let band = device.partition().interaction;
    let min_max = device.qubits().iter().map(|q| q.omega_max).fold(f64::INFINITY, f64::min);
    let hi = band.hi.min(min_max);
    if hi <= band.lo {
        return Err(CompileError::FrequencyBandExhausted { colors: 1 });
    }
    Ok(Band::new(band.lo, hi))
}

/// Mean anharmonicity across the device (the per-qubit spread is small;
/// the SMT constraints use a single representative value, like the paper's
/// "nearly constant anharmonicity" assumption in §VI-C).
pub fn mean_anharmonicity(device: &Device) -> f64 {
    let n = device.n_qubits().max(1);
    device.qubits().iter().map(|q| q.anharmonicity).sum::<f64>() / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastsc_device::{Device, DeviceBuilder};

    const TOL: f64 = 1e-3;
    const ALPHA: f64 = -0.2;

    #[test]
    fn single_color_gets_top_of_band() {
        let f = smt_find(1, Band::new(6.0, 7.0), ALPHA, TOL).expect("one slot fits");
        assert_eq!(f.len(), 1);
        assert!((6.0..=7.0).contains(&f[0]));
    }

    #[test]
    fn separations_respect_threshold_and_sidebands() {
        for k in 2..=5 {
            let f = smt_find(k, Band::new(6.0, 7.0), ALPHA, TOL).expect("fits");
            assert_eq!(f.len(), k);
            // Descending order.
            for w in f.windows(2) {
                assert!(w[0] >= w[1]);
            }
            // All pairs separated directly and at the sideband offset.
            let min_sep = f
                .iter()
                .enumerate()
                .flat_map(|(i, &a)| f[i + 1..].iter().map(move |&b| (a - b).abs()))
                .fold(f64::INFINITY, f64::min);
            assert!(min_sep > 0.0, "k = {k}");
            for (i, &a) in f.iter().enumerate() {
                for (j, &b) in f.iter().enumerate() {
                    if i != j {
                        assert!(
                            (a + ALPHA - b).abs() > 1e-6,
                            "k = {k}: sideband collision {a} vs {b}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn two_colors_nearly_maximal_separation() {
        // With sidebands the best two-point separation in a 1 GHz band is
        // 1.0 (endpoints), as long as |1.0 - 0.2| = 0.8 >= delta... the
        // binding constraint is delta <= 0.8.
        let f = smt_find(2, Band::new(6.0, 7.0), ALPHA, TOL).expect("fits");
        let sep = f[0] - f[1];
        assert!(sep > 0.75, "separation = {sep}");
    }

    #[test]
    fn multiplicity_ordering_gives_popular_color_fastest() {
        // Color 1 used 3 times, color 0 once: color 1 must get the higher
        // frequency.
        let colors = [1, 1, 0, 1];
        let f =
            frequencies_for_coloring(&colors, Band::new(6.0, 7.0), ALPHA, TOL).expect("fits");
        assert!(f[1] > f[0], "popular color must be faster: {f:?}");
    }

    #[test]
    fn parking_checkerboard_on_mesh() {
        let d = Device::grid(4, 4, 3);
        let parking = parking_assignment(&d, TOL).expect("bipartite mesh");
        // Two distinct values, assigned in checkerboard pattern.
        let mut distinct: Vec<f64> = parking.clone();
        distinct.sort_by(f64::total_cmp);
        distinct.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
        assert_eq!(distinct.len(), 2);
        for (_, (u, v)) in d.connectivity().edges() {
            assert!((parking[u] - parking[v]).abs() > 0.1, "neighbors share parking");
        }
        // Values stay in the parking band.
        for &p in &parking {
            assert!(d.partition().parking.contains(p), "{p} outside parking band");
        }
    }

    #[test]
    fn parking_handles_odd_cycles() {
        use fastsc_graph::topology;
        let mut b = DeviceBuilder::new(topology::ring(5));
        b.seed(1);
        let d = b.build();
        let parking = parking_assignment(&d, TOL).expect("3-colorable ring");
        for (_, (u, v)) in d.connectivity().edges() {
            assert!((parking[u] - parking[v]).abs() > 1e-3);
        }
    }

    #[test]
    fn reachable_band_clamped_by_slowest_qubit() {
        let mut b = DeviceBuilder::new(fastsc_graph::topology::grid(2, 2));
        b.seed(0).omega_max_distribution(6.5, 0.0);
        let d = b.build();
        let band = reachable_interaction_band(&d).expect("non-empty");
        assert!((band.hi - 6.5).abs() < 1e-12);
        assert_eq!(band.lo, 6.0);
    }

    #[test]
    fn unreachable_band_is_an_error() {
        let mut b = DeviceBuilder::new(fastsc_graph::topology::grid(2, 2));
        b.seed(0).omega_max_distribution(5.5, 0.0); // below the 6 GHz floor
        let d = b.build();
        assert!(matches!(
            reachable_interaction_band(&d),
            Err(CompileError::FrequencyBandExhausted { .. })
        ));
    }

    #[test]
    fn mean_anharmonicity_matches_default() {
        let d = Device::grid(2, 2, 0);
        assert!((mean_anharmonicity(&d) + 0.2).abs() < 1e-9);
    }

    #[test]
    fn too_many_colors_still_packs_or_errors() {
        // 12 colors in 1 GHz: separations get thin but it must not panic.
        let f = smt_find(12, Band::new(6.0, 7.0), ALPHA, TOL);
        match f {
            Ok(values) => assert_eq!(values.len(), 12),
            Err(CompileError::FrequencyBandExhausted { .. }) => {}
            Err(other) => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn smt_find_is_pinned_on_the_workload_bands() {
        // `smt_find` digests (FNV-1a over the f64 bits) for k = 1..=11 on
        // the benchmark workload devices, recorded from the plain
        // case-split solver before theory propagation: propagation may
        // only change how fast a model is found, never which one.
        use fastsc_graph::hash::StableHasher;
        let pinned: [(Device, [u64; 11]); 5] = [
            (
                Device::grid(2, 2, 2020),
                [
                    0xb206_c10d_6ed8_1de6,
                    0x191f_698e_7cfb_2b01,
                    0x2eee_5e4a_83a6_f644,
                    0xa1a6_3947_a3b0_ab9f,
                    0x6900_ecf2_84e6_798a,
                    0x83bd_bb56_d18c_8898,
                    0x7e9b_ee06_cf04_a1eb,
                    0x0ea1_010f_7d9f_4b4f,
                    0x7872_a8ac_d69b_174c,
                    0x09b4_8239_fc66_c8de,
                    0x648f_d008_1d80_8dfe,
                ],
            ),
            (
                Device::grid(3, 3, 2020),
                [
                    0xb206_c10d_6ed8_1de6,
                    0x191f_698e_7cfb_2b01,
                    0x2eee_5e4a_83a6_f644,
                    0xa1a6_3947_a3b0_ab9f,
                    0x6900_ecf2_84e6_798a,
                    0x83bd_bb56_d18c_8898,
                    0x7e9b_ee06_cf04_a1eb,
                    0x0ea1_010f_7d9f_4b4f,
                    0xc300_1024_8717_7b14,
                    0x09b4_8239_fc66_c8de,
                    0x648f_d008_1d80_8dfe,
                ],
            ),
            (
                Device::grid(4, 4, 2020),
                [
                    0xd331_3a4e_a85d_012b,
                    0xeec5_a6ca_7b07_60b7,
                    0x233a_5132_0e9d_1b01,
                    0x48b2_c349_1f91_9265,
                    0xc8b2_ff4b_ee02_4cfb,
                    0x9bc6_c7eb_2bd2_b17d,
                    0xc4f9_9c15_2aa5_b713,
                    0x6174_5376_18d8_48df,
                    0x8b89_7cb9_9492_982e,
                    0xfe45_c570_bcba_9636,
                    0x5f45_3779_9d5f_f9e7,
                ],
            ),
            (
                Device::grid(3, 3, 7),
                [
                    0xb7af_8e9b_db01_bccf,
                    0xab39_f750_f136_b6f4,
                    0xe1d1_e5e8_6c9e_4d41,
                    0x063f_d7f3_4c92_6551,
                    0x47c6_784f_ec7c_6510,
                    0x5c8b_c1e7_ce84_af74,
                    0xb2e6_d1dd_7fc7_aadd,
                    0xa026_5ab0_f0d2_6da0,
                    0xd78b_f3c8_dafa_0373,
                    0x120f_f7c4_8a29_8892,
                    0x7ed4_de5a_b228_2013,
                ],
            ),
            (
                Device::grid(4, 4, 23),
                [
                    0xabd7_d6d6_b04a_1a81,
                    0xa54f_23e9_6c7c_0c2e,
                    0x5b88_6c8f_a4bd_a061,
                    0x4856_ac08_7189_9290,
                    0x6a6d_4887_b680_3361,
                    0x658f_3cbe_f6b0_1096,
                    0x7c5c_2538_dfdc_d6ad,
                    0x05d5_016d_2b9c_8070,
                    0xedda_68d2_4d1a_160a,
                    0x365d_9286_44b9_7f8e,
                    0x24cd_05d5_d74b_9916,
                ],
            ),
        ];
        for (device, digests) in pinned {
            let band = reachable_interaction_band(&device).expect("reachable band");
            let alpha = mean_anharmonicity(&device);
            for (k, &expected) in (1..=11).zip(&digests) {
                let values = smt_find(k, band, alpha, TOL).expect("fits");
                let mut h = StableHasher::new();
                values.iter().for_each(|&v| h.write_f64(v));
                assert_eq!(h.finish(), expected, "k = {k} on {band:?}, alpha {alpha:?}");
            }
        }
    }
}
