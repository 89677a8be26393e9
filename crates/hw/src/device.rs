/// Analytical description of an edge accelerator.
///
/// The absolute numbers are representative of Jetson-class edge GPUs; the
/// experiments only rely on *ratios* (compressed vs uncompressed, searched
/// vs naive schedule), which this model preserves.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceModel {
    /// MAC units usable per cycle at 16-bit operands.
    pub macs_per_cycle_16b: f32,
    /// Core clock in GHz.
    pub freq_ghz: f32,
    /// DRAM bandwidth in bytes per cycle.
    pub dram_bytes_per_cycle: f32,
    /// On-chip scratchpad capacity in bytes.
    pub sram_bytes: usize,
    /// Energy per 16-bit MAC in picojoules.
    pub energy_per_mac_pj: f32,
    /// Energy per DRAM byte in picojoules.
    pub energy_per_dram_byte_pj: f32,
    /// Fraction of ideal zero-skipping actually realized by the sparse
    /// datapath (1.0 = perfect skip, 0.0 = no benefit).
    pub sparse_efficiency: f32,
}

impl DeviceModel {
    /// A Jetson-Nano-class edge device: modest compute, tight SRAM,
    /// bandwidth-limited.
    pub fn jetson_class() -> Self {
        DeviceModel {
            macs_per_cycle_16b: 128.0,
            freq_ghz: 0.9,
            dram_bytes_per_cycle: 16.0,
            sram_bytes: 256 * 1024,
            energy_per_mac_pj: 0.8,
            energy_per_dram_byte_pj: 20.0,
            sparse_efficiency: 0.85,
        }
    }

    /// Effective MACs per cycle for `bits`-wide operands with `sparsity`
    /// fraction of zero weights: narrower operands pack more lanes
    /// (`16/bits` scaling) and zeros are skipped with
    /// [`DeviceModel::sparse_efficiency`].
    pub fn effective_macs_per_cycle(&self, bits: u32, sparsity: f32) -> f32 {
        let lane_scale = 16.0 / bits.max(1) as f32;
        let dense_rate = self.macs_per_cycle_16b * lane_scale;
        let s = sparsity.clamp(0.0, 1.0) * self.sparse_efficiency;
        // skipping zeros raises the effective rate on the remaining work
        dense_rate / (1.0 - s).max(1e-3)
    }

    /// Energy per MAC at `bits`-wide operands (quadratic-ish scaling with
    /// width, floored at 25% of the 16-bit energy).
    pub fn energy_per_mac_at(&self, bits: u32) -> f32 {
        let scale = (bits as f32 / 16.0).powi(2).max(0.25 * 0.25);
        self.energy_per_mac_pj * scale.max(0.05)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn narrower_bits_raise_throughput() {
        let d = DeviceModel::jetson_class();
        assert!(d.effective_macs_per_cycle(4, 0.0) > d.effective_macs_per_cycle(16, 0.0));
        assert!(
            (d.effective_macs_per_cycle(4, 0.0) / d.effective_macs_per_cycle(16, 0.0) - 4.0).abs()
                < 1e-3
        );
    }

    #[test]
    fn sparsity_raises_throughput_imperfectly() {
        let d = DeviceModel::jetson_class();
        let dense = d.effective_macs_per_cycle(8, 0.0);
        let sparse = d.effective_macs_per_cycle(8, 0.5);
        assert!(sparse > dense);
        // imperfect skip: less than the ideal 2x
        assert!(sparse < dense * 2.0);
    }

    #[test]
    fn full_sparsity_does_not_divide_by_zero() {
        let d = DeviceModel::jetson_class();
        assert!(d.effective_macs_per_cycle(8, 1.0).is_finite());
    }

    #[test]
    fn energy_scales_down_with_bits() {
        let d = DeviceModel::jetson_class();
        assert!(d.energy_per_mac_at(4) < d.energy_per_mac_at(16));
        assert!(d.energy_per_mac_at(2) > 0.0);
    }
}
