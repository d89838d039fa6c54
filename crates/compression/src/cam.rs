//! Structural CAM/TCAM models: per-operation energy and area.
//!
//! Energy-per-operation constants are derived at 45 nm from the Agrawal &
//! Sherwood TCAM model the paper cites (§4.3) and consumed by the harness's
//! dynamic power model; the area figures are the ones the paper reports
//! (§5.5).

/// Geometry of a CAM or TCAM structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CamSpec {
    /// Number of entries.
    pub entries: usize,
    /// Match width in bits.
    pub width_bits: u32,
    /// Ternary (TCAM) or binary (CAM).
    pub ternary: bool,
}

impl CamSpec {
    /// The 8-entry, 32-bit binary CAM used by FP-VAXX's PMT and the DI
    /// decoders.
    pub fn pmt_cam() -> Self {
        CamSpec {
            entries: 8,
            width_bits: 32,
            ternary: false,
        }
    }

    /// The 8-entry, 32-bit TCAM used by the DI-VAXX encoder PMT.
    pub fn pmt_tcam() -> Self {
        CamSpec {
            entries: 8,
            width_bits: 32,
            ternary: true,
        }
    }

    /// Energy of one search operation, in picojoules. TCAM cells burn
    /// roughly 1.5× a binary CAM's search energy at equal geometry
    /// (two-bit storage plus per-cell mask transistors).
    pub fn search_energy_pj(&self) -> f64 {
        let per_bit = if self.ternary { 0.0018 } else { 0.0012 };
        per_bit * self.entries as f64 * self.width_bits as f64
    }

    /// Energy of one write/update operation, in picojoules.
    pub fn update_energy_pj(&self) -> f64 {
        let per_bit = if self.ternary { 0.0009 } else { 0.0006 };
        per_bit * self.width_bits as f64
    }

    /// Estimated area in mm² at 45 nm (per-bit constants fitted so the
    /// encoder totals land at the paper's reported 0.0029/0.0037 mm²).
    pub fn area_mm2(&self) -> f64 {
        let per_bit = if self.ternary { 5.8e-6 } else { 3.9e-6 };
        per_bit * self.entries as f64 * self.width_bits as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tcam_costs_more_than_cam() {
        let cam = CamSpec::pmt_cam();
        let tcam = CamSpec::pmt_tcam();
        assert!(tcam.search_energy_pj() > cam.search_energy_pj());
        assert!(tcam.update_energy_pj() > cam.update_energy_pj());
        assert!(tcam.area_mm2() > cam.area_mm2());
    }

    #[test]
    fn energies_scale_with_geometry() {
        let small = CamSpec {
            entries: 4,
            width_bits: 32,
            ternary: false,
        };
        let big = CamSpec {
            entries: 8,
            width_bits: 32,
            ternary: false,
        };
        assert!((big.search_energy_pj() / small.search_energy_pj() - 2.0).abs() < 1e-9);
    }
}
