//! Stable machine-preset fingerprints.
//!
//! The serving daemon's store keys its tables by *which machine* they
//! were tuned for. The key is a fingerprint — FNV-1a over the preset's
//! canonical JSON form (topology, node, and network parameters; floats
//! hash by their shortest decimal representation). Any change to the
//! machine changes the fingerprint, so tables are never merged across
//! machines. Clients compute the fingerprint on their side of the wire,
//! possibly from another build than the daemon's, so the fingerprint of
//! an unchanged machine must not change either: that is why the presets'
//! serde forms are kept stable.

use han_machine::MachinePreset;

/// Stable fingerprint of a machine preset: FNV-1a over its canonical JSON
/// form. Any change to topology, node, or network parameters changes the
/// fingerprint, so a table served for one machine never answers for
/// another.
pub fn preset_fingerprint(preset: &MachinePreset) -> u64 {
    let text = serde_json::to_string(preset).expect("preset serializes");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use han_machine::mini;

    #[test]
    fn fingerprint_separates_presets() {
        let a = preset_fingerprint(&mini(4, 4));
        let b = preset_fingerprint(&mini(4, 8));
        let c = preset_fingerprint(&mini(4, 4));
        assert_ne!(a, b, "different topologies must differ");
        assert_eq!(a, c, "fingerprint must be stable");
    }

    #[test]
    fn fingerprint_separates_rails_and_level_overrides() {
        use han_machine::{dgx_like, RailPolicy};
        let base = mini(4, 4);
        let a = preset_fingerprint(&base);
        let striped = base.with_rails(4, RailPolicy::Stripe);
        assert_ne!(a, preset_fingerprint(&striped), "rails must re-key");
        assert_ne!(
            preset_fingerprint(&striped),
            preset_fingerprint(&base.with_rails(4, RailPolicy::RoundRobin)),
            "rail policy must re-key"
        );
        let mut gpuish = *base.level_params().get(1);
        gpuish.bandwidth *= 2.0;
        assert_ne!(
            a,
            preset_fingerprint(&base.with_level_override(1, gpuish)),
            "level overrides must re-key"
        );
        assert_ne!(a, preset_fingerprint(&dgx_like(4, 4)));
    }
}
