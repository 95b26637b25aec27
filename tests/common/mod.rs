//! Fixtures shared by the integration tests.

use han::prelude::*;

/// The configuration corners that exercise every module/algorithm choice.
pub fn corner_configs() -> Vec<HanConfig> {
    let mut cfgs = vec![HanConfig::default()];
    for fs in [4 * 1024u64, 64 * 1024, 1 << 20] {
        for (imod, alg) in [
            (InterModule::Libnbc, InterAlg::Binomial),
            (InterModule::Adapt, InterAlg::Chain),
            (InterModule::Adapt, InterAlg::Binary),
        ] {
            for smod in [IntraModule::Sm, IntraModule::Solo] {
                let mut c = HanConfig::default().with_fs(fs).with_intra(smod);
                c.imod = imod;
                c.ibalg = alg;
                c.iralg = alg;
                cfgs.push(c);
            }
        }
    }
    cfgs
}
