//! One module per experiment. Each exposes `NAME` and
//! `plan(scale, seed) -> Plan`; the registry ties them together.

pub mod ablations;
pub mod chaos_degradation;
pub mod failover_recovery;
pub mod fig02_motivation;
pub mod fig05_rop_samples;
pub mod fig06_guard_sweep;
pub mod fig09_signature_detection;
pub mod fig10_timeline;
pub mod fig11_misalignment;
pub mod fig12_tput_delay_fairness;
pub mod fig14_gain_cdf;
pub mod sec5_light_traffic;
pub mod sec5_polling_sweep;
pub mod table1_params;
pub mod table2_usrp;
pub mod table3_exposed;

pub(crate) mod util;
