//! Control-system wiring methods (§3.3).
//!
//! Two ways of wiring trap electrodes to DACs are studied by the paper:
//!
//! * **Standard** — one DAC per electrode. Maximum transport parallelism,
//!   but the electrode count (and hence data rate and power) grows with the
//!   system.
//! * **WISE** (Wiring using Integrated Switching Electronics, Malinowski et
//!   al. 2023) — a switch-based demultiplexing network shares ~100 DACs
//!   across all dynamic electrodes. Control cost becomes nearly independent
//!   of system size, but only primitive operations *of the same type* may
//!   execute simultaneously, and sympathetic cooling is required to keep
//!   gate errors in check (§5.1).

use std::fmt;

use serde::{Deserialize, Serialize};

/// How electrodes are wired to DACs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WiringMethod {
    /// One DAC per electrode (the traditional QCCD architecture).
    Standard,
    /// The WISE switch-based demultiplexing architecture.
    Wise,
}

impl WiringMethod {
    /// Returns `true` if ion-transport primitives of *different* kinds must
    /// be serialised against each other (the WISE restriction).
    pub fn transport_type_exclusive(self) -> bool {
        matches!(self, WiringMethod::Wise)
    }

    /// Returns `true` if sympathetic cooling must be applied before two-qubit
    /// gates (required for WISE to reach low logical error rates, §5.1).
    pub fn requires_cooling(self) -> bool {
        matches!(self, WiringMethod::Wise)
    }
}

impl fmt::Display for WiringMethod {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WiringMethod::Standard => write!(f, "standard"),
            WiringMethod::Wise => write!(f, "wise"),
        }
    }
}

/// Inverse of the [`Display`](fmt::Display) names.
impl std::str::FromStr for WiringMethod {
    type Err = String;

    fn from_str(name: &str) -> Result<Self, String> {
        match name {
            "standard" => Ok(WiringMethod::Standard),
            "wise" => Ok(WiringMethod::Wise),
            other => Err(format!("unknown wiring `{other}` (standard|wise)")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_wiring_is_unconstrained() {
        assert!(!WiringMethod::Standard.transport_type_exclusive());
        assert!(!WiringMethod::Standard.requires_cooling());
    }

    #[test]
    fn wise_wiring_serialises_and_cools() {
        assert!(WiringMethod::Wise.transport_type_exclusive());
        assert!(WiringMethod::Wise.requires_cooling());
    }

    #[test]
    fn display() {
        assert_eq!(WiringMethod::Standard.to_string(), "standard");
        assert_eq!(WiringMethod::Wise.to_string(), "wise");
    }

    #[test]
    fn from_str_inverts_display() {
        for wiring in [WiringMethod::Standard, WiringMethod::Wise] {
            assert_eq!(wiring.to_string().parse(), Ok(wiring));
        }
        assert!("twisted-pair".parse::<WiringMethod>().is_err());
    }
}
