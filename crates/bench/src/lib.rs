//! Reproduction harness for every table and figure in the paper's
//! evaluation.
//!
//! Each `fig*`/`table*` function regenerates one exhibit of
//! *Underprovisioning Backup Power Infrastructure for Datacenters*
//! (ASPLOS 2014) from the models in this workspace and returns it as a
//! formatted text block. The `repro` binary prints any subset;
//! `cargo run -p dcb-bench --bin repro -- all` prints everything and
//! checks the paper's headline claims via [`verify`], exiting 1 if one
//! fails. `perfbench/` times the reproduction itself.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod csv;
pub mod explain;
pub mod figures;
pub mod profile;
pub mod tables;
pub mod topo;
pub mod verify;

/// A named exhibit generator.
pub type Exhibit = (&'static str, fn() -> String);

/// All exhibits in paper order: `(name, generator)`.
#[must_use]
pub fn all_exhibits() -> Vec<Exhibit> {
    vec![
        ("fig1", figures::fig1 as fn() -> String),
        ("fig2", figures::fig2),
        ("fig3", figures::fig3),
        ("table1", tables::table1),
        ("table2", tables::table2),
        ("table3", tables::table3),
        ("table4", tables::table4),
        ("table5", tables::table5),
        ("table6", tables::table6),
        ("table7", tables::table7),
        ("fig5", figures::fig5),
        ("fig6", figures::fig6),
        ("table8", tables::table8),
        ("fig7", figures::fig7),
        ("fig8", figures::fig8),
        ("fig9", figures::fig9),
        ("fig10", figures::fig10),
    ]
}

/// The extra exhibits beyond the paper's own: ablations and §7-enhancement
/// studies.
#[must_use]
pub fn extra_exhibits() -> Vec<Exhibit> {
    vec![
        ("ablation-chemistry", ablations::chemistry as fn() -> String),
        ("ablation-freeruntime", ablations::free_runtime),
        ("ablation-consolidation", ablations::consolidation),
        ("enhancements-nvdimm-rdma", ablations::enhancements),
        ("enhancements-geo", ablations::geo),
        ("ablation-placement", ablations::placement),
        ("robustness-predictor", ablations::robustness),
        ("tier-analysis", ablations::tier),
        ("dual-use-batteries", ablations::dual_use),
        ("extension-oltp", ablations::oltp),
        ("fig5-websearch", figures::fig5_websearch),
        ("fig5-memcached", figures::fig5_memcached),
        ("fig5-speccpu", figures::fig5_speccpu),
        ("availability-frontier", ablations::availability_frontier),
    ]
}

/// Renders a horizontal bar of `value` relative to `max` (for quick ASCII
/// chart reading).
// dcb-audit: allow(unit-flow, chart rendering is unitless by design; only the value/max ratio matters)
#[must_use]
pub fn bar(value: f64, max: f64, width: usize) -> String {
    if max <= 0.0 || value <= 0.0 {
        return String::new();
    }
    let n = ((value / max) * width as f64).round() as usize;
    "#".repeat(n.min(width))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exhibit_names_unique_and_complete() {
        let names: Vec<&str> = all_exhibits().iter().map(|(n, _)| *n).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
        assert_eq!(names.len(), 17);
    }

    #[test]
    fn bar_scales() {
        assert_eq!(bar(5.0, 10.0, 10), "#####");
        assert_eq!(bar(0.0, 10.0, 10), "");
        assert_eq!(bar(20.0, 10.0, 10), "##########");
    }
}
