//! Figure support for the dsnet reproduction.
//!
//! The `figures` binary (`cargo run -p dsnet-bench --release --bin figures`)
//! prints the paper tables. Wall-clock and per-layer costs are measured by
//! the `perfbench/` workloads, not here.

pub mod perf;

use dsnet::experiments::SweepConfig;

/// The full paper sweep used by the `figures` binary.
pub fn paper_sweep() -> SweepConfig {
    SweepConfig::default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweeps_are_sane() {
        assert_eq!(paper_sweep().ns, vec![100, 200, 300, 400, 500]);
    }
}
