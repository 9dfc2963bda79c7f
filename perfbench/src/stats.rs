//! Percentiles, exact counters and the per-pass digest.

use std::collections::BTreeMap;

/// The `p`-quantile (0 < p ≤ 1) of `xs` by nearest rank; 0 when empty.
pub fn quantile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Deterministic counters of one pass, keyed by name. They are pure
/// functions of the seed: every pass of a run, and every run with the
/// same seed, traced or not, must produce the same map.
pub type Counters = BTreeMap<String, i64>;

/// Add `v` to counter `key`.
pub fn bump(c: &mut Counters, key: &str, v: i64) {
    *c.entry(key.to_string()).or_insert(0) += v;
}

/// FNV-1a over the canonical bytes of a pass's outcomes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn int(&mut self, v: i64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 50.0);
        assert_eq!(quantile(&xs, 0.9), 90.0);
        assert_eq!(quantile(&[3.0], 0.9), 3.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn digest_depends_on_order() {
        let (mut a, mut b) = (Digest::default(), Digest::default());
        a.int(1);
        a.int(2);
        b.int(2);
        b.int(1);
        assert_ne!(a, b);
    }
}
