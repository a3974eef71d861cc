//! Tuple-size ↔ I/O-rate calibration.
//!
//! A sequential backend alternates one page read (sequential service,
//! `1/97` s) with the CPU work for the tuples on that page. Per-tuple CPU is
//! modelled as a fixed qualification overhead plus a per-byte term (large
//! tuples cost more to copy and examine), fitted to the paper's two anchors:
//! `r_min` (10-byte tuples, ~800 per page, 5 I/Os per second) and `r_max`
//! (one page-filling tuple, 70 I/Os per second).

use xprs_storage::{PAGE_HEADER, PAGE_SIZE};

/// Per-tuple line-pointer plus header overhead already counted by
/// `Tuple::stored_size` for an `(Int, Text)` row beyond the text bytes:
/// 4 (tuple header) + 2 (line pointer) + 4 (int) + 4 (text length).
pub(crate) const ROW_OVERHEAD: usize = 14;

/// CPU-cost calibration constants.
#[derive(Debug, Clone, PartialEq)]
pub struct Calibration {
    /// Sequential page-read service time, seconds (1/97 on the paper disks).
    pub seq_service: f64,
    /// Fixed CPU seconds per tuple (qualification evaluation).
    pub cpu_base: f64,
    /// CPU seconds per tuple byte (copy/examine).
    pub cpu_per_byte: f64,
}

impl Calibration {
    /// Fit to the paper's anchors: `r_min` at 5 io/s, `r_max` at 70 io/s.
    pub fn paper_default() -> Self {
        let seq_service = 1.0 / 97.0;
        // r_max: one tuple of (PAGE_SIZE − header − overhead) bytes per page;
        // page CPU = 1/70 − 1/97.
        let big = (PAGE_SIZE - PAGE_HEADER - ROW_OVERHEAD) as f64;
        // r_min: empty b ⇒ 14-byte rows ⇒ floor(8168/14) = 583 per page;
        // page CPU = 1/5 − 1/97.
        let small_rows = ((PAGE_SIZE - PAGE_HEADER) / ROW_OVERHEAD) as f64;
        // Two equations:
        //   1·(base + big·pb)          = 1/70 − 1/97
        //   small_rows·(base + 0·pb)   = 1/5 − 1/97
        let cpu_base = (1.0 / 5.0 - seq_service) / small_rows;
        let cpu_per_byte = ((1.0 / 70.0 - seq_service) - cpu_base) / big;
        Calibration { seq_service, cpu_base, cpu_per_byte }
    }

    /// Tuples of `b`-length `blen` that fit on one page.
    pub fn tuples_per_page(&self, blen: usize) -> u64 {
        ((PAGE_SIZE - PAGE_HEADER) / (ROW_OVERHEAD + blen)).max(1) as u64
    }

    /// The sequential-scan I/O rate of a relation with `b`-length `blen`.
    pub fn rate(&self, blen: usize) -> f64 {
        let tpp = self.tuples_per_page(blen) as f64;
        let page_cpu = tpp * (self.cpu_base + self.cpu_per_byte * blen as f64);
        1.0 / (self.seq_service + page_cpu)
    }

    /// Invert: the `b`-length whose scan rate is closest to `target`
    /// I/Os per second.
    ///
    /// Whole-tuples-per-page quantization makes `rate(blen)` a sawtooth, so
    /// instead of bisecting we solve each tuples-per-page band analytically
    /// (within a band the rate is continuous in the byte length) and keep
    /// the best achievable point.
    ///
    /// # Panics
    /// Panics if `target` lies outside the achievable range (below the
    /// `r_min` rate or roughly above the `r_max` rate).
    pub fn blen_for_rate(&self, target: f64) -> usize {
        let max_blen = PAGE_SIZE - PAGE_HEADER - ROW_OVERHEAD;
        let lo_rate = self.rate(0);
        assert!(
            target >= lo_rate * 0.999 && target <= 71.0,
            "rate {target} outside achievable [{lo_rate:.2}, 70]"
        );
        let page_cpu_target = 1.0 / target - self.seq_service;
        let usable = PAGE_SIZE - PAGE_HEADER;
        let mut best: Option<(f64, usize)> = None;
        let max_tpp = (usable / ROW_OVERHEAD) as u64;
        for tpp in 1..=max_tpp {
            // Exact byte length hitting the target in this band.
            let b_exact = (page_cpu_target / tpp as f64 - self.cpu_base) / self.cpu_per_byte;
            // The band's valid byte-length interval for this tuples-per-page.
            let band_hi = usable / tpp as usize - ROW_OVERHEAD; // largest blen with this tpp
            let band_lo = if tpp == max_tpp {
                0
            } else {
                usable / (tpp as usize + 1) - ROW_OVERHEAD + 1
            };
            if band_lo > band_hi || band_hi > max_blen {
                continue;
            }
            let b = (b_exact.round() as i64).clamp(band_lo as i64, band_hi as i64) as usize;
            if self.tuples_per_page(b) != tpp {
                continue;
            }
            let err = (self.rate(b) - target).abs();
            if best.is_none_or(|(e, _)| err < e) {
                best = Some((err, b));
            }
        }
        best.expect("at least one band is valid").1
    }
}

impl Default for Calibration {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anchors_reproduce_the_paper_rates() {
        let c = Calibration::paper_default();
        // r_min: NULL b ⇒ blen 0 ⇒ ~816 tuples/page ⇒ 5 io/s.
        assert!((c.rate(0) - 5.0).abs() < 0.1, "r_min rate {}", c.rate(0));
        // r_max: page-filling tuple ⇒ 70 io/s.
        let max_blen = PAGE_SIZE - PAGE_HEADER - ROW_OVERHEAD;
        assert!((c.rate(max_blen) - 70.0).abs() < 0.5, "r_max rate {}", c.rate(max_blen));
        assert_eq!(c.tuples_per_page(max_blen), 1);
    }

    #[test]
    fn rate_covers_the_paper_span() {
        // Quantization makes the curve a sawtooth, but its envelope rises
        // from r_min to r_max.
        let c = Calibration::paper_default();
        assert!(c.rate(0) < 6.0);
        assert!(c.rate(4000) > 60.0);
    }

    #[test]
    fn inversion_round_trips_across_the_range() {
        let c = Calibration::paper_default();
        for tenth in 50..=700 {
            let target = tenth as f64 / 10.0;
            let blen = c.blen_for_rate(target);
            let achieved = c.rate(blen);
            // Quantization is coarsest near r_min (whole tuples per page);
            // 4% covers the worst gap in the achievable-rate lattice.
            assert!(
                (achieved - target).abs() / target < 0.04,
                "target {target} → blen {blen} → {achieved}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "outside achievable")]
    fn unreachable_rate_is_rejected() {
        Calibration::paper_default().blen_for_rate(200.0);
    }

    #[test]
    fn tuples_per_page_matches_storage_arithmetic() {
        let c = Calibration::paper_default();
        // 786-byte b ⇒ 800-byte rows ⇒ 10 per page.
        assert_eq!(c.tuples_per_page(786), 10);
    }
}
