//! The benchmark's own statistics: percentiles, failure accounting and
//! the derived per-layer metrics. Pure functions over plain numbers, so
//! the rules are pinned by unit tests on fixed synthetic inputs.

/// Samples a reported percentile must leave above it.
pub const MIN_TAIL: usize = 10;

/// Percentiles the tail rule chooses from, highest first.
const TAIL_CANDIDATES: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least `p`% of the sample at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), p)]
}

/// Index of the nearest-rank `p`-th percentile in a sample of `n`.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps binary rounding of `p` (99.9 is not exact) from
    // pushing an exact rank up by one.
    let r = (p / 100.0 * n as f64 - 1e-9).ceil() as usize;
    r.clamp(1, n) - 1
}

/// Samples strictly above the `p`-th percentile's rank in a sample of `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, p) - 1
}

/// The highest of p99.9, p99, p90 and p50 that leaves at least
/// [`MIN_TAIL`] samples beyond it, or `None` when even the median does not.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&p| samples_beyond(n, p) >= MIN_TAIL)
}

/// Median of an unsorted sample (nearest rank).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// Outcome counts of a closed loop.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Calls sent.
    pub attempted: u64,
    /// Calls that failed in transport, were refused, or answered wrongly.
    pub failed: u64,
}

impl Tally {
    /// Count one call.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Merge another client's counts.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed calls over attempted calls (0 when nothing was attempted).
    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// One answered call of a closed loop, as the windowed figures see it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stamp {
    /// When the answer arrived, in seconds since the loop started.
    pub end_s: f64,
    /// Process CPU seconds used since the loop started, at that moment.
    pub cpu_end_s: f64,
    /// CPU seconds then spent checking the answer (the benchmark's own
    /// work, left out of the program's cost).
    pub check_cpu_s: f64,
    /// Verified requests the call answered (0 when it failed).
    pub requests: u64,
    /// Verified payload bytes.
    pub bytes: u64,
}

/// The stamps of each of `windows` equal sub-windows of `elapsed_s`,
/// by arrival time.
fn by_window(stamps: &[Stamp], elapsed_s: f64, windows: usize) -> Vec<Vec<Stamp>> {
    let width = elapsed_s / windows as f64;
    let mut out = vec![Vec::new(); windows];
    for s in stamps {
        let w = ((s.end_s / width) as usize).min(windows - 1);
        out[w].push(*s);
    }
    out
}

/// Verified requests and bytes per second, each the median over
/// `windows` equal sub-windows of the loop.
pub fn windowed_rates(stamps: &[Stamp], elapsed_s: f64, windows: usize) -> (f64, f64) {
    let width = elapsed_s / windows as f64;
    let per = by_window(stamps, elapsed_s, windows);
    let rate = |f: fn(&Stamp) -> u64| {
        median(
            &per.iter()
                .map(|w| w.iter().map(f).sum::<u64>() as f64 / width)
                .collect::<Vec<_>>(),
        )
    };
    (rate(|s| s.requests), rate(|s| s.bytes))
}

/// CPU milliseconds per verified request, the median over the sub-windows
/// that answered any. A window's CPU runs from the last answer before it
/// to its own last answer, less the answer checks of its calls.
pub fn windowed_cpu_ms_per_req(stamps: &[Stamp], elapsed_s: f64, windows: usize) -> f64 {
    let mut previous_cpu_s = 0.0;
    let mut costs = Vec::new();
    for w in by_window(stamps, elapsed_s, windows) {
        let Some(last_cpu_s) = w.iter().map(|s| s.cpu_end_s).reduce(f64::max) else {
            continue;
        };
        let requests: u64 = w.iter().map(|s| s.requests).sum();
        let check_s: f64 = w.iter().map(|s| s.check_cpu_s).sum();
        if requests > 0 {
            costs.push((last_cpu_s - previous_cpu_s - check_s) * 1e3 / requests as f64);
        }
        previous_cpu_s = last_cpu_s;
    }
    if costs.is_empty() {
        f64::NAN
    } else {
        median(&costs)
    }
}

/// `emulator.other_ms`: the part of one emulate call that none of the
/// named stages covers (plan/factor clones and output assembly).
pub fn emulator_other_ms(emulate_ms: f64, stages_ms: &[f64]) -> f64 {
    emulate_ms - stages_ms.iter().sum::<f64>()
}

/// Share of one emulate call that the named stages account for.
pub fn stage_coverage(emulate_ms: f64, stages_ms: &[f64]) -> f64 {
    stages_ms.iter().sum::<f64>() / emulate_ms
}

/// `net.transport_ms`: one client call minus the server's in-process
/// handling and the response encode and decode — socket, reactor and
/// reassembly.
pub fn net_transport_ms(call_ms: f64, handle_ms: f64, encode_ms: f64, decode_ms: f64) -> f64 {
    call_ms - handle_ms - encode_ms - decode_ms
}

/// `router.hop_ms`: the routed call's median minus the median of the
/// same batches sent straight to one shard.
pub fn router_hop_ms(routed_p50_ms: f64, direct_p50_ms: f64) -> f64 {
    routed_p50_ms - direct_p50_ms
}

/// `a / b`, or 0 when `b` is 0 (a ratio over work that did not happen).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = ramp(100);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        assert_eq!(percentile(&ramp(10), 0.0), 1.0);
    }

    #[test]
    fn samples_beyond_counts_the_tail() {
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(99, 90.0), 9);
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(0, 50.0), 0);
        assert_eq!(samples_beyond(1, 50.0), 0);
    }

    #[test]
    fn tail_rule_picks_highest_percentile_with_ten_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn median_ignores_input_order() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn fail_frac_counts_transport_refusals_and_wrong_answers() {
        let mut a = Tally::default();
        for ok in [true, true, false, true] {
            a.record(ok);
        }
        let mut b = Tally::default();
        b.record(true);
        b.record(false);
        a.merge(b);
        assert_eq!(
            a,
            Tally {
                attempted: 6,
                failed: 2
            }
        );
        assert!((a.fail_frac() - 2.0 / 6.0).abs() < 1e-15);
        assert_eq!(Tally::default().fail_frac(), 0.0);
    }

    fn stamp(end_s: f64, cpu_end_s: f64, check_cpu_s: f64, requests: u64) -> Stamp {
        Stamp {
            end_s,
            cpu_end_s,
            check_cpu_s,
            requests,
            bytes: requests * 8,
        }
    }

    #[test]
    fn windowed_figures_take_the_median_window() {
        // Four 1 s windows. Window 2 is a host stall: one answer, and its
        // CPU cost per request is ten times the others'.
        let stamps = [
            stamp(0.5, 0.2, 0.0, 10),
            stamp(0.9, 0.4, 0.1, 10),  // window 0: (0.4 - 0.1) s / 20
            stamp(1.5, 0.7, 0.0, 20),  // window 1: 0.3 s / 20
            stamp(2.9, 4.7, 0.0, 20),  // window 2: 4.0 s / 20
            stamp(3.2, 4.9, 0.05, 10), // window 3: (0.5 - 0.1) s / 20
            stamp(3.8, 5.2, 0.05, 10),
        ];
        let cost = windowed_cpu_ms_per_req(&stamps, 4.0, 4);
        assert!((cost - 15.0).abs() < 1e-9, "{cost}");
        let (req, bytes) = windowed_rates(&stamps, 4.0, 4);
        assert_eq!((req, bytes), (20.0, 160.0));
        // A failed call adds CPU but no requests; a window without answers
        // is skipped and its CPU goes to the next window that has some.
        let sparse = [stamp(0.5, 1.0, 0.0, 10), stamp(2.5, 3.0, 0.0, 10)];
        assert_eq!(windowed_cpu_ms_per_req(&sparse, 3.0, 3), 100.0);
        assert!(windowed_cpu_ms_per_req(&[stamp(0.5, 1.0, 0.0, 0)], 1.0, 1).is_nan());
    }

    #[test]
    fn derived_metrics() {
        let stages = [2.0, 17.0, 10.0, 5.0];
        assert_eq!(emulator_other_ms(35.0, &stages), 1.0);
        assert!((stage_coverage(35.0, &stages) - 34.0 / 35.0).abs() < 1e-15);
        assert_eq!(net_transport_ms(13.0, 0.5, 1.25, 2.25), 9.0);
        assert_eq!(router_hop_ms(25.0, 13.0), 12.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
        assert_eq!(ratio(3.0, 0.0), 0.0);
    }
}
