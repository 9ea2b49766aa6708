//! The benchmark's own statistics: percentiles, quartiles and the
//! `read_max_rps` rate search. Every function here is pure, so the unit
//! tests below pin exactly what a reported number means.

/// Nearest-rank percentile of an ascending-sorted sample: the smallest value
/// with at least `q·n` values at or below it.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!((0.0..=1.0).contains(&q), "percentile {q} outside [0, 1]");
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Samples strictly above the nearest-rank `q` percentile of `n` samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    n.saturating_sub(rank)
}

/// Candidate tail percentiles, highest first.
pub const TAILS: [f64; 4] = [0.99, 0.95, 0.90, 0.75];

/// The highest tail percentile of [`TAILS`] that has at least ten samples
/// beyond it, or `None` when even p75 does not.
pub fn tail_quantile(n: usize) -> Option<f64> {
    TAILS.iter().copied().find(|&q| samples_beyond(n, q) >= 10)
}

/// Median, tail percentile and which tail it is, of an unsorted sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub tail: f64,
    pub tail_q: f64,
}

/// Summarise a latency sample. Fails when the sample is too small to
/// support any tail percentile.
pub fn summarize(values: &[f64]) -> Result<Summary, String> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let tail_q = tail_quantile(sorted.len())
        .ok_or_else(|| format!("{} samples support no tail percentile", sorted.len()))?;
    Ok(Summary {
        n: sorted.len(),
        p50: percentile(&sorted, 0.5),
        tail: percentile(&sorted, tail_q),
        tail_q,
    })
}

/// The `within` percentile of each window of `window` consecutive values
/// (a shorter remainder joins the window before it), then the `across`
/// percentile of those.
pub fn windowed_quantile(in_order: &[f64], window: usize, within: f64, across: f64) -> f64 {
    assert!(window >= 1 && !in_order.is_empty(), "windows need values");
    let window = window.min(in_order.len());
    let count = in_order.len() / window;
    let mut per_window: Vec<f64> = (0..count)
        .map(|w| {
            let end = if w + 1 == count {
                in_order.len()
            } else {
                (w + 1) * window
            };
            let mut part = in_order[w * window..end].to_vec();
            part.sort_by(f64::total_cmp);
            percentile(&part, within)
        })
        .collect();
    per_window.sort_by(f64::total_cmp);
    percentile(&per_window, across)
}

/// The median over windows of `window` values of each window's tail: the
/// highest percentile of [`TAILS`] with ten samples beyond it in a window.
/// A stall confined to half the windows or fewer does not move it; a
/// regression in more than half of them does. Returns the percentile used
/// (fixed by `window`) and the value.
pub fn windowed_tail(in_order: &[f64], window: usize) -> Result<(f64, f64), String> {
    let window = window.min(in_order.len());
    let q = tail_quantile(window)
        .ok_or_else(|| format!("windows of {window} samples support no tail percentile"))?;
    Ok((q, windowed_quantile(in_order, window, q, 0.5)))
}

/// The nearest-rank `q` percentile of an unsorted sample, refused unless
/// at least ten samples lie beyond it.
pub fn fixed_tail(values: &[f64], q: f64) -> Result<f64, String> {
    if samples_beyond(values.len(), q) < 10 {
        return Err(format!(
            "{} samples leave fewer than ten beyond p{}",
            values.len(),
            q * 100.0
        ));
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(percentile(&sorted, q))
}

/// The fastest of repeated timings of the same fixed work. Noise on a
/// shared host only ever adds time, so the minimum is the steadiest
/// reading of what the work itself costs.
pub fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Median of an unsorted sample (nearest rank, so always a sample value).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 0.5)
}

/// First and third quartile, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` does with its default "exclusive"
/// method (including its extrapolation on tiny samples), which is how
/// run-to-run spread is judged.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let ld = sorted.len() as i64;
    let m = ld + 1;
    let at = |i: i64| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        let (a, b) = (sorted[j as usize - 1], sorted[j as usize]);
        (a * (4.0 - delta) + b * delta) / 4.0
    };
    (at(1), at(3))
}

/// What one fixed-rate open-loop phase showed, as the rate search sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseVerdict {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Share of requests sent that succeeded within the latency limit,
    /// timed from their due time, over the whole phase. Failed and refused
    /// requests are misses.
    pub within: f64,
    /// The same share over the second half of the phase's schedule, where
    /// a growing backlog shows.
    pub within_last: f64,
    /// p99 latency over the second half, µs: a continuous reading used
    /// only to interpolate within the final bracket.
    pub p99_last_us: f64,
}

impl PhaseVerdict {
    /// The phase's score: its second half, once the queue has settled. A
    /// growing backlog fails it; a transient at the start does not.
    pub fn score(&self) -> f64 {
        self.within_last
    }
}

/// The share of requests that must meet the limit for a rate to pass: p99.
pub const MEET_SHARE: f64 = 0.99;

/// Result of a rate search.
#[derive(Debug, Clone, PartialEq)]
pub struct RateSearch {
    /// Highest rate meeting the limit, interpolated on the phases' scores
    /// between the final bracketing passing and failing rates.
    pub max_rate: f64,
    /// Every phase run, in the order run.
    pub phases: Vec<PhaseVerdict>,
}

/// Bisect offered rates between `lo` and `hi` on a log scale for `steps`
/// phases, looking for the highest rate whose phase passes
/// ([`MEET_SHARE`] of requests within `limit_us` over the phase's second
/// half), then interpolate between the final bracket where the log of the
/// second half's p99 crosses the log of the limit. The search itself is deterministic: the same phase
/// outcomes always give the same rates, in the same order, and the same
/// answer.
pub fn search_max_rate(
    lo: f64,
    hi: f64,
    steps: usize,
    limit_us: f64,
    mut run_phase: impl FnMut(f64) -> PhaseVerdict,
) -> RateSearch {
    assert!(
        0.0 < lo && lo < hi && steps >= 1,
        "rate search needs 0 < lo < hi and a step"
    );
    let mut phases = Vec::with_capacity(steps);
    let (mut a, mut b) = (lo, hi);
    let mut pass: Option<PhaseVerdict> = None;
    let mut fail: Option<PhaseVerdict> = None;
    for _ in 0..steps {
        let mid = (a * b).sqrt();
        let v = run_phase(mid);
        phases.push(v);
        if v.score() >= MEET_SHARE {
            pass = Some(v);
            a = mid;
        } else {
            fail = Some(v);
            b = mid;
        }
    }
    let max_rate = match (pass, fail) {
        (Some(p), Some(f)) => {
            let (a, b) = (p.p99_last_us.max(1.0).ln(), f.p99_last_us.max(1.0).ln());
            let t = if b > a {
                (limit_us.ln() - a) / (b - a)
            } else {
                0.0
            };
            p.rate + (f.rate - p.rate) * t.clamp(0.0, 1.0)
        }
        // Nothing failed: the highest rate tried is a lower bound.
        (Some(p), None) => p.rate,
        // Nothing passed: interpolate from an idle server (score 1 at 0).
        (None, Some(f)) => {
            let t = (1.0 - MEET_SHARE) / (1.0 - f.score()).max(f64::MIN_POSITIVE);
            f.rate * t.clamp(0.0, 1.0)
        }
        (None, None) => unreachable!("at least one step runs"),
    };
    RateSearch { max_rate, phases }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(fastest(&[3.0, 1.5, 2.0]), 1.5);
    }

    #[test]
    fn the_tail_used_has_at_least_ten_samples_beyond_it() {
        assert_eq!(tail_quantile(1000), Some(0.99));
        assert_eq!(samples_beyond(1000, 0.99), 10);
        // One sample short of p99: fall back to p95.
        assert_eq!(tail_quantile(999), Some(0.95));
        assert_eq!(tail_quantile(200), Some(0.95));
        assert_eq!(tail_quantile(100), Some(0.90));
        assert_eq!(tail_quantile(99), Some(0.75));
        assert_eq!(tail_quantile(40), Some(0.75));
        assert_eq!(tail_quantile(39), None);
        for n in 1..5000 {
            if let Some(q) = tail_quantile(n) {
                assert!(samples_beyond(n, q) >= 10, "n={n} q={q}");
            }
        }
    }

    #[test]
    fn summaries_report_the_tail_they_used() {
        let v: Vec<f64> = (0..1000).rev().map(f64::from).collect();
        let s = summarize(&v).expect("1000 samples");
        assert_eq!((s.n, s.p50, s.tail, s.tail_q), (1000, 499.0, 989.0, 0.99));
        assert!(summarize(&v[..39]).is_err());
    }

    #[test]
    fn a_windowed_tail_ignores_one_bad_window() {
        // Five windows of 1000; the third holds a stall of 60 slow values.
        let mut v: Vec<f64> = (0..5000).map(|i| f64::from(i % 1000)).collect();
        for x in &mut v[2000..2060] {
            *x = 1e6;
        }
        let (q, tail) = windowed_tail(&v, 1000).expect("enough samples");
        assert_eq!(q, 0.99);
        assert_eq!(tail, 989.0);
        // The plain p99 of the same sample is the stall.
        assert_eq!(summarize(&v).expect("enough").tail, 1e6);
        // A short sample is one window.
        let (q, tail) = windowed_tail(&v[..100], 1000).expect("100 samples");
        assert_eq!((q, tail), (0.90, 89.0));
        // The remainder joins the last window rather than forming its own.
        let (_, tail) = windowed_tail(&v[..2500], 1000).expect("2500 samples");
        assert_eq!(tail, 989.0);
        assert!(windowed_tail(&v[..30], 1000).is_err());
    }

    #[test]
    fn a_windowed_tail_shows_a_regression_in_most_windows() {
        // Four windows of 100 values 0..99; slow tails in some of them.
        let spoil = |bad: usize| {
            let mut v: Vec<f64> = (0..400).map(|i| f64::from(i % 100)).collect();
            for w in 0..bad {
                for x in &mut v[w * 100 + 85..w * 100 + 100] {
                    *x = 1e6;
                }
            }
            windowed_tail(&v, 100).expect("enough samples")
        };
        assert_eq!(spoil(0), (0.90, 89.0));
        assert_eq!(spoil(1), (0.90, 89.0));
        // Half of four windows: the nearest-rank median is the lower one.
        assert_eq!(spoil(2), (0.90, 89.0));
        assert_eq!(spoil(3), (0.90, 1e6));
        assert_eq!(spoil(4), (0.90, 1e6));
        let v: Vec<f64> = (0..400).map(|i| f64::from(i % 100)).collect();
        assert_eq!(windowed_quantile(&v, 100, 0.5, 0.5), 49.0);
    }

    #[test]
    fn a_fixed_tail_keeps_its_percentile_and_needs_ten_beyond() {
        let v: Vec<f64> = (1..=60).rev().map(f64::from).collect();
        assert_eq!(fixed_tail(&v, 0.75), Ok(45.0));
        assert_eq!(fixed_tail(&v[..40], 0.75), Ok(60.0 - 10.0));
        assert!(fixed_tail(&v[..39], 0.75).is_err());
        // The percentile does not follow the sample size.
        let w: Vec<f64> = (1..=400).map(f64::from).collect();
        assert_eq!(fixed_tail(&w, 0.75), Ok(300.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        // statistics.quantiles([1, 2, 4, 8, 16, 32, 64], n=4) == [2.0, 8.0, 32.0]
        assert_eq!(
            quartiles(&[64.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0]),
            (2.0, 32.0)
        );
    }

    /// A server whose p99 is 100 µs up to `knee` requests/s and then
    /// 100·e^(20(r/knee − 1)) µs; against a 1000 µs limit its answer is
    /// knee·(1 + ln 10 / 20).
    fn model_phase(knee: f64) -> impl FnMut(f64) -> PhaseVerdict {
        move |rate| {
            let p99 = 100.0 * (20.0 * (rate / knee - 1.0)).max(0.0).exp();
            let within = if p99 <= 1000.0 { 1.0 } else { 0.5 };
            PhaseVerdict {
                rate,
                within,
                within_last: within,
                p99_last_us: p99,
            }
        }
    }

    #[test]
    fn rate_search_is_deterministic_and_brackets_the_knee() {
        let a = search_max_rate(1000.0, 64_000.0, 8, 1000.0, model_phase(5000.0));
        let b = search_max_rate(1000.0, 64_000.0, 8, 1000.0, model_phase(5000.0));
        assert_eq!(a, b);
        assert_eq!(a.phases.len(), 8);
        // The first probe is the geometric middle of the range.
        assert!((a.phases[0].rate - 8000.0).abs() < 1e-6);
        let expect = 5000.0 * (1.0 + 10f64.ln() / 20.0);
        assert!(
            (a.max_rate - expect).abs() < expect * 0.01,
            "{} vs {expect}",
            a.max_rate
        );
        // A faster server never reads slower.
        let faster = search_max_rate(1000.0, 64_000.0, 8, 1000.0, model_phase(6000.0));
        assert!(faster.max_rate > a.max_rate);
    }

    #[test]
    fn a_growing_backlog_fails_a_phase_even_when_the_whole_phase_looks_fine() {
        let v = PhaseVerdict {
            rate: 1.0,
            within: 0.995,
            within_last: 0.95,
            p99_last_us: 0.0,
        };
        assert!(v.score() < MEET_SHARE);
        let settled = PhaseVerdict {
            rate: 1.0,
            within: 0.95,
            within_last: 0.995,
            p99_last_us: 0.0,
        };
        assert!(settled.score() >= MEET_SHARE);
        let r = search_max_rate(100.0, 400.0, 6, 1000.0, |rate| {
            let backlog = rate > 150.0;
            PhaseVerdict {
                rate,
                within: 1.0,
                within_last: if backlog { 0.5 } else { 1.0 },
                p99_last_us: if backlog { 1e6 } else { 10.0 },
            }
        });
        assert!(r.max_rate > 140.0 && r.max_rate <= 150.0, "{}", r.max_rate);
    }

    #[test]
    fn rate_search_edges() {
        let fine = |rate| PhaseVerdict {
            rate,
            within: 1.0,
            within_last: 1.0,
            p99_last_us: 10.0,
        };
        let all_pass = search_max_rate(100.0, 200.0, 3, 1000.0, fine);
        assert!(all_pass.max_rate > 180.0 && all_pass.max_rate < 200.0);
        let bad = |rate| PhaseVerdict {
            rate,
            within: 0.5,
            within_last: 0.5,
            p99_last_us: 1e6,
        };
        let none_pass = search_max_rate(100.0, 200.0, 3, 1000.0, bad);
        assert!(none_pass.max_rate > 0.0 && none_pass.max_rate < 100.0);
    }
}
