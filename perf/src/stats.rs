//! Order statistics and the A-versus-B verdict rule.

/// Median of `values` (mean of the two middle ones for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// gives them (the exclusive method) — the same spread the benchmark's
/// acceptance check computes. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Unresolved,
    Regressed,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "regressed",
        }
    }
}

/// One (metric, workload) comparison of parent runs `a` against change runs
/// `b`.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    pub median_a: f64,
    pub median_b: f64,
    pub quartiles_a: Option<(f64, f64)>,
    pub quartiles_b: Option<(f64, f64)>,
    /// Share of pairs (`a[i]`, `b[i]`) the change wins; ties count for
    /// neither side.
    pub win_share: f64,
    pub pairs: usize,
    pub verdict: Verdict,
}

/// The choosing-metrics section 8 rule. *Improved*: the change wins at least
/// nine tenths of the pairs and the medians differ, in the good direction, by
/// more than the parent's own inter-quartile distance. *Regressed*: the
/// change's median is worse than the parent's by more than `bound` (a share
/// of the parent's median). Otherwise *unresolved* when the parent's spread is
/// wider than the bound (unless every change run beats every parent run), and
/// *unchanged* when it is not. A metric without a bound (`None`, the per-layer
/// metrics) can improve but never regresses.
pub fn compare(a: &[f64], b: &[f64], better: Better, bound: Option<f64>) -> Comparison {
    assert!(
        !a.is_empty() && !b.is_empty(),
        "compare needs runs on both sides"
    );
    // Orient so that smaller is better.
    let sign = if better == Better::Lower { 1.0 } else { -1.0 };
    let (med_a, med_b) = (median(a), median(b));
    let pairs = a.len().min(b.len());
    let wins = (0..pairs).filter(|&i| sign * b[i] < sign * a[i]).count();
    let win_share = wins as f64 / pairs as f64;
    let q = |v: &[f64]| (v.len() >= 2).then(|| quartiles(v));
    let iqr_a = q(a).map_or(0.0, |(q1, q3)| q3 - q1);
    let gain = sign * (med_a - med_b);
    let all_better = b.iter().all(|&y| a.iter().all(|&x| sign * y < sign * x));
    let verdict = if win_share >= 0.9 && gain > iqr_a && gain > 0.0 {
        Verdict::Improved
    } else {
        match bound {
            Some(bound) if -gain > bound * med_a.abs() => Verdict::Regressed,
            Some(bound) if iqr_a > bound * med_a.abs() && !all_better => Verdict::Unresolved,
            _ => Verdict::Unchanged,
        }
    };
    Comparison {
        median_a: med_a,
        median_b: med_b,
        quartiles_a: q(a),
        quartiles_b: q(b),
        win_share,
        pairs,
        verdict,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }

    #[test]
    fn verdicts_follow_the_rule() {
        let a = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0, 10.0];
        let same = compare(&a, &a, Better::Lower, Some(0.08));
        assert_eq!(same.verdict, Verdict::Unchanged);
        assert_eq!(same.win_share, 0.0);
        let faster: Vec<f64> = a.iter().map(|x| x * 0.8).collect();
        assert_eq!(
            compare(&a, &faster, Better::Lower, Some(0.08)).verdict,
            Verdict::Improved
        );
        // The same numbers are a regression for a higher-is-better metric.
        assert_eq!(
            compare(&a, &faster, Better::Higher, Some(0.08)).verdict,
            Verdict::Regressed
        );
        let slower: Vec<f64> = a.iter().map(|x| x * 1.2).collect();
        assert_eq!(
            compare(&a, &slower, Better::Lower, Some(0.08)).verdict,
            Verdict::Regressed
        );
        assert_eq!(
            compare(&a, &slower, Better::Lower, None).verdict,
            Verdict::Unchanged
        );
        // Parent spread wider than the bound: not resolvable as "unchanged".
        let noisy = [8.0, 12.0, 9.0, 11.0, 10.0, 7.0, 13.0, 10.0, 9.5, 10.5];
        assert_eq!(
            compare(&noisy, &noisy, Better::Lower, Some(0.08)).verdict,
            Verdict::Unresolved
        );
        // A small gain inside the bound and inside the parent's spread.
        let bit: Vec<f64> = a.iter().map(|x| x * 0.995).collect();
        assert_eq!(
            compare(&a, &bit, Better::Lower, Some(0.08)).verdict,
            Verdict::Unchanged
        );
    }
}
