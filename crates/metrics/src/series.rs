//! Figure series: metric values as a function of the number of queries, one
//! curve per protocol.
//!
//! Every figure in the paper plots one metric on the y-axis against "number of
//! queries" on the x-axis, with one curve per compared approach (Locaware,
//! Flooding, Dicas, Dicas-Keys). [`Figure`] is exactly that shape, and knows
//! how to render itself as an aligned text table or CSV so the experiment
//! binaries can print the same rows the paper plots.

use std::collections::BTreeMap;

/// One (x, y) point of a curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesPoint {
    /// Number of queries issued (the x-axis of every figure).
    pub queries: u64,
    /// The metric value at that point.
    pub value: f64,
}

/// A figure: a named metric with one curve per protocol label.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure {
    /// Figure title, e.g. `"Figure 2: download distance (ms)"`.
    pub title: String,
    /// Name of the y-axis metric, e.g. `"avg download distance (ms)"`.
    pub metric: String,
    /// Curves keyed by protocol label, each a list of points in x order.
    curves: BTreeMap<String, Vec<SeriesPoint>>,
}

impl Figure {
    /// Creates an empty figure.
    pub fn new(title: impl Into<String>, metric: impl Into<String>) -> Self {
        Figure {
            title: title.into(),
            metric: metric.into(),
            curves: BTreeMap::new(),
        }
    }

    /// Creates an empty *degradation* figure: the metric as a function of a
    /// fault level instead of the query count. The x-axis reuses
    /// [`SeriesPoint::queries`] to carry the level in percent (0–100) — e.g.
    /// message-loss rate — so every lookup, reduction and rendering helper
    /// works unchanged; the title records the reinterpretation.
    pub fn degradation(fault_axis: &str, metric: impl Into<String>) -> Self {
        let metric = metric.into();
        Figure {
            title: format!("Degradation: {metric} vs {fault_axis} (%)"),
            metric,
            curves: BTreeMap::new(),
        }
    }

    /// Appends a point to the curve of `label`, keeping x order.
    pub fn push(&mut self, label: impl Into<String>, point: SeriesPoint) {
        let curve = self.curves.entry(label.into()).or_default();
        curve.push(point);
        curve.sort_by_key(|p| p.queries);
    }

    /// The labels present, in sorted order.
    pub fn labels(&self) -> Vec<&str> {
        self.curves.keys().map(|s| s.as_str()).collect()
    }

    /// The curve for `label`, if present.
    pub fn curve(&self, label: &str) -> Option<&[SeriesPoint]> {
        self.curves.get(label).map(|v| v.as_slice())
    }

    /// All distinct x values across curves, sorted.
    pub fn x_values(&self) -> Vec<u64> {
        let mut xs: Vec<u64> = self
            .curves
            .values()
            .flat_map(|c| c.iter().map(|p| p.queries))
            .collect();
        xs.sort_unstable();
        xs.dedup();
        xs
    }

    /// The y value of `label` at exactly `queries`, if recorded.
    pub fn value_at(&self, label: &str, queries: u64) -> Option<f64> {
        self.curves
            .get(label)?
            .iter()
            .find(|p| p.queries == queries)
            .map(|p| p.value)
    }

    /// Relative improvement of `a` over `b` averaged across common x values:
    /// `mean((b - a) / b)`. Positive means `a` is lower (better for costs).
    pub fn relative_reduction(&self, a: &str, b: &str) -> Option<f64> {
        let xs = self.x_values();
        let mut ratios = Vec::new();
        for x in xs {
            if let (Some(va), Some(vb)) = (self.value_at(a, x), self.value_at(b, x)) {
                if vb != 0.0 {
                    ratios.push((vb - va) / vb);
                }
            }
        }
        if ratios.is_empty() {
            None
        } else {
            Some(ratios.iter().sum::<f64>() / ratios.len() as f64)
        }
    }

    /// Renders the figure as an aligned text table: one row per x value, one
    /// column per protocol.
    pub fn to_table(&self) -> String {
        let labels = self.labels();
        let mut out = String::new();
        out.push_str(&format!("# {}\n", self.title));
        out.push_str(&format!("# metric: {}\n", self.metric));
        out.push_str(&format!("{:>10}", "queries"));
        for l in &labels {
            out.push_str(&format!(" {:>16}", l));
        }
        out.push('\n');
        for x in self.x_values() {
            out.push_str(&format!("{x:>10}"));
            for l in &labels {
                match self.value_at(l, x) {
                    Some(v) => out.push_str(&format!(" {v:>16.4}")),
                    None => out.push_str(&format!(" {:>16}", "-")),
                }
            }
            out.push('\n');
        }
        out
    }

    /// Renders the figure as CSV with a `queries` column followed by one column
    /// per protocol.
    pub fn to_csv(&self) -> String {
        let labels = self.labels();
        let mut out = String::new();
        out.push_str("queries");
        for l in &labels {
            out.push(',');
            out.push_str(l);
        }
        out.push('\n');
        for x in self.x_values() {
            out.push_str(&x.to_string());
            for l in &labels {
                out.push(',');
                if let Some(v) = self.value_at(l, x) { out.push_str(&format!("{v:.6}")) }
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_figure() -> Figure {
        let mut fig = Figure::new("Figure 3: search traffic", "messages per query");
        for (q, flood, loca) in [(1000u64, 800.0, 15.0), (2000, 810.0, 14.0), (3000, 805.0, 13.0)] {
            fig.push("flooding", SeriesPoint { queries: q, value: flood });
            fig.push("locaware", SeriesPoint { queries: q, value: loca });
        }
        fig
    }

    #[test]
    fn points_are_kept_in_x_order() {
        let mut fig = Figure::new("t", "m");
        fig.push("a", SeriesPoint { queries: 300, value: 3.0 });
        fig.push("a", SeriesPoint { queries: 100, value: 1.0 });
        fig.push("a", SeriesPoint { queries: 200, value: 2.0 });
        let xs: Vec<u64> = fig.curve("a").unwrap().iter().map(|p| p.queries).collect();
        assert_eq!(xs, vec![100, 200, 300]);
        assert_eq!(fig.x_values(), vec![100, 200, 300]);
    }

    #[test]
    fn value_lookup_and_means() {
        let fig = sample_figure();
        assert_eq!(fig.value_at("flooding", 2000), Some(810.0));
        assert_eq!(fig.value_at("flooding", 9999), None);
        assert_eq!(fig.value_at("nope", 1000), None);
        let values: Vec<f64> = fig.curve("locaware").unwrap().iter().map(|p| p.value).collect();
        assert!((crate::mean(&values) - 14.0).abs() < 1e-12);
        assert_eq!(fig.curve("nope"), None);
    }

    #[test]
    fn relative_reduction_matches_the_paper_style_claim() {
        let fig = sample_figure();
        // Locaware cuts ~98% of flooding traffic in this synthetic sample.
        let r = fig.relative_reduction("locaware", "flooding").unwrap();
        assert!(r > 0.97 && r < 1.0, "reduction {r}");
        assert_eq!(fig.relative_reduction("locaware", "absent"), None);
    }

    #[test]
    fn table_and_csv_render_every_point() {
        let fig = sample_figure();
        let table = fig.to_table();
        assert!(table.contains("Figure 3"));
        assert!(table.contains("flooding"));
        assert!(table.contains("locaware"));
        assert!(table.lines().count() >= 3 + 3);
        let csv = fig.to_csv();
        assert_eq!(csv.lines().next().unwrap(), "queries,flooding,locaware");
        assert_eq!(csv.lines().count(), 4);
        assert!(csv.contains("2000,810.000000,14.000000"));
    }

    #[test]
    fn degradation_figures_reuse_the_series_machinery() {
        let mut fig = Figure::degradation("message loss", "success rate");
        assert!(fig.title.contains("message loss"));
        assert!(fig.title.contains("success rate"));
        for (loss_pct, flood, loca) in [(0u64, 0.95, 0.97), (5, 0.80, 0.90), (10, 0.60, 0.82)] {
            fig.push("flooding", SeriesPoint { queries: loss_pct, value: flood });
            fig.push("locaware", SeriesPoint { queries: loss_pct, value: loca });
        }
        assert_eq!(fig.x_values(), vec![0, 5, 10]);
        assert_eq!(fig.value_at("locaware", 5), Some(0.90));
        // Success is a benefit, not a cost: locaware retaining more of it
        // shows up as a *negative* reduction relative to flooding.
        assert!(fig.relative_reduction("locaware", "flooding").unwrap() < 0.0);
    }

    #[test]
    fn labels_are_sorted() {
        let mut fig = Figure::new("t", "m");
        fig.push("zeta", SeriesPoint { queries: 1, value: 0.0 });
        fig.push("alpha", SeriesPoint { queries: 1, value: 0.0 });
        assert_eq!(fig.labels(), vec!["alpha", "zeta"]);
    }
}
