//! Figure series: metric values as a function of one x-axis, one curve per
//! protocol.
//!
//! Every figure in the paper plots one metric on the y-axis against "number of
//! queries" on the x-axis, with one curve per compared approach (Locaware,
//! Flooding, Dicas, Dicas-Keys); the degradation study plots against a fault
//! level instead. [`Figure`] is exactly that shape: it holds the numbers, and
//! [`Figure::table`] lays them out as the [`Table`] the experiment binaries
//! print.

use std::collections::BTreeMap;

use crate::Table;

/// One (x, y) point of a curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesPoint {
    /// The x-axis value (a query count, a loss level in percent, …).
    pub x: u64,
    /// The metric value at that point.
    pub value: f64,
}

/// A figure: one curve per protocol label over a named x-axis.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure {
    /// The x-axis name, which heads the first column of [`Figure::table`].
    x_axis: String,
    /// Curves keyed by protocol label, each a list of points in x order.
    curves: BTreeMap<String, Vec<SeriesPoint>>,
}

impl Figure {
    /// Creates an empty figure over the x-axis named `x_axis`.
    pub fn new(x_axis: impl Into<String>) -> Self {
        Figure { x_axis: x_axis.into(), curves: BTreeMap::new() }
    }

    /// Appends a point to the curve of `label`, keeping x order.
    pub fn push(&mut self, label: impl Into<String>, point: SeriesPoint) {
        let curve = self.curves.entry(label.into()).or_default();
        curve.push(point);
        curve.sort_by_key(|p| p.x);
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
        let mut xs: Vec<u64> =
            self.curves.values().flat_map(|c| c.iter().map(|p| p.x)).collect();
        xs.sort_unstable();
        xs.dedup();
        xs
    }

    /// The y value of `label` at exactly `x`, if recorded.
    pub fn value_at(&self, label: &str, x: u64) -> Option<f64> {
        self.curves.get(label)?.iter().find(|p| p.x == x).map(|p| p.value)
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

    /// The figure as a table: the x-axis column, then one column per label;
    /// one row per x value, each value to four decimals and `-` where a
    /// curve has no point.
    pub fn table(&self) -> Table {
        let labels = self.labels();
        let mut table = Table::new(std::iter::once(self.x_axis.as_str()).chain(labels.iter().copied()));
        for x in self.x_values() {
            let values = labels
                .iter()
                .map(|label| self.value_at(label, x).map_or("-".to_string(), |v| format!("{v:.4}")));
            table.push_row(std::iter::once(x.to_string()).chain(values));
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_figure() -> Figure {
        let mut fig = Figure::new("queries");
        for (x, flood, loca) in [(1000u64, 800.0, 15.0), (2000, 810.0, 14.0), (3000, 805.0, 13.0)] {
            fig.push("flooding", SeriesPoint { x, value: flood });
            fig.push("locaware", SeriesPoint { x, value: loca });
        }
        fig
    }

    #[test]
    fn points_are_kept_in_x_order() {
        let mut fig = Figure::new("x");
        fig.push("a", SeriesPoint { x: 300, value: 3.0 });
        fig.push("a", SeriesPoint { x: 100, value: 1.0 });
        fig.push("a", SeriesPoint { x: 200, value: 2.0 });
        let xs: Vec<u64> = fig.curve("a").unwrap().iter().map(|p| p.x).collect();
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

    /// The figure's table holds every point at four decimals, in both of
    /// `Table`'s renderings, and a curve with no point at some x shows `-`.
    #[test]
    fn table_and_csv_render_every_point() {
        let mut fig = sample_figure();
        fig.push("dicas", SeriesPoint { x: 2000, value: 1.0 / 3.0 });
        let table = fig.table();
        assert_eq!(table.headers(), ["queries", "dicas", "flooding", "locaware"]);
        assert_eq!(table.len(), 3);
        assert_eq!(table.rows()[1], ["2000", "0.3333", "810.0000", "14.0000"]);
        assert_eq!(table.rows()[0][1], "-");
        assert_eq!(table.render().lines().nth(3), Some("2000     0.3333  810.0000  14.0000"));
        let csv = table.csv();
        assert_eq!(csv.lines().next().unwrap(), "queries,dicas,flooding,locaware");
        assert_eq!(csv.lines().count(), 4);
        assert!(csv.contains("\n2000,0.3333,810.0000,14.0000\n"), "{csv}");
    }

    /// A figure over a fault level instead of the query count is the same
    /// machinery with another axis name, which heads its table.
    #[test]
    fn degradation_figures_reuse_the_series_machinery() {
        let mut fig = Figure::new("loss (%)");
        for (loss_pct, flood, loca) in [(0u64, 0.95, 0.97), (5, 0.80, 0.90), (10, 0.60, 0.82)] {
            fig.push("flooding", SeriesPoint { x: loss_pct, value: flood });
            fig.push("locaware", SeriesPoint { x: loss_pct, value: loca });
        }
        assert_eq!(fig.x_values(), vec![0, 5, 10]);
        assert_eq!(fig.value_at("locaware", 5), Some(0.90));
        assert_eq!(fig.table().headers(), ["loss (%)", "flooding", "locaware"]);
        // Success is a benefit, not a cost: locaware retaining more of it
        // shows up as a *negative* reduction relative to flooding.
        assert!(fig.relative_reduction("locaware", "flooding").unwrap() < 0.0);
    }

    #[test]
    fn labels_are_sorted() {
        let mut fig = Figure::new("x");
        fig.push("zeta", SeriesPoint { x: 1, value: 0.0 });
        fig.push("alpha", SeriesPoint { x: 1, value: 0.0 });
        assert_eq!(fig.labels(), vec!["alpha", "zeta"]);
    }
}
