//! Reading statistics out of a metrics registry by name.
//!
//! The bench binaries and the integration tests read every statistic the
//! way an operator does: render the registry as Prometheus text, parse it
//! back and look samples up by their DESIGN.md §8 names. A name the scrape
//! does not hold panics, where the registry's own get-or-insert accessors
//! would register a fresh zero under the misspelt name.

use crate::Json;
use ink_obs::parse::{parse_prometheus, PromFamily};
use ink_obs::MetricsRegistry;

/// One parsed scrape of a registry.
pub struct Scrape {
    families: Vec<PromFamily>,
}

impl Scrape {
    /// Renders `registry` and parses the text back.
    pub fn of(registry: &MetricsRegistry) -> Self {
        let families = parse_prometheus(&registry.render_prometheus())
            .unwrap_or_else(|e| panic!("a registry renders valid Prometheus text: {e}"));
        Self { families }
    }

    /// The value of sample `name`: a counter or gauge, or a histogram's
    /// `_sum` / `_count`.
    ///
    /// # Panics
    ///
    /// When the scrape holds no sample of that name.
    pub fn value(&self, name: &str) -> f64 {
        self.families
            .iter()
            .flat_map(|f| &f.samples)
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("{name} is not in the scrape"))
            .value
    }

    /// [`Scrape::value`] of a count.
    pub fn count(&self, name: &str) -> u64 {
        self.value(name) as u64
    }

    /// Bucket estimate of histogram `name`'s `q`-quantile: the upper bound of
    /// the first bucket whose cumulative count reaches rank `⌈q · count⌉` —
    /// never below the exact value, at most one log bucket (12.5 %) above
    /// it. 0 for an empty histogram.
    ///
    /// # Panics
    ///
    /// When the scrape holds no histogram of that name.
    pub fn quantile(&self, name: &str, q: f64) -> u64 {
        let count = self.count(&format!("{name}_count"));
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count.max(1));
        self.families
            .iter()
            .filter(|f| f.name == name)
            .flat_map(|f| &f.samples)
            .filter(|s| s.name.ends_with("_bucket") && s.value as u64 >= rank)
            .find_map(|s| s.label("le")?.parse().ok())
            .unwrap_or(0)
    }

    /// Every family whose name starts with `prefix`, as one object keyed by
    /// family name: a counter or gauge as its value, a histogram as
    /// `{count, p50, p90, p99}` ([`Scrape::quantile`]) in its own unit.
    pub fn json(&self, prefix: &str) -> Json {
        let family = |f: &PromFamily| match f.kind.as_str() {
            "histogram" => Json::obj([
                ("count", Json::from(self.count(&format!("{}_count", f.name)))),
                ("p50", Json::from(self.quantile(&f.name, 0.50))),
                ("p90", Json::from(self.quantile(&f.name, 0.90))),
                ("p99", Json::from(self.quantile(&f.name, 0.99))),
            ]),
            _ => Json::from(f.samples[0].value),
        };
        let families = self.families.iter().filter(|f| f.name.starts_with(prefix));
        Json::obj(families.map(|f| (&*f.name, family(f))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_samples_and_bucket_quantiles_by_name() {
        let registry = MetricsRegistry::new();
        registry.counter("ink_a_total", "a").add(3);
        registry.gauge("ink_b", "b").set(0.25);
        let h = registry.histogram("ink_c_ns", "c");
        for v in 1..=100 {
            h.record(v);
        }
        registry.histogram("ink_d_ns", "d");
        let scrape = Scrape::of(&registry);
        assert_eq!(scrape.count("ink_a_total"), 3);
        assert_eq!(scrape.value("ink_b"), 0.25);
        assert_eq!(scrape.count("ink_c_ns_count"), 100);
        // Values 1..=15 have exact buckets; above, the estimate is the
        // bucket's upper bound, the histogram's own `quantile` unclamped.
        assert_eq!(scrape.quantile("ink_c_ns", 0.10), 10);
        assert_eq!(scrape.quantile("ink_c_ns", 0.50), 51);
        assert_eq!(scrape.quantile("ink_c_ns", 1.0), 103);
        assert_eq!(scrape.quantile("ink_d_ns", 0.5), 0, "empty histogram");
        let json = scrape.json("ink_").pretty();
        assert!(json.contains("\"ink_a_total\": 3"), "{json}");
        assert!(json.contains("\"ink_c_ns\": {\n    \"count\": 100,\n    \"p50\": 51"), "{json}");
    }

    #[test]
    #[should_panic(expected = "ink_a_totl is not in the scrape")]
    fn a_misspelt_name_panics() {
        let registry = MetricsRegistry::new();
        registry.counter("ink_a_total", "a");
        Scrape::of(&registry).value("ink_a_totl");
    }
}
