//! Scaled stand-ins for the paper's six benchmark datasets.
//!
//! The real datasets (Table II of the paper) range up to 111M vertices and
//! 1.62B edges; this repo synthesises laptop-scale graphs that preserve the
//! *relationships* the evaluation depends on — the small/medium/large
//! ordering, the sparse-citation vs dense-social density split, and the
//! feature-length asymmetry (Cora's features dwarf its hidden state;
//! products' features are shorter than a 256-wide hidden state). See
//! DESIGN.md §2 for the substitution rationale.

use crate::generators::{barabasi_albert, rmat};
use crate::generators::rmat::RmatParams;
use crate::DynGraph;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Which generator family synthesises the stand-in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// Preferential attachment with the given per-vertex attachment count —
    /// citation-style graphs with heavy-tailed degrees.
    BarabasiAlbert(usize),
    /// R-MAT with the Graph500 parameter mix — dense, clustered
    /// social/review/co-purchase graphs. The payload is the edge count.
    Rmat(usize),
}

/// Size class reported in the paper's Table II.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// PubMed, Cora.
    Small,
    /// Yelp, Reddit, ogbn-products.
    Medium,
    /// ogbn-papers100M.
    Large,
}

/// A benchmark dataset stand-in.
#[derive(Clone, Copy, Debug)]
pub struct DatasetSpec {
    /// Full name (mirrors the paper's Table II).
    pub name: &'static str,
    /// Two-letter code used in the paper's tables (PM, CA, YP, RD, PD, PP).
    pub code: &'static str,
    /// Vertex count of the stand-in.
    pub vertices: usize,
    /// Generator family and edge budget.
    pub family: Family,
    /// Input feature length (scaled for Cora; see module docs).
    pub feat_len: usize,
    /// Size class.
    pub scale: Scale,
    /// Generator seed — fixed so every experiment sees the same graphs.
    pub seed: u64,
}

impl DatasetSpec {
    /// The six stand-ins, in the paper's Table II order.
    pub fn all() -> [DatasetSpec; 6] {
        [
            DatasetSpec {
                name: "pubmed-sim",
                code: "PM",
                vertices: 20_000,
                family: Family::BarabasiAlbert(4),
                feat_len: 500,
                scale: Scale::Small,
                seed: 0xD5_01,
            },
            DatasetSpec {
                name: "cora-sim",
                code: "CA",
                vertices: 19_793,
                family: Family::BarabasiAlbert(6),
                feat_len: 871,
                scale: Scale::Small,
                seed: 0xD5_02,
            },
            DatasetSpec {
                name: "yelp-sim",
                code: "YP",
                vertices: 40_000,
                family: Family::Rmat(3_200_000),
                feat_len: 300,
                scale: Scale::Medium,
                seed: 0xD5_03,
            },
            DatasetSpec {
                name: "reddit-sim",
                code: "RD",
                vertices: 30_000,
                family: Family::Rmat(1_800_000),
                feat_len: 602,
                scale: Scale::Medium,
                seed: 0xD5_04,
            },
            DatasetSpec {
                name: "products-sim",
                code: "PD",
                vertices: 100_000,
                family: Family::Rmat(5_000_000),
                feat_len: 100,
                scale: Scale::Medium,
                seed: 0xD5_05,
            },
            DatasetSpec {
                name: "papers100m-sim",
                code: "PP",
                vertices: 240_000,
                family: Family::BarabasiAlbert(15),
                feat_len: 172,
                scale: Scale::Large,
                seed: 0xD5_06,
            },
        ]
    }

    /// Looks a stand-in up by name or code (case-insensitive).
    pub fn by_name(name: &str) -> Option<DatasetSpec> {
        Self::all()
            .into_iter()
            .find(|d| d.name.eq_ignore_ascii_case(name) || d.code.eq_ignore_ascii_case(name))
    }

    /// A copy with vertex and edge counts multiplied by `factor` (≥ `0.01`).
    /// Used by the bench binaries' `--scale` flag to trade fidelity for time.
    pub fn scaled(mut self, factor: f64) -> DatasetSpec {
        assert!(factor >= 0.01, "scale factor too small");
        self.vertices = ((self.vertices as f64 * factor) as usize).max(64);
        self.family = match self.family {
            Family::BarabasiAlbert(m) => Family::BarabasiAlbert(m),
            Family::Rmat(e) => Family::Rmat(((e as f64 * factor) as usize).max(256)),
        };
        self
    }

    /// Synthesises the graph (deterministic per spec).
    pub fn build(&self) -> DynGraph {
        let mut rng = StdRng::seed_from_u64(self.seed);
        match self.family {
            Family::BarabasiAlbert(m) => barabasi_albert(&mut rng, self.vertices, m),
            Family::Rmat(edges) => rmat(&mut rng, self.vertices, edges, RmatParams::default()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_datasets_in_table_order() {
        let all = DatasetSpec::all();
        let codes: Vec<_> = all.iter().map(|d| d.code).collect();
        assert_eq!(codes, vec!["PM", "CA", "YP", "RD", "PD", "PP"]);
    }

    #[test]
    fn lookup_by_name_and_code() {
        assert_eq!(DatasetSpec::by_name("cora-sim").unwrap().code, "CA");
        assert_eq!(DatasetSpec::by_name("rd").unwrap().name, "reddit-sim");
        assert!(DatasetSpec::by_name("nope").is_none());
    }

    #[test]
    fn build_small_scaled_dataset() {
        let spec = DatasetSpec::by_name("PM").unwrap().scaled(0.02);
        let g = spec.build();
        assert_eq!(g.num_vertices(), 400);
        assert!(g.num_edges() > 0);
    }

    #[test]
    fn build_is_deterministic() {
        let spec = DatasetSpec::by_name("YP").unwrap().scaled(0.01);
        assert_eq!(spec.build(), spec.build());
    }

    #[test]
    fn density_ordering_is_preserved() {
        // Yelp stand-in must stay much denser than the citation stand-ins.
        let degree = |code| {
            let g = DatasetSpec::by_name(code).unwrap().scaled(0.01).build();
            g.num_edges() as f64 / g.num_vertices() as f64
        };
        assert!(degree("YP") > 10.0 * degree("CA"));
    }
}
