//! Workload scales for the experiments.
//!
//! The paper runs the DIMACS USA road graph (24 M vertices) on real
//! silicon; cycle-level simulation needs smaller inputs. Scales keep the
//! *structural* properties (high diameter, low degree, distinct MST
//! weights, refinable meshes, sparse block patterns) while bounding
//! simulated cycles. All generators are seeded, so every run of a scale
//! is identical.

pub use apir_apps::AppInstance;
use apir_apps::{bfs, dmr, lu, mst, sssp};
use apir_workloads::delaunay::Mesh;
use apir_workloads::gen;
use apir_workloads::sparse::BlockPattern;
use std::sync::Arc;

/// Experiment scale.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Sub-second per experiment — golden tests and smoke gates. The
    /// scale of the report goldens (`tests/report_golden.rs`).
    Tiny,
    /// Seconds per experiment — CI and quick looks.
    Small,
    /// Tens of seconds per experiment — the default for figures.
    Medium,
    /// Minutes per experiment — closer asymptotics.
    Large,
}

impl Scale {
    /// Parses `tiny` / `small` / `medium` / `large`.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "tiny" => Some(Scale::Tiny),
            "small" => Some(Scale::Small),
            "medium" => Some(Scale::Medium),
            "large" => Some(Scale::Large),
            _ => None,
        }
    }

    /// The scale's canonical lowercase name (inverse of [`Scale::parse`]).
    pub fn name(self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Small => "small",
            Scale::Medium => "medium",
            Scale::Large => "large",
        }
    }

    /// Road-network grid side for BFS.
    fn bfs_side(self) -> usize {
        match self {
            Scale::Tiny => 8,
            Scale::Small => 24,
            Scale::Medium => 48,
            Scale::Large => 96,
        }
    }

    /// Road-network grid side for SSSP.
    fn sssp_side(self) -> usize {
        match self {
            Scale::Tiny => 7,
            Scale::Small => 20,
            Scale::Medium => 40,
            Scale::Large => 72,
        }
    }

    /// (vertices, edges) for MST.
    fn mst_size(self) -> (usize, usize) {
        match self {
            Scale::Tiny => (40, 120),
            Scale::Small => (200, 600),
            Scale::Medium => (600, 2_000),
            Scale::Large => (2_000, 7_000),
        }
    }

    /// Initial interior points for DMR.
    fn dmr_points(self) -> usize {
        match self {
            Scale::Tiny => 16,
            Scale::Small => 60,
            Scale::Medium => 160,
            Scale::Large => 400,
        }
    }

    /// (block rows, block size) for LU.
    fn lu_size(self) -> (usize, usize) {
        match self {
            Scale::Tiny => (3, 4),
            Scale::Small => (5, 8),
            Scale::Medium => (8, 12),
            Scale::Large => (12, 16),
        }
    }
}

/// Names of the six benchmarks, in the paper's order.
pub const APP_NAMES: [&str; 6] = [
    "SPEC-BFS",
    "COOR-BFS",
    "SPEC-SSSP",
    "SPEC-MST",
    "SPEC-DMR",
    "COOR-LU",
];

/// Builds the BFS road network at a scale, or loads a real DIMACS `.gr`
/// graph (e.g. the USA road graph) when `APIR_DIMACS_GR` points at one.
/// Beware: cycle-level simulation of multi-million-vertex graphs takes
/// correspondingly long.
pub fn bfs_graph(scale: Scale) -> Arc<apir_workloads::CsrGraph> {
    if let Ok(path) = std::env::var("APIR_DIMACS_GR") {
        let f = std::fs::File::open(&path).unwrap_or_else(|e| panic!("APIR_DIMACS_GR={path}: {e}"));
        let g = apir_workloads::dimacs::read_gr(std::io::BufReader::new(f))
            .unwrap_or_else(|e| panic!("APIR_DIMACS_GR={path}: {e}"));
        return Arc::new(g);
    }
    let side = scale.bfs_side();
    Arc::new(gen::road_network(side, side, 0.93, 8, 42))
}

/// Builds one prepared benchmark by name.
///
/// # Panics
///
/// Panics on an unknown name.
pub fn build_app(name: &str, scale: Scale) -> AppInstance {
    match name {
        "SPEC-BFS" => bfs::build(bfs_graph(scale), 0, bfs::BfsVariant::Spec),
        "COOR-BFS" => bfs::build(bfs_graph(scale), 0, bfs::BfsVariant::Coor),
        "SPEC-SSSP" => {
            let side = scale.sssp_side();
            let g = Arc::new(gen::road_network(side, side, 0.93, 16, 43));
            sssp::build(g, 0)
        }
        "SPEC-MST" => {
            let (n, m) = scale.mst_size();
            let edges = Arc::new(gen::edge_list_distinct_weights(n, m, 44));
            mst::build(n, edges)
        }
        "SPEC-DMR" => {
            let mesh = Arc::new(Mesh::random(scale.dmr_points(), 45));
            dmr::build(mesh, 21.0)
        }
        "COOR-LU" => {
            let (nb, bs) = scale.lu_size();
            lu::build(&BlockPattern::random(nb, 0.4, 46), bs, 46)
        }
        other => panic!("unknown benchmark `{other}`"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_scales() {
        assert_eq!(Scale::parse("tiny"), Some(Scale::Tiny));
        assert_eq!(Scale::parse("small"), Some(Scale::Small));
        assert_eq!(Scale::parse("medium"), Some(Scale::Medium));
        assert_eq!(Scale::parse("huge"), None);
        for s in [Scale::Tiny, Scale::Small, Scale::Medium, Scale::Large] {
            assert_eq!(Scale::parse(s.name()), Some(s));
        }
    }

    #[test]
    fn all_apps_build_at_small() {
        for name in APP_NAMES {
            let app = build_app(name, Scale::Small);
            assert_eq!(app.name, name);
            assert!(!app.input.initial.is_empty(), "{name} seeds tasks");
        }
    }

    #[test]
    fn all_apps_build_at_tiny() {
        for name in APP_NAMES {
            let app = build_app(name, Scale::Tiny);
            assert_eq!(app.name, name);
            assert!(!app.input.initial.is_empty(), "{name} seeds tasks");
        }
    }
}
