//! Seeded workload inputs.
//!
//! Every input comes from a `phylo-sim` preset. The preset fixes the
//! species tree and the coalescent parameters; the command-line seed draws
//! the gene trees within it. One seed therefore always yields the same
//! references, queries and writer trees, and different seeds yield samples
//! of one population of gene trees — so the amount of work (distinct
//! splits, table size) barely moves between seeds while every tree does.
//! The program under test only ever sees the generated files and frames.

use phylo::{TaxonSet, Tree};
use phylo_sim::{kingman_species_tree, DatasetSpec, MscSimulator};

/// The three workloads, by their names in `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Figure 1 run: offline `avgrf` on the avian shape, Q = R.
    AvianAvgrf,
    /// A large insect-shape index served over Newick `batch` frames.
    ServeNewick,
    /// A small insect-shape index served over binary frames beside writes.
    ServeBinMixed,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::AvianAvgrf,
        Workload::ServeNewick,
        Workload::ServeBinMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::AvianAvgrf => "avian-avgrf",
            Workload::ServeNewick => "insect-serve-newick",
            Workload::ServeBinMixed => "insect-serve-bin-mixed",
        }
    }

    pub fn from_name(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input size: the real shapes, or a small one for the smoke test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// Trees added and removed by each writer operation.
pub const WRITER_TREES: usize = 4;
/// Query trees per `batch` frame.
pub const FRAME_QUERIES: usize = 64;

/// The shape of one workload's inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct Shape {
    /// The `phylo-sim` preset; its own seed fixes the species tree.
    pub spec: DatasetSpec,
    /// Seed of the gene-tree sample, derived from the run seed.
    pub gene_seed: u64,
    /// Reference trees `r`.
    pub refs: usize,
    /// Served query trees (a multiple of [`FRAME_QUERIES`]).
    pub queries: usize,
}

/// splitmix64: a seed-derivation step with good avalanche.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The full sizes keep each table's distinct-split count well clear of
/// every power-of-two capacity step — of the two hash shards the daemon
/// builds (a step at 7/8 of the buckets) and of the frozen table (a step at
/// half the slots). A size whose count straddles a step between seeds makes
/// memory and time jump between runs for no change in the program.
pub fn shape(w: Workload, scale: Scale, seed: u64) -> Shape {
    let (base, refs, queries) = match (w, scale) {
        (Workload::AvianAvgrf, Scale::Full) => (DatasetSpec::avian(), 14_446, 1024),
        (Workload::AvianAvgrf, Scale::Smoke) => (DatasetSpec::avian(), 600, 256),
        (Workload::ServeNewick, Scale::Full) => (DatasetSpec::insect(), 7_000, 1024),
        (Workload::ServeNewick, Scale::Smoke) => (DatasetSpec::insect(), 800, 256),
        (Workload::ServeBinMixed, Scale::Full) => (DatasetSpec::insect(), 1_500, 1024),
        (Workload::ServeBinMixed, Scale::Smoke) => (DatasetSpec::insect(), 300, 256),
    };
    Shape {
        gene_seed: mix(base.seed ^ mix(seed)),
        spec: base,
        refs,
        queries,
    }
}

/// One workload's generated trees, all over one taxon namespace.
pub struct Inputs {
    pub taxa: TaxonSet,
    /// The reference collection.
    pub refs: Vec<Tree>,
    /// Served query trees. Avian serves its own references (Q = R); the
    /// insect workloads serve a disjoint sample of the same simulation.
    pub queries: Vec<Tree>,
    /// Trees the writers add and then remove again.
    pub writer: Vec<Tree>,
}

pub fn generate(shape: &Shape, w: Workload) -> Inputs {
    let own_queries = w != Workload::AvianAvgrf;
    let extra = if own_queries { shape.queries } else { 0 };
    let total = shape.refs + extra + WRITER_TREES;
    let spec = &shape.spec;
    let (species, taxa) = kingman_species_tree(spec.n_taxa, spec.species_scale, spec.seed);
    let coll = MscSimulator::new(species, taxa, spec.pop_scale, shape.gene_seed).gene_trees(total);
    let mut trees = coll.trees;
    let writer = trees.split_off(shape.refs + extra);
    let queries = if own_queries {
        trees.split_off(shape.refs)
    } else {
        trees[..shape.queries].to_vec()
    };
    Inputs {
        taxa: coll.taxa,
        refs: trees,
        queries,
        writer,
    }
}

/// Newick payloads for `trees` (labels, so any server namespace resolves
/// them).
pub fn newick(trees: &[Tree], taxa: &TaxonSet) -> Vec<String> {
    trees.iter().map(|t| phylo::write_newick(t, taxa)).collect()
}

/// Base64-wrapped `phylo-wire` records for `trees`, with taxon ids
/// remapped into the server namespace given by its `taxa` labels.
pub fn binary(trees: &[Tree], taxa: &TaxonSet, server_labels: &[String]) -> Vec<String> {
    let map: Vec<phylo::TaxonId> = (0..taxa.len())
        .map(|i| {
            let label = taxa.label(phylo::TaxonId(i as u32));
            let pos = server_labels
                .iter()
                .position(|l| l == label)
                .expect("every generated taxon is in the server namespace");
            phylo::TaxonId(pos as u32)
        })
        .collect();
    trees
        .iter()
        .map(|t| {
            let mut t = t.clone();
            phylo_wire::remap_leaf_taxa(&mut t, &map);
            let bytes = phylo_wire::encode_tree_vec(&t).expect("simulated trees encode");
            phylo_wire::b64::encode(&bytes)
        })
        .collect()
}

/// Write `trees` as one Newick string per line.
pub fn write_refs(path: &std::path::Path, trees: &[Tree], taxa: &TaxonSet) -> std::io::Result<()> {
    let mut text = String::new();
    for t in trees {
        text.push_str(&phylo::write_newick(t, taxa));
        text.push('\n');
    }
    std::fs::write(path, text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic_per_seed() {
        for w in Workload::ALL {
            let a = generate(&shape(w, Scale::Smoke, 7), w);
            let b = generate(&shape(w, Scale::Smoke, 7), w);
            assert_eq!(newick(&a.refs, &a.taxa), newick(&b.refs, &b.taxa));
            assert_eq!(newick(&a.queries, &a.taxa), newick(&b.queries, &b.taxa));
            assert_eq!(newick(&a.writer, &a.taxa), newick(&b.writer, &b.taxa));
            let c = generate(&shape(w, Scale::Smoke, 8), w);
            assert_ne!(newick(&a.refs, &a.taxa), newick(&c.refs, &c.taxa));
        }
    }

    #[test]
    fn shapes_match_the_presets() {
        let s = shape(Workload::AvianAvgrf, Scale::Full, 1);
        assert_eq!((s.spec.n_taxa, s.refs), (48, 14_446));
        let s = shape(Workload::ServeNewick, Scale::Full, 1);
        assert_eq!((s.spec.n_taxa, s.refs), (144, 7_000));
        let s = shape(Workload::ServeBinMixed, Scale::Full, 1);
        assert_eq!((s.spec.n_taxa, s.refs), (144, 1_500));
        for w in Workload::ALL {
            for scale in [Scale::Full, Scale::Smoke] {
                assert_eq!(shape(w, scale, 3).queries % FRAME_QUERIES, 0);
            }
        }
    }

    #[test]
    fn sample_sizes_follow_the_shape() {
        let w = Workload::ServeBinMixed;
        let inp = generate(&shape(w, Scale::Smoke, 3), w);
        assert_eq!(inp.writer.len(), WRITER_TREES);
        assert_eq!(inp.queries.len(), 256);
        assert_eq!(inp.refs.len(), 300);
    }
}
