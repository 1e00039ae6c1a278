//! # radio-graph
//!
//! Graph substrate for the `radio-rs` workspace — the from-scratch
//! foundations under the reproduction of Elsässer & Gąsieniec, *Radio
//! communication in random graphs* (SPAA'05 / JCSS 2006).
//!
//! Provides:
//!
//! * [`Graph`] — immutable undirected CSR graphs with `u32` node ids;
//! * samplers for the random-graph models the paper uses:
//!   [`gnp::sample_gnp`] (Gilbert model, geometric skipping),
//!   [`gnm::sample_gnm`] (Erdős–Rényi model), plus
//!   [`geometric::sample_rgg`] and [`regular::sample_regular`] for the
//!   extension experiments;
//! * BFS machinery: [`bfs::Layering`] for the paper's layer sets `T_i(u)`
//!   and [`layers::analyze_layers`] for the Lemma-3 structure measurements;
//! * connectivity ([`components`]), diameter ([`diameter`]), degree
//!   statistics ([`degree`]);
//! * [`bitmap::AdjacencyBitmap`] — a capped, row-major adjacency bit
//!   matrix backing the simulator's word-parallel dense round kernel;
//! * [`provider::GraphProvider`] — neighborhood access abstracted over
//!   storage, with the seed-only [`provider::ImplicitGnp`] backend that
//!   regenerates `G(n, p)` rows on demand for `n = 10⁷`-scale runs;
//! * the bipartite cover/matching machinery of Definition 1 and Lemma 4
//!   ([`bipartite`]) and the constructive greedy radio cover ([`cover`]);
//! * deterministic, splittable RNG ([`rng`]).
//!
//! ## Example
//!
//! ```
//! use radio_graph::{gnp::sample_gnp, bfs::Layering, rng::Xoshiro256pp};
//!
//! let mut rng = Xoshiro256pp::new(42);
//! let g = sample_gnp(1_000, 0.01, &mut rng);
//! let layering = Layering::new(&g, 0);
//! assert!(layering.num_layers() >= 2);
//! ```

#![warn(missing_docs)]

pub mod bfs;
pub mod bipartite;
pub mod bitmap;
pub mod builder;
pub mod chung_lu;
pub mod clustering;
pub mod components;
pub mod cover;
pub mod csr;
pub mod degree;
pub mod diameter;
pub mod geometric;
pub mod gnm;
pub mod gnp;
pub mod hard;
pub mod io;
pub mod layers;
pub mod provider;
pub mod regular;
pub mod rng;
pub mod subgraph;
pub mod tile;

pub use bfs::Layering;
pub use bitmap::{AdjacencyBitmap, BitmapCapError};
pub use builder::GraphBuilder;
pub use csr::{Graph, NodeId};
pub use provider::{GraphProvider, ImplicitGnp};
pub use rng::{child_rng, derive_seed, labeled_seed, SplitMix64, Xoshiro256pp};
pub use tile::{column_tiles, AlignedWords, TileLayout};
