//! # tcss-graph
//!
//! Social-graph substrate for the TCSS reproduction.
//!
//! The LBSN friendship graph `G = (V, E)` drives the paper's social-spatial
//! regularizer (each user's friend-visited POI set `N(vᵢ)` comes from the
//! graph neighbourhood) and the LFBCA baseline (bookmark-colouring /
//! personalized PageRank over a user–user similarity graph).
//!
//! * [`SocialGraph`] — undirected adjacency-list graph with neighbour
//!   queries.
//! * [`ppr`] — personalized PageRank by power iteration and the
//!   bookmark-colouring approximation (BCA), the engine of LFBCA.

// Index-based loops are used deliberately throughout this crate: the
// numeric kernels mirror the paper's subscripted equations, and iterator
// chains over multiple parallel buffers obscure rather than clarify them.
#![allow(clippy::needless_range_loop)]

pub mod ppr;
pub mod social;

pub use ppr::{bookmark_coloring, personalized_pagerank, PprConfig};
pub use social::SocialGraph;
