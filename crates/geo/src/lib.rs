//! # tcss-geo
//!
//! Geospatial substrate for the TCSS reproduction.
//!
//! The paper's social-spatial regularizer is built from geographic
//! primitives: the haversine distance between POIs (§V-D), the location
//! entropy that demotes overly popular POIs (Eq 11), the average Hausdorff
//! distance between POI sets (Eq 9) and its differentiable weighted variant
//! (Eq 10/12) built on the generalized mean `M_α`.
//!
//! This crate provides the *forward* computations and the pairwise
//! [`DistanceMatrix`] the head reads its min-distances from; the
//! gradient-carrying version of the weighted Hausdorff loss lives in
//! `tcss-core` (it must couple to the model's predicted probabilities) and is
//! tested against the forward implementations here.

// Index-based loops are used deliberately throughout this crate: the
// numeric kernels mirror the paper's subscripted equations, and iterator
// chains over multiple parallel buffers obscure rather than clarify them.
#![allow(clippy::needless_range_loop)]

pub mod entropy;
pub mod hausdorff;
pub mod point;

pub use entropy::{entropy_weights, location_entropy};
pub use hausdorff::{
    average_hausdorff, generalized_mean, weighted_hausdorff, DistanceMatrix,
    WeightedHausdorffParams,
};
pub use point::{haversine_km, GeoPoint, EARTH_RADIUS_KM};
