//! Property-based tests for the geospatial kernels.

use proptest::prelude::*;
use tcss_geo::{entropy_weights, generalized_mean, haversine_km, location_entropy, GeoPoint};

fn point_strategy() -> impl Strategy<Value = GeoPoint> {
    (-179.0f64..179.0, -85.0f64..85.0).prop_map(|(lon, lat)| GeoPoint::new(lon, lat))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Haversine: symmetric, non-negative, zero on identity, bounded by
    /// half the circumference.
    #[test]
    fn haversine_metric_axioms(a in point_strategy(), b in point_strategy()) {
        let d = haversine_km(a, b);
        prop_assert!(d >= 0.0);
        prop_assert!((d - haversine_km(b, a)).abs() < 1e-9);
        prop_assert!(haversine_km(a, a) == 0.0);
        prop_assert!(d <= std::f64::consts::PI * tcss_geo::EARTH_RADIUS_KM + 1.0);
    }

    /// Triangle inequality on random triples.
    #[test]
    fn haversine_triangle_inequality(
        a in point_strategy(),
        b in point_strategy(),
        c in point_strategy(),
    ) {
        let ac = haversine_km(a, c);
        let ab = haversine_km(a, b);
        let bc = haversine_km(b, c);
        prop_assert!(ac <= ab + bc + 1e-6, "{ac} > {ab} + {bc}");
    }

    /// Location entropy is within [0, ln(#users)] and exp(−E) ∈ (0, 1].
    #[test]
    fn entropy_bounds(visits in proptest::collection::vec((0usize..8, 0usize..5), 1..60)) {
        let e = location_entropy(5, visits.clone());
        let n_users = 8f64;
        for &v in &e {
            prop_assert!(v >= -1e-12);
            prop_assert!(v <= n_users.ln() + 1e-9);
        }
        for w in entropy_weights(&e) {
            prop_assert!(w > 0.0 && w <= 1.0 + 1e-12);
        }
    }

    /// Adding a *new distinct visitor* to a POI never decreases… is false in
    /// general (entropy can drop when an existing visitor revisits), so pin
    /// the provable direction instead: a POI with one visitor has zero
    /// entropy regardless of the visit count.
    #[test]
    fn single_visitor_zero_entropy(count in 1usize..50) {
        let visits: Vec<(usize, usize)> = (0..count).map(|_| (3, 0)).collect();
        let e = location_entropy(1, visits);
        prop_assert!(e[0].abs() < 1e-12);
    }

    /// Generalized mean is monotone in each coordinate and scale-equivariant.
    #[test]
    fn generalized_mean_monotone_and_homogeneous(
        xs in proptest::collection::vec(0.1f64..50.0, 2..8),
        bump in 0.1f64..5.0,
        scale in 0.5f64..3.0,
    ) {
        let base = generalized_mean(&xs, -1.0, 1e-9);
        let mut bigger = xs.clone();
        bigger[0] += bump;
        prop_assert!(generalized_mean(&bigger, -1.0, 1e-9) >= base - 1e-12);
        let scaled: Vec<f64> = xs.iter().map(|&x| x * scale).collect();
        let m_scaled = generalized_mean(&scaled, -1.0, 1e-9);
        prop_assert!((m_scaled - scale * base).abs() < 1e-9 * m_scaled.abs().max(1.0));
    }
}
