//! Geographic points and the haversine great-circle distance.

/// Mean Earth radius in kilometres (the value used by the `haversine` PyPI
/// package the paper cites).
pub const EARTH_RADIUS_KM: f64 = 6371.0088;

/// A longitude/latitude pair in degrees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoPoint {
    /// Longitude in degrees, −180..180.
    pub lon: f64,
    /// Latitude in degrees, −90..90.
    pub lat: f64,
}

impl GeoPoint {
    /// Construct a point from longitude and latitude in degrees.
    pub fn new(lon: f64, lat: f64) -> Self {
        GeoPoint { lon, lat }
    }
}

/// Haversine great-circle distance between two points, in kilometres.
///
/// The paper uses the haversine formula "considering that the POIs are
/// distributed in a large area" (§V-D); this matches that choice exactly.
pub fn haversine_km(a: GeoPoint, b: GeoPoint) -> f64 {
    let lat1 = a.lat.to_radians();
    let lat2 = b.lat.to_radians();
    let dlat = (b.lat - a.lat).to_radians();
    let dlon = (b.lon - a.lon).to_radians();
    let h = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
    2.0 * EARTH_RADIUS_KM * h.sqrt().min(1.0).asin()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_distance_to_self() {
        let p = GeoPoint::new(-86.8, 33.5);
        assert_eq!(haversine_km(p, p), 0.0);
    }

    #[test]
    fn known_city_pair() {
        // New York (−74.006, 40.7128) to Los Angeles (−118.2437, 34.0522):
        // ~3936 km great-circle.
        let nyc = GeoPoint::new(-74.006, 40.7128);
        let la = GeoPoint::new(-118.2437, 34.0522);
        let d = haversine_km(nyc, la);
        assert!((d - 3936.0).abs() < 10.0, "got {d}");
    }

    #[test]
    fn symmetric() {
        let a = GeoPoint::new(10.0, 20.0);
        let b = GeoPoint::new(-30.0, 45.0);
        assert!((haversine_km(a, b) - haversine_km(b, a)).abs() < 1e-12);
    }

    #[test]
    fn one_degree_latitude_is_about_111km() {
        let a = GeoPoint::new(0.0, 0.0);
        let b = GeoPoint::new(0.0, 1.0);
        let d = haversine_km(a, b);
        assert!((d - 111.19).abs() < 0.5, "got {d}");
    }

    #[test]
    fn antipodal_points_half_circumference() {
        let a = GeoPoint::new(0.0, 0.0);
        let b = GeoPoint::new(180.0, 0.0);
        let d = haversine_km(a, b);
        let half = std::f64::consts::PI * EARTH_RADIUS_KM;
        assert!((d - half).abs() < 1.0, "got {d}, expected {half}");
    }

    #[test]
    fn triangle_inequality_sampled() {
        let pts = [
            GeoPoint::new(0.0, 0.0),
            GeoPoint::new(5.0, 5.0),
            GeoPoint::new(-3.0, 7.0),
        ];
        for a in &pts {
            for b in &pts {
                for c in &pts {
                    assert!(
                        haversine_km(*a, *c) <= haversine_km(*a, *b) + haversine_km(*b, *c) + 1e-9
                    );
                }
            }
        }
    }
}
