//! The LBSN dataset container and its projections.

use tcss_geo::{DistanceMatrix, GeoPoint};
use tcss_graph::SocialGraph;
use tcss_sparse::SparseTensor3;

/// POI category, following the Gowalla grouping used in the paper's
/// category experiments (Figs 4, 5, 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// Shopping POIs.
    Shopping,
    /// Entertainment POIs.
    Entertainment,
    /// Restaurants ("food" in the paper's figures).
    Food,
    /// Outdoor POIs (parks, trails, aquatics centers, ski resorts).
    Outdoor,
}

impl Category {
    /// All categories in the paper's presentation order.
    pub const ALL: [Category; 4] = [
        Category::Shopping,
        Category::Entertainment,
        Category::Food,
        Category::Outdoor,
    ];

    /// Lower-case label used in experiment printouts.
    pub fn label(&self) -> &'static str {
        match self {
            Category::Shopping => "shopping",
            Category::Entertainment => "entertainment",
            Category::Food => "food",
            Category::Outdoor => "outdoor",
        }
    }
}

/// A point of interest: a location plus a category.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Poi {
    /// Geographic location.
    pub location: GeoPoint,
    /// Category label.
    pub category: Category,
}

/// One check-in event. Time is stored at every granularity the paper's
/// experiments use, so one dataset serves the month/week/hour comparisons.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckIn {
    /// User index.
    pub user: usize,
    /// POI index.
    pub poi: usize,
    /// Month of year, `0..12`.
    pub month: u8,
    /// Week of year, `0..53`.
    pub week: u8,
    /// Hour of day, `0..24`.
    pub hour: u8,
}

/// Time-axis granularity of the check-in tensor (§V-G of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Granularity {
    /// Month of year (K = 12) — the paper's default.
    Month,
    /// Week of year (K = 53).
    Week,
    /// Hour of day (K = 24).
    Hour,
}

impl Granularity {
    /// Length of the time dimension.
    pub fn len(&self) -> usize {
        match self {
            Granularity::Month => 12,
            Granularity::Week => 53,
            Granularity::Hour => 24,
        }
    }

    /// Granularities are never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The time index of a check-in at this granularity.
    pub fn index(&self, c: &CheckIn) -> usize {
        match self {
            Granularity::Month => c.month as usize,
            Granularity::Week => c.week as usize,
            Granularity::Hour => c.hour as usize,
        }
    }

    /// Label used in experiment printouts.
    pub fn label(&self) -> &'static str {
        match self {
            Granularity::Month => "month",
            Granularity::Week => "week",
            Granularity::Hour => "hour",
        }
    }
}

/// A complete LBSN dataset: users, POIs, check-ins, and the social graph.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Human-readable dataset name (e.g. "gowalla-synth").
    pub name: String,
    /// Number of users `I` (users are dense indices `0..n_users`).
    pub n_users: usize,
    /// POIs, indexed `0..pois.len()`.
    pub pois: Vec<Poi>,
    /// All check-in events.
    pub checkins: Vec<CheckIn>,
    /// Friendship graph over the users.
    pub social: SocialGraph,
}

impl Dataset {
    /// Number of POIs `J`.
    pub fn n_pois(&self) -> usize {
        self.pois.len()
    }

    /// Build the binary check-in tensor `X ∈ {0,1}^{I×J×K}` from a list of
    /// check-ins (usually a train split) at the given granularity.
    pub fn tensor_from(&self, checkins: &[CheckIn], g: Granularity) -> SparseTensor3 {
        let dims = (self.n_users, self.n_pois(), g.len());
        SparseTensor3::from_entries(
            dims,
            checkins.iter().map(|c| (c.user, c.poi, g.index(c), 1.0)),
        )
        .expect("dataset check-ins are always in range")
        .binarized()
    }

    /// The full-data binary tensor.
    pub fn tensor(&self, g: Granularity) -> SparseTensor3 {
        self.tensor_from(&self.checkins, g)
    }

    /// Pairwise POI distance matrix (haversine km).
    pub fn distance_matrix(&self) -> DistanceMatrix {
        let points: Vec<GeoPoint> = self.pois.iter().map(|p| p.location).collect();
        DistanceMatrix::from_points(&points)
    }

    /// Location entropy per POI (paper Eq 11) over the given check-ins.
    pub fn location_entropy_from(&self, checkins: &[CheckIn]) -> Vec<f64> {
        tcss_geo::location_entropy(self.n_pois(), checkins.iter().map(|c| (c.user, c.poi)))
    }

    /// Restrict to one POI category: POIs are renumbered densely, check-ins
    /// at other categories dropped, users and the social graph kept as-is
    /// (the paper trains per-category tensors over the same user base).
    pub fn filter_category(&self, cat: Category) -> Dataset {
        let mut keep = vec![None; self.pois.len()];
        let mut pois = Vec::new();
        for (j, p) in self.pois.iter().enumerate() {
            if p.category == cat {
                keep[j] = Some(pois.len());
                pois.push(*p);
            }
        }
        let checkins = self
            .checkins
            .iter()
            .filter_map(|c| keep[c.poi].map(|nj| CheckIn { poi: nj, ..*c }))
            .collect();
        Dataset {
            name: format!("{}-{}", self.name, cat.label()),
            n_users: self.n_users,
            pois,
            checkins,
            social: self.social.clone(),
        }
    }

    /// Per-user check-in counts.
    pub fn user_checkin_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.n_users];
        for c in &self.checkins {
            counts[c.user] += 1;
        }
        counts
    }

    /// One-line dataset summary (users / POIs / check-ins / density).
    pub fn summary(&self, g: Granularity) -> String {
        let t = self.tensor(g);
        format!(
            "{}: {} users, {} POIs, {} check-ins, K={} ({}), tensor density {:.4}%",
            self.name,
            self.n_users,
            self.n_pois(),
            self.checkins.len(),
            g.len(),
            g.label(),
            t.density() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_dataset() -> Dataset {
        let pois = vec![
            Poi {
                location: GeoPoint::new(0.0, 0.0),
                category: Category::Food,
            },
            Poi {
                location: GeoPoint::new(0.1, 0.1),
                category: Category::Outdoor,
            },
            Poi {
                location: GeoPoint::new(0.2, 0.0),
                category: Category::Food,
            },
        ];
        let checkins = vec![
            CheckIn {
                user: 0,
                poi: 0,
                month: 0,
                week: 1,
                hour: 12,
            },
            CheckIn {
                user: 0,
                poi: 1,
                month: 6,
                week: 26,
                hour: 9,
            },
            CheckIn {
                user: 1,
                poi: 2,
                month: 6,
                week: 27,
                hour: 20,
            },
            // Duplicate cell at month granularity.
            CheckIn {
                user: 1,
                poi: 2,
                month: 6,
                week: 28,
                hour: 21,
            },
        ];
        Dataset {
            name: "toy".into(),
            n_users: 2,
            pois,
            checkins,
            social: SocialGraph::from_edges(2, vec![(0, 1)]),
        }
    }

    #[test]
    fn tensor_shapes_by_granularity() {
        let d = toy_dataset();
        assert_eq!(d.tensor(Granularity::Month).dims(), (2, 3, 12));
        assert_eq!(d.tensor(Granularity::Week).dims(), (2, 3, 53));
        assert_eq!(d.tensor(Granularity::Hour).dims(), (2, 3, 24));
    }

    #[test]
    fn tensor_is_binary_with_duplicates_collapsed() {
        let d = toy_dataset();
        let t = d.tensor(Granularity::Month);
        // Two check-ins by user 1 at poi 2 in month 6 → single binary entry.
        assert_eq!(t.get(1, 2, 6), 1.0);
        assert_eq!(t.nnz(), 3);
        // Week granularity separates them.
        let tw = d.tensor(Granularity::Week);
        assert_eq!(tw.nnz(), 4);
    }

    #[test]
    fn category_filter_renumbers() {
        let d = toy_dataset();
        let food = d.filter_category(Category::Food);
        assert_eq!(food.n_pois(), 2);
        assert_eq!(food.checkins.len(), 3);
        // POI 2 became POI 1.
        assert!(food.checkins.iter().any(|c| c.user == 1 && c.poi == 1));
        let outdoor = d.filter_category(Category::Outdoor);
        assert_eq!(outdoor.n_pois(), 1);
        assert_eq!(outdoor.checkins.len(), 1);
        assert_eq!(outdoor.checkins[0].poi, 0);
    }

    #[test]
    fn counts_and_entropy() {
        let d = toy_dataset();
        assert_eq!(d.user_checkin_counts(), vec![2, 2]);
        let e = d.location_entropy_from(&d.checkins);
        // Every POI has a single visitor → zero entropy everywhere.
        assert!(e.iter().all(|&x| x.abs() < 1e-12));
    }

    #[test]
    fn summary_mentions_name_and_density() {
        let d = toy_dataset();
        let s = d.summary(Granularity::Month);
        assert!(s.contains("toy"));
        assert!(s.contains("2 users"));
    }
}
