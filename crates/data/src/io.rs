//! CSV persistence for datasets.
//!
//! Two files describe a dataset (plus a tiny header file):
//!
//! * `<stem>.pois.csv` — `poi_id,lon,lat,category`
//! * `<stem>.checkins.csv` — `user,poi,month,week,hour`
//! * `<stem>.edges.csv` — `user_a,user_b`
//!
//! The format intentionally mirrors the shape of the public Gowalla /
//! Foursquare dumps so real data can be dropped in by writing these three
//! files.
//!
//! Real dumps are messy, so loading comes in two strictnesses:
//! [`load_dataset`] fails on the first malformed record, while
//! [`load_dataset_lenient`] skips malformed check-in and edge rows and
//! reports how many were dropped in a [`LoadReport`]. POI-file errors are
//! fatal in both modes: every check-in indexes into the POI table, so a
//! dropped POI row would silently shift all later indices.
//!
//! Every error carries the full offending file path and (for parse
//! errors) the 1-based line number, so a bad record in a hand-edited dump
//! is one click away.

use crate::dataset::{Category, CheckIn, Dataset, Granularity, Poi};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use tcss_geo::GeoPoint;
use tcss_graph::SocialGraph;

/// Errors raised by dataset (de)serialization.
#[derive(Debug)]
pub enum DataIoError {
    /// Underlying filesystem error on a specific file.
    Fs {
        /// File being read or written.
        path: PathBuf,
        /// The OS-level failure.
        source: std::io::Error,
    },
    /// A malformed line or field.
    Parse {
        /// File in which the error occurred.
        path: PathBuf,
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        message: String,
    },
}

impl std::fmt::Display for DataIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DataIoError::Fs { path, source } => {
                write!(f, "{}: io error: {source}", path.display())
            }
            DataIoError::Parse {
                path,
                line,
                message,
            } => {
                write!(f, "{}:{line}: {message}", path.display())
            }
        }
    }
}

impl std::error::Error for DataIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DataIoError::Fs { source, .. } => Some(source),
            DataIoError::Parse { .. } => None,
        }
    }
}

/// What [`load_dataset_lenient`] dropped on the floor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadReport {
    /// Malformed or out-of-range check-in rows skipped.
    pub skipped_checkins: usize,
    /// Malformed social-edge rows skipped.
    pub skipped_edges: usize,
}

fn category_code(c: Category) -> &'static str {
    c.label()
}

fn parse_category(s: &str) -> Option<Category> {
    Category::ALL.into_iter().find(|c| c.label() == s)
}

fn write_file(path: PathBuf, contents: &str) -> Result<(), DataIoError> {
    std::fs::write(&path, contents).map_err(|source| DataIoError::Fs { path, source })
}

fn read_file(path: PathBuf) -> Result<(PathBuf, String), DataIoError> {
    match std::fs::read_to_string(&path) {
        Ok(text) => Ok((path, text)),
        Err(source) => Err(DataIoError::Fs { path, source }),
    }
}

/// Write a dataset to `<stem>.pois.csv`, `<stem>.checkins.csv` and
/// `<stem>.edges.csv`.
pub fn save_dataset(data: &Dataset, stem: &Path) -> Result<(), DataIoError> {
    let mut pois = String::from("poi_id,lon,lat,category\n");
    for (j, p) in data.pois.iter().enumerate() {
        let _ = writeln!(
            pois,
            "{j},{},{},{}",
            p.location.lon,
            p.location.lat,
            category_code(p.category)
        );
    }
    write_file(with_suffix(stem, ".pois.csv"), &pois)?;

    let mut checks = String::from("user,poi,month,week,hour\n");
    for c in &data.checkins {
        let _ = writeln!(
            checks,
            "{},{},{},{},{}",
            c.user, c.poi, c.month, c.week, c.hour
        );
    }
    write_file(with_suffix(stem, ".checkins.csv"), &checks)?;

    let mut edges = String::from("user_a,user_b\n");
    for (a, b) in data.social.edges() {
        let _ = writeln!(edges, "{a},{b}");
    }
    write_file(with_suffix(stem, ".edges.csv"), &edges)?;
    Ok(())
}

/// Load a dataset previously written by [`save_dataset`] (or hand-authored
/// in the same format). `n_users` is inferred as 1 + the largest user index.
///
/// Strict: the first malformed record anywhere aborts the load. For messy
/// real-world dumps, see [`load_dataset_lenient`].
pub fn load_dataset(name: &str, stem: &Path) -> Result<Dataset, DataIoError> {
    load_dataset_impl(name, stem, false).map(|(data, _)| data)
}

/// [`load_dataset`], but malformed check-in and edge rows are skipped
/// (and counted in the returned [`LoadReport`]) instead of aborting the
/// load. POI-file errors remain fatal — check-ins index into the POI
/// table, so dropping a POI row would corrupt every later index.
pub fn load_dataset_lenient(name: &str, stem: &Path) -> Result<(Dataset, LoadReport), DataIoError> {
    load_dataset_impl(name, stem, true)
}

fn load_dataset_impl(
    name: &str,
    stem: &Path,
    lenient: bool,
) -> Result<(Dataset, LoadReport), DataIoError> {
    let mut report = LoadReport::default();

    let (pois_path, pois_txt) = read_file(with_suffix(stem, ".pois.csv"))?;
    let mut pois = Vec::new();
    for (ln, line) in pois_txt.lines().enumerate().skip(1) {
        if line.trim().is_empty() {
            continue;
        }
        // POI rows are positional (row index == POI id), so even in
        // lenient mode a bad row here is unrecoverable.
        pois.push(parse_poi_row(line, &pois_path, ln)?);
    }

    let (checks_path, checks_txt) = read_file(with_suffix(stem, ".checkins.csv"))?;
    let mut checkins = Vec::new();
    let mut max_user = 0usize;
    for (ln, line) in checks_txt.lines().enumerate().skip(1) {
        if line.trim().is_empty() {
            continue;
        }
        match parse_checkin_row(line, pois.len(), &checks_path, ln) {
            Ok(c) => {
                max_user = max_user.max(c.user);
                checkins.push(c);
            }
            Err(_) if lenient => report.skipped_checkins += 1,
            Err(e) => return Err(e),
        }
    }
    let n_users = if checkins.is_empty() { 0 } else { max_user + 1 };

    let (edges_path, edges_txt) = read_file(with_suffix(stem, ".edges.csv"))?;
    let mut edges = Vec::new();
    for (ln, line) in edges_txt.lines().enumerate().skip(1) {
        if line.trim().is_empty() {
            continue;
        }
        match parse_edge_row(line, &edges_path, ln) {
            Ok(pair) => edges.push(pair),
            Err(_) if lenient => report.skipped_edges += 1,
            Err(e) => return Err(e),
        }
    }

    let data = Dataset {
        name: name.to_string(),
        n_users,
        pois,
        checkins,
        social: SocialGraph::from_edges(n_users, edges),
    };
    Ok((data, report))
}

fn split_fields<'a>(
    line: &'a str,
    expect: usize,
    path: &Path,
    ln: usize,
) -> Result<Vec<&'a str>, DataIoError> {
    let fields: Vec<&str> = line.split(',').collect();
    if fields.len() != expect {
        return Err(DataIoError::Parse {
            path: path.to_path_buf(),
            line: ln + 1,
            message: format!("expected {expect} fields, got {}", fields.len()),
        });
    }
    Ok(fields)
}

fn parse_poi_row(line: &str, path: &Path, ln: usize) -> Result<Poi, DataIoError> {
    let fields = split_fields(line, 4, path, ln)?;
    let lon: f64 = parse_field(&fields, 1, path, ln)?;
    let lat: f64 = parse_field(&fields, 2, path, ln)?;
    let category = parse_category(fields[3]).ok_or_else(|| DataIoError::Parse {
        path: path.to_path_buf(),
        line: ln + 1,
        message: format!("unknown category {:?}", fields[3]),
    })?;
    Ok(Poi {
        location: GeoPoint::new(lon, lat),
        category,
    })
}

fn parse_checkin_row(
    line: &str,
    n_pois: usize,
    path: &Path,
    ln: usize,
) -> Result<CheckIn, DataIoError> {
    let fields = split_fields(line, 5, path, ln)?;
    let c = CheckIn {
        user: parse_field(&fields, 0, path, ln)?,
        poi: parse_field(&fields, 1, path, ln)?,
        month: parse_field(&fields, 2, path, ln)?,
        week: parse_field(&fields, 3, path, ln)?,
        hour: parse_field(&fields, 4, path, ln)?,
    };
    if c.poi >= n_pois {
        return Err(DataIoError::Parse {
            path: path.to_path_buf(),
            line: ln + 1,
            message: format!("poi {} out of range ({n_pois} POIs)", c.poi),
        });
    }
    for (field, g) in [
        ("month", Granularity::Month),
        ("week", Granularity::Week),
        ("hour", Granularity::Hour),
    ] {
        let t = g.index(&c);
        if t >= g.len() {
            return Err(DataIoError::Parse {
                path: path.to_path_buf(),
                line: ln + 1,
                message: format!("{field} {t} out of range (0..{})", g.len()),
            });
        }
    }
    Ok(c)
}

fn parse_edge_row(line: &str, path: &Path, ln: usize) -> Result<(usize, usize), DataIoError> {
    let fields = split_fields(line, 2, path, ln)?;
    let a: usize = parse_field(&fields, 0, path, ln)?;
    let b: usize = parse_field(&fields, 1, path, ln)?;
    Ok((a, b))
}

fn with_suffix(stem: &Path, suffix: &str) -> PathBuf {
    let mut s = stem.as_os_str().to_os_string();
    s.push(suffix);
    PathBuf::from(s)
}

fn parse_field<T: std::str::FromStr>(
    fields: &[&str],
    idx: usize,
    path: &Path,
    ln: usize,
) -> Result<T, DataIoError> {
    fields[idx].trim().parse().map_err(|_| DataIoError::Parse {
        path: path.to_path_buf(),
        line: ln + 1,
        message: format!("cannot parse field {idx} ({:?})", fields[idx]),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::SynthPreset;

    #[test]
    fn save_load_roundtrip() {
        let d = SynthPreset::Gmu5k.generate();
        let dir = std::env::temp_dir().join("tcss_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let stem = dir.join("gmu");
        save_dataset(&d, &stem).unwrap();
        let loaded = load_dataset("gmu5k-synth", &stem).unwrap();
        assert_eq!(loaded.n_users, d.n_users);
        assert_eq!(loaded.n_pois(), d.n_pois());
        assert_eq!(loaded.checkins, d.checkins);
        assert_eq!(loaded.social.edge_count(), d.social.edge_count());
        for (a, b) in d.social.edges() {
            assert!(loaded.social.has_edge(a, b));
        }
        // POI geometry survives the float round-trip.
        for (p, q) in d.pois.iter().zip(loaded.pois.iter()) {
            assert!((p.location.lon - q.location.lon).abs() < 1e-9);
            assert_eq!(p.category, q.category);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    fn write_stem(dir: &str, pois: &str, checkins: &str, edges: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(dir);
        std::fs::create_dir_all(&dir).unwrap();
        let stem = dir.join("data");
        std::fs::write(with_suffix(&stem, ".pois.csv"), pois).unwrap();
        std::fs::write(with_suffix(&stem, ".checkins.csv"), checkins).unwrap();
        std::fs::write(with_suffix(&stem, ".edges.csv"), edges).unwrap();
        stem
    }

    #[test]
    fn malformed_csv_is_reported_with_path_and_line() {
        let stem = write_stem(
            "tcss_io_badtest",
            "poi_id,lon,lat,category\n0,not_a_float,2.0,food\n",
            "user,poi,month,week,hour\n",
            "user_a,user_b\n",
        );
        let err = load_dataset("bad", &stem).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("pois"), "{msg}");
        assert!(msg.contains(".pois.csv:2:"), "full path + line: {msg}");
        match err {
            DataIoError::Parse { path, line, .. } => {
                assert!(path.ends_with("data.pois.csv"), "{path:?}");
                assert_eq!(line, 2);
            }
            other => panic!("expected Parse, got {other:?}"),
        }
        std::fs::remove_dir_all(stem.parent().unwrap()).ok();
    }

    #[test]
    fn missing_file_error_names_the_file() {
        let dir = std::env::temp_dir().join("tcss_io_missing");
        std::fs::create_dir_all(&dir).unwrap();
        let err = load_dataset("missing", &dir.join("nope")).unwrap_err();
        match &err {
            DataIoError::Fs { path, .. } => {
                assert!(path.ends_with("nope.pois.csv"), "{path:?}")
            }
            other => panic!("expected Fs, got {other:?}"),
        }
        assert!(err.to_string().contains("nope.pois.csv"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn out_of_range_poi_rejected() {
        let stem = write_stem(
            "tcss_io_oortest",
            "poi_id,lon,lat,category\n0,1.0,2.0,food\n",
            "user,poi,month,week,hour\n0,5,0,0,0\n",
            "user_a,user_b\n",
        );
        assert!(load_dataset("oor", &stem).is_err());
        std::fs::remove_dir_all(stem.parent().unwrap()).ok();
    }

    #[test]
    fn lenient_mode_skips_and_counts_bad_rows() {
        let stem = write_stem(
            "tcss_io_lenient",
            "poi_id,lon,lat,category\n0,1.0,2.0,food\n1,1.5,2.5,outdoor\n",
            "user,poi,month,week,hour\n\
             0,0,0,0,0\n\
             0,99,0,0,0\n\
             1,not_a_poi,0,0,0\n\
             1,1,1,1,1\n\
             too,few\n",
            "user_a,user_b\n0,1\nbad_edge\n1,0\n",
        );
        let (data, report) = load_dataset_lenient("lenient", &stem).unwrap();
        assert_eq!(data.checkins.len(), 2, "good rows survive");
        assert_eq!(report.skipped_checkins, 3);
        assert_eq!(report.skipped_edges, 1);
        assert!(data.social.has_edge(0, 1));
        // Strict mode rejects the very same files.
        assert!(load_dataset("lenient", &stem).is_err());
        std::fs::remove_dir_all(stem.parent().unwrap()).ok();
    }

    #[test]
    fn out_of_range_time_fields_are_typed_or_skipped() {
        let stem = write_stem(
            "tcss_io_time_range",
            "poi_id,lon,lat,category\n0,1.0,2.0,food\n",
            "user,poi,month,week,hour\n\
             0,0,11,52,23\n\
             0,0,12,0,0\n\
             0,0,0,53,0\n\
             0,0,0,0,24\n",
            "user_a,user_b\n",
        );
        let err = load_dataset("time", &stem).unwrap_err();
        match &err {
            DataIoError::Parse { line, message, .. } => {
                assert_eq!(*line, 3);
                assert!(message.contains("month 12"), "{message}");
            }
            other => panic!("expected Parse, got {other:?}"),
        }
        let (data, report) = load_dataset_lenient("time", &stem).unwrap();
        assert_eq!(data.checkins.len(), 1, "the in-range row survives");
        assert_eq!(report.skipped_checkins, 3);
        std::fs::remove_dir_all(stem.parent().unwrap()).ok();
    }

    #[test]
    fn lenient_mode_still_fails_on_poi_errors() {
        let stem = write_stem(
            "tcss_io_lenient_poi",
            "poi_id,lon,lat,category\n0,broken,2.0,food\n",
            "user,poi,month,week,hour\n",
            "user_a,user_b\n",
        );
        let err = load_dataset_lenient("bad-pois", &stem).unwrap_err();
        assert!(
            matches!(err, DataIoError::Parse { .. }),
            "POI errors are fatal even leniently: {err:?}"
        );
        std::fs::remove_dir_all(stem.parent().unwrap()).ok();
    }

    #[test]
    fn clean_load_reports_zero_skips() {
        let d = SynthPreset::Gmu5k.generate();
        let dir = std::env::temp_dir().join("tcss_io_clean_lenient");
        std::fs::create_dir_all(&dir).unwrap();
        let stem = dir.join("clean");
        save_dataset(&d, &stem).unwrap();
        let (_, report) = load_dataset_lenient("clean", &stem).unwrap();
        assert_eq!(report, LoadReport::default());
        std::fs::remove_dir_all(&dir).ok();
    }
}
