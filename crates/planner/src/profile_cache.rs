//! Digest-keyed persistence for [`CoverageProfile`]s.
//!
//! The profiling pass executes every test that may reach a retry site
//! once, yet its result is a pure function of the project's sources and
//! retry locations. This module caches that result on disk, keyed by the
//! same FNV-1a source digest the serve daemon's compiled-app LRU uses —
//! and for the same reason: the digest hashes **relative** file paths
//! alongside contents, because the simulated LLM draws are keyed on
//! paths, so two checkouts of identical sources under different absolute
//! roots must still share a cache entry (and two layouts of the same
//! bytes must not).
//!
//! Staleness is refused, never repaired silently: a cache file whose
//! schema version, source digest, or retry-location fingerprint does not
//! match the current campaign is ignored (with a stderr note) and
//! overwritten by the freshly profiled result.

use crate::coverage::CoverageProfile;
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use wasabi_analysis::loops::RetryLocation;
use wasabi_lang::ast::CallId;
use wasabi_lang::project::{CallSite, FileId, MethodId};
use wasabi_util::rng::fnv1a64;
use wasabi_util::Json;

/// Cache file schema version; bump on any layout change so stale files
/// are refused, not misparsed.
pub const SCHEMA_VERSION: u64 = 1;

/// Where and how to cache coverage profiles.
#[derive(Debug, Clone)]
pub struct ProfileCacheOptions {
    /// Cache directory (created on first store).
    pub dir: PathBuf,
    /// Source digest of the project being profiled
    /// (`wasabi_core`-style FNV-1a over relative paths + contents).
    pub digest: u64,
    /// Skip the read side entirely (always re-profile), still writing the
    /// fresh result back. `--profile-cache-bypass`.
    pub bypass: bool,
}

/// A stable fingerprint of the retry locations a profile was built
/// against. The same sources can yield different location sets under
/// different analysis options (LLM seed, loop-query options), and a
/// profile only answers coverage questions for the sites it instrumented
/// — so the fingerprint participates in staleness alongside the digest.
pub fn locations_fingerprint(locations: &[RetryLocation]) -> u64 {
    let mut entries: Vec<String> = locations
        .iter()
        .map(|l| {
            format!(
                "{}:{}|{}|{}|{}|{}",
                l.site.file.0,
                l.site.call.0,
                l.exception,
                l.coordinator,
                l.retried,
                l.structure_key()
            )
        })
        .collect();
    entries.sort_unstable();
    let mut joined = String::new();
    for e in &entries {
        joined.push_str(e);
        joined.push('\n');
    }
    fnv1a64([joined.as_bytes()])
}

/// The cache file for a digest: `profile-<digest-hex>.json`.
pub fn cache_path(dir: &Path, digest: u64) -> PathBuf {
    dir.join(format!("profile-{digest:016x}.json"))
}

fn site_json(site: &CallSite) -> Json {
    Json::obj([
        ("file", Json::from(site.file.0)),
        ("call", Json::from(site.call.0)),
    ])
}

fn test_json(test: &MethodId) -> Json {
    Json::obj([
        ("class", Json::from(test.class.as_str())),
        ("name", Json::from(test.name.as_str())),
    ])
}

fn parse_site(value: &Json) -> Option<CallSite> {
    Some(CallSite {
        file: FileId(u32::try_from(value.get("file")?.as_u64()?).ok()?),
        call: CallId(u32::try_from(value.get("call")?.as_u64()?).ok()?),
    })
}

fn parse_test(value: &Json) -> Option<MethodId> {
    Some(MethodId::new(
        value.get("class")?.as_str()?,
        value.get("name")?.as_str()?,
    ))
}

/// Serializes a profile to the cache document. `site_to_tests` values are
/// written explicitly: they hold tests in suite order, which is *not*
/// reconstructible from the `per_test` map's key order, so the document
/// round-trips byte-exactly rather than approximately.
fn to_json(digest: u64, locations_fp: u64, profile: &CoverageProfile) -> Json {
    Json::obj([
        ("schema_version", Json::from(SCHEMA_VERSION)),
        ("digest", Json::from(format!("{digest:016x}"))),
        ("locations_fp", Json::from(format!("{locations_fp:016x}"))),
        ("tests_total", Json::from(profile.tests_total)),
        (
            "profile_virtual_ms",
            Json::from(profile.profile_virtual_ms as i64),
        ),
        (
            "per_test",
            Json::arr(profile.per_test.iter().map(|(test, sites)| {
                Json::obj([
                    ("class", Json::from(test.class.as_str())),
                    ("name", Json::from(test.name.as_str())),
                    ("sites", Json::arr(sites.iter().map(site_json))),
                ])
            })),
        ),
        (
            "site_to_tests",
            Json::arr(profile.site_to_tests.iter().map(|(site, tests)| {
                Json::obj([
                    ("file", Json::from(site.file.0)),
                    ("call", Json::from(site.call.0)),
                    ("tests", Json::arr(tests.iter().map(test_json))),
                ])
            })),
        ),
    ])
}

fn from_json(value: &Json) -> Option<CoverageProfile> {
    let mut profile = CoverageProfile {
        tests_total: usize::try_from(value.get("tests_total")?.as_u64()?).ok()?,
        profile_virtual_ms: value.get("profile_virtual_ms")?.as_u64()?,
        ..CoverageProfile::default()
    };
    for entry in value.get("per_test")?.as_arr()? {
        let test = parse_test(entry)?;
        let sites = entry
            .get("sites")?
            .as_arr()?
            .iter()
            .map(parse_site)
            .collect::<Option<Vec<_>>>()?;
        profile.per_test.insert(test, sites);
    }
    let mut site_to_tests = BTreeMap::new();
    for entry in value.get("site_to_tests")?.as_arr()? {
        let site = parse_site(entry)?;
        let tests = entry
            .get("tests")?
            .as_arr()?
            .iter()
            .map(parse_test)
            .collect::<Option<Vec<_>>>()?;
        site_to_tests.insert(site, tests);
    }
    profile.site_to_tests = site_to_tests;
    Some(profile)
}

/// Loads a cached profile, or `None` when the cache must not be used:
/// bypass requested, file absent/unreadable, or **stale** (schema,
/// digest, or location-fingerprint mismatch — refused with a stderr note,
/// never partially applied).
pub fn load(options: &ProfileCacheOptions, locations_fp: u64) -> Option<CoverageProfile> {
    if options.bypass {
        return None;
    }
    let path = cache_path(&options.dir, options.digest);
    let text = std::fs::read_to_string(&path).ok()?;
    let value = match Json::parse(&text) {
        Ok(v) => v,
        Err(err) => {
            eprintln!(
                "[planner] profile cache {} unreadable ({err}); re-profiling",
                path.display()
            );
            return None;
        }
    };
    let schema = value.get("schema_version").and_then(Json::as_u64);
    let digest = value.get("digest").and_then(Json::as_str);
    let fp = value.get("locations_fp").and_then(Json::as_str);
    if schema != Some(SCHEMA_VERSION)
        || digest != Some(format!("{:016x}", options.digest).as_str())
        || fp != Some(format!("{locations_fp:016x}").as_str())
    {
        eprintln!(
            "[planner] profile cache {} is stale (schema/digest/locations mismatch); re-profiling",
            path.display()
        );
        return None;
    }
    match from_json(&value) {
        Some(profile) => Some(profile),
        None => {
            eprintln!(
                "[planner] profile cache {} is malformed; re-profiling",
                path.display()
            );
            None
        }
    }
}

/// Writes a freshly computed profile into the cache (creating the
/// directory) with [`wasabi_util::write_atomic`], so a concurrent reader
/// never sees a torn file.
pub fn store(
    options: &ProfileCacheOptions,
    locations_fp: u64,
    profile: &CoverageProfile,
) -> io::Result<()> {
    std::fs::create_dir_all(&options.dir)?;
    let path = cache_path(&options.dir, options.digest);
    let json = to_json(options.digest, locations_fp, profile).pretty();
    wasabi_util::write_atomic(&path, json.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_profile() -> CoverageProfile {
        let site_a = CallSite {
            file: FileId(0),
            call: CallId(3),
        };
        let site_b = CallSite {
            file: FileId(1),
            call: CallId(7),
        };
        let t1 = MethodId::new("C", "t1");
        let t2 = MethodId::new("C", "t2");
        let mut profile = CoverageProfile {
            tests_total: 5,
            profile_virtual_ms: 42,
            ..CoverageProfile::default()
        };
        profile.per_test.insert(t1.clone(), vec![site_a]);
        profile.per_test.insert(t2.clone(), vec![site_a, site_b]);
        // Suite order deliberately differs from key order to pin that the
        // cache preserves it.
        profile.site_to_tests.insert(site_a, vec![t2.clone(), t1]);
        profile.site_to_tests.insert(site_b, vec![t2]);
        profile
    }

    fn options(dir: &Path, digest: u64) -> ProfileCacheOptions {
        ProfileCacheOptions {
            dir: dir.to_path_buf(),
            digest,
            bypass: false,
        }
    }

    #[test]
    fn round_trips_byte_exactly() {
        let dir = std::env::temp_dir().join(format!("wasabi-pc-rt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let profile = sample_profile();
        let opts = options(&dir, 0xDEAD);
        store(&opts, 7, &profile).unwrap();
        let loaded = load(&opts, 7).expect("cache hit");
        assert_eq!(format!("{profile:?}"), format!("{loaded:?}"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn refuses_digest_and_fingerprint_mismatch() {
        let dir = std::env::temp_dir().join(format!("wasabi-pc-stale-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let profile = sample_profile();
        let opts = options(&dir, 0xBEEF);
        store(&opts, 7, &profile).unwrap();
        // Wrong locations fingerprint: same digest, different sites.
        assert!(load(&opts, 8).is_none());
        // Wrong digest: different sources never read this path at all
        // (distinct file name), but a hand-copied file must still refuse.
        let other = options(&dir, 0xF00D);
        std::fs::copy(
            cache_path(&dir, 0xBEEF),
            cache_path(&dir, 0xF00D),
        )
        .unwrap();
        assert!(load(&other, 7).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bypass_skips_read_side() {
        let dir = std::env::temp_dir().join(format!("wasabi-pc-bypass-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let profile = sample_profile();
        let mut opts = options(&dir, 0xCAFE);
        store(&opts, 7, &profile).unwrap();
        opts.bypass = true;
        assert!(load(&opts, 7).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The reader is total: garbage, a valid cache file cut at any byte,
    /// and a valid cache file with one bit flipped each end in a profile
    /// or a refusal, never a panic. A cut file is always refused.
    #[test]
    fn load_is_total_on_garbage_truncation_and_bit_flips() {
        #[rustfmt::skip]
        const POOL: &[&str] = &[
            "{", "}", "[", "]", ":", ",", "\"", "\\", " ", "\n", "0", "7", "-", ".", "e",
            "18446744073709551616", "true", "null", "\"schema_version\"", "1",
            "\"digest\"", "\"000000000000d1ce\"", "\"locations_fp\"", "\"0000000000000007\"",
            "\"per_test\"", "\"site_to_tests\"", "\"tests_total\"", "\u{e9}", "\u{1f980}",
        ];
        let dir = std::env::temp_dir().join(format!("wasabi-pc-total-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = options(&dir, 0xD1CE);
        store(&opts, 7, &sample_profile()).unwrap();
        let path = cache_path(&dir, 0xD1CE);
        let valid = std::fs::read(&path).unwrap();
        assert!(load(&opts, 7).is_some(), "the fixture itself loads");
        let body = valid.trim_ascii_end().len();
        for case in 0..256u64 {
            let mut rng = wasabi_util::Rng::new(0xcac4_0000 + case);
            let len = rng.below(300);
            let garbage: String = (0..len).map(|_| *rng.pick(POOL)).collect();
            std::fs::write(&path, garbage).unwrap();
            let _ = load(&opts, 7);

            let cut = rng.below(body as u64) as usize;
            std::fs::write(&path, &valid[..cut]).unwrap();
            assert!(load(&opts, 7).is_none(), "file cut at byte {cut} loaded");

            let mut flipped = valid.clone();
            let at = rng.below(flipped.len() as u64) as usize;
            flipped[at] ^= 1 << rng.below(8);
            std::fs::write(&path, flipped).unwrap();
            let _ = load(&opts, 7);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn locations_fingerprint_is_order_independent() {
        use wasabi_analysis::loops::Mechanism;
        use wasabi_lang::ast::LoopId;
        let loc = |call: u32, exc: &str| RetryLocation {
            site: CallSite {
                file: FileId(0),
                call: CallId(call),
            },
            coordinator: MethodId::new("C", "run"),
            retried: MethodId::new("C", "op"),
            exception: exc.to_string(),
            mechanism: Mechanism::Loop(LoopId(0)),
        };
        let a = locations_fingerprint(&[loc(1, "E"), loc(2, "F")]);
        let b = locations_fingerprint(&[loc(2, "F"), loc(1, "E")]);
        let c = locations_fingerprint(&[loc(1, "E"), loc(2, "G")]);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
