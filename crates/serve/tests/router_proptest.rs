//! Property tests for the typed router and the shared query parser. The
//! routing properties are generated from the server's own route table
//! ([`pse_serve::routes`]), so there is no second table to keep in step:
//! every declared route matches its own pattern and captures its
//! parameters, an unrouted method is a 405, and a path one segment off a
//! declared pattern is a 404. Percent-encoded query strings round-trip
//! through `parse_query` byte-for-byte.

use std::sync::OnceLock;

use proptest::prelude::*;

use pse_serve::http::parse_query;
use pse_serve::{Method, Route, RouteOutcome, Router, Seg};

/// The matching engine over the server's rows, handlers erased.
fn router() -> &'static Router<()> {
    static ROUTER: OnceLock<Router<()>> = OnceLock::new();
    ROUTER.get_or_init(|| Router::new(Vec::leak(pse_serve::routes().collect())))
}

fn method_name(method: Method) -> &'static str {
    match method {
        Method::Get => "GET",
        Method::Post => "POST",
    }
}

/// A path `route` must match — each `{param}` filled with the next of
/// `fill` — and the captures that match must report.
fn path_of(route: &Route<()>, fill: &[String]) -> (String, Vec<(&'static str, String)>) {
    let mut path = String::new();
    let mut captures = Vec::new();
    for seg in route.pattern {
        path.push('/');
        match seg {
            Seg::Lit(lit) => path.push_str(lit),
            Seg::Param(name) => {
                let value = &fill[captures.len() % fill.len()];
                path.push_str(value);
                captures.push((*name, value.clone()));
            }
        }
    }
    (path, captures)
}

fn status(method: &str, path: &str) -> Option<u16> {
    match router().find(method, path) {
        RouteOutcome::Matched(..) => None,
        RouteOutcome::NotFound => Some(404),
        RouteOutcome::MethodNotAllowed => Some(405),
    }
}

proptest! {
    /// Every declared route matches its own pattern with arbitrary
    /// non-empty segments in its `{param}` positions, and captures them.
    #[test]
    fn every_route_matches_its_own_pattern(
        fill in proptest::collection::vec("[A-Za-z0-9 ._%~+-]{1,10}", 1..3),
    ) {
        for route in router().routes() {
            let (path, captures) = path_of(route, &fill);
            match router().find(method_name(route.method), &path) {
                RouteOutcome::Matched(found, params) => {
                    prop_assert_eq!(found.label, route.label, "path={:?}", &path);
                    for (name, value) in &captures {
                        prop_assert_eq!(params.get(name), Some(value.as_str()), "path={:?}", &path);
                    }
                }
                _ => prop_assert!(false, "{} {:?} did not match", route.label, &path),
            }
        }
    }

    /// A method the table routes nowhere is a 405 on every declared
    /// path; the other routed method is a 404 unless the table declares
    /// that row too.
    #[test]
    fn undeclared_method_on_a_declared_path(
        fill in proptest::collection::vec("[A-Za-z0-9._~-]{1,10}", 1..3),
        method in "(PUT|DELETE|PATCH|HEAD|OPTIONS|get|post|G ET|)",
    ) {
        for route in router().routes() {
            let (path, _) = path_of(route, &fill);
            prop_assert_eq!(status(&method, &path), Some(405), "{} {:?}", &method, &path);
            let other = match route.method {
                Method::Get => "POST",
                Method::Post => "GET",
            };
            prop_assert_eq!(status(other, &path), Some(404), "{} {:?}", other, &path);
        }
    }

    /// One segment off a declared pattern — an extra trailing segment, a
    /// trailing slash, the last segment missing or emptied, no leading
    /// slash — is a 404.
    #[test]
    fn a_path_one_segment_off_is_not_found(
        fill in proptest::collection::vec("[A-Za-z0-9._~-]{1,10}", 1..3),
        extra in "[A-Za-z0-9._~-]{1,10}",
    ) {
        for route in router().routes() {
            let method = method_name(route.method);
            let (path, _) = path_of(route, &fill);
            let parent = &path[..path.rfind('/').expect("paths start with a slash")];
            let near_misses = [
                format!("{path}/{extra}"),
                format!("{path}/"),
                parent.to_string(),
                format!("{parent}/"),
                path[1..].to_string(),
            ];
            for miss in &near_misses {
                prop_assert_eq!(status(method, miss), Some(404), "{} {:?}", method, miss);
            }
        }
    }
}

/// Percent-encode every byte that is not unreserved, which is always a
/// valid (if conservative) encoding of the pair.
fn encode(s: &str) -> String {
    let mut out = String::new();
    for &b in s.as_bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

fn text_strategy() -> impl Strategy<Value = String> {
    // Arbitrary bytes laundered through from_utf8_lossy: covers ASCII,
    // multi-byte UTF-8 (replacement chars), and the reserved characters
    // `& = % +` that the encoder must protect.
    proptest::collection::vec(any::<u8>(), 0..12)
        .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned())
}

proptest! {
    /// Arbitrary pairs survive encode → wire → parse_query unchanged,
    /// in order, duplicates and empty values included.
    #[test]
    fn query_pairs_round_trip(
        pairs in proptest::collection::vec((text_strategy(), text_strategy()), 0..6),
    ) {
        let wire = pairs
            .iter()
            .map(|(k, v)| format!("{}={}", encode(k), encode(v)))
            .collect::<Vec<_>>()
            .join("&");
        // Every encoded pair is "k=v" (never an empty part — even an
        // empty pair encodes to "="), so parse_query keeps them all.
        let decoded = parse_query(&wire);
        prop_assert_eq!(decoded, pairs, "wire={:?}", &wire);
    }
}

/// The hand-written corner cases the fuzz loop cannot pin byte-exactly:
/// `+` means space, stray `%` stays verbatim, bare keys get empty
/// values, and empty parts vanish.
#[test]
fn query_parser_corner_cases() {
    assert_eq!(parse_query("a=1+2"), vec![("a".into(), "1 2".into())]);
    assert_eq!(parse_query("a%20b=c%26d"), vec![("a b".into(), "c&d".into())]);
    assert_eq!(parse_query("a=%ZZ"), vec![("a".into(), "%ZZ".into())]);
    assert_eq!(parse_query("flag"), vec![("flag".into(), String::new())]);
    assert_eq!(parse_query("&&a=1&&"), vec![("a".into(), "1".into())]);
    assert_eq!(parse_query(""), Vec::<(String, String)>::new());
    assert_eq!(
        parse_query("q=canon&q=nikon"),
        vec![("q".into(), "canon".into()), ("q".into(), "nikon".into())]
    );
}
