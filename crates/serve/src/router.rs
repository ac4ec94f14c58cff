//! Typed request routing.
//!
//! One static table of [`Route`]s replaces the old pair of parallel
//! `match (method, path)` blocks (one for dispatch, one for metric
//! labels). Each route carries its method, a typed [`Seg`] pattern with
//! named parameters (`/products/{category}`), its span/metric label,
//! and its RED metric names — so the label and metrics of an endpoint
//! are derived from the same row that dispatches it, and a route cannot
//! exist without them.
//!
//! Matching semantics preserve the legacy server's observable behavior,
//! minus its two `starts_with` fallthrough bugs:
//!
//! * unknown methods (anything but GET/POST) → 405, whatever the path;
//! * a GET/POST that matches no `(method, pattern)` row → 404 — even
//!   when the path exists under the other method, exactly like the old
//!   `("GET" | "POST", _) => 404` arm;
//! * a `{param}` segment never matches an empty segment, so
//!   `GET /products/` and `GET /debug/trace/` are clean 404s instead of
//!   falling through into handlers with an empty capture.

/// The request methods the server routes. Anything else is 405.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// `GET`
    Get,
    /// `POST`
    Post,
}

impl Method {
    /// Parse a request-line method; `None` for methods the server does
    /// not route (the caller answers 405).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "GET" => Some(Self::Get),
            "POST" => Some(Self::Post),
            _ => None,
        }
    }
}

/// One segment of a route pattern.
#[derive(Debug, Clone, Copy)]
pub enum Seg {
    /// Matches exactly this literal segment.
    Lit(&'static str),
    /// Matches any single *non-empty* segment, captured under this name.
    Param(&'static str),
}

/// The RED-metric names of one endpoint, precomputed so the request
/// path never formats a metric name.
#[derive(Debug, Clone, Copy)]
pub struct EndpointMetrics {
    /// Requests routed to the endpoint.
    pub requests: &'static str,
    /// Server-side failures (5xx or client-gone).
    pub errors: &'static str,
    /// Request-latency histogram (microseconds).
    pub us: &'static str,
}

/// One routed endpoint: pattern, label, metrics, and handler in a
/// single row. Generic over the handler type so the table stays free of
/// server internals.
#[derive(Debug)]
pub struct Route<H: 'static> {
    /// Method the route answers.
    pub method: Method,
    /// Path pattern, one [`Seg`] per segment.
    pub pattern: &'static [Seg],
    /// Span/metric label (also the flight-recorder endpoint name).
    pub label: &'static str,
    /// RED metric names derived from `label`.
    pub metrics: EndpointMetrics,
    /// The handler the route dispatches to.
    pub handler: H,
}

/// Captured path parameters of a matched route, borrowed from the
/// request path.
#[derive(Debug, Default)]
pub struct Params<'p> {
    pairs: Vec<(&'static str, &'p str)>,
}

impl<'p> Params<'p> {
    /// The captured value of `{name}`, if the pattern has it.
    pub fn get(&self, name: &str) -> Option<&'p str> {
        self.pairs.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

/// The outcome of routing one request line.
pub enum RouteOutcome<'r, 'p, H: 'static> {
    /// A route matched; dispatch its handler with the captures.
    Matched(&'r Route<H>, Params<'p>),
    /// GET/POST, but no `(method, pattern)` row matched.
    NotFound,
    /// A method the table does not route at all.
    MethodNotAllowed,
}

/// A static route table.
#[derive(Debug)]
pub struct Router<H: 'static> {
    routes: &'static [Route<H>],
}

impl<H> Router<H> {
    /// A router over a static table.
    pub const fn new(routes: &'static [Route<H>]) -> Self {
        Self { routes }
    }

    /// The table, for metric seeding and label lookups.
    pub fn routes(&self) -> &'static [Route<H>] {
        self.routes
    }

    /// Route one request line. First matching row wins; table order is
    /// the precedence order (the current table has no overlapping
    /// patterns, so order never matters in practice).
    pub fn find<'p>(&self, method: &str, path: &'p str) -> RouteOutcome<'_, 'p, H> {
        let Some(method) = Method::parse(method) else {
            return RouteOutcome::MethodNotAllowed;
        };
        let Some(rest) = path.strip_prefix('/') else {
            return RouteOutcome::NotFound;
        };
        let segments: Vec<&str> = rest.split('/').collect();
        for route in self.routes {
            if route.method != method {
                continue;
            }
            if let Some(params) = match_pattern(route.pattern, &segments) {
                return RouteOutcome::Matched(route, params);
            }
        }
        RouteOutcome::NotFound
    }
}

/// Match one pattern against the split path segments; `None` on any
/// mismatch. `{param}` requires a non-empty segment — a trailing slash
/// produces an empty final segment and correctly fails here.
fn match_pattern<'p>(pattern: &'static [Seg], segments: &[&'p str]) -> Option<Params<'p>> {
    if pattern.len() != segments.len() {
        return None;
    }
    let mut pairs = Vec::new();
    for (seg, &got) in pattern.iter().zip(segments) {
        match seg {
            Seg::Lit(want) => {
                if *want != got {
                    return None;
                }
            }
            Seg::Param(name) => {
                if got.is_empty() {
                    return None;
                }
                pairs.push((*name, got));
            }
        }
    }
    Some(Params { pairs })
}

#[cfg(test)]
mod tests {
    use super::*;

    const TABLE: &[Route<u8>] = &[
        Route {
            method: Method::Get,
            pattern: &[Seg::Lit("healthz")],
            label: "healthz",
            metrics: EndpointMetrics { requests: "r", errors: "e", us: "u" },
            handler: 0,
        },
        Route {
            method: Method::Get,
            pattern: &[Seg::Lit("products"), Seg::Param("category")],
            label: "products",
            metrics: EndpointMetrics { requests: "r", errors: "e", us: "u" },
            handler: 1,
        },
        Route {
            method: Method::Post,
            pattern: &[Seg::Lit("ingest")],
            label: "ingest",
            metrics: EndpointMetrics { requests: "r", errors: "e", us: "u" },
            handler: 2,
        },
    ];

    const ROUTER: Router<u8> = Router::new(TABLE);

    fn outcome(method: &str, path: &str) -> Result<(&'static str, Vec<String>), u16> {
        match ROUTER.find(method, path) {
            RouteOutcome::Matched(r, p) => {
                Ok((r.label, p.pairs.iter().map(|(_, v)| v.to_string()).collect()))
            }
            RouteOutcome::NotFound => Err(404),
            RouteOutcome::MethodNotAllowed => Err(405),
        }
    }

    #[test]
    fn literal_and_param_matching() {
        assert_eq!(outcome("GET", "/healthz"), Ok(("healthz", vec![])));
        assert_eq!(outcome("GET", "/products/7"), Ok(("products", vec!["7".into()])));
        assert_eq!(outcome("POST", "/ingest"), Ok(("ingest", vec![])));
    }

    #[test]
    fn empty_param_segment_is_not_found() {
        assert_eq!(outcome("GET", "/products/"), Err(404));
        assert_eq!(outcome("GET", "/products"), Err(404));
        assert_eq!(outcome("GET", "/products/7/extra"), Err(404));
    }

    #[test]
    fn wrong_method_on_known_path_is_404_like_legacy() {
        assert_eq!(outcome("POST", "/healthz"), Err(404));
        assert_eq!(outcome("GET", "/ingest"), Err(404));
    }

    #[test]
    fn unrouted_methods_are_405() {
        assert_eq!(outcome("PUT", "/healthz"), Err(405));
        assert_eq!(outcome("DELETE", "/nope"), Err(405));
        assert_eq!(outcome("", "/healthz"), Err(405));
    }

    #[test]
    fn pathological_paths_are_404() {
        assert_eq!(outcome("GET", ""), Err(404));
        assert_eq!(outcome("GET", "healthz"), Err(404), "missing leading slash");
        assert_eq!(outcome("GET", "/"), Err(404));
        assert_eq!(outcome("GET", "//"), Err(404));
    }
}
