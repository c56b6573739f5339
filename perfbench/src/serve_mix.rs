//! The `serve-mix` workload: a closed loop of clients against the
//! daemon on loopback.
//!
//! Each client is a shipped `gubpi_serve::Client` and blocks on every
//! reply before it sends its next request. A seeded Zipf distribution
//! picks the query template; the interval is the template's hot one
//! (a cache read) or a freshly drawn widening of it (a cache miss). Requests
//! carry no deadline. The benchmark leaves the client's socket options
//! as they ship, so the wire's own latency stays visible.

use std::net::SocketAddr;
use std::time::Instant;

use gubpi_core::{AnalysisOptions, Analyzer, QueryOutcome, SharedQueryCache, WorkerPool};
use gubpi_interval::Interval;
use gubpi_serve::{start_with_cache, Client, QueryKind, QueryRequest, ServeConfig, ServerHandle};

use crate::check::References;
use crate::metrics::{layer_metrics, Metric, Outcome};
use crate::replay::replay_request;
use crate::sys::{cpu_seconds, median, peak_rss_mb, quantile, SplitMix};
use crate::trace::Tracer;
use crate::workloads::{Ask, Template};
use crate::Args;

/// Client threads of the closed loop.
pub const CLIENTS: usize = 2;
/// Requests each client sends per round; rounds are separated by a
/// barrier, and `wall_s` is the median round time. A unit of
/// measurement, not of traffic: at today's ~88 ms a round trip a round
/// takes about 4.4 s, so a 25 s run holds five or six.
pub const ROUND: usize = 50;
/// Share of requests on the template's hot interval: YCSB's default
/// hotspot operation fraction (Cooper et al., "Benchmarking Cloud
/// Serving Systems with YCSB", SoCC 2010). An assumption borrowed from
/// a key-value benchmark, not measured on GuBPI traffic.
pub const P_HOT: f64 = 0.8;
/// Zipf exponent over the template ranks: YCSB's default zipfian
/// constant. An assumption of the same kind as `P_HOT`.
pub const ZIPF_S: f64 = 0.99;

#[derive(Copy, Clone)]
struct Request {
    template: usize,
    u: Interval,
}

/// One answered (or failed) request of the timed phase.
struct Served {
    req: Request,
    rtt_ms: f64,
    reply: Result<QueryOutcome, String>,
}

/// The run's seeded request stream; each round deals its requests to
/// the clients in turn.
///
/// Template choices follow a Kronecker sequence (additive steps of the
/// golden-ratio conjugate, modulo 1) mapped through the Zipf CDF: a
/// low-discrepancy stream, so every run's template mix matches the Zipf
/// weights to within about one request per template. Within a template,
/// the requests that turn fresh follow a fixed pattern (the third, the
/// eighth, ... at `P_HOT = 0.8`), so every run asks each template about
/// the same number of fresh questions. A fresh question on one template
/// can cost over 100 times one on another (ex-fig6 `c <= 8` against the
/// Table 2 programs), so random fresh draws would make a run's CPU cost
/// depend on which rare templates its seed happened to draw fresh. The
/// seed sets the sequence's starting point and the fresh intervals.
struct Stream {
    rng: SplitMix,
    cdf: Vec<f64>,
    x: f64,
    /// Requests drawn so far, per template.
    drawn: Vec<u64>,
}

impl Stream {
    fn new(seed: u64, templates: usize) -> Stream {
        let weights: Vec<f64> = (1..=templates).map(|r| (r as f64).powf(-ZIPF_S)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        let mut rng = SplitMix::new(seed, 100);
        let x = rng.unit();
        Stream {
            rng,
            cdf,
            x,
            drawn: vec![0; templates],
        }
    }

    fn next(&mut self, templates: &[Template]) -> Request {
        self.x = (self.x + 0.618_033_988_749_894_9).fract();
        let template = self
            .cdf
            .iter()
            .position(|&c| self.x < c)
            .unwrap_or(self.cdf.len() - 1);
        let k = self.drawn[template] as f64;
        self.drawn[template] += 1;
        let cold = 1.0 - P_HOT;
        let fresh = ((k + 1.0) * cold + 0.5).floor() > (k * cold + 0.5).floor();
        let t = &templates[template];
        let u = if fresh {
            t.fresh(self.rng.unit(), self.rng.unit())
        } else {
            t.hot
        };
        Request { template, u }
    }
}

fn wire_request(t: &Template, u: Interval) -> QueryRequest {
    QueryRequest {
        kind: t.kind,
        source: t.source.to_string(),
        lo: u.lo(),
        hi: u.hi(),
        timeout_ms: None,
        region_budget: None,
    }
}

/// Sends one request; a transport error reconnects the client.
fn send(
    client: &mut Client,
    addr: SocketAddr,
    t: &Template,
    u: Interval,
) -> Result<QueryOutcome, String> {
    match client.query(wire_request(t, u)) {
        Ok(Ok(o)) if o.degraded => Err("degraded".to_string()),
        Ok(Ok(o)) => Ok(o),
        Ok(Err(e)) => Err(e.code),
        Err(e) => {
            if let Ok(c) = Client::connect(addr) {
                *client = c;
            }
            Err(format!("transport: {e}"))
        }
    }
}

/// A running daemon with its connected clients and the warm-up replies
/// on every hot interval.
pub struct Daemon {
    handle: ServerHandle,
    clients: Vec<Client>,
    warm: Vec<Result<QueryOutcome, String>>,
}

impl Daemon {
    /// Starts the daemon, connects the clients and fills the hot set.
    pub fn start(templates: &[Template]) -> Result<Daemon, String> {
        let handle = start_with_cache(ServeConfig::default(), SharedQueryCache::new())
            .map_err(|e| format!("start daemon: {e}"))?;
        let addr = handle.local_addr();
        let mut clients = Vec::new();
        for _ in 0..CLIENTS {
            clients.push(Client::connect(addr).map_err(|e| format!("connect: {e}"))?);
        }
        let mut warm: Vec<Result<QueryOutcome, String>> =
            vec![Err("not sent".to_string()); templates.len()];
        std::thread::scope(|s| {
            let workers: Vec<_> = clients
                .iter_mut()
                .enumerate()
                .map(|(c, client)| {
                    s.spawn(move || {
                        (c..templates.len())
                            .step_by(CLIENTS)
                            .map(|i| (i, send(client, addr, &templates[i], templates[i].hot)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for w in workers {
                for (i, r) in w.join().expect("warm-up client thread") {
                    warm[i] = r;
                }
            }
        });
        Ok(Daemon {
            handle,
            clients,
            warm,
        })
    }

    /// Disconnects the clients and stops the daemon.
    pub fn stop(self) {
        drop(self.clients);
        self.handle.shutdown();
    }
}

/// In-process answer of the daemon's query at its default options.
fn in_process(a: &Analyzer, kind: QueryKind, u: Interval) -> QueryOutcome {
    match kind {
        QueryKind::Denotation => a.denotation_outcome(u, None),
        QueryKind::Posterior => a.posterior_outcome(u, None),
    }
}

fn build(t: &Template, cache: &SharedQueryCache) -> Result<Analyzer, String> {
    let program = gubpi_lang::parse(t.source).map_err(|e| e.to_string())?;
    Analyzer::from_program_with(
        program,
        AnalysisOptions::default(),
        cache,
        WorkerPool::global(),
    )
    .map_err(|e| e.to_string())
}

fn same(a: &QueryOutcome, b: &QueryOutcome) -> bool {
    a.lo.to_bits() == b.lo.to_bits() && a.hi.to_bits() == b.hi.to_bits()
}

/// Runs the timed closed loop on `daemon`, then the correctness gate
/// and, when tracing, the in-process replays.
pub fn run(
    args: &Args,
    templates: &[Template],
    daemon: Daemon,
    refs: &References,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    // The hot set: containment against the references, and the gap sum.
    for (t, r) in templates.iter().zip(&daemon.warm) {
        let o = r
            .as_ref()
            .map_err(|e| format!("{}: warm-up request failed: {e}", t.label))?;
        refs.check(&t.label, t.ref_kind(), t.hot, t.exact, (o.lo, o.hi))?;
        if o.hi.is_finite() {
            out.gap_sum += o.hi - o.lo;
        } else {
            out.infinite_results += 1;
        }
    }
    let Daemon {
        handle,
        mut clients,
        warm,
    } = daemon;
    let addr = handle.local_addr();
    let mut stream = Stream::new(args.seed, templates.len());
    let cache0 = handle.cache().stats();
    let started = Instant::now();
    let (mut walls, mut cpus) = (Vec::new(), Vec::new());
    // `rounds[r][c]` is client c's requests in round r.
    let mut rounds: Vec<Vec<Vec<Served>>> = Vec::new();
    while rounds.is_empty() || started.elapsed().as_secs_f64() < args.seconds as f64 {
        let cpu0 = cpu_seconds();
        let t0 = Instant::now();
        let requests: Vec<Request> = (0..CLIENTS * ROUND)
            .map(|_| stream.next(templates))
            .collect();
        let round = std::thread::scope(|s| {
            let workers: Vec<_> = clients
                .iter_mut()
                .enumerate()
                .map(|(c, client)| {
                    let requests = &requests;
                    s.spawn(move || {
                        (c..requests.len())
                            .step_by(CLIENTS)
                            .map(|i| {
                                let req = requests[i];
                                let t0 = Instant::now();
                                let reply = send(client, addr, &templates[req.template], req.u);
                                Served {
                                    req,
                                    rtt_ms: t0.elapsed().as_secs_f64() * 1e3,
                                    reply,
                                }
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("client thread"))
                .collect::<Vec<_>>()
        });
        walls.push(t0.elapsed().as_secs_f64());
        cpus.push(cpu_seconds() - cpu0);
        rounds.push(round);
    }
    let cache1 = handle.cache().stats();
    // The daemon's peak, read before the checks below build analyzers
    // in this process.
    out.peak_rss_mb = peak_rss_mb();
    drop(clients);
    handle.shutdown();

    // The in-process answer to every request, one analyzer per template.
    let mut analyzers: Vec<Option<Analyzer>> = templates.iter().map(|_| None).collect();
    let mut expect = |i: usize, u: Interval, o: &QueryOutcome| -> Result<(), String> {
        let t = &templates[i];
        if analyzers[i].is_none() {
            analyzers[i] = Some(build(t, &SharedQueryCache::new())?);
        }
        let a = analyzers[i].as_ref().expect("built above");
        if same(o, &in_process(a, t.kind, u)) {
            Ok(())
        } else {
            Err(format!(
                "{} [{}, {}]: daemon reply differs from the in-process Analyzer",
                t.label,
                u.lo(),
                u.hi()
            ))
        }
    };
    for (i, (t, r)) in templates.iter().zip(&warm).enumerate() {
        if let Ok(o) = r {
            expect(i, t.hot, o)?;
        }
    }

    // The requests in the order the stream drew them: the order the
    // in-process replays use.
    let served: Vec<&Served> = rounds
        .iter()
        .flat_map(|round| (0..ROUND).flat_map(move |i| round.iter().map(move |c| &c[i])))
        .collect();
    out.attempted = served.len() as u64;
    out.failed = served.iter().filter(|s| s.reply.is_err()).count() as u64;
    let overloaded = served
        .iter()
        .filter(|s| matches!(&s.reply, Err(code) if code == "overloaded"))
        .count();
    let rtts: Vec<f64> = served
        .iter()
        .filter(|s| s.reply.is_ok())
        .map(|s| s.rtt_ms)
        .collect();

    // Correctness: every reply bit-identical to the in-process answer,
    // hot replies also inside their references.
    for s in &served {
        let Ok(o) = &s.reply else { continue };
        let t = &templates[s.req.template];
        if o.lo > o.hi {
            return Err(format!("{}: malformed reply [{}, {}]", t.label, o.lo, o.hi));
        }
        if s.req.u == t.hot {
            refs.check(&t.label, t.ref_kind(), t.hot, t.exact, (o.lo, o.hi))?;
        }
        expect(s.req.template, s.req.u, o)?;
    }

    let elapsed: f64 = walls.iter().sum();
    out.end_to_end = vec![
        Metric::new("wall_s", median(&walls), "s"),
        // The mean: a run's mix is balanced per template, a round's is not.
        Metric::new("cpu_s", cpus.iter().sum::<f64>() / cpus.len() as f64, "s"),
        Metric::new("latency_p50_ms", median(&rtts), "ms"),
        Metric::new("latency_p95_ms", quantile(&rtts, 0.95), "ms"),
        Metric::new("throughput_qps", rtts.len() as f64 / elapsed, "1/s"),
    ];
    out.notes.push(("rounds", rounds.len() as f64));
    out.notes.push(("latency_samples", rtts.len() as f64));
    out.notes.push(("overloaded", overloaded as f64));
    let lookups = (cache1.hits + cache1.misses) - (cache0.hits + cache0.misses);
    let hit_ratio = (cache1.hits - cache0.hits) as f64 / lookups.max(1) as f64;
    out.notes.push(("cache_hit_ratio", hit_ratio));

    if args.trace {
        let ok: Vec<&Served> = served.into_iter().filter(|s| s.reply.is_ok()).collect();
        let mut layers = traced(templates, &ok, rounds.len() as f64, &mut out)?;
        layers.push(Metric::new("core.cache_hit_ratio", hit_ratio, "ratio"));
        layers.push(Metric::new(
            "serve.overloaded_ratio",
            overloaded as f64 / out.attempted.max(1) as f64,
            "ratio",
        ));
        out.per_layer = layers;
    }
    Ok(out)
}

/// The traced serve-mix measurements, over the served requests in
/// order: an in-process `Analyzer` on a mirror cache warmed like the
/// daemon's (`serve.wire_ms`, `serve.frontend_ms`), and the layer
/// replay without and with recording (`trace.overhead_ratio` and the
/// layer metrics, per round of requests).
fn traced(
    templates: &[Template],
    served: &[&Served],
    rounds: f64,
    out: &mut Outcome,
) -> Result<Vec<Metric>, String> {
    let pool = WorkerPool::global();
    let width = gubpi_core::Threads::Auto.worker_count(usize::MAX);
    let mirror = SharedQueryCache::new();
    for t in templates {
        in_process(&build(t, &mirror)?, t.kind, t.hot);
    }
    let (mut inproc_ms, mut frontend_ms) = (Vec::new(), Vec::new());
    for s in served {
        let t = &templates[s.req.template];
        let t0 = Instant::now();
        let a = build(t, &mirror)?;
        frontend_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(in_process(&a, t.kind, s.req.u));
        inproc_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    // The same replay twice: under a tracer that records nothing, then
    // under the recording one.
    let replay = |tr: &mut Tracer| -> Result<f64, String> {
        let t0 = Instant::now();
        for (i, s) in served.iter().enumerate() {
            let t = &templates[s.req.template];
            let ask = match t.kind {
                QueryKind::Denotation => Ask::Denotation(s.req.u),
                QueryKind::Posterior => Ask::Posterior(s.req.u),
            };
            let b = replay_request(t.source, ask, pool, width, i as u32, tr)?;
            let o = s.reply.as_ref().map_err(Clone::clone)?;
            if (b.0.to_bits(), b.1.to_bits()) != (o.lo.to_bits(), o.hi.to_bits()) {
                return Err(format!(
                    "{}: traced replay differs from the daemon reply",
                    t.label
                ));
            }
        }
        Ok(t0.elapsed().as_secs_f64())
    };
    let plain_wall = replay(&mut Tracer::off())?;
    let stats0 = pool.stats();
    let mut tr = Tracer::new();
    let traced_wall = replay(&mut tr)?;
    let mut layers = layer_metrics(&tr, &stats0, &pool.stats(), rounds);
    let rtts: Vec<f64> = served.iter().map(|s| s.rtt_ms).collect();
    layers.push(Metric::new(
        "serve.wire_ms",
        median(&rtts) - median(&inproc_ms),
        "ms",
    ));
    layers.push(Metric::new("serve.frontend_ms", median(&frontend_ms), "ms"));
    layers.push(Metric::new(
        "trace.overhead_ratio",
        traced_wall / plain_wall,
        "ratio",
    ));
    out.notes.push(("inprocess_p50_ms", median(&inproc_ms)));
    out.spans = Some(tr.to_json());
    Ok(layers)
}
