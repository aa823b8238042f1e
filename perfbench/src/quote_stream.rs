//! `quote_stream`: an open loop of seeded arrivals over loopback TCP into an
//! in-process `QuoteServer` on its default configuration.  The reactor,
//! the wire codec, the EDF queue, coalescing, dedup and the memo do most of
//! their work here.
//!
//! A run has four parts: the light fixed rate; a closed loop that keeps a
//! fixed number of requests in flight, whose reply rate is the capacity;
//! then the heavy fixed rate in short windows, interleaved with the rungs of
//! a fixed rate ladder that climbs until the service stops keeping up.
//! Every open-loop request is timed from its scheduled send time, so a
//! stall is charged to every request queued behind it.

use crate::gen::{self, Quote, Rng};
use crate::spec::Measured;
use crate::stats::{self, median, percentile, spin, CpuTimes};
use crate::trace::Tracer;
use crate::RunArgs;
use american_option_pricing::core::batch::greeks::greeks as batch_greeks;
use american_option_pricing::core::batch::surface::{implied_vol_surface, VolQuote};
use american_option_pricing::core::batch::BatchPricer;
use american_option_pricing::core::EngineConfig;
use american_option_pricing::service::wire::{self, JsonValue, WireRequest};
use american_option_pricing::service::{
    Client, QuoteServer, ServiceConfig, ServiceRequest, ServiceResponse, Ticket,
};
use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Light fixed rate (requests per second).
pub const LIGHT_RPS: f64 = 100.0;
/// Heavy fixed rate.
pub const HEAVY_RPS: f64 = 350.0;
/// The rate ladder, 15% apart, climbed between the heavy-rate windows.  The
/// climb stops at the first rung the service does not keep up with, which
/// bounds the backlog (and the memory) a run builds up.
pub const LADDER_RPS: [f64; 12] =
    [700.0, 805.0, 926.0, 1065.0, 1224.0, 1408.0, 1619.0, 1862.0, 2141.0, 2462.0, 2832.0, 3256.0];
/// The p99 latency limit a sustained rate must meet.
pub const P99_LIMIT_MS: f64 = 150.0;
/// A rung is kept up with when its replies arrive at no less than this
/// share of its offered rate, measured from its first scheduled send to its
/// last reply: a backlog worth more than ~8% of the rung is still draining
/// after the last send.
pub const KEPT_UP: f64 = 0.92;
/// A run whose generator sent light- or heavy-rate requests later than
/// this (p99) is invalid: the offered load was not the stated one.
pub const LATE_LIMIT_MS: f64 = 50.0;
/// Latency charged to a request that got no usable reply.
const FAILED_MS: f64 = 30_000.0;
/// Heavy-rate windows per run, and how many of them (those that lost the
/// least CPU time to the hypervisor) the heavy-rate latency metrics pool.
const HEAVY_WINDOWS: usize = 20;
const HEAVY_KEPT: usize = 10;
/// Loopback connections the stream spreads over (at most `nproc`).
const MAX_CONNS: usize = 2;

/// How many loopback connections (and in-process clients) a run uses.
pub fn connections() -> usize {
    stats::nproc().clamp(1, MAX_CONNS)
}
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Requests each set-up sends, in one burst, before the server counts as
/// ready.
const WARMUP: usize = 64;

/// The seeded stream: requests, their encoded lines, and the arrival
/// offsets of every phase.
pub struct Stream {
    pub quotes: Vec<Quote>,
    pub lines: Vec<String>,
}

/// Share of `seconds` each phase runs for.
const LIGHT_SHARE: f64 = 0.1;
const HEAVY_SHARE: f64 = 0.3;
const RUNG_SHARE: f64 = 0.05;
const CLOSED_SHARE: f64 = 0.15;
/// Closed-loop requests in flight per connection.
const CLOSED_WINDOW: usize = 32;
/// Stream requests the closed loop cycles through, so that its mix does
/// not depend on how fast the service works through them.
const CLOSED_POOL: usize = 6000;
/// Closed-loop replies before this offset are the ramp, not the rate.
const CLOSED_RAMP_S: f64 = 0.3;

impl Stream {
    /// Enough requests for every phase of a `seconds`-long run.
    pub fn new(seed: u64, seconds: f64) -> Stream {
        let universe = gen::stream_universe(seed);
        let deep = gen::stream_deep_universe(seed);
        let cfg = EngineConfig::default();
        let ivs = gen::iv_universe(seed, |r| {
            crate::facade::price(r, &cfg).expect("IV universe contracts price")
        });
        let expected = seconds
            * (LIGHT_SHARE * LIGHT_RPS
                + HEAVY_SHARE * HEAVY_RPS
                + RUNG_SHARE * LADDER_RPS.iter().sum::<f64>());
        let n = (expected * 1.3) as usize + CLOSED_POOL + 1000;
        let quotes = gen::quote_stream(seed, n, &universe, &deep, &ivs);
        let lines = quotes.iter().enumerate().map(|(i, q)| encode(i as u64, q)).collect();
        Stream { quotes, lines }
    }
}

/// The wire line for request `id`.
pub fn encode(id: u64, q: &Quote) -> String {
    match q {
        Quote::Price(r) => wire::encode_pricing_request(id, "price", r),
        Quote::Greeks(r) => wire::encode_pricing_request(id, "greeks", r),
        Quote::ImpliedVol { request, market_price } => {
            let vq = VolQuote {
                params: request.params,
                option_type: request.option_type,
                steps: request.steps,
                market_price: *market_price,
            };
            wire::encode_vol_request(id, &vq)
        }
    }
}

/// Seeded arrival offsets (seconds from phase start): `rate * dur`
/// arrivals placed uniformly at random over `dur` seconds, i.e. a Poisson
/// process conditioned on its count, so every seed offers the same load.
pub fn arrivals(rng: &mut Rng, rate: f64, dur: f64) -> Vec<f64> {
    let n = (rate * dur).round() as usize;
    let mut out: Vec<f64> = (0..n).map(|_| rng.unit() * dur).collect();
    out.sort_by(f64::total_cmp);
    out
}

/// What one open-loop phase observed, per request in send order.
#[derive(Debug)]
pub struct Phase {
    pub rate: f64,
    /// Request indices into the stream.
    pub reqs: Vec<usize>,
    /// Latency from scheduled send to reply (failed requests: `FAILED_MS`).
    pub lat_ms: Vec<f64>,
    /// How late the generator sent each request.
    pub late_ms: Vec<f64>,
    /// Reply line per request (`None`: no reply).
    pub replies: Vec<Option<String>>,
    /// From the first scheduled send to the last reply.
    pub span_s: f64,
    /// Share of the machine's CPU time the hypervisor stole meanwhile.
    pub steal: f64,
}

impl Phase {
    pub fn p99(&self) -> f64 {
        percentile(&self.lat_ms, 99.0)
    }

    /// Ok replies per second from the phase's start to its last reply.
    pub fn achieved_rps(&self) -> f64 {
        let ok = self.replies.iter().flatten().filter(|r| r.contains("\"ok\":true")).count();
        ok as f64 / self.span_s
    }

    /// Whether the service kept up with the offered rate (see [`KEPT_UP`]).
    pub fn kept_up(&self) -> bool {
        self.achieved_rps() >= KEPT_UP * self.rate
    }

    /// Met the p99 limit without a growing backlog.
    pub fn sustained(&self) -> bool {
        self.p99() <= P99_LIMIT_MS && self.kept_up()
    }
}

/// Sends `reqs` at `offsets` over `conns` (round-robin), reading replies on
/// one thread per connection.  The calling thread is the only generator.
pub fn drive_tcp(
    conns: &[TcpStream],
    stream: &Stream,
    reqs: &[usize],
    offsets: &[f64],
    rate: f64,
    tracer: &Tracer,
) -> std::io::Result<Phase> {
    let cpu = CpuTimes::now();
    let start = Instant::now() + Duration::from_millis(5);
    let sched: Vec<Instant> = offsets.iter().map(|&o| start + Duration::from_secs_f64(o)).collect();
    let n = reqs.len();
    let mut lat_ms = vec![FAILED_MS; n];
    let mut late_ms = vec![0.0; n];
    let mut replies: Vec<Option<String>> = vec![None; n];
    let mut last_reply = start;
    std::thread::scope(|s| -> std::io::Result<()> {
        let readers: Vec<_> = conns
            .iter()
            .enumerate()
            .map(|(c, conn)| {
                let conn = conn.try_clone()?;
                let mine: Vec<usize> = (c..n).step_by(conns.len()).collect();
                Ok(s.spawn(move || {
                    let mut reader = BufReader::new(conn);
                    let mut got = Vec::with_capacity(mine.len());
                    for k in mine {
                        let mut line = String::new();
                        let read = reader.read_line(&mut line);
                        let done = Instant::now();
                        match read {
                            Ok(len) if len > 0 => got.push((k, done, Some(line))),
                            _ => {
                                got.push((k, done, None));
                                break;
                            }
                        }
                    }
                    got
                }))
            })
            .collect::<std::io::Result<_>>()?;
        let mut writers: Vec<TcpStream> =
            conns.iter().map(TcpStream::try_clone).collect::<std::io::Result<_>>()?;
        for (k, &i) in reqs.iter().enumerate() {
            let now = Instant::now();
            if sched[k] > now {
                std::thread::sleep(sched[k] - now);
            }
            late_ms[k] = Instant::now().saturating_duration_since(sched[k]).as_secs_f64() * 1e3;
            let mut bytes = Vec::with_capacity(stream.lines[i].len() + 1);
            bytes.extend_from_slice(stream.lines[i].as_bytes());
            bytes.push(b'\n');
            let w = &mut writers[k % conns.len()];
            tracer.span("tcp.send", None, i as u64, || w.write_all(&bytes))?;
        }
        for reader in readers {
            for (k, done, line) in reader.join().expect("reply reader panicked") {
                if line.is_some() {
                    lat_ms[k] = done.duration_since(sched[k]).as_secs_f64() * 1e3;
                    last_reply = last_reply.max(done);
                }
                let root = reqs[k] as u64;
                tracer.record("quote.request", None, root, sched[k], done);
                replies[k] = line;
            }
        }
        Ok(())
    })?;
    Ok(Phase {
        rate,
        reqs: reqs.to_vec(),
        lat_ms,
        late_ms,
        replies,
        span_s: last_reply.saturating_duration_since(start).as_secs_f64(),
        steal: cpu.steal_since(CpuTimes::now()),
    })
}

/// Stream requests with their reply lines (`None`: no reply).
pub type Replies = Vec<(usize, Option<String>)>;

/// A closed loop: each connection keeps `window` requests in flight for
/// `secs` seconds, sending the next request as each reply arrives.  Cycles
/// through the `CLOSED_POOL` stream requests from `first` on, interleaved
/// across connections.
/// Returns the ok-reply rate after the ramp, the share of the machine's CPU
/// time the hypervisor stole meanwhile, and every (request, reply).
pub fn drive_closed(
    conns: &[TcpStream],
    stream: &Stream,
    first: usize,
    window: usize,
    secs: f64,
) -> std::io::Result<(f64, f64, Replies)> {
    let cpu = CpuTimes::now();
    let start = Instant::now();
    let ramp_end = start + Duration::from_secs_f64(CLOSED_RAMP_S);
    let deadline = start + Duration::from_secs_f64(secs);
    let nconn = conns.len();
    let per_conn = std::thread::scope(|s| {
        let workers: Vec<_> = conns
            .iter()
            .enumerate()
            .map(|(c, conn)| {
                let mut writer = conn.try_clone()?;
                let mut reader = BufReader::new(conn.try_clone()?);
                Ok(s.spawn(move || -> std::io::Result<(u64, Replies)> {
                    let mut next = (first + c..first + CLOSED_POOL).step_by(nconn).cycle();
                    let mut in_flight = std::collections::VecDeque::new();
                    let mut send =
                        |w: &mut TcpStream, q: &mut std::collections::VecDeque<usize>| {
                            let Some(i) = next.next() else { return Ok(()) };
                            q.push_back(i);
                            w.write_all(format!("{}\n", stream.lines[i]).as_bytes())
                        };
                    for _ in 0..window {
                        send(&mut writer, &mut in_flight)?;
                    }
                    let (mut counted, mut got) = (0u64, Vec::new());
                    while let Some(i) = in_flight.pop_front() {
                        let mut line = String::new();
                        let ok = reader.read_line(&mut line).is_ok_and(|n| n > 0);
                        let now = Instant::now();
                        if ok && now >= ramp_end && now <= deadline && line.contains("\"ok\":true")
                        {
                            counted += 1;
                        }
                        got.push((i, ok.then_some(line)));
                        if !ok {
                            break;
                        }
                        if now < deadline {
                            send(&mut writer, &mut in_flight)?;
                        }
                    }
                    Ok((counted, got))
                }))
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        workers
            .into_iter()
            .map(|w| w.join().expect("closed-loop connection panicked"))
            .collect::<std::io::Result<Vec<_>>>()
    })?;
    let counted: u64 = per_conn.iter().map(|(n, _)| n).sum();
    let replies = per_conn.into_iter().flat_map(|(_, got)| got).collect();
    Ok((counted as f64 / (secs - CLOSED_RAMP_S), cpu.steal_since(CpuTimes::now()), replies))
}

/// The same open loop through in-process [`Client`]s, one per loopback
/// connection the TCP run uses: request `k` goes to client `k % n`, and one
/// waiter thread per client resolves its tickets in submission order, as a
/// connection's replies arrive in order.  Returns latencies from scheduled
/// send and the number of failed submissions.
pub fn drive_inproc(
    clients: &[Client],
    stream: &Stream,
    reqs: &[usize],
    offsets: &[f64],
) -> (Vec<f64>, u64) {
    let start = Instant::now() + Duration::from_millis(5);
    let mut failed = 0;
    let lat = std::thread::scope(|s| {
        let (senders, waiters): (Vec<_>, Vec<_>) = clients
            .iter()
            .map(|_| {
                let (tx, rx) = std::sync::mpsc::channel::<(Instant, Ticket)>();
                let waiter = s.spawn(move || {
                    let (mut out, mut bad) = (Vec::new(), 0u64);
                    for (sched, ticket) in rx {
                        bad += u64::from(ticket.wait().is_err());
                        out.push(Instant::now().duration_since(sched).as_secs_f64() * 1e3);
                    }
                    (out, bad)
                });
                (tx, waiter)
            })
            .unzip();
        for (k, &i) in reqs.iter().enumerate() {
            let sched = start + Duration::from_secs_f64(offsets[k]);
            let now = Instant::now();
            if sched > now {
                std::thread::sleep(sched - now);
            }
            match clients[k % clients.len()].submit(service_request(&stream.lines[i])) {
                Ok(t) => senders[k % clients.len()]
                    .send((sched, t))
                    .expect("waiter outlives the generator"),
                Err(_) => failed += 1,
            }
        }
        drop(senders);
        let mut lat = Vec::new();
        for waiter in waiters {
            let (out, bad) = waiter.join().expect("ticket waiter panicked");
            lat.extend(out);
            failed += bad;
        }
        lat
    });
    (lat, failed)
}

/// Decodes a line the benchmark itself encoded: exactly the request the
/// server would see.
pub fn service_request(line: &str) -> ServiceRequest {
    match wire::decode_request(line).1 {
        Ok(WireRequest::Submit(req, _)) => req,
        other => panic!("benchmark encoded an unsubmittable line: {other:?}"),
    }
}

/// A started server with its loopback connections.
pub struct Served {
    pub server: QuoteServer,
    pub conns: Vec<TcpStream>,
}

/// Binds a server on its default configuration, connects, and sends
/// `WARMUP` requests one at a time.
pub fn start_server(stream: &Stream) -> std::io::Result<Served> {
    let server = QuoteServer::bind("127.0.0.1:0", ServiceConfig::default())?;
    let conns: Vec<TcpStream> = (0..connections())
        .map(|_| {
            let c = TcpStream::connect(server.local_addr())?;
            c.set_nodelay(true)?;
            c.set_read_timeout(Some(Duration::from_millis(FAILED_MS as u64)))?;
            Ok(c)
        })
        .collect::<std::io::Result<_>>()?;
    // One pipelined burst: its time is pricing work, not a chain of
    // coalescing waits and wake-ups.
    let mut reader = BufReader::new(conns[0].try_clone()?);
    let burst: String =
        stream.lines.iter().rev().take(WARMUP).map(|line| format!("{line}\n")).collect();
    conns[0].try_clone()?.write_all(burst.as_bytes())?;
    for _ in 0..WARMUP {
        let mut reply = String::new();
        reader.read_line(&mut reply)?;
    }
    Ok(Served { server, conns })
}

/// Values a reply carries, as bits, in a fixed field order.
fn reply_bits(line: &str) -> Option<Vec<u64>> {
    let doc = wire::parse(line).ok()?;
    if doc.get("ok") != Some(&JsonValue::Bool(true)) {
        return None;
    }
    let fields: &[&str] = if doc.get("price").is_some() {
        &["price"]
    } else if doc.get("implied_vol").is_some() {
        &["implied_vol"]
    } else {
        &["delta", "gamma", "theta", "vega", "rho"]
    };
    fields.iter().map(|f| doc.get(f).and_then(JsonValue::as_f64).map(f64::to_bits)).collect()
}

fn response_bits(r: &ServiceResponse) -> Vec<u64> {
    match r {
        ServiceResponse::Price(p) => vec![p.to_bits()],
        ServiceResponse::ImpliedVol(v) => vec![v.to_bits()],
        ServiceResponse::Greeks(g) => {
            [g.delta, g.gamma, g.theta, g.vega, g.rho].iter().map(|x| x.to_bits()).collect()
        }
    }
}

/// Reference answers from a fresh `BatchPricer` for every distinct request
/// among `reqs`, keyed by the request line without its id.
pub fn references(stream: &Stream, reqs: impl Iterator<Item = usize>) -> HashMap<String, Vec<u64>> {
    let mut keys: Vec<String> = Vec::new();
    let mut seen: HashSet<&str> = HashSet::new();
    for i in reqs {
        let key = body(&stream.lines[i]);
        if seen.insert(key) {
            keys.push(key.to_string());
        }
    }
    let (mut prices, mut greeks, mut vols) = (Vec::new(), Vec::new(), Vec::new());
    for (k, key) in keys.iter().enumerate() {
        match service_request(&format!("{{\"id\":0,{key}")) {
            ServiceRequest::Price(r) => prices.push((k, r)),
            ServiceRequest::Greeks(r) => greeks.push((k, r)),
            ServiceRequest::ImpliedVol(q) => vols.push((k, q)),
        }
    }
    let pricer = BatchPricer::new(EngineConfig::default());
    let mut out = HashMap::new();
    let reqs: Vec<_> = prices.iter().map(|(_, r)| r.clone()).collect();
    for ((k, _), res) in prices.iter().zip(pricer.price_batch(&reqs)) {
        if let Ok(p) = res {
            out.insert(keys[*k].clone(), response_bits(&ServiceResponse::Price(p)));
        }
    }
    let reqs: Vec<_> = greeks.iter().map(|(_, r)| r.clone()).collect();
    for ((k, _), res) in greeks.iter().zip(batch_greeks(&pricer, &reqs)) {
        if let Ok(g) = res {
            out.insert(keys[*k].clone(), response_bits(&ServiceResponse::Greeks(g)));
        }
    }
    let quotes: Vec<_> = vols.iter().map(|(_, q)| q.clone()).collect();
    for ((k, _), res) in vols.iter().zip(implied_vol_surface(&pricer, &quotes)) {
        if let Ok(v) = res {
            out.insert(keys[*k].clone(), response_bits(&ServiceResponse::ImpliedVol(v)));
        }
    }
    out
}

/// A request line with its leading `{"id":N,` removed.
fn body(line: &str) -> &str {
    line.split_once(',').map_or(line, |(_, rest)| rest)
}

pub fn run(args: &RunArgs, tracer: &Tracer) -> Result<Measured, String> {
    let io = |e: std::io::Error| e.to_string();
    let stream = Stream::new(args.seed, args.seconds);

    let mut setups = Vec::with_capacity(SETUPS);
    let mut served = None;
    for _ in 0..SETUPS {
        drop(served.take());
        let t0 = Instant::now();
        served = Some(start_server(&stream).map_err(io)?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let Served { server, conns } = served.expect("at least one set-up");

    let mut arrival_rng = Rng::new(args.seed, 8);
    let mut next = 0usize;
    let mut run_phase = |next: &mut usize, rate: f64, share: f64| -> Result<Phase, String> {
        let offsets = arrivals(&mut arrival_rng, rate, share * args.seconds);
        let reqs: Vec<usize> = (*next..*next + offsets.len()).collect();
        if reqs.last().is_some_and(|&l| l >= stream.lines.len()) {
            return Err("stream too short for the phase".into());
        }
        *next += reqs.len();
        drive_tcp(&conns, &stream, &reqs, &offsets, rate, tracer).map_err(io)
    };
    // The heavy rate runs as short windows interleaved with the ladder's
    // rungs; the latency metrics pool the windows that lost the least CPU
    // time to the hypervisor.
    let light = run_phase(&mut next, LIGHT_RPS, LIGHT_SHARE)?;
    // Capacity: the closed loop's ok-reply rate per unit of CPU time the
    // hypervisor left the machine (a saturated service's rate scales with it).
    let (closed_rate, closed_steal, closed) =
        drive_closed(&conns, &stream, next, CLOSED_WINDOW, CLOSED_SHARE * args.seconds)
            .map_err(io)?;
    // The harness-side delay (`--delay-pct`) applies to this workload's
    // gated timed operation, the closed loop: spun after it, counted in its
    // window.
    spin(CLOSED_SHARE * args.seconds * args.delay_pct / 100.0);
    let capacity = closed_rate / (1.0 + args.delay_pct / 100.0) / (1.0 - closed_steal);
    next += CLOSED_POOL;
    let mut windows = Vec::with_capacity(HEAVY_WINDOWS);
    let mut rungs = Vec::new();
    let mut ladder = LADDER_RPS.iter();
    let mut saturated = false;
    loop {
        if windows.len() < HEAVY_WINDOWS {
            windows.push(run_phase(&mut next, HEAVY_RPS, HEAVY_SHARE / HEAVY_WINDOWS as f64)?);
        }
        let rate = ladder.next().filter(|_| !saturated);
        if let Some(&rate) = rate {
            let rung = run_phase(&mut next, rate, RUNG_SHARE)?;
            saturated = !rung.kept_up();
            rungs.push(rung);
        } else if windows.len() == HEAVY_WINDOWS {
            break;
        }
    }
    let server_stats = server.stats();
    server.shutdown();
    let conns_n = conns.len();
    drop(conns);
    let peak_rss_mb = stats::peak_rss_mb();

    // Correctness: every reply against a fresh BatchPricer, outside timing.
    let phases: Vec<&Phase> =
        std::iter::once(&light).chain(windows.iter()).chain(rungs.iter()).collect();
    let answers: Vec<(usize, Option<&str>)> = phases
        .iter()
        .flat_map(|p| p.reqs.iter().copied().zip(p.replies.iter().map(Option::as_deref)))
        .chain(closed.iter().map(|(i, r)| (*i, r.as_deref())))
        .collect();
    let want = tracer
        .span("check.references", None, 0, || references(&stream, answers.iter().map(|&(i, _)| i)));
    let attempted = answers.len() as u64;
    let failed = answers
        .iter()
        .filter(|&&(i, reply)| {
            let got = reply.and_then(|line| {
                tracer.span("wire.parse_reply", None, i as u64, || reply_bits(line))
            });
            got.is_none() || want.get(body(&stream.lines[i])) != got.as_ref()
        })
        .count() as u64;

    let sustained_rps = rungs
        .iter()
        .take_while(|p| p.kept_up())
        .filter(|p| p.sustained())
        .map(|p| p.rate)
        .fold(0.0, f64::max);
    let kept = stats::least_stolen(windows.iter().map(|w| (w.steal, w)).collect(), HEAVY_KEPT);
    let heavy: Vec<f64> = kept.iter().flat_map(|w| w.lat_ms.iter().copied()).collect();
    let window_p50s: Vec<String> = windows
        .iter()
        .map(|w| format!("{:.2}ms@{:.0}%", median(&w.lat_ms), w.steal * 100.0))
        .collect();
    let late: Vec<f64> =
        std::iter::once(&light).chain(&windows).flat_map(|p| p.late_ms.iter().copied()).collect();
    let late_p99 = percentile(&late, 99.0);

    let rung_notes: Vec<String> = rungs
        .iter()
        .map(|r| {
            let verdict = if r.sustained() {
                ""
            } else if r.kept_up() {
                "(p99 miss)"
            } else {
                "(saturated)"
            };
            format!("{}rps:{:.0}/s:p99={:.1}ms{verdict}", r.rate, r.achieved_rps(), r.p99())
        })
        .collect();
    Ok(Measured {
        setup_s: median(&setups),
        options_per_s: capacity,
        latency_ms_p50: median(&heavy),
        peak_rss_mb,
        tail_percentile: 99.0,
        latency_ms_tail: percentile(&heavy, 99.0),
        attempted,
        failed,
        notes: vec![
            ("light_rps".into(), LIGHT_RPS.to_string()),
            ("heavy_rps".into(), HEAVY_RPS.to_string()),
            ("p99_limit_ms".into(), P99_LIMIT_MS.to_string()),
            ("closed_loop_in_flight".into(), (CLOSED_WINDOW * conns_n).to_string()),
            (
                "closed_loop_rps".into(),
                format!("{closed_rate:.1} at {:.1}% steal", closed_steal * 100.0),
            ),
            ("sustained_rps".into(), format!("{sustained_rps:.1}")),
            ("light_latency_ms_p50".into(), format!("{:.3}", median(&light.lat_ms))),
            ("light_latency_ms_p99".into(), format!("{:.3}", light.p99())),
            ("heavy_window_p50s_at_steal".into(), window_p50s.join(",")),
            ("heavy_samples_kept".into(), heavy.len().to_string()),
            ("heavy_latency_ms_p95".into(), format!("{:.3}", percentile(&heavy, 95.0))),
            ("late_ms_p99".into(), format!("{late_p99:.3}")),
            ("ladder".into(), rung_notes.join(",")),
            ("server_mean_batch_size".into(), format!("{:.2}", server_stats.mean_batch_size())),
            ("server_memo_hit_rate".into(), format!("{:.3}", server_stats.memo_hit_rate())),
        ],
        valid: late_p99 <= LATE_LIMIT_MS,
    })
}
