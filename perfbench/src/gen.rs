//! Seeded input generation.  Every input a workload hands the program is a
//! pure function of the `--seed` argument (and, for `deep_t`, of the fixed
//! oracle pool), so one seed reproduces a run's requests byte for byte.

use american_option_pricing::core::batch::{ModelKind, PricingRequest, Style};
use american_option_pricing::core::bsm::BsmModel;
use american_option_pricing::core::{OptionParams, OptionType};

/// SplitMix64: tiny, fast, and good enough to spread seeds over inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` under a per-purpose `stream` tag, so the
    /// book, the pool sample and the quote stream never share draws.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Market parameters drawn from the ranges every workload shares.  Rounded
/// to a 1e-6 grid so the wire's shortest-round-trip decimals stay short.
fn params(rng: &mut Rng, dividend_free: bool) -> OptionParams {
    let round = |x: f64| (x * 1e6).round() / 1e6;
    let spot = round(rng.range(80.0, 125.0));
    OptionParams {
        spot,
        strike: round(spot * rng.range(0.8, 1.25)),
        rate: round(rng.range(0.005, 0.05)),
        volatility: round(rng.range(0.15, 0.45)),
        dividend_yield: if dividend_free { 0.0 } else { round(rng.range(0.0, 0.04)) },
        expiry: round(rng.range(0.25, 2.0)),
    }
}

/// BSM contracts must also pass the explicit scheme's stability gate at
/// `steps`; redraw until they do (deterministic for a given seed).
fn bsm_params(rng: &mut Rng, steps: usize) -> OptionParams {
    loop {
        let p = params(rng, true);
        if BsmModel::new(p, steps).is_ok() {
            return p;
        }
    }
}

/// Which fast engine a `deep_t` contract exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// BOPM American call.
    RightCone,
    /// BOPM American put.
    LeftCone,
    /// BSM American put.
    Centered,
}

impl Engine {
    pub const ALL: [Engine; 3] = [Engine::RightCone, Engine::LeftCone, Engine::Centered];

    pub fn name(self) -> &'static str {
        match self {
            Engine::RightCone => "right_cone",
            Engine::LeftCone => "left_cone",
            Engine::Centered => "centered",
        }
    }
}

/// Lattice size of every `deep_t` contract.
pub const DEEP_T_STEPS: usize = 1 << 14;
/// Contracts per engine in the fixed `deep_t` pool whose reference prices
/// live in `refs/deep_t.tsv`.
pub const DEEP_T_POOL_PER_ENGINE: usize = 48;
/// The pool is drawn once, from this fixed seed, independent of `--seed`.
const DEEP_T_POOL_SEED: u64 = 0x00de_e97f_00d1;

/// One `deep_t` pool entry: its engine and its request.
#[derive(Debug, Clone, PartialEq)]
pub struct DeepContract {
    pub engine: Engine,
    pub request: PricingRequest,
}

/// The fixed `deep_t` pool: `DEEP_T_POOL_PER_ENGINE` contracts per engine.
/// The left-cone share is all BOPM puts: BOPM calls and puts cost about the
/// same at this depth, so two thirds of the run sit in one cost cluster and
/// the median latency falls inside it instead of on the edge between two
/// clusters (TOPM puts, about twice as slow, would put it there).
pub fn deep_t_pool() -> Vec<DeepContract> {
    let mut rng = Rng::new(DEEP_T_POOL_SEED, 1);
    let mut pool = Vec::new();
    for engine in Engine::ALL {
        for _ in 0..DEEP_T_POOL_PER_ENGINE {
            let request = match engine {
                Engine::RightCone => PricingRequest::american(
                    ModelKind::Bopm,
                    OptionType::Call,
                    params(&mut rng, false),
                    DEEP_T_STEPS,
                ),
                Engine::LeftCone => PricingRequest::american(
                    ModelKind::Bopm,
                    OptionType::Put,
                    params(&mut rng, false),
                    DEEP_T_STEPS,
                ),
                Engine::Centered => PricingRequest::american(
                    ModelKind::Bsm,
                    OptionType::Put,
                    bsm_params(&mut rng, DEEP_T_STEPS),
                    DEEP_T_STEPS,
                ),
            };
            pool.push(DeepContract { engine, request });
        }
    }
    pool
}

/// The order in which a `deep_t` run prices pool entries: engines strictly
/// round-robin (so every prefix of the run keeps equal engine shares), each
/// engine walking its own seeded permutation of its pool slice.  Cycles if a
/// run outlasts the pool.
pub fn deep_t_order(seed: u64, len: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed, 2);
    let per = DEEP_T_POOL_PER_ENGINE;
    let perms: Vec<Vec<usize>> = (0..Engine::ALL.len())
        .map(|e| {
            let mut p: Vec<usize> = (e * per..(e + 1) * per).collect();
            shuffle(&mut p, &mut rng);
            p
        })
        .collect();
    let first = rng.below(Engine::ALL.len());
    (0..len)
        .map(|k| {
            let e = (first + k) % Engine::ALL.len();
            perms[e][(k / Engine::ALL.len()) % per]
        })
        .collect()
}

fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// Lattice size of the `book_cold` book and of most quote traffic: the
/// wire's default `steps`.
pub const BOOK_STEPS: usize = 252;
/// Contracts in one `book_cold` book.
pub const BOOK_SIZE: usize = 4096;

/// One seeded book of `n` distinct contracts at `steps`: mostly American
/// (BOPM/TOPM calls and puts, BSM puts), a European slice and a Bermudan
/// BOPM-put slice.
pub fn book(seed: u64, n: usize, steps: usize) -> Vec<PricingRequest> {
    let mut rng = Rng::new(seed, 3);
    (0..n)
        .map(|_| {
            let roll = rng.unit();
            let ty = if rng.unit() < 0.5 { OptionType::Call } else { OptionType::Put };
            if roll < 0.10 {
                let model = [ModelKind::Bopm, ModelKind::Topm][rng.below(2)];
                PricingRequest::european(model, ty, params(&mut rng, false), steps)
            } else if roll < 0.15 {
                let mut dates: Vec<usize> =
                    (0..4).map(|_| 1 + rng.below(steps)).collect::<Vec<_>>();
                dates.sort_unstable();
                dates.dedup();
                PricingRequest::bermudan_put(params(&mut rng, false), steps, dates)
            } else if roll < 0.30 {
                PricingRequest::american(
                    ModelKind::Bsm,
                    OptionType::Put,
                    bsm_params(&mut rng, steps),
                    steps,
                )
            } else {
                let model = [ModelKind::Bopm, ModelKind::Topm][rng.below(2)];
                PricingRequest::american(model, ty, params(&mut rng, false), steps)
            }
        })
        .collect()
}

/// Kind of one quote-stream request.
#[derive(Debug, Clone, PartialEq)]
pub enum Quote {
    Price(PricingRequest),
    Greeks(PricingRequest),
    /// An implied-vol quote: the contract (volatility = the known vol the
    /// market price was made at) and the market price.
    ImpliedVol {
        request: PricingRequest,
        market_price: f64,
    },
}

/// Contracts the stream's Zipf popularity ranges over (`T = 252`).
pub const STREAM_UNIVERSE: usize = 3000;
/// Lattice size of the deep tail.
pub const DEEP_STEPS: usize = 3072;
/// Contracts of the deep tail.  Deep requests walk a seeded permutation of
/// them, so within a run they are nearly always memo misses.
pub const STREAM_DEEP_UNIVERSE: usize = 48;
/// Zipf exponent of contract popularity.
const ZIPF_S: f64 = 0.9;
/// Implied-vol quotes range over this many contracts (BOPM, `T = 252`).
const IV_UNIVERSE: usize = 96;

fn stream_contract(rng: &mut Rng, steps: usize) -> PricingRequest {
    let ty = if rng.unit() < 0.5 { OptionType::Call } else { OptionType::Put };
    if rng.unit() < 0.2 {
        PricingRequest::american(ModelKind::Bsm, OptionType::Put, bsm_params(rng, steps), steps)
    } else {
        let model = [ModelKind::Bopm, ModelKind::Topm][rng.below(2)];
        PricingRequest::american(model, ty, params(rng, false), steps)
    }
}

/// The seeded universe of quote-stream contracts at `T = 252`, all routed
/// by the batch layer.
pub fn stream_universe(seed: u64) -> Vec<PricingRequest> {
    let mut rng = Rng::new(seed, 4);
    (0..STREAM_UNIVERSE).map(|_| stream_contract(&mut rng, BOOK_STEPS)).collect()
}

/// The seeded deep tail: BOPM calls and puts (alternating) at
/// `T = DEEP_STEPS`.  Only market parameters are drawn, so every seed's
/// tail costs the same and the heavy-rate p99, which sits inside the tail,
/// does not swing with the seed.
pub fn stream_deep_universe(seed: u64) -> Vec<PricingRequest> {
    let mut rng = Rng::new(seed, 11);
    (0..STREAM_DEEP_UNIVERSE)
        .map(|k| {
            let ty = if k % 2 == 0 { OptionType::Call } else { OptionType::Put };
            PricingRequest::american(ModelKind::Bopm, ty, params(&mut rng, false), DEEP_STEPS)
        })
        .collect()
}

/// The implied-vol universe: American BOPM contracts at `T = 252` whose
/// market prices are made at their own (known) volatility by `price`, so
/// every quote is attainable.
pub fn iv_universe(
    seed: u64,
    price: impl Fn(&PricingRequest) -> f64,
) -> Vec<(PricingRequest, f64)> {
    let mut rng = Rng::new(seed, 5);
    (0..IV_UNIVERSE)
        .map(|_| {
            let ty = if rng.unit() < 0.5 { OptionType::Call } else { OptionType::Put };
            let request =
                PricingRequest::american(ModelKind::Bopm, ty, params(&mut rng, false), BOOK_STEPS);
            let market = price(&request);
            (request, market)
        })
        .collect()
}

/// Cumulative Zipf weights over `n` ranks.
fn zipf_cdf(n: usize) -> Vec<f64> {
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = (1..=n)
        .map(|r| {
            acc += 1.0 / (r as f64).powf(ZIPF_S);
            acc
        })
        .collect();
    for c in &mut cdf {
        *c /= acc;
    }
    cdf
}

/// Request kinds in every block of 50 consecutive stream requests: one
/// deep-tail price, one implied vol, four greeks, the rest prices.  A fixed
/// pattern (with seeded contents) gives every window of the stream the same
/// mix, so what a run measures does not swing with how many expensive
/// requests a seed happened to put into it.
const KIND_BLOCK: usize = 50;
const DEEP_SLOT: usize = 0;
const IV_SLOT: usize = 25;
const GREEKS_SLOTS: [usize; 4] = [6, 18, 31, 43];

/// `n` seeded stream requests: 88% prices, 8% greeks, 2% implied vols and
/// 2% deep-tail prices, laid out by the fixed per-50 pattern above.  Prices
/// and greeks pick contracts by Zipf rank over a seeded permutation of
/// `universe`; deep-tail prices walk a seeded permutation of `deep`.
pub fn quote_stream(
    seed: u64,
    n: usize,
    universe: &[PricingRequest],
    deep: &[PricingRequest],
    ivs: &[(PricingRequest, f64)],
) -> Vec<Quote> {
    let mut rng = Rng::new(seed, 6);
    let mut by_rank: Vec<usize> = (0..universe.len()).collect();
    shuffle(&mut by_rank, &mut rng);
    let cdf = zipf_cdf(universe.len());
    let mut deep_order: Vec<usize> = (0..deep.len()).collect();
    shuffle(&mut deep_order, &mut rng);
    let pick = |rng: &mut Rng| {
        let u = rng.unit();
        &universe[by_rank[cdf.partition_point(|&c| c < u).min(universe.len() - 1)]]
    };
    (0..n)
        .map(|k| match k % KIND_BLOCK {
            DEEP_SLOT => Quote::Price(deep[deep_order[(k / KIND_BLOCK) % deep.len()]].clone()),
            IV_SLOT => {
                let (request, market_price) = ivs[rng.below(ivs.len())].clone();
                Quote::ImpliedVol { request, market_price }
            }
            slot if GREEKS_SLOTS.contains(&slot) => Quote::Greeks(pick(&mut rng).clone()),
            _ => Quote::Price(pick(&mut rng).clone()),
        })
        .collect()
}

/// A stable text rendering of requests, for byte-identity tests.
pub fn render(requests: &[PricingRequest]) -> String {
    requests.iter().map(|r| format!("{}\n", describe(r))).collect()
}

/// One-line description of a request with every float as its exact bits.
pub fn describe(r: &PricingRequest) -> String {
    let p = &r.params;
    let style = match &r.style {
        Style::European => "european".to_string(),
        Style::American => "american".to_string(),
        Style::Bermudan(d) => format!("bermudan{d:?}"),
    };
    format!(
        "{:?} {:?} {style} steps={} spot={:016x} strike={:016x} rate={:016x} vol={:016x} \
         div={:016x} expiry={:016x}",
        r.model,
        r.option_type,
        r.steps,
        p.spot.to_bits(),
        p.strike.to_bits(),
        p.rate.to_bits(),
        p.volatility.to_bits(),
        p.dividend_yield.to_bits(),
        p.expiry.to_bits(),
    )
}
