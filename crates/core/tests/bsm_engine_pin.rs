//! Pin of the BSM American put's trapezoid-engine price.
//!
//! `fixtures/bsm_engine_bits.tsv` holds `to_bits()` of
//! `bsm::fast::price_american_put_trapezoid`, recorded while the BSM put
//! still ran on its own centered (anchor −1) engine, before it moved onto
//! the shared left-cone engine in shifted columns `c = k + (T − t)`.
//!
//! The move changes no arithmetic of a single stencil step, only how the
//! rows are cut into FFT passes (the out-of-the-money zero tail is no longer
//! pushed through the correlation), so:
//!
//! * every row must agree within `1e-12·max(price, 1)`;
//! * rows that never reach an FFT correlation must agree bitwise — cones too
//!   narrow for one (the linear advance steps explicitly up to 64 cells, and
//!   a `T`-step cone is `2T + 1` cells wide), and contracts whose cone is all
//!   green or holds no green cell at all (both exit before any advance).
//!
//! Regenerate (only when a change *intends* to move these prices):
//! `cargo test -p amopt-core --test bsm_engine_pin -- --ignored --nocapture print_fixture`
//! and paste the printed rows over the fixture.

use amopt_core::bsm::{fast, BsmModel};
use amopt_core::{EngineConfig, OptionParams};

const FIXTURE: &str = include_str!("fixtures/bsm_engine_bits.tsv");
const STEPS: [usize; 6] = [1, 2, 3, 9, 300, 4096];
const SEEDED_PER_STEPS: usize = 4;
/// Widest input the stencil crate's linear advance steps explicitly instead
/// of correlating by FFT.
const STEPPED_MAX_CELLS: usize = 64;

/// SplitMix64, so the grid is a pure function of one seed.
struct Rng(u64);

impl Rng {
    fn unit(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    }

    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// A dividend-free contract from the benchmark's deep-T / cold-book
    /// ranges.
    fn params(&mut self) -> OptionParams {
        let spot = self.range(80.0, 125.0);
        OptionParams {
            spot,
            strike: spot * self.range(0.8, 1.25),
            rate: self.range(0.005, 0.05),
            volatility: self.range(0.15, 0.45),
            dividend_yield: 0.0,
            expiry: self.range(0.25, 2.0),
        }
    }
}

/// Seeded contracts plus deep-ITM, deep-OTM and at-the-money edge cases at
/// every depth.
fn grid() -> Vec<(usize, OptionParams)> {
    let base = OptionParams { dividend_yield: 0.0, ..OptionParams::paper_defaults() };
    let edges = [(1.0, 130.0), (10_000.0, 1.0), (500.0, 130.0), (129.0, 130.0), (131.0, 130.0)]
        .map(|(spot, strike)| OptionParams { spot, strike, ..base });
    let mut rng = Rng(0x5eed_b5e0_0000_0013);
    let mut out = Vec::new();
    for steps in STEPS {
        for _ in 0..SEEDED_PER_STEPS {
            let p = loop {
                let p = rng.params();
                if BsmModel::new(p, steps).is_ok() {
                    break p;
                }
            };
            out.push((steps, p));
        }
        out.extend(edges.iter().map(|&p| (steps, p)));
    }
    out
}

fn price(p: OptionParams, steps: usize) -> f64 {
    let model = BsmModel::new(p, steps).expect("grid contracts build");
    fast::price_american_put_trapezoid(&model, &EngineConfig::default())
}

/// True when pricing `p` at `steps` never runs an FFT correlation.
fn never_correlates(p: OptionParams, steps: usize) -> bool {
    let model = BsmModel::new(p, steps).expect("grid contracts build");
    let f0 = model.expiry_boundary();
    let t = steps as i64;
    let cone_cells = 2 * steps + 1;
    cone_cells <= STEPPED_MAX_CELLS || f0 >= t || f0 < -t
}

#[test]
#[ignore = "prints a fresh fixture; run by hand when a change intends to move the pinned prices"]
fn print_fixture() {
    println!("# steps\tspot\tstrike\trate\tvol\texpiry\tprice (f64 bits, hex)");
    for (steps, p) in grid() {
        let bits = [p.spot, p.strike, p.rate, p.volatility, p.expiry, price(p, steps)]
            .map(|x| format!("{:016x}", x.to_bits()));
        println!("{steps}\t{}", bits.join("\t"));
    }
}

#[test]
fn trapezoid_put_reproduces_the_pinned_prices() {
    let hex = |s: &str| f64::from_bits(u64::from_str_radix(s, 16).expect("hex f64 bits"));
    let (mut checked, mut bitwise, mut worst) = (0, 0, 0.0f64);
    for line in FIXTURE.lines().filter(|l| !l.starts_with('#') && !l.trim().is_empty()) {
        let cols: Vec<&str> = line.split('\t').collect();
        assert_eq!(cols.len(), 7, "malformed fixture row: {line}");
        let steps: usize = cols[0].parse().expect("steps");
        let p = OptionParams {
            spot: hex(cols[1]),
            strike: hex(cols[2]),
            rate: hex(cols[3]),
            volatility: hex(cols[4]),
            dividend_yield: 0.0,
            expiry: hex(cols[5]),
        };
        let want = hex(cols[6]);
        let got = price(p, steps);
        let gap = (got - want).abs() / want.abs().max(1.0);
        assert!(gap <= 1e-12, "{line}: {got} vs pinned {want} (gap {gap:.2e})");
        if never_correlates(p, steps) {
            assert_eq!(got.to_bits(), want.to_bits(), "{line}: {got} vs pinned {want}");
            bitwise += 1;
        }
        worst = worst.max(gap);
        checked += 1;
    }
    println!("{checked} rows, {bitwise} bitwise, largest gap {worst:.3e}·max(price, 1)");
    assert_eq!(checked, grid().len(), "fixture and grid disagree in size");
    // The bitwise class is not vacuous: the narrow cones and the deep edges.
    assert!(bitwise >= 4 * (SEEDED_PER_STEPS + 5), "{bitwise} bitwise rows");
}
